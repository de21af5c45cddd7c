"""Tests for the index-backend registry."""

import pytest

from repro.core.bit_index import BitAddressIndex
from repro.indexes.base import CostParams
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.storage import (
    BACKENDS,
    BackendCapabilities,
    IndexBackendDescriptor,
    IndexBackendRegistry,
    IndexBuildSpec,
    MemoryProfile,
    UnknownBackendError,
    capabilities_for,
    resolve_backend,
)

ALL_BACKENDS = ("bit_address", "inverted", "multi_hash", "scan", "static_bitmap")


class TestRegistry:
    def test_all_five_builtins_registered(self):
        assert BACKENDS.names() == ALL_BACKENDS
        assert len(BACKENDS) == 5
        for name in ALL_BACKENDS:
            assert name in BACKENDS

    def test_resolve_miss_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as exc:
            BACKENDS.resolve("btree")
        msg = str(exc.value)
        assert "unknown index backend 'btree'" in msg
        for name in ALL_BACKENDS:
            assert name in msg

    def test_unknown_backend_error_is_a_lookup_error(self):
        with pytest.raises(LookupError):
            resolve_backend("nope")

    def test_iteration_yields_descriptors_in_name_order(self):
        assert [d.name for d in BACKENDS] == list(ALL_BACKENDS)

    def test_repr_is_stable(self):
        assert repr(BACKENDS) == f"IndexBackendRegistry({', '.join(ALL_BACKENDS)})"

    def test_duplicate_registration_rejected(self):
        registry = IndexBackendRegistry()
        desc = IndexBackendDescriptor(
            name="x",
            cls=ScanIndex,
            capabilities=BackendCapabilities(),
            memory=MemoryProfile(),
            summary="",
            factory=lambda spec: ScanIndex(spec.jas),
        )
        registry.register(desc)
        with pytest.raises(ValueError):
            registry.register(desc)

    def test_registration_requires_a_factory(self):
        registry = IndexBackendRegistry()
        with pytest.raises(ValueError):
            registry.register(
                IndexBackendDescriptor(
                    name="x",
                    cls=ScanIndex,
                    capabilities=BackendCapabilities(),
                    memory=MemoryProfile(),
                    summary="",
                )
            )


class TestClassLookup:
    def test_exact_class_match(self, jas3):
        index = ScanIndex(jas3)
        assert BACKENDS.descriptor_for(index).name == "scan"

    def test_subclass_resolves_to_most_specific(self, jas3):
        # StaticBitmapIndex subclasses BitAddressIndex; the exact entry wins.
        spec = IndexBuildSpec(jas=jas3, bit_budget=6)
        index = BACKENDS.build("static_bitmap", spec)
        assert isinstance(index, StaticBitmapIndex)
        assert BACKENDS.descriptor_for(index).name == "static_bitmap"

    def test_unregistered_subclass_inherits_parent_descriptor(self, jas3):
        class CustomScan(ScanIndex):
            pass

        assert BACKENDS.descriptor_for(CustomScan(jas3)).name == "scan"

    def test_unknown_type_has_no_descriptor_and_no_capabilities(self):
        assert BACKENDS.descriptor_for(object) is None
        assert capabilities_for(object) == BackendCapabilities()


class TestCapabilities:
    def test_bit_address_is_reconfigurable_and_tunable(self):
        caps = BACKENDS.resolve("bit_address").capabilities
        assert caps.reconfigurable and caps.tunable
        assert not caps.unindexed and not caps.per_pattern_modules

    def test_static_bitmap_supports_nothing(self):
        assert BACKENDS.resolve("static_bitmap").capabilities == BackendCapabilities()

    def test_multi_hash_retunes_per_pattern(self):
        caps = BACKENDS.resolve("multi_hash").capabilities
        assert caps.tunable and caps.per_pattern_modules
        assert not caps.reconfigurable

    def test_scan_is_the_degraded_state(self, jas3):
        caps = BACKENDS.resolve("scan").capabilities
        assert caps.unindexed
        assert capabilities_for(ScanIndex(jas3)).unindexed


class TestBuild:
    def test_bit_address_uses_uniform_config_when_unspecified(self, jas3):
        index = BACKENDS.build("bit_address", IndexBuildSpec(jas=jas3, bit_budget=12))
        assert isinstance(index, BitAddressIndex)
        assert index.config.total_bits == 12

    def test_multi_hash_defaults_to_one_module_per_attribute(self, jas3):
        index = BACKENDS.build("multi_hash", IndexBuildSpec(jas=jas3))
        assert isinstance(index, MultiHashIndex)
        assert len(index.patterns) == len(jas3.names)

    def test_every_backend_builds_a_working_index(self, jas3, ap3):
        for name in ALL_BACKENDS:
            index = BACKENDS.build(name, IndexBuildSpec(jas=jas3, bit_budget=6))
            item = {"A": 1, "B": 2, "C": 3}
            index.insert(item)
            out = index.search(ap3("A"), {"A": 1})
            assert len(out.matches) == 1, name
            assert index.contains(item), name
            index.remove(item)
            assert index.size == 0, name

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_duplicate_insert_is_refused_uncharged(self, name, jas3):
        # Storage is by identity: a second insert of one object would count
        # it twice and a single remove would leave a phantom behind.
        index = BACKENDS.build(name, IndexBuildSpec(jas=jas3, bit_budget=6))
        item = {"A": 1, "B": 2, "C": 3}
        index.insert(item)
        before = index.accountant.snapshot()
        with pytest.raises(ValueError, match="item is already stored in this index"):
            index.insert(item)
        assert index.accountant == before and index.size == 1
        index.remove(item)
        assert index.size == 0 and index.memory_bytes == 0
        assert not index.contains(item)

    def test_inverted_builds(self, jas3):
        assert isinstance(
            BACKENDS.build("inverted", IndexBuildSpec(jas=jas3)), InvertedListIndex
        )


class TestMemoryProfile:
    def test_slot_only_profile(self):
        profile = MemoryProfile(slots_per_tuple=1)
        assert profile.estimate_bytes(10, 3) == 10 * CostParams.bucket_slot_bytes

    def test_entries_per_attribute(self):
        profile = MemoryProfile(slots_per_tuple=1, entries_per_attribute=1)
        params = CostParams()
        expected = 10 * params.bucket_slot_bytes + 10 * 3 * params.index_entry_bytes
        assert profile.estimate_bytes(10, 3, params) == expected

    def test_bucket_overhead_uses_live_bucket_count(self):
        profile = MemoryProfile(slots_per_tuple=1, bucket_overhead=True)
        params = CostParams()
        expected = 10 * params.bucket_slot_bytes + 4 * (params.bucket_bytes + 8 * 3)
        assert profile.estimate_bytes(10, 3, params, n_buckets=4) == expected
