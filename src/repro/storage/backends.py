"""The pluggable index-backend registry.

Every physical state-index scheme in the repository registers here under a
short string name, together with a declarative descriptor of what it can do
(:class:`BackendCapabilities`) and what it costs to hold
(:class:`MemoryProfile`).  The registry is the single place the rest of the
system resolves "which index is this / what may I do with it":

- workload scenarios and :class:`~repro.experiments.parallel.RunSpec` build
  indexes by name instead of importing concrete classes;
- ``repro run --index-backend <name>`` overrides a scheme's physical
  backend from the command line;
- capability lookups replace ad-hoc ``isinstance`` checks (e.g.
  ``StateStore.degraded`` is ``capabilities_for(index).unindexed``).

Resolution failures raise :class:`UnknownBackendError` listing every
registered name, so a typo on the command line is a one-line fix, not a
traceback safari.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.bit_index import BitAddressIndex
from repro.core.index_config import IndexConfiguration, ValueMapper, uniform_configuration
from repro.indexes.base import Accountant, CostParams, StateIndex
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex


class UnknownBackendError(LookupError):
    """An index-backend name that is not in the registry.

    The message lists every registered name so callers (and CLI users) can
    correct the request without reading source.
    """

    def __init__(self, name: str, registered: tuple[str, ...]) -> None:
        self.name = name
        self.registered = registered
        super().__init__(
            f"unknown index backend {name!r}; registered backends: "
            f"{', '.join(registered)}"
        )


@dataclass(frozen=True)
class BackendCapabilities:
    """What one index backend can do — the ``isinstance`` replacement.

    ``reconfigurable``
        Supports ``reconfigure(IndexConfiguration)`` — the AMRI key-map
        migration (and therefore budgeted incremental migration).
    ``tunable``
        An adaptive tuner can drive it at all (reconfigurable bit-address
        indexes and per-pattern hash module sets).
    ``per_pattern_modules``
        Retunes by swapping per-access-pattern modules
        (``set_patterns``) rather than one global key map.
    ``unindexed``
        Every probe is a full scan — this *is* the degraded state.
    """

    reconfigurable: bool = False
    tunable: bool = False
    per_pattern_modules: bool = False
    unindexed: bool = False


@dataclass(frozen=True)
class MemoryProfile:
    """Closed-form steady-state memory shape of one backend.

    Byte figures come from :class:`~repro.indexes.base.CostParams` at
    estimate time; the profile only records the *shape* — how many slot
    references and index entries each stored tuple carries, and whether
    live buckets pay a structure overhead.  Estimates match what the
    accountant's ``index_bytes`` gauge converges to (bucket overhead uses
    the caller-supplied live-bucket count since occupancy is data-dependent).
    """

    slots_per_tuple: int = 1  # bucket_slot_bytes references per stored tuple
    entries_per_attribute: int = 0  # index_entry_bytes per tuple per indexed attr/module
    bucket_overhead: bool = False  # live buckets pay bucket_bytes + inverted-map entries

    def estimate_bytes(
        self,
        n_tuples: int,
        n_indexed_attributes: int,
        params: CostParams | None = None,
        *,
        n_buckets: int = 0,
    ) -> int:
        """Steady-state structure bytes for ``n_tuples`` stored tuples."""
        if params is None:
            params = CostParams()
        total = n_tuples * self.slots_per_tuple * params.bucket_slot_bytes
        total += (
            n_tuples * self.entries_per_attribute * n_indexed_attributes * params.index_entry_bytes
        )
        if self.bucket_overhead:
            total += n_buckets * (params.bucket_bytes + 8 * n_indexed_attributes)
        return total


@dataclass
class IndexBuildSpec:
    """Everything a backend factory may need to construct an index.

    Factories take what they use and ignore the rest: bit-address backends
    need a ``config`` (derived uniformly from ``bit_budget`` when absent),
    the multi-hash backend needs ``patterns``, scan and inverted need only
    the JAS.
    """

    jas: JoinAttributeSet
    accountant: Accountant | None = None
    cost_params: CostParams | None = None
    config: IndexConfiguration | None = None
    patterns: tuple[AccessPattern, ...] = ()
    value_mapper: ValueMapper | None = None
    bit_budget: int = 64

    def resolved_config(self) -> IndexConfiguration:
        """The bit-address key map: explicit, or uniform over the budget."""
        if self.config is not None:
            return self.config
        return uniform_configuration(self.jas, self.bit_budget)


BackendFactory = Callable[[IndexBuildSpec], StateIndex]


@dataclass(frozen=True)
class IndexBackendDescriptor:
    """One registered backend: name, class, capabilities, memory, factory."""

    name: str
    cls: type[StateIndex]
    capabilities: BackendCapabilities
    memory: MemoryProfile
    summary: str
    factory: BackendFactory = field(repr=False, compare=False, default=None)  # type: ignore[assignment]

    def build(self, spec: IndexBuildSpec) -> StateIndex:
        """Construct one index instance from a build spec."""
        return self.factory(spec)


class IndexBackendRegistry:
    """Name → :class:`IndexBackendDescriptor`, plus reverse class lookup."""

    def __init__(self) -> None:
        self._by_name: dict[str, IndexBackendDescriptor] = {}
        self._by_class: dict[type, IndexBackendDescriptor] = {}

    def register(self, descriptor: IndexBackendDescriptor) -> IndexBackendDescriptor:
        """Add one backend; re-registering a name is a hard error."""
        if descriptor.name in self._by_name:
            raise ValueError(f"index backend {descriptor.name!r} is already registered")
        if descriptor.factory is None:
            raise ValueError(f"index backend {descriptor.name!r} has no factory")
        self._by_name[descriptor.name] = descriptor
        self._by_class[descriptor.cls] = descriptor
        return descriptor

    def names(self) -> tuple[str, ...]:
        """Every registered backend name, sorted."""
        return tuple(sorted(self._by_name))

    def resolve(self, name: str) -> IndexBackendDescriptor:
        """The descriptor registered under ``name``.

        Raises :class:`UnknownBackendError` (listing every registered name)
        on a miss.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownBackendError(name, self.names()) from None

    def build(self, name: str, spec: IndexBuildSpec) -> StateIndex:
        """Resolve ``name`` and build an index from ``spec``."""
        return self.resolve(name).build(spec)

    def descriptor_for(self, index: StateIndex | type) -> IndexBackendDescriptor | None:
        """The most specific descriptor matching an index instance or class.

        Exact class first, then the MRO — so a ``StaticBitmapIndex`` (a
        ``BitAddressIndex`` subclass) resolves to ``static_bitmap``, and an
        unregistered subclass of a registered backend inherits its parent's
        descriptor.  Returns ``None`` for fully unknown types.
        """
        cls = index if isinstance(index, type) else type(index)
        for candidate in cls.__mro__:
            hit = self._by_class.get(candidate)
            if hit is not None:
                return hit
        return None

    def capabilities_for(self, index: StateIndex | type) -> BackendCapabilities:
        """Capabilities of an index instance/class; conservative default
        (nothing supported) for unregistered types."""
        descriptor = self.descriptor_for(index)
        return descriptor.capabilities if descriptor is not None else BackendCapabilities()

    def __iter__(self) -> Iterator[IndexBackendDescriptor]:
        return iter(self._by_name[name] for name in self.names())

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __repr__(self) -> str:
        return f"IndexBackendRegistry({', '.join(self.names())})"


# --------------------------------------------------------------------- #
# the built-in backends


def _build_bit_address(spec: IndexBuildSpec) -> BitAddressIndex:
    return BitAddressIndex(
        spec.resolved_config(), spec.accountant, spec.cost_params, spec.value_mapper
    )


def _build_static_bitmap(spec: IndexBuildSpec) -> StaticBitmapIndex:
    return StaticBitmapIndex(
        spec.resolved_config(), spec.accountant, spec.cost_params, spec.value_mapper
    )


def _build_multi_hash(spec: IndexBuildSpec) -> MultiHashIndex:
    patterns = spec.patterns
    if not patterns:
        # Uninformed default: one module per join attribute.
        patterns = tuple(
            AccessPattern.from_attributes(spec.jas, [a]) for a in spec.jas.names
        )
    return MultiHashIndex(spec.jas, patterns, spec.accountant, spec.cost_params)


def _build_inverted(spec: IndexBuildSpec) -> InvertedListIndex:
    return InvertedListIndex(spec.jas, spec.accountant, spec.cost_params)


def _build_scan(spec: IndexBuildSpec) -> ScanIndex:
    return ScanIndex(spec.jas, spec.accountant, spec.cost_params)


#: The process-wide registry every built-in backend registers with.
BACKENDS = IndexBackendRegistry()

BACKENDS.register(
    IndexBackendDescriptor(
        name="bit_address",
        cls=BitAddressIndex,
        capabilities=BackendCapabilities(reconfigurable=True, tunable=True),
        memory=MemoryProfile(slots_per_tuple=1, bucket_overhead=True),
        summary="AMRI single-structure bit-address index (adaptable key map)",
        factory=_build_bit_address,
    )
)
BACKENDS.register(
    IndexBackendDescriptor(
        name="static_bitmap",
        cls=StaticBitmapIndex,
        capabilities=BackendCapabilities(),
        memory=MemoryProfile(slots_per_tuple=1, bucket_overhead=True),
        summary="non-adapting bit-address index (Figure 7 tuning baseline)",
        factory=_build_static_bitmap,
    )
)
BACKENDS.register(
    IndexBackendDescriptor(
        name="multi_hash",
        cls=MultiHashIndex,
        capabilities=BackendCapabilities(tunable=True, per_pattern_modules=True),
        memory=MemoryProfile(slots_per_tuple=1, entries_per_attribute=1),
        summary="per-access-pattern hash modules (Raman-style AMR baseline)",
        factory=_build_multi_hash,
    )
)
BACKENDS.register(
    IndexBackendDescriptor(
        name="inverted",
        cls=InvertedListIndex,
        capabilities=BackendCapabilities(),
        memory=MemoryProfile(slots_per_tuple=1, entries_per_attribute=1),
        summary="per-attribute exact inverted lists (untunable extra baseline)",
        factory=_build_inverted,
    )
)
BACKENDS.register(
    IndexBackendDescriptor(
        name="scan",
        cls=ScanIndex,
        capabilities=BackendCapabilities(unindexed=True),
        memory=MemoryProfile(slots_per_tuple=1),
        summary="no index: every probe full-scans (floor + degradation target)",
        factory=_build_scan,
    )
)


def resolve_backend(name: str) -> IndexBackendDescriptor:
    """Module-level convenience for :meth:`IndexBackendRegistry.resolve`."""
    return BACKENDS.resolve(name)


def capabilities_for(index: StateIndex | type) -> BackendCapabilities:
    """Module-level convenience for :meth:`IndexBackendRegistry.capabilities_for`."""
    return BACKENDS.capabilities_for(index)
