"""The scheme table: every scheme name builds its index, tuner and assessor.

One row of ``scenarios.SCHEMES`` per family; this holds each row to the
classes it is documented to build (docs/architecture.md, "Schemes") on
every canned scenario, from the uninformed and from the quasi-trained
start.
"""

import pytest

from repro.core.assessment import ASSESSOR_NAMES, CDIA, CSRIA, DIA, SRIA
from repro.core.bit_index import BitAddressIndex
from repro.core.tuner import AMRITuner, HashIndexTuner, NullTuner
from repro.experiments.harness import cached_training
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.inverted_index import InvertedListIndex
from repro.indexes.scan_index import ScanIndex
from repro.indexes.static_bitmap import StaticBitmapIndex
from repro.workloads.scenarios import (
    SCENARIO_PARAMS,
    SCHEMES,
    PaperScenario,
    parse_scheme,
    parse_scheme_list,
    scenario_params,
)

ASSESSOR_CLASSES = {
    "sria": SRIA,
    "csria": CSRIA,
    "dia": DIA,
    "cdia-random": CDIA,
    "cdia-highest": CDIA,
}

#: scheme -> (index class, tuner class, assessor class)
EXPECTED = {
    **{f"amri:{a}": (BitAddressIndex, AMRITuner, ASSESSOR_CLASSES[a]) for a in ASSESSOR_NAMES},
    **{f"hash:{k}": (MultiHashIndex, HashIndexTuner, CDIA) for k in (1, 2, 3)},
    "static": (StaticBitmapIndex, NullTuner, SRIA),
    "inverted": (InvertedListIndex, NullTuner, SRIA),
    "scan": (ScanIndex, NullTuner, SRIA),
}

TRAIN_TICKS = 20


def test_every_family_has_a_case():
    assert {parse_scheme(s)[0] for s in EXPECTED} == set(SCHEMES)
    assert set(ASSESSOR_CLASSES) == set(ASSESSOR_NAMES)


@pytest.mark.parametrize("trained", [False, True], ids=["untrained", "trained"])
@pytest.mark.parametrize("scenario_name", tuple(SCENARIO_PARAMS))
def test_each_scheme_builds_its_classes(scenario_name, trained):
    params = scenario_params(scenario_name, 7)
    scenario = PaperScenario(params)
    training = cached_training(params, TRAIN_TICKS) if trained else None
    for scheme, (index_cls, tuner_cls, assessor_cls) in EXPECTED.items():
        family, arg = parse_scheme(scheme)
        patterns = training.hash_patterns(arg) if trained and family == "hash" else None
        stems = scenario.build_stems(
            scheme,
            initial_configs=training.configs if trained else None,
            initial_hash_patterns=patterns,
        )
        assert tuple(stems) == params.stream_names
        for stream, stem in stems.items():
            built = (type(stem.index), type(stem.tuner), type(stem.tuner.assessor))
            assert built == (index_cls, tuner_cls, assessor_cls), (scheme, stream)
            if family == "hash":
                # k modules (fewer only where the JAS has fewer patterns)
                assert stem.index.module_count == min(arg, 2 ** len(stem.jas) - 1)
                assert stem.tuner.k == arg
            elif trained and index_cls in (BitAddressIndex, StaticBitmapIndex):
                assert stem.index.config == training.configs[stream]
            if scheme == "amri:cdia-random":
                assert stem.tuner.assessor.combine == "random"
            elif assessor_cls is CDIA:
                assert stem.tuner.assessor.combine == "highest_count"


class TestParseScheme:
    def test_families_and_arguments(self):
        assert parse_scheme("amri:cdia-highest") == ("amri", "cdia-highest")
        assert parse_scheme("hash:3") == ("hash", 3)
        assert parse_scheme("hash:03") == ("hash", 3)
        for name in ("static", "inverted", "scan"):
            assert parse_scheme(name) == (name, None)

    @pytest.mark.parametrize(
        "scheme",
        ["", "bogus", "btree:3", "amri", "hash", "hash:", "hash:0", "hash:-1", "hash:x",
         "hash:²", "hash:٣", "hash:1:2", "static:1", "scan:", "Scan"],
    )
    def test_everything_else_is_the_one_unknown_scheme_error(self, scheme):
        with pytest.raises(ValueError) as exc:
            parse_scheme(scheme)
        assert str(exc.value).startswith(f"unknown scheme {scheme!r}; expected amri:<assessor>")

    def test_the_assessor_name_is_checked_when_the_state_is_built(self):
        assert parse_scheme("amri:bogus") == ("amri", "bogus")
        with pytest.raises(ValueError, match="unknown assessor 'bogus'"):
            PaperScenario().build_stems("amri:bogus")


class TestParseSchemeList:
    def test_splits_and_strips(self):
        assert parse_scheme_list(" scan, hash:2 ,,static") == ["scan", "hash:2", "static"]

    @pytest.mark.parametrize("text", ["", " , "])
    def test_empty_list_names_the_value(self, text):
        with pytest.raises(ValueError, match="names no scheme") as exc:
            parse_scheme_list(text)
        assert repr(text) in str(exc.value)

    def test_repeated_name_names_the_value(self):
        with pytest.raises(ValueError, match="repeats scan, got 'scan,static, scan'"):
            parse_scheme_list("scan,static, scan")
