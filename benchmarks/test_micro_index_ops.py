"""Micro-benchmarks: wall-clock cost of the primitive index operations.

These are true pytest-benchmark timings (many rounds) of the hot paths —
insert, probe by access-pattern width, migration for each index scheme,
then assessment recording and index selection.  They back the paper's
qualitative maintenance-cost claims at the Python level and guard against
performance regressions.

Besides wall-clock stats, each index benchmark records the operation's
**virtual-clock cost units** as ``extra_info["cost_units"]`` in the
``--benchmark-json`` export.  Cost units are deterministic (they count
model operations, not time), so CI can compare them against the committed
``BENCH_micro.json`` within a tight tolerance without the noise that makes
wall-clock gating flaky — see ``tools/check_bench_regression.py``, which
also prints an advisory line for each row whose ``stats.median`` rose more
than 25 % against the committed file.
"""

import random
import timeit
from collections import deque

import pytest

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.core.assessment import CDIA, CSRIA, SRIA
from repro.core.bit_index import make_bit_index
from repro.core.cost_model import WorkloadStatistics
from repro.core.index_config import IndexConfiguration
from repro.core.selector import select_exhaustive
from repro.indexes.base import CostParams
from repro.indexes.hash_index import MultiHashIndex
from repro.indexes.scan_index import ScanIndex

JAS = JoinAttributeSet(["A", "B", "C"])
N_ITEMS = 2_000
COST_PARAMS = CostParams()


def make_items(n=N_ITEMS):
    return [{"A": i % 251, "B": (i * 7) % 239, "C": (i * 13) % 241} for i in range(n)]


def fresh_bit_index():
    return make_bit_index(JAS, {"A": 8, "B": 8, "C": 8})


def fresh_hash_index(k=3):
    patterns = [
        AccessPattern.from_attributes(JAS, ["A"]),
        AccessPattern.from_attributes(JAS, ["A", "B"]),
        AccessPattern.from_attributes(JAS, ["B", "C"]),
    ][:k]
    return MultiHashIndex(JAS, patterns)


def record_cost_units(benchmark, fn):
    """Attach the operation's deterministic cost units to the JSON export.

    ``fn`` replays the benchmarked operation once on *fresh* state and
    returns the accountant cost it accrued — independent of how many
    timing rounds ran, so the recorded value is exactly reproducible.
    """
    benchmark.extra_info["cost_units"] = round(fn(), 6)


def probe_cost(idx, ap, values):
    """Marginal cost units of one extra probe (search state is unchanged)."""
    before = idx.accountant.snapshot()
    idx.search(ap, values)
    return idx.accountant.cost_since(before, COST_PARAMS)


# --------------------------------------------------------------------- #
# maintenance


def test_bit_index_insert(benchmark):
    items = make_items()

    def build():
        idx = fresh_bit_index()
        for item in items:
            idx.insert(item)
        return idx

    idx = benchmark(build)
    assert idx.size == N_ITEMS
    record_cost_units(benchmark, lambda: build().accountant.cost(COST_PARAMS))


#: The ``sparse_ingest`` workload's value domain: a window's join values
#: are mostly values no recent tuple held.
WIDE_DOMAIN = 262_144


def test_bit_index_insert_wide_domain(benchmark):
    """Inserts whose values the hash memo does not hold: every round takes
    the next 2 000 rows of one shuffled pass over a 262 144-value domain, so
    each value is hashed on a memo miss, as on ``sparse_ingest``."""
    values = list(range(WIDE_DOMAIN))
    random.Random(7).shuffle(values)
    width = len(JAS)
    per_round = N_ITEMS * width
    rounds = iter(range(10**9))

    def fresh_items():
        start = next(rounds) * per_round % (WIDE_DOMAIN - per_round)
        cut = values[start : start + per_round]
        return [dict(zip(JAS.names, cut[i : i + width])) for i in range(0, per_round, width)]

    def build(items):
        idx = fresh_bit_index()
        for item in items:
            idx.insert(item)
        return idx

    idx = benchmark.pedantic(build, setup=lambda: ((fresh_items(),), {}), rounds=100)
    assert idx.size == N_ITEMS
    record_cost_units(benchmark, lambda: build(fresh_items()).accountant.cost(COST_PARAMS))


def test_multi_hash_insert(benchmark):
    items = make_items()

    def build():
        idx = fresh_hash_index()
        for item in items:
            idx.insert(item)
        return idx

    idx = benchmark(build)
    assert idx.size == N_ITEMS
    record_cost_units(benchmark, lambda: build().accountant.cost(COST_PARAMS))


def test_bit_index_expiry(benchmark):
    items = make_items()

    def cycle():
        idx = fresh_bit_index()
        for item in items:
            idx.insert(item)
        for item in items:
            idx.remove(item)
        return idx

    idx = benchmark(cycle)
    assert idx.size == 0 and idx.memory_bytes == 0
    record_cost_units(benchmark, lambda: cycle().accountant.cost(COST_PARAMS))


# --------------------------------------------------------------------- #
# search, by access-pattern width


@pytest.mark.parametrize("n_attrs", [1, 2, 3])
def test_bit_index_probe(benchmark, n_attrs):
    idx = fresh_bit_index()
    for item in make_items():
        idx.insert(item)
    ap = AccessPattern.from_attributes(JAS, ["A", "B", "C"][:n_attrs])
    values = {"A": 5, "B": 7, "C": 13}

    out = benchmark(lambda: idx.search(ap, values))
    assert out.tuples_examined <= idx.size
    record_cost_units(benchmark, lambda: probe_cost(idx, ap, values))


@pytest.mark.parametrize(
    "attributes",
    [
        pytest.param(["A"], id="1"),
        pytest.param(["A", "B"], id="2"),
        pytest.param(["A", "B", "C"], id="3"),
        # No module indexes a subset of <*,*,C>: charged the full scan,
        # ``test_scan_probe``'s cost units, though an exact table answers it.
        pytest.param(["C"], id="no-module-C"),
        # Module <A> is the partial one for <A,*,C>: charged its bucket.
        pytest.param(["A", "C"], id="partial-module-AC"),
    ],
)
def test_multi_hash_probe(benchmark, attributes):
    idx = fresh_hash_index()
    for item in make_items():
        idx.insert(item)
    ap = AccessPattern.from_attributes(JAS, attributes)
    values = {"A": 5, "B": 7, "C": 13}

    out = benchmark(lambda: idx.search(ap, values))
    assert out.tuples_examined <= idx.size
    record_cost_units(benchmark, lambda: probe_cost(idx, ap, values))


def test_multi_hash_probe_between_arrivals(benchmark):
    """A tick's shape on a multi-hash state: one arrival, one expiry, one
    probe column.  No module suits <*,*,C>, so an exact table answers it
    and the probe is charged the full scan; insert and remove keep that
    table current in place, so the prober outlives both."""
    items = make_items(N_ITEMS + 1)
    ap = AccessPattern.from_attributes(JAS, ["C"])
    rows = [(13,)]

    def stored():
        idx = fresh_hash_index()
        for item in items[:-1]:
            idx.insert(item)
        return idx, deque(items[:-1]), [items[-1]]

    def one_round(idx, window, spare):
        idx.insert(spare[0])
        window.append(spare[0])
        spare[0] = window.popleft()
        idx.remove(spare[0])
        return idx.search_batch(ap, rows)

    idx, window, spare = stored()
    out = benchmark(one_round, idx, window, spare)
    assert idx.size == N_ITEMS and out[0].tuples_examined == N_ITEMS

    def cost():
        idx, window, spare = stored()
        before = idx.accountant.snapshot()
        one_round(idx, window, spare)
        return idx.accountant.cost_since(before, COST_PARAMS)

    record_cost_units(benchmark, cost)


def test_scan_probe(benchmark):
    idx = ScanIndex(JAS)
    for item in make_items():
        idx.insert(item)
    ap = AccessPattern.from_attributes(JAS, ["A"])

    out = benchmark(lambda: idx.search(ap, {"A": 5}))
    assert out.tuples_examined == idx.size
    record_cost_units(benchmark, lambda: probe_cost(idx, ap, {"A": 5}))


# --------------------------------------------------------------------- #
# wide wildcard probes that match nothing: answered from the counts

SPARSE_DOMAIN = 262_144


def sparse_items(n):
    """``n`` tuples over a domain far wider than the state (splitmix-style
    multipliers: no two tuples share a value, as on ``sparse_ingest``)."""
    return [
        {
            "A": (i * 2_654_435_761) % SPARSE_DOMAIN,
            "B": (i * 40_503 + 7) % SPARSE_DOMAIN,
            "C": (i * 69_069 + 1) % SPARSE_DOMAIN,
        }
        for i in range(n)
    ]


def absent_rows(items, n=256):
    """One-attribute probe rows over the same domain that no item carries."""
    stored = {item["A"] for item in items}
    values = ((i * 48_271 + 11) % SPARSE_DOMAIN for i in range(10 * n))
    return [[(v,)] for v in values if v not in stored][:n]


def probe_all(idx, ap, rows):
    examined = 0
    for row in rows:
        examined += idx.search_batch(ap, row)[0].tuples_examined
    return examined


def test_bit_probe_wide_wildcard_no_match(benchmark):
    """The ``sparse_ingest`` probe: a 1 200-tuple state, 12 bits over three
    attributes, one attribute probed, nothing matches.  Its cost units are
    what the walk charges — the counts must report the same
    ``tuples_examined`` — so the regression gate holds the charge."""
    items = sparse_items(1_200)
    idx = make_bit_index(JAS, {"A": 4, "B": 4, "C": 4})
    for item in items:
        idx.insert(item)
    ap = AccessPattern.from_attributes(JAS, ["A"])
    rows = absent_rows(items)

    examined = benchmark(lambda: probe_all(idx, ap, rows))
    assert examined > 0 and idx.count_rows[1] == 0

    def cost():
        before = idx.accountant.snapshot()
        probe_all(idx, ap, rows)
        return idx.accountant.cost_since(before, COST_PARAMS)

    record_cost_units(benchmark, cost)


# --------------------------------------------------------------------- #
# a paper-scale probe: the bucket walk over value rows

PAPER_JAS = JoinAttributeSet(["AB", "BC", "BD"])


@pytest.mark.parametrize(
    "attributes",
    [
        pytest.param(["AB", "BC", "BD"], id="point"),
        # 6 of 11 bits fixed: ~5 tuples examined per row, ~1 match.
        pytest.param(["AB", "BC"], id="wildcard"),
    ],
)
def test_bit_probe_paper_scale(benchmark, attributes):
    """One hop's column as ``paper_drift`` probes it: a 240-tuple window
    (rate 12, window 20) over a skewed 256-value domain, the key map state
    B trains to on scenario seed 700 (``AB:3, BC:3, BD:5``), sixteen rows
    drawn from the state itself.  Per-probe microseconds (minimum of the
    repeats) go to ``extra_info``; the cost units hold the charges."""
    draw = random.Random(7).random
    items = [{a: int(256 * draw() ** 2) for a in PAPER_JAS.names} for _ in range(240)]
    idx = make_bit_index(PAPER_JAS, {"AB": 3, "BC": 3, "BD": 5})
    for item in items:
        idx.insert(item)
    ap = AccessPattern.from_attributes(PAPER_JAS, attributes)
    rows = [tuple(item[a] for a in ap.attributes) for item in items[:16]]

    outcomes = benchmark(lambda: idx.search_batch(ap, rows))
    assert all(out.matches for out in outcomes)
    best = min(timeit.repeat(lambda: idx.search_batch(ap, rows), number=20, repeat=20))
    benchmark.extra_info["us_per_probe"] = round(best / 20 / len(rows) * 1e6, 3)

    def cost():
        before = idx.accountant.snapshot()
        idx.search_batch(ap, rows)
        return idx.accountant.cost_since(before, COST_PARAMS)

    record_cost_units(benchmark, cost)


def test_bit_probe_shared_fragments(benchmark):
    """A 64-row column whose rows share fragments: a 512-tuple state over a
    4-bit key map (``A:2, B:1, C:1``), probed ``<A,B,*>`` with 64 distinct
    stored ``(A, B)`` pairs — eight fragment tuples between them.  Each
    round drops the prober first, as an insert or an expiry does, so the
    column finds each fragment tuple's candidate rows once and filters
    them for every row after."""
    items = [{"A": i % 64, "B": (i * 5) % 48, "C": i % 8} for i in range(512)]
    idx = make_bit_index(JAS, {"A": 2, "B": 1, "C": 1})
    for item in items:
        idx.insert(item)
    ap = AccessPattern.from_attributes(JAS, ["A", "B"])
    rows = list(dict.fromkeys((item["A"], item["B"]) for item in items))[:64]
    assert len(rows) == 64

    def column():
        idx._drop_probers()
        return idx.search_batch(ap, rows)

    outcomes = benchmark(column)
    assert all(out.matches for out in outcomes)
    best = min(timeit.repeat(column, number=20, repeat=20))
    benchmark.extra_info["us_per_probe"] = round(best / 20 / len(rows) * 1e6, 3)

    def cost():
        before = idx.accountant.snapshot()
        column()
        return idx.accountant.cost_since(before, COST_PARAMS)

    record_cost_units(benchmark, cost)


# --------------------------------------------------------------------- #
# adaptation


def test_bit_index_migration(benchmark):
    items = make_items()
    target_a = IndexConfiguration(JAS, {"A": 10, "B": 3})
    target_b = IndexConfiguration(JAS, {"B": 8, "C": 8})

    idx = fresh_bit_index()
    for item in items:
        idx.insert(item)
    state = {"flip": False}

    def migrate():
        state["flip"] = not state["flip"]
        return idx.reconfigure(target_a if state["flip"] else target_b)

    report = benchmark(migrate)
    assert report.tuples_moved == N_ITEMS

    def one_migration():
        fresh = fresh_bit_index()
        for item in items:
            fresh.insert(item)
        before = fresh.accountant.snapshot()
        fresh.reconfigure(target_a)
        return fresh.accountant.cost_since(before, COST_PARAMS)

    record_cost_units(benchmark, one_migration)


def test_multi_hash_retune(benchmark):
    idx = fresh_hash_index()
    for item in make_items():
        idx.insert(item)
    set_a = [AccessPattern.from_attributes(JAS, ["C"])]
    set_b = [AccessPattern.from_attributes(JAS, ["A", "C"])]
    state = {"flip": False}

    def retune():
        state["flip"] = not state["flip"]
        idx.set_patterns(set_a if state["flip"] else set_b)

    benchmark(retune)
    assert idx.module_count == 1

    def one_retune():
        fresh = fresh_hash_index()
        for item in make_items():
            fresh.insert(item)
        before = fresh.accountant.snapshot()
        fresh.set_patterns(set_a)
        return fresh.accountant.cost_since(before, COST_PARAMS)

    record_cost_units(benchmark, one_retune)


# --------------------------------------------------------------------- #
# assessment

PATTERN_CYCLE = [AccessPattern.from_mask(JAS, 1 + (i % 7)) for i in range(1000)]


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: SRIA(JAS), id="sria"),
        pytest.param(lambda: CSRIA(JAS, 0.05), id="csria"),
        pytest.param(lambda: CDIA(JAS, 0.05, combine="highest_count"), id="cdia-highest"),
        pytest.param(lambda: CDIA(JAS, 0.05, combine="random"), id="cdia-random"),
    ],
)
def test_assessor_record_throughput(benchmark, factory):
    def record_all():
        assessor = factory()
        for ap in PATTERN_CYCLE:
            assessor.record(ap)
        return assessor

    assessor = benchmark(record_all)
    assert assessor.n_requests == len(PATTERN_CYCLE)


def test_selector_exhaustive_64bit(benchmark):
    """Full enumeration at the paper's 64-bit budget (domain-capped)."""
    ap = AccessPattern.from_attributes
    stats = WorkloadStatistics(
        lambda_d=100,
        lambda_r=100,
        window=20,
        frequencies={
            ap(JAS, ["A"]): 0.3,
            ap(JAS, ["A", "B"]): 0.3,
            ap(JAS, ["B", "C"]): 0.4,
        },
        domain_bits={"A": 8, "B": 8, "C": 8},
    )
    best = benchmark(lambda: select_exhaustive(stats, JAS, 64))
    assert best.total_bits <= 64


def test_selector_exhaustive_wide_domain(benchmark):
    """Ten tuning rounds on the widest pool the workloads search: 18-bit
    domains leave the selector's 16-bit per-attribute cap, 17**3 = 4 913
    candidates.  Five frequent patterns (what theta = 0.1 leaves of a
    drifting route mix) at the paper scenario's rate and window; the pool
    is built before timing, as in a running engine.  A tenth of the row's
    median is one selection; a per-candidate loop would cost ~500x that."""
    ap = AccessPattern.from_attributes
    stats = WorkloadStatistics(
        lambda_d=12.0,
        lambda_r=200.0,
        window=20.0,
        frequencies={
            ap(JAS, ["A"]): 0.3,
            ap(JAS, ["B"]): 0.15,
            ap(JAS, ["A", "B"]): 0.2,
            ap(JAS, ["B", "C"]): 0.15,
            ap(JAS, ["A", "B", "C"]): 0.2,
        },
        domain_bits=dict.fromkeys(JAS.names, 18),
    )
    chosen = select_exhaustive(stats, JAS, 64)

    def ten_rounds():
        return [select_exhaustive(stats, JAS, 64) for _ in range(10)]

    assert benchmark(ten_rounds) == [chosen] * 10
