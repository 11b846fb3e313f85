import concurrent.futures
import itertools
import math
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftlab.gadgets import (
    BudgetExceededError,
    Classification,
    FaultConfig,
    Gadget,
    GadgetGraph,
    _failing_blocks,
    _reduce_chunk,
    iterate_failure_map,
    level1_failure_exact,
    level1_failure_mc,
    level_reduce_mc,
    sample_fault_config,
    truncate_and_classify,
)
from ftlab.cli import gadget_graph_from_json

# prep-then-measure chain: 2 own + 1 shared ER + 2 own, ids 1..5
CHAIN = GadgetGraph((Gadget(2, ((1, 1),)), Gadget(2)))


@pytest.mark.parametrize(
    "gadgets, message",
    [
        ((), "graph needs at least one gadget"),
        ((Gadget(1, ((1, 5),)), Gadget(1)), "gadget 0 links to unknown gadget 5"),
        ((Gadget(1, ((0, 1),)), Gadget(1)), "segment must contain at least one location"),
        ((Gadget(1), Gadget(1, ((1, 0),))), "segment must point forward in time, got 1 -> 0"),
        ((Gadget(1, ((1, 0),)),), "segment must point forward in time, got 0 -> 0"),
    ],
)
def test_graph_construction_errors(gadgets, message):
    with pytest.raises(ValueError) as info:
        GadgetGraph(gadgets)
    assert str(info.value) == message


def test_graph_numbering_and_extents():
    assert CHAIN.total_locations == 5
    # own blocks first, then segments
    assert CHAIN._parts == (frozenset({1, 2}), frozenset({4, 5}), frozenset({3}))
    # extents: gadget 0 is own block 0 + out segment 0, gadget 1 is in segment 0 + own block 1
    assert CHAIN._in == ((), (0,)) and CHAIN._out == ((0,), ()) and CHAIN._succ == (1,)
    # segment 0 runs from gadget 0 to gadget 1: each part's emitter, then the segment's consumer
    assert CHAIN._pred == (0,) and CHAIN._extent.tolist() == [0, 1, 0, 1]
    twin = GadgetGraph((Gadget(2, ((1, 1),)), Gadget(2)))
    assert twin == CHAIN and hash(twin) == hash(CHAIN)
    assert twin != GadgetGraph((Gadget(2, ((2, 1),)), Gadget(2)))
    with pytest.raises(ValueError):
        GadgetGraph((Gadget(1, ((1, 5),)),))  # successor out of range
    with pytest.raises(ValueError):
        GadgetGraph((Gadget(1), Gadget(1, ((1, 0),))))  # points backward
    with pytest.raises(ValueError):
        Gadget(0)


def test_sample_fault_config_edges():
    assert sample_fault_config(CHAIN, 0.0, 1).faulty == frozenset()
    assert sample_fault_config(CHAIN, 1.0, 1).faulty == frozenset(range(1, 6))
    a = sample_fault_config(CHAIN, 0.4, 123)
    assert a == sample_fault_config(CHAIN, 0.4, 123)
    with pytest.raises(ValueError):
        sample_fault_config(CHAIN, 1.5, 1)


def test_sample_fault_config_mean_within_3_sigma():
    big = GadgetGraph((Gadget(500),))
    eps = 0.07
    total = sum(
        len(sample_fault_config(big, eps, seed).faulty) for seed in range(200)
    )
    n = 500 * 200
    assert abs(total - n * eps) <= 3 * math.sqrt(n * eps * (1 - eps))


def test_truncate_no_faults_all_good():
    c = truncate_and_classify(CHAIN, FaultConfig(frozenset()), 1)
    assert c.statuses == ("good", "good")
    assert not c.any_bad
    union = set().union(*c.truncated)
    assert union == set(range(1, 6))
    assert sum(len(s) for s in c.truncated) == 5


def test_truncate_worked_two_gadget_example():
    # 2 faults in the second gadget's own part, 1 in the shared recovery step,
    # t = 1: the late gadget is bad and claims the shared segment; the early
    # gadget, truncated to its own locations, stays good
    c = truncate_and_classify(CHAIN, FaultConfig(frozenset({3, 4, 5})), 1)
    assert c.statuses == ("good", "bad")
    assert c.truncated[0] == frozenset({1, 2})
    assert c.truncated[1] == frozenset({3, 4, 5})


def test_truncate_good_gadget_keeps_segment_when_successor_good():
    c = truncate_and_classify(CHAIN, FaultConfig(frozenset({4})), 1)
    assert c.statuses == ("good", "good")
    assert c.truncated[0] == frozenset({1, 2, 3})
    assert c.truncated[1] == frozenset({4, 5})


def test_truncate_exhaustive_partition_and_double_badness():
    graph = GadgetGraph((Gadget(4, ((2, 1),)), Gadget(4)))  # 10 locations
    n = graph.total_locations
    for t in (1, 2):
        min_double = n + 1
        results = {}
        for bits in range(1 << n):
            faults = frozenset(i + 1 for i in range(n) if bits >> i & 1)
            c = truncate_and_classify(graph, FaultConfig(faults), t)
            results[faults] = c
            assert len(c.truncated) == 2  # the first read checks the partition
            if c.statuses == ("bad", "bad"):
                min_double = min(min_double, len(faults))
        assert min_double == 2 * (t + 1)
        # existential monotonicity: adding one fault never clears the graph
        for faults, c in results.items():
            if not c.any_bad:
                continue
            for extra in range(1, n + 1):
                if extra not in faults:
                    assert results[faults | {extra}].any_bad


def test_truncate_per_gadget_flip_documented():
    # adding a fault may flip an *individual* gadget bad -> good by handing
    # its shared segment to a newly bad successor; only the existence of a
    # bad gadget is monotone
    t = 2
    before = truncate_and_classify(CHAIN, FaultConfig(frozenset({1, 2, 3, 4})), t)
    after = truncate_and_classify(CHAIN, FaultConfig(frozenset({1, 2, 3, 4, 5})), t)
    assert before.statuses == ("bad", "good")
    assert after.statuses == ("good", "bad")
    assert before.any_bad and after.any_bad


def reference_sweep(g, faulty, t):
    """The set-based sweep, with ids numbered straight from the gadget list."""
    own, segs, nxt = [], [], 1
    for i, gadget in enumerate(g.gadgets):
        own.append(set(range(nxt, nxt + gadget.own_locations)))
        nxt += gadget.own_locations
        for count, to in gadget.er_out:
            segs.append((i, to, set(range(nxt, nxt + count))))
            nxt += count
    bad = [False] * len(own)
    for i in reversed(range(len(own))):
        ids = set(own[i])
        for pred, succ, seg in segs:
            if succ == i or (pred == i and not bad[succ]):
                ids |= seg
        bad[i] = len(ids & faulty) > t
    truncated = [set(ids) for ids in own]
    for pred, succ, seg in segs:
        truncated[succ if bad[succ] else pred] |= seg
    statuses = tuple("bad" if b else "good" for b in bad)
    return statuses, tuple(map(frozenset, truncated))


# skip links, two segments between one pair, and gadgets with two or three
# incoming and outgoing segments
SMALL_GRAPHS = [
    GadgetGraph((Gadget(1, ((1, 1), (1, 2))), Gadget(1, ((1, 2), (1, 3))), Gadget(1, ((1, 3),)), Gadget(1))),
    GadgetGraph((Gadget(2, ((1, 1), (1, 3))), Gadget(1, ((2, 2),)), Gadget(1, ((1, 3),)), Gadget(1))),
    GadgetGraph((Gadget(1, ((1, 1), (1, 1), (1, 2))), Gadget(1, ((1, 2),)), Gadget(2))),
]


def assert_matches_reference(g, faults, t):
    c = truncate_and_classify(g, FaultConfig(faults), t)
    statuses, truncated = reference_sweep(g, faults, t)
    assert c.statuses == statuses, (sorted(faults), t)
    assert c.truncated == truncated, (sorted(faults), t)
    return c


@pytest.mark.parametrize("graph", SMALL_GRAPHS)
def test_truncate_matches_reference_sweep_exhaustively(graph):
    n = graph.total_locations
    for t in (0, 1, 2):
        for bits in range(1 << n):
            assert_matches_reference(graph, frozenset(i + 1 for i in range(n) if bits >> i & 1), t)


def test_truncate_matches_reference_sweep_on_sampled_chain():
    rng = np.random.default_rng(3)
    n = 50
    skips = set(rng.choice(n - 2, 10, replace=False).tolist())
    gadgets = []
    for i in range(n):
        er_out = ((int(rng.integers(1, 4)), i + 1),) if i + 1 < n else ()
        if i in skips:
            er_out += ((1, i + 2),)
        gadgets.append(Gadget(int(rng.integers(3, 7)), er_out))
    graph = GadgetGraph(tuple(gadgets))
    any_bad = 0
    for i in range(500):
        faults = sample_fault_config(graph, 0.05, [3, i]).faulty
        any_bad += assert_matches_reference(graph, faults, 1).any_bad
    assert 0 < any_bad < 500  # both outcomes occur


def test_truncate_matches_reference_and_leaves_the_graph_unchanged():
    # 0 to 3 out segments per gadget, skip links and a doubled segment
    gadgets = (
        Gadget(1, ((1, 1), (1, 2), (2, 3))),
        Gadget(2, ((1, 2), (1, 4))),
        Gadget(1, ((1, 3),)),
        Gadget(1, ((1, 4), (1, 5), (1, 6))),
        Gadget(2, ((2, 5),)),
        Gadget(1, ((1, 6), (1, 6))),
        Gadget(1),
    )
    graph = GadgetGraph(gadgets)
    before = pickle.dumps(graph)
    rng = np.random.default_rng(15)
    for _ in range(2400):
        faults = sample_fault_config(graph, float(rng.uniform(0.02, 0.3)), rng).faulty
        assert_matches_reference(graph, faults, int(rng.integers(0, 3)))
    assert pickle.dumps(graph) == before  # the sweeps store nothing on the graph
    twin = GadgetGraph(gadgets)
    assert twin == graph and hash(twin) == hash(graph)


@st.composite
def forward_graphs(draw):
    """Up to 12 gadgets, each with 0 to 3 out segments to any later gadget,
    so skip links and doubled segments both occur."""
    n = draw(st.integers(1, 12))
    gadgets = []
    for i in range(n):
        k = draw(st.integers(0, 3)) if i + 1 < n else 0
        er_out = tuple((draw(st.integers(1, 3)), draw(st.integers(i + 1, n - 1))) for _ in range(k))
        gadgets.append(Gadget(draw(st.integers(1, 4)), er_out))
    return GadgetGraph(tuple(gadgets))


@settings(max_examples=300, deadline=None)
@given(forward_graphs(), st.integers(0, 3), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
def test_candidate_sweep_matches_reference_on_random_forward_graphs(graph, t, eps, seed):
    # the sweep visits only gadgets whose full extent holds more than t faults
    assert_matches_reference(graph, sample_fault_config(graph, eps, seed).faulty, t)


def test_truncate_rejects_unknown_ids():
    with pytest.raises(ValueError, match=r"fault ids outside 1\.\.5: \[0, 99\]"):
        truncate_and_classify(CHAIN, FaultConfig(frozenset({0, 3, 99})), 1)
    with pytest.raises(ValueError):
        truncate_and_classify(CHAIN, FaultConfig(frozenset()), -1)


def test_level1_failure_exact_values():
    assert level1_failure_exact(5, 1, 0.0) == 0.0
    assert level1_failure_exact(5, 1, 1.0) == 1.0
    want = 1.0 - 0.9**5 - 5 * 0.1 * 0.9**4
    assert level1_failure_exact(5, 1, 0.1) == pytest.approx(want, rel=1e-12)
    assert level1_failure_exact(5, 1, 0.1) == pytest.approx(0.08146, abs=1e-10)
    with pytest.raises(ValueError):
        level1_failure_exact(5, 5, 0.1)
    with pytest.raises(ValueError):
        level1_failure_exact(5, 1, 1.2)


def full_binomial_tail(L0, t, eps):
    """P[Bin(L0, eps) > t] as the sum of all L0 - t log-space terms."""
    log_terms = [
        math.lgamma(L0 + 1) - math.lgamma(i + 1) - math.lgamma(L0 - i + 1)
        + i * math.log(eps) + (L0 - i) * math.log1p(-eps)
        for i in range(t + 1, L0 + 1)
    ]
    top = max(log_terms)
    return min(1.0, math.exp(top) * math.fsum(math.exp(lt - top) for lt in log_terms))


def test_level1_failure_exact_is_the_full_sum_bit_for_bit():
    for L0 in (3, 4, 5, 7, 10, 15, 22, 49, 100, 279, 387, 648, 745, 1000):
        for t in range(1, min(3, L0 - 1) + 1):
            for k in range(1, 60):
                eps = 10 ** (-k / 8)
                assert level1_failure_exact(L0, t, eps) == full_binomial_tail(L0, t, eps), (L0, t, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 2000), st.integers(0, 5), st.floats(1e-300, 1.0, exclude_max=True))
def test_level1_failure_exact_matches_full_sum(L0, t, eps):
    t = min(t, L0 - 1)
    assert level1_failure_exact(L0, t, eps) == full_binomial_tail(L0, t, eps)


def test_level1_failure_exact_stops_past_the_tail():
    # 10^6 terms in the full sum; the tail past its spread underflows to 0
    start = time.perf_counter()
    for eps in (0.5, 1e-2, 1e-6, 1e-12):
        assert 0.0 <= level1_failure_exact(10**6, 1, eps) <= 1.0
    assert time.perf_counter() - start < 1.0


def test_level1_failure_exact_within_xi_bound():
    for L0 in (5, 10, 20):
        for t in (1, 2, 3):
            for eps in (1e-3, 1e-2, 0.05, 0.1):
                exact = level1_failure_exact(L0, t, eps)
                bound = (
                    math.comb(L0, t + 1)
                    * eps ** (t + 1)
                    * math.exp((L0 - t - 1) * eps)
                )
                assert exact <= bound * (1 + 1e-12), (L0, t, eps)


def test_level1_failure_mc():
    assert level1_failure_mc(5, 1, 0.0, 1000, 7) == (0.0, 0.0)
    est, err = level1_failure_mc(5, 1, 0.1, 10**6, 7)
    exact = level1_failure_exact(5, 1, 0.1)
    assert err > 0
    assert abs(est - exact) <= 4 * err
    assert level1_failure_mc(5, 1, 0.1, 10**5, 99) == level1_failure_mc(
        5, 1, 0.1, 10**5, 99
    )


def test_iterate_failure_map():
    p1 = level1_failure_exact(5, 1, 0.01)
    seq = iterate_failure_map(3, 5, 1, 0.01)
    assert seq[0] == pytest.approx(p1, rel=1e-12)
    assert seq[1] == pytest.approx(level1_failure_exact(5, 1, p1), rel=1e-12)
    assert len(seq) == 3
    assert seq[0] > seq[1] > seq[2]


def test_level_reduce_mc_zero_noise():
    # at eps = 1e-10, p1 = 2.1e-19 saturates numpy's geometric draw at 2^63 - 1;
    # at 1e-300 and 5e-324 it underflows to 0
    for eps in (0.0, 1e-10, 1e-300, 5e-324):
        for row in level_reduce_mc(3, 7, 1, eps, 100_000, 3):
            assert row.probability == 0.0 and row.stderr == 0.0
    for row in level_reduce_mc(3, 7, 1, 1.0, 1000, 3):
        assert row.probability == 1.0 and row.stderr == 0.0


def test_level_reduce_mc_below_threshold_decreasing_and_calibrated():
    samples = 500_000
    rows = level_reduce_mc(3, 5, 1, 0.01, samples, seed=11)
    exact = iterate_failure_map(3, 5, 1, 0.01)
    assert [r.level for r in rows] == [1, 2, 3]
    for row, want in zip(rows, exact):
        assert abs(row.probability - want) <= 4 * row.stderr + 10 / row.trials
    for a, b in zip(rows, rows[1:]):
        assert b.probability + 3 * b.stderr < a.probability - 3 * a.stderr


def test_level_reduce_mc_above_fixed_point_non_decreasing():
    rows = level_reduce_mc(3, 5, 1, 0.5, 20_000, seed=13)
    exact = iterate_failure_map(3, 5, 1, 0.5)
    assert exact[0] <= exact[1] <= exact[2]
    for a, b in zip(rows, rows[1:]):
        assert b.probability >= a.probability - 3 * (a.stderr + b.stderr)


def reference_fold(fail, levels, L0, t):
    """Per-level failure counts of a dense (m, L0^(levels-1)) level-1 failure
    array, folded with int64 sums over the child axis."""
    counts = [int(fail.sum())]
    for _ in range(levels - 1):
        fail = fail.reshape(len(fail), -1, L0).sum(axis=2) > t
        counts.append(int(fail.sum()))
    return counts


@pytest.mark.parametrize(
    "m, levels, L0, t, eps",
    [
        (64, 3, 7, 1, 0.2),
        (64, 3, 5, 0, 0.05),
        (3, 2, 300, 0, 0.001),
        # every one of 300 children fails, so each parent has a full sibling run
        (3, 2, 300, 100, 0.5),
        (8, 2, 300, 100, 0.335),
    ],
)
def test_reduce_chunk_matches_int64_fold(m, levels, L0, t, eps):
    n = m * L0 ** (levels - 1)
    p1 = level1_failure_exact(L0, t, eps)
    for seed in range(3):
        ids = _failing_blocks(n, p1, np.random.default_rng([seed, L0]))
        assert np.all(np.diff(ids) > 0) and np.all((0 <= ids) & (ids < n))
        fail = np.zeros(n, dtype=bool)
        fail[ids] = True
        got = _reduce_chunk(ids, levels, L0, t)
        assert got == reference_fold(fail.reshape(m, -1), levels, L0, t)
        assert all(type(c) is int for c in got)
    if t == 100 and eps == 0.5:
        assert got == [n, m]


def test_level_reduce_mc_budget_and_workers():
    with pytest.raises(BudgetExceededError):
        level_reduce_mc(10, 5, 1, 0.01, 10**6, 1)
    solo = level_reduce_mc(2, 5, 1, 0.05, 30_000, seed=7, workers=1)
    quad = level_reduce_mc(2, 5, 1, 0.05, 30_000, seed=7, workers=4)
    assert solo == quad
    # a chunk holds 2^17 / (49 p1) = 60 272 samples at p1 = 0.0444, so
    # 200 000 samples are 4 chunks and every worker count below runs several
    rows = [level_reduce_mc(3, 7, 1, 0.05, 200_000, seed=5, workers=w) for w in (1, 2, 3)]
    assert rows[0] == rows[1] == rows[2]


def test_level_reduce_mc_pool_sized_to_its_chunks(monkeypatch):
    # 2^17 / (49 p1) = 1.3e6 samples a chunk at p1 = 0.00203, so 300 000 samples are one chunk
    solo = level_reduce_mc(3, 7, 1, 0.01, 300_000, 1, workers=1)
    real = concurrent.futures.ThreadPoolExecutor

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk run started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert level_reduce_mc(3, 7, 1, 0.01, 300_000, 1, workers=8) == solo
    # 200 000 samples at eps = 0.05 are 4 chunks: 8 workers start 4 threads
    sizes = []

    def sized_pool(max_workers):
        sizes.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", sized_pool)
    level_reduce_mc(3, 7, 1, 0.05, 200_000, seed=5, workers=8)
    assert sizes == [4]


def test_gadget_graph_from_json():
    graph, t = gadget_graph_from_json(
        {
            "gadgets": [
                {"own_locations": 4, "er_out": {"count": 2, "to": 1}},
                {"own_locations": 4},
            ],
            "t": 1,
        }
    )
    assert t == 1
    assert graph.total_locations == 10
    assert graph._parts == (frozenset(range(1, 5)), frozenset(range(7, 11)), frozenset({5, 6}))

    graph2, _ = gadget_graph_from_json(
        {
            "gadgets": [
                {"own_locations": 1, "er_out": [{"count": 1, "to": 1}, {"count": 1, "to": 2}]},
                {"own_locations": 1},
                {"own_locations": 1},
            ],
            "t": 0,
        }
    )
    assert graph2.n_gadgets == 3
    assert graph2.total_locations == 5
    with pytest.raises(ValueError):
        gadget_graph_from_json({"gadgets": [{"own_locations": 1, "er_out": {"count": 1, "to": 9}}], "t": 1})
