"""Estimator correctness against enumeration oracles and statistical bounds."""
from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from helpers import (
    binom_3sigma,
    enum_reliability,
    closed_form_candidates,
    closed_form_graph,
    random_graph,
    triangle_graph,
)

from relgain import estimators
from relgain.errors import CapExceededError, RelgainError
from relgain.estimators import (
    EstimatorConfig,
    _reach_counts,
    _State,
    _stratify_state,
    converged_sample_size,
    dispersion,
    estimate,
    reach_counts,
    reliability_all_from,
    reliability_all_to,
    reliability_exact,
    reliability_mc,
    reliability_rss,
    stratify,
)
from relgain.graph import UncertainGraph, reached_set
from relgain.rng import derive_seed, uniform_batch


class TestExact:
    def test_single_edge(self):
        g = UncertainGraph(2, [0], [1], [0.5])
        assert reliability_exact(g, 0, 1).value == pytest.approx(0.5)

    def test_three_node_example(self):
        g = triangle_graph()
        est = reliability_exact(g, 0, 1)
        assert est.value == pytest.approx(0.625, abs=1e-15)
        assert est.variance == 0.0

    def test_closed_form_solution_value(self):
        # undirected base A-B, A-t at 0.5 plus candidates sB, Bt at 0.7
        g = closed_form_graph(0.5).with_edges([closed_form_candidates(0.7)[i] for i in (1, 2)])
        assert reliability_exact(g, 0, 3).value == pytest.approx(0.5425, abs=1e-12)

    def test_source_equals_target(self):
        g = triangle_graph()
        assert reliability_exact(g, 2, 2).value == 1.0

    def test_source_equals_target_above_cap(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 60, 174, directed=False)
        assert reliability_exact(g, 7, 7, cap=25).value == 1.0
        assert estimate(g, 7, 7, EstimatorConfig(method="exact")).value == 1.0

    def test_cap_enforced(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 10, 26)
        with pytest.raises(CapExceededError):
            reliability_exact(g, 0, 1, cap=25)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(101)
        for trial in range(30):
            directed = trial % 2 == 0
            g = random_graph(rng, 6, int(rng.integers(4, 12)), directed=directed)
            want = enum_reliability(g, 0, 5)
            got = reliability_exact(g, 0, 5).value
            assert got == pytest.approx(want, abs=1e-11)

    def test_monotone_in_probabilities(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, 6, 10)
            bumped = UncertainGraph(
                g.n, g.src, g.dst, np.minimum(1.0, g.prob + 0.1), directed=g.directed
            )
            assert reliability_exact(bumped, 0, 5).value >= reliability_exact(g, 0, 5).value - 1e-12


class TestMonteCarlo:
    def test_certain_chain(self):
        g = UncertainGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        est = reliability_mc(g, 0, 3, samples=100)
        assert est.value == 1.0

    def test_disconnected(self):
        g = UncertainGraph(4, [0], [1], [0.9])
        assert reliability_mc(g, 0, 3, samples=200).value == 0.0

    def test_three_node_example_tolerance(self):
        g = triangle_graph()
        est = reliability_mc(g, 0, 1, samples=200_000, seed=3)
        assert abs(est.value - 0.625) < 0.005

    def test_within_3sigma_of_exact(self):
        rng = np.random.default_rng(44)
        bad = 0
        for trial in range(30):
            g = random_graph(rng, 7, 12, directed=trial % 2 == 0)
            want = reliability_exact(g, 0, 6).value
            est = reliability_mc(g, 0, 6, samples=20_000, seed=trial)
            if abs(est.value - want) > binom_3sigma(want, 20_000):
                bad += 1
        assert bad <= 2  # 3-sigma misses are rare but legal

    def test_seed_reproducible(self):
        g = triangle_graph()
        a = reliability_mc(g, 0, 1, samples=5000, seed=7)
        b = reliability_mc(g, 0, 1, samples=5000, seed=7)
        assert a == b


class TestStratify:
    def test_partition_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = random_graph(rng, 8, 14)
            strata = stratify(g, 0, samples=1000, branch_r=5)
            if strata:
                assert sum(s.pi for s in strata) == pytest.approx(1.0, abs=1e-12)

    def test_sample_allotment_rule(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 8, 14)
        Z = 997
        strata = stratify(g, 0, samples=Z, branch_r=5)
        assert sum(s.z for s in strata) == Z
        # every allotment is round(pi * Z) except the largest, which absorbs
        # the remainder
        big = max(range(len(strata)), key=lambda i: strata[i].pi)
        for i, st in enumerate(strata):
            if i != big:
                assert st.z == int(round(st.pi * Z))

    def test_statuses_follow_nesting(self):
        g = triangle_graph()
        strata = stratify(g, 0, samples=100, branch_r=5)
        # frontier of s has two edges; stratum i fixes pivot i present and
        # all earlier pivots absent, final stratum fixes all absent
        assert strata[0].present is not None and strata[0].absent == ()
        assert strata[1].present is not None and len(strata[1].absent) == 1
        assert strata[2].present is None and len(strata[2].absent) == 2


class TestRss:
    def test_certain_graph(self):
        g = UncertainGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
        est = reliability_rss(g, 0, 3, samples=100)
        assert est.value == 1.0
        assert est.variance == 0.0

    def test_small_graph_becomes_exact(self):
        # tiny graphs collapse to closed form because every stratum hits a
        # terminal state before the Monte Carlo fallback triggers
        g = triangle_graph()
        est = reliability_rss(g, 0, 1, samples=1000, seed=1)
        assert est.value == pytest.approx(0.625, abs=1e-12)

    def test_unbiased_over_seeds(self):
        rng = np.random.default_rng(77)
        g = random_graph(rng, 9, 18, directed=False, lo=0.2, hi=0.8)
        want = reliability_exact(g, 0, 8).value
        vals = [reliability_rss(g, 0, 8, samples=400, seed=s).value for s in range(60)]
        sigma = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - want) < max(4 * sigma, 0.005)

    def test_within_3sigma_of_exact(self):
        rng = np.random.default_rng(55)
        bad = 0
        for trial in range(30):
            g = random_graph(rng, 7, 12, directed=trial % 2 == 0)
            want = reliability_exact(g, 0, 6).value
            est = reliability_rss(g, 0, 6, samples=20_000, seed=trial)
            tol = 3 * np.sqrt(est.variance) if est.variance > 0 else 1e-9
            if abs(est.value - want) > max(tol, binom_3sigma(want, 20_000)):
                bad += 1
        assert bad <= 2

    def test_seed_reproducible(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 10, 30)
        a = reliability_rss(g, 0, 9, samples=3000, seed=5)
        b = reliability_rss(g, 0, 9, samples=3000, seed=5)
        assert a == b

    def test_value_never_rounds_above_one(self):
        # six near-certain s-a-t routes: every sampled world connects, and the
        # stratum-weighted sum comes to 1.0000000000000002 before clamping
        src, dst, prob = [], [], []
        for a, p in enumerate([0.95, 0.93, 0.9, 0.9, 0.99, 0.93], start=1):
            src += [0, a]
            dst += [a, 7]
            prob += [p, 0.999]
        g = UncertainGraph(8, src, dst, prob)
        for seed in range(5):
            assert 0.0 <= reliability_rss(g, 0, 7, samples=20, seed=seed).value <= 1.0

    def test_variance_not_worse_than_mc(self):
        # paired comparison over repeated runs on moderate graphs
        rng = np.random.default_rng(33)
        wins = 0
        graphs = 8
        for gi in range(graphs):
            g = random_graph(rng, 10, 25, directed=False, lo=0.2, hi=0.8)
            mc = [reliability_mc(g, 0, 9, 800, seed=r).value for r in range(30)]
            ss = [reliability_rss(g, 0, 9, 800, seed=r).value for r in range(30)]
            if np.var(ss, ddof=1) <= np.var(mc, ddof=1) + 1e-12:
                wins += 1
        assert wins >= graphs - 1


class TestEstimateDispatch:
    def test_auto_small_uses_exact(self):
        g = triangle_graph()
        est = estimate(g, 0, 1, EstimatorConfig(method="auto"))
        assert est.method == "exact"
        assert est.value == pytest.approx(0.625)

    def test_auto_large_uses_rss(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 12, 30)
        est = estimate(g, 0, 11, EstimatorConfig(method="auto", samples=500))
        assert est.method == "rss"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            estimate(triangle_graph(), 0, 1, EstimatorConfig(method="bogus"))


class TestAllFromTo:
    def test_entry_for_source_is_one(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 8, 14)
        vec = reliability_all_from(g, 3, samples=500, seed=0)
        assert vec[3] == 1.0

    def test_isolated_node_is_zero(self):
        g = UncertainGraph(3, [0], [1], [0.8])
        vec = reliability_all_from(g, 0, samples=500, seed=0)
        assert vec[2] == 0.0

    def test_sink_without_in_edges(self):
        g = UncertainGraph(3, [2], [1], [0.8], directed=True)
        vec = reliability_all_to(g, 0, samples=500, seed=0)
        assert vec[0] == 1.0
        assert vec[1] == 0.0 and vec[2] == 0.0

    @pytest.mark.parametrize("method", ["mc", "rss"])
    def test_matches_per_node_exact(self, method):
        rng = np.random.default_rng(66)
        g = random_graph(rng, 7, 11, directed=True)
        vec = reliability_all_from(g, 0, samples=30_000, seed=4, method=method)
        for t in range(g.n):
            want = reliability_exact(g, 0, t).value
            assert abs(vec[t] - want) < max(binom_3sigma(want, 30_000), 1e-9)

    @pytest.mark.parametrize("method", ["mc", "rss"])
    def test_all_to_matches_reversed(self, method):
        rng = np.random.default_rng(67)
        g = random_graph(rng, 7, 11, directed=True)
        vec = reliability_all_to(g, 5, samples=30_000, seed=4, method=method)
        for u in range(g.n):
            want = reliability_exact(g, u, 5).value
            assert abs(vec[u] - want) < max(binom_3sigma(want, 30_000), 1e-9)

    def test_undirected_from_equals_to(self):
        rng = np.random.default_rng(68)
        g = random_graph(rng, 7, 11, directed=False)
        a = reliability_all_from(g, 2, samples=2000, seed=9)
        b = reliability_all_to(g, 2, samples=2000, seed=9)
        np.testing.assert_array_equal(a, b)


def _merged_state(g, starts):
    merged = np.zeros(g.n, dtype=bool)
    merged[list(starts)] = True
    return _State(g.n, g.src, g.dst, g.prob, g.directed, merged, starts[0])


class TestReachKernels:
    """The one-leaf batch against a per-world search over the same coins."""

    @staticmethod
    def _oracle(g, starts, present):
        counts = np.zeros(g.n, dtype=np.int64)
        for mask in present:
            seen = np.zeros(g.n, dtype=bool)
            for s in starts:
                seen |= reached_set(mask, g, s)
            counts += seen
        return counts

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("c", [1, 63, 64, 65, 130])
    def test_kernels_match_per_world_search(self, directed, c):
        rng = np.random.default_rng(c + directed)
        base = random_graph(rng, 40, 90, directed=directed)
        # node 40 has no edges: an isolated start
        g = UncertainGraph(41, base.src, base.dst, base.prob, directed=directed)
        present = uniform_batch(c, c, g.m) < g.prob
        for starts in ((0,), (3, 17, 29), (40,), (5, 40)):
            want = self._oracle(g, starts, present)
            state = _merged_state(g, starts)
            np.testing.assert_array_equal(_reach_counts(state, None, c, seed=c), want)
            for t in (0, 3, 20, 39, 40):
                assert _reach_counts(state, t, c, seed=c) == want[t]

    @staticmethod
    def _hub(directed):
        # 30 spokes into node 0, a chain among them, and 0 -> 31
        spokes = np.arange(1, 31)
        return UncertainGraph(32, np.r_[spokes, spokes[:-1], 0], np.r_[np.zeros(30), spokes[1:], 31],
                              np.linspace(0.2, 0.95, 60), directed=directed)

    @staticmethod
    def _antiparallel(directed):
        # both arcs of every pair on a chain and a random set, with their own coins
        rng = np.random.default_rng(3)
        one = random_graph(rng, 30, 40, directed=True)
        fwd = np.r_[one.src, np.arange(29)], np.r_[one.dst, np.arange(1, 30)]
        keep = ~np.isin(fwd[1] * 30 + fwd[0], fwd[0] * 30 + fwd[1])
        src, dst = np.r_[fwd[0], fwd[1][keep]], np.r_[fwd[1], fwd[0][keep]]
        src, dst = np.unique(np.c_[src, dst], axis=0).T
        return UncertainGraph(30, src, dst, rng.uniform(0.1, 0.9, len(src)), directed=True)

    @staticmethod
    def _heads_descending(directed):
        # edge order far from head order: the highest head comes first
        base = random_graph(np.random.default_rng(4), 40, 100, directed=directed)
        order = np.argsort(-base.dst, kind="stable")
        return UncertainGraph(40, base.src[order], base.dst[order], base.prob[order],
                              directed=directed)

    @staticmethod
    def _sinks(directed):
        # nodes 30-35 have in-arcs only
        base = random_graph(np.random.default_rng(5), 30, 70, directed=directed)
        tails = np.array([0, 4, 9, 9, 17, 22, 25, 29])
        heads = np.array([30, 31, 32, 33, 33, 34, 35, 35])
        return UncertainGraph(36, np.r_[base.src, tails], np.r_[base.dst, heads],
                              np.r_[base.prob, np.full(8, 0.7)], directed=directed)

    @pytest.mark.parametrize("build,directed", [
        ("_hub", True), ("_hub", False), ("_antiparallel", True),
        ("_heads_descending", True), ("_heads_descending", False), ("_sinks", True),
    ])
    @pytest.mark.parametrize("c", [1, 64, 130])
    def test_kernels_on_awkward_arc_layouts(self, build, directed, c):
        g = getattr(self, build)(directed)
        present = uniform_batch(c, c, g.m) < g.prob
        for starts in ((0,), (1, g.n - 1), tuple(range(0, g.n, 7))):
            want = self._oracle(g, starts, present)
            state = _merged_state(g, starts)
            np.testing.assert_array_equal(_reach_counts(state, None, c, seed=c), want)
            for t in range(g.n):
                assert _reach_counts(state, t, c, seed=c) == want[t]

    @pytest.mark.parametrize("c", [1, 64, 130])
    def test_kernels_without_edges(self, c):
        g = UncertainGraph(5, [], [], [])
        want = np.array([c, 0, c, 0, 0])
        state = _merged_state(g, (0, 2))
        np.testing.assert_array_equal(_reach_counts(state, None, c, seed=c), want)
        for t in range(5):
            assert _reach_counts(state, t, c, seed=c) == want[t]


def test_mc_memory_is_bounded_at_large_z():
    # the whole 20,000 x 1,000 coin matrix would take 160 MB
    g = random_graph(np.random.default_rng(5), 300, 1000, directed=False)
    tracemalloc.start()
    try:
        reliability_mc(g, 0, 299, 20_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_mc_memory_is_bounded_with_more_nodes_than_edges():
    # a 200-edge chain among 50,000 nodes: a flush sized by the edge count
    # alone would spread 2,000 worlds over every node, about 50 MB at peak
    n, m = 50_000, 200
    g = UncertainGraph(n, np.arange(m), np.arange(1, m + 1), np.full(m, 0.99), directed=False)
    for call in (lambda: reliability_mc(g, 0, m, 2000, seed=1),
                 lambda: reliability_all_from(g, 0, 2000, seed=1)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_mc_memory_is_bounded_at_large_m():
    # 300,000 edges: a coin stage as wide as the 64-world flush would hold
    # 19 MB of rows; the bounded stage holds 8 rows, 2.4 MB
    n = 50_000
    offsets = (1, 7, 49, 343, 2401, 16807)
    src = np.tile(np.arange(n), len(offsets))
    dst = (src + np.repeat(offsets, n)) % n
    g = UncertainGraph(n, src, dst, np.full(len(src), 0.9), directed=False)
    for call in (lambda: reliability_mc(g, 0, n // 2, 64, seed=1),
                 lambda: reliability_all_from(g, 0, 64, seed=1)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.0f} MB"


def test_rss_memory_is_bounded_at_large_z():
    # about 16,700 leaf worlds pass through 16 flushes of 1,088 columns;
    # leaves of up to 255 worlds keep the tree small enough to trace quickly
    g = random_graph(np.random.default_rng(5), 300, 1000, directed=False)
    for call in (lambda: reliability_rss(g, 0, 299, 20_000, seed=1, mc_threshold=256),
                 lambda: reliability_all_from(g, 0, 20_000, seed=1, method="rss",
                                              mc_threshold=256)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, f"peak {peak / 2**20:.0f} MB"


def _leaf_rss(state, t, Z, seed, path, branch_r, mc_threshold, hits):
    """RSS with one reach count per leaf on its own contracted graph.

    Returns (value, variance, samples) for node t, or (vector, None,
    samples) when t is None, folded in stratum order.  `hits` collects the
    kinds of node the recursion met.
    """
    if t is not None and state.merged[t]:
        hits.add("merged-t")
        return 1.0, 0.0, 0
    if len(state.frontier()) == 0:
        hits.add("no-frontier")
        if t is None:
            return state.merged.astype(np.float64), None, 0
        return 0.0, 0.0, 0
    if Z < mc_threshold:
        hits.add("leaf")
        z = max(1, Z)
        counts = _reach_counts(state, t, z, derive_seed(seed, *path))
        if t is None:
            vec = counts / z
            vec[state.merged] = 1.0
            return vec, None, z
        value = int(counts) / z
        return value, value * (1.0 - value) / z, z
    value = 0.0 if t is not None else np.zeros(state.n)
    var, used = 0.0, 0
    for idx, st in enumerate(_stratify_state(state, Z, branch_r)):
        if st.pi == 0.0:
            continue
        v, s2, z = _leaf_rss(state.apply(st), t, max(1, st.z), seed, path + (idx,),
                             branch_r, mc_threshold, hits)
        value += st.pi * v
        if t is not None:
            var += st.pi * st.pi * s2
        used += z
    return value, var, used


class TestRssBatch:
    """One spread per estimate against one reach count per leaf."""

    @staticmethod
    def _check(g, s, t, Z, seed, branch_r=5, mc_threshold=8):
        hits = set()
        value, var, used = _leaf_rss(_State.from_graph(g, s), t, Z, seed, (), branch_r,
                                     mc_threshold, hits)
        est = reliability_rss(g, s, t, Z, seed, branch_r, mc_threshold)
        assert (est.value, est.variance, est.samples_used) == (min(1.0, value), var, used)
        vec, _, _ = _leaf_rss(_State.from_graph(g, s), None, Z, seed, (), branch_r,
                              mc_threshold, hits)
        got = reliability_all_from(g, s, Z, seed, method="rss", branch_r=branch_r,
                                   mc_threshold=mc_threshold)
        np.testing.assert_array_equal(got, vec)
        return hits

    @pytest.mark.parametrize("directed", [True, False])
    def test_matches_per_leaf_counts(self, directed):
        # Z=300 puts about 100 leaves of 1-7 worlds in consecutive columns,
        # so leaves straddle 64-world words
        rng = np.random.default_rng(21 + directed)
        for trial in range(4):
            g = random_graph(rng, 60, 150, directed=directed)
            self._check(g, 0, 59, 300, seed=trial)

    @pytest.mark.parametrize("directed", [True, False])
    def test_split_draws_and_straddled_flushes(self, monkeypatch, directed):
        # 3-world chunks for the root graph and a 64-world flush budget;
        # leaves of up to 99 worlds are drawn in several chunks and
        # straddle flushes
        rng = np.random.default_rng(31 + directed)
        g = random_graph(rng, 80, 200, directed=directed)
        monkeypatch.setattr(estimators, "_CHUNK_COINS", 3 * g.m)
        for Z, mc_threshold in ((500, 100), (200, 8), (130, 200)):
            self._check(g, 0, 79, Z, seed=Z, mc_threshold=mc_threshold)

    @pytest.mark.parametrize("directed", [True, False])
    def test_leaves_start_mid_byte_and_straddle_stage_packs(self, monkeypatch, directed):
        # an 8-row stage packs every 8 columns of a 64-column flush; leaves
        # of 1-7 worlds and of up to 199 worlds start inside a byte and run
        # past the next pack
        rng = np.random.default_rng(51 + directed)
        g = random_graph(rng, 60, 180, directed=directed)
        monkeypatch.setattr(estimators, "_CHUNK_COINS", 3 * g.m)
        draw, starts = estimators._draw_leaf, []

        def spy(batch, state, z, seed, pi):
            if len(batch.stage) == 8:
                starts.append((batch.used, z))
            return draw(batch, state, z, seed, pi)

        monkeypatch.setattr(estimators, "_draw_leaf", spy)
        for Z, mc_threshold in ((300, 8), (400, 200)):
            self._check(g, 0, 59, Z, seed=Z, mc_threshold=mc_threshold)
        assert any(col % 8 and col // 8 < (col + z - 1) // 8 for col, z in starts)
        assert any(col % 8 and z > 8 for col, z in starts)

    @pytest.mark.parametrize("directed", [True, False])
    def test_terminal_strata(self, directed):
        # s touches three edges, one of them to t: the present stratum of
        # that edge merges t, and the all-absent stratum has no frontier
        rng = np.random.default_rng(41 + directed)
        base = random_graph(rng, 30, 80, directed=directed)
        keep = (base.src != 0) & (base.dst != 0)
        g = UncertainGraph(30, np.r_[base.src[keep], 0, 0, 0], np.r_[base.dst[keep], 29, 4, 7],
                           np.r_[base.prob[keep], 0.5, 0.6, 0.7], directed=directed)
        hits = set()
        for seed in range(3):
            hits |= self._check(g, 0, 29, 200, seed=seed)
        assert {"merged-t", "no-frontier", "leaf"} <= hits

    def test_estimate_leaves_no_reference_cycles(self):
        g = random_graph(np.random.default_rng(8), 60, 150, directed=False)
        gc.collect()
        gc.disable()
        try:
            reliability_rss(g, 0, 59, 300, seed=1)
            reliability_all_from(g, 0, 300, seed=1, method="rss")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNodeIds:
    """Ids outside [0, n) are errors, not Python indices from the end."""

    @pytest.mark.parametrize("bad", [-3, -1, 3])
    def test_out_of_range_ids_raise(self, bad):
        g = UncertainGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        calls = [
            lambda: reliability_exact(g, bad, 2),
            lambda: reliability_exact(g, 0, bad),
            lambda: reliability_exact(g, bad, bad),
            lambda: reliability_mc(g, bad, 2, 5),
            lambda: reliability_mc(g, 0, bad, 5),
            lambda: reliability_rss(g, bad, 2, 5),
            lambda: reliability_rss(g, 0, bad, 5),
            lambda: estimate(g, bad, 2),
            lambda: estimate(g, 0, bad, EstimatorConfig(method="mc", samples=5)),
            lambda: reliability_all_from(g, bad, 5),
            lambda: reliability_all_to(g, bad, 5, method="rss"),
            lambda: reach_counts(g, [0, bad], 5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="node id"):
                call()


class TestConvergedSampleSize:
    def test_deterministic_graph_converges_immediately(self):
        g = UncertainGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        z = converged_sample_size(g, [(0, 2)], [10, 100, 1000], repeats=4)
        assert z == 10

    def test_dispersion_decreases_with_samples(self):
        g = triangle_graph()
        lo = dispersion(g, [(0, 1)], samples=50, repeats=20, seed=1).rho
        hi = dispersion(g, [(0, 1)], samples=5000, repeats=20, seed=1).rho
        assert hi < lo

    def test_zero_reliability_errors(self):
        g = UncertainGraph(3, [0], [1], [0.5])
        with pytest.raises(RelgainError):
            dispersion(g, [(0, 2)], samples=100, repeats=5)

    def test_returns_largest_with_warning_when_unconverged(self):
        g = triangle_graph()
        with pytest.warns(UserWarning, match="no sample size"):
            z = converged_sample_size(g, [(0, 1)], [5, 10], repeats=6, threshold=1e-12)
        assert z == 10
