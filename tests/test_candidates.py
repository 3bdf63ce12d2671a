"""Candidate elimination tests built around the designed walkthrough graph."""
import warnings

import numpy as np
import pytest

from relgain.candidates import (
    CandidateEdge,
    CandidateSet,
    _check_params,
    _pairs_between,
    eliminate,
    prune_by_paths,
)
from relgain.estimators import EstimatorConfig
from relgain.graph import UncertainGraph
from relgain.paths import augment, top_l_paths

from helpers import random_graph, walkthrough_graph

CFG = EstimatorConfig(samples=20000, seed=5)


class TestPools:
    def test_walkthrough_pools(self):
        g = walkthrough_graph()
        cands = eliminate(g, 0, 8, r=3, h=3, zeta=0.5, config=CFG)
        assert cands.source_pool == (0, 1, 2)  # s, A, B
        assert cands.target_pool == (2, 3, 8)  # B, C, t
        assert set(cands.pairs()) == {(0, 2), (0, 3), (1, 3), (1, 8), (2, 8)}
        assert all(e.prob == 0.5 for e in cands.edges)

    def test_forced_endpoints_present_even_when_isolated(self):
        # s has no incident edges, so its pool entry comes from forcing alone
        g = UncertainGraph(4, [1, 1], [2, 3], [0.5, 0.5], directed=False)
        cands = eliminate(g, 0, 3, r=2, h=None, config=CFG)
        assert 0 in cands.source_pool
        assert 3 in cands.target_pool

    def test_r_larger_than_n_clamps_with_warning(self):
        g = walkthrough_graph()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cands = eliminate(g, 0, 8, r=50, h=None, config=CFG)
        assert any("exceeds the node count" in str(w.message) for w in caught)
        assert len(cands.source_pool) == g.n

    def test_r_must_be_positive(self):
        g = walkthrough_graph()
        with pytest.raises(ValueError):
            eliminate(g, 0, 8, r=0, config=CFG)


class TestPairFilters:
    def test_hop_filter_drops_distant_pairs(self):
        g = walkthrough_graph()
        with_h = eliminate(g, 0, 8, r=3, h=3, config=CFG)
        without_h = eliminate(g, 0, 8, r=3, h=None, config=CFG)
        assert (0, 8) not in with_h.pairs()  # s..t is four hops apart
        assert (0, 8) in without_h.pairs()
        assert with_h.pairs() < without_h.pairs()

    def test_existing_pairs_and_self_loops_excluded(self):
        g = walkthrough_graph()
        cands = eliminate(g, 0, 8, r=9, h=None, config=CFG)
        assert all(e.u != e.v for e in cands.edges)
        for e in cands.edges:
            assert not g.has_edge(e.u, e.v)

    def test_undirected_pairs_not_duplicated(self):
        g = walkthrough_graph()
        cands = eliminate(g, 0, 8, r=9, h=None, config=CFG)
        keys = [(min(e.u, e.v), max(e.u, e.v)) for e in cands.edges]
        assert len(keys) == len(set(keys))

    def test_directed_orientations_are_distinct(self):
        g = UncertainGraph(3, [0, 1], [1, 2], [0.9, 0.9], directed=True)
        cands = eliminate(g, 0, 2, r=3, h=None, config=CFG)
        assert (0, 2) in cands.pairs()
        assert (2, 0) in cands.pairs()
        assert (1, 0) in cands.pairs()

    def test_zeta_and_overrides(self):
        g = walkthrough_graph()
        cands = eliminate(g, 0, 8, r=3, h=3, zeta=0.7,
                          prob_overrides={(2, 8): 0.25}, config=CFG)
        by_pair = {(e.u, e.v): e.prob for e in cands.edges}
        assert by_pair[(2, 8)] == 0.25
        assert by_pair[(0, 2)] == 0.7

    def test_override_matches_either_orientation_when_undirected(self):
        g = walkthrough_graph()
        cands = eliminate(g, 0, 8, r=3, h=3, prob_overrides={(8, 2): 0.25}, config=CFG)
        by_pair = {(e.u, e.v): e.prob for e in cands.edges}
        assert by_pair[(2, 8)] == 0.25

    def test_validation(self):
        g = walkthrough_graph()
        with pytest.raises(ValueError):
            eliminate(g, 0, 8, zeta=0.0, config=CFG)
        with pytest.raises(ValueError):
            eliminate(g, 0, 8, zeta=1.5, config=CFG)
        with pytest.raises(ValueError):
            eliminate(g, 0, 8, prob_overrides={(0, 2): 0.0}, config=CFG)

    def test_deterministic(self):
        g = walkthrough_graph()
        a = eliminate(g, 0, 8, r=3, h=3, config=CFG)
        b = eliminate(g, 0, 8, r=3, h=3, config=CFG)
        assert a.edges == b.edges


def _hops(g, u):
    """Undirected hop distance from u to every node by a plain search."""
    adj = [[] for _ in range(g.n)]
    for a, b in zip(g.src.tolist(), g.dst.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for a in frontier:
            for b in adj[a]:
                if b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return dist


def _pairs_loop(g, source_pool, target_pool, h, zeta, overrides):
    """Pair-by-pair reference for candidates._pairs_between."""
    seen, edges = set(), []
    for u in source_pool:
        hops = _hops(g, u)
        for v in target_pool:
            key = (u, v) if g.directed else (min(u, v), max(u, v))
            if u == v or key in seen or g.has_edge(u, v):
                continue
            if h is not None and not hops.get(v, float("inf")) <= h:
                continue
            seen.add(key)
            edges.append(CandidateEdge(u, v, overrides.get((u, v), zeta)))
    return tuple(edges)


class TestPairsBetween:
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("h", [None, 1, 2, 3])
    def test_matches_pair_loop(self, directed, h):
        rng = np.random.default_rng(11 + 2 * (h or 0) + directed)
        for trial in range(6):
            g = random_graph(rng, 30, 45, directed=directed)
            nodes = rng.permutation(g.n).tolist()
            # pools overlap in their middle third, and one is not sorted
            source_pool = tuple(sorted(nodes[:14]))
            target_pool = tuple(nodes[8:22])
            picks = rng.choice(g.n, size=(6, 2))
            raw = {(int(a), int(b)): float(rng.uniform(0.1, 1.0)) for a, b in picks if a != b}
            _, overrides = _check_params(g, 5, 0.4, raw)
            got = _pairs_between(g, source_pool, target_pool, h, 0.4, overrides)
            want = _pairs_loop(g, source_pool, target_pool, h, 0.4, overrides)
            assert got == want
            assert all(type(e.u) is int and type(e.v) is int for e in got)

    def test_identical_pools(self):
        g = walkthrough_graph()
        pool = tuple(range(g.n))
        for h in (None, 2):
            want = _pairs_loop(g, pool, pool, h, 0.5, {})
            assert _pairs_between(g, pool, pool, h, 0.5, {}) == want


class TestPruneByPaths:
    def test_walkthrough_prune(self):
        g = walkthrough_graph()
        cands = eliminate(g, 0, 8, r=3, h=3, zeta=0.5, config=CFG)
        aug = augment(g, cands)
        paths = top_l_paths(aug, 0, 8, 3)
        pruned = prune_by_paths(cands, paths)
        assert pruned.pairs() == {(0, 2), (0, 3), (2, 8)}
        assert pruned.source_pool == cands.source_pool

    def test_empty_paths_prunes_everything(self):
        cands = CandidateSet((CandidateEdge(0, 1, 0.5),), (0,), (1,))
        assert prune_by_paths(cands, []).edges == ()

    def test_keeps_input_order(self):
        g = walkthrough_graph()
        cands = eliminate(g, 0, 8, r=3, h=3, config=CFG)
        aug = augment(g, cands)
        paths = top_l_paths(aug, 0, 8, 6)
        pruned = prune_by_paths(cands, paths)
        positions = [cands.edges.index(e) for e in pruned.edges]
        assert positions == sorted(positions)
