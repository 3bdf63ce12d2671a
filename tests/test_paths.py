"""Path search tests: single best path, top-l enumeration, annotations."""
import math

import numpy as np
import pytest

import relgain.paths as paths
from relgain.graph import UncertainGraph
from relgain.paths import ReliablePath, augment, most_reliable_path, top_l_paths

from helpers import enum_simple_paths, walkthrough_graph, random_graph


def sorted_oracle(g, s, t):
    """All simple paths ordered the way the library promises to order them."""
    paths = enum_simple_paths(g, s, t)
    return sorted(paths, key=lambda pn: (-pn[0], len(pn[1]), pn[1]))


class TestMostReliablePath:
    def test_single_edge(self):
        g = UncertainGraph(2, [0], [1], [0.9])
        p = most_reliable_path(g, 0, 1)
        assert p.nodes == (0, 1)
        assert p.prob == pytest.approx(0.9)
        assert p.candidate_edges == frozenset()

    def test_two_hop_beats_weak_direct(self):
        # 0->1->2 at 0.9 each (0.81) vs direct 0->2 at 0.5
        g = UncertainGraph(3, [0, 1, 0], [1, 2, 2], [0.9, 0.9, 0.5])
        p = most_reliable_path(g, 0, 2)
        assert p.nodes == (0, 1, 2)
        assert p.prob == pytest.approx(0.81)

    def test_unreachable_is_none(self):
        g = UncertainGraph(3, [0], [1], [0.5])
        assert most_reliable_path(g, 0, 2) is None

    def test_direction_respected(self):
        g = UncertainGraph(2, [0], [1], [0.5], directed=True)
        assert most_reliable_path(g, 1, 0) is None
        g2 = UncertainGraph(2, [0], [1], [0.5], directed=False)
        assert most_reliable_path(g2, 1, 0).nodes == (1, 0)

    def test_source_equals_target(self):
        g = UncertainGraph(2, [0], [1], [0.5])
        p = most_reliable_path(g, 0, 0)
        assert p.nodes == (0,) and p.prob == 1.0

    def test_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(71)
        for trial in range(50):
            directed = bool(trial % 2)
            g = random_graph(rng, 7, 12, directed=directed)
            oracle = sorted_oracle(g, 0, 6)
            got = most_reliable_path(g, 0, 6)
            if not oracle:
                assert got is None
                continue
            assert got.prob == pytest.approx(oracle[0][0], abs=1e-12)

    def test_zero_probability_edge_is_impassable(self):
        g = UncertainGraph(3, [0, 1, 0], [1, 2, 2], [1.0, 0.0, 0.4])
        p = most_reliable_path(g, 0, 2)
        assert p.nodes == (0, 2)
        assert p.prob == pytest.approx(0.4)


class TestTopLPaths:
    def test_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(72)
        for trial in range(40):
            directed = bool(trial % 2)
            g = random_graph(rng, 8, 14, directed=directed)
            oracle = sorted_oracle(g, 0, 7)
            got = top_l_paths(g, 0, 7, 10)
            assert len(got) == min(10, len(oracle))
            for path, (op, _) in zip(got, oracle):
                assert path.prob == pytest.approx(op, abs=1e-12)

    def test_returns_all_when_fewer_than_l(self):
        g = UncertainGraph(3, [0, 1, 0], [1, 2, 2], [0.9, 0.9, 0.5])
        got = top_l_paths(g, 0, 2, 10)
        assert [p.nodes for p in got] == [(0, 1, 2), (0, 2)]

    def test_l_of_one_matches_single_search(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            g = random_graph(rng, 7, 12)
            best = most_reliable_path(g, 0, 6)
            got = top_l_paths(g, 0, 6, 1)
            if best is None:
                assert got == []
            else:
                assert got[0].nodes == best.nodes
                assert got[0].prob == pytest.approx(best.prob)

    def test_paths_are_simple_and_ordered(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            g = random_graph(rng, 9, 20, directed=False)
            got = top_l_paths(g, 0, 8, 15)
            for path in got:
                assert len(set(path.nodes)) == len(path.nodes)
                assert path.nodes[0] == 0 and path.nodes[-1] == 8
            probs = [p.prob for p in got]
            assert probs == sorted(probs, reverse=True)
            assert len({p.nodes for p in got}) == len(got)

    def test_log_and_product_probabilities_agree(self):
        rng = np.random.default_rng(75)
        g = random_graph(rng, 10, 25, directed=False, lo=0.01, hi=0.99)
        for path in top_l_paths(g, 0, 9, 20):
            logs = 0.0
            for u, v in zip(path.nodes, path.nodes[1:]):
                eid = next(
                    i for i in range(g.m)
                    if {int(g.src[i]), int(g.dst[i])} == {u, v}
                )
                logs += -math.log(g.prob[eid])
            assert math.exp(-logs) == pytest.approx(path.prob, rel=1e-9)

    def test_l_bounds(self):
        g = UncertainGraph(2, [0], [1], [0.5])
        with pytest.raises(ValueError):
            top_l_paths(g, 0, 1, 0)
        with pytest.raises(ValueError):
            top_l_paths(g, 0, 1, 1001)

    def test_deterministic(self):
        rng = np.random.default_rng(76)
        g = random_graph(rng, 9, 22, directed=False)
        a = top_l_paths(g, 0, 8, 12)
        b = top_l_paths(g, 0, 8, 12)
        assert [(p.nodes, p.prob) for p in a] == [(p.nodes, p.prob) for p in b]


def unrestricted(g, s, t, l):
    """The deviation search on the whole graph, with no corridor."""
    idx = paths._ArcIndex.of_graph(g)
    found = [idx.to_reliable(g, p) for _, p in paths._deviation_search(idx, s, t, l)]
    found.sort(key=lambda p: (-p.prob, p.hops, p.nodes))
    return found


def as_records(found):
    return [(p.nodes, p.prob, p.candidate_edges) for p in found]


def tie_graph(rng, n, m, directed, probs):
    """Random simple graph whose probabilities come from a small set."""
    pairs = set()
    src, dst = [], []
    m = min(m, n * (n - 1) if directed else n * (n - 1) // 2)
    while len(src) < m:
        u, v = (int(x) for x in rng.integers(n, size=2))
        key = (u, v) if directed else (min(u, v), max(u, v))
        if u == v or key in pairs:
            continue
        pairs.add(key)
        src.append(u)
        dst.append(v)
    return UncertainGraph(n, src, dst, rng.choice(probs, size=m), directed=directed)


class TestCorridorSearch:
    """top_l_paths confines its search to the s-t corridor; the answer must not change."""

    PROBS = ([0.25, 0.5, 0.9, 1.0], [0.0, 0.5, 1.0], [0.5], [0.1, 0.3, 0.7],
             [0.0, 0.25, 0.5, 0.9, 1.0])

    def test_matches_unrestricted_search_on_tie_heavy_graphs(self):
        rng = np.random.default_rng(20)
        cases = 0
        for trial in range(1200):
            directed = trial % 2 == 0
            n = int(rng.integers(2, 40))
            g = tie_graph(rng, n, int(rng.integers(1, 3 * n + 1)), directed,
                          self.PROBS[trial % len(self.PROBS)])
            s, t = (int(x) for x in rng.integers(n, size=2))
            l = int(rng.choice([1, 2, 3, 5, 8, 12]))
            assert as_records(top_l_paths(g, s, t, l)) == as_records(unrestricted(g, s, t, l))
            cases += 1
        assert cases == 1200

    def test_matches_unrestricted_search_on_larger_graphs(self):
        # corridors well below the node count, with and without candidate edges
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(60, 150))
            g = tie_graph(rng, n, int(rng.integers(n, 4 * n)), trial % 2 == 0,
                          self.PROBS[trial % len(self.PROBS)])
            cands = {}
            for u, v in rng.integers(n, size=(6, 2)).tolist():
                key = (u, v) if g.directed else (min(u, v), max(u, v))
                if u != v and not g.has_edge(u, v):
                    cands[key] = (u, v, 0.5)
            aug = augment(g, cands.values())
            for l in (1, 4, 30):
                s, t = (int(x) for x in rng.integers(n, size=2))
                assert as_records(top_l_paths(aug, s, t, l)) == as_records(unrestricted(aug, s, t, l))

    def test_edge_cases(self):
        g = UncertainGraph(5, [0, 1, 0, 3], [1, 2, 2, 4], [0.5, 0.5, 0.25, 1.0])
        assert top_l_paths(g, 0, 4, 3) == []                   # t unreachable
        assert top_l_paths(g, 2, 2, 3) == unrestricted(g, 2, 2, 3)
        got = top_l_paths(g, 0, 2, 5)                           # fewer than l
        assert [p.nodes for p in got] == [(0, 2), (0, 1, 2)]
        assert as_records(top_l_paths(g, 0, 2, 1)) == as_records(unrestricted(g, 0, 2, 1))

    def test_bound_uses_summed_weights_not_probabilities(self, monkeypatch):
        # three s-t chains of 350, 360 and 380 hops at p=0.1: every product
        # underflows to 0, so only the summed -log(p) weights tell them apart.
        # The two lightest chains settle the top 2 without the third.
        src, dst = [], []
        n = 2
        for hops in (350, 360, 380):
            chain = [0] + list(range(n, n + hops - 1)) + [1]
            n += hops - 1
            src += chain[:-1]
            dst += chain[1:]
        g = UncertainGraph(n, src, dst, [0.1] * len(src))
        sizes = []
        restrict = paths._ArcIndex.restrict

        def spy(self, nodes):
            sizes.append(nodes.size)
            return restrict(self, nodes)

        monkeypatch.setattr(paths._ArcIndex, "restrict", spy)
        got = top_l_paths(g, 0, 1, 2)
        assert [p.prob for p in got] == [0.0, 0.0]
        assert [p.hops for p in got] == [350, 360]
        assert max(sizes) == 351 + 359


class TestAugmentAndAnnotations:
    def test_base_paths_carry_no_candidate_edges(self):
        g = walkthrough_graph()
        for path in top_l_paths(g, 0, 8, 5):
            assert path.candidate_edges == frozenset()

    def test_candidate_edges_annotated(self):
        g = UncertainGraph(3, [0], [1], [0.8])
        aug = augment(g, [(1, 2, 0.6)])
        p = most_reliable_path(aug, 0, 2)
        assert p.nodes == (0, 1, 2)
        assert p.prob == pytest.approx(0.48)
        assert p.candidate_edges == frozenset({(1, 2)})

    def test_annotation_uses_stored_orientation(self):
        # Undirected candidate stored as (2, 1) but traversed 1->2.
        g = UncertainGraph(3, [0], [1], [0.8], directed=False)
        aug = augment(g, [(2, 1, 0.6)])
        p = most_reliable_path(aug, 0, 2)
        assert p.candidate_edges == frozenset({(2, 1)})

    def test_walkthrough_top_three(self):
        # With candidates sB, sC, At, AC, Bt at 0.5 the best three paths are
        # s-B-t (0.25), s-C-B-t (0.225), s-C-t (0.15).
        g = walkthrough_graph()
        s, A, B, C, t = 0, 1, 2, 3, 8
        cands = [(s, C, 0.5), (s, B, 0.5), (A, t, 0.5), (A, C, 0.5), (B, t, 0.5)]
        aug = augment(g, cands)
        got = top_l_paths(aug, s, t, 3)
        assert [p.nodes for p in got] == [(s, B, t), (s, C, B, t), (s, C, t)]
        assert [p.prob for p in got] == pytest.approx([0.25, 0.225, 0.15])
        used = frozenset().union(*[p.candidate_edges for p in got])
        assert used == {(s, B), (B, t), (s, C)}

    def test_augment_accepts_candidate_set_like(self):
        class Box:
            edges = [(1, 2, 0.6)]

        g = UncertainGraph(3, [0], [1], [0.8])
        aug = augment(g, Box())
        assert aug.m == 2 and bool(aug.candidate_mark[1])
