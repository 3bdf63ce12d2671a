"""Selection algorithm tests: batches, greedy picks, exhaustive baseline."""
import numpy as np
import pytest

import relgain.selection as selection
from relgain.candidates import CandidateEdge, CandidateSet, eliminate, prune_by_paths
from relgain.errors import CapExceededError
from relgain.estimators import EstimatorConfig
from relgain.graph import UncertainGraph
from relgain.paths import augment, top_l_paths
from relgain.selection import (
    build_batches,
    improve_single_pair,
    select_be,
    select_exact,
    select_ip,
)

from helpers import (
    best_subset_exact,
    enum_reliability,
    closed_form_candidates,
    closed_form_solutions,
    closed_form_graph,
    walkthrough_graph,
    random_graph,
)

CFG = EstimatorConfig(samples=20000, seed=3)


def cand_set(triples):
    return CandidateSet(tuple(CandidateEdge(u, v, p) for u, v, p in triples), (), ())


class TestBuildBatches:
    def test_groups_by_label(self):
        g = walkthrough_graph()
        cands = cand_set([(0, 2, 0.5), (0, 3, 0.5), (2, 8, 0.5)])
        paths = top_l_paths(augment(g, cands), 0, 8, 6)
        batches = build_batches(paths)
        labels = {b.label for b in batches}
        assert frozenset({(0, 2), (2, 8)}) in labels
        assert frozenset({(0, 3), (2, 8)}) in labels
        assert frozenset({(0, 3)}) in labels
        for b in batches:
            for p in b.paths:
                assert p.candidate_edges == b.label

    def test_batch_best_prob(self):
        g = walkthrough_graph()
        cands = cand_set([(0, 3, 0.5)])
        batches = build_batches(top_l_paths(augment(g, cands), 0, 8, 10))
        by_label = {b.label: b for b in batches}
        assert by_label[frozenset({(0, 3)})].best_prob == pytest.approx(0.15)


class TestWalkthrough:
    """The designed 9-node instance with candidates sB, sC, Bt at 0.5."""

    def test_batch_greedy_buys_the_shared_label(self):
        g = walkthrough_graph()
        res = improve_single_pair(g, 0, 8, k=2, method="be", r=3, l=3, h=3,
                                  zeta=0.5, config=CFG)
        assert {(e.u, e.v) for e in res.chosen} == {(0, 3), (2, 8)}
        first = res.trace[0]
        assert first.note == "batch"
        assert first.gain == pytest.approx(0.3075, abs=1e-9)
        assert first.score == pytest.approx(0.15375, abs=1e-9)
        expect = enum_reliability(g.with_edges([(0, 3, 0.5), (2, 8, 0.5)]), 0, 8)
        assert res.new_reliability == pytest.approx(expect, abs=1e-9)
        assert res.gain == pytest.approx(res.new_reliability - res.base_reliability)

    def test_path_greedy_takes_best_single_path(self):
        # scoring one path at a time sees 0.25 for s-B-t, beating s-C-B-t
        # at 0.225 because the free activation of s-C-t is invisible to it
        g = walkthrough_graph()
        res = improve_single_pair(g, 0, 8, k=2, method="ip", r=3, l=3, h=3,
                                  zeta=0.5, config=CFG)
        assert {(e.u, e.v) for e in res.chosen} == {(0, 2), (2, 8)}
        assert res.trace[0].gain == pytest.approx(0.25, abs=1e-9)

    def test_both_methods_improve_reliability(self):
        g = walkthrough_graph()
        be = improve_single_pair(g, 0, 8, k=2, method="be", r=3, l=3, config=CFG)
        ip = improve_single_pair(g, 0, 8, k=2, method="ip", r=3, l=3, config=CFG)
        assert be.base_reliability == pytest.approx(ip.base_reliability)
        assert be.gain > 0.3 and ip.gain > 0.3


class TestSelectExact:
    def test_two_edge_instance_closed_forms(self):
        for alpha, zeta in [(0.5, 0.7), (0.5, 0.3), (0.9, 0.7)]:
            g = closed_form_graph(alpha)
            cands = cand_set(closed_form_candidates(zeta))
            res = select_exact(g, cands, 0, 3, k=2, config=CFG)
            forms = closed_form_solutions(alpha, zeta)
            best_pair = max(forms, key=forms.get)
            names = {(0, 1): "sA", (0, 2): "sB", (2, 3): "Bt"}
            got = tuple(sorted(names[(e.u, e.v)] for e in res.chosen))
            assert got == tuple(sorted(best_pair))
            assert res.new_reliability == pytest.approx(max(forms.values()), abs=1e-9)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(12):
            g = random_graph(rng, 6, 6, directed=False)
            triples = []
            while len(triples) < 4:
                u, v = rng.integers(6), rng.integers(6)
                u, v = int(u), int(v)
                if u == v or g.has_edge(u, v):
                    continue
                if any({a, b} == {u, v} for a, b, _ in triples):
                    continue
                triples.append((u, v, round(float(rng.uniform(0.2, 0.9)), 3)))
            oracle_val, _ = best_subset_exact(g, triples, 2, 0, 5)
            res = select_exact(g, cand_set(triples), 0, 5, k=2, config=CFG)
            assert res.new_reliability == pytest.approx(oracle_val, abs=1e-12)
            # ties may resolve to a different subset; it must still be optimal
            replay = enum_reliability(
                g.with_edges([(e.u, e.v, e.prob) for e in res.chosen]), 0, 5)
            assert replay == pytest.approx(oracle_val, abs=1e-12)

    def test_combination_cap(self):
        g = walkthrough_graph()
        triples = [(0, v, 0.5) for v in range(3, 8)] + [(1, v, 0.5) for v in range(3, 8)]
        triples += [(2, v, 0.5) for v in range(3, 8)] + [(4, v, 0.5) for v in [6, 7]]
        cands = cand_set([(u, v, p) for u, v, p in triples if not g.has_edge(u, v)])
        with pytest.raises(CapExceededError):
            select_exact(g, cands, 0, 8, k=8, config=CFG, combo_cap=100)

    def test_k_covering_everything(self):
        g = closed_form_graph(0.5)
        res = select_exact(g, cand_set(closed_form_candidates(0.7)), 0, 3, k=9, config=CFG)
        assert len(res.chosen) == 3
        assert "k-covers-all" in res.flags


class TestGreedyProperties:
    def test_chosen_edges_are_valid_and_gain_consistent(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            g = random_graph(rng, 7, 8, directed=False)
            triples = []
            while len(triples) < 5:
                u, v = int(rng.integers(7)), int(rng.integers(7))
                if u == v or g.has_edge(u, v):
                    continue
                if any({a, b} == {u, v} for a, b, _ in triples):
                    continue
                triples.append((u, v, 0.6))
            method = select_be if trial % 2 else select_ip
            res = method(g, cand_set(triples), 0, 6, k=2, config=CFG)
            assert len(res.chosen) == 2
            assert len({(e.u, e.v) for e in res.chosen}) == 2
            assert {(e.u, e.v) for e in res.chosen} <= {(u, v) for u, v, _ in triples}
            expect = enum_reliability(
                g.with_edges([(e.u, e.v, e.prob) for e in res.chosen]), 0, 6)
            assert res.new_reliability == pytest.approx(expect, abs=1e-9)
            assert res.gain >= -1e-12

    def test_greedy_never_beats_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            g = random_graph(rng, 6, 7, directed=False)
            triples = []
            while len(triples) < 4:
                u, v = int(rng.integers(6)), int(rng.integers(6))
                if u == v or g.has_edge(u, v) or any({a, b} == {u, v} for a, b, _ in triples):
                    continue
                triples.append((u, v, 0.5))
            be = select_be(g, cand_set(triples), 0, 5, k=2, config=CFG)
            ex = select_exact(g, cand_set(triples), 0, 5, k=2, config=CFG)
            assert be.new_reliability <= ex.new_reliability + 1e-9

    def test_fill_when_no_batch_fits_budget(self):
        # the only s-t path needs three candidates, so with k=2 the budget
        # is spent on individual edges and the result says so
        g = UncertainGraph(4, [1], [2], [0.9], directed=False)
        triples = [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)]
        cands = cand_set([(0, 1, 0.9), (2, 3, 0.7)])
        aug_paths = top_l_paths(augment(g, cands), 0, 3, 5)
        assert all(len(p.candidate_edges) == 2 for p in aug_paths)
        small = cand_set([(0, 1, 0.9), (2, 3, 0.7), (0, 2, 0.3)])
        res = select_be(g, small, 0, 3, k=2, config=CFG)
        assert len(res.chosen) == 2
        # both fitting routes exist here, so no fill is needed; force it by
        # shrinking the budget below every batch label instead
        g2 = UncertainGraph(5, [1, 2], [2, 3], [0.9, 0.9], directed=False)
        c2 = cand_set([(0, 1, 0.9), (3, 4, 0.8), (1, 3, 0.2)])
        # paths: 0-1-2-3-4 needs (0,1)+(3,4); 0-1-3-4 needs all three of its
        # candidates; with k=1 nothing fits
        r2 = select_be(g2, c2, 0, 4, k=1, config=CFG)
        assert "fill" in r2.flags
        assert len(r2.chosen) == 1
        assert r2.trace[-1].note == "fill"

    def test_fill_prefers_probable_edges_on_zero_gain(self):
        g = UncertainGraph(4, [1], [2], [0.9], directed=False)
        cands = cand_set([(0, 1, 0.9), (2, 3, 0.7)])
        res = select_be(g, cand_set([(0, 1, 0.9)] ), 0, 3, k=1, config=CFG)
        assert [e.prob for e in res.chosen] == [0.9]

    def test_stall_picks_most_probable_batch(self, monkeypatch):
        monkeypatch.setattr(selection._Bench, "sub", lambda self, j, eids: 0.0)
        g = walkthrough_graph()
        cands = cand_set([(0, 2, 0.5), (0, 3, 0.5), (2, 8, 0.5)])
        res = select_be(g, cands, 0, 8, k=2, config=CFG)
        assert res.trace[0].note == "stall"
        # highest best-prob batch is {sB, Bt} via the 0.25 path
        assert res.trace[0].picked == ((0, 2), (2, 8))

    def test_k_covers_all_shortcut(self):
        g = closed_form_graph(0.5)
        res = select_be(g, cand_set(closed_form_candidates(0.5)), 0, 3, k=5, config=CFG)
        assert len(res.chosen) == 3
        assert "k-covers-all" in res.flags

    def test_no_candidates(self):
        g = closed_form_graph(0.5)
        res = select_be(g, cand_set([]), 0, 3, k=2, config=CFG)
        assert res.chosen == ()
        assert res.gain == 0.0
        assert "no-candidates" in res.flags

    def test_k_validation(self):
        g = closed_form_graph(0.5)
        with pytest.raises(ValueError):
            select_be(g, cand_set(closed_form_candidates(0.5)), 0, 3, k=0, config=CFG)


class TestPipeline:
    def test_explicit_candidates_bypass_elimination(self):
        g = closed_form_graph(0.5)
        res = improve_single_pair(g, 0, 3, k=1, method="be",
                                  candidates=closed_form_candidates(0.7), config=CFG)
        assert [(e.u, e.v) for e in res.chosen] == [(0, 1)]
        assert res.new_reliability == pytest.approx(0.35, abs=1e-9)

    def test_unknown_method(self):
        g = closed_form_graph(0.5)
        with pytest.raises(ValueError):
            improve_single_pair(g, 0, 3, k=1, method="bogus")

    def test_deterministic(self):
        g = walkthrough_graph()
        a = improve_single_pair(g, 0, 8, k=2, method="be", r=3, l=3, config=CFG)
        b = improve_single_pair(g, 0, 8, k=2, method="be", r=3, l=3, config=CFG)
        assert a == b

    def test_exact_through_pipeline(self):
        g = closed_form_graph(0.5)
        res = improve_single_pair(g, 0, 3, k=2, method="exact",
                                  candidates=closed_form_candidates(0.7), config=CFG)
        assert res.new_reliability == pytest.approx(0.5425, abs=1e-9)

    @pytest.mark.parametrize("method", ["be", "ip"])
    def test_one_path_search_per_query(self, method, monkeypatch):
        # the paths found for pruning feed the selector; calling the selector
        # on the pruned candidates searches again and must agree exactly
        search = selection.top_l_paths
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return search(*args, **kwargs)

        monkeypatch.setattr(selection, "top_l_paths", counted)
        rng = np.random.default_rng(44)
        instances = [(walkthrough_graph(), 0, 8, dict(r=3, l=3, h=3)),
                     (closed_form_graph(0.5), 0, 3,
                      dict(l=30, candidates=closed_form_candidates(0.7)))]
        for trial in range(8):
            g = random_graph(rng, 12, 20, directed=trial % 2 == 0)
            instances.append((g, 0, 11, dict(r=5, l=4, h=None)))
        select = {"be": select_be, "ip": select_ip}[method]
        cfg = EstimatorConfig(samples=500, seed=3)
        for g, s, t, opts in instances:
            calls.clear()
            res = improve_single_pair(g, s, t, k=2, method=method, config=cfg, **opts)
            assert len(calls) == 1
            if "candidates" in opts:
                cands = cand_set(opts["candidates"])
            else:
                cands = eliminate(g, s, t, r=opts["r"], h=opts["h"], config=cfg)
            pruned = prune_by_paths(cands, search(augment(g, cands), s, t, opts["l"]))
            if pruned.edges:
                cands = pruned
            assert res == select(g, cands, s, t, 2, cfg, opts["l"])
