"""Graph model: parsing, possible worlds, reachability, stream determinism."""
from __future__ import annotations

import numpy as np
import pytest

from helpers import random_graph, triangle_graph

from relgain.errors import GraphFormatError
from relgain.graph import (
    UncertainGraph,
    load_graph,
    reachable,
    reached_set,
    sample_world,
    save_graph,
    world_probability,
)
from relgain.rng import uniform_batch, world_stream


class TestLoadGraph:
    def test_minimal_two_edges(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b 0.5\nb c 0.25\n")
        g = load_graph(p)
        assert (g.n, g.m) == (3, 2)
        assert g.directed
        assert g.labels == ["a", "b", "c"]
        np.testing.assert_allclose(g.prob, [0.5, 0.25])

    def test_three_node_example_file(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("s t 0.5\ns A 0.5\nA t 0.5\n")
        g = load_graph(p)
        assert (g.n, g.m) == (3, 3)

    def test_header_and_comments(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\nundirected\na b 0.5 # trailing\n")
        g = load_graph(p)
        assert not g.directed
        assert g.m == 1

    def test_explicit_flag_overrides_header(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("directed\na b 0.5\n")
        assert load_graph(p, directed=False).directed is False

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b 0.5\nc c 0.5\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(p)

    def test_bad_probability(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b 1.5\n")
        with pytest.raises(GraphFormatError, match="outside"):
            load_graph(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph(p)

    def test_duplicate_edge_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b 0.5\na b 0.7\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_graph(p)

    def test_zero_prob_edges_dropped_but_register_nodes(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("a b 0.5\nc a 0\n")
        with pytest.warns(UserWarning, match="zero-probability"):
            g = load_graph(p)
        assert g.n == 3  # c still exists
        assert g.m == 1

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 12, 30, directed=False)
        path = tmp_path / "g.txt"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.directed == g.directed
        assert g2.n == g.n and g2.m == g.m
        # ids may be renumbered; the labeled edge list must survive exactly
        def labeled(gr):
            return [
                (gr.labels[int(u)], gr.labels[int(v)], float(p))
                for u, v, p in zip(gr.src, gr.dst, gr.prob)
            ]
        assert labeled(g2) == labeled(g)


class TestWorlds:
    def test_all_certain_edges(self):
        g = UncertainGraph(3, [0, 1], [1, 2], [1.0, 1.0])
        mask = sample_world(g, world_stream(0, 0, g.m))
        assert mask.all()

    def test_all_zero_edges(self):
        g = UncertainGraph(3, [0, 1], [1, 2], [0.0, 0.0])
        mask = sample_world(g, world_stream(0, 0, g.m))
        assert not mask.any()

    def test_presence_frequency_matches_probability(self):
        # binomial 3-sigma bound at Z=100000 is under 0.005; assert 0.01
        g = UncertainGraph(2, [0], [1], [0.5])
        masks = uniform_batch(42, 100_000, g.m) < g.prob
        assert abs(masks.mean() - 0.5) < 0.01

    def test_world_probability_simple(self):
        g = UncertainGraph(3, [0, 1], [1, 2], [0.5, 0.5])
        assert world_probability(g, [True, True]) == pytest.approx(0.25)
        g2 = UncertainGraph(3, [0, 1], [1, 2], [0.5, 0.7])
        assert world_probability(g2, [True, False]) == pytest.approx(0.15)

    def test_world_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_graph(rng, 6, 10)
            total = 0.0
            for bits in range(1 << g.m):
                mask = [(bits >> i) & 1 == 1 for i in range(g.m)]
                total += world_probability(g, mask)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sample_index_streams_match_batch(self):
        # world start + i from its own stream equals row i of one batched draw
        rng = np.random.default_rng(11)
        g = random_graph(rng, 10, 23)
        for start in (0, 1, 6):
            batch = uniform_batch(5, 17, g.m, start) < g.prob
            for i in range(17):
                row = sample_world(g, world_stream(5, start + i, g.m))
                np.testing.assert_array_equal(row, batch[i])

    def test_fixed_seed_is_reproducible(self):
        g = triangle_graph()
        a = uniform_batch(9, 50, g.m) < g.prob
        b = uniform_batch(9, 50, g.m) < g.prob
        np.testing.assert_array_equal(a, b)


class TestReachable:
    def test_source_equals_target(self):
        g = triangle_graph()
        assert reachable(np.zeros(g.m, bool), g, 0, 0)

    def test_empty_world_disconnects(self):
        g = triangle_graph()
        assert not reachable(np.zeros(g.m, bool), g, 0, 1)

    def test_full_chain(self):
        g = UncertainGraph(4, [0, 1, 2], [1, 2, 3], [0.5, 0.5, 0.5])
        assert reachable(np.ones(g.m, bool), g, 0, 3)
        assert not reachable(np.array([True, False, True]), g, 0, 3)

    def test_direction_respected(self):
        g = UncertainGraph(2, [0], [1], [1.0], directed=True)
        mask = np.ones(1, bool)
        assert reachable(mask, g, 0, 1)
        assert not reachable(mask, g, 1, 0)

    def test_undirected_symmetric(self):
        rng = np.random.default_rng(21)
        g = random_graph(rng, 8, 14, directed=False)
        for _ in range(20):
            mask = sample_world(g, world_stream(int(rng.integers(1 << 30)), 0, g.m))
            for s in range(4):
                for t in range(4, 8):
                    assert reachable(mask, g, s, t) == reachable(mask, g, t, s)

    def test_reached_set_matches_pairwise(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, 7, 12, directed=True)
        mask = sample_world(g, world_stream(1, 0, g.m))
        seen = reached_set(mask, g, 0)
        for t in range(g.n):
            assert seen[t] == reachable(mask, g, 0, t)


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            UncertainGraph(2, [0], [0], [0.5])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probabilities"):
            UncertainGraph(2, [0], [1], [1.0000001])

    def test_rejects_duplicate_undirected_orientations(self):
        with pytest.raises(ValueError, match="duplicate"):
            UncertainGraph(2, [0, 1], [1, 0], [0.5, 0.5], directed=False)

    def test_with_edges_appends(self):
        g = triangle_graph()
        g2 = g.with_edges([(1, 2, 0.9)])
        assert g2.m == g.m + 1
        assert g2.has_edge(1, 2)
        assert not g.has_edge(1, 2)


class TestEdgeId:
    def test_directed_orientation(self):
        g = UncertainGraph(3, [0, 2], [1, 1], [0.5, 0.4], directed=True)
        assert g.edge_id(0, 1) == 0
        assert g.edge_id(2, 1) == 1
        assert g.edge_id(1, 0) is None
        assert g.edge_id(1, 2) is None

    def test_undirected_either_orientation(self):
        g = UncertainGraph(3, [0, 2], [1, 1], [0.5, 0.4], directed=False)
        assert g.edge_id(0, 1) == g.edge_id(1, 0) == 0
        assert g.edge_id(2, 1) == g.edge_id(1, 2) == 1
        assert g.edge_id(0, 2) is None

    def test_appended_edges_follow_the_base(self):
        g = triangle_graph().with_edges([(1, 2, 0.9)])
        assert g.edge_id(1, 2) == g.m - 1

    @pytest.mark.parametrize("directed", [True, False])
    def test_agrees_with_edge_arrays_and_has_edge(self, directed):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_graph(rng, 12, 30, directed=directed)
            for eid in range(g.m):
                assert g.edge_id(int(g.src[eid]), int(g.dst[eid])) == eid
            for u in range(g.n):
                for v in range(g.n):
                    eid = g.edge_id(u, v)
                    assert g.has_edge(u, v) == (eid is not None)
                    if eid is not None:
                        ends = (int(g.src[eid]), int(g.dst[eid]))
                        assert ends == (u, v) or (not directed and ends == (v, u))
