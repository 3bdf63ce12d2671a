"""End-to-end command-line behaviour, CSV contracts, exit codes."""
import json

import numpy as np
import pytest

from relgain import cli
from relgain.cli import CSV_HEADER, main
from relgain.graph import load_graph, save_graph

from helpers import closed_form_graph, triangle_graph


@pytest.fixture()
def triangle_missing_st(tmp_path):
    # edges s->A and A->t at 0.5; the direct s->t edge is absent
    from relgain.graph import UncertainGraph
    g = UncertainGraph(3, [0, 2], [2, 1], [0.5, 0.5], directed=True,
                       labels=["s", "t", "A"])
    path = tmp_path / "triangle.edges"
    save_graph(g, path)
    return str(path)


@pytest.fixture()
def closed_form_file(tmp_path):
    # the zero-probability line declares the otherwise isolated node s
    path = tmp_path / "closed_form.edges"
    path.write_text("undirected\ns A 0\nA B 0.5\nA t 0.5\n")
    return str(path)


def small_world_file(tmp_path, n=40, seed=12):
    from relgain.generators import small_world
    path = tmp_path / "sw.edges"
    save_graph(small_world(n, 0.3, seed=seed, lo=0.2, hi=0.9), path)
    return str(path)


class TestEstimate:
    def test_exact_value_on_three_edge_instance(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        save_graph(triangle_graph(), path)
        rc = main(["estimate", "--graph", str(path), "--source", "s",
                   "--target", "t", "--estimator", "exact"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.625" in out

    def test_csv_output_shape(self, tmp_path):
        path = tmp_path / "g.edges"
        save_graph(triangle_graph(), path)
        out = tmp_path / "est.csv"
        rc = main(["estimate", "--graph", str(path), "--source", "s",
                   "--target", "t", "--estimator", "exact", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_unknown_label_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        save_graph(triangle_graph(), path)
        rc = main(["estimate", "--graph", str(path), "--source", "s",
                   "--target", "zz"])
        assert rc == 2
        assert "unknown node label" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, capsys):
        rc = main(["estimate", "--graph", "/nonexistent.edges",
                   "--source", "s", "--target", "t"])
        assert rc == 2

    def test_auto_samples_reports_choice(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        save_graph(triangle_graph(), path)
        rc = main(["estimate", "--graph", str(path), "--source", "s",
                   "--target", "t", "--estimator", "mc", "--auto-samples",
                   "--seed", "4"])
        assert rc == 0
        assert "auto-samples: Z=" in capsys.readouterr().err


class TestImprove:
    def test_be_adds_direct_edge_when_missing(self, triangle_missing_st, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["improve", "--graph", triangle_missing_st, "--method", "be",
                   "--k", "1", "--h", "none", "--source", "s", "--target", "t",
                   "--r", "3", "--output", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "added: s-t" in err
        header, row = out.read_text().splitlines()
        assert header == CSV_HEADER
        cells = row.split(",")
        assert cells[0] == "be"
        assert float(cells[6]) == pytest.approx(0.25, abs=1e-12)   # base
        assert float(cells[7]) == pytest.approx(0.625, abs=1e-12)  # new
        assert float(cells[8]) == pytest.approx(0.375, abs=1e-12)  # gain
        assert cells[9] == "0"      # timing off by default
        assert cells[11] == "1"     # one edge added

    def test_exact_reproduces_closed_form_gain(self, closed_form_file, tmp_path):
        cand = tmp_path / "cand.edges"
        cand.write_text("s A 0.7\ns B 0.7\nB t 0.7\n")
        out = tmp_path / "r.csv"
        rc = main(["improve", "--graph", closed_form_file, "--method", "exact",
                   "--k", "2", "--zeta", "0.7", "--candidates", str(cand),
                   "--source", "s", "--target", "t", "--output", str(out)])
        assert rc == 0
        cells = out.read_text().splitlines()[1].split(",")
        assert float(cells[6]) == pytest.approx(0.0, abs=1e-12)
        assert float(cells[7]) == pytest.approx(0.5425, abs=1e-9)
        assert float(cells[8]) == pytest.approx(0.5425, abs=1e-9)

    def test_prob_override_changes_candidate(self, triangle_missing_st, tmp_path):
        over = tmp_path / "over.txt"
        over.write_text("s t 0.9\n")
        out = tmp_path / "r.csv"
        rc = main(["improve", "--graph", triangle_missing_st, "--method", "be",
                   "--k", "1", "--h", "none", "--source", "s", "--target", "t",
                   "--r", "3", "--prob-overrides", str(over),
                   "--output", str(out)])
        assert rc == 0
        cells = out.read_text().splitlines()[1].split(",")
        assert float(cells[7]) == pytest.approx(0.25 + 0.9 * 0.75, abs=1e-12)

    def test_trace_has_one_line_per_round(self, closed_form_file, tmp_path):
        # k below the candidate count so the greedy loop actually runs
        cand = tmp_path / "cand.edges"
        cand.write_text("s A 0.7\ns B 0.7\nB t 0.7\n")
        trace = tmp_path / "trace.jsonl"
        rc = main(["improve", "--graph", closed_form_file, "--method", "be",
                   "--k", "1", "--zeta", "0.7", "--candidates", str(cand),
                   "--source", "s", "--target", "t",
                   "--output", str(tmp_path / "r.csv"), "--trace", str(trace)])
        assert rc == 0
        lines = [json.loads(x) for x in trace.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["note"] == "batch"
        assert lines[0]["picked"] == [["s", "A"]]
        assert lines[0]["gain"] > 0

    def test_every_method_runs(self, tmp_path):
        graph = small_world_file(tmp_path, n=20)
        out = tmp_path / "r.csv"
        for method in cli.METHODS:
            rc = main(["improve", "--graph", graph, "--method", method,
                       "--k", "2", "--r", "5", "--samples", "200",
                       "--source", "0", "--target", "10",
                       "--output", str(out)])
            assert rc == 0, method
            header, row = out.read_text().splitlines()
            cells = row.split(",")
            assert cells[0] == method
            assert float(cells[8]) >= -1e-9, method

    def test_cap_exceeded_is_infeasible_exit(self, tmp_path, capsys):
        # 25 candidates all on equally good s-t paths survive pruning,
        # so exact with k=10 faces C(25,10) > 200000 combinations
        graph = tmp_path / "fan.edges"
        lines = ["directed"] + [f"s a{i} 1.0" for i in range(25)] + ["b t 1.0"]
        graph.write_text("\n".join(lines) + "\n")
        cand = tmp_path / "cand.edges"
        cand.write_text("".join(f"a{i} b 0.5\n" for i in range(25)))
        rc = main(["improve", "--graph", str(graph), "--method", "exact",
                   "--k", "10", "--candidates", str(cand),
                   "--source", "s", "--target", "t"])
        assert rc == 3
        assert "combinations exceed" in capsys.readouterr().err

    def test_needs_endpoints_or_queries(self, triangle_missing_st, capsys):
        rc = main(["improve", "--graph", triangle_missing_st])
        assert rc == 2
        assert "--source" in capsys.readouterr().err


class TestWorkersAndDeterminism:
    def queries_file(self, tmp_path):
        qf = tmp_path / "queries.txt"
        qf.write_text("0 20\n1 21\n2 22\n3 23\n4 24\n5 25\n")
        return str(qf)

    def test_improve_queries_csv_stable_across_workers(self, tmp_path):
        graph = small_world_file(tmp_path)
        qf = self.queries_file(tmp_path)
        outs = []
        for workers in ("1", "4", "1"):
            out = tmp_path / f"r{len(outs)}.csv"
            rc = main(["improve", "--graph", graph, "--method", "be",
                       "--k", "2", "--r", "8", "--samples", "400",
                       "--queries", qf, "--workers", workers,
                       "--seed", "7", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].decode().count("\n") == 7  # header + 6 queries

    def test_query_seeds_do_not_collide_across_master_seeds(self, tmp_path, monkeypatch):
        # master seed 0 with query 1 must not reuse master seed 1 with query 0
        graph = small_world_file(tmp_path, n=20)
        qf = tmp_path / "pair.txt"
        qf.write_text("0 10\n0 10\n")
        seeds = []
        real = cli.run_query

        def spy(g, cfg, s, t, seed, *rest):
            seeds.append(seed)
            return real(g, cfg, s, t, seed, *rest)

        monkeypatch.setattr(cli, "run_query", spy)
        for master in ("0", "1"):
            rc = main(["improve", "--graph", graph, "--method", "be", "--k", "1",
                       "--r", "4", "--samples", "100", "--queries", str(qf),
                       "--seed", master, "--output", str(tmp_path / "out.csv")])
            assert rc == 0
        assert len(seeds) == 4 and len(set(seeds)) == 4

    def test_bench_rows_and_determinism(self, tmp_path):
        graph = small_world_file(tmp_path, n=20)
        qf = tmp_path / "q.txt"
        qf.write_text("0 10\n5 15\n3 12\n")
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"b{workers}.csv"
            rc = main(["bench", "--graph", graph, "--methods", "be,topk",
                       "--k-sweep", "1,2", "--queries", str(qf),
                       "--r", "5", "--samples", "300", "--workers", workers,
                       "--seed", "3", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert lines[0] == CSV_HEADER
        heads = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert heads == [("be", "1"), ("be", "2"), ("topk", "1"), ("topk", "2")]

    def test_bench_rejects_unknown_method(self, tmp_path, capsys):
        graph = small_world_file(tmp_path)
        qf = tmp_path / "q.txt"
        qf.write_text("0 20\n")
        rc = main(["bench", "--graph", graph, "--methods", "be,bogus",
                   "--k-sweep", "1", "--queries", str(qf)])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err


class TestMulti:
    def test_single_query_row(self, tmp_path):
        graph = small_world_file(tmp_path)
        out = tmp_path / "m.csv"
        rc = main(["multi", "--graph", graph, "--aggregate", "avg",
                   "--sources", "0,1", "--targets", "20,21", "--k", "2",
                   "--r", "8", "--samples", "400", "--output", str(out)])
        assert rc == 0
        header, row = out.read_text().splitlines()
        assert header == CSV_HEADER
        cells = row.split(",")
        assert cells[0] == "avg"
        assert int(cells[11]) <= 2

    def test_one_by_one_reports_single_pair_method(self, tmp_path):
        graph = small_world_file(tmp_path)
        out = tmp_path / "m.csv"
        rc = main(["multi", "--graph", graph, "--aggregate", "min",
                   "--sources", "0", "--targets", "20", "--k", "2",
                   "--r", "8", "--samples", "400", "--output", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[1].split(",")[0] == "be"

    def test_queries_file_stable_across_workers(self, tmp_path):
        graph = small_world_file(tmp_path)
        qf = tmp_path / "mq.txt"
        qf.write_text("S: 0,1 | T: 20,21\nS: 2 | T: 22\nS: 3,4 | T: 23\n")
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"mq{workers}.csv"
            rc = main(["multi", "--graph", graph, "--aggregate", "min",
                       "--queries", str(qf), "--k", "2", "--r", "8",
                       "--samples", "400", "--workers", workers,
                       "--seed", "5", "--output", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].decode().count("\n") == 4

    def test_malformed_query_line(self, tmp_path, capsys):
        graph = small_world_file(tmp_path)
        qf = tmp_path / "bad.txt"
        qf.write_text("S 0 T 20\n")
        rc = main(["multi", "--graph", graph, "--queries", str(qf)])
        assert rc == 2

    def test_max_overlap_rejected(self, tmp_path, capsys):
        graph = small_world_file(tmp_path)
        rc = main(["multi", "--graph", graph, "--aggregate", "max",
                   "--sources", "0,1", "--targets", "1,2", "--k", "2",
                   "--r", "8", "--samples", "400"])
        assert rc == 2
        assert "disjoint" in capsys.readouterr().err


class TestGenerate:
    def test_writes_loadable_graph(self, tmp_path, capsys):
        out = tmp_path / "er.edges"
        rc = main(["generate", "--family", "erdos_renyi", "--nodes", "100",
                   "--param", "0.05", "--seed", "2", "--output", str(out)])
        assert rc == 0
        assert "wrote" in capsys.readouterr().err
        g = load_graph(out)
        assert not g.directed
        assert g.m > 0

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for path in (a, b):
            rc = main(["generate", "--family", "scale_free", "--nodes", "60",
                       "--param", "2,3", "--seed", "9", "--output", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_params_exit_code(self, tmp_path, capsys):
        rc = main(["generate", "--family", "k_regular", "--nodes", "5",
                   "--param", "3", "--output", str(tmp_path / "x.edges")])
        assert rc == 2
        assert "even" in capsys.readouterr().err

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "grid", "--nodes", "10",
                  "--output", "/tmp/x"])
        assert exc.value.code == 2
