"""Traced reference run of the full criterion-11 gate query.

Not part of the repeated runs: it ties the ``gate-er`` stage shares to the
full-size instance.  The instance is the acceptance gate's: an ER graph with
100k nodes and about 500k edges from generator seed 40, the query ``0`` to
``50000`` with ``be``, k=10, Z=250 and seed 42.  From the repository root::

    python3 benchmark/reference.py

takes a few minutes and about 0.5 GB, and rewrites
``benchmark/reference_gate_full.json``.
"""
from __future__ import annotations

import json
import sys

import run

NODES = 100_000
EDGES = 500_000
GEN_SEED = 40
QUERY = {"source": "0", "target": "50000", "k": 10, "samples": 250, "seed": 42,
         "r": 100, "l": 30, "h": 3, "zeta": 0.5}
JUDGE_WORLDS = 1000


def write(report: dict, path) -> None:
    """Indented JSON with one line per span, so the file stays small."""
    spans = report.pop("spans")
    head = json.dumps(report, indent=1)[:-2]
    body = ",\n".join("  " + json.dumps(span) for span in spans)
    path.write_text(f'{head},\n "spans": [\n{body}\n ]\n}}\n')


def main() -> int:
    run.import_program()
    from relgain import generators, graph, selection
    from relgain.estimators import EstimatorConfig

    from judge import Judge
    from layers import instrument, layer_metrics
    from spans import Tracer, clock

    # the gate generates with the CLI, which prints the parameter with 12 digits
    param = float(f"{EDGES / (NODES * (NODES - 1) / 2):.12g}")
    g0 = generators.generate(generators.GenSpec("erdos_renyi", NODES, param, seed=GEN_SEED))
    run.OUT.mkdir(exist_ok=True)
    edge_file = run.OUT / "gate-full.edges"
    graph.save_graph(g0, edge_file)
    del g0

    tracer = Tracer()
    instrument(tracer)
    g = graph.load_graph(edge_file, directed=False)
    edge_file.unlink()
    s, t = g.node_id(QUERY["source"]), g.node_id(QUERY["target"])
    tracer.query = 0
    started = clock()
    res = selection.improve_single_pair(
        g, s, t, QUERY["k"], method="be", r=QUERY["r"], l=QUERY["l"], h=QUERY["h"],
        zeta=QUERY["zeta"], config=EstimatorConfig(samples=QUERY["samples"],
                                                  seed=QUERY["seed"]))
    query_s = clock() - started
    origin = tracer.spans[0].start
    tracer.query = None
    tracer.restore()
    peak = run.peak_rss_mb()

    judge = Judge(g.n, g.src, g.dst, g.prob, JUDGE_WORLDS, seed=GEN_SEED)
    nodes = sorted({s, t} | {v for e in res.chosen for v in (e.u, e.v)})
    verdict = judge.verdict(judge.labels(nodes), {v: i for i, v in enumerate(nodes)},
                            [(s, t)], [(e.u, e.v, e.prob) for e in res.chosen], 0)
    layers = layer_metrics(tracer, g.n, 1, [verdict.gain])
    stages = {
        "load": layers["graph.load_s"],
        "elimination": layers["candidates.eliminate_s"],
        "top_l": layers["paths.top_l_s"],
        "whole_graph_estimates": layers["estimators.full_estimate_s"],
        "subgraph_estimates": layers["estimators.sub_estimate_s"],
        "selection_self": layers["selection.self_s"],
    }
    report = {
        "environment": run.environment("gate-full", QUERY["seed"], None, 1,
                                       {"nodes": NODES, "edges": g.m, "generator_seed":
                                        GEN_SEED, **QUERY, "judge_worlds": JUDGE_WORLDS}),
        "query_s": query_s,
        "peak_rss_mb": peak,
        "stage_s": stages,
        "stage_share_of_query": {k: v / query_s for k, v in stages.items() if k != "load"},
        "per_layer": layers,
        "result": {"base": res.base_reliability, "new": res.new_reliability,
                   "gain": res.gain, "edges_added": len(res.chosen),
                   "flags": list(res.flags),
                   "chosen": sorted(f"{g.labels[e.u]}-{g.labels[e.v]}" for e in res.chosen),
                   "judged_base": verdict.base, "judged_new": verdict.new,
                   "judged_gain": verdict.gain, "judged_gain_se": verdict.gain_se},
        "span_fields": ["id", "parent", "name", "start_s", "duration_s"],
        "spans": [[s.id, s.parent, s.name, round(s.start - origin, 6), round(s.duration, 6)]
                  for s in tracer.spans],
    }
    write(report, run.HERE / "reference_gate_full.json")
    print(json.dumps({k: report[k] for k in ("query_s", "peak_rss_mb", "stage_s")}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
