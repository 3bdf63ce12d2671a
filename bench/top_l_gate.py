"""Time one top-l path search on the criterion-11 gate instance.

The instance is the acceptance gate's: an undirected ER graph with 100k
nodes and about 500k edges from generator seed 40, the query ``0`` to
``50000``, candidates from ``eliminate`` with r=100, h=3, zeta=0.5 and
Z=250 at seed 42.  The script times ``top_l_paths`` (l=30) on the augmented
graph, then runs the unrestricted deviation search (the same search on the
whole graph, with no corridor) and checks that both return the same paths.
From the repository root::

    PYTHONPATH=src python3 bench/top_l_gate.py

takes a few minutes and about 0.5 GB.  It prints one JSON object.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from relgain import generators, graph, paths
from relgain.candidates import eliminate
from relgain.estimators import EstimatorConfig

NODES = 100_000
EDGES = 500_000
GEN_SEED = 40
SOURCE, TARGET = "0", "50000"
CONFIG = EstimatorConfig(samples=250, seed=42)
L = 30


def unrestricted(g, s, t, l):
    """The deviation search run on the whole graph, ordered like top_l_paths."""
    idx = paths._ArcIndex.of_graph(g)
    found = [idx.to_reliable(g, p) for _, p in paths._deviation_search(idx, s, t, l)]
    found.sort(key=lambda p: (-p.prob, p.hops, p.nodes))
    return found


def main() -> int:
    # the gate writes the graph with the CLI, which prints the parameter with 12 digits
    param = float(f"{EDGES / (NODES * (NODES - 1) / 2):.12g}")
    g0 = generators.generate(generators.GenSpec("erdos_renyi", NODES, param, seed=GEN_SEED))
    with tempfile.TemporaryDirectory() as tmp:
        edge_file = Path(tmp) / "gate.edges"
        graph.save_graph(g0, edge_file)
        del g0
        g = graph.load_graph(edge_file, directed=False)
    s, t = g.node_id(SOURCE), g.node_id(TARGET)
    cands = eliminate(g, s, t, r=100, h=3, zeta=0.5, config=CONFIG)
    aug = paths.augment(g, cands)

    started = time.process_time()
    got = paths.top_l_paths(aug, s, t, L)
    top_l_s = time.process_time() - started
    started = time.process_time()
    ref = unrestricted(aug, s, t, L)
    reference_s = time.process_time() - started

    print(json.dumps({
        "nodes": g.n, "edges": g.m, "candidates": len(cands.edges),
        "paths": len(got), "top_l_cpu_s": round(top_l_s, 3),
        "unrestricted_cpu_s": round(reference_s, 3),
        "same_paths": [(p.nodes, p.prob, p.candidate_edges) for p in got]
                      == [(p.nodes, p.prob, p.candidate_edges) for p in ref],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
