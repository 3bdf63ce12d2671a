"""Most-reliable-path improvement via a layered shortest-path search.

To pick at most k candidate edges that maximize the probability of the best
single s-t path, the graph is stacked k+1 times.  Existing edges connect
nodes within a layer; each candidate edge jumps from its source in layer i
to its target in layer i+1.  A path reaching t in layer i therefore uses
exactly i candidate edges, and one Dijkstra run from s in layer 0 scores
every budget 0..k at once.  Weights are -log(p), so shortest means most
probable.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .candidates import CandidateEdge, _as_candidate_set
from .graph import UncertainGraph
from .selection import RoundRecord, SelectionResult

__all__ = ["build_layered", "improve_mrp", "DEFAULT_CANDIDATE_NODE_LIMIT"]

DEFAULT_CANDIDATE_NODE_LIMIT = 2000


def _all_missing(g: UncertainGraph, zeta: float) -> tuple[CandidateEdge, ...]:
    if g.n > DEFAULT_CANDIDATE_NODE_LIMIT:
        raise ValueError(
            f"implicit candidates need n <= {DEFAULT_CANDIDATE_NODE_LIMIT} nodes; "
            "pass an explicit candidate list")
    out = []
    for u in range(g.n):
        vs = range(g.n) if g.directed else range(u + 1, g.n)
        for v in vs:
            if u != v and not g.has_edge(u, v):
                out.append(CandidateEdge(u, v, zeta))
    return tuple(out)


def build_layered(g: UncertainGraph, candidates, k: int):
    """Sparse layered graph: (matrix, n) with node u in layer i at i*n + u."""
    n, big = g.n, g.n * (k + 1)
    asrc, adst, aeid = g.arc_arrays()
    with np.errstate(divide="ignore"):
        base_w = -np.log(g.prob[aeid])
    rows, cols, data = [], [], []
    for layer in range(k + 1):
        rows.append(asrc + layer * n)
        cols.append(adst + layer * n)
        data.append(base_w)
    cand = _as_candidate_set(candidates).edges
    if cand and k > 0:
        cu = np.array([e.u for e in cand], dtype=np.int64)
        cv = np.array([e.v for e in cand], dtype=np.int64)
        cp = np.array([e.prob for e in cand])
        if not g.directed:
            cu, cv = np.concatenate([cu, cv]), np.concatenate([cv, cu])
            cp = np.concatenate([cp, cp])
        with np.errstate(divide="ignore"):
            cw = -np.log(cp)
        for layer in range(k):
            rows.append(cu + layer * n)
            cols.append(cv + (layer + 1) * n)
            data.append(cw)
    mat = sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(big, big))
    return mat, n


def improve_mrp(g: UncertainGraph, s: int, t: int, k: int, candidates=None,
                zeta: float = 0.5) -> SelectionResult:
    """Candidate edges (at most k) that maximize the best single-path probability.

    Reliability here is the probability of the strongest s-t path rather
    than full connectivity, which is what makes the problem exactly
    solvable.  With candidates=None every missing node pair is considered
    at probability zeta (small graphs only).  base/new report the best path
    probability before and after adding the chosen edges; chosen is empty
    when no candidate improves on the existing best path.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    cand = _all_missing(g, zeta) if candidates is None else _as_candidate_set(candidates).edges
    if s == t:
        return SelectionResult("mrp", (), 1.0, 1.0, 0.0, (), ())
    mat, n = build_layered(g, cand, k)
    dist, pred = dijkstra(mat, directed=True, indices=s, return_predecessors=True)
    layer_dist = np.array([dist[i * n + t] for i in range(k + 1)])
    if not np.isfinite(layer_dist).any():
        return SelectionResult("mrp", (), 0.0, 0.0, 0.0, (), ("unreachable",))
    best_layer = int(np.argmin(layer_dist))  # first minimum: fewest new edges
    base = float(np.exp(-layer_dist[0])) if np.isfinite(layer_dist[0]) else 0.0
    new = float(np.exp(-layer_dist[best_layer]))
    levels = tuple(
        (i, float(np.exp(-layer_dist[i])) if np.isfinite(layer_dist[i]) else 0.0)
        for i in range(k + 1))
    if best_layer == 0:
        record = RoundRecord(1, "mrp", (), 0.0, base, levels)
        return SelectionResult("mrp", (), base, base, 0.0, (record,), ())

    by_pair = {}
    for e in cand:
        by_pair[(e.u, e.v)] = e
        if not g.directed:
            by_pair.setdefault((e.v, e.u), e)
    node = best_layer * n + t
    walk = [node]
    while node != s:
        node = int(pred[node])
        walk.append(node)
    walk.reverse()
    chosen = []
    for a, b in zip(walk, walk[1:]):
        if b // n == a // n + 1:  # layer jump = candidate edge
            edge = by_pair[(a % n, b % n)]
            if edge not in chosen:
                chosen.append(edge)
    record = RoundRecord(1, "mrp", tuple((e.u, e.v) for e in chosen),
                         new - base, new, levels)
    return SelectionResult("mrp", tuple(chosen), base, new, new - base, (record,), ())
