"""Comparison selectors: individual gains, hill climbing, centrality, spectra.

These are the naive strategies the path-batch methods are measured against.
They share the SelectionResult shape so the CLI and experiments can treat
every method uniformly.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .candidates import CandidateEdge, CandidateSet
from .errors import ConvergenceError
from .estimators import EstimatorConfig, estimate
from .graph import UncertainGraph
from .selection import RoundRecord, SelectionResult, _finalize

__all__ = [
    "EigenScores",
    "select_individual_topk",
    "select_hill_climbing",
    "select_centrality",
    "degree_centrality",
    "betweenness_centrality",
    "eigen_scores",
    "select_eigen",
]


def select_individual_topk(g: UncertainGraph, cands: CandidateSet, s: int, t: int,
                           k: int, config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Rank candidates by the gain each gives alone; take the top k.

    Ignores every interaction between edges, which is exactly what makes it
    a baseline: a path needing two new edges scores zero for both.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    base = estimate(g, s, t, config).value
    gains = []
    for idx, e in enumerate(cands.edges):
        val = estimate(g.with_edges([(e.u, e.v, e.prob)]), s, t, config).value
        gains.append((-(val - base), idx))
    gains.sort()
    picked = [cands.edges[idx] for _, idx in gains[:k]]
    flags = ["k-covers-all"] if k >= len(cands.edges) else []
    if not cands.edges:
        flags = ["no-candidates"]
    trace = [RoundRecord(1, "topk", tuple((e.u, e.v) for e in picked),
                         -gains[0][0] if gains else 0.0, 0.0,
                         tuple(((cands.edges[i].u, cands.edges[i].v), -ng)
                               for ng, i in gains))]
    return _finalize(g, ((s, t),), "topk", picked, [base], trace, flags, config)


def select_hill_climbing(g: UncertainGraph, cands: CandidateSet, s: int, t: int,
                         k: int, config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Greedy marginal-gain insertion, re-estimating after every pick.

    Each round evaluates every remaining candidate on the graph including
    all previously inserted edges and keeps the best (ties to the earlier
    candidate).  Rounds with a negative best gain stop the climb; zero-gain
    picks are allowed since they can unlock gains later.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    base = estimate(g, s, t, config).value
    cur_graph, cur = g, base
    chosen: list[CandidateEdge] = []
    trace: list[RoundRecord] = []
    flags: list[str] = []
    if not cands.edges:
        flags.append("no-candidates")
    remaining = list(cands.edges)
    while len(chosen) < k and remaining:
        evals = []
        for idx, e in enumerate(remaining):
            val = estimate(cur_graph.with_edges([(e.u, e.v, e.prob)]), s, t, config).value
            evals.append((val - cur, idx, e))
        gain, idx, e = max(evals, key=lambda ev: (ev[0], -ev[1]))
        if gain < 0.0:
            flags.append("stopped-early")
            break
        remaining.pop(idx)
        chosen.append(e)
        cur_graph = cur_graph.with_edges([(e.u, e.v, e.prob)])
        cur += gain
        trace.append(RoundRecord(len(trace) + 1, "hc", ((e.u, e.v),), gain, gain,
                                 tuple(((ev.u, ev.v), gv) for gv, _, ev in evals)))
    return _finalize(g, ((s, t),), "hc", chosen, [base], trace, flags, config)


# ---------------------------------------------------------------------------
# structural centralities
# ---------------------------------------------------------------------------


def degree_centrality(g: UncertainGraph) -> np.ndarray:
    """Per node, the sum of incident edge probabilities (in plus out)."""
    c = np.bincount(g.src, weights=g.prob, minlength=g.n)
    c += np.bincount(g.dst, weights=g.prob, minlength=g.n)
    return c


def betweenness_centrality(g: UncertainGraph) -> np.ndarray:
    """Shortest-path betweenness on the unweighted skeleton (Brandes)."""
    n = g.n
    adj = [[] for _ in range(n)]
    for eid in range(g.m):
        u, v = int(g.src[eid]), int(g.dst[eid])
        adj[u].append(v)
        if not g.directed:
            adj[v].append(u)
    cb = np.zeros(n)
    for s0 in range(n):
        stack = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s0] = 1.0
        dist = np.full(n, -1)
        dist[s0] = 0
        queue = deque([s0])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s0:
                cb[w] += delta[w]
    if not g.directed:
        cb /= 2.0
    return cb


def select_centrality(g: UncertainGraph, cands: CandidateSet, s: int, t: int,
                      k: int, mode: str = "degree",
                      config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Connect the candidate pairs whose endpoints have the largest centrality.

    Pure structure: reliability plays no part in the ranking, only in the
    reported before/after values.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if mode == "degree":
        c = degree_centrality(g)
    elif mode == "betweenness":
        c = betweenness_centrality(g)
    else:
        raise ValueError(f"unknown centrality mode {mode!r}")
    scored = sorted(
        ((-(c[e.u] + c[e.v]), (e.u, e.v), e) for e in cands.edges))
    picked = [e for _, _, e in scored[:k]]
    flags = ["k-covers-all"] if k >= len(cands.edges) else []
    if not cands.edges:
        flags = ["no-candidates"]
    base = estimate(g, s, t, config).value
    trace = [RoundRecord(1, f"cent-{mode[:3]}", tuple((e.u, e.v) for e in picked),
                         0.0, 0.0, tuple((pair, -ns) for ns, pair, _ in scored))]
    return _finalize(g, ((s, t),), f"cent-{'deg' if mode == 'degree' else 'bet'}",
                     picked, [base], trace, flags, config)


# ---------------------------------------------------------------------------
# spectral selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenScores:
    """Leading eigenpair data of the probability-weighted adjacency matrix."""

    lam: float
    u: np.ndarray       # left eigenvector, unit length
    v: np.ndarray       # right eigenvector, unit length
    d_in: int           # maximum in-degree
    d_out: int          # maximum out-degree


def _power_iteration(mat, n: int, tol: float, max_iter: int):
    # iterate on mat + I: same eigenvectors, but the Perron root becomes
    # strictly dominant so bipartite-style +/-lambda pairs cannot oscillate
    x = np.full(n, 1.0 / np.sqrt(n))
    for _ in range(max_iter):
        y = mat @ x + x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0, x  # no edges feed this direction
        y /= norm
        if float(np.linalg.norm(y - x)) < tol:
            return max(norm - 1.0, 0.0), y
        x = y
    raise ConvergenceError(
        f"power iteration did not converge within {max_iter} iterations")


def eigen_scores(g: UncertainGraph, tol: float = 1e-10, max_iter: int = 10_000) -> EigenScores:
    """Leading eigenvalue and left/right eigenvectors by power iteration."""
    asrc, adst, aeid = g.arc_arrays()
    mat = sp.csr_matrix((g.prob[aeid], (asrc, adst)), shape=(g.n, g.n))
    d_out = int(np.bincount(asrc, minlength=g.n).max()) if len(asrc) else 0
    d_in = int(np.bincount(adst, minlength=g.n).max()) if len(adst) else 0
    if g.directed and len(asrc):
        ncomp, _ = csgraph.connected_components(mat, directed=True, connection="strong")
        if ncomp == g.n:
            # acyclic: the spectrum is all zeros and iteration cannot settle
            x = np.full(g.n, 1.0 / np.sqrt(g.n))
            return EigenScores(0.0, x, x, d_in, d_out)
    lam, v = _power_iteration(mat, g.n, tol, max_iter)
    if g.directed:
        _, u = _power_iteration(mat.T.tocsr(), g.n, tol, max_iter)
    else:
        u = v
    return EigenScores(lam, u, v, d_in, d_out)


def eigen_pair_ranking(scores: EigenScores, g: UncertainGraph,
                       cands: CandidateSet, k: int) -> list[CandidateEdge]:
    """Top-k candidates by u(i)*v(j) over the spectral head pools."""
    order_u = np.lexsort((np.arange(g.n), -scores.u))
    order_v = np.lexsort((np.arange(g.n), -scores.v))
    pool_i = set(order_u[: k + scores.d_in].tolist())
    pool_j = set(order_v[: k + scores.d_out].tolist())
    ranked = []
    for idx, e in enumerate(cands.edges):
        best = None
        if e.u in pool_i and e.v in pool_j:
            best = float(scores.u[e.u] * scores.v[e.v])
        if not g.directed and e.v in pool_i and e.u in pool_j:
            alt = float(scores.u[e.v] * scores.v[e.u])
            best = alt if best is None else max(best, alt)
        if best is not None:
            ranked.append((-best, (e.u, e.v), idx))
    ranked.sort()
    return [cands.edges[idx] for _, _, idx in ranked[:k]]


def select_eigen(g: UncertainGraph, cands: CandidateSet, s: int, t: int, k: int,
                 config: EstimatorConfig = EstimatorConfig(),
                 tol: float = 1e-10, max_iter: int = 10_000) -> SelectionResult:
    """Spectral baseline: join nodes with the largest eigen-score products.

    The left and right leading eigenvectors score how strongly a node feeds
    into and out of the graph's dominant connectivity; adding the missing
    pair with the largest u(i)*v(j) greedily grows the leading eigenvalue.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    scores = eigen_scores(g, tol, max_iter)
    picked = eigen_pair_ranking(scores, g, cands, k)
    base = estimate(g, s, t, config).value
    flags = []
    if not cands.edges:
        flags.append("no-candidates")
    elif len(picked) < min(k, len(cands.edges)):
        flags.append("pool-exhausted")
    trace = [RoundRecord(1, "eigen", tuple((e.u, e.v) for e in picked),
                         0.0, scores.lam, ())]
    return _finalize(g, ((s, t),), "eigen", picked, [base], trace, flags, config)
