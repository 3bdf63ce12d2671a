"""Candidate edge generation: reliability pools, hop filter, path pruning.

Adding an edge helps only if one endpoint is easy to reach from s and the
other easily reaches t, so candidates are drawn from the cross product of
the r most reliable nodes seen from s and the r most reliable nodes seeing
t.  Pairs that already exist, are self loops, or join nodes further than h
hops apart (ignoring direction) are dropped.  A second pass can prune the
set down to candidates that actually appear on at least one top path.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .estimators import EstimatorConfig, reliability_all_from, reliability_all_to
from .graph import UncertainGraph
from .rng import derive_seed

__all__ = ["CandidateEdge", "CandidateSet", "eliminate", "prune_by_paths"]


class CandidateEdge(NamedTuple):
    u: int
    v: int
    prob: float


@dataclass(frozen=True)
class CandidateSet:
    """Proposed new edges plus the node pools they were drawn from."""

    edges: tuple[CandidateEdge, ...]
    source_pool: tuple[int, ...]
    target_pool: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def pairs(self) -> set:
        return {(e.u, e.v) for e in self.edges}


def _as_candidate_set(candidates) -> CandidateSet:
    """A CandidateSet as given, or one built from (u, v, prob) triples."""
    if isinstance(candidates, CandidateSet):
        return candidates
    edges = tuple(CandidateEdge(int(u), int(v), float(p)) for u, v, p in candidates)
    return CandidateSet(edges, (), ())


def _top_pool(scores: np.ndarray, forced: int, r: int) -> tuple[int, ...]:
    # stable pick: score descending, node id ascending, forced node always in
    order = np.lexsort((np.arange(scores.size), -scores))
    pool = []
    for node in order.tolist():
        if node != forced:
            pool.append(node)
    pool = [forced] + pool[: r - 1]
    pool.sort()
    return tuple(pool)


def _hop_distances(g: UncertainGraph, sources, limit: float) -> np.ndarray:
    """Undirected hop distance from each source to every node, inf past limit."""
    asrc, adst, _ = g.arc_arrays()
    rows = np.concatenate([asrc, adst])
    cols = np.concatenate([adst, asrc])
    mat = sp.csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(g.n, g.n)
    )
    return dijkstra(mat, directed=True, unweighted=True, indices=np.asarray(sources), limit=limit)


def _check_params(g, r, zeta, prob_overrides):
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must be in (0, 1], got {zeta}")
    if r < 1:
        raise ValueError("r must be at least 1")
    if r > g.n:
        warnings.warn(f"r={r} exceeds the node count {g.n}; using r={g.n}")
        r = g.n
    overrides = {}
    for key, p in (prob_overrides or {}).items():
        if not 0.0 < p <= 1.0:
            raise ValueError(f"override probability for {key} must be in (0, 1], got {p}")
        u, v = key
        overrides[(u, v)] = p
        if not g.directed:
            overrides[(v, u)] = p
    return r, overrides


def _pairs_between(g, source_pool, target_pool, h, zeta, overrides):
    """Candidate edges over the pools' grid, source-major, first occurrence of a key."""
    src = np.asarray(source_pool, dtype=np.int64)
    dst = np.asarray(target_pool, dtype=np.int64)
    u, v = np.repeat(src, len(dst)), np.tile(dst, len(src))
    keys = g._pair_keys(u, v)
    ok = (u != v) & ~np.isin(keys, g._pair_keys(g.src, g.dst))
    if h is not None:
        dist = _hop_distances(g, src, float(h))
        ok &= dist[np.repeat(np.arange(len(src)), len(dst)), v] <= h
    idx = np.flatnonzero(ok)
    idx = idx[np.sort(np.unique(keys[idx], return_index=True)[1])]
    return tuple(CandidateEdge(a, b, overrides.get((a, b), zeta))
                 for a, b in zip(u[idx].tolist(), v[idx].tolist()))


def eliminate(g: UncertainGraph, s: int, t: int, r: int = 100, h: int | None = 3,
              zeta: float = 0.5, prob_overrides: dict | None = None,
              config: EstimatorConfig = EstimatorConfig()) -> CandidateSet:
    """Candidate edges between the r best sources-of-s and sinks-to-t nodes.

    h bounds the undirected hop distance between the endpoints of a proposed
    edge (None disables the filter).  zeta is the probability assigned to
    every candidate unless prob_overrides maps that node pair to its own
    value; probabilities must lie in (0, 1].
    """
    r, overrides = _check_params(g, r, zeta, prob_overrides)
    method = "mc" if config.method == "mc" else "rss"
    from_s = reliability_all_from(g, s, config.samples, derive_seed(config.seed, "pool-from"),
                                  method, config.branch_r, config.mc_threshold)
    to_t = reliability_all_to(g, t, config.samples, derive_seed(config.seed, "pool-to"),
                              method, config.branch_r, config.mc_threshold)
    source_pool = _top_pool(from_s, s, r)
    target_pool = _top_pool(to_t, t, r)
    edges = _pairs_between(g, source_pool, target_pool, h, zeta, overrides)
    return CandidateSet(edges, source_pool, target_pool)


def eliminate_multi(g: UncertainGraph, sources, targets, r: int = 100,
                    h: int | None = 3, zeta: float = 0.5,
                    prob_overrides: dict | None = None,
                    config: EstimatorConfig = EstimatorConfig()) -> CandidateSet:
    """Candidates between the union of per-source pools and per-target pools."""
    r, overrides = _check_params(g, r, zeta, prob_overrides)
    method = "mc" if config.method == "mc" else "rss"
    source_pool: set = set()
    for s in sorted(set(int(x) for x in sources)):
        vec = reliability_all_from(g, s, config.samples,
                                   derive_seed(config.seed, "pool-from", s),
                                   method, config.branch_r, config.mc_threshold)
        source_pool.update(_top_pool(vec, s, r))
    target_pool: set = set()
    for t in sorted(set(int(x) for x in targets)):
        vec = reliability_all_to(g, t, config.samples,
                                 derive_seed(config.seed, "pool-to", t),
                                 method, config.branch_r, config.mc_threshold)
        target_pool.update(_top_pool(vec, t, r))
    source_pool = tuple(sorted(source_pool))
    target_pool = tuple(sorted(target_pool))
    edges = _pairs_between(g, source_pool, target_pool, h, zeta, overrides)
    return CandidateSet(edges, source_pool, target_pool)


def prune_by_paths(cands: CandidateSet, paths) -> CandidateSet:
    """Keep only candidates that appear on at least one of the given paths."""
    used = set()
    for path in paths:
        used.update(path.candidate_edges)
    kept = tuple(e for e in cands.edges if (e.u, e.v) in used)
    return CandidateSet(kept, cands.source_pool, cands.target_pool)
