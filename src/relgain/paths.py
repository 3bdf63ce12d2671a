"""Most-reliable paths and top-l simple path enumeration.

Arc weights are -log(p): minimum-weight paths are maximum-probability paths,
and weights add while probabilities multiply, so long paths cannot underflow.
Arcs are kept sorted by (tail, head), and every shortest-path search runs
scipy's Dijkstra on a CSR matrix in that arc order.

Top-l search runs one Dijkstra from s and one towards t, giving each node v
its distances d_s(v) and d_t(v).  Their sum is the weight of the lightest
s-t walk through v, so a path of weight w visits only nodes with
d_s + d_t <= w.  The search is confined to a corridor: the nodes whose
d_s + d_t lies within a bound, relabelled in increasing order, with the arcs
between them kept in their original relative order and laid out as one CSR
that every spur search reuses.  The bound starts at the (4l)-th smallest
finite d_s + d_t.  Inside the corridor runs a deviation scheme: each prefix
of the newest accepted path is frozen as a root, the continuation arcs used
by earlier equal-prefix paths are banned (their weights set to inf in a copy
of the corridor weights), and a shortest spur is grown from the deviation
node.  The answer is exact once the l-th path weighs no more than the bound,
since any path leaving the corridor weighs more, or once the corridor holds
every node with a finite d_s + d_t.  When l paths were found but the l-th
lies above the bound, the bound is raised to its weight and one more round
settles the answer; when fewer than l were found, the corridor doubles.
Bounds compare summed -log(p) weights, never probabilities: the product of a
long low-probability path can underflow to 0.

Returned lists are ordered by descending probability with ties broken by
fewer hops, then lexicographic node sequence.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .graph import UncertainGraph

__all__ = ["ReliablePath", "augment", "most_reliable_path", "top_l_paths"]

TOP_L_CAP = 1000

# the first corridor holds the _CORRIDOR_START * l nodes nearest the s-t axis
_CORRIDOR_START = 4
# relative slack on corridor membership; it covers the rounding between
# d_s + d_t and a path weight summed in another order
_SLACK = 1e-9


@dataclass(frozen=True)
class ReliablePath:
    """A simple path with its existence probability.

    candidate_edges holds the hypothetical (candidate) edges the path uses,
    in their canonical stored orientation; it is empty for paths that exist
    in the base graph.
    """

    nodes: tuple[int, ...]
    prob: float
    candidate_edges: frozenset

    @property
    def hops(self) -> int:
        return len(self.nodes) - 1


def augment(g: UncertainGraph, candidates) -> UncertainGraph:
    """Base graph plus candidate edges, marked so paths can report their use.

    `candidates` is a CandidateSet or any iterable of (u, v, prob) triples.
    """
    edges = getattr(candidates, "edges", candidates)
    return g.with_edges([(e[0], e[1], e[2]) for e in edges], mark_candidates=True)


class _ArcIndex:
    """CSR over arcs sorted by (tail, head), weighted -log(p).

    Built once per search; `shortest` swaps a weight copy with banned arcs
    set to inf into the same matrix instead of building a new one.
    """

    def __init__(self, n: int, asrc, adst, aeid, weights):
        self.n = n
        self.tails = asrc
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(asrc, minlength=n), out=indptr[1:])
        self.indptr = indptr
        self.indices = adst.astype(np.int32)
        self.arc_eid = aeid
        self.weights = weights
        self.mat = sp.csr_matrix((weights, self.indices, indptr), shape=(n, n))
        self._in_pos = None

    @classmethod
    def of_graph(cls, g: UncertainGraph) -> "_ArcIndex":
        asrc, adst, aeid = g.arc_arrays()
        with np.errstate(divide="ignore"):
            w = -np.log(g.prob[aeid])
        order = np.lexsort((adst, asrc))
        return cls(g.n, asrc[order], adst[order], aeid[order], w[order])

    def restrict(self, nodes: np.ndarray) -> "_ArcIndex":
        """Index over the arcs between `nodes` (ascending), relabelled 0.. in order."""
        local = np.full(self.n, -1, dtype=np.int64)
        local[nodes] = np.arange(nodes.size)
        keep = (local[self.tails] >= 0) & (local[self.indices] >= 0)
        return _ArcIndex(nodes.size, local[self.tails[keep]], local[self.indices[keep]],
                         self.arc_eid[keep], self.weights[keep])

    def distances(self, start: int, reverse: bool = False) -> np.ndarray:
        mat = self.mat.T if reverse else self.mat
        return dijkstra(mat, directed=True, indices=start)

    def shortest(self, start: int, target: int, banned_nodes=(), banned_arcs=()):
        """(weight, node tuple) of a shortest start->target path, or None."""
        data = self.weights
        if banned_nodes or banned_arcs:
            data = data.copy()
            for u in banned_nodes:
                data[self.indptr[u]:self.indptr[u + 1]] = np.inf
                data[self.in_pos()[u]] = np.inf
            for (u, v) in banned_arcs:
                data[self.pos(u, v)] = np.inf
        self.mat.data = data
        try:
            dist, pred = dijkstra(self.mat, directed=True, indices=start,
                                  return_predecessors=True)
        finally:
            self.mat.data = self.weights
        if not np.isfinite(dist[target]):
            return None
        nodes = [target]
        while nodes[-1] != start:
            nodes.append(int(pred[nodes[-1]]))
        nodes.reverse()
        return float(dist[target]), tuple(nodes)

    def in_pos(self) -> list[np.ndarray]:
        """Arc positions grouped by head node."""
        if self._in_pos is None:
            by_dst = np.argsort(self.indices, kind="stable")
            self._in_pos = np.split(
                by_dst, np.searchsorted(self.indices[by_dst], np.arange(1, self.n)))
        return self._in_pos

    def pos(self, u: int, v: int) -> int:
        """Position of arc u->v; heads are sorted within each tail's slice."""
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return int(lo + np.searchsorted(self.indices[lo:hi], v))

    def arc_weight(self, u: int, v: int) -> float:
        return float(self.weights[self.pos(u, v)])

    def to_reliable(self, g: UncertainGraph, nodes, labels=None) -> ReliablePath:
        """Path over this index's nodes, reported with `labels` as node ids."""
        prob = 1.0
        cand = []
        for u, v in zip(nodes, nodes[1:]):
            eid = int(self.arc_eid[self.pos(u, v)])
            prob *= float(g.prob[eid])
            if g.candidate_mark[eid]:
                cand.append((int(g.src[eid]), int(g.dst[eid])))
        if labels is not None:
            nodes = [int(labels[u]) for u in nodes]
        return ReliablePath(tuple(nodes), prob, frozenset(cand))


def most_reliable_path(g: UncertainGraph, s: int, t: int) -> ReliablePath | None:
    """Single maximum-probability simple path, or None when t is unreachable."""
    if s == t:
        return ReliablePath((s,), 1.0, frozenset())
    idx = _ArcIndex.of_graph(g)
    hit = idx.shortest(s, t)
    if hit is None:
        return None
    return idx.to_reliable(g, hit[1])


def _deviation_search(idx: _ArcIndex, s: int, t: int, l: int):
    """Up to l lightest simple s-t paths in idx as (weight, nodes), lightest first."""
    first = idx.shortest(s, t)
    if first is None:
        return []
    accepted: list[tuple[float, tuple[int, ...]]] = [first]
    frontier: list[tuple[float, int, tuple[int, ...]]] = []  # (weight, hops, nodes)
    seen = {first[1]}
    while len(accepted) < l:
        prev_w, prev_nodes = accepted[-1]
        prefix_w = 0.0
        for i in range(len(prev_nodes) - 1):
            root = prev_nodes[: i + 1]
            spur = root[-1]
            banned_arcs = {
                (p[i], p[i + 1])
                for _, p in accepted
                if len(p) > i + 1 and p[: i + 1] == root
            }
            spur_hit = idx.shortest(spur, t, banned_nodes=root[:-1], banned_arcs=banned_arcs)
            if spur_hit is not None:
                w, nodes = spur_hit
                full = root[:-1] + nodes
                if full not in seen:
                    seen.add(full)
                    heapq.heappush(frontier, (prefix_w + w, len(full) - 1, full))
            prefix_w += idx.arc_weight(prev_nodes[i], prev_nodes[i + 1])
        if not frontier:
            break
        w, _, nodes = heapq.heappop(frontier)
        accepted.append((w, nodes))
    return accepted


def top_l_paths(g: UncertainGraph, s: int, t: int, l: int, cap: int = TOP_L_CAP) -> list[ReliablePath]:
    """Up to l most reliable simple s-t paths (fewer when fewer exist)."""
    if l < 1:
        raise ValueError("l must be at least 1")
    if l > cap:
        raise ValueError(f"l={l} exceeds the cap of {cap} paths")
    if s == t:
        return [ReliablePath((s,), 1.0, frozenset())]
    full = _ArcIndex.of_graph(g)
    through = full.distances(s) + full.distances(t, reverse=True)
    reach = np.sort(through[np.isfinite(through)])
    if reach.size == 0:
        return []
    bound = reach[min(_CORRIDOR_START * l, reach.size) - 1]
    while True:
        nodes = np.flatnonzero(through <= bound + _SLACK * max(1.0, bound))
        corridor = full.restrict(nodes)
        local = np.searchsorted(nodes, [s, t])
        accepted = _deviation_search(corridor, int(local[0]), int(local[1]), l)
        if nodes.size == reach.size:
            break
        if len(accepted) == l:
            if accepted[-1][0] <= bound:
                break
            bound = accepted[-1][0]
        else:
            bound = reach[min(2 * nodes.size, reach.size) - 1]
    paths = [corridor.to_reliable(g, p, nodes) for _, p in accepted]
    paths.sort(key=lambda p: (-p.prob, p.hops, p.nodes))
    return paths
