"""Uncertain graph model: edges exist independently with known probabilities.

A graph over n nodes holds parallel edge arrays (src, dst, prob).  A possible
world is a boolean mask aligned to the edge index; world i of a Monte Carlo
run is drawn from its own counter-based stream, see :mod:`relgain.rng`.

Edge-list file format (whitespace separated)::

    # comment
    directed            <- optional first data line: 'directed' | 'undirected'
    a b 0.5             <- edge a->b with existence probability 0.5

Node labels are arbitrary tokens, registered in order of first appearance.
Zero-probability edges register their endpoints (useful for declaring nodes
that start out disconnected) but the edge itself is dropped with a warning.
Undirected graphs store each edge once; a sampled edge is traversable both
ways.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import GraphFormatError

__all__ = [
    "UncertainGraph",
    "load_graph",
    "save_graph",
    "sample_world",
    "world_probability",
    "reachable",
    "reached_set",
]


class UncertainGraph:
    """Immutable probabilistic graph with dense integer node ids."""

    __slots__ = (
        "n",
        "src",
        "dst",
        "prob",
        "directed",
        "labels",
        "candidate_mark",
        "_label_ids",
        "_edge_ids",
        "_out_adj",
    )

    def __init__(
        self,
        n: int,
        src,
        dst,
        prob,
        directed: bool = True,
        labels: list[str] | None = None,
        candidate_mark=None,
    ):
        self.n = int(n)
        self.src = np.ascontiguousarray(src, dtype=np.int64)
        self.dst = np.ascontiguousarray(dst, dtype=np.int64)
        self.prob = np.ascontiguousarray(prob, dtype=np.float64)
        self.directed = bool(directed)
        if not (len(self.src) == len(self.dst) == len(self.prob)):
            raise ValueError("edge arrays must have equal length")
        if self.n < 0:
            raise ValueError("node count must be non-negative")
        if len(self.src) and (
            self.src.min() < 0
            or self.dst.min() < 0
            or self.src.max() >= self.n
            or self.dst.max() >= self.n
        ):
            raise ValueError("edge endpoint out of range")
        if np.any(self.src == self.dst):
            raise ValueError("self loops are not allowed")
        if np.any(self.prob < 0.0) or np.any(self.prob > 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        keys = self._pair_keys(self.src, self.dst)
        if len(np.unique(keys)) != len(keys):
            raise ValueError("duplicate edges are not allowed")
        if labels is None:
            labels = [str(i) for i in range(self.n)]
        if len(labels) != self.n:
            raise ValueError("label list must cover every node")
        self.labels = list(labels)
        # True for edges appended as hypothetical candidates by augment().
        if candidate_mark is None:
            candidate_mark = np.zeros(len(self.src), dtype=bool)
        self.candidate_mark = np.ascontiguousarray(candidate_mark, dtype=bool)
        if len(self.candidate_mark) != len(self.src):
            raise ValueError("candidate mark must align with edges")
        self._label_ids = None
        self._edge_ids = None
        self._out_adj = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.src)

    def _pair_keys(self, src, dst) -> np.ndarray:
        if self.directed:
            return src * self.n + dst
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        return lo * self.n + hi

    def edge_id(self, u: int, v: int) -> int | None:
        """Index of the edge u->v (either orientation if undirected), None if absent."""
        if self._edge_ids is None:
            keys = self._pair_keys(self.src, self.dst).tolist()
            self._edge_ids = dict(zip(keys, range(self.m)))
        if self.directed:
            key = u * self.n + v
        else:
            key = min(u, v) * self.n + max(u, v)
        return self._edge_ids.get(key)

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_id(u, v) is not None

    def node_id(self, label: str) -> int:
        if self._label_ids is None:
            self._label_ids = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return self._label_ids[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    # -- adjacency views ----------------------------------------------------

    def out_adjacency(self) -> list[list[tuple[int, int]]]:
        """adj[u] = [(v, edge_id), ...]; both directions for undirected graphs."""
        if self._out_adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for eid in range(self.m):
                u, v = int(self.src[eid]), int(self.dst[eid])
                adj[u].append((v, eid))
                if not self.directed:
                    adj[v].append((u, eid))
            self._out_adj = adj
        return self._out_adj

    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(asrc, adst, edge_id) with both orientations emitted for undirected graphs."""
        if self.directed:
            return self.src, self.dst, np.arange(self.m, dtype=np.int64)
        asrc = np.concatenate([self.src, self.dst])
        adst = np.concatenate([self.dst, self.src])
        aeid = np.concatenate([np.arange(self.m, dtype=np.int64)] * 2)
        return asrc, adst, aeid

    # -- derived graphs -----------------------------------------------------

    def with_edges(self, extra, mark_candidates: bool = False) -> "UncertainGraph":
        """New graph with `extra` (u, v, prob) edges appended."""
        extra = list(extra)
        if not extra:
            return self
        eu = np.array([e[0] for e in extra], dtype=np.int64)
        ev = np.array([e[1] for e in extra], dtype=np.int64)
        ep = np.array([e[2] for e in extra], dtype=np.float64)
        mark = np.concatenate(
            [self.candidate_mark, np.full(len(extra), mark_candidates, dtype=bool)]
        )
        return UncertainGraph(
            self.n,
            np.concatenate([self.src, eu]),
            np.concatenate([self.dst, ev]),
            np.concatenate([self.prob, ep]),
            directed=self.directed,
            labels=self.labels,
            candidate_mark=mark,
        )

    def reversed(self) -> "UncertainGraph":
        if not self.directed:
            return self
        return UncertainGraph(
            self.n,
            self.dst,
            self.src,
            self.prob,
            directed=True,
            labels=self.labels,
            candidate_mark=self.candidate_mark,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return f"UncertainGraph(n={self.n}, m={self.m}, {kind})"


# -- file io -----------------------------------------------------------------


def load_graph(path, directed: bool | None = None) -> UncertainGraph:
    """Parse a whitespace edge-list file.

    `directed=None` honours the optional 'directed'/'undirected' header line
    and defaults to directed; an explicit argument overrides the header.
    """
    labels: list[str] = []
    ids: dict[str, int] = {}
    src: list[int] = []
    dst: list[int] = []
    prob: list[float] = []
    header_directed: bool | None = None
    seen_edge_line = False

    def intern(tok: str) -> int:
        if tok not in ids:
            ids[tok] = len(labels)
            labels.append(tok)
        return ids[tok]

    dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if not seen_edge_line and line.lower() in ("directed", "undirected"):
                header_directed = line.lower() == "directed"
                seen_edge_line = True
                continue
            seen_edge_line = True
            parts = line.split()
            if len(parts) != 3:
                raise GraphFormatError(
                    f"expected 'src dst prob', got {line!r}", line_no
                )
            a, b, ptok = parts
            try:
                p = float(ptok)
            except ValueError:
                raise GraphFormatError(f"bad probability {ptok!r}", line_no) from None
            if not (0.0 <= p <= 1.0):
                raise GraphFormatError(f"probability {p} outside [0, 1]", line_no)
            if a == b:
                raise GraphFormatError(f"self loop on {a!r}", line_no)
            u, v = intern(a), intern(b)
            if p == 0.0:
                dropped += 1
                continue
            src.append(u)
            dst.append(v)
            prob.append(p)

    if dropped:
        warnings.warn(
            f"dropped {dropped} zero-probability edge(s) while loading {path}",
            stacklevel=2,
        )
    if directed is None:
        directed = True if header_directed is None else header_directed
    try:
        return UncertainGraph(len(labels), src, dst, prob, directed=directed, labels=labels)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def save_graph(g: UncertainGraph, path) -> None:
    """Write a graph in the edge-list format; probabilities round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("directed\n" if g.directed else "undirected\n")
        for eid in range(g.m):
            u = g.labels[int(g.src[eid])]
            v = g.labels[int(g.dst[eid])]
            fh.write(f"{u} {v} {g.prob[eid]:.17g}\n")


# -- possible worlds -----------------------------------------------------------


def sample_world(g: UncertainGraph, rng: np.random.Generator) -> np.ndarray:
    """Draw one possible world as a boolean edge mask."""
    return rng.random(g.m) < g.prob


def world_probability(g: UncertainGraph, mask) -> float:
    """Probability of a specific possible world under edge independence."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (g.m,):
        raise ValueError("mask must align with the edge index")
    return float(np.prod(np.where(mask, g.prob, 1.0 - g.prob)))


def reached_set(mask, g: UncertainGraph, s: int) -> np.ndarray:
    """Boolean vector of nodes reachable from s in the world `mask`."""
    mask = np.asarray(mask, dtype=bool)
    adj = g.out_adjacency()
    seen = np.zeros(g.n, dtype=bool)
    seen[s] = True
    stack = [s]
    while stack:
        u = stack.pop()
        for v, eid in adj[u]:
            if mask[eid] and not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def reachable(mask, g: UncertainGraph, s: int, t: int) -> bool:
    """True when t is reachable from s in the world `mask` (s == t counts)."""
    if s == t:
        return True
    return bool(reached_set(mask, g, s)[t])
