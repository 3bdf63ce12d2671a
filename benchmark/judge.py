"""Independent Monte Carlo judge of two-terminal reliability.

The judge is the benchmark's yardstick, so it shares no sampling code with
the library: it draws its own worlds from a seeded numpy generator and never
imports ``relgain.estimators`` or ``relgain.rng``.  A change to the library's
estimators therefore cannot move the numbers it is judged against.

Graphs are undirected.  In each world the judge labels the connected
components of the present edges; s reaches t in that world when both carry
the same label.  Many worlds are labelled with one ``connected_components``
call on a block-diagonal graph, one block per world.

Gains use common random numbers: the base graph and the graph with added
edges are evaluated on the same worlds, the added edges get coins of their
own, and a world counts toward the gain when the added edges join the
components of s and t.  The per-world gain is never negative, and its
standard error comes from the spread of that paired difference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# worlds labelled per connected_components call
CHUNK = 32


@dataclass(frozen=True)
class Verdict:
    """Judged mean pair reliability before and after, and the paired gain."""

    base: float
    new: float
    gain: float
    gain_se: float
    base_se: float
    new_se: float


class Judge:
    """Sampled worlds of one undirected graph, labelled by component."""

    def __init__(self, n: int, src, dst, prob, worlds: int, seed: int):
        if worlds < 2:
            raise ValueError("the judge needs at least two worlds")
        self.n = int(n)
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.prob = np.asarray(prob, dtype=np.float64)
        self.worlds = int(worlds)
        self.seed = int(seed)

    def labels(self, nodes) -> np.ndarray:
        """(worlds, len(nodes)) component labels; equal labels mean connected."""
        nodes = np.asarray(nodes, dtype=np.int64)
        rng = np.random.default_rng([self.seed, 0])
        out = np.empty((self.worlds, len(nodes)), dtype=np.int64)
        for lo in range(0, self.worlds, CHUNK):
            c = min(CHUNK, self.worlds - lo)
            w, e = np.nonzero(rng.random((c, len(self.prob))) < self.prob)
            size = c * self.n
            mat = sp.csr_matrix(
                (np.ones(len(e), dtype=np.int8),
                 (w * self.n + self.src[e], w * self.n + self.dst[e])),
                shape=(size, size))
            _, comp = connected_components(mat, directed=False)
            out[lo:lo + c] = comp.reshape(c, self.n)[:, nodes]
        return out

    def verdict(self, labels: np.ndarray, column: dict, pairs, added,
                key: int) -> Verdict:
        """Judge `pairs` before and after adding `added` (u, v, prob) edges.

        `labels` comes from :meth:`labels` and `column` maps a node to its
        column there; it must hold every pair end and every added edge end.
        The added edges' coins are drawn from a stream named by `key`.
        """
        rng = np.random.default_rng([self.seed, 1, int(key)])
        probs = np.array([p for _, _, p in added], dtype=np.float64)
        present = rng.random((self.worlds, len(added))) < probs
        after = labels.copy()
        for j, (u, v, _) in enumerate(added):
            a, b = after[:, column[u]], after[:, column[v]]
            hi = np.where(present[:, j], np.maximum(a, b), -1)
            lo = np.minimum(a, b)
            hit = after == hi[:, None]
            after[hit] = np.broadcast_to(lo[:, None], after.shape)[hit]
        before_hits = np.zeros(self.worlds)
        after_hits = np.zeros(self.worlds)
        for s, t in pairs:
            before_hits += labels[:, column[s]] == labels[:, column[t]]
            after_hits += after[:, column[s]] == after[:, column[t]]
        before_hits /= len(pairs)
        after_hits /= len(pairs)
        diff = after_hits - before_hits
        root = np.sqrt(self.worlds)
        return Verdict(float(before_hits.mean()), float(after_hits.mean()),
                       float(diff.mean()), float(diff.std(ddof=1) / root),
                       float(before_hits.std(ddof=1) / root),
                       float(after_hits.std(ddof=1) / root))
