"""Two-terminal reliability estimators for uncertain graphs.

Three interchangeable engines:

* exact        - possible-world conditioning on frontier edges, feasible for
                 small edge counts (default cap 25 edges);
* mc           - plain Monte Carlo over sampled worlds;
* rss          - recursive stratified sampling: condition on a handful of
                 source-side edges, recurse into each stratum on a simplified
                 graph (certain edges contracted, absent edges removed), and
                 fall back to Monte Carlo once a stratum's sample budget is
                 small.

Every sampled number - an MC estimate, an RSS leaf, a reach vector, a
spread - is a count of worlds in which a node is reached, and one kernel
counts them all: a bit-parallel spread with one bit per world.  Its arcs
are sorted by head once per batch, so each round ORs every head's pushes
with one reduction.  World i is drawn from a counter-based stream keyed by
(seed, i), so counts are bit-identical for a fixed seed however the worlds
are chunked.  An estimate queues its worlds as leaves of one batch: plain
MC is a single leaf of weight 1, and RSS walks its strata tree once and
queues one leaf per stratum.  Leaves draw about `_CHUNK_COINS` coins at a
time and write them as bool rows over the root edges into a stage of about
2 * `_CHUNK_COINS` bytes, which is packed into the bit words eight worlds
to a byte when it fills.  The batch spreads its pending worlds whenever
they fill `_CHUNK_COINS` bits over the larger of the edge and node counts,
which bounds memory at any sample size, and folds the leaf answers back up
the tree in the order of the recursion, so values, variances and sample
counts are those of one search per leaf.
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapExceededError, RelgainError
from .graph import UncertainGraph
from .rng import derive_seed, uniform_batch

__all__ = [
    "EstimatorConfig",
    "ReliabilityEstimate",
    "DispersionStats",
    "Stratum",
    "reliability_exact",
    "reliability_mc",
    "reliability_rss",
    "estimate",
    "reliability_all_from",
    "reliability_all_to",
    "stratify",
    "dispersion",
    "converged_sample_size",
]

# Coins (worlds x edges) drawn at once, and world bits (worlds x max(edges,
# nodes)) spread at once; bounds sampling memory at any Z.
_CHUNK_COINS = 2**20


@dataclass(frozen=True)
class EstimatorConfig:
    """How reliability queries should be answered.

    method 'auto' uses exact conditioning when the graph fits under
    `exact_cap` edges and recursive stratified sampling otherwise.
    """

    method: str = "auto"  # auto | exact | mc | rss
    samples: int = 10_000
    seed: int = 0
    exact_cap: int = 25
    branch_r: int = 5
    mc_threshold: int = 8

    def with_seed(self, seed: int) -> "EstimatorConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class ReliabilityEstimate:
    value: float
    variance: float
    samples_used: int
    method: str


@dataclass(frozen=True)
class DispersionStats:
    """Index of dispersion for a sample size: rho = V_Z / R_Z."""

    rho: float
    repeats: int
    v_z: float
    r_z: float


@dataclass(frozen=True)
class Stratum:
    """One cell of a stratified partition of the world space.

    `present` is the edge id fixed present (None for the all-absent cell) and
    `absent` the edge ids fixed absent; `pi` is the cell probability and `z`
    its sample allotment.
    """

    present: int | None
    absent: tuple[int, ...]
    pi: float
    z: int


def _check_nodes(g: UncertainGraph, *nodes) -> None:
    for v in nodes:
        if not 0 <= v < g.n:
            raise ValueError(f"node id {v} outside [0, {g.n})")


# ---------------------------------------------------------------------------
# internal edge system: a mutable view used by the stratified recursion
# ---------------------------------------------------------------------------


class _State:
    __slots__ = ("n", "src", "dst", "prob", "directed", "merged", "s", "eid")

    def __init__(self, n, src, dst, prob, directed, merged, s, eid=None):
        self.n = n
        self.src = src
        self.dst = dst
        self.prob = prob
        self.directed = directed
        self.merged = merged  # bool vector: nodes contracted into the source
        self.s = s
        # root edge id of each kept edge
        self.eid = np.arange(len(src), dtype=np.int32) if eid is None else eid

    @classmethod
    def from_graph(cls, g: UncertainGraph, s: int) -> "_State":
        merged = np.zeros(g.n, dtype=bool)
        merged[s] = True
        # int32 ids halve the arrays that every level of the recursion holds
        return cls(g.n, g.src.astype(np.int32), g.dst.astype(np.int32), g.prob.copy(),
                   g.directed, merged, s)

    def frontier(self) -> np.ndarray:
        """Edge positions leaving the contracted source component."""
        at_src = self.src == self.s
        at_dst = self.dst == self.s
        if self.directed:
            return np.flatnonzero(at_src & ~at_dst)
        return np.flatnonzero(at_src ^ at_dst)

    def apply(self, stratum: Stratum) -> "_State":
        """Child state with the stratum's edge statuses baked in."""
        keep = np.ones(len(self.src), dtype=bool)
        for eid in stratum.absent:
            keep[eid] = False
        merged = self.merged
        src, dst = self.src, self.dst
        if stratum.present is not None:
            eid = stratum.present
            v = int(self.dst[eid]) if int(self.src[eid]) == self.s else int(self.src[eid])
            merged = merged.copy()
            merged[v] = True
            src = np.where(src == v, self.s, src)
            dst = np.where(dst == v, self.s, dst)
            keep[eid] = False  # contracted away
            keep &= src != dst  # drop edges internal to the source component
        return _State(self.n, src[keep], dst[keep], self.prob[keep], self.directed, merged,
                      self.s, self.eid[keep])


def _arcs(state: _State):
    """(tail, head, edge position) of every arc; both ways when undirected.

    The arcs are sorted by head, so a spread round finds each head's pushes
    side by side.
    """
    a, b, eid = state.src, state.dst, np.arange(len(state.src), dtype=np.int32)
    if not state.directed:
        a, b, eid = np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([eid, eid])
    # OR ignores the order of a head's pushes, so the cheaper unstable sort will do
    order = np.argsort(b)
    return a[order], b[order], eid[order]


def _spread(arcs, bits: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Bit-parallel breadth-first spread over packed worlds, in place.

    bits[e] holds edge e's presence and reach[v] the worlds in which v
    starts reached, one bit per world; reach grows to the worlds in which v
    is reached.  A round pushes only the worlds a node gained in the
    previous round across its out-arcs, so every (world, arc) pair is
    relaxed once, and ORs each head's pushes with one reduction: the arcs
    come sorted by head, and selecting some keeps them so.
    """
    a, b, eid = arcs
    fresh, active = reach, reach.any(axis=1)
    while True:
        arcs = np.flatnonzero(active[a])
        if not len(arcs):
            return reach
        pushed = fresh[a[arcs]]
        pushed &= bits[eid[arcs]]
        heads = b[arcs]
        first = np.flatnonzero(heads[1:] != heads[:-1])
        first = np.concatenate(([0], first + 1))
        gained = np.zeros_like(reach)
        gained[heads[first]] = np.bitwise_or.reduceat(pushed, first, axis=0)
        del arcs, pushed, heads  # free before the next round's gathers
        gained &= ~reach
        reach |= gained
        fresh, active = gained, gained.any(axis=1)


# ---------------------------------------------------------------------------
# exact enumeration by frontier conditioning
# ---------------------------------------------------------------------------


def reliability_exact(g: UncertainGraph, s: int, t: int, cap: int = 25) -> ReliabilityEstimate:
    """Exact two-terminal reliability; feasible for small edge counts.

    Conditions recursively on edges leaving the set already reached from s;
    each branch fixes one edge present (endpoint contracted) or absent. Every
    possible world falls in exactly one leaf, so the weighted sum over leaves
    equals the full 2^m enumeration without visiting irrelevant edges.
    """
    _check_nodes(g, s, t)
    if s == t:
        return ReliabilityEstimate(1.0, 0.0, 0, "exact")
    if g.m > cap:
        raise CapExceededError(f"exact enumeration capped at {cap} edges, graph has {g.m}")
    edges = list(zip(g.src.tolist(), g.dst.tolist(), g.prob.tolist()))
    directed = g.directed
    tbit = 1 << t

    def solve(merged: int, alive: tuple[int, ...]) -> float:
        if merged & tbit:
            return 1.0
        best = -1
        best_p = -1.0
        for eid in alive:
            u, v, p = edges[eid]
            ub, vb = (merged >> u) & 1, (merged >> v) & 1
            if directed:
                on_frontier = ub and not vb
            else:
                on_frontier = ub != vb
            if on_frontier and p > best_p:
                best, best_p = eid, p
        if best < 0:
            return 0.0
        u, v, p = edges[best]
        rest = tuple(e for e in alive if e != best)
        out = 0.0
        if p > 0.0:
            join = v if (merged >> u) & 1 else u
            out += p * solve(merged | (1 << join), rest)
        if p < 1.0:
            out += (1.0 - p) * solve(merged, rest)
        return out

    value = solve(1 << s, tuple(range(g.m)))
    return ReliabilityEstimate(value, 0.0, 0, "exact")


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def reliability_mc(g: UncertainGraph, s: int, t: int, samples: int, seed: int = 0) -> ReliabilityEstimate:
    """Plain Monte Carlo: fraction of sampled worlds in which t is reachable."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    _check_nodes(g, s, t)
    if s == t:
        return ReliabilityEstimate(1.0, 0.0, 0, "mc")
    value = int(_reach_counts(_State.from_graph(g, s), t, samples, seed)) / samples
    return ReliabilityEstimate(value, value * (1.0 - value) / samples, samples, "mc")


# ---------------------------------------------------------------------------
# recursive stratified sampling
# ---------------------------------------------------------------------------


def _stratify_state(state: _State, samples: int, branch_r: int) -> list[Stratum]:
    frontier = state.frontier()
    if len(frontier) == 0:
        return []
    probs = state.prob[frontier]
    order = np.lexsort((frontier, -probs))[: max(1, branch_r)]
    pivots = [int(frontier[i]) for i in order]
    strata: list[Stratum] = []
    prefix = 1.0
    for i, eid in enumerate(pivots):
        p = float(state.prob[eid])
        strata.append(Stratum(eid, tuple(pivots[:i]), prefix * p, 0))
        prefix *= 1.0 - p
    strata.append(Stratum(None, tuple(pivots), prefix, 0))
    # allot samples proportionally; the rounding remainder goes to the
    # largest stratum
    z = [int(round(st.pi * samples)) for st in strata]
    z[max(range(len(strata)), key=lambda i: strata[i].pi)] += samples - sum(z)
    return [replace(st, z=zi) for st, zi in zip(strata, z)]


def stratify(g: UncertainGraph, s: int, samples: int, branch_r: int = 5) -> list[Stratum]:
    """Top-level stratification of the world space around s's frontier edges."""
    return _stratify_state(_State.from_graph(g, s), samples, branch_r)


# A batch holds the sampled worlds of one estimate as leaves.  Plain MC is one
# leaf; an RSS estimate walks its strata tree once and adds a leaf per
# stratum.  Each leaf draws its worlds from its own stream, as plain MC on its
# contracted graph would, and writes them into consecutive columns of packed
# bits over the root graph: its coins on the root ids of its surviving edges,
# 0 on every other edge, and its merged nodes as start nodes.  From those
# starts the root graph reaches what the contracted graph reaches, since every
# contracted or dropped-internal edge joins two start nodes.  Pending columns
# go through one spread whenever they fill the batch, and a leaf may straddle
# two such flushes.  The walk also queues fold events; a flush folds every
# finished one, in walk order, into a stack of frames, so the sums round as a
# recursive fold would.

_OPEN, _CLOSE, _TERMINAL, _LEAF = range(4)


class _Leaf:
    """A stratum answered by z sampled worlds; lo..hi are its pending columns."""

    __slots__ = ("z", "merged", "counts", "lo", "hi", "unflushed")

    def __init__(self, z, merged, col):
        # counts become a vector at the first flush when every node is wanted
        self.z, self.merged, self.counts = z, merged, 0
        self.lo = self.hi = col
        self.unflushed = z


class _Batch:
    """Pending leaf worlds of one estimate and its fold state.

    t is the one node whose reliability is wanted, or None for every node.
    A frame is [pi, value, variance, samples]; the bottom frame takes the
    root with weight 1.0, which leaves every sum unchanged.  A flush spreads
    about _CHUNK_COINS // max(m, n) worlds, rounded up to whole 64-world
    words, so neither the edge bits nor the node reach outgrow the budget.
    Leaves write their worlds as bool rows over the root edges into a
    stage, which a flush, or a full stage, packs into the bit words eight
    columns to a byte.  The stage holds about 2 * _CHUNK_COINS // m rows,
    rounded up to whole bytes and never more than a flush or than the
    `worlds` the estimate asks for: sized to the flush, it would hold 64
    rows of m bytes wherever m > _CHUNK_COINS / 64.  The first `packed`
    columns are in the words, the next `used - packed` on the stage.
    """

    def __init__(self, root: _State, t, worlds: int):
        m = len(root.src)
        self.root, self.n, self.t = root, root.n, t
        self.arcs = _arcs(root)
        words = -(-max(1, _CHUNK_COINS // max(1, m, root.n)) // 64)
        # little-endian words: byte j of a row holds columns 8j..8j+7 on any host
        self.bits = np.zeros((m, words), dtype="<u8")
        self.cols, self.used, self.packed = 64 * words, 0, 0
        rows = min(max(1, 2 * _CHUNK_COINS // max(1, m)), self.cols, worlds)
        self.stage = np.zeros((8 * -(-rows // 8), m), dtype=bool)
        self.events = deque()
        self.stack = [[1.0, self.zero(), 0.0, 0]]

    def zero(self):
        return 0.0 if self.t is not None else np.zeros(self.n)


def _column_mask(lo: int, hi: int):
    """(first word, uint64 masks) selecting packed columns lo..hi-1."""
    w0, w1 = lo // 64, -(-hi // 64)
    mask = np.full(w1 - w0, ~np.uint64(0))
    mask[0] &= ~np.uint64(0) << np.uint64(lo % 64)
    if hi % 64:
        mask[-1] &= np.uint64((1 << hi % 64) - 1)
    return w0, mask


def _pack(batch: _Batch) -> None:
    """Move the staged rows into their columns of the bit words, a byte at a time."""
    k = batch.used - batch.packed
    size = -(-k // 8)
    stage = batch.stage[:8 * size]
    # np.packbits(stage, axis=0, bitorder="little") gives the same bytes, 5-10x slower
    byte = stage[0::8].view(np.uint8).copy()
    for r in range(1, 8):
        byte |= stage[r::8].view(np.uint8) << np.uint8(r)
    first = batch.packed // 8
    batch.bits.view(np.uint8)[:, first:first + size] = byte.T
    batch.packed = batch.used


def _rss_walk(batch: _Batch, state: _State, Z: int, path: tuple[int, ...], pi: float,
              seed: int, branch_r: int, mc_threshold: int) -> None:
    """Queue the fold events of the subtree at `state` and draw its leaves."""
    t = batch.t
    if (t is not None and state.merged[t]) or len(state.frontier()) == 0:
        batch.events.append((_TERMINAL, pi, state.merged))
    elif Z < mc_threshold:
        _draw_leaf(batch, state, max(1, Z), derive_seed(seed, *path), pi)
    else:
        batch.events.append((_OPEN, pi, None))
        for idx, st in enumerate(_stratify_state(state, Z, branch_r)):
            if st.pi != 0.0:
                _rss_walk(batch, state.apply(st), max(1, st.z), path + (idx,), st.pi,
                          seed, branch_r, mc_threshold)
        batch.events.append((_CLOSE, None, None))


def _draw_leaf(batch: _Batch, state: _State, z: int, seed: int, pi: float) -> _Leaf:
    """Queue a leaf and stage its z worlds, about _CHUNK_COINS coins at a time."""
    leaf = _Leaf(z, state.merged, batch.used)
    batch.events.append((_LEAF, pi, leaf))
    m = len(state.src)
    chunk = max(1, _CHUNK_COINS // max(1, m))
    first = 0
    while first < z:
        row = batch.used - batch.packed
        k = min(chunk, z - first, len(batch.stage) - row, batch.cols - batch.used)
        coins = batch.stage[row:row + k]
        if state is batch.root:
            # the root keeps every edge in root order (its eid is arange(m))
            np.less(uniform_batch(seed, k, m, first), state.prob, out=coins)
        else:
            coins[:] = False
            coins[:, state.eid] = uniform_batch(seed, k, m, first) < state.prob
        first += k
        leaf.hi = batch.used = batch.used + k
        if batch.used == batch.cols:
            _flush(batch)
        elif row + k == len(batch.stage):
            _pack(batch)
    return leaf


def _flush(batch: _Batch) -> None:
    """Spread the pending columns from their leaves' merged nodes, then fold.

    Columns past `used` may hold stale bits from an earlier fill of the
    stage or the words; no leaf starts there, so they reach nothing.
    """
    reach = None
    if batch.used:
        _pack(batch)
        words = -(-batch.used // 64)
        reach = np.zeros((batch.n, words), dtype=np.uint64)
        for kind, _, leaf in batch.events:
            if kind == _LEAF and leaf.hi > leaf.lo:
                w0, mask = _column_mask(leaf.lo, leaf.hi)
                reach[leaf.merged, w0:w0 + len(mask)] |= mask
        reach = _spread(batch.arcs, batch.bits[:, :words], reach)
        batch.used = batch.packed = 0
    _drain(batch, reach)


def _drain(batch: _Batch, reach) -> None:
    """Fold queued events in walk order, up to a leaf still being drawn.

    reach is the spread of the flushed columns (None when there were none);
    each leaf first adds the counts of its columns in it.
    """
    events, stack, t = batch.events, batch.stack, batch.t
    while events:
        kind, pi, item = events[0]
        if kind == _LEAF:
            if item.hi > item.lo:
                w0, mask = _column_mask(item.lo, item.hi)
                rows = (reach if t is None else reach[t])[..., w0:w0 + len(mask)]
                item.counts += np.bitwise_count(rows & mask).sum(axis=-1, dtype=np.int64)
                item.unflushed -= item.hi - item.lo
                item.lo = item.hi = 0
            if item.unflushed:
                return
        events.popleft()
        if kind == _OPEN:
            stack.append([pi, batch.zero(), 0.0, 0])
            continue
        if kind == _CLOSE:
            pi, value, var, used = stack.pop()
        elif kind == _TERMINAL:
            value = float(item[t]) if t is not None else item.astype(np.float64)
            var, used = 0.0, 0
        elif t is not None:
            value = int(item.counts) / item.z
            var, used = value * (1.0 - value) / item.z, item.z
        else:
            value = item.counts / item.z
            value[item.merged] = 1.0
            var, used = 0.0, item.z
        frame = stack[-1]
        frame[1] += pi * value
        frame[2] += pi * pi * var
        frame[3] += used


def _reach_counts(state: _State, t, samples: int, seed: int):
    """Counts of the sampled worlds in which t is reached from state.merged.

    The counts cover every node when t is None.  The worlds are one leaf of
    weight 1.0, drawn from `seed` itself; the batch runs over state's own
    edges, whatever root ids its `eid` holds.
    """
    state = _State(state.n, state.src, state.dst, state.prob, state.directed,
                   state.merged, state.s)
    batch = _Batch(state, t, samples)
    leaf = _draw_leaf(batch, state, samples, seed, 1.0)
    _flush(batch)
    return leaf.counts


def _rss(state: _State, t, samples: int, seed: int, branch_r: int, mc_threshold: int):
    """(value, variance, samples used) of an RSS estimate from state.s.

    The value is R(s, t), or the vector over every node when t is None
    (its variance is not tracked).
    """
    batch = _Batch(state, t, samples)
    _rss_walk(batch, state, samples, (), 1.0, seed, branch_r, mc_threshold)
    _flush(batch)
    _, value, var, used = batch.stack.pop()
    return value, var, used


def reliability_rss(g: UncertainGraph, s: int, t: int, samples: int, seed: int = 0,
                    branch_r: int = 5, mc_threshold: int = 8) -> ReliabilityEstimate:
    """Recursive stratified sampling estimate of R(s, t).

    Unbiased: every stratum is estimated without bias and weighted by its
    exact probability; strata whose nominal allotment rounds to zero still
    receive one sample, so reported samples_used can slightly exceed the
    request.  The value is clamped to [0, 1]: when every sampled world
    connects s and t, the stratum-weighted sum can round above 1.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if branch_r < 1 or mc_threshold < 1:
        raise ValueError("branch_r and mc_threshold must be at least 1")
    _check_nodes(g, s, t)
    if s == t:
        return ReliabilityEstimate(1.0, 0.0, 0, "rss")
    value, var, used = _rss(_State.from_graph(g, s), t, samples, seed, branch_r, mc_threshold)
    return ReliabilityEstimate(min(1.0, max(0.0, value)), var, used, "rss")


# ---------------------------------------------------------------------------
# dispatch and whole-graph vectors
# ---------------------------------------------------------------------------


def estimate(g: UncertainGraph, s: int, t: int, config: EstimatorConfig = EstimatorConfig()) -> ReliabilityEstimate:
    """Answer one reliability query according to the configured method."""
    _check_nodes(g, s, t)
    method = config.method
    if method == "auto":
        method = "exact" if g.m <= config.exact_cap else "rss"
    if method == "exact":
        return reliability_exact(g, s, t, cap=config.exact_cap)
    if method == "mc":
        return reliability_mc(g, s, t, config.samples, config.seed)
    if method == "rss":
        return reliability_rss(g, s, t, config.samples, config.seed,
                               config.branch_r, config.mc_threshold)
    raise ValueError(f"unknown estimator method {config.method!r}")


def reliability_all_from(g: UncertainGraph, s: int, samples: int, seed: int = 0,
                         method: str = "mc", branch_r: int = 5,
                         mc_threshold: int = 8) -> np.ndarray:
    """Vector of estimated reliabilities from s to every node (entry s is 1)."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    _check_nodes(g, s)
    state = _State.from_graph(g, s)
    if method == "mc":
        vec = _reach_counts(state, None, samples, seed) / samples
        vec[s] = 1.0
        return vec
    if method == "rss":
        return _rss(state, None, samples, seed, branch_r, mc_threshold)[0]
    raise ValueError(f"unknown method {method!r} (expected 'mc' or 'rss')")


def reliability_all_to(g: UncertainGraph, t: int, samples: int, seed: int = 0,
                       method: str = "mc", branch_r: int = 5,
                       mc_threshold: int = 8) -> np.ndarray:
    """Vector of estimated reliabilities from every node to t (entry t is 1)."""
    return reliability_all_from(g.reversed(), t, samples, seed, method, branch_r, mc_threshold)


def reach_counts(g: UncertainGraph, sources, samples: int, seed: int = 0) -> np.ndarray:
    """Per-node counts of sampled worlds reachable from any of the sources."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    sources = sorted(set(int(x) for x in sources))
    if not sources:
        raise ValueError("sources must be non-empty")
    _check_nodes(g, *sources)
    merged = np.zeros(g.n, dtype=bool)
    merged[sources] = True
    state = _State(g.n, g.src, g.dst, g.prob, g.directed, merged, sources[0])
    return _reach_counts(state, None, samples, seed)


# ---------------------------------------------------------------------------
# sample-size calibration via the index of dispersion
# ---------------------------------------------------------------------------


def dispersion(g: UncertainGraph, queries, samples: int, repeats: int,
               seed: int = 0, method: str = "mc") -> DispersionStats:
    """Index of dispersion rho = V_Z / R_Z across repeated estimates.

    V_Z is the mean across queries of the across-repeat sample variance and
    R_Z the mean estimated reliability. Raises when every query estimates to
    zero (rho undefined).
    """
    queries = list(queries)
    if not queries or repeats < 2:
        raise ValueError("need at least one query and two repeats")
    if method not in ("mc", "rss"):
        raise ValueError(f"unknown method {method!r} (expected 'mc' or 'rss')")
    variances = []
    means = []
    for qi, (s, t) in enumerate(queries):
        vals = np.array([
            estimate(g, s, t, EstimatorConfig(method=method, samples=samples,
                                              seed=derive_seed(seed, qi, rep))).value
            for rep in range(repeats)
        ])
        variances.append(vals.var(ddof=1))
        means.append(vals.mean())
    v_z = float(np.mean(variances))
    r_z = float(np.mean(means))
    if r_z == 0.0:
        raise RelgainError("all queries estimate zero reliability; dispersion undefined")
    return DispersionStats(v_z / r_z, repeats, v_z, r_z)


def converged_sample_size(g: UncertainGraph, queries, grid, repeats: int = 10,
                          threshold: float = 1e-3, seed: int = 0,
                          method: str = "mc") -> int:
    """Smallest sample size in `grid` whose index of dispersion is below threshold.

    Falls back to the largest grid entry (with a warning) when none converge.
    """
    grid = sorted(set(int(z) for z in grid))
    if not grid:
        raise ValueError("sample size grid is empty")
    for Z in grid:
        stats = dispersion(g, queries, Z, repeats, derive_seed(seed, Z), method)
        if stats.rho < threshold:
            return Z
    warnings.warn(
        f"no sample size in {grid} reached dispersion < {threshold}; using {grid[-1]}",
        stacklevel=2,
    )
    return grid[-1]
