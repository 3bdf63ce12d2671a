"""Edge selection: path-batch greedy, iterative paths, exhaustive search.

A candidate edge only pays off as part of a complete s-t path, so the greedy
methods never score edges in isolation.  Each top path carries a label: the
set of candidate edges it needs.  Paths sharing a label form a batch that is
bought as a unit; buying a batch can cover other labels and activate their
paths for free.  Gains are measured on the subgraph induced by the active
paths' edges, which keeps every evaluation small regardless of graph size.

One bench serves a tuple of (s, t) pairs; a single-pair query is the case of
one pair.  It keeps every distinct top path once, with the set of pairs that
own it.  Its objective is the number of pairs with s == t plus, for every
other pair, the reliability of the subgraph of that pair's active paths.  The
batch greedy maximizes this sum for the single-pair `be` selector and for the
`avg` multi-pair aggregate alike, and every result reports the mean pair
reliability on the full graph before and after the chosen edges.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .candidates import (CandidateEdge, CandidateSet, _as_candidate_set, eliminate,
                         prune_by_paths)
from .errors import CapExceededError
from .estimators import EstimatorConfig, estimate
from .graph import UncertainGraph
from .paths import augment, top_l_paths
from .rng import derive_seed

__all__ = [
    "PathBatch",
    "RoundRecord",
    "SelectionResult",
    "build_batches",
    "select_ip",
    "select_be",
    "select_exact",
    "improve_single_pair",
    "COMBO_CAP",
]

COMBO_CAP = 200_000


@dataclass(frozen=True)
class RoundRecord:
    """One greedy round: what was examined and what was picked."""

    round: int
    note: str                 # "batch", "path", "stall", "fill"
    picked: tuple             # (u, v) pairs added this round
    gain: float               # subgraph objective gain credited to the pick
    score: float              # ranking score behind the pick
    evaluations: tuple = ()   # ((key, gain, score), ...) examined this round


@dataclass(frozen=True)
class SelectionResult:
    method: str
    chosen: tuple[CandidateEdge, ...]
    base_reliability: float
    new_reliability: float
    gain: float
    trace: tuple[RoundRecord, ...] = ()
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class PathBatch:
    """Paths that need exactly the same set of candidate edges."""

    label: frozenset
    paths: tuple

    @property
    def best_prob(self) -> float:
        return max(p.prob for p in self.paths)

    def sort_key(self):
        return tuple(sorted(self.label))


def build_batches(paths) -> list[PathBatch]:
    """Group paths by label, in first-appearance order of the path list."""
    by_label: dict[frozenset, list] = {}
    for path in paths:
        by_label.setdefault(path.candidate_edges, []).append(path)
    return [PathBatch(label, tuple(ps)) for label, ps in by_label.items()]


# ---------------------------------------------------------------------------
# shared scaffolding
# ---------------------------------------------------------------------------


def _pair_reliabilities(g: UncertainGraph, pairs, config: EstimatorConfig) -> list[float]:
    return [1.0 if s == t else estimate(g, s, t, config).value for s, t in pairs]


def _finalize(g: UncertainGraph, pairs, method: str, chosen, base_vals, trace, flags,
              config: EstimatorConfig) -> SelectionResult:
    """Result with the mean pair reliability before (`base_vals`) and after `chosen`."""
    if chosen:
        improved = g.with_edges([(e.u, e.v, e.prob) for e in chosen])
        new_vals = _pair_reliabilities(improved, pairs, config)
    else:
        new_vals = base_vals
    base, new = float(np.mean(base_vals)), float(np.mean(new_vals))
    return SelectionResult(method, tuple(chosen), base, new, new - base,
                           tuple(trace), tuple(flags))


class _Bench:
    """Candidates, the pairs' labeled top paths, and a cached subgraph estimator.

    `paths[j]` are the top paths of the j-th pair with s != t; the bench never
    searches.  Edge ids are those of `augment(g, cands)`, which appends
    candidate i as edge g.m + i.
    """

    def __init__(self, g: UncertainGraph, cands: CandidateSet, pairs, paths,
                 config: EstimatorConfig):
        self.g, self.cands, self.config = g, cands, config
        self.pairs = tuple(pairs)
        self.real = [(s, t) for s, t in self.pairs if s != t]
        self.by_pair = {(e.u, e.v): e for e in cands.edges}
        self.cand_eid = {}
        for i, e in enumerate(cands.edges):
            self.cand_eid[(e.u, e.v)] = g.m + i
            if not g.directed:
                self.cand_eid[(e.v, e.u)] = g.m + i
        # one entry per distinct node sequence; owners records which pairs use it
        self.paths = []
        self.path_eids = []
        self.path_owners = []
        seen: dict[tuple, int] = {}
        for j, pair_paths in enumerate(paths):
            for p in pair_paths:
                idx = seen.get(p.nodes)
                if idx is None:
                    seen[p.nodes] = len(self.paths)
                    self.paths.append(p)
                    self.path_eids.append(frozenset(
                        self._eid(a, b) for a, b in zip(p.nodes, p.nodes[1:])))
                    self.path_owners.append({j})
                else:
                    self.path_owners[idx].add(j)
        self._cache: dict[tuple, float] = {}

    def _eid(self, u: int, v: int) -> int:
        eid = self.g.edge_id(u, v)
        return self.cand_eid[(u, v)] if eid is None else eid

    def _arc(self, eid: int) -> tuple:
        if eid < self.g.m:
            return int(self.g.src[eid]), int(self.g.dst[eid]), float(self.g.prob[eid])
        return self.cands.edges[eid - self.g.m]

    def objective(self, selected: frozenset, extra_eid: int | None = None) -> float:
        """Pairs with s == t plus each other pair's active-path subgraph reliability."""
        total = float(len(self.pairs) - len(self.real))
        for j in range(len(self.real)):
            eids = set() if extra_eid is None else {extra_eid}
            for path, peids, owners in zip(self.paths, self.path_eids, self.path_owners):
                if j in owners and path.candidate_edges <= selected:
                    eids.update(peids)
            total += self.sub(j, frozenset(eids))
        return total

    def sub(self, j: int, eids: frozenset) -> float:
        """Reliability of the j-th pair with s != t on the given edges alone."""
        key = (j, eids)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        s, t = self.real[j]
        eid_list = sorted(eids)
        arcs = [self._arc(eid) for eid in eid_list]
        nodes = {s, t}
        for u, v, _ in arcs:
            nodes.add(u)
            nodes.add(v)
        remap = {u: i for i, u in enumerate(sorted(nodes))}
        sub = UncertainGraph(
            len(remap),
            [remap[u] for u, _, _ in arcs],
            [remap[v] for _, v, _ in arcs],
            [p for _, _, p in arcs],
            directed=self.g.directed,
        )
        # a pooled query keys the seed by pair index and eids, a single pair by eids
        # alone; each keeps its own answers (tests/golden_selection.json)
        parts = (j, *eid_list) if len(self.pairs) > 1 else eid_list
        cfg = self.config.with_seed(derive_seed(self.config.seed, "subgraph", *parts))
        val = estimate(sub, remap[s], remap[t], cfg).value
        self._cache[key] = val
        return val

    def finalize(self, method: str, chosen, trace, flags) -> SelectionResult:
        base_vals = _pair_reliabilities(self.g, self.pairs, self.config)
        return _finalize(self.g, self.pairs, method, chosen, base_vals, trace, flags,
                         self.config)

    def shortcut(self, method: str, k: int) -> SelectionResult | None:
        """The result when no greedy round is needed: no candidates, or all fit."""
        if k < 1:
            raise ValueError("k must be at least 1")
        if not self.cands.edges:
            return self.finalize(method, [], [], ["no-candidates"])
        if k >= len(self.cands.edges):
            return self.finalize(method, list(self.cands.edges), [], ["k-covers-all"])
        return None


def _single_bench(g: UncertainGraph, cands: CandidateSet, s: int, t: int, paths,
                  config: EstimatorConfig) -> _Bench:
    return _Bench(g, cands, ((s, t),), [paths] if s != t else [], config)


def _fill_with_individuals(bench: _Bench, selected: set, chosen: list,
                           k: int, trace: list, flags: list) -> None:
    """Spend leftover budget on single candidates by marginal objective gain."""
    if "fill" not in flags:
        flags.append("fill")
    while len(chosen) < k:
        cur = bench.objective(frozenset(selected))
        scored = []
        for e in bench.cands.edges:
            pair = (e.u, e.v)
            if pair in selected:
                continue
            gain = bench.objective(frozenset(selected), bench.cand_eid[pair]) - cur
            scored.append((-gain, -e.prob, pair))
        if not scored:
            break
        scored.sort()
        neg_gain, _, pair = scored[0]
        selected.add(pair)
        chosen.append(bench.by_pair[pair])
        trace.append(RoundRecord(len(trace) + 1, "fill", (pair,), -neg_gain, -neg_gain,
                                 tuple((p, -g) for g, _, p in scored)))


def select_be(g: UncertainGraph, cands: CandidateSet, s: int, t: int, k: int,
              config: EstimatorConfig = EstimatorConfig(), l: int = 30) -> SelectionResult:
    """Batch greedy: buy the label with the best gain per missing edge.

    Each round scores every unbought batch that fits the remaining budget by
    (reliability of the subgraph active after buying it minus the current
    subgraph reliability) divided by the number of new edges.  Ties fall to
    higher raw gain, then fewer new edges, then lexicographic label.  When
    every fitting batch has zero gain the round falls back to the batch with
    the most probable path; when none fit, leftover budget is spent on
    individual candidates and the result is flagged "fill".
    """
    paths = top_l_paths(augment(g, cands), s, t, l)
    return _batch_greedy(_single_bench(g, cands, s, t, paths, config), k, "be")


def _batch_greedy(bench: _Bench, k: int, method: str) -> SelectionResult:
    done = bench.shortcut(method, k)
    if done is not None:
        return done
    flags: list[str] = []
    batches = [b for b in build_batches(bench.paths) if b.label]
    selected: set = set()
    chosen: list[CandidateEdge] = []
    trace: list[RoundRecord] = []
    while len(chosen) < k:
        remaining = k - len(chosen)
        cur = bench.objective(frozenset(selected))
        fitting = []
        for b in batches:
            need = b.label - selected
            if 0 < len(need) <= remaining:
                fitting.append((b, need))
        if not fitting:
            break
        evals = []
        for b, need in fitting:
            gain = bench.objective(frozenset(selected | b.label)) - cur
            evals.append((gain / len(need), gain, len(need), b, need))
        evals.sort(key=lambda e: (-e[0], -e[1], e[2], e[3].sort_key()))
        score, gain, _, best, need = evals[0]
        note = "batch"
        if gain <= 0.0:
            best, need = min(fitting, key=lambda bn: (-bn[0].best_prob, bn[0].sort_key()))
            gain, score, note = 0.0, 0.0, "stall"
        picked = tuple(sorted(need))
        for pair in picked:
            chosen.append(bench.by_pair[pair])
        selected |= best.label
        batches = [b for b in batches if not b.label <= selected]
        trace.append(RoundRecord(len(trace) + 1, note, picked, gain, score,
                                 tuple((b.sort_key(), gv, sv) for sv, gv, _, b, _ in evals)))
    if len(chosen) < k:
        _fill_with_individuals(bench, selected, chosen, k, trace, flags)
    return bench.finalize(method, chosen, trace, flags)


def select_ip(g: UncertainGraph, cands: CandidateSet, s: int, t: int, k: int,
              config: EstimatorConfig = EstimatorConfig(), l: int = 30) -> SelectionResult:
    """Path greedy: add whole paths by raw subgraph gain until the budget fills.

    Rounds consider every top path whose unmet candidate edges fit the
    remaining budget and add the one with the largest subgraph reliability
    gain (ties: fewer new edges, lexicographic label, node sequence).
    """
    paths = top_l_paths(augment(g, cands), s, t, l)
    return _path_greedy(_single_bench(g, cands, s, t, paths, config), k)


def _path_greedy(bench: _Bench, k: int) -> SelectionResult:
    done = bench.shortcut("ip", k)
    if done is not None:
        return done
    flags: list[str] = []
    selected: set = set()
    chosen: list[CandidateEdge] = []
    trace: list[RoundRecord] = []
    # paths that exist without any candidate seed the accumulated subgraph
    added = set()
    for path, peids in zip(bench.paths, bench.path_eids):
        if not path.candidate_edges:
            added.update(peids)
    # a pair with s == t has no paths to add; fill rounds spend its budget
    while bench.real and len(chosen) < k:
        remaining = k - len(chosen)
        cur = bench.sub(0, frozenset(added))
        evals = []
        for path, peids in zip(bench.paths, bench.path_eids):
            need = path.candidate_edges - selected
            if not 0 < len(need) <= remaining:
                continue
            gain = bench.sub(0, frozenset(added | peids)) - cur
            evals.append((-gain, len(need), tuple(sorted(path.candidate_edges)),
                          path.nodes, need, peids))
        if not evals:
            break
        evals.sort(key=lambda e: e[:4])
        neg_gain, _, label, nodes, need, peids = evals[0]
        picked = tuple(sorted(need))
        for pair in picked:
            chosen.append(bench.by_pair[pair])
        selected |= set(label)
        added |= peids
        trace.append(RoundRecord(len(trace) + 1, "path", picked, -neg_gain,
                                 -neg_gain, tuple((e[3], -e[0]) for e in evals)))
    if len(chosen) < k:
        _fill_with_individuals(bench, selected, chosen, k, trace, flags)
    return bench.finalize("ip", chosen, trace, flags)


def select_exact(g: UncertainGraph, cands: CandidateSet, s: int, t: int, k: int,
                 config: EstimatorConfig = EstimatorConfig(),
                 combo_cap: int = COMBO_CAP) -> SelectionResult:
    """Best k-subset of candidates by direct estimation of every combination.

    The first subset attaining the maximum estimated reliability wins, with
    subsets enumerated in candidate-list index order.  Raises
    CapExceededError when the number of combinations exceeds combo_cap.
    """
    edges = cands.edges
    flags: list[str] = []
    k_eff = min(k, len(edges))
    if k_eff < k:
        flags.append("k-covers-all")
    if not edges:
        base = estimate(g, s, t, config).value
        return SelectionResult("exact", (), base, base, 0.0, (), ("no-candidates",))
    total = 1
    for i in range(k_eff):
        total = total * (len(edges) - i) // (i + 1)
    if total > combo_cap:
        raise CapExceededError(
            f"{total} candidate combinations exceed the cap of {combo_cap}; "
            "reduce r, prune candidates, or lower k")
    base = estimate(g, s, t, config).value
    best_val, best_combo = -1.0, ()
    for combo in itertools.combinations(edges, k_eff):
        improved = g.with_edges([(e.u, e.v, e.prob) for e in combo])
        val = estimate(improved, s, t, config).value
        if val > best_val:
            best_val, best_combo = val, combo
    return SelectionResult("exact", tuple(best_combo), base, best_val,
                           best_val - base, (), tuple(flags))


# ---------------------------------------------------------------------------
# end-to-end single-pair pipeline
# ---------------------------------------------------------------------------


def improve_single_pair(g: UncertainGraph, s: int, t: int, k: int,
                        method: str = "be", r: int = 100, l: int = 30,
                        h: int | None = 3, zeta: float = 0.5,
                        prob_overrides: dict | None = None,
                        candidates=None,
                        config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Eliminate candidates, prune them to the top paths, then select k edges.

    `candidates` overrides elimination with an explicit CandidateSet or
    iterable of (u, v, prob) triples; path pruning still applies.  The top
    paths are searched once: pruning drops only candidates that no top path
    uses, so the paths found before pruning feed the greedy selector.
    """
    if method not in ("be", "ip", "exact"):
        raise ValueError(f"unknown selection method {method!r}")
    if candidates is None:
        cands = eliminate(g, s, t, r=r, h=h, zeta=zeta,
                          prob_overrides=prob_overrides, config=config)
    else:
        cands = _as_candidate_set(candidates)
    paths = []
    if cands.edges:
        paths = top_l_paths(augment(g, cands), s, t, l)
        pruned = prune_by_paths(cands, paths)
        if pruned.edges:
            cands = pruned
    if method == "exact":
        return select_exact(g, cands, s, t, k, config)
    bench = _single_bench(g, cands, s, t, paths, config)
    if method == "ip":
        return _path_greedy(bench, k)
    return _batch_greedy(bench, k, "be")
