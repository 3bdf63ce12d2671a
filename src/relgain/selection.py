"""Edge selection: path-batch greedy, iterative paths, exhaustive search.

A candidate edge only pays off as part of a complete s-t path, so the greedy
methods never score edges in isolation.  Each top path carries a label: the
set of candidate edges it needs.  Paths sharing a label form a batch that is
bought as a unit; buying a batch can cover other labels and activate their
paths for free.  Gains are measured on the subgraph induced by the active
paths' edges, which keeps every evaluation small regardless of graph size.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .candidates import CandidateEdge, CandidateSet, eliminate, prune_by_paths
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


class _Workbench:
    """Augmented graph, labeled paths, and a cached subgraph estimator.

    `paths` are the top-l paths when the caller already has them; otherwise
    they are searched on the augmented graph.
    """

    def __init__(self, g: UncertainGraph, cands: CandidateSet, s: int, t: int,
                 k: int, config: EstimatorConfig, l: int, paths=None):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.g = g
        self.cands = cands
        self.s, self.t, self.k, self.config = s, t, k, config
        self.by_pair = {(e.u, e.v): e for e in cands.edges}
        self.aug = augment(g, cands)
        self.paths = top_l_paths(self.aug, s, t, l) if paths is None else paths
        pair_eid = {}
        for i in range(self.aug.m):
            u, v = int(self.aug.src[i]), int(self.aug.dst[i])
            pair_eid[(u, v)] = i
            if not self.aug.directed:
                pair_eid[(v, u)] = i
        self.path_eids = [
            frozenset(pair_eid[(a, b)] for a, b in zip(p.nodes, p.nodes[1:]))
            for p in self.paths
        ]
        self.cand_eid = {
            (e.u, e.v): pair_eid[(e.u, e.v)] for e in cands.edges
        }
        self._sub_cache: dict[frozenset, float] = {}

    def active_eids(self, selected: frozenset) -> frozenset:
        eids = set()
        for path, peids in zip(self.paths, self.path_eids):
            if path.candidate_edges <= selected:
                eids.update(peids)
        return frozenset(eids)

    def subgraph_reliability(self, eids: frozenset) -> float:
        """Reliability of s-t restricted to the given edges of the augmented graph."""
        if self.s == self.t:
            return 1.0
        hit = self._sub_cache.get(eids)
        if hit is not None:
            return hit
        eid_list = sorted(eids)
        nodes = {self.s, self.t}
        for eid in eid_list:
            nodes.add(int(self.aug.src[eid]))
            nodes.add(int(self.aug.dst[eid]))
        order = sorted(nodes)
        remap = {u: i for i, u in enumerate(order)}
        sub = UncertainGraph(
            len(order),
            [remap[int(self.aug.src[e])] for e in eid_list],
            [remap[int(self.aug.dst[e])] for e in eid_list],
            [float(self.aug.prob[e]) for e in eid_list],
            directed=self.aug.directed,
        )
        cfg = self.config.with_seed(derive_seed(self.config.seed, "subgraph", *eid_list))
        val = estimate(sub, remap[self.s], remap[self.t], cfg).value
        self._sub_cache[eids] = val
        return val

    def edge_for(self, pair) -> CandidateEdge:
        return self.by_pair[pair]

    def finalize(self, method: str, chosen: list[CandidateEdge], trace, flags) -> SelectionResult:
        base = estimate(self.g, self.s, self.t, self.config).value
        if chosen:
            improved = self.g.with_edges([(e.u, e.v, e.prob) for e in chosen])
            new = estimate(improved, self.s, self.t, self.config).value
        else:
            new = base
        return SelectionResult(method, tuple(chosen), base, new, new - base,
                               tuple(trace), tuple(flags))


def _fill_with_individuals(bench: _Workbench, selected: set, chosen: list,
                           k: int, trace: list, flags: list) -> None:
    """Spend leftover budget on single candidates by marginal subgraph gain."""
    if "fill" not in flags:
        flags.append("fill")
    while len(chosen) < k:
        active = bench.active_eids(frozenset(selected))
        cur = bench.subgraph_reliability(active)
        scored = []
        for e in bench.cands.edges:
            pair = (e.u, e.v)
            if pair in selected:
                continue
            gain = bench.subgraph_reliability(active | {bench.cand_eid[pair]}) - cur
            scored.append((-gain, -e.prob, pair))
        if not scored:
            break
        scored.sort()
        neg_gain, _, pair = scored[0]
        selected.add(pair)
        chosen.append(bench.edge_for(pair))
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
    return _batch_greedy(_Workbench(g, cands, s, t, k, config, l))


def _batch_greedy(bench: _Workbench) -> SelectionResult:
    cands, k = bench.cands, bench.k
    flags: list[str] = []
    if k >= len(cands.edges) and cands.edges:
        # whole set fits, no search needed
        chosen = list(cands.edges)
        return bench.finalize("be", chosen, [], ["k-covers-all"])
    if not cands.edges:
        return bench.finalize("be", [], [], ["no-candidates"])

    batches = [b for b in build_batches(bench.paths) if b.label]
    selected: set = set()
    chosen: list[CandidateEdge] = []
    trace: list[RoundRecord] = []
    while len(chosen) < k:
        remaining = k - len(chosen)
        cur = bench.subgraph_reliability(bench.active_eids(frozenset(selected)))
        fitting = []
        for b in batches:
            need = b.label - selected
            if 0 < len(need) <= remaining:
                fitting.append((b, need))
        if not fitting:
            break
        evals = []
        for b, need in fitting:
            val = bench.subgraph_reliability(bench.active_eids(frozenset(selected | b.label)))
            gain = val - cur
            evals.append((gain / len(need), gain, len(need), b, need))
        evals.sort(key=lambda e: (-e[0], -e[1], e[2], e[3].sort_key()))
        score, gain, _, best, need = evals[0]
        note = "batch"
        if gain <= 0.0:
            best, need = min(fitting, key=lambda bn: (-bn[0].best_prob, bn[0].sort_key()))
            gain, score, note = 0.0, 0.0, "stall"
        picked = tuple(sorted(need))
        for pair in picked:
            chosen.append(bench.edge_for(pair))
        selected |= best.label
        batches = [b for b in batches if not b.label <= selected]
        trace.append(RoundRecord(len(trace) + 1, note, picked, gain, score,
                                 tuple((b.sort_key(), gv, sv) for sv, gv, _, b, _ in evals)))
    if len(chosen) < k:
        _fill_with_individuals(bench, selected, chosen, k, trace, flags)
    return bench.finalize("be", chosen, trace, flags)


def select_ip(g: UncertainGraph, cands: CandidateSet, s: int, t: int, k: int,
              config: EstimatorConfig = EstimatorConfig(), l: int = 30) -> SelectionResult:
    """Path greedy: add whole paths by raw subgraph gain until the budget fills.

    Rounds consider every top path whose unmet candidate edges fit the
    remaining budget and add the one with the largest subgraph reliability
    gain (ties: fewer new edges, lexicographic label, node sequence).
    """
    return _path_greedy(_Workbench(g, cands, s, t, k, config, l))


def _path_greedy(bench: _Workbench) -> SelectionResult:
    cands, k = bench.cands, bench.k
    flags: list[str] = []
    if k >= len(cands.edges) and cands.edges:
        chosen = list(cands.edges)
        return bench.finalize("ip", chosen, [], ["k-covers-all"])
    if not cands.edges:
        return bench.finalize("ip", [], [], ["no-candidates"])

    selected: set = set()
    chosen: list[CandidateEdge] = []
    trace: list[RoundRecord] = []
    # paths that exist without any candidate seed the accumulated subgraph
    added = set()
    for path, peids in zip(bench.paths, bench.path_eids):
        if not path.candidate_edges:
            added.update(peids)
    while len(chosen) < k:
        remaining = k - len(chosen)
        cur = bench.subgraph_reliability(frozenset(added))
        evals = []
        for path, peids in zip(bench.paths, bench.path_eids):
            need = path.candidate_edges - selected
            if not 0 < len(need) <= remaining:
                continue
            gain = bench.subgraph_reliability(frozenset(added | peids)) - cur
            evals.append((-gain, len(need), tuple(sorted(path.candidate_edges)),
                          path.nodes, need, peids))
        if not evals:
            break
        evals.sort(key=lambda e: e[:4])
        neg_gain, _, label, nodes, need, peids = evals[0]
        picked = tuple(sorted(need))
        for pair in picked:
            chosen.append(bench.edge_for(pair))
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

_GREEDY = {"be": _batch_greedy, "ip": _path_greedy}


def _as_candidate_set(candidates) -> CandidateSet:
    if isinstance(candidates, CandidateSet):
        return candidates
    edges = tuple(CandidateEdge(int(u), int(v), float(p)) for u, v, p in candidates)
    return CandidateSet(edges, (), ())


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
    if method not in _GREEDY and method != "exact":
        raise ValueError(f"unknown selection method {method!r}")
    if candidates is None:
        cands = eliminate(g, s, t, r=r, h=h, zeta=zeta,
                          prob_overrides=prob_overrides, config=config)
    else:
        cands = _as_candidate_set(candidates)
    paths = None
    if cands.edges:
        paths = top_l_paths(augment(g, cands), s, t, l)
        pruned = prune_by_paths(cands, paths)
        if pruned.edges:
            cands = pruned
    if method == "exact":
        return select_exact(g, cands, s, t, k, config)
    return _GREEDY[method](_Workbench(g, cands, s, t, k, config, l, paths))
