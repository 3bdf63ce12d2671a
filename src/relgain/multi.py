"""Reliability improvement for source and target sets.

Three aggregates over the |S| x |T| pair reliabilities are supported:

  avg  the batch greedy of :mod:`relgain.selection` over one pooled
       candidate set and every pair's top paths; rounds are scored by the
       summed subgraph reliability across pairs, and the reported aggregate
       is the mean pair reliability on the full graph.
  min  repeatedly strengthens whichever pair is currently weakest, spending
       the budget in installments of k1 edges.
  max  the same installment loop focused on the currently strongest pair;
       sources and targets must be disjoint.

A query with one source and one target short-circuits every aggregate to the
plain single-pair batch-greedy pipeline.
"""
from __future__ import annotations

from dataclasses import dataclass

from .candidates import CandidateEdge, eliminate_multi, prune_by_paths
# estimate is not called here; benchmark/layers.py wraps multi.estimate
from .estimators import EstimatorConfig, estimate, reach_counts  # noqa: F401
from .graph import UncertainGraph
from .paths import augment, top_l_paths
from .selection import (RoundRecord, SelectionResult, _batch_greedy, _Bench,
                        _pair_reliabilities, improve_single_pair)

__all__ = [
    "AGGREGATES",
    "MultiQuery",
    "select_multi",
    "select_multi_avg",
    "select_multi_min",
    "select_multi_max",
    "influence_spread",
]

AGGREGATES = ("avg", "min", "max")


@dataclass(frozen=True)
class MultiQuery:
    """Source set, target set, aggregate, and edge budget for one request."""

    sources: tuple
    targets: tuple
    aggregate: str = "avg"
    k: int = 10
    k1_ratio: float = 0.10

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(int(x) for x in self.sources))
        object.__setattr__(self, "targets", tuple(int(x) for x in self.targets))
        if not self.sources or not self.targets:
            raise ValueError("sources and targets must be non-empty")
        if self.aggregate not in AGGREGATES:
            raise ValueError(
                f"unknown aggregate {self.aggregate!r} (expected one of {AGGREGATES})")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.k1_ratio <= 1.0:
            raise ValueError(f"k1_ratio must be in (0, 1], got {self.k1_ratio}")
        if self.aggregate == "max" and set(self.sources) & set(self.targets):
            raise ValueError(
                "the max aggregate needs disjoint source and target sets")

    @property
    def pairs(self) -> tuple:
        return tuple((s, t) for s in self.sources for t in self.targets)

    @property
    def k1(self) -> int:
        return max(1, round(self.k1_ratio * self.k))


def _is_single(query: MultiQuery) -> bool:
    return len(query.sources) == 1 and len(query.targets) == 1


def _single_pair(g, query, r, l, h, zeta, prob_overrides, config):
    return improve_single_pair(g, query.sources[0], query.targets[0], query.k,
                               method="be", r=r, l=l, h=h, zeta=zeta,
                               prob_overrides=prob_overrides, config=config)


# ---------------------------------------------------------------------------
# avg: pooled batch greedy on the summed pair objective
# ---------------------------------------------------------------------------


def select_multi_avg(g: UncertainGraph, query: MultiQuery, r: int = 100,
                     l: int = 30, h: int | None = 3, zeta: float = 0.5,
                     prob_overrides: dict | None = None,
                     config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Batch greedy on pooled paths, scored by the summed pair objective."""
    if _is_single(query):
        return _single_pair(g, query, r, l, h, zeta, prob_overrides, config)
    cands = eliminate_multi(g, query.sources, query.targets, r=r, h=h,
                            zeta=zeta, prob_overrides=prob_overrides, config=config)
    real = [(s, t) for s, t in query.pairs if s != t]
    if cands.edges:
        aug = augment(g, cands)
        pooled = [p for s, t in real for p in top_l_paths(aug, s, t, l)]
        pruned = prune_by_paths(cands, pooled)
        if pruned.edges:
            cands = pruned
    # the greedy runs on paths searched again after pruning: at a tie for the
    # l-th path, the pruned graph can keep a different path than the pooled search
    aug = augment(g, cands)
    paths = [top_l_paths(aug, s, t, l) for s, t in real]
    return _batch_greedy(_Bench(g, cands, query.pairs, paths, config), query.k, "avg")


# ---------------------------------------------------------------------------
# min / max: installment loop on the extreme pair
# ---------------------------------------------------------------------------


def _select_installments(g: UncertainGraph, query: MultiQuery, aggregate: str,
                         r: int, l: int, h: int | None, zeta: float,
                         prob_overrides: dict | None,
                         config: EstimatorConfig) -> SelectionResult:
    """Spend the budget k1 edges at a time on the extreme pair.

    Each installment re-estimates every pair on the current graph, picks the
    weakest (min) or strongest (max) live pair, and runs the single-pair
    batch greedy with the installment budget.  A pair that yields nothing is
    demoted until some other pair makes progress; the loop stops when all
    pairs are demoted or the budget is spent.
    """
    pairs = query.pairs
    k1 = query.k1
    cur_graph = g
    chosen: list[CandidateEdge] = []
    trace: list[RoundRecord] = []
    flags: list[str] = []
    demoted: set = set()
    while len(chosen) < query.k:
        rels = _pair_reliabilities(cur_graph, pairs, config)
        live = [i for i in range(len(pairs)) if i not in demoted]
        if not live:
            flags.append("saturated")
            break
        if aggregate == "min":
            focus = min(live, key=lambda i: (rels[i], i))
        else:
            focus = max(live, key=lambda i: (rels[i], -i))
        s, t = pairs[focus]
        evals = tuple((pairs[i], rels[i]) for i in range(len(pairs)))
        if s == t:
            # already certain, nothing to buy for this pair
            demoted.add(focus)
            trace.append(RoundRecord(len(trace) + 1, "demote", (), 0.0,
                                     rels[focus], evals))
            continue
        budget = min(k1, query.k - len(chosen))
        res = improve_single_pair(cur_graph, s, t, budget, method="be", r=r,
                                  l=l, h=h, zeta=zeta,
                                  prob_overrides=prob_overrides, config=config)
        if not res.chosen or res.gain <= 0.0:
            demoted.add(focus)
            trace.append(RoundRecord(len(trace) + 1, "demote", (), 0.0,
                                     rels[focus], evals))
            continue
        demoted.clear()
        cur_graph = cur_graph.with_edges([(e.u, e.v, e.prob) for e in res.chosen])
        chosen.extend(res.chosen)
        trace.append(RoundRecord(len(trace) + 1, "installment",
                                 tuple((e.u, e.v) for e in res.chosen),
                                 res.gain, rels[focus], evals))
    agg = min if aggregate == "min" else max
    base = float(agg(_pair_reliabilities(g, pairs, config)))
    new = float(agg(_pair_reliabilities(cur_graph, pairs, config)))
    return SelectionResult(aggregate, tuple(chosen), base, new, new - base,
                           tuple(trace), tuple(flags))


def select_multi_min(g: UncertainGraph, query: MultiQuery, r: int = 100,
                     l: int = 30, h: int | None = 3, zeta: float = 0.5,
                     prob_overrides: dict | None = None,
                     config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Raise the floor: installments always target the weakest pair."""
    if _is_single(query):
        return _single_pair(g, query, r, l, h, zeta, prob_overrides, config)
    return _select_installments(g, query, "min", r, l, h, zeta, prob_overrides, config)


def select_multi_max(g: UncertainGraph, query: MultiQuery, r: int = 100,
                     l: int = 30, h: int | None = 3, zeta: float = 0.5,
                     prob_overrides: dict | None = None,
                     config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Push the ceiling: installments always target the strongest pair."""
    if _is_single(query):
        return _single_pair(g, query, r, l, h, zeta, prob_overrides, config)
    if set(query.sources) & set(query.targets):
        raise ValueError("the max aggregate needs disjoint source and target sets")
    return _select_installments(g, query, "max", r, l, h, zeta, prob_overrides, config)


_AGG_FNS = {"avg": select_multi_avg, "min": select_multi_min, "max": select_multi_max}


def select_multi(g: UncertainGraph, query: MultiQuery, r: int = 100, l: int = 30,
                 h: int | None = 3, zeta: float = 0.5,
                 prob_overrides: dict | None = None,
                 config: EstimatorConfig = EstimatorConfig()) -> SelectionResult:
    """Dispatch on the query's aggregate."""
    return _AGG_FNS[query.aggregate](g, query, r=r, l=l, h=h, zeta=zeta,
                                     prob_overrides=prob_overrides, config=config)


# ---------------------------------------------------------------------------
# spread metric
# ---------------------------------------------------------------------------


def influence_spread(g: UncertainGraph, sources, targets, samples: int,
                     seed: int = 0) -> float:
    """Expected number of targets reachable from at least one source."""
    src = sorted(set(int(x) for x in sources))
    tgt = sorted(set(int(x) for x in targets))
    if not src or not tgt:
        raise ValueError("sources and targets must be non-empty")
    counts = reach_counts(g, src, samples, seed)
    return float(counts[tgt].sum() / samples)
