"""The benchmark's workloads: inputs from the seed, one query, its checks.

Every graph comes from ``relgain.generators`` under the workload seed and is
written to an edge file that the timed set-up loads.  Query pairs are drawn
from the seed and kept when an untimed screening judge puts their base
reliability inside the workload's band, so every seed asks questions of the
same difficulty and the per-run medians compare across seeds.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from relgain import estimators, generators, multi, selection
from relgain.estimators import EstimatorConfig

from judge import Judge

# Screening judge: enough worlds to place a pair inside a 0.2-wide band, and
# how many random groups it may look at.
SCREEN_WORLDS = 256
SCREEN_TRIES = 20_000
# Checks allow this many standard errors before they call a number wrong.
SIGMAS = 5.0
# Slack for floating-point rounding in the [0, 1] range checks: RSS's sum of
# stratum weights can reach 1.0000000000000002 when every sampled world
# connects s and t.
ROUNDING = 1e-9


@dataclass(frozen=True)
class Query:
    graph: int
    index: int
    sources: tuple
    targets: tuple
    seed: int

    @property
    def pairs(self) -> tuple:
        return tuple((s, t) for s in self.sources for t in self.targets)


@dataclass
class Outcome:
    """What one query returned, and the checks it failed."""

    query: Query
    seconds: float
    record: dict = field(default_factory=dict)
    added: tuple = ()
    failures: list = field(default_factory=list)
    error: str = ""


def _se(p: float, samples: int, pairs: int = 1) -> float:
    """Standard error of a mean over `pairs` estimates at `samples` draws each.

    The binomial error bounds RSS's from above.  The pairs' errors are taken
    as independent; at the seed the 2x2 mean strays from the judge by 0.43
    binomial errors (standard deviation), below the 0.5 assumed here.
    """
    return math.sqrt(max(p * (1.0 - p), 0.0) / (samples * pairs))


def _in_unit(p: float) -> bool:
    return -ROUNDING <= p <= 1.0 + ROUNDING


def _screen(g, seed: int, sources: int, targets: int, band, count: int) -> list[tuple]:
    """Up to `count` (sources, targets) groups whose pairs all fall in `band`."""
    judge = Judge(g.n, g.src, g.dst, g.prob, SCREEN_WORLDS, seed)
    labels = judge.labels(np.arange(g.n))
    rng = np.random.default_rng([seed, 2])
    lo, hi = band
    groups = []
    for _ in range(SCREEN_TRIES):
        nodes = rng.choice(g.n, sources + targets, replace=False).tolist()
        src, tgt = tuple(nodes[:sources]), tuple(nodes[sources:])
        rel = [float((labels[:, s] == labels[:, t]).mean()) for s in src for t in tgt]
        if all(lo <= r <= hi for r in rel):
            groups.append((src, tgt))
            if len(groups) == count:
                break
    if not groups:
        raise RuntimeError(f"no query pairs with base reliability in {band}")
    return groups


class _Workload:
    """A name, the reason it is in the benchmark, and its graph family.

    Each run draws `graphs` graphs from the seed and spreads its queries
    over them, so one unusual graph cannot set a run's median.
    """

    def __init__(self, name, why, family, gen, graphs):
        self.name, self.why = name, why
        self.family, self.gen, self.graphs = family, gen, graphs

    def graph(self, seed: int):
        return generators.generate(
            generators.GenSpec(self.family, seed=seed, **self.gen))


class ImproveWorkload(_Workload):
    """Closed loop of improvement queries: pick k edges, then judge them."""

    def __init__(self, name, why, family, gen, graphs, sources, targets, band, k,
                 samples, r, l, h, zeta, judge_worlds):
        super().__init__(name, why, family, gen, graphs)
        self.sources, self.targets, self.band = sources, targets, band
        self.k, self.samples = k, samples
        self.r, self.l, self.h, self.zeta = r, l, h, zeta
        self.judge_worlds = judge_worlds

    def params(self) -> dict:
        return {"family": self.family, "generator": self.gen, "graphs": self.graphs,
                "sources": self.sources, "targets": self.targets,
                "base_band": self.band, "k": self.k, "samples": self.samples,
                "r": self.r, "l": self.l, "h": self.h, "zeta": self.zeta,
                "judge_worlds": self.judge_worlds,
                "call": "improve_single_pair(be)" if self.sources * self.targets == 1
                else "select_multi(avg)"}

    def queries(self, g, graph: int, seed: int, count: int) -> list[Query]:
        groups = _screen(g, seed, self.sources, self.targets, self.band, count)
        return [Query(graph, i, s, t, seed + i) for i, (s, t) in enumerate(groups)]

    def run(self, g, q: Query):
        config = EstimatorConfig(samples=self.samples, seed=q.seed)
        if len(q.pairs) == 1:
            return selection.improve_single_pair(
                g, q.sources[0], q.targets[0], self.k, method="be", r=self.r,
                l=self.l, h=self.h, zeta=self.zeta, config=config)
        query = multi.MultiQuery(q.sources, q.targets, "avg", self.k)
        return multi.select_multi(g, query, r=self.r, l=self.l, h=self.h,
                                  zeta=self.zeta, config=config)

    def record(self, g, out: Outcome, result) -> None:
        labels = sorted(f"{g.labels[e.u]}-{g.labels[e.v]}" for e in result.chosen)
        out.added = tuple((e.u, e.v, e.prob) for e in result.chosen)
        out.record = {
            "base": result.base_reliability, "new": result.new_reliability,
            "gain": result.gain, "edges_added": len(result.chosen),
            "flags": list(result.flags),
            "chosen_sha256": hashlib.sha256(" ".join(labels).encode()).hexdigest(),
        }
        f = out.failures
        if len(result.chosen) != self.k:
            f.append(f"edges_added {len(result.chosen)} != k {self.k}")
        if len({(e.u, e.v) for e in result.chosen}) != len(result.chosen):
            f.append("a chosen edge repeats")
        for e in result.chosen:
            if e.u == e.v or g.has_edge(e.u, e.v):
                f.append(f"chosen edge {e.u}-{e.v} is a loop or already in G")
            if e.prob != self.zeta:
                f.append(f"chosen edge {e.u}-{e.v} has prob {e.prob} != zeta")
        base, new = result.base_reliability, result.new_reliability
        pairs = len(out.query.pairs)
        tol = SIGMAS * math.hypot(_se(base, self.samples, pairs),
                                  _se(new, self.samples, pairs))
        if not (_in_unit(base) and _in_unit(new) and new >= base - tol):
            f.append(f"base {base} / new {new} outside 0 <= base <= new <= 1 (tol {tol:.3g})")

    def judge(self, g, seed: int, outcomes: list[Outcome]) -> None:
        """Judge every recorded query on one set of worlds (common numbers)."""
        nodes = sorted({v for o in outcomes for p in o.query.pairs for v in p}
                       | {v for o in outcomes for e in o.added for v in e[:2]})
        judge = Judge(g.n, g.src, g.dst, g.prob, self.judge_worlds, seed)
        labels = judge.labels(nodes)
        column = {v: i for i, v in enumerate(nodes)}
        for o in outcomes:
            if not o.record:
                continue
            v = judge.verdict(labels, column, o.query.pairs, o.added, o.query.index)
            o.record.update(judged_base=v.base, judged_new=v.new,
                            judged_gain=v.gain, judged_gain_se=v.gain_se)
            if not v.gain > 0.0:
                o.failures.append(f"judged gain {v.gain} is not positive")
            pairs = len(o.query.pairs)
            for name, judged, judged_se in (("base", v.base, v.base_se),
                                            ("new", v.new, v.new_se)):
                tol = SIGMAS * math.hypot(_se(judged, self.samples, pairs), judged_se)
                if abs(o.record[name] - judged) > tol:
                    o.failures.append(f"{name} {o.record[name]:.4f} vs judge "
                                      f"{judged:.4f} beyond {tol:.4f}")


class EstimateWorkload(_Workload):
    """Closed loop of estimates: one `auto` estimate and one MC estimate per query."""

    def __init__(self, name, why, family, gen, graphs, band, pairs, samples,
                 mc_samples, judge_worlds):
        super().__init__(name, why, family, gen, graphs)
        self.band, self.pairs = band, pairs
        self.samples, self.mc_samples = samples, mc_samples
        self.judge_worlds = judge_worlds

    def params(self) -> dict:
        return {"family": self.family, "generator": self.gen, "graphs": self.graphs,
                "base_band": self.band,
                "pairs": self.pairs, "samples_auto": self.samples,
                "samples_mc": self.mc_samples, "judge_worlds": self.judge_worlds,
                "call": "estimate(auto) + reliability_mc"}

    def queries(self, g, graph: int, seed: int, count: int) -> list[Query]:
        groups = _screen(g, seed, 1, 1, self.band, self.pairs)
        return [Query(graph, i, *groups[i % len(groups)], seed + i) for i in range(count)]

    def run(self, g, q: Query):
        (s, t), = q.pairs
        auto = estimators.estimate(g, s, t, EstimatorConfig(samples=self.samples, seed=q.seed))
        mc = estimators.reliability_mc(g, s, t, self.mc_samples, seed=q.seed)
        return auto, mc

    def record(self, g, out: Outcome, result) -> None:
        auto, mc = result
        out.record = {"auto": auto.value, "auto_method": auto.method,
                      "auto_samples": auto.samples_used, "mc": mc.value,
                      "mc_samples": mc.samples_used}
        for name, est in (("auto", auto), ("mc", mc)):
            if not _in_unit(est.value):
                out.failures.append(f"{name} estimate {est.value} outside [0, 1]")

    def judge(self, g, seed: int, outcomes: list[Outcome]) -> None:
        nodes = sorted({v for o in outcomes for p in o.query.pairs for v in p})
        judge = Judge(g.n, g.src, g.dst, g.prob, self.judge_worlds, seed)
        labels = judge.labels(nodes)
        column = {v: i for i, v in enumerate(nodes)}
        verdicts = {}
        for o in outcomes:
            if not o.record:
                continue
            pair = o.query.pairs
            if pair not in verdicts:
                verdicts[pair] = judge.verdict(labels, column, pair, (), 0)
            v = verdicts[pair]
            o.record["judged"] = v.base
            for name, samples in (("auto", self.samples), ("mc", self.mc_samples)):
                tol = SIGMAS * math.hypot(_se(v.base, samples), v.base_se)
                if abs(o.record[name] - v.base) > tol:
                    o.failures.append(
                        f"{name} {o.record[name]:.4f} vs judge {v.base:.4f} beyond {tol:.4f}")


WORKLOADS = {
    w.name: w for w in (
        ImproveWorkload(
            "gate-er",
            "criterion-11 gate query on 2k-node ER graphs with Z=60, so its stage mix "
            "is the full gate's: top-l search ~1/3, per-world BFS reach vectors "
            "(m > 2048) and whole-graph estimates ~1/4 each",
            "erdos_renyi", {"n": 2000, "param": 10 / 1999}, 2, 1, 1, (0.6, 0.8),
            k=10, samples=60, r=100, l=30, h=3, zeta=0.5, judge_worlds=2000),
        ImproveWorkload(
            "multi-sw",
            "pooled avg greedy over 2x2 pairs on small-world graphs: m <= 2048 "
            "sweep engine and whole-graph RSS estimates dominate; top-l is ~14%",
            "small_world", {"n": 250, "lo": 0.3, "hi": 0.9}, 24, 2, 2, (0.2, 0.8),
            k=6, samples=60, r=100, l=30, h=3, zeta=0.5, judge_worlds=2000),
        EstimateWorkload(
            "estimate-sf",
            "estimators alone on scale-free graphs at large Z, nothing reused "
            "across calls, no path search; the Z x m uniform batch sets the memory peak",
            "scale_free", {"n": 375}, 4, (0.3, 0.7), pairs=4, samples=300,
            mc_samples=20000, judge_worlds=20000),
    )
}
