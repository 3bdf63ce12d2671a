"""Per-layer metrics: the relgain functions the traced run wraps, and their roll-up.

Each wrapped name is the attribute a caller looks up, so a call is traced
where it crosses into the layer: ``selection.top_l_paths`` is the selection
layer calling the paths layer.  Calls inside a layer's own module are not
wrapped and count toward that layer's self time.

``SHOULD_MOVE`` records, for every per-layer metric, the end-to-end metric
it should move and the workloads where it carries weight.
"""
from __future__ import annotations

import statistics

from relgain import candidates, estimators, graph, multi, selection
from relgain.rng import blocks_per_sample

SHOULD_MOVE = {
    "graph.load_s": ("setup_s", "all"),
    "candidates.eliminate_s": ("query_s", "gate-er, multi-sw"),
    "candidates.cands_generated": ("query_s", "gate-er, multi-sw"),
    "candidates.prune_keep_ratio": ("query_s; judge.gain", "gate-er, multi-sw"),
    "estimators.reach_vector_s": ("query_s", "gate-er (per-world BFS), multi-sw (sweep)"),
    "estimators.reach_vector_calls": ("query_s", "gate-er, multi-sw"),
    "estimators.full_estimate_s": ("query_s", "multi-sw, gate-er, estimate-sf"),
    "estimators.full_estimate_calls": ("query_s", "multi-sw, gate-er, estimate-sf"),
    "estimators.sub_estimate_s": ("query_s", "multi-sw"),
    "estimators.sub_estimate_calls": ("query_s", "multi-sw"),
    "estimators.sub_exact_share": ("query_s", "multi-sw"),
    "estimators.mc_s": ("query_s; peak_rss_mb", "estimate-sf"),
    "estimators.samples_used": ("query_s", "all"),
    "rng.uniform_batch_s": ("query_s; peak_rss_mb", "estimate-sf"),
    "rng.uniform_batch_bytes": ("peak_rss_mb", "estimate-sf"),
    "paths.top_l_s": ("query_s", "gate-er (prediction: no change on multi-sw)"),
    "paths.top_l_calls": ("query_s", "gate-er"),
    "paths.paths_found": ("query_s", "gate-er"),
    "selection.self_s": ("query_s", "gate-er"),
    "selection.rounds": ("query_s", "gate-er"),
    "selection.evaluations": ("query_s", "gate-er"),
    "selection.cache_hit_ratio": ("query_s", "gate-er"),
    "multi.self_s": ("query_s", "multi-sw"),
    "multi.objective_evals": ("query_s", "multi-sw"),
    "judge.gain": ("selection quality (outside the gated metrics)", "gate-er, multi-sw"),
    "trace.overhead_s": ("none: traced minus untraced query_s", "all"),
}

UNITS = {name: ("s" if name.endswith("_s") else
                "ratio" if name.endswith(("_ratio", "_share")) else
                "bytes" if name.endswith("_bytes") else
                "prob" if name == "judge.gain" else "count")
         for name in SHOULD_MOVE}


def _estimate_note(args, kwargs, result):
    return {"n": args[0].n, "method": result.method, "samples": result.samples_used}


def _mc_note(args, kwargs, result):
    return {"samples": result.samples_used}


def _batch_note(args, kwargs, result):
    count, m = args[1], args[2]
    return {"bytes": count * blocks_per_sample(m) * 4 * 8}


def _cands_note(args, kwargs, result):
    return {"cands": len(result.edges)}


def _prune_note(args, kwargs, result):
    return {"generated": len(args[0].edges), "kept": len(result.edges)}


def _paths_note(args, kwargs, result):
    return {"paths": len(result)}


def _rounds_note(args, kwargs, result):
    return {"rounds": len(result.trace),
            "evaluations": sum(len(r.evaluations) for r in result.trace)}


def instrument(tracer) -> None:
    """Wrap every layer boundary the benchmark's queries cross."""
    tracer.wrap(graph, "load_graph", "graph.load")
    tracer.wrap(selection, "improve_single_pair", "selection.query", _rounds_note)
    tracer.wrap(multi, "select_multi", "multi.query", _rounds_note)
    tracer.wrap(selection, "eliminate", "candidates.eliminate", _cands_note)
    tracer.wrap(multi, "eliminate_multi", "candidates.eliminate", _cands_note)
    for module in (selection, multi):
        tracer.wrap(module, "prune_by_paths", "candidates.prune", _prune_note)
        tracer.wrap(module, "top_l_paths", "paths.top_l", _paths_note)
        tracer.wrap(module, "estimate", "estimators.estimate", _estimate_note)
    tracer.wrap(candidates, "reliability_all_from", "estimators.reach_vector")
    tracer.wrap(candidates, "reliability_all_to", "estimators.reach_vector")
    tracer.wrap(estimators, "estimate", "estimators.estimate", _estimate_note)
    tracer.wrap(estimators, "reliability_mc", "estimators.mc", _mc_note)
    tracer.wrap(estimators, "uniform_batch", "rng.uniform_batch", _batch_note)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, full_n: int, queries: int, judged_gains) -> dict:
    """Per-query means of every per-layer metric over the traced queries.

    An estimate on a graph with `full_n` nodes is a whole-graph estimate;
    every smaller graph is a path subgraph built by the selector.  Loads
    are no query's work, so ``graph.load_s`` is the median traced load.
    """
    own = tracer.self_times()
    total: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    loads = []
    for s in tracer.spans:
        if s.name == "graph.load":
            loads.append(s.duration)
            continue
        if s.query is None:
            continue
        d, a = s.duration, s.attrs
        if s.name == "estimators.estimate":
            kind = "full" if a["n"] >= full_n else "sub"
            add(f"{kind}_s", d)
            add(f"{kind}_calls", 1)
            add("samples", a["samples"])
            if kind == "sub" and a["method"] == "exact":
                add("sub_exact", 1)
        elif s.name == "estimators.mc":
            add("mc_s", d)
            add("samples", a["samples"])
        elif s.name in ("selection.query", "multi.query"):
            add(f"{s.name}.self", own[s.id])
            add(f"{s.name}.rounds", a["rounds"])
            add(f"{s.name}.evaluations", a["evaluations"])
        else:
            add(f"{s.name}.s", d)
            add(f"{s.name}.calls", 1)
            for key, value in a.items():
                add(f"{s.name}.{key}", value)

    q = max(1, queries)
    per = {key: value / q for key, value in total.items()}
    g = per.get
    # select_be looks a subgraph up once per examined batch and once per round
    lookups = (total.get("selection.query.evaluations", 0.0)
               + total.get("selection.query.rounds", 0.0))
    return {
        "graph.load_s": statistics.median(loads) if loads else 0.0,
        "candidates.eliminate_s": g("candidates.eliminate.s", 0.0),
        "candidates.cands_generated": g("candidates.eliminate.cands", 0.0),
        "candidates.prune_keep_ratio": _ratio(total.get("candidates.prune.kept", 0.0),
                                              total.get("candidates.prune.generated", 0.0)),
        "estimators.reach_vector_s": g("estimators.reach_vector.s", 0.0),
        "estimators.reach_vector_calls": g("estimators.reach_vector.calls", 0.0),
        "estimators.full_estimate_s": g("full_s", 0.0),
        "estimators.full_estimate_calls": g("full_calls", 0.0),
        "estimators.sub_estimate_s": g("sub_s", 0.0),
        "estimators.sub_estimate_calls": g("sub_calls", 0.0),
        "estimators.sub_exact_share": _ratio(total.get("sub_exact", 0.0),
                                             total.get("sub_calls", 0.0)),
        "estimators.mc_s": g("mc_s", 0.0),
        "estimators.samples_used": g("samples", 0.0),
        "rng.uniform_batch_s": g("rng.uniform_batch.s", 0.0),
        "rng.uniform_batch_bytes": g("rng.uniform_batch.bytes", 0.0),
        "paths.top_l_s": g("paths.top_l.s", 0.0),
        "paths.top_l_calls": g("paths.top_l.calls", 0.0),
        "paths.paths_found": g("paths.top_l.paths", 0.0),
        "selection.self_s": g("selection.query.self", 0.0),
        "selection.rounds": g("selection.query.rounds", 0.0),
        "selection.evaluations": g("selection.query.evaluations", 0.0),
        "selection.cache_hit_ratio": (1.0 - total.get("sub_calls", 0.0) / lookups
                                      if lookups else 0.0),
        "multi.self_s": g("multi.query.self", 0.0),
        # like select_be, the pooled greedy evaluates once per batch and per round
        "multi.objective_evals": (g("multi.query.evaluations", 0.0)
                                  + g("multi.query.rounds", 0.0)),
        "judge.gain": statistics.fmean(judged_gains) if judged_gains else 0.0,
    }
