"""Command-line driver: estimate, improve, multi, generate, bench.

Every improvement run emits CSV rows under a fixed header.  Rows depend only
on the graph, the options, and the seed, so repeated runs are byte-identical;
wall-clock timings are opt-in (--timing) because they would break that.
Queries fan out across --workers processes, each query seeded with
derive_seed(master_seed, "query", query_index), so the worker count never
changes the output and no two (seed, index) pairs share a stream.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from multiprocessing import Pool

from .baselines import (select_centrality, select_eigen, select_hill_climbing,
                        select_individual_topk)
from .candidates import _as_candidate_set, eliminate
from .errors import CapExceededError, RelgainError
from .estimators import EstimatorConfig, converged_sample_size, estimate
from .generators import FAMILIES, PROB_MODELS, GenSpec, generate
from .graph import load_graph, save_graph
from .mrp import improve_mrp
from .multi import AGGREGATES, MultiQuery, select_multi
from .rng import derive_seed
from .selection import improve_single_pair

__all__ = ["CSV_HEADER", "METHODS", "RunConfig", "run_query", "main"]

CSV_HEADER = "method,k,zeta,r,l,h,base_rel,new_rel,gain,time_ms,samples,edges_added"
METHODS = ("exact", "topk", "hc", "cent-deg", "cent-bet", "eigen", "mrp", "ip", "be")
_SAMPLE_GRID = (250, 500, 1000, 2000, 5000, 10000)


@dataclass(frozen=True)
class RunConfig:
    """Everything a query run needs besides the query endpoints."""

    graph: str
    directed: bool = True
    method: str = "be"
    k: int = 10
    zeta: float = 0.5
    r: int = 100
    l: int = 30
    h: int | None = 3
    samples: int = 10_000
    seed: int = 0
    aggregate: str = "avg"
    k1_ratio: float = 0.10
    prob_overrides: str | None = None
    candidates: str | None = None
    timing: bool = False


def _g(x) -> str:
    return f"{x:.12g}"


def _row(rec: dict) -> str:
    h = "none" if rec["h"] is None else str(rec["h"])
    cells = [rec["method"], str(rec["k"]), _g(rec["zeta"]), str(rec["r"]),
             str(rec["l"]), h, _g(rec["base_rel"]), _g(rec["new_rel"]),
             _g(rec["gain"]), _g(rec["time_ms"]), str(rec["samples"]),
             _g(rec["edges_added"])]
    return ",".join(cells)


def _emit_csv(rows: list[str], output: str | None) -> None:
    text = CSV_HEADER + "\n" + "".join(r + "\n" for r in rows)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _log_peak_memory() -> None:
    try:
        import resource
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(f"peak-rss-kb={max(own, kids)}", file=sys.stderr)
    except Exception:  # pragma: no cover - non-posix fallback
        print("peak-rss-kb=unavailable", file=sys.stderr)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _parse_h(text: str):
    if text.strip().lower() == "none":
        return None
    value = int(text)
    if value < 0:
        raise ValueError(f"h must be non-negative or 'none', got {text!r}")
    return value


def _load_triples(path: str | None, g) -> list | None:
    """Read 'u v prob' lines: explicit candidate edges or probability overrides."""
    if path is None:
        return None
    triples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{line_no}: expected 'u v prob', got {line!r}")
            triples.append((g.node_id(parts[0]), g.node_id(parts[1]), float(parts[2])))
    return triples


def _load_overrides(path: str | None, g) -> dict | None:
    """Node pair -> candidate probability; a later line wins."""
    triples = _load_triples(path, g)
    return None if triples is None else {(u, v): p for u, v, p in triples}


def _parse_pair_queries(path: str) -> list[tuple[str, str]]:
    """Read 's t' label pairs, one query per line."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 's t', got {line!r}")
            out.append((parts[0], parts[1]))
    if not out:
        raise ValueError(f"no queries found in {path}")
    return out


def _parse_multi_line(line: str, where: str) -> tuple[list[str], list[str]]:
    parts = line.split("|")
    if len(parts) != 2:
        raise ValueError(f"{where}: expected 'S: ... | T: ...', got {line!r}")
    sides = {}
    for part in parts:
        name, _, rest = part.partition(":")
        name = name.strip().upper()
        if name not in ("S", "T") or name in sides:
            raise ValueError(f"{where}: expected 'S: ... | T: ...', got {line!r}")
        sides[name] = [tok.strip() for tok in rest.split(",") if tok.strip()]
    if "S" not in sides or "T" not in sides:
        raise ValueError(f"{where}: expected 'S: ... | T: ...', got {line!r}")
    return sides["S"], sides["T"]


def _parse_multi_queries(path: str) -> list[tuple[list[str], list[str]]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            out.append(_parse_multi_line(line, f"{path}:{line_no}"))
    if not out:
        raise ValueError(f"no queries found in {path}")
    return out


def _write_trace(path: str | None, result, labels) -> None:
    if path is None:
        return
    import json
    with open(path, "w", encoding="utf-8") as fh:
        for rec in result.trace:
            # report node labels, matching the CSV and the stderr summary
            fh.write(json.dumps({
                "round": rec.round,
                "note": rec.note,
                "picked": [[labels[u], labels[v]] for u, v in rec.picked],
                "gain": rec.gain,
                "score": rec.score,
            }) + "\n")


# ---------------------------------------------------------------------------
# query execution
# ---------------------------------------------------------------------------


def _record(cfg: RunConfig, method: str, base, new, gain, time_ms, edges_added) -> dict:
    """The fields of one CSV row: the run's settings and its outcome."""
    return {"method": method, "k": cfg.k, "zeta": cfg.zeta, "r": cfg.r,
            "l": cfg.l, "h": cfg.h, "base_rel": base, "new_rel": new, "gain": gain,
            "time_ms": time_ms, "samples": cfg.samples, "edges_added": edges_added}


def run_query(g, cfg: RunConfig, s: int, t: int, seed: int,
              cand_triples=None, overrides=None):
    """Run one improvement query; returns (record, SelectionResult)."""
    if cfg.method not in METHODS:
        raise ValueError(f"unknown method {cfg.method!r} (expected one of {METHODS})")
    config = EstimatorConfig(samples=cfg.samples, seed=seed)
    started = time.perf_counter()
    if cfg.method in ("be", "ip", "exact"):
        res = improve_single_pair(g, s, t, cfg.k, method=cfg.method, r=cfg.r,
                                  l=cfg.l, h=cfg.h, zeta=cfg.zeta,
                                  prob_overrides=overrides,
                                  candidates=cand_triples, config=config)
    else:
        if cand_triples is not None:
            cands = _as_candidate_set(cand_triples)
        else:
            cands = eliminate(g, s, t, r=cfg.r, h=cfg.h, zeta=cfg.zeta,
                              prob_overrides=overrides, config=config)
        if cfg.method == "mrp":
            res = improve_mrp(g, s, t, cfg.k, candidates=cands, zeta=cfg.zeta)
        elif cfg.method == "topk":
            res = select_individual_topk(g, cands, s, t, cfg.k, config)
        elif cfg.method == "hc":
            res = select_hill_climbing(g, cands, s, t, cfg.k, config)
        elif cfg.method == "eigen":
            res = select_eigen(g, cands, s, t, cfg.k, config)
        else:
            mode = "degree" if cfg.method == "cent-deg" else "betweenness"
            res = select_centrality(g, cands, s, t, cfg.k, mode, config)
    elapsed_ms = int((time.perf_counter() - started) * 1000) if cfg.timing else 0
    return _record(cfg, cfg.method, res.base_reliability, res.new_reliability, res.gain,
                   elapsed_ms, len(res.chosen)), res


def _run_multi_query(g, cfg: RunConfig, sources, targets, seed, overrides=None):
    query = MultiQuery(sources, targets, aggregate=cfg.aggregate, k=cfg.k,
                       k1_ratio=cfg.k1_ratio)
    config = EstimatorConfig(samples=cfg.samples, seed=seed)
    started = time.perf_counter()
    res = select_multi(g, query, r=cfg.r, l=cfg.l, h=cfg.h, zeta=cfg.zeta,
                       prob_overrides=overrides, config=config)
    elapsed_ms = int((time.perf_counter() - started) * 1000) if cfg.timing else 0
    return _record(cfg, res.method, res.base_reliability, res.new_reliability, res.gain,
                   elapsed_ms, len(res.chosen)), res


# worker processes keep the parsed graph in module state
_WORKER_STATE: dict = {}


def _init_worker(graph_path: str, directed: bool) -> None:
    _WORKER_STATE["g"] = load_graph(graph_path, directed)


def _worker_task(task):
    kind, cfg, idx, payload = task
    g = _WORKER_STATE["g"]
    overrides = _load_overrides(cfg.prob_overrides, g)
    seed = derive_seed(cfg.seed, "query", idx)
    if kind == "single":
        s_label, t_label = payload
        cand_triples = _load_triples(cfg.candidates, g)
        rec, _ = run_query(g, cfg, g.node_id(s_label), g.node_id(t_label),
                           seed, cand_triples, overrides)
    else:
        src_labels, tgt_labels = payload
        sources = [g.node_id(lab) for lab in src_labels]
        targets = [g.node_id(lab) for lab in tgt_labels]
        rec, _ = _run_multi_query(g, cfg, sources, targets, seed, overrides)
    return idx, rec


def _fan_out(tasks, graph_path: str, directed: bool, workers: int):
    """Run tasks across workers; results come back in task order."""
    if workers <= 1:
        _init_worker(graph_path, directed)
        results = [_worker_task(t) for t in tasks]
        _WORKER_STATE.clear()
    else:
        with Pool(workers, initializer=_init_worker,
                  initargs=(graph_path, directed)) as pool:
            results = pool.map(_worker_task, tasks)
    return [rec for _, rec in sorted(results, key=lambda pair: pair[0])]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _directedness(args) -> bool | None:
    # honour the file header unless --undirected forces it
    return False if args.undirected else None


def _cfg_from_args(args, method=None) -> RunConfig:
    return RunConfig(
        graph=args.graph,
        directed=_directedness(args),
        method=method if method is not None else getattr(args, "method", "be"),
        k=args.k, zeta=args.zeta, r=args.r, l=args.l, h=args.h,
        samples=args.samples, seed=args.seed,
        aggregate=getattr(args, "aggregate", "avg"),
        k1_ratio=getattr(args, "k1_ratio", 0.10),
        prob_overrides=getattr(args, "prob_overrides", None),
        candidates=getattr(args, "candidates", None),
        timing=getattr(args, "timing", False),
    )


def _auto_samples(g, pairs, seed: int) -> int:
    method = "mc" if g.m <= 60 else "rss"
    return converged_sample_size(g, pairs, _SAMPLE_GRID, repeats=5,
                                 seed=seed, method=method)


def _cmd_estimate(args) -> int:
    g = load_graph(args.graph, _directedness(args))
    s, t = g.node_id(args.source), g.node_id(args.target)
    samples = args.samples
    if args.auto_samples:
        samples = _auto_samples(g, [(s, t)], args.seed)
        print(f"auto-samples: Z={samples}", file=sys.stderr)
    config = EstimatorConfig(method=args.estimator, samples=samples, seed=args.seed)
    est = estimate(g, s, t, config)
    print(f"R({args.source}, {args.target}) = {_g(est.value)} "
          f"method={est.method} samples={est.samples_used}")
    if args.output:
        cfg = RunConfig(args.graph, k=0, zeta=0.0, r=0, l=0, h=None,
                        samples=est.samples_used)
        _emit_csv([_row(_record(cfg, est.method, est.value, est.value, 0.0, 0, 0))],
                  args.output)
    return 0


def _cmd_improve(args) -> int:
    g = load_graph(args.graph, _directedness(args))
    if args.auto_samples:
        probe = _parse_pair_queries(args.queries)[0] if args.queries \
            else (args.source, args.target)
        pair = (g.node_id(probe[0]), g.node_id(probe[1]))
        args.samples = _auto_samples(g, [pair], args.seed)
        print(f"auto-samples: Z={args.samples}", file=sys.stderr)
    cfg = _cfg_from_args(args)
    if args.queries:
        tasks = [("single", cfg, idx, q)
                 for idx, q in enumerate(_parse_pair_queries(args.queries))]
        rows = [_row(rec) for rec in _fan_out(tasks, args.graph,
                                              _directedness(args), args.workers)]
        _emit_csv(rows, args.output)
    else:
        if args.source is None or args.target is None:
            raise ValueError("need --source and --target (or --queries FILE)")
        s, t = g.node_id(args.source), g.node_id(args.target)
        overrides = _load_overrides(cfg.prob_overrides, g)
        cand_triples = _load_triples(cfg.candidates, g)
        rec, res = run_query(g, cfg, s, t, cfg.seed, cand_triples, overrides)
        _emit_csv([_row(rec)], args.output)
        added = " ".join(f"{g.labels[e.u]}-{g.labels[e.v]}" for e in res.chosen)
        print(f"added: {added if added else '(none)'}", file=sys.stderr)
        _write_trace(args.trace, res, g.labels)
    _log_peak_memory()
    return 0


def _cmd_multi(args) -> int:
    g = load_graph(args.graph, _directedness(args))
    cfg = _cfg_from_args(args, method="be")
    if args.queries:
        tasks = [("multi", cfg, idx, q)
                 for idx, q in enumerate(_parse_multi_queries(args.queries))]
        rows = [_row(rec) for rec in _fan_out(tasks, args.graph,
                                              _directedness(args), args.workers)]
        _emit_csv(rows, args.output)
    else:
        if not args.sources or not args.targets:
            raise ValueError("need --sources and --targets (or --queries FILE)")
        src_labels = [tok for tok in args.sources.split(",") if tok]
        tgt_labels = [tok for tok in args.targets.split(",") if tok]
        sources = [g.node_id(lab) for lab in src_labels]
        targets = [g.node_id(lab) for lab in tgt_labels]
        overrides = _load_overrides(cfg.prob_overrides, g)
        rec, res = _run_multi_query(g, cfg, sources, targets, cfg.seed, overrides)
        _emit_csv([_row(rec)], args.output)
        _write_trace(args.trace, res, g.labels)
    _log_peak_memory()
    return 0


def _parse_family_param(family: str, text: str | None):
    if text is None:
        return None
    if family == "scale_free" and "," in text:
        return tuple(int(tok) for tok in text.split(",") if tok)
    if family == "k_regular":
        return int(text)
    if family == "scale_free":
        return int(text)
    return float(text)


def _cmd_generate(args) -> int:
    spec = GenSpec(args.family, args.nodes,
                   _parse_family_param(args.family, args.param),
                   prob_model=args.prob_model, lo=args.lo, hi=args.hi,
                   mu=args.mu, seed=args.seed)
    g = generate(spec)
    save_graph(g, args.output)
    print(f"wrote {args.output}: n={g.n} m={g.m} family={args.family}",
          file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    methods = [tok for tok in args.methods.split(",") if tok]
    if not methods:
        raise ValueError("need at least one method")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r} (expected one of {METHODS})")
    k_points = [int(tok) for tok in args.k_sweep.split(",") if tok]
    if not k_points:
        raise ValueError("need at least one k value")
    queries = _parse_pair_queries(args.queries)
    rows = []
    for method in methods:
        for k in k_points:
            cfg = RunConfig(
                graph=args.graph, directed=_directedness(args), method=method,
                k=k, zeta=args.zeta, r=args.r, l=args.l, h=args.h,
                samples=args.samples, seed=args.seed,
                prob_overrides=args.prob_overrides, timing=args.timing)
            tasks = [("single", cfg, idx, q) for idx, q in enumerate(queries)]
            recs = _fan_out(tasks, args.graph, _directedness(args), args.workers)
            mean = lambda key: sum(r[key] for r in recs) / len(recs)
            rows.append(_row(_record(cfg, method, mean("base_rel"), mean("new_rel"),
                                     mean("gain"), mean("time_ms"), mean("edges_added"))))
    _emit_csv(rows, args.output)
    _log_peak_memory()
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_graph_flags(p) -> None:
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--undirected", action="store_true",
                   help="treat the graph as undirected regardless of its header")


def _add_tuning_flags(p) -> None:
    p.add_argument("--k", type=int, default=10, help="edge budget")
    p.add_argument("--zeta", type=float, default=0.5, help="candidate edge probability")
    p.add_argument("--r", type=int, default=100, help="pool size per endpoint")
    p.add_argument("--l", type=int, default=30, help="number of top paths")
    p.add_argument("--h", type=_parse_h, default=3,
                   help="hop bound for candidate endpoints, or 'none'")
    p.add_argument("--samples", type=int, default=10_000, help="sample budget Z")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--prob-overrides", default=None,
                   help="file of 'u v prob' candidate probability overrides")
    p.add_argument("--output", default=None, help="CSV destination (default stdout)")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock time_ms (breaks byte-identical output)")
    p.add_argument("--workers", type=int, default=1,
                   help="processes for fanning out --queries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgain",
        description="Reliability estimation and edge selection on uncertain graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="two-terminal reliability of one pair")
    _add_graph_flags(p)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--estimator", choices=("auto", "exact", "mc", "rss"),
                   default="auto")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--auto-samples", action="store_true",
                   help="pick Z by the index-of-dispersion rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("improve", help="select k new edges for one s-t pair")
    _add_graph_flags(p)
    p.add_argument("--method", choices=METHODS, default="be")
    p.add_argument("--source", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--queries", default=None, help="file of 's t' lines")
    p.add_argument("--candidates", default=None,
                   help="file of 'u v prob' explicit candidate edges")
    p.add_argument("--auto-samples", action="store_true")
    p.add_argument("--trace", default=None, help="JSON-lines trace of greedy rounds")
    _add_tuning_flags(p)
    p.set_defaults(func=_cmd_improve)

    p = sub.add_parser("multi", help="improve an aggregate over S x T pairs")
    _add_graph_flags(p)
    p.add_argument("--aggregate", choices=AGGREGATES, default="avg")
    p.add_argument("--sources", default=None, help="comma-separated source labels")
    p.add_argument("--targets", default=None, help="comma-separated target labels")
    p.add_argument("--queries", default=None,
                   help="file of 'S: a,b | T: x,y' lines")
    p.add_argument("--k1-ratio", dest="k1_ratio", type=float, default=0.10,
                   help="installment size as a fraction of k (min/max)")
    p.add_argument("--trace", default=None)
    _add_tuning_flags(p)
    p.set_defaults(func=_cmd_multi)

    p = sub.add_parser("generate", help="write a synthetic uncertain graph")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--param", default=None,
                   help="edge prob / degree / rewire prob / attachments (e.g. 2,3)")
    p.add_argument("--prob-model", choices=PROB_MODELS, default="uniform")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=0.6)
    p.add_argument("--mu", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="sweep methods and budgets over queries")
    _add_graph_flags(p)
    p.add_argument("--methods", required=True, help="comma-separated method names")
    p.add_argument("--k-sweep", dest="k_sweep", required=True,
                   help="comma-separated budgets")
    p.add_argument("--queries", required=True, help="file of 's t' lines")
    _add_tuning_flags(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RelgainError, KeyError, ValueError, OSError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
