"""Per-call times of whole-graph RSS and MC estimates, with hashes of their answers.

Each row builds one graph of a benchmark workload's family and size and
times, at the workload's Z and for each of the methods rss and mc, one
estimate of R(s, t) (``reliability_rss`` / ``reliability_mc``) and one
reach vector from s (``reliability_all_from``).  A time is the median of
three calls in CPU seconds of this process.  The row also keeps each
estimate, a sha256 of each vector and the tracemalloc peak of one untimed
call of each, so a faster row that answers differently shows up.  From the
repository root::

    PYTHONPATH=src python3 bench/perf.py --out BENCH_14.json           # rows "change"
    PYTHONPATH=../old/src python3 bench/perf.py --out BENCH_14.json --label parent
    PYTHONPATH=src python3 bench/perf.py --out BENCH_14.json --gate    # adds the gate row
    python3 bench/perf.py --out BENCH_14.json --pairs OLD/benchmark/out NEW/benchmark/out
    PYTHONPATH=src python3 bench/perf.py --quick          # small smoke run, prints only

The workload rows take about a minute; the gate row (an ER graph of the
criterion-11 size, n=100k and m=500k, at Z=250) takes a few minutes and
0.5 GB.
``--pairs`` summarises ``benchmark/run.py`` results of two checkouts run on
the same seeds (one ``<workload>-seed<N>-trace0.json`` per run in each
directory) and stores them under ``"pairs"``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPEATS = 3
# (name, generator family, generator parameters, Z); sizes as in benchmark/workloads.py
ROWS = [
    ("gate-er", "erdos_renyi", {"n": 2000, "param": 10 / 1999}, 60),
    ("multi-sw", "small_world", {"n": 250, "lo": 0.3, "hi": 0.9}, 60),
    ("estimate-sf", "scale_free", {"n": 375}, 300),
]
# the criterion-11 size and edge probability (12 digits, as the CLI prints it)
GATE = ("gate", "erdos_renyi",
        {"n": 100_000, "param": float(f"{500_000 / (100_000 * 99_999 / 2):.12g}")}, 250)
QUICK = [("quick-er", "erdos_renyi", {"n": 300, "param": 8 / 299}, 60)]
# answer fields that two runs of the same query must share
ANSWER_KEYS = ("base", "new", "gain", "edges_added", "chosen_sha256", "flags",
               "auto", "auto_method", "auto_samples", "mc", "mc_samples")


def _timed(fn, repeats: int):
    times, out = [], None
    for _ in range(repeats):
        started = time.process_time()
        out = fn()
        times.append(time.process_time() - started)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), out, peak / 2**20


def run_row(name, family, gen, z, repeats=REPEATS, seed=7) -> dict:
    from relgain import generators
    from relgain.estimators import reliability_all_from, reliability_mc, reliability_rss

    g = generators.generate(generators.GenSpec(family, seed=1, **gen))
    s, t = 0, g.n // 2
    row = {"name": name, "n": g.n, "m": g.m, "Z": z, "s": s, "t": t, "seed": seed}
    for method, scalar in (("rss", reliability_rss), ("mc", reliability_mc)):
        scalar_s, est, scalar_mb = _timed(lambda: scalar(g, s, t, z, seed), repeats)
        vector_s, vec, vector_mb = _timed(
            lambda: reliability_all_from(g, s, z, seed, method=method), repeats)
        row.update({
            f"{method}_scalar_s": round(scalar_s, 5), f"{method}_vector_s": round(vector_s, 5),
            f"{method}_scalar_peak_mb": round(scalar_mb, 1),
            f"{method}_vector_peak_mb": round(vector_mb, 1),
            f"{method}_scalar": [est.value, est.variance, est.samples_used],
            f"{method}_vector_sha256": hashlib.sha256(vec.tobytes()).hexdigest(),
        })
    return row


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "clock": "time.process_time"}


def _iqr(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[2] - q[0]


def pairs(old_dir: Path, new_dir: Path) -> dict:
    """Per workload: matched seeds, medians, the old IQR, wins, answer diffs."""
    out = {}
    for new_file in sorted(new_dir.glob("*-trace0.json")):
        old_file = old_dir / new_file.name
        if not old_file.exists():
            continue
        old, new = (json.loads(f.read_text()) for f in (old_file, new_file))
        name = new["environment"]["workload"]
        row = out.setdefault(name, {"seeds": [], "query_s": [], "setup_s": [],
                                    "peak_rss_mb": [], "queries_compared": 0,
                                    "answers_differ": 0, "failed": [0, 0]})
        row["seeds"].append(new["environment"]["seed"])
        for key in ("query_s", "setup_s", "peak_rss_mb"):
            row[key].append([old["metrics"][key]["value"], new["metrics"][key]["value"]])
        row["failed"][0] += sum(bool(q["failures"]) for q in old["queries"])
        row["failed"][1] += sum(bool(q["failures"]) for q in new["queries"])
        done = {(q["graph"], q["index"]): q for q in old["queries"][1:]}
        for q in new["queries"][1:]:
            ref = done.get((q["graph"], q["index"]))
            if ref is not None:
                row["queries_compared"] += 1
                row["answers_differ"] += any(q.get(k) != ref.get(k) for k in ANSWER_KEYS)
    for row in out.values():
        for key in ("query_s", "setup_s", "peak_rss_mb"):
            old = [a for a, _ in row[key]]
            new = [b for _, b in row[key]]
            row[key] = {"old": old, "new": new,
                        "old_median": statistics.median(old),
                        "new_median": statistics.median(new),
                        "old_iqr": _iqr(old),
                        "new_lower": sum(b < a for a, b in zip(old, new))}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", default="change", help="key of the rows in the output")
    parser.add_argument("--gate", action="store_true", help="add the 100k-node gate row")
    parser.add_argument("--quick", action="store_true", help="one small row; print, write nothing")
    parser.add_argument("--pairs", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="summarise paired benchmark/run.py results instead")
    parser.add_argument("--out", type=Path, help="JSON file to update (all but --quick)")
    args = parser.parse_args(argv)
    if args.out is None and not args.quick:
        parser.error("--out is required unless --quick")

    if args.pairs:
        key, value = "pairs", pairs(*args.pairs)
    elif args.quick:
        print(json.dumps({"environment": environment(),
                          "rows": [run_row(*spec, repeats=1) for spec in QUICK]}, indent=1))
        return 0
    else:
        rows = [run_row(*spec) for spec in ROWS + ([GATE] if args.gate else [])]
        key, value = args.label, {"environment": environment(), "rows": rows}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data[key] = value
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(value, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
