"""relgain benchmark: one workload per process, closed loop, one client.

Usage, from the repository root::

    python3 benchmark/run.py --workload gate-er --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in.
The run generates its inputs from the seed (untimed), loads the input
graphs from their edge files (the timed set-up), warms up with one query, and
then issues queries one after another until ``--seconds`` have passed.  Times
are CPU seconds of the process (``spans.clock``).  Every query's outputs
are recorded and checked; an independent judge (``judge.py``) evaluates
them after the timed loop.  The last stdout line is the JSON result.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` spends the first half of the time untraced and then repeats the same
queries with every layer boundary wrapped (``layers.py``), and reports the
per-layer metrics plus the tracing overhead.  Records and spans go to
``benchmark/out/``.
"""
from __future__ import annotations

import os

# Cap native thread pools before numpy loads; the machine has few cores and
# the benchmark is a single client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import clock  # noqa: E402  (this directory is first on the path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is the median of samples spread over the whole run, each loading
# every input graph once: SETUP_REPEATS samples before the loop and one after
# every query.  The machine's speed drifts over seconds, and one block of
# loads would measure a single moment of it.
SETUP_REPEATS = 3
# queries screened per graph; the loop cycles through them if it runs out
MAX_QUERIES = 64


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put the checkout's ``src/`` and this directory first on the path."""
    src = ROOT / "src"
    if not (src / "relgain" / "__init__.py").is_file():
        _fail(f"no relgain package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _sub_seed(seed: int, tag: str) -> int:
    return int(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]).generate_state(1)[0])


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(name: str, seed: int, seconds, trace: int, params: dict) -> dict:
    """Machine, versions, commit and every parameter, stored with each result."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git_commit": _git_commit(), "workload": name, "seed": seed,
        "seconds": seconds, "trace": trace, "params": params,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_all(rgraph, edge_files, times: list) -> list:
    """Load every edge file once, appending the time it took to `times`."""
    started = clock()
    graphs = [rgraph.load_graph(f) for f in edge_files]
    times.append(clock() - started)
    return graphs


def _attempt(workload, graphs, q):
    from workloads import Outcome
    g = graphs[q.graph]
    started = clock()
    try:
        result = workload.run(g, q)
    except Exception as exc:  # an operation failure is counted, not fatal
        result = exc
    out = Outcome(q, clock() - started)
    if isinstance(result, Exception):
        out.failures.append(f"{type(result).__name__}: {result}")
        out.error = "".join(traceback.format_exception(result))
    else:
        workload.record(g, out, result)
    return out


def _loop(workload, graphs, queries, seconds: float, after) -> list:
    """Closed loop: the next query starts when the previous one returns.

    after() runs between queries, outside their timing.
    """
    outcomes = []
    started = time.perf_counter()
    for q in itertools.cycle(queries):
        if outcomes and time.perf_counter() - started >= seconds:
            break
        outcomes.append(_attempt(workload, graphs, q))
        after()
    return outcomes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    import_program()
    from relgain import graph as rgraph
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(workload.name, args.seed, args.seconds, args.trace,
                      workload.params())
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"

    tracer = None
    if args.trace:
        from layers import instrument
        from spans import Tracer
        tracer = Tracer()
        instrument(tracer)

    edge_files, sizes, loads = [], [], []
    for j in range(workload.graphs):
        g0 = workload.graph(_sub_seed(args.seed, f"graph-{j}"))  # input, untimed
        edge_files.append(OUT / f"{stem.name}-g{j}.edges")
        rgraph.save_graph(g0, edge_files[-1])
        sizes.append(g0.m)
    for _ in range(SETUP_REPEATS):
        graphs = _load_all(rgraph, edge_files, loads)
    if [g.m for g in graphs] != sizes:
        _fail("a loaded graph differs from the generated one")
    # node ids follow first appearance in the file, so pairs come from the loaded graph
    per_graph = [workload.queries(g, j, _sub_seed(args.seed, f"screen-{j}"), MAX_QUERIES)
                 for j, g in enumerate(graphs)]
    # interleaved, so every stretch of the loop visits every graph
    queries = [q for batch in zip(*per_graph) for q in batch]

    def reload():
        _load_all(rgraph, edge_files, loads)

    outcomes = [_attempt(workload, graphs, queries[-1])]  # warm-up, untimed
    if tracer is None:
        outcomes += _loop(workload, graphs, queries, args.seconds, reload)
    else:
        tracer.restore()
        plain = _loop(workload, graphs, queries, args.seconds / 2, reload)
        instrument(tracer)
        traced = []
        for i, o in enumerate(plain):  # the same queries again, traced
            tracer.query = i
            traced.append(_attempt(workload, graphs, o.query))
        tracer.query = None
        tracer.restore()
        outcomes += plain + traced
    peak = peak_rss_mb()
    for edge_file in edge_files:
        edge_file.unlink()

    for j, g in enumerate(graphs):
        workload.judge(g, _sub_seed(args.seed, f"judge-{j}"),
                       [o for o in outcomes if o.query.graph == j])
    timed = outcomes[1:] if tracer is None else plain
    times = [o.seconds for o in timed]
    failed = [o for o in outcomes if o.failures]

    if tracer is None:
        metrics = {
            "query_s": _metric(statistics.median(times), "s"),
            "setup_s": _metric(statistics.median(loads), "s"),
            "peak_rss_mb": _metric(peak, "MB"),
        }
    else:
        from layers import SHOULD_MOVE, UNITS, layer_metrics
        gains = [o.record["judged_gain"] for o in traced if "judged_gain" in o.record]
        values = layer_metrics(tracer, min(g.n for g in graphs), len(traced), gains)
        values["trace.overhead_s"] = (statistics.median(o.seconds for o in traced)
                                      - statistics.median(times))
        metrics = {k: _metric(v, UNITS.get(k, "s")) for k, v in values.items()}

    report = {
        "environment": env,
        "setup_loads_s": loads,
        "queries": [{"graph": o.query.graph, "index": o.query.index,
                     "sources": o.query.sources,
                     "targets": o.query.targets, "seed": o.query.seed,
                     "seconds": o.seconds, **o.record, "failures": o.failures,
                     "error": o.error}
                    for o in outcomes],
        "metrics": metrics,
    }
    if tracer is not None:
        report["should_move"] = SHOULD_MOVE
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1, default=str))
    if tracer is not None:
        stem.with_suffix(".spans.json").write_text(json.dumps(tracer.dump()))

    # the highest percentile with at least ten timed queries beyond it
    print(f"workload {workload.name}  seed {args.seed}  timed queries {len(times)}"
          f"  set-up loads {len(loads)}")
    if len(times) >= 20:
        pct = int(100 - 1000 / len(times))
        value = statistics.quantiles(times, n=100)[pct - 1]
        print(f"query_s p{pct} {value:.6g} s")
    for o in failed:
        print(f"FAILED graph {o.query.graph} query {o.query.index}: "
              f"{'; '.join(o.failures)}")
    print(f"fail_frac {len(failed) / len(outcomes):.4f}  ({len(failed)} of {len(outcomes)})")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
