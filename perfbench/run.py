"""Closed-loop benchmark of the ``glal`` command line.

    python3 perfbench/run.py --workload muddy_global --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the program is imported from
``./src``.  One client calls ``glal.cli.main(argv)`` in this process with
the argv a user would type, waits for it to return, checks the verdict
and sends the next query.  The workload's seeded query list is cycled in
whole passes until ``--seconds`` have passed and the run holds enough
queries for its tail percentile.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Inputs are written under ``.perfbench-out/`` and removed
at the end; per-run results and span files stay there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import tracing
import workloads

OUT_DIR = ".perfbench-out"
# setup_s is the median of this many set-ups, spread over the run: the
# machine's speed drifts over seconds, and a burst of set-ups at the start
# would sample one moment of it.
SETUP_REPEATS = 9


def setup(workload: str, seed: int, workdir: str):
    """Import glal afresh and generate the inputs.

    Returns (seconds, cli module, queries, the glal modules imported before).
    """
    saved = {m: sys.modules.pop(m) for m in list(sys.modules)
             if m == "glal" or m.startswith("glal.")}
    start = time.perf_counter()
    cli = importlib.import_module("glal.cli")
    queries = workloads.build(workload, seed, workdir)
    return time.perf_counter() - start, cli, queries, saved


def extra_setup(workload: str, seed: int, workdir: str) -> float:
    """One more timed set-up, after which the running glal modules are restored."""
    elapsed, _, _, saved = setup(workload, seed, workdir)
    for name in [m for m in sys.modules if m == "glal" or m.startswith("glal.")]:
        del sys.modules[name]
    sys.modules.update(saved)
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()  # the discarded modules are our garbage; keep it out of the queries
    return elapsed


def run_query(cli, query, tracer=None):
    """One call of ``glal.cli.main``: (seconds, verdict ok)."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    if tracer:
        tracer.begin_query()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(query.argv))
        except Exception:  # a crash is a failed query, not a failed run
            pass
        elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_query(out.getvalue())
    try:
        ok = rc is not None and query.check(rc, out.getvalue())
    except Exception:
        ok = False
    return elapsed, ok


def tail(values: list, pct) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "glal", "cli.py")):
        sys.stderr.write("perfbench: no src/glal here; run from the root of a glal checkout\n")
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        elapsed, cli, queries, _ = setup(args.workload, args.seed, os.path.join(workdir, "0"))
        setup_times = [elapsed]
        if not os.path.realpath(cli.__file__).startswith(os.path.realpath(root)):
            sys.stderr.write(f"perfbench: imported glal from {cli.__file__}, not ./src\n")
            return 2
        for query in queries:  # warm-up pass, not measured
            run_query(cli, query)
        tracer = tracing.Tracer() if args.trace else None
        times, traced_times = [], []
        attempted = failed = passes = 0
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and passes % 2 == 1
            if traced:
                tracer.install()
            try:
                for query in queries:
                    elapsed, ok = run_query(cli, query, tracer if traced else None)
                    (traced_times if traced else times).append(elapsed)
                    attempted += 1
                    failed += not ok
            finally:
                if traced:
                    tracer.uninstall()
            passes += 1
            done = (time.perf_counter() - begin) / args.seconds
            while len(setup_times) < SETUP_REPEATS and done >= len(setup_times) / SETUP_REPEATS:
                setup_times.append(extra_setup(
                    args.workload, args.seed, os.path.join(workdir, str(len(setup_times)))))
            if done < 1:
                continue
            if tracer is None and len(times) >= workload.min_queries:
                break
            if tracer is not None and passes % 2 == 0:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "query_p50_ms": 1000.0 * statistics.median(times),
            "query_tail_ms": 1000.0 * tail(times, workload.tail_pct),
            "queries_per_s": len(times) / sum(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {
            name: {"value": value, "unit": unit}
            for (name, value), unit in zip(metrics.items(), ("ms", "ms", "1/s", "s", "MiB"))
        }
    else:
        overhead = (sum(traced_times) / len(traced_times)) / (sum(times) / len(times))
        metrics = tracer.metrics(overhead)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, "queries_per_pass": len(queries),
              "tail_pct": float(workload.tail_pct), "setup_times_s": setup_times}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", name + ".json"), "w", encoding="utf-8") as handle:
        json.dump(dict(detail, result=result), handle, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, "traces", args.workload + ".spans"), detail)
    sys.stderr.write(json.dumps(detail) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
