"""Steadiness check: two sets of runs per workload, compared within the bounds.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...] [--first-seed 1]

Run it from the root of a checkout.  For each workload of BENCHMARK.json
it makes ``--runs`` runs of the benchmark command with seeds first-seed,
first-seed+1, ... (set A), then as many with the seeds that follow (set
B), one process at a time.  For every end-to-end metric it prints each
set's median and quartiles (``statistics.quantiles(n=4)``), the spread
(quartile distance over median) and two verdicts:

* ``spread``: each set's spread is within the metric's bound (setup_s is
  exempt) and ``tight`` when it is also within a third of it;
* ``agree``: set B's median is not worse than set A's by more than the bound.

It also compares the share of failed queries of the two sets, which must
be equal.  The exit code is 0 when everything holds.  All run results go
to ``.perfbench-out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    report, all_ok = {}, True
    for workload in names:
        sets = []
        for s in range(2):
            first = args.first_seed + s * args.runs
            runs = []
            for seed in range(first, first + args.runs):
                runs.append(run_once(bench["command"], workload, seed, bench["run_seconds"]))
                sys.stderr.write(f"{workload} seed {seed}: {json.dumps(runs[-1])}\n")
            sets.append(runs)
        report[workload] = sets
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"{workload}: failed share A {shares[0]:.6f} B {shares[1]:.6f}, "
              f"all correct: {correct}")
        all_ok &= shares[0] == shares[1] and correct
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = (summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets)
            worse = (b["median"] - a["median"]) / a["median"]
            if metric["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            widest = max(a["spread"], b["spread"])
            spread_ok = name == "setup_s" or widest <= bound
            tight = name == "setup_s" or widest <= bound / 3
            all_ok &= agree and spread_ok
            print(f"  {name:14s} bound {bound:.2f}  "
                  f"A {a['median']:10.4f} [{a['q1']:.4f}, {a['q3']:.4f}] spread {a['spread']:.3f}  "
                  f"B {b['median']:10.4f} [{b['q1']:.4f}, {b['q3']:.4f}] spread {b['spread']:.3f}  "
                  f"B worse by {worse:+.3f}  spread {'ok' if spread_ok else 'WIDE'}"
                  f"{' tight' if tight else ''}  agree {'yes' if agree else 'NO'}")
        sys.stdout.flush()
    os.makedirs(".perfbench-out", exist_ok=True)
    with open(os.path.join(".perfbench-out", "steady.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
