#!/usr/bin/env python3
"""Steadiness report: repeats workloads and prints, per end-to-end
metric, the median, the quartiles and the quartile spread against the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--sets 2]

Each run lasts BENCHMARK.json's run_seconds and uses another seed,
counting up from 1. The spread is (q3 - q1) / median, with the
quartiles as statistics.quantiles(values, n=4) gives them; a metric is
steady when its spread is within its bound and, with --sets 2, when the
second set's median is not worse than the first's by more than the
bound. A run with failed operations is reported and makes the report
fail, but its metrics are still shown.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    """Runs the benchmark once; returns its metrics and whether every
    operation succeeded."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    clean = res["correct"] and not res["failed"]
    if not clean:
        print(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} operations failed", flush=True)
    return {k: v["value"] for k, v in res["metrics"].items()}, clean


def worse(metric, first, second):
    """Share by which the second median is worse than the first."""
    if metric["better"] == "lower":
        return second / first - 1
    return first / second - 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2), help="sets of runs to compare")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    passed = True
    for name in names:
        sets = []
        seed = 1
        failed_runs = 0
        for _ in range(args.sets):
            runs = []
            for _ in range(args.runs):
                metrics, clean = run_once(bench, name, seed)
                runs.append(metrics)
                failed_runs += not clean
                seed += 1
            sets.append(runs)
        passed &= failed_runs == 0
        print(f"\n{name}: {args.runs} runs x {args.sets} set(s), {bench['run_seconds']} s each, "
              f"{failed_runs} run(s) with failed operations")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'ratio':>6}  verdict")
        for m in bench["end_to_end"]:
            meds = []
            for runs in sets:
                vals = [r[m["name"]] for r in runs]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2
                ok = spread <= m["bound"]
                verdict = "ok" if ok else "TOO NOISY"
                if ok and spread > m["bound"] / 3:
                    verdict = "ok (above a third of the bound)"
                passed &= ok
                meds.append(q2)
                print(f"  {m['name']:<14} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {m['bound']:6.2f} {spread / m['bound']:6.2f}  {verdict}")
                print(f"  {'':<14} runs: {' '.join(f'{v:.4g}' for v in vals)}")
            if len(meds) == 2:
                w = worse(m, meds[0], meds[1])
                ok = w <= m["bound"]
                passed &= ok
                print(f"  {'':<14} second set median worse by {w:+.3f} (bound {m['bound']}): {'ok' if ok else 'DRIFT'}")
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
