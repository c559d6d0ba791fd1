"""Steadiness check: repeat one workload in fresh processes, seeds 1..runs.

    python3 perfbench/steady.py --workload search --runs 10 [--sets 2]

For every end-to-end metric in BENCHMARK.json this prints the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and
that spread as a share of the metric's bound.  With --sets 2 a second set
of runs on the same seeds follows; its spread is printed too, and the
change of its median against the first set's as a share of the first
median (positive = worse).  Use it to set the bounds and to show that two
sets of runs agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: {result['failed']} failed ops\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(spec: dict, runs: list[dict]) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = (med, q1, q3, (q3 - q1) / med)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, args.workload, seed, seconds))
            print(f"set {s + 1} seed {seed}: " + json.dumps(runs[-1]), flush=True)
        sets.append(summarize(spec, runs))
    print(f"{args.workload}: {args.runs} runs x {args.sets} set(s) of {seconds} s")
    print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
          f"{'bound':>6s} {'spr/bd':>7s}"
          + (f" {'spread2':>8s} {'spr2/bd':>7s} {'shift':>8s}" if args.sets == 2 else ""))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        bound = metric["bound"]
        med, q1, q3, spread = sets[0][name]
        line = (f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                f"{bound:6.3f} {spread / bound:7.3f}")
        if args.sets == 2:
            med2, _, _, spread2 = sets[1][name]
            shift = (med2 - med) / med
            if metric["better"] == "higher":
                shift = -shift
            line += f" {spread2:8.4f} {spread2 / bound:7.3f} {shift:8.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
