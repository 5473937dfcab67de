#!/usr/bin/env python3
"""Run splitc's benchmark over every workload, or report its steadiness.

    python3 perfbench/suite.py                  # each workload once, untraced then traced
    python3 perfbench/suite.py --steady 10      # ten seeds per workload: median, quartiles, spread
    python3 perfbench/suite.py --steady 5 --workload serve

Run from the repository root. The command, workloads, run length and bounds
come from BENCHMARK.json; each run is its own process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    traced = None
    for line in lines:
        if line.startswith("# traced-end-to-end "):
            traced = json.loads(line[len("# traced-end-to-end "):])
    return result, traced, lines


def once(spec, workloads, seconds):
    """Each workload untraced then traced; tracing overhead per metric."""
    for w in workloads:
        plain, _, lines = run(spec, w, 1, seconds, 0)
        print(lines[0])
        print(f"== {w}: correct={plain['correct']} attempted={plain['attempted']} failed={plain['failed']}")
        # The workload's own figures behind round_ms, from the table before the metrics.
        start = lines.index("# workload figures (not in the result)")
        for line in lines[start + 1:lines.index("# end-to-end metrics")]:
            print(" ", line[2:].strip())
        traced_layers, traced, traced_lines = run(spec, w, 1, seconds, 1)
        for name, m in plain["metrics"].items():
            t = traced.get(name, {}).get("value") if traced else None
            overhead = f"{(t / m['value'] - 1) * 100:+7.2f}% traced" if t and m["value"] else ""
            print(f"  {name:<20} {m['value']:>16.4f} {m['unit']:<8} {overhead}")
        print(f"  per-layer metrics ({len(traced_layers['metrics'])}, traced run):")
        for name, m in traced_layers["metrics"].items():
            print(f"    {name:<34} {m['value']:>16.4f} {m['unit']}")
        for line in traced_lines:
            if line.startswith("# trace file") or line.startswith("# pearson"):
                print(" ", line[2:])


def steady(spec, workloads, seconds, runs):
    """Median, quartiles and spread of every end-to-end metric over seeds."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        values, shares = {}, set()
        for seed in range(1, runs + 1):
            result, _, _ = run(spec, w, seed, seconds, 0)
            if not result["correct"]:
                print(f"  {w} seed {seed}: checks failed")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            if bound is None:
                verdict = "no bound"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
            print(f"  {name:<18} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} "
                  f"{bound if bound is not None else '-':>6}  {verdict}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--steady", type=int, metavar="RUNS", help="runs per workload, one seed each")
    p.add_argument("--workload", choices=names, action="append", help="only this workload (repeatable)")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    workloads = args.workload or names
    if args.steady:
        steady(spec, workloads, args.seconds, args.steady)
    else:
        once(spec, workloads, args.seconds)


if __name__ == "__main__":
    main()
