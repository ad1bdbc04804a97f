#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload shape-reports --seeds 1-10 [--out FILE]

For each end-to-end metric (or per-layer metric with --trace 1) prints the
median, the quartiles from `statistics.quantiles(values, n=4)` and the
spread (q3 - q1) / median, next to the metric's bound from BENCHMARK.json.
Runs are sequential; --out writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range 1-10 or a list 1,5,9")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        command = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        machine = next(json.loads(line.split(": ", 1)[1]) for line in proc.stdout.splitlines()
                       if line.startswith("machine: "))
        runs.append({"seed": seed, "machine": machine, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    names = list(runs[0]["metrics"])
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        summary[name] = summarize(values) if len(values) > 1 else {"median": values[0]}
        s = summary[name]
        bound = bounds.get(name)
        print(f"{name:40s} median {s['median']:<12.6g} spread {s.get('spread', 0):.3f}"
              + (f"  bound {bound}" if bound is not None and args.trace == 0 else ""))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "seconds": seconds, "trace": args.trace,
            "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
