#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each end-to-end metric.

Usage, from the repository root:

    python3 perfbench/collect.py --seeds 1-10 [--workloads pipeline-480 ...]
        [--trace-seed 1] [--out perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json. With
``--trace-seed`` it adds one traced run per workload and its per-layer table,
and checks that its output digests equal those of the untraced run of the
same seed in another process. ``--out`` writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def digests(lines: list[str]) -> dict:
    return json.loads(next(l for l in lines if l.startswith("digests: ")).split(": ", 1)[1])


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], float]:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1], elapsed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {"seeds": seed_list(args.seeds), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs, durations, run_digests = [], [], {}
        for seed in summary["seeds"]:
            result, lines, elapsed = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            durations.append(elapsed)
            run_digests[seed] = digests(lines)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        entry = {"environment": json.loads(lines[0].split(": ", 1)[1]),
                 "run_seconds_per_run": stats.quartiles(durations),
                 "all_correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "digests": run_digests,
                 "end_to_end": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = stats.quartiles(values)
            spread = stats.relative_spread(values)
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": values}
            print(f"  {metric:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds.get(metric)}", flush=True)
        if args.trace_seed is not None:
            result, lines, elapsed = run_once(workload, args.trace_seed, args.seconds, 1)
            untraced = run_digests.get(args.trace_seed)
            entry["traced"] = {"seed": args.trace_seed, "correct": result["correct"],
                               "digests_equal_untraced_run": (
                                   None if untraced is None else untraced == digests(lines)),
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                               "notes": [l for l in lines if l.startswith("not observed")]}
            print(f"  traced seed {args.trace_seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  f"digests equal untraced run: {entry['traced']['digests_equal_untraced_run']}",
                  flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
