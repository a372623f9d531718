#!/usr/bin/env python3
"""Alternated benchmark pairs of a parent revision against the working tree.

Usage, from the repository root:

    python3 scripts/bench_pairs.py PARENT_REV --out BENCH_N.json [--pairs 10]
        [--seconds 40] [--first-seed 1] [--workload pipeline-480 ...]
    python3 scripts/bench_pairs.py --summary BENCH_N.json [BENCH_M.json ...]

The first form extracts PARENT_REV's committed files into a temporary
directory (``git archive``), then runs ``perfbench/run.py`` on each workload
``--pairs`` times on each side, one benchmark process at a time. Pair k uses
seed ``--first-seed + k``; the parent runs first in even pairs and the working
tree in odd ones. The temporary directory is removed on exit, on SIGINT and on
SIGTERM. The file written holds every run's end-to-end metrics and digests,
each side's median and quartiles per metric (the harness's own,
``perfbench/stats.quartiles``), how many pairs the working tree won on each
metric (in BENCHMARK.json's direction; ties count for neither side), whether
every run failed no operation, whether each pair's two runs gave equal
digests, and the environment block run.py printed for each side's first run.

The file names the working tree as HEAD's commit, "with uncommitted edits"
when a file under ``RUN_PATHS`` differs from HEAD or is new and not ignored.

The second form prints one line per file, workload and metric: each side's
median and quartiles, the median and quartiles of the per-pair ratios (change
over parent), the pairs won, and whether it shows a gain: the change won at
least 9 of 10 pairs and its median is better than the parent's by more than
the parent's q3 - q1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import stats  # perfbench/ is a directory of scripts, not a package

LAYOUT = "bench_pairs/1"
SIDES = ("parent", "change")
# what a run reads of the working tree: an edit elsewhere does not change what it measures
RUN_PATHS = ("src", "perfbench", "BENCHMARK.json")


def run_benchmark(root: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``, ``side``'s checkout: its
    result, digests and environment."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate()
    except BaseException:
        # run.py unwinds on SIGTERM: it stops its own child and removes its scratch directory
        proc.terminate()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} {side}: run.py in {root} exited "
                         f"{proc.returncode}:\n{stderr[-2000:]}")
    lines = stdout.splitlines()
    result = json.loads(lines[-1])

    def prefixed(prefix: str) -> dict:
        return next(json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix))

    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digests": prefixed("digests: "),
        "environment": prefixed("environment: "),
    }


def summarize(runs: dict, directions: dict) -> dict:
    """Per metric: each side's quartiles and the pairs the change won."""
    out = {}
    for name, better in directions.items():
        values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        sign = 1 if better == "lower" else -1
        won = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": better,
                     **{side: dict(zip(("q1", "median", "q3"), stats.quartiles(values[side])))
                        for side in SIDES},
                     "change_won": won, "pairs": len(values["change"])}
    return out


def gain_shown(m: dict) -> bool:
    """Whether one metric's summary shows the change better (see the module doc)."""
    p, c = m["parent"], m["change"]
    sign = 1 if m["better"] == "lower" else -1
    return (10 * m["change_won"] >= 9 * m["pairs"]
            and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"])


def pair_ratios(runs: dict, name: str) -> str:
    """The median and quartiles of one metric's per-pair ratios, change over parent."""
    pairs = [(p["metrics"][name], c["metrics"][name])
             for p, c in zip(runs["parent"], runs["change"])]
    if any(p == 0 for p, _ in pairs):
        return "pair ratio n/a"
    q1, median, q3 = stats.quartiles([c / p for p, c in pairs])
    return f"pair ratio {median:.4g} [{q1:.4g}, {q3:.4g}]"


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def run_paths_edited() -> bool:
    """Whether a file a run reads differs from HEAD, or is new and not ignored."""
    return bool(git("status", "--porcelain", "--", *RUN_PATHS).strip())


def run_pairs(args) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    head = git("rev-parse", "--short", "HEAD").decode().strip()
    record = {
        "layout": LAYOUT,
        "parent": parent,
        "change": head + (" with uncommitted edits" if run_paths_edited() else ""),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "environment": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(git("archive", parent))) as tar:
            tar.extractall(tmp, filter="data")
        roots = {"parent": Path(tmp), "change": ROOT}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            seeds = [args.first_seed + k for k in range(args.pairs)]
            first = [SIDES[k % 2] for k in range(args.pairs)]
            for seed, lead in zip(seeds, first):
                for side in (lead, SIDES[1 - SIDES.index(lead)]):
                    run = run_benchmark(roots[side], side, workload, seed, args.seconds)
                    record["environment"].setdefault(side, run.pop("environment"))
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()),
                          file=sys.stderr)
            record["workloads"][workload] = {
                "seeds": seeds,
                "first": first,
                "runs": runs,
                "metrics": summarize(runs, directions),
                "no_failures": all(r["failed"] == 0 for side in SIDES for r in runs[side]),
                "digests_equal": all(p["digests"] == c["digests"]
                                     for p, c in zip(runs["parent"], runs["change"])),
            }
    return record


def summary_lines(paths: list[str]) -> list[str]:
    lines = []
    for path in paths:
        record = json.loads(Path(path).read_text())
        if record.get("layout") != LAYOUT:
            lines.append(f"{path}: not a {LAYOUT} file; skipped")
            continue
        for workload, entry in record["workloads"].items():
            flags = (f"failures {'none' if entry['no_failures'] else 'SOME'}, "
                     f"digests {'equal' if entry['digests_equal'] else 'DIFFER'}")
            for name, m in entry["metrics"].items():
                p, c = m["parent"], m["change"]
                lines.append(
                    f"{Path(path).name} {record['parent']} {workload} {name} ({m['better']}): "
                    f"parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
                    f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] "
                    f"{pair_ratios(entry['runs'], name)}, won {m['change_won']}/{m['pairs']}, "
                    f"{'gain shown' if gain_shown(m) else 'no gain shown'}; {flags}")
    return lines


def _terminate(signum, frame):
    """Unwind on SIGTERM as on SIGINT, so the temporary checkout is removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="the revision to compare against")
    parser.add_argument("--summary", nargs="+", metavar="FILE",
                        help="print the given files' medians and wins instead")
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: all in BENCHMARK.json)")
    args = parser.parse_args(argv)
    if args.summary:
        try:
            print("\n".join(summary_lines(args.summary)), flush=True)
        except BrokenPipeError:
            # the reader closed the pipe (``| head``): stop quietly, and point
            # stdout at /dev/null so the interpreter's last flush cannot fail too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if not args.parent or not args.out or args.pairs < 1:
        parser.error("pair mode needs PARENT_REV, --out and --pairs of at least 1")
    signal.signal(signal.SIGTERM, _terminate)
    try:
        record = run_pairs(args)
    except KeyboardInterrupt:
        print("interrupted; no file written", file=sys.stderr)
        return 130
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(summary_lines([args.out])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
