#!/usr/bin/env python3
"""divrec benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-480 --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``pipeline-480`` and ``train-paper``. The
parent process makes the inputs from the seed (set-up,
timed at least ``SETUP_MIN_RUNS`` times and for at least ``SETUP_MIN_SECONDS``
in all, so that a set-up of a fraction of a second still gives a steady
median), then runs the measured phase in a child process so
that the phase's peak RSS excludes set-up. Every outcome is checked; each
mismatch, including a digest that differs between repeated set-ups, passes
or the traced and untraced runs, counts as a failed operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` sets up once with
the fixture layer traced, runs the phase untraced and then traced, and
reports per-layer metrics plus the tracing overhead (traced minus untraced
``wall_s``).

The last line of standard output is the JSON result. Scratch files live
under ``.perfbench_work/`` in the repository root and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 2.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "accuracy": "share",
                    "disk_written_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(work: Path, args, trace: bool, deadline: float) -> dict:
    tag = "traced" if trace else "plain"
    spec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "root": str(ROOT),
        "result": str(work / f"result-{tag}.json"), "spans": str(work / f"spans-{tag}.json"),
    }
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=work, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measured phase overran the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"measured phase exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add_passes(self, passes) -> None:
        for p in passes:
            self.attempted += p["attempted"]
            self.failures += p["failures"]

    def same(self, what: str, first, other) -> None:
        self.attempted += 1
        if other != first:
            self.failures.append(f"{what} differs: {first} vs {other}")


def op_seconds(phase: dict) -> list[float]:
    return [s for p in phase["passes"] for s in p["op_seconds"]]


def check_repeatable(tally: Tally, phase: dict, label: str) -> None:
    first = phase["passes"][0]
    for k, p in enumerate(phase["passes"][1:], 1):
        tally.same(f"{label} pass {k} digests", first["digests"], p["digests"])
        tally.same(f"{label} pass {k} accuracy", first["accuracy"], p["accuracy"])
        tally.same(f"{label} pass {k} bytes written",
                   first["disk_written_bytes"], p["disk_written_bytes"])


def measure(workload, args, work: Path, deadline: float, tally: Tally):
    """Untraced run: set up repeatedly, then the measured phase."""
    import stats

    setup_seconds, digests = [], []
    while len(setup_seconds) < SETUP_MIN_RUNS or sum(setup_seconds) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        workload.setup(args.seed)
        setup_seconds.append(time.perf_counter() - start)
        digests.append(workload.input_digest())
    for k, digest in enumerate(digests[1:], 1):
        tally.same(f"set-up {k} inputs", digests[0], digest)

    phase = run_child(work, args, trace=False, deadline=deadline)
    tally.add_passes(phase["passes"])
    check_repeatable(tally, phase, "untraced")
    ops = op_seconds(phase)
    metrics = {
        "setup_s": stats.quartiles(setup_seconds)[1],
        "wall_s": stats.percentile(ops, 50),
        "peak_rss_mb": phase["peak_rss_mb"],
        "accuracy": phase["passes"][0]["accuracy"],
        "disk_written_mb": phase["passes"][0]["disk_written_bytes"] / 1e6,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, phase


def measure_traced(workload, args, work: Path, deadline: float, tally: Tally):
    """Traced run: per-layer metrics, tracing overhead, digest equality."""
    import stats
    import tracing
    from workloads import POOL_WORKERS

    with tracing.Tracer(tracing.SETUP_WRAPS) as setup_tracer:
        workload.setup(args.seed)
    plain = run_child(work, args, trace=False, deadline=deadline)
    traced = run_child(work, args, trace=True, deadline=deadline)
    for phase, label in ((plain, "untraced"), (traced, "traced")):
        tally.add_passes(phase["passes"])
        check_repeatable(tally, phase, label)
    tally.same("traced vs untraced digests",
               plain["passes"][0]["digests"], traced["passes"][0]["digests"])

    spans, missing = tracing.load_spans(work / "spans-traced.json")
    metrics = tracing.per_layer_metrics(spans, len(traced["passes"]), POOL_WORKERS)
    setup_metrics = tracing.per_layer_metrics(setup_tracer.spans, 1, POOL_WORKERS)
    metrics.update({k: v for k, v in setup_metrics.items() if k.startswith("fixture.")})

    plain_wall = stats.percentile(op_seconds(plain), 50)
    overhead = stats.percentile(op_seconds(traced), 50) - plain_wall
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / plain_wall, "share")

    seen = tracing.observed_layers(spans) | tracing.observed_layers(setup_tracer.spans)
    not_observed = [layer for layer in tracing.LAYERS if layer not in seen]
    return metrics, traced, not_observed, missing + setup_tracer.missing


def report_lines(workload, args, metrics, phase, tally: Tally) -> list[str]:
    """Report lines printed before the result; they also name val_accuracy, the pass times, …"""
    ops = op_seconds(phase)
    passes = phase["passes"]
    lines = [f"workload {workload.name}: seed {args.seed}, {len(passes)} pass(es), "
             f"{len(ops)} timed operation(s)"]
    lines += [f"  {name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    share = len(tally.failures) / tally.attempted
    lines.append(f"  failed_share = {share!r} of ops_attempted = {tally.attempted}")
    lines.append(f"  pass_s = {ops!r}")
    lines.append(f"  val_accuracy = {passes[0]['accuracy']!r}")
    lines.append("digests: " + json.dumps(passes[0]["digests"], sort_keys=True))
    return lines


def _terminate(signum, frame):
    """On SIGTERM unwind as on an error: the running child is killed and waited for,
    and the scratch directory is removed."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "divrec" / "__init__.py").is_file():
        print(f"error: no divrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    fresh = workloads.fresh_dir(work)
    tally = Tally()
    lines = ["environment: " + json.dumps(
        envinfo.environment(ROOT, args.seed, workloads.POOL_WORKERS), sort_keys=True)]
    signal.signal(signal.SIGTERM, _terminate)
    os.chdir(fresh)
    try:
        if args.trace:
            metrics, phase, not_observed, missing = measure_traced(
                workload, args, work, deadline, tally)
            lines += report_lines(workload, args, metrics, phase, tally)
            lines.append(f"not observed: layers {not_observed or 'none'}; "
                         f"wrapped names gone {missing or 'none'}")
        else:
            metrics, phase = measure(workload, args, work, deadline, tally)
            lines += report_lines(workload, args, metrics, phase, tally)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for reason in tally.failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
