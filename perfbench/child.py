"""The measured phase of one workload, in a process of its own.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the workload, seed, time budget, whether to trace, the repository
root (its ``src`` is put on the import path) and where to write the result.
The process imports divrec before timing, runs whole passes until the next
one would overrun the budget (at least one), then writes each pass's
timings, checks and digests, plus its own peak RSS, which therefore
excludes the set-up done by the parent.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import tracing
    import workloads

    import divrec.cli  # noqa: F401  (warm-up: the first pass does not pay for imports)

    workload = workloads.WORKLOADS[spec["workload"]]
    tracer = tracing.Tracer(tracing.MEASURED_WRAPS) if spec["trace"] else None
    passes = []
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        while True:
            pass_start = time.perf_counter()
            passes.append(workload.run_pass(spec["seed"]))
            now = time.perf_counter()
            if now - start + (now - pass_start) > spec["seconds"]:
                break
    if tracer is not None:
        tracer.dump(spec["spans"])
    result = {
        "passes": [asdict(p) for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
