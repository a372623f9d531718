"""Span tracing around the calls into divrec's modules, without editing them.

A ``Tracer`` swaps public functions, as the calling module sees them (for
example ``divrec.cli.reduce_noise`` or ``divrec.training.adam_step``), for
transparent wrappers. Each call records a span: name, start, end, parent span
and thread, plus a few counters (bytes, rows). Spans stay in memory and are
written out once, when the run ends.

A span opened on a thread with no open span of its own (a worker of a CLI
thread pool) takes as parent the innermost span open on the thread that
created the tracer, so pool work is attributed to the CLI stage that started
the pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field

# The layers are divrec's modules; ``errors`` holds only exception classes.
LAYERS = ("cli", "manifest", "audio_io", "preprocess", "features", "network",
          "training", "evaluation", "fixture")

CLI_COMMANDS = ("scan", "preprocess", "extract", "train", "evaluate")
POOL_STAGES = ("cli.preprocess", "cli.extract")


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "infer")
    return f"network.forward_{mode}"


# (module, attribute, span name or namer, counters(args, kwargs) -> dict)
# The span's layer is the part of its name before the first dot.
MEASURED_WRAPS = (
    *(("divrec.cli", f"cmd_{c}", f"cli.{c}", None) for c in CLI_COMMANDS),
    ("divrec.cli", "scan_corpus", "manifest.scan", None),
    ("divrec.cli", "read_manifest", "manifest.read_manifest", None),
    ("divrec.cli", "write_manifest", "manifest.write_manifest", None),
    ("divrec.cli", "ingest", "audio_io.ingest", None),
    ("divrec.audio_io", "read_wav", "audio_io.read_wav",
     lambda a, k: {"bytes_read": _path_bytes(a[0] if a else k.get("path"))}),
    ("divrec.cli", "write_wav", "audio_io.write_wav",
     lambda a, k: {"bytes_written": _path_bytes(a[1] if len(a) > 1 else k.get("path"))}),
    ("divrec.cli", "segment", "preprocess.segment", None),
    ("divrec.cli", "reduce_noise", "preprocess.reduce_noise", None),
    ("divrec.cli", "build_filterbank", "features.build_filterbank", None),
    ("divrec.cli", "extract", "features.extract", None),
    ("divrec.cli", "aggregate", "features.aggregate", None),
    ("divrec.cli", "write_feature_cache", "features.cache_write", None),
    ("divrec.cli", "read_feature_cache", "features.cache_read", None),
    ("divrec.cli", "load_model", "network.load_model", None),
    ("divrec.cli", "save_model", "network.save_model", None),
    ("divrec.training", "init_params", "network.init_params", None),
    ("divrec.training", "forward", _forward_name, lambda a, k: {"rows": _rows(a[0])}),
    ("divrec.evaluation", "forward", _forward_name, lambda a, k: {"rows": _rows(a[0])}),
    ("divrec.training", "backward", "network.backward", None),
    ("divrec.training", "adam_step", "training.adam_step", None),
    ("divrec.cli", "train", "training.train", None),
    ("divrec.cli", "split_dataset", "training.split_dataset", None),
    ("divrec.training", "split_dataset", "training.split_dataset", None),
    ("divrec.cli", "write_metrics_csv", "training.write_metrics_csv", None),
    ("divrec.cli", "evaluate", "evaluation.evaluate", None),
)

SETUP_WRAPS = (
    ("divrec.fixture", "make_fixture", "fixture.make_fixture", None),
    ("divrec.fixture", "synthesize_utterance", "fixture.synthesize", None),
    ("divrec.fixture", "write_wav", "fixture.write_wav",
     lambda a, k: {"bytes_written": _path_bytes(a[1] if len(a) > 1 else k.get("path"))}),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, wraps, clock=time.perf_counter):
        self.wraps = wraps
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            home = self._home_stack
            parent = home[-1].id if home else None
        with self._lock:
            span = Span(id=len(self.spans), name=name, start=0.0, parent=parent,
                        thread=threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def wrap(self, func, name, counters=None):
        """A wrapper that records one span per call and returns what ``func`` returns."""
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(namer(args, kwargs))
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)
                if counters is not None:
                    span.counters = counters(args, kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, counters in self.wraps:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(original, name, counters))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        payload = {"missing": self.missing, "spans": [asdict(s) for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def load_spans(path) -> tuple[list[Span], list[str]]:
    with open(path) as fh:
        payload = json.load(fh)
    return [Span(**s) for s in payload["spans"]], payload["missing"]


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children on other threads may overlap each other; their union is what
    is subtracted, so a stage whose two workers are both busy has no self time.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = s.duration - covered_length(clipped)
    return out


# per-call timings reported as <name>_ms plus a <name>_calls count
TIMED_CALLS = (
    "manifest.scan", "manifest.read_manifest", "manifest.write_manifest",
    "audio_io.ingest", "audio_io.read_wav", "audio_io.write_wav",
    "preprocess.segment", "preprocess.reduce_noise",
    "features.build_filterbank", "features.extract", "features.aggregate",
    "features.cache_write", "features.cache_read",
    "network.forward_train", "network.forward_infer", "network.backward",
    "network.load_model", "network.save_model", "network.init_params",
    "training.adam_step", "training.split_dataset", "training.train",
    "training.write_metrics_csv",
    "evaluation.evaluate",
    "fixture.make_fixture", "fixture.synthesize", "fixture.write_wav",
)


def per_layer_metrics(spans: list[Span], passes: int, pool_workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from one traced run, normalized to one pass.

    Counts, byte totals, stage seconds and self times are per pass; ``*_ms``
    is milliseconds per call; ``*_rows`` is rows per call.
    """
    passes = max(passes, 1)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED_CALLS:
        group = by_name.get(name, [])
        calls = len(group)
        busy = sum(s.duration for s in group)
        metrics[f"{name}_ms"] = (1000.0 * busy / calls if calls else 0.0, "ms")
        metrics[f"{name}_calls"] = (calls / passes, "count")
    for name in ("network.forward_train", "network.forward_infer"):
        group = by_name.get(name, [])
        rows = sum(s.counters.get("rows", 0) for s in group)
        metrics[f"{name}_rows"] = (rows / len(group) if group else 0.0, "count")

    metrics["training.steps"] = metrics.pop("training.adam_step_calls")
    train_spans = by_name.get("training.train", [])
    metrics["training.train_self_ms"] = (
        1000.0 * sum(selfs[s.id] for s in train_spans) / passes, "ms")
    metrics["audio_io.bytes_read"] = (
        sum(s.counters.get("bytes_read", 0) for s in by_name.get("audio_io.read_wav", [])) / passes,
        "B")
    metrics["audio_io.bytes_written"] = (
        sum(s.counters.get("bytes_written", 0) for s in by_name.get("audio_io.write_wav", []))
        / passes, "B")

    for command in CLI_COMMANDS:
        group = by_name.get(f"cli.{command}", [])
        metrics[f"cli.{command}_s"] = (sum(s.duration for s in group) / passes, "s")

    # share of worker capacity the CLI thread pools spend inside layer calls
    stages = [s for name in POOL_STAGES for s in by_name.get(name, [])]
    stage_ids = {s.id: s for s in stages}
    busy = sum(s.duration for s in spans
               if s.parent in stage_ids and s.thread != stage_ids[s.parent].thread)
    capacity = pool_workers * sum(s.duration for s in stages)
    metrics["cli.pool_busy_share"] = (busy / capacity if capacity else 0.0, "share")

    for layer in LAYERS:
        total = sum(selfs[s.id] for s in spans if s.layer == layer)
        metrics[f"{layer}.self_ms"] = (1000.0 * total / passes, "ms")
    return metrics


def observed_layers(spans: list[Span]) -> set[str]:
    return {s.layer for s in spans}
