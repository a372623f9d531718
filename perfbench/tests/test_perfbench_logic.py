"""Tests of the benchmark's own logic: generators, statistics, tracing.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import shutil
import statistics
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import stats
import tracing
import workloads
from tracing import Span


# --- workload generators ---

def test_train_paper_records_depend_only_on_seed():
    gen = workloads.TrainPaper()
    first, again, other = gen.records(5), gen.records(5), gen.records(6)
    assert len(first) == sum(gen.class_sizes) == 16730
    assert all((a.vector == b.vector).all() and a.label == b.label and a.source_id == b.source_id
               for a, b in zip(first, again))
    assert any((a.vector != b.vector).any() for a, b in zip(first, other))


def _digest_after_setup(workload, directory, seed, monkeypatch):
    directory.mkdir()
    monkeypatch.chdir(directory)
    workload.setup(seed)
    return workload.input_digest()


def test_pipeline_setup_is_deterministic(tmp_path, monkeypatch):
    small = workloads.Pipeline480()
    small.speakers_per_class, small.file_seconds = 1, 9.0
    a = _digest_after_setup(small, tmp_path / "a", 3, monkeypatch)
    b = _digest_after_setup(small, tmp_path / "b", 3, monkeypatch)
    c = _digest_after_setup(small, tmp_path / "c", 4, monkeypatch)
    assert a == b != c
    # 8 valid files plus the short clip and the truncated WAV
    assert len(small.expected_inputs()) == 10


# --- statistics ---

def test_percentile_matches_hand_computed_values():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([10, 20, 30, 40, 50], 90) == pytest.approx(46.0)
    assert stats.percentile([10, 20, 30, 40, 50], 0) == 10
    assert stats.percentile([10, 20, 30, 40, 50], 100) == 50
    assert stats.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartiles_match_hand_computed_values():
    # exclusive method: Q1 at rank (n + 1) / 4 = 2.75, Q3 at 8.25
    assert stats.quartiles(range(1, 11)) == (2.75, 5.5, 8.25)
    assert stats.relative_spread(range(1, 11)) == pytest.approx(1.0)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    values = [0.91, 1.02, 0.97, 1.10, 0.99, 1.05, 0.95, 1.01, 0.98, 1.03]
    assert list(stats.quartiles(values)) == statistics.quantiles(values, n=4)


# --- self time and pool accounting ---

def _tree():
    """A stage on thread 1 whose pool runs two workers (threads 2 and 3)."""
    return [
        Span(0, "cli.preprocess", 0.0, 10.0, None, 1),
        Span(1, "preprocess.reduce_noise", 1.0, 5.0, 0, 2),
        Span(2, "audio_io.write_wav", 5.0, 8.0, 0, 2),
        Span(3, "preprocess.reduce_noise", 2.0, 6.0, 0, 3),
        Span(4, "audio_io.write_wav", 7.0, 9.5, 0, 3),
        Span(5, "audio_io.read_wav", 2.0, 3.0, 1, 2),
    ]


def test_covered_length_merges_overlaps():
    assert tracing.covered_length([(1, 5), (2, 6), (5, 8), (7, 9.5)]) == 8.5
    assert tracing.covered_length([(0, 1), (2, 3)]) == 2
    assert tracing.covered_length([]) == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    selfs = tracing.self_times(_tree())
    assert selfs[0] == pytest.approx(1.5)  # children cover [1, 9.5]
    assert selfs[1] == pytest.approx(3.0)  # 4 s minus its 1 s child
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)


def test_per_layer_metrics_on_the_synthetic_tree():
    metrics = tracing.per_layer_metrics(_tree(), passes=1, pool_workers=2)
    assert metrics["cli.preprocess_s"] == (10.0, "s")
    assert metrics["preprocess.reduce_noise_calls"] == (2.0, "count")
    assert metrics["preprocess.reduce_noise_ms"][0] == pytest.approx(4000.0)
    # workers are busy 4 + 3 + 4 + 2.5 s out of 2 x 10 s
    assert metrics["cli.pool_busy_share"][0] == pytest.approx(13.5 / 20)
    assert metrics["cli.self_ms"][0] == pytest.approx(1500.0)
    assert metrics["preprocess.self_ms"][0] == pytest.approx(3000.0 + 4000.0)
    assert metrics["audio_io.self_ms"][0] == pytest.approx(3000.0 + 2500.0 + 1000.0)
    halved = tracing.per_layer_metrics(_tree(), passes=2, pool_workers=2)
    assert halved["preprocess.reduce_noise_calls"] == (1.0, "count")
    assert halved["preprocess.reduce_noise_ms"] == metrics["preprocess.reduce_noise_ms"]


# --- wrappers ---

@pytest.fixture
def toy(monkeypatch):
    module = types.ModuleType("toy_layer")

    def leaf(x, scale=2):
        return [x * scale, threading.get_ident()]

    def boom():
        raise KeyError("boom")

    def stage(items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(module.leaf, items))

    module.leaf, module.boom, module.stage = leaf, boom, stage
    monkeypatch.setitem(sys.modules, "toy_layer", module)
    return module


def test_wrappers_are_transparent_and_restored(toy):
    originals = (toy.leaf, toy.boom)
    wraps = (("toy_layer", "leaf", "preprocess.leaf", None),
             ("toy_layer", "boom", "preprocess.boom", None))
    with tracing.Tracer(wraps) as tracer:
        assert toy.leaf(3, scale=5)[0] == 15
        assert toy.leaf.__name__ == "leaf"
        with pytest.raises(KeyError):
            toy.boom()
    assert (toy.leaf, toy.boom) == originals
    assert [s.name for s in tracer.spans] == ["preprocess.leaf", "preprocess.boom"]
    assert all(s.end >= s.start for s in tracer.spans)


def test_worker_spans_take_the_stage_that_started_the_pool_as_parent(toy):
    wraps = (("toy_layer", "stage", "cli.stage", None),
             ("toy_layer", "leaf", "preprocess.leaf", lambda a, k: {"rows": a[0]}))
    with tracing.Tracer(wraps) as tracer:
        results = toy.stage([1, 2, 3, 4])
    assert [r[0] for r in results] == [2, 4, 6, 8]
    stage = tracer.spans[0]
    leaves = tracer.spans[1:]
    assert stage.name == "cli.stage" and len(leaves) == 4
    assert all(s.parent == stage.id and s.thread != stage.thread for s in leaves)
    assert sorted(s.counters["rows"] for s in leaves) == [1, 2, 3, 4]


def test_missing_names_are_reported_not_raised(toy):
    wraps = (("toy_layer", "gone", "features.gone", None),
             ("no_such_module_here", "f", "network.f", None))
    with tracing.Tracer(wraps) as tracer:
        pass
    assert tracer.missing == ["toy_layer.gone", "no_such_module_here.f"]


# --- the command refuses to run without the program ---

def test_run_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(tracing.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
