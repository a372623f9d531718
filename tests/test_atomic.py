"""Every command output is written whole: a failed write keeps the old file,
a symbolic link keeps naming the file it named, and a FIFO stays a FIFO."""

import os
import resource
import signal
import stat
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from divrec.cli import build_parser
from divrec.features import AggregatedFeature, write_feature_cache
from divrec.manifest import ManifestRow, write_manifest
from divrec.network import init_params, save_model
from divrec.training import EpochMetrics, write_metrics_csv


@contextmanager
def file_size_limit(nbytes):
    """Inside the block, a write past ``nbytes`` of any file fails with EFBIG."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def _records(n=40):
    rng = np.random.default_rng(3)
    return [AggregatedFeature(rng.normal(0, 1, 26), i % 8, f"seg{i:03d}") for i in range(n)]


def _evaluate(flag):
    """Write ``evaluate``'s output named by ``flag``, for a model of seed
    ``version``, as the command does. Its inputs are written on first use,
    so a size limit set later applies to the output alone."""
    def write(path, version):
        model, cache = path.parent.parent / f"model{version}", path.parent.parent / "cache"
        if not model.exists():
            save_model(init_params(version), model)
            write_feature_cache(_records(), cache)
        args = build_parser().parse_args(["evaluate", str(model), str(cache), flag, str(path)])
        args.func(args)
    return write


# each writes version 1 or 2 of one command output; the two differ
WRITERS = {
    "model": lambda path, version: save_model(init_params(version), path),
    "cache": lambda path, version: write_feature_cache(_records(20 * version), path),
    "manifest": lambda path, version: write_manifest(
        [ManifestRow(f"corpus/Dhaka/s{i}/take{version}.wav", "Dhaka", f"s{i}")
         for i in range(100)], path),
    "metrics": lambda path, version: write_metrics_csv(
        [EpochMetrics(e, 1.0 / version, 0.5, 2.0, 0.25, 1e-3) for e in range(1, 41)], path),
    "evaluate-out": _evaluate("--out"),
    "confusion-csv": _evaluate("--confusion-csv"),
}


@pytest.fixture(params=list(WRITERS))
def write(request, capsys):
    # capsys holds evaluate's stdout in memory, out of reach of a size limit
    return WRITERS[request.param]


@pytest.fixture
def out_dir(tmp_path):
    (tmp_path / "out").mkdir()
    return tmp_path / "out"


def test_failed_write_keeps_the_old_file(out_dir, write):
    path, full = out_dir / "target", out_dir / "full"
    write(path, 1)
    write(full, 2)
    before = path.read_bytes()
    assert full.read_bytes() != before
    with file_size_limit(full.stat().st_size // 2), pytest.raises(OSError, match="too large"):
        write(path, 2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in out_dir.iterdir()) == ["full", "target"]


def test_a_link_keeps_naming_the_file_it_named(out_dir, write):
    write(out_dir / "want", 2)
    write(out_dir / "real", 1)
    (out_dir / "link").symlink_to("real")
    (out_dir / "dangling").symlink_to("made")
    write(out_dir / "link", 2)
    write(out_dir / "dangling", 2)
    assert os.readlink(out_dir / "link") == "real"
    assert os.readlink(out_dir / "dangling") == "made"
    want = (out_dir / "want").read_bytes()
    assert (out_dir / "real").read_bytes() == want
    assert (out_dir / "made").read_bytes() == want
    assert sorted(p.name for p in out_dir.iterdir()) == ["dangling", "link", "made", "real",
                                                         "want"]


def test_a_fifo_stays_a_fifo_and_delivers_the_bytes(out_dir, write):
    write(out_dir / "want", 2)
    fifo = out_dir / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write(fifo, 2)
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert received == [(out_dir / "want").read_bytes()]
