"""Fuzz the CLI end to end: argv for scan, preprocess, extract, train, evaluate
and predict, with flag values from a small set of odd ones and small input
files of which at most one is truncated or byte-flipped, exits 0, 1, 2 or 3
(argparse's SystemExit included) and raises nothing else.

Derandomized, so tier-1 runs the same examples each time. ``--epochs`` is
always passed and ``--workers`` only takes values from VALUES, so no example
trains more than 2 epochs or starts more than 2 workers. make-fixture is left
out: its large values only mean more valid work, and its invalid values are
cases of ``test_invalid_value_is_usage_error``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.audio_io import write_wav
from divrec.cli import main
from divrec.features import AggregatedFeature, write_feature_cache
from divrec.network import init_params, save_model

from conftest import synthesize_utterance

VALUES = ["-1", "0", "1", "2", "nan", "inf", "abc"]
COMMANDS = ["scan", "preprocess", "extract", "train", "evaluate", "predict"]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A directory holding one small valid WAV (10 s), cache (16 records) and model."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    rng = np.random.default_rng(3)
    write_wav(synthesize_utterance(2, rng, 10.0), root / "clip.wav")
    records = [AggregatedFeature(rng.normal(i % 8, 1.0, 26), i % 8, f"r{i:02d}")
               for i in range(16)]
    write_feature_cache(records, root / "cache.feat")
    save_model(init_params(0), root / "model.bin")
    return root


def _value(draw) -> str:
    # half of the draws are valid for every counting flag, so runs get past
    # argument checking often enough to reach the data
    return draw(st.one_of(st.sampled_from(["1", "2"]), st.sampled_from(VALUES)))


def _mutate(draw, data: bytes) -> bytes:
    """The bytes cut short, or with one byte replaced (headers more often
    than payloads)."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    pos = draw(st.one_of(st.integers(0, min(len(data), 64) - 1), st.integers(0, len(data) - 1)))
    return data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1:]


def _inputs(draw, originals: dict, d: Path) -> None:
    """Write each input kind into ``d``; at most one of them is damaged."""
    wav = d / "corpus" / "Dhaka" / "spk1" / "a.wav"
    wav.parent.mkdir(parents=True)
    manifest = f"audio_path,division,speaker_id,gender\n{wav},Dhaka,spk1,\n"
    files = {
        wav: originals["clip.wav"],
        d / "manifest.csv": manifest.encode(),
        d / "cache.feat": originals["cache.feat"],
        d / "model.bin": originals["model.bin"],
    }
    damaged = draw(st.sampled_from([None, *files]))
    for path, data in files.items():
        path.write_bytes(_mutate(draw, data) if path == damaged and data else data)


def _argv(draw, command: str, d: Path) -> list[str]:
    def maybe(flag: str) -> list[str]:
        return [flag, _value(draw)] if draw(st.booleans()) else []

    if command == "scan":
        return ["scan", str(d / "corpus"), "--out", str(d / "scanned.csv")]
    if command == "preprocess":
        return ["preprocess", str(d / "manifest.csv"), "--out-dir", str(d / "segments"),
                "--out", str(d / "segments.csv"), *maybe("--workers")]
    if command == "extract":
        return ["extract", str(d / "manifest.csv"), "--out", str(d / "out.feat"),
                *maybe("--workers")]
    if command == "train":
        return ["train", str(d / "cache.feat"), "--model-out", str(d / "out.bin"),
                "--metrics-out", str(d / "metrics.csv"),
                "--epochs", _value(draw), *maybe("--seed"),
                *maybe("--batch-size"), *maybe("--lr")]
    if command == "evaluate":
        return ["evaluate", str(d / "model.bin"), str(d / "cache.feat"),
                "--split", draw(st.sampled_from(["full", "train", "test", "val"])),
                *maybe("--seed")]
    return ["predict", str(d / "model.bin"), str(d / "corpus" / "Dhaka" / "spk1" / "a.wav")]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_cli_exit_code_is_in_contract(originals, data):
    raw = {name: (originals / name).read_bytes()
           for name in ("clip.wav", "cache.feat", "model.bin")}
    command = data.draw(st.sampled_from(COMMANDS), label="command")
    with tempfile.TemporaryDirectory(dir=originals) as tmp:
        d = Path(tmp)
        _inputs(data.draw, raw, d)
        argv = _argv(data.draw, command, d)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
