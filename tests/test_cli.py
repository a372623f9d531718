import argparse
import csv
import errno
import hashlib
import itertools
import json
import os
import re
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from divrec.audio_io import ingest, read_wav, write_wav
from divrec import cli
from divrec.cli import _map_rows, _training_config, build_parser, main
from divrec.errors import DataError
from divrec.evaluation import predict
from divrec.features import (
    AggregatedFeature,
    aggregate,
    build_filterbank,
    extract,
    read_feature_cache,
    write_feature_cache,
)
from divrec.manifest import ManifestRow, read_manifest, write_manifest
from divrec.network import load_model, save_model
from divrec.training import TrainingConfig

from testlib import (BAD_MODELS, build_model_bytes, build_wav_bytes, chunk_bytes,
                     passthrough_params, riff_bytes, sine_clip, synthesize_utterance)

SR = 16000
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Small end-to-end corpus shared by the CLI tests: 160 segments, trained
    to convergence with a raised learning rate."""
    root = tmp_path_factory.mktemp("cli_workspace")
    assert main(["make-fixture", "--out", str(root / "corpus"), "--seed", "11",
                 "--speakers-per-class", "2", "--files-per-speaker", "2",
                 "--file-seconds", "50"]) == 0
    assert main(["scan", str(root / "corpus"), "--out", str(root / "manifest.csv")]) == 0
    assert main(["preprocess", str(root / "manifest.csv"),
                 "--out-dir", str(root / "segments"),
                 "--out", str(root / "segments.csv")]) == 0
    assert main(["extract", str(root / "segments.csv"),
                 "--out", str(root / "cache.feat")]) == 0
    assert main(["train", str(root / "cache.feat"),
                 "--model-out", str(root / "model.bin"),
                 "--metrics-out", str(root / "metrics.csv"),
                 "--seed", "7", "--lr", "0.01", "--epochs", "40"]) == 0
    return root


# --- scan ---

def test_scan_empty_root_is_data_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["scan", str(tmp_path / "empty"), "--out", str(tmp_path / "m.csv")]) == 2
    assert "no WAV files" in capsys.readouterr().err


def test_scan_three_files_under_dhaka(tmp_path):
    speaker = tmp_path / "corpus" / "Dhaka" / "spk001"
    speaker.mkdir(parents=True)
    for i in range(3):
        write_wav(sine_clip(seconds=0.1), speaker / f"take{i}.wav")
    out = tmp_path / "manifest.csv"
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(out)]) == 0
    rows = read_manifest(out)
    assert len(rows) == 3
    assert all(r.division == "Dhaka" and r.speaker_id == "spk001" for r in rows)


def test_scan_skips_unknown_division(tmp_path, capsys):
    known = tmp_path / "corpus" / "Sylhet" / "spk"
    known.mkdir(parents=True)
    write_wav(sine_clip(seconds=0.1), known / "a.wav")
    unknown = tmp_path / "corpus" / "Narnia" / "spk"
    unknown.mkdir(parents=True)
    write_wav(sine_clip(seconds=0.1), unknown / "b.wav")
    out = tmp_path / "manifest.csv"
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(out)]) == 0
    assert len(read_manifest(out)) == 1
    assert "Narnia" in capsys.readouterr().err


def test_scan_names_wav_files_outside_the_speaker_layout(tmp_path, capsys):
    division = tmp_path / "corpus" / "Dhaka"
    (division / "s1" / "take2").mkdir(parents=True)
    for name in ("loose.wav", "s1/a.wav", "s1/B.WAV", "s1/take2/c.wav"):
        write_wav(sine_clip(seconds=0.1), division / name)
    out = tmp_path / "manifest.csv"
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(out)]) == 0
    assert [r.audio_path for r in read_manifest(out)] == [str(division / "s1" / "a.wav")]
    assert capsys.readouterr().err.splitlines() == [
        f"skipping {division / name}: not a <Division>/<speaker>/*.wav file"
        for name in ("loose.wav", "s1/B.WAV", "s1/take2/c.wav")
    ]


def test_scan_names_wav_files_directly_under_the_root(tmp_path, capsys):
    root = tmp_path / "corpus"
    (root / "Dhaka" / "s1").mkdir(parents=True)
    for name in ("top.wav", "Dhaka/s1/a.wav"):
        write_wav(sine_clip(seconds=0.1), root / name)
    (root / "notes.txt").write_text("not audio")
    out = tmp_path / "manifest.csv"
    assert main(["scan", str(root), "--out", str(out)]) == 0
    assert [r.audio_path for r in read_manifest(out)] == [str(root / "Dhaka" / "s1" / "a.wav")]
    assert capsys.readouterr().err.splitlines() == [
        f"skipping {root / 'top.wav'}: not a <Division>/<speaker>/*.wav file"]


def test_scan_names_and_skips_a_file_name_that_is_not_utf8(tmp_path, capsys):
    speaker = tmp_path / "corpus" / "Dhaka" / "s1"
    speaker.mkdir(parents=True)
    bad = os.path.join(os.fsencode(speaker), b"\xff_000.wav")
    write_wav(sine_clip(seconds=0.1), bad)
    write_wav(sine_clip(seconds=0.1), speaker / "a.wav")
    out = tmp_path / "manifest.csv"
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(out)]) == 0
    assert [r.audio_path for r in read_manifest(out)] == [str(speaker / "a.wav")]
    assert capsys.readouterr().err.splitlines() == [
        f"skipping {bad!r}: path is not valid UTF-8 in this locale"]
    # with nothing left, scan still names the file before it refuses the tree
    (speaker / "a.wav").unlink()
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m2.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"skipping {bad!r}: path is not valid UTF-8 in this locale"
    assert err[1].startswith("error: no WAV files found under")
    assert not (tmp_path / "m2.csv").exists()


def test_scan_under_the_c_locale_writes_utf8_or_names_the_path(tmp_path):
    # the C locale decodes the bytes of 'é' into surrogates that no UTF-8
    # manifest can hold; under a UTF-8 locale the same tree gives two rows
    speaker = tmp_path / "corpus" / "Dhaka" / "s1"
    speaker.mkdir(parents=True)
    for name in ("a.wav", "é_000.wav"):
        write_wav(sine_clip(seconds=0.1), speaker / name)
    out = tmp_path / "manifest.csv"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    result = subprocess.run([sys.executable, "-m", "divrec.cli", "scan",
                             str(tmp_path / "corpus"), "--out", str(out)],
                            capture_output=True, timeout=120, env=env)
    assert result.returncode == 0
    assert b"Traceback" not in result.stderr
    assert result.stderr.splitlines() == [
        f"skipping {os.fsencode(speaker / 'é_000.wav')!r}: "
        "path is not valid UTF-8 in this locale".encode()]
    assert [r.audio_path for r in read_manifest(out)] == [str(speaker / "a.wav")]


def test_rescan_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "again.csv"
    assert main(["scan", str(workspace / "corpus"), "--out", str(out)]) == 0
    assert out.read_bytes() == (workspace / "manifest.csv").read_bytes()


# --- preprocess ---

def test_preprocess_25s_file_gives_two_segments(tmp_path, rng):
    speaker = tmp_path / "corpus" / "Khulna" / "spk9"
    speaker.mkdir(parents=True)
    write_wav(rng.uniform(-0.4, 0.4, 25 * SR), speaker / "long.wav")
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["preprocess", str(tmp_path / "m.csv"),
                 "--out-dir", str(tmp_path / "seg"),
                 "--out", str(tmp_path / "s.csv")]) == 0
    rows = read_manifest(tmp_path / "s.csv")
    assert len(rows) == 2
    assert all(r.division == "Khulna" and r.speaker_id == "spk9" for r in rows)
    assert all(
        r.audio_path.endswith(f"long_seg{i:03d}.wav") for i, r in enumerate(rows)
    )


def test_preprocess_names_a_clip_too_short_for_one_segment(tmp_path, capsys):
    speaker = tmp_path / "corpus" / "Barisal" / "spk1"
    speaker.mkdir(parents=True)
    write_wav(np.zeros(5 * SR), speaker / "short.wav")
    write_wav(np.zeros(12 * SR), speaker / "long.wav")
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    capsys.readouterr()
    assert main(["preprocess", str(tmp_path / "m.csv"),
                 "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")]) == 0
    out, err = capsys.readouterr()
    # named, but not counted as a failed input
    assert out.endswith("(0/2 input files failed)\n")
    assert err == f"{speaker / 'short.wav'}: 5 s long, too short for one 8-10 s segment; skipped\n"
    assert len(read_manifest(tmp_path / "s.csv")) == 1


def test_preprocess_makes_no_directory_for_a_clip_too_short_for_one_segment(tmp_path):
    corpus = tmp_path / "corpus" / "Barisal"
    for speaker, seconds in (("spk1", 5), ("spk2", 12)):
        (corpus / speaker).mkdir(parents=True)
        write_wav(np.zeros(seconds * SR), corpus / speaker / "clip.wav")
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    seg = tmp_path / "seg"
    assert main(["preprocess", str(tmp_path / "m.csv"),
                 "--out-dir", str(seg), "--out", str(tmp_path / "s.csv")]) == 0
    assert sorted(p.relative_to(seg).as_posix() for p in seg.rglob("*")) == [
        "Barisal", "Barisal/spk2", "Barisal/spk2/clip_seg000.wav"]


@pytest.mark.parametrize("broken", [0, 1])
def test_preprocess_with_no_segment_to_write_is_data_error(tmp_path, capsys, broken):
    speaker = tmp_path / "corpus" / "Barisal" / "spk1"
    speaker.mkdir(parents=True)
    for k in range(2):
        write_wav(np.zeros(5 * SR), speaker / f"short{k}.wav")
    if broken:
        (speaker / "broken.wav").write_bytes(b"this is not audio at all")
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    capsys.readouterr()
    assert main(["preprocess", str(tmp_path / "m.csv"),
                 "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (f"error: no input file yielded a segment: {broken} failed, "
                       "2 shorter than 8 s")
    assert len(err) == 3 + broken  # each short clip and each failure is named first
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "seg").exists()


def test_preprocess_logs_bad_file_and_continues(tmp_path, capsys):
    speaker = tmp_path / "corpus" / "Rangpur" / "spk1"
    speaker.mkdir(parents=True)
    write_wav(np.zeros(10 * SR), speaker / "good.wav")
    (speaker / "broken.wav").write_bytes(b"this is not audio at all")
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    rc = main(["preprocess", str(tmp_path / "m.csv"),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert "broken.wav" in capsys.readouterr().err
    rows = read_manifest(tmp_path / "s.csv")
    assert len(rows) == 1 and rows[0].audio_path.endswith("good_seg000.wav")


def test_preprocess_lists_zero_sample_rate_file_and_continues(tmp_path, capsys):
    speaker = tmp_path / "corpus" / "Sylhet" / "spk1"
    speaker.mkdir(parents=True)
    write_wav(np.zeros(10 * SR), speaker / "good.wav")
    (speaker / "rate0.wav").write_bytes(build_wav_bytes(np.zeros(SR), sample_rate=0))
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    rc = main(["preprocess", str(tmp_path / "m.csv"),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert "rate0.wav" in capsys.readouterr().err
    rows = read_manifest(tmp_path / "s.csv")
    assert len(rows) == 1 and rows[0].audio_path.endswith("good_seg000.wav")


def test_preprocess_logs_44k_file_and_continues(tmp_path, capsys):
    speaker = tmp_path / "corpus" / "Sylhet" / "spk1"
    speaker.mkdir(parents=True)
    write_wav(np.zeros(10 * SR), speaker / "good.wav")
    (speaker / "cd.wav").write_bytes(build_wav_bytes(np.zeros(10 * 44100), sample_rate=44100))
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    rc = main(["preprocess", str(tmp_path / "m.csv"),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    assert rc == 0
    assert "cd.wav: sample rate 44100 Hz" in capsys.readouterr().err
    rows = read_manifest(tmp_path / "s.csv")
    assert len(rows) == 1 and rows[0].audio_path.endswith("good_seg000.wav")


@pytest.mark.parametrize("command", ["preprocess", "extract"])
def test_44k_failure_line_names_the_path_once(tmp_path, capsys, command):
    good, cd = tmp_path / "good.wav", tmp_path / "cd.wav"
    write_wav(sine_clip(seconds=10.0), good)
    cd.write_bytes(build_wav_bytes(np.zeros(10 * 44100), sample_rate=44100))
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\n"
                        f"{good},Dhaka,spk1\n{cd},Dhaka,spk1\n")
    outputs = {"preprocess": ["--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")],
               "extract": ["--out", str(tmp_path / "c.feat")]}[command]
    assert main([command, str(manifest), *outputs]) == 0
    err = capsys.readouterr().err
    assert err.count(str(cd)) == 1
    assert f"{cd}: sample rate 44100 Hz, only 16000 supported" in err.splitlines()


def _fmt(audio_format: int = 1, channels: int = 1) -> bytes:
    return chunk_bytes(b"fmt ", struct.pack("<HHIIHH", audio_format, channels, SR, 2 * SR, 2, 16))


_DATA = chunk_bytes(b"data", b"\0" * 8)
MALFORMED_HEADERS = {
    # JUNK declares 100 bytes, past the end of the RIFF body
    "chunk-past-riff-size": riff_bytes(_fmt(), chunk_bytes(b"JUNK", b"", declared=100), _DATA),
    "huge-list": riff_bytes(_fmt(), chunk_bytes(b"LIST", b"", declared=0xFFFFFFF0), _DATA),
    "fmt-14-bytes": riff_bytes(chunk_bytes(b"fmt ", struct.pack("<HHIIH", 1, 1, SR, 2 * SR, 2)),
                               _DATA),
    "zero-channels": riff_bytes(_fmt(channels=0), _DATA),
    "truncated-data": riff_bytes(_fmt(), chunk_bytes(b"data", b"\0" * 8, declared=1000)),
    "format-tag-3": riff_bytes(_fmt(audio_format=3), _DATA),
}


@pytest.mark.parametrize("name", MALFORMED_HEADERS)
def test_extract_refuses_malformed_wav_header_naming_the_file(tmp_path, capsys, name):
    wav = tmp_path / f"{name}.wav"
    wav.write_bytes(MALFORMED_HEADERS[name])
    write_manifest([ManifestRow(audio_path=str(wav), division="Dhaka", speaker_id="s")],
                   tmp_path / "m.csv")
    assert main(["extract", str(tmp_path / "m.csv"), "--out", str(tmp_path / "c.feat")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    refusal, summary = err.splitlines()
    assert refusal.startswith(f"{wav}: ") and refusal[len(f"{wav}: "):].strip()
    assert summary == "error: no segments could be extracted"


def test_preprocess_refuses_rows_that_share_segment_names(tmp_path, capsys):
    # both rows would write seg/Dhaka/s1/x_seg000.wav, one over the other
    paths = [tmp_path / d / "x.wav" for d in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        write_wav(sine_clip(seconds=10.0), path)
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\n"
                        + "".join(f"{path},Dhaka,s1\n" for path in paths))
    rc = main(["preprocess", str(manifest),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not (tmp_path / "seg").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("rows", [
    [("a.wav", "../../escaped")],  # would write out/escaped/a_seg000.wav
    [("a.wav", "y"), ("sub/a.wav", "x/../y")],  # both would write out/Dhaka/y/a_seg000.wav
    [("a.wav", ".")],
    [("a.wav", "s\0p")],  # would reach mkdir as a ValueError
], ids=["escapes-out-dir", "dot-dot-collision", "dot", "nul"])
def test_preprocess_refuses_speaker_id_that_is_not_one_path_component(tmp_path, capsys, rows):
    lines = []
    for name, speaker_id in rows:
        path = tmp_path / "in" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        write_wav(sine_clip(seconds=10.0), path)
        lines.append(f"{path},Dhaka,{speaker_id}\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\n" + "".join(lines))
    rc = main(["preprocess", str(manifest),
               "--out-dir", str(tmp_path / "out" / "segs"), "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    bad_path, bad_id = tmp_path / "in" / rows[-1][0], rows[-1][1]
    assert f"{bad_path}: speaker_id {bad_id!r}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command", ["preprocess", "extract"])
def test_nul_in_audio_path_is_data_error(tmp_path, capsys, command):
    # the NUL would reach open() in a pool worker as a ValueError
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\na\0b.wav,Dhaka,spk1\n")
    outputs = {"preprocess": ["--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")],
               "extract": ["--out", str(tmp_path / "c.feat")]}[command]
    rc = main([command, str(manifest), *outputs])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: 'a\\x00b.wav': audio_path contains a NUL byte\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


@pytest.mark.parametrize("command", ["preprocess", "extract"])
def test_unknown_division_names_its_row(tmp_path, capsys, command):
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\n"
                        "a.wav,Dhaka,s\nx.wav,Nowhere,s\n")
    outputs = {"preprocess": ["--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")],
               "extract": ["--out", str(tmp_path / "c.feat")]}[command]
    assert main([command, str(manifest), *outputs]) == 2
    assert capsys.readouterr().err == "error: x.wav: unknown division 'Nowhere'\n"


def _manifest_with_missing_file(tmp_path) -> tuple[Path, Path]:
    """A two-row manifest: one good 10 s WAV, then a path with no file."""
    good = tmp_path / "good.wav"
    write_wav(sine_clip(seconds=10.0), good)
    missing = tmp_path / "missing.wav"
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\n"
                        f"{good},Dhaka,spk1\n{missing},Dhaka,spk1\n")
    return manifest, missing


def test_preprocess_logs_missing_file_and_continues(tmp_path, capsys):
    manifest, missing = _manifest_with_missing_file(tmp_path)
    rc = main(["preprocess", str(manifest),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "(1/2 input files failed)" in out
    assert str(missing) in err
    assert len(read_manifest(tmp_path / "s.csv")) == 1


def test_preprocess_failed_segment_write_prints_only_its_lines(tmp_path):
    clip = tmp_path / "clip.wav"
    write_wav(sine_clip(seconds=10.0), clip)
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"audio_path,division,speaker_id\n{clip},Dhaka,spk1\n")
    blocker = tmp_path / "seg" / "Dhaka" / "spk1" / "clip_seg000.wav"
    blocker.mkdir(parents=True)
    # a subprocess, so that anything printed when objects are collected is seen
    result = subprocess.run([sys.executable, "-m", "divrec.cli", "preprocess", str(manifest),
                             "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"{clip}: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{blocker}'",
        "error: all input files failed preprocessing",
    ]


def test_preprocess_worker_count_does_not_change_output(workspace, tmp_path):
    seg_dir = tmp_path / "segments"
    assert main(["preprocess", str(workspace / "manifest.csv"), "--out-dir", str(seg_dir),
                 "--out", str(tmp_path / "segments.csv"), "--workers", "2"]) == 0
    serial_dir = workspace / "segments"
    assert ((tmp_path / "segments.csv").read_text().replace(str(seg_dir), str(serial_dir))
            == (workspace / "segments.csv").read_text())
    written = sorted(path.relative_to(seg_dir) for path in seg_dir.rglob("*.wav"))
    assert written == sorted(path.relative_to(serial_dir) for path in serial_dir.rglob("*.wav"))
    for name in written:
        assert (seg_dir / name).read_bytes() == (serial_dir / name).read_bytes()


def test_preprocess_non_utf8_manifest_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "latin1.csv"
    manifest.write_bytes(b"audio_path,division,speaker_id\ncaf\xe9.wav,Dhaka,spk1\n")
    rc = main(["preprocess", str(manifest),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "latin1.csv" in capsys.readouterr().err


def test_preprocess_all_failures_is_data_error(tmp_path, capsys):
    speaker = tmp_path / "corpus" / "Rangpur" / "spk1"
    speaker.mkdir(parents=True)
    (speaker / "broken.wav").write_bytes(b"nope")
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    rc = main(["preprocess", str(tmp_path / "m.csv"),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_preprocess_header_only_manifest_says_it_lists_no_files(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("audio_path,division,speaker_id\n")
    rc = main(["preprocess", str(manifest),
               "--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "empty.csv: the manifest lists no files" in err
    assert "failed" not in err


@pytest.mark.parametrize("command", ["preprocess", "extract"])
def test_manifest_field_over_csv_limit_is_data_error(tmp_path, capsys, command):
    # the csv module refuses a field longer than 131,072 characters
    manifest = tmp_path / "long.csv"
    manifest.write_text("audio_path,division,speaker_id\n"
                        + "a" * 131_073 + ",Dhaka,spk1\n")
    outputs = {"preprocess": ["--out-dir", str(tmp_path / "seg"), "--out", str(tmp_path / "s.csv")],
               "extract": ["--out", str(tmp_path / "c.feat")]}[command]
    assert main([command, str(manifest), *outputs]) == 2
    err = capsys.readouterr().err
    assert "long.csv" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["preprocess", "extract"])
def test_manifest_with_a_gender_column_is_refused(tmp_path, capsys, command):
    # the fourth column of older manifests; the conversion in docs/formats.md
    # (keep each row's first three fields) makes the file readable
    good = tmp_path / "good.wav"
    write_wav(sine_clip(seconds=10.0), good)
    old = tmp_path / "old.csv"
    old.write_text(f"audio_path,division,speaker_id,gender\n{good},Dhaka,spk1,M\n")
    out = tmp_path / "out"
    outputs = {"preprocess": ["--out-dir", str(tmp_path / "seg"), "--out", str(out)],
               "extract": ["--out", str(out)]}[command]
    assert main([command, str(old), *outputs]) == 2
    assert capsys.readouterr().err == (
        f"error: {old}: not a manifest (expected header audio_path,division,speaker_id)\n")
    assert not out.exists()

    new = tmp_path / "new.csv"
    with open(old, newline="", encoding="utf-8") as src, \
         open(new, "w", newline="", encoding="utf-8") as dst:
        csv.writer(dst).writerows(row[:3] for row in csv.reader(src))
    assert read_manifest(new) == [ManifestRow(str(good), "Dhaka", "spk1")]
    assert main([command, str(new), *outputs]) == 0


def _seconds(path) -> float:
    samples, sample_rate = read_wav(path)
    return len(samples) / sample_rate


def test_preprocess_duration_bounded_by_input(workspace):
    total_in = sum(
        _seconds(r.audio_path) for r in read_manifest(workspace / "manifest.csv")
    )
    total_out = sum(
        _seconds(r.audio_path) for r in read_manifest(workspace / "segments.csv")
    )
    assert total_out <= total_in


def test_preprocess_segment_durations_in_window(workspace):
    for row in read_manifest(workspace / "segments.csv"):
        assert 8.0 <= _seconds(row.audio_path) <= 10.0


# --- extract ---

def test_extract_record_count_matches_segments(workspace):
    records = read_feature_cache(workspace / "cache.feat")
    assert len(records) == len(read_manifest(workspace / "segments.csv"))


def test_extract_agrees_with_in_process_pipeline(workspace):
    records = read_feature_cache(workspace / "cache.feat")
    rec = records[0]
    bank = build_filterbank()
    expected = aggregate(extract(ingest(rec.source_id), bank=bank))
    np.testing.assert_array_equal(rec.vector, expected)


def test_extract_logs_missing_file_and_continues(tmp_path, capsys):
    manifest, missing = _manifest_with_missing_file(tmp_path)
    rc = main(["extract", str(manifest), "--out", str(tmp_path / "c.feat")])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "(1/2 segments failed)" in out
    assert str(missing) in err
    assert len(read_feature_cache(tmp_path / "c.feat")) == 1


def test_extract_header_only_manifest_says_it_lists_no_files(tmp_path, capsys):
    manifest = tmp_path / "empty.csv"
    manifest.write_text("audio_path,division,speaker_id\n")
    assert main(["extract", str(manifest), "--out", str(tmp_path / "c.feat")]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: the manifest lists no files\n"
    assert not (tmp_path / "c.feat").exists()


def test_extract_refuses_audio_that_skipped_preprocess(tmp_path, capsys):
    # 30 s clips straight from scan: unsegmented and not noise-reduced
    assert main(["make-fixture", "--out", str(tmp_path / "corpus"), "--seed", "3",
                 "--speakers-per-class", "1", "--files-per-speaker", "1",
                 "--file-seconds", "30"]) == 0
    assert main(["scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "m.csv")]) == 0
    capsys.readouterr()
    assert main(["extract", str(tmp_path / "m.csv"), "--out", str(tmp_path / "c.feat")]) == 2
    err = capsys.readouterr().err.splitlines()
    rows = read_manifest(tmp_path / "m.csv")
    assert err == [f"{row.audio_path}: 30 s long, not an 8-10 s segment from preprocess"
                   for row in rows] + ["error: no segments could be extracted"]
    assert not (tmp_path / "c.feat").exists()


def test_extract_takes_exactly_8_to_10_second_segments(tmp_path, capsys):
    lengths = [127_999, 128_000, 160_000, 160_001]  # samples at 16 kHz
    rows = []
    for n in lengths:
        path = tmp_path / f"n{n}.wav"
        path.write_bytes(build_wav_bytes(np.full(n, 100)))
        rows.append(ManifestRow(audio_path=str(path), division="Dhaka", speaker_id="s"))
    write_manifest(rows, tmp_path / "m.csv")
    assert main(["extract", str(tmp_path / "m.csv"), "--out", str(tmp_path / "c.feat")]) == 0
    out, err = capsys.readouterr()
    assert "(2/4 segments failed)" in out
    assert err.splitlines() == [
        f"{tmp_path / 'n127999.wav'}: 7.99994 s long, not an 8-10 s segment from preprocess",
        f"{tmp_path / 'n160001.wav'}: 10.0001 s long, not an 8-10 s segment from preprocess",
    ]
    assert [rec.source_id for rec in read_feature_cache(tmp_path / "c.feat")] == [
        str(tmp_path / "n128000.wav"), str(tmp_path / "n160000.wav")]


def test_extract_worker_count_does_not_change_output(workspace, tmp_path):
    # the worker pool merges results in manifest order, so the cache bytes
    # are independent of parallelism
    out = tmp_path / "parallel.feat"
    assert main(["extract", str(workspace / "segments.csv"),
                 "--out", str(out), "--workers", "4"]) == 0
    assert out.read_bytes() == (workspace / "cache.feat").read_bytes()


def test_worker_pool_is_bounded_by_the_cores(workspace, tmp_path, monkeypatch, capsys):
    # two usable cores: --workers 16 runs at most two pool threads, says so
    # once, and writes the same cache
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    live = []
    real_ingest = cli.ingest

    def counting_ingest(path):
        live.append(threading.active_count())
        return real_ingest(path)

    monkeypatch.setattr(cli, "ingest", counting_ingest)
    before = threading.active_count()
    out = tmp_path / "bounded.feat"
    assert main(["extract", str(workspace / "segments.csv"),
                 "--out", str(out), "--workers", "16"]) == 0
    assert len(live) == len(read_manifest(workspace / "segments.csv"))
    assert max(live) - before <= 2
    assert out.read_bytes() == (workspace / "cache.feat").read_bytes()
    assert capsys.readouterr().err == (
        "--workers 16 is more than the 2 cores this process may use; running 2\n")


def test_extract_without_blas_library_writes_same_cache(workspace, tmp_path, monkeypatch):
    # a library without the thread-count symbols: the pool runs with BLAS untouched
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
    assert cli._openblas() is None
    out = tmp_path / "unpinned.feat"
    assert main(["extract", str(workspace / "segments.csv"),
                 "--out", str(out), "--workers", "2"]) == 0
    assert out.read_bytes() == (workspace / "cache.feat").read_bytes()


# --- BLAS threads under the worker pool ---

@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter, with the count at 2 during the test so
    that a pin left at 1 shows; skips when numpy bundles no such library."""
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count getter")
    get, set_ = blas
    original = get()
    set_(2)
    yield get
    set_(original)


def _rows(count: int) -> list[ManifestRow]:
    return [ManifestRow(audio_path=f"r{i}.wav", division="Dhaka", speaker_id="s1")
            for i in range(count)]


def test_map_rows_holds_blas_at_one_thread_while_workers_run(blas_threads):
    before = blas_threads()
    results, failures = _map_rows(_rows(4), lambda row: blas_threads(), workers=2)
    assert results == [1, 1, 1, 1] and failures == 0
    assert blas_threads() == before


def test_map_rows_restores_blas_threads_after_a_row_raises(blas_threads, capsys):
    before = blas_threads()

    def refuse_r1(row):
        if row.audio_path == "r1.wav":
            raise DataError("r1.wav: refused")
        return blas_threads()

    assert _map_rows(_rows(3), refuse_r1, workers=2) == ([1, 1], 1)
    assert blas_threads() == before
    assert capsys.readouterr().err == "r1.wav: refused\n"

    def crash(row):
        raise ValueError("not a row failure")

    with pytest.raises(ValueError):
        _map_rows(_rows(3), crash, workers=2)
    assert blas_threads() == before


def test_map_rows_one_worker_leaves_blas_threads_alone(blas_threads):
    before = blas_threads()
    assert _map_rows(_rows(2), lambda row: blas_threads(), workers=1) == ([before, before], 0)
    assert blas_threads() == before


# --- train ---

def test_default_flags_reproduce_training_defaults():
    parser = build_parser()
    args = parser.parse_args(["train", "cache", "--model-out", "m", "--metrics-out", "x"])
    training = _training_config(args)
    assert training == TrainingConfig()
    assert training.learning_rate == 0.001
    assert training.epochs == 35


def test_train_deterministic_byte_for_byte(workspace, tmp_path):
    outs = []
    for name in ("one", "two"):
        model = tmp_path / f"{name}.bin"
        metrics = tmp_path / f"{name}.csv"
        assert main(["train", str(workspace / "cache.feat"),
                     "--model-out", str(model), "--metrics-out", str(metrics),
                     "--seed", "7", "--epochs", "4"]) == 0
        outs.append((model.read_bytes(), metrics.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_train_converges_on_fixture_corpus(workspace):
    lines = (workspace / "metrics.csv").read_text().strip().split("\n")
    final = lines[-1].split(",")
    assert float(final[4]) >= 0.95  # val_acc column


def _corrupt_cache(path, label: int = 0, source_id: bytes = b"ab", first_value: float = 0.0,
                   trailing: bytes = b""):
    """An 80-record cache, enough to split and train on, whose first record's
    label byte, two source-id bytes and first feature value are then
    overwritten raw, and ``trailing`` appended."""
    records = [AggregatedFeature(np.full(26, i % 8.0), i % 8, f"r{i:02d}") for i in range(80)]
    write_feature_cache(records, path)
    raw = bytearray(path.read_bytes())
    raw[16] = label
    raw[19:21] = source_id
    raw[22:30] = struct.pack("<d", first_value)
    path.write_bytes(bytes(raw) + trailing)
    return path


CORRUPT_CACHES = {
    "label-9": {"label": 9},
    "label-255": {"label": 255},
    "non-utf8-id": {"source_id": b"\xff\xfe"},
    "non-finite-vector": {"first_value": float("inf")},
    # three whole records (label 0, empty source id, zero vector) past the declared 80
    "trailing-bytes": {"trailing": 3 * bytes(1 + 2 + 8 * 26)},
}


@pytest.mark.parametrize("corruption", CORRUPT_CACHES.values(), ids=CORRUPT_CACHES.keys())
def test_train_corrupt_cache_is_data_error(tmp_path, capsys, corruption):
    cache = _corrupt_cache(tmp_path / "bad.feat", **corruption)
    rc = main(["train", str(cache), "--model-out", str(tmp_path / "m.bin"),
               "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "bad.feat" in capsys.readouterr().err


def test_train_missing_cache_is_data_error(tmp_path):
    assert main(["train", str(tmp_path / "nope.feat"),
                 "--model-out", str(tmp_path / "m.bin"),
                 "--metrics-out", str(tmp_path / "m.csv")]) == 2


# --- evaluate ---

def test_evaluate_val_split_matches_train_report(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["evaluate", str(workspace / "model.bin"), str(workspace / "cache.feat"),
               "--split", "val", "--seed", "7", "--out", str(out),
               "--confusion-csv", str(tmp_path / "confusion.csv")])
    assert rc == 0
    report = json.loads(out.read_text())

    # the metrics CSV stores full-precision floats; last row is the final epoch
    last = (workspace / "metrics.csv").read_text().strip().split("\n")[-1].split(",")
    assert report["accuracy"] == float(last[4])

    confusion = np.array(report["confusion"])
    assert confusion.sum() == report["total"]
    disk = (tmp_path / "confusion.csv").read_text().strip().split("\n")
    assert len(disk) == 9


def test_evaluate_confusion_rows_match_cache_counts(workspace, tmp_path):
    out = tmp_path / "full.json"
    assert main(["evaluate", str(workspace / "model.bin"), str(workspace / "cache.feat"),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    records = read_feature_cache(workspace / "cache.feat")
    expected = np.bincount([r.label for r in records], minlength=8)
    np.testing.assert_array_equal(np.array(report["confusion"]).sum(axis=1), expected)


# passthrough model: a record scores as the class of its one nonzero feature;
# (true, scored) pairs 3 x (0, 0), (0, 1), 2 x (1, 1), (2, 0), (7, 7)
GOLDEN_PAIRS = [(0, 0)] * 3 + [(0, 1), (1, 1), (1, 1), (2, 0), (7, 7)]

GOLDEN_REPORT = """\
{
  "accuracy": 0.75,
  "total": 8,
  "labels": [
    "Barisal",
    "Chittagong",
    "Dhaka",
    "Khulna",
    "Mymensingh",
    "Rajshahi",
    "Rangpur",
    "Sylhet"
  ],
  "confusion": [
    [
      3,
      1,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    [
      0,
      2,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    [
      1,
      0,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    [
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    [
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    [
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    [
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      0
    ],
    [
      0,
      0,
      0,
      0,
      0,
      0,
      0,
      1
    ]
  ],
  "per_class": [
    {
      "label": "Barisal",
      "support": 4,
      "precision": 0.75,
      "recall": 0.75,
      "f1": 0.75,
      "precision_defined": true,
      "recall_defined": true
    },
    {
      "label": "Chittagong",
      "support": 2,
      "precision": 0.6666666666666666,
      "recall": 1.0,
      "f1": 0.8,
      "precision_defined": true,
      "recall_defined": true
    },
    {
      "label": "Dhaka",
      "support": 1,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "precision_defined": false,
      "recall_defined": true
    },
    {
      "label": "Khulna",
      "support": 0,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "precision_defined": false,
      "recall_defined": false
    },
    {
      "label": "Mymensingh",
      "support": 0,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "precision_defined": false,
      "recall_defined": false
    },
    {
      "label": "Rajshahi",
      "support": 0,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "precision_defined": false,
      "recall_defined": false
    },
    {
      "label": "Rangpur",
      "support": 0,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "precision_defined": false,
      "recall_defined": false
    },
    {
      "label": "Sylhet",
      "support": 1,
      "precision": 1.0,
      "recall": 1.0,
      "f1": 1.0,
      "precision_defined": true,
      "recall_defined": true
    }
  ]
}
"""

GOLDEN_CONFUSION_CSV = """\
Barisal,Chittagong,Dhaka,Khulna,Mymensingh,Rajshahi,Rangpur,Sylhet
3,1,0,0,0,0,0,0
0,2,0,0,0,0,0,0
1,0,0,0,0,0,0,0
0,0,0,0,0,0,0,0
0,0,0,0,0,0,0,0
0,0,0,0,0,0,0,0
0,0,0,0,0,0,0,0
0,0,0,0,0,0,0,1
"""


def test_evaluate_report_text_is_pinned(tmp_path, capsys):
    # key order, float formatting and the three outputs' bytes
    save_model(passthrough_params(), tmp_path / "model.bin")
    records = []
    for i, (label, scored) in enumerate(GOLDEN_PAIRS):
        vector = np.zeros(26)
        vector[scored] = 5.0
        records.append(AggregatedFeature(vector, label, f"r{i}"))
    write_feature_cache(records, tmp_path / "cache.feat")
    assert main(["evaluate", str(tmp_path / "model.bin"), str(tmp_path / "cache.feat"),
                 "--out", str(tmp_path / "report.json"),
                 "--confusion-csv", str(tmp_path / "confusion.csv")]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (GOLDEN_REPORT, "")
    assert (tmp_path / "report.json").read_text() == GOLDEN_REPORT
    assert (tmp_path / "confusion.csv").read_text() == GOLDEN_CONFUSION_CSV


def test_evaluate_empty_cache_is_data_error(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.feat"
    write_feature_cache([], empty)
    rc = main(["evaluate", str(workspace / "model.bin"), str(empty)])
    assert rc == 2
    assert "empty" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("corruption", CORRUPT_CACHES.values(), ids=CORRUPT_CACHES.keys())
def test_evaluate_corrupt_cache_is_data_error(workspace, tmp_path, capsys, corruption):
    cache = _corrupt_cache(tmp_path / "bad.feat", **corruption)
    assert main(["evaluate", str(workspace / "model.bin"), str(cache), "--split", "full"]) == 2
    assert "bad.feat" in capsys.readouterr().err


def test_evaluate_all_nan_cache_is_data_error(workspace, tmp_path, capsys):
    # argmax of an all-NaN row is label 0, so unchecked these would score 1.0
    cache = tmp_path / "nan.feat"
    write_feature_cache(
        [AggregatedFeature(np.full(26, np.nan), 0, f"n{i}") for i in range(8)], cache
    )
    assert main(["evaluate", str(workspace / "model.bin"), str(cache)]) == 2
    assert "nan.feat" in capsys.readouterr().err


def _non_finite_output_argv(command: str, workspace: Path, tmp_path: Path) -> list[str]:
    """A command whose network output is NaN: ``evaluate`` on a cache of
    finite 1e308 features, or ``predict`` with the weights scaled by 1e100."""
    if command == "evaluate":
        cache = tmp_path / "huge.feat"
        write_feature_cache(
            [AggregatedFeature(np.full(26, 1e308), i % 8, f"h{i}") for i in range(16)], cache
        )
        return ["evaluate", str(workspace / "model.bin"), str(cache)]
    params = load_model(workspace / "model.bin")
    for w in params.weights:
        w *= 1e100
    save_model(params, tmp_path / "huge.bin")
    rng = np.random.default_rng(5)
    write_wav(np.concatenate([synthesize_utterance(c, rng, 10.0) for c in (0, 3, 6)]),
              tmp_path / "clip.wav")
    return ["predict", str(tmp_path / "huge.bin"), str(tmp_path / "clip.wav")]


def test_evaluate_non_finite_network_output_exits_three(workspace, tmp_path, capsys):
    # 1e308 is finite, so the cache reader accepts it; the network's output is
    # NaN, and unchecked every record would score as Barisal
    assert main(_non_finite_output_argv("evaluate", workspace, tmp_path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: network output contains NaN or infinity\n"


def test_evaluate_incompatible_model_is_data_error(workspace, tmp_path, capsys):
    path = tmp_path / "wrong.bin"
    path.write_bytes(build_model_bytes(**BAD_MODELS["10-8"]))
    rc = main(["evaluate", str(path), str(workspace / "cache.feat")])
    assert rc == 2
    assert "wrong.bin: header or size differs" in capsys.readouterr().err


def _model_with_unchained_layer(path):
    """A CRC-valid model file whose third layer takes 200 inputs, not 256."""
    path.write_bytes(build_model_bytes(**BAD_MODELS["unchained"]))
    return path


def test_evaluate_unchained_model_is_data_error(workspace, tmp_path, capsys):
    model = _model_with_unchained_layer(tmp_path / "unchained.bin")
    assert main(["evaluate", str(model), str(workspace / "cache.feat")]) == 2
    assert "unchained.bin" in capsys.readouterr().err


def test_numeric_error_exits_three(workspace, tmp_path, monkeypatch, capsys):
    from divrec import cli
    from divrec.errors import NumericError

    def explode(*args, **kwargs):
        raise NumericError("gradient contains NaN")

    monkeypatch.setattr(cli, "train", explode)
    rc = main(["train", str(workspace / "cache.feat"),
               "--model-out", str(tmp_path / "m.bin"),
               "--metrics-out", str(tmp_path / "m.csv")])
    assert rc == 3
    assert "NaN" in capsys.readouterr().err


# --- predict ---

def test_predict_vectors_equal_cached_vectors(workspace, monkeypatch, capsys):
    # predict must score exactly the vectors that preprocess + extract cached
    # for the same audio, PCM16 rounding of the segment files included
    from divrec import cli

    seen = []

    def spy(params, x):
        seen.append(x.copy())
        return predict(params, x)

    monkeypatch.setattr(cli, "predict", spy)
    cached = {Path(rec.source_id).name: rec.vector
              for rec in read_feature_cache(workspace / "cache.feat")}
    for row in read_manifest(workspace / "manifest.csv"):
        seen.clear()
        assert main(["predict", str(workspace / "model.bin"), row.audio_path]) == 0
        stem = Path(row.audio_path).stem
        assert len(seen) == 1  # one batch call per clip
        assert len(seen[0]) == sum(name.startswith(f"{stem}_seg") for name in cached) > 0
        for i, vector in enumerate(seen[0]):
            assert vector.tobytes() == cached[f"{stem}_seg{i:03d}.wav"].tobytes()


def test_predict_single_segment_final_equals_segment(workspace, tmp_path, capsys):
    rng = np.random.default_rng(55)
    wav = tmp_path / "one.wav"
    write_wav(synthesize_utterance(2, rng, 10.0), wav)
    assert main(["predict", str(workspace / "model.bin"), str(wav)]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith(f"{wav}_seg000: ")
    seg_label = re.search(r"_seg000: (\w+)", out[0]).group(1)
    final_label = re.search(r"prediction: (\w+)", out[-1]).group(1)
    assert final_label == seg_label


def test_predict_short_file_is_data_error(workspace, tmp_path, capsys):
    write_wav(np.zeros(5 * SR), tmp_path / "short.wav")
    rc = main(["predict", str(workspace / "model.bin"), str(tmp_path / "short.wav")])
    assert rc == 2
    assert "short.wav: too short (5.00 s)" in capsys.readouterr().err


def test_predict_zero_sample_rate_is_data_error(workspace, tmp_path, capsys):
    (tmp_path / "rate0.wav").write_bytes(build_wav_bytes(np.zeros(10 * SR), sample_rate=0))
    rc = main(["predict", str(workspace / "model.bin"), str(tmp_path / "rate0.wav")])
    assert rc == 2
    assert "sample rate 0" in capsys.readouterr().err


def test_predict_44k_wav_is_data_error(workspace, tmp_path, capsys):
    (tmp_path / "cd.wav").write_bytes(build_wav_bytes(np.zeros(10 * 44100), sample_rate=44100))
    rc = main(["predict", str(workspace / "model.bin"), str(tmp_path / "cd.wav")])
    assert rc == 2
    assert "sample rate 44100 Hz" in capsys.readouterr().err


def test_predict_unchained_model_is_data_error(tmp_path, capsys):
    model = _model_with_unchained_layer(tmp_path / "unchained.bin")
    write_wav(sine_clip(seconds=10.0), tmp_path / "clip.wav")
    assert main(["predict", str(model), str(tmp_path / "clip.wav")]) == 2
    assert "unchained.bin" in capsys.readouterr().err


def test_predict_non_finite_network_output_exits_three(workspace, tmp_path, capsys):
    # weights scaled by 1e100 overflow to NaN probabilities; unchecked, every
    # segment would print "Barisal p=nan" and the vote would exit 0
    assert main(_non_finite_output_argv("predict", workspace, tmp_path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "numeric error: network output contains NaN or infinity\n"


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_non_finite_network_output_raises_no_numpy_warning(workspace, tmp_path, command):
    argv = _non_finite_output_argv(command, workspace, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    # outside pytest, numpy prints each warning with its source line on stderr
    result = subprocess.run([sys.executable, "-m", "divrec.cli", *argv],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert result.returncode == 3
    assert result.stderr == "numeric error: network output contains NaN or infinity\n"


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("name", [n for n in BAD_MODELS if n not in ("10-8", "unchained")])
def test_other_network_is_data_error(workspace, tmp_path, capsys, command, name):
    # e.g. a single 26->8 softmax layer, or a net whose output is ReLU, not probabilities
    model = tmp_path / f"{name}.bin"
    model.write_bytes(build_model_bytes(**BAD_MODELS[name]))
    write_wav(sine_clip(seconds=10.0), tmp_path / "clip.wav")
    data = {"evaluate": workspace / "cache.feat", "predict": tmp_path / "clip.wav"}[command]
    assert main([command, str(model), str(data)]) == 2
    err = capsys.readouterr().err
    assert f"{name}.bin: header or size differs" in err and "Traceback" not in err


def test_predict_majority_vote_two_against_one(workspace, tmp_path, capsys):
    rng = np.random.default_rng(99)
    parts = [synthesize_utterance(0, rng, 10.0), synthesize_utterance(0, rng, 10.0),
             synthesize_utterance(1, rng, 10.0)]
    write_wav(np.concatenate(parts), tmp_path / "vote.wav")
    assert main(["predict", str(workspace / "model.bin"), str(tmp_path / "vote.wav")]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    votes = [re.search(r"_seg\d+: (\w+)", line).group(1) for line in out[:3]]
    assert sorted(votes) == ["Barisal", "Barisal", "Chittagong"]
    assert "prediction: Barisal (2/3 segments)" in out[-1]


# --- make-fixture ---

def test_make_fixture_writes_expected_tree(tmp_path):
    assert main(["make-fixture", "--out", str(tmp_path / "c"), "--seed", "3",
                 "--speakers-per-class", "1", "--files-per-speaker", "2",
                 "--file-seconds", "10"]) == 0
    wavs = sorted((tmp_path / "c").rglob("*.wav"))
    assert len(wavs) == 8 * 1 * 2
    divisions = {p.parent.parent.name for p in wavs}
    assert len(divisions) == 8


def test_make_fixture_deterministic(tmp_path):
    for name in ("a", "b"):
        assert main(["make-fixture", "--out", str(tmp_path / name), "--seed", "5",
                     "--speakers-per-class", "1", "--files-per-speaker", "1",
                     "--file-seconds", "10"]) == 0
    a = sorted((tmp_path / "a").rglob("*.wav"))
    b = sorted((tmp_path / "b").rglob("*.wav"))
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_make_fixture_golden_bytes(tmp_path):
    """The fixture's bytes for a seed are fixed across code versions: every
    corpus, cache digest and acceptance gate downstream rests on them."""
    out = tmp_path / "c"
    assert main(["make-fixture", "--out", str(out), "--seed", "3",
                 "--speakers-per-class", "1", "--files-per-speaker", "2",
                 "--file-seconds", "10"]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*.wav")):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "94fdfff97f1de989190385aa4e5c2337492edaee42b0d9b4416e05ad183d40c9"


def _make_fixture_within(out: Path, seconds: float = 60.0) -> int:
    """Exit code of a one-second-per-file make-fixture run, failing the test
    if it raises or has not returned within ``seconds``."""
    codes = []
    argv = ["make-fixture", "--out", str(out), "--speakers-per-class", "1",
            "--files-per-speaker", "2", "--file-seconds", "1"]
    runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "make-fixture did not return"
    assert len(codes) == 1, "make-fixture raised instead of returning an exit code"
    # the writes running at the error finished: no file is left cut short
    assert all(p.stat().st_size == 44 + 2 * SR for p in out.rglob("*.wav") if p.is_file())
    return codes[0]


@pytest.mark.parametrize("blocker, kind", [
    ("Dhaka/dhaka_spk000/dhaka_spk000_001.wav", "directory"),  # fails the WAV write
    ("Khulna", "file"),  # fails the speaker directory's mkdir
], ids=["pool-write", "calling-thread-mkdir"])
def test_make_fixture_write_failure_is_exit_2(tmp_path, capsys, blocker, kind):
    out = tmp_path / "c"
    blocker = out / blocker
    if kind == "directory":
        blocker.mkdir(parents=True)
    else:
        blocker.parent.mkdir(parents=True)
        blocker.write_bytes(b"")
    assert _make_fixture_within(out) == 2
    err = capsys.readouterr().err
    assert str(blocker) in err
    assert "Traceback" not in err


# --- exit codes ---

@pytest.mark.parametrize("command, flags, named", [
    ("train", ["--epochs", "0"], "epochs"),
    ("train", ["--lr", "5"], "learning_rate"),
    ("train", ["--seed", "-1"], "seed"),
    ("evaluate", ["--split", "val", "--seed", "-1"], "seed"),
    ("preprocess", ["--workers", "0"], "--workers"),
    ("make-fixture", ["--seed", "-1"], "seed"),
    ("make-fixture", ["--file-seconds", "-1"], "file_seconds"),
    ("make-fixture", ["--file-seconds", "nan"], "file_seconds"),
    ("make-fixture", ["--file-seconds", "1e300"], "file_seconds"),
    ("make-fixture", ["--file-seconds", "1e-5"], "file_seconds"),
], ids=["epochs-0", "lr-5", "seed-negative", "evaluate-seed-negative",
        "workers-0", "fixture-seed-negative",
        "fixture-seconds-negative", "fixture-seconds-nan", "fixture-seconds-huge",
        "fixture-seconds-no-sample"])
def test_invalid_value_is_usage_error(tmp_path, capsys, command, flags, named):
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\n")
    positional = {
        "train": [str(tmp_path / "c.feat"), "--model-out", str(tmp_path / "m.bin"),
                  "--metrics-out", str(tmp_path / "metrics.csv")],
        "evaluate": [str(tmp_path / "m.bin"), str(tmp_path / "c.feat")],
        "preprocess": [str(manifest), "--out-dir", str(tmp_path / "seg"),
                       "--out", str(tmp_path / "s.csv")],
        "make-fixture": ["--out", str(tmp_path / "fx"), "--speakers-per-class", "1",
                         "--files-per-speaker", "1", "--file-seconds", "1"],
    }[command]
    assert main([command, *positional, *flags]) == 1
    err = capsys.readouterr().err
    assert named in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["train", "c.feat", "--model-out", "m.bin", "--metrics-out", "m.csv", "--config", "x"],
    ["evaluate", "m.bin", "c.feat", "--config", "x"],
    ["extract", "s.csv", "--out", "c.feat", "--csv", "x"],
    ["train", "c.feat", "--model-out", "m.bin", "--metrics-out", "m.csv",
     "--checkpoint-every", "0", "--checkpoint-dir", "d"],
    ["train", "c.feat", "--model-out", "m.bin", "--metrics-out", "m.csv",
     "--checkpoint-every", "-1", "--checkpoint-dir", "d"],
    ["train", "c.feat", "--model-out", "m.bin", "--metrics-out", "m.csv",
     "--checkpoint-every", "2"],
    ["train", "c.feat", "--model-out", "m.bin", "--metrics-out", "m.csv",
     "--checkpoint-dir", "d"],
    ["train", "c.feat", "--model-out", "m.bin", "--metrics-out", "m.csv",
     "--batch-size", "64"],
], ids=["train", "evaluate", "extract-csv", "train-checkpoint-every-0",
        "train-checkpoint-every-negative", "train-checkpoint-every", "train-checkpoint-dir",
        "train-batch-size"])
def test_config_flag_is_gone(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


def test_cli_options_are_pinned():
    # every flag of every command; a new or removed knob has to edit this table
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {name: {opt for action in p._actions for opt in action.option_strings}
               for name, p in commands.items()}
    assert options == {
        "scan": {"-h", "--help", "--out"},
        "preprocess": {"-h", "--help", "--out-dir", "--out", "--workers"},
        "extract": {"-h", "--help", "--out", "--workers"},
        "train": {"-h", "--help", "--model-out", "--metrics-out", "--seed", "--epochs",
                  "--lr"},
        "evaluate": {"-h", "--help", "--split", "--seed", "--out", "--confusion-csv"},
        "predict": {"-h", "--help"},
        "make-fixture": {"-h", "--help", "--out", "--seed", "--speakers-per-class",
                         "--files-per-speaker", "--file-seconds"},
    }


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--bogus-flag"])
    assert excinfo.value.code == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["transmogrify"])
    assert excinfo.value.code == 1


def test_memory_error_in_a_pool_worker_is_data_error(tmp_path, capsys, monkeypatch):
    # one row of three runs out of memory under two workers: the command ends,
    # rather than skipping the row as it does a bad file
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    clips = [tmp_path / f"clip{i}.wav" for i in range(3)]
    for clip in clips:
        write_wav(sine_clip(seconds=10.0), clip)
    manifest = tmp_path / "m.csv"
    manifest.write_text("audio_path,division,speaker_id\n"
                        + "".join(f"{clip},Dhaka,spk1\n" for clip in clips))
    calls = itertools.count()
    real_reduce_noise = cli.reduce_noise

    def reduce_noise(chunk):
        if next(calls) == 1:
            raise MemoryError
        return real_reduce_noise(chunk)

    monkeypatch.setattr(cli, "reduce_noise", reduce_noise)
    out = tmp_path / "s.csv"
    assert main(["preprocess", str(manifest), "--out-dir", str(tmp_path / "seg"),
                 "--out", str(out), "--workers", "2"]) == 2
    assert capsys.readouterr().err == "error: preprocess ran out of memory\n"
    assert not out.exists()


def test_numpy_memory_error_in_train_is_data_error(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "c.feat"
    write_feature_cache([AggregatedFeature(np.zeros(26), label, f"s{label}")
                         for label in range(8)], cache)
    # a 4 EiB request: numpy's _ArrayMemoryError, raised before anything is allocated
    monkeypatch.setattr(cli, "train", lambda records, config: np.empty(1 << 62, np.uint8))
    model, metrics = tmp_path / "m.bin", tmp_path / "metrics.csv"
    assert main(["train", str(cache), "--model-out", str(model),
                 "--metrics-out", str(metrics)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: train ran out of memory: Unable to allocate 4.00 EiB")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert not model.exists() and not metrics.exists()
