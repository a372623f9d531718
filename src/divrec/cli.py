"""Command-line surface: scan, preprocess, extract, train, evaluate, predict,
make-fixture.

Every command is deterministic given identical inputs, flags, and seed.
Exit codes are a stable contract: 0 success, 1 usage error, 2 data error
(also running out of memory), 3 internal numeric error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import write_whole
from .audio_io import TARGET_SAMPLE_RATE, ingest, pcm16_round_trip, write_wav
from .errors import DataError, NumericError
from .evaluation import (
    DIVISION_NAMES,
    confusion_csv,
    evaluate,
    label_from_name,
    predict,
)
from .features import (
    AggregatedFeature,
    aggregate,
    build_filterbank,
    extract,
    read_feature_cache,
    write_feature_cache,
)
from .fixture import make_fixture
from .manifest import ManifestRow, read_manifest, scan_corpus, write_manifest
from .network import load_model, save_model
from .preprocess import CHUNK_SAMPLES, MIN_TAIL_SAMPLES, reduce_noise, segment
from .training import TrainingConfig, split_dataset, train, write_metrics_csv


class UsageError(Exception):
    """Bad flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the exit-code contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _training_config(args) -> TrainingConfig:
    """TrainingConfig defaults overridden by the flags given."""
    kwargs = {key: value for key in ("learning_rate", "epochs", "seed")
              if (value := getattr(args, key, None)) is not None}
    try:
        return TrainingConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _openblas():
    """numpy's bundled OpenBLAS as its (get, set) thread-count functions, or
    None when numpy bundles no library with those symbols."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*.so*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def _single_threaded_blas():
    """Hold OpenBLAS at one thread inside the block and restore the previous
    count on the way out; does nothing when the library is not found."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _map_rows(rows: list[ManifestRow], fn, workers: int) -> tuple[list, int]:
    """Run ``fn`` over ``rows`` on ``workers`` threads; returns the results in
    manifest order and the count of rows that raised DataError or OSError
    (a missing or unreadable file), each logged on stderr as one line that
    starts with the row's path. ``workers`` above the cores this process may
    run on is cut to that count, with one stderr line saying so; each worker
    holds a whole recording, and the results do not depend on the count.

    With two or more workers, OpenBLAS is held at one thread until the last
    worker has finished, so the pool's threads do not each start BLAS threads
    that compete for the same cores; the previous count is restored afterwards,
    also when a row raised. The count is process-wide, so two concurrent calls
    (from library code; the CLI makes one at a time) are not supported."""
    if workers < 1:
        raise UsageError(f"--workers must be at least 1, got {workers}")
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if workers > cores:
        print(f"--workers {workers} is more than the {cores} cores this process may use; "
              f"running {cores}", file=sys.stderr)
        workers = cores

    def attempt(row: ManifestRow):
        try:
            return fn(row), None
        except (DataError, OSError) as exc:
            # audio_io errors already name the file; OSError text starts with [Errno n]
            message = str(exc)
            if not message.startswith(row.audio_path):
                message = f"{row.audio_path}: {message}"
            return None, message

    results = []
    failures = 0
    blas = _single_threaded_blas() if workers > 1 else nullcontext()
    with blas, ThreadPoolExecutor(max_workers=workers) as pool:
        for result, err in pool.map(attempt, rows):
            if err is not None:
                failures += 1
                print(err, file=sys.stderr)
            else:
                results.append(result)
    return results, failures


# --- commands ---

def cmd_scan(args) -> int:
    rows, skipped = scan_corpus(args.root)
    for line in skipped:
        print(f"skipping {line}", file=sys.stderr)
    if not rows:
        raise DataError(f"no WAV files found under {args.root}")
    write_manifest(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _preprocess_one(row: ManifestRow, out_dir: Path) -> list[ManifestRow]:
    samples = ingest(row.audio_path)
    segments = segment(samples)
    if not segments:  # logged, not counted as a failure
        print(f"{row.audio_path}: {len(samples) / TARGET_SAMPLE_RATE:g} s long, "
              "too short for one 8-10 s segment; skipped", file=sys.stderr)
        return []
    stem = Path(row.audio_path).stem
    seg_dir = out_dir / row.division / row.speaker_id
    seg_dir.mkdir(parents=True, exist_ok=True)
    out_rows = []
    for i, chunk in enumerate(segments):
        chunk = reduce_noise(chunk)
        seg_path = seg_dir / f"{stem}_seg{i:03d}.wav"
        write_wav(chunk, seg_path)
        out_rows.append(replace(row, audio_path=str(seg_path)))
    return out_rows


def cmd_preprocess(args) -> int:
    rows = read_manifest(args.manifest)
    # segment files are named by division, speaker and stem, not by the full path
    owners = {}
    for row in rows:
        name = Path(row.division, row.speaker_id, Path(row.audio_path).stem)
        if (first := owners.setdefault(name, row.audio_path)) != row.audio_path:
            raise DataError(f"{first} and {row.audio_path} would both write {name}_segNNN.wav")
    out_dir = Path(args.out_dir)
    per_file, failures = _map_rows(rows, lambda row: _preprocess_one(row, out_dir), args.workers)
    if not rows:
        raise DataError(f"{args.manifest}: the manifest lists no files")
    if failures == len(rows):
        raise DataError("all input files failed preprocessing")
    out_rows = [seg_row for seg_rows in per_file for seg_row in seg_rows]
    if not out_rows:
        raise DataError(f"no input file yielded a segment: {failures} failed, "
                        f"{len(rows) - failures} shorter than 8 s")
    write_manifest(out_rows, args.out)
    print(f"wrote {len(out_rows)} segment rows to {args.out} "
          f"({failures}/{len(rows)} input files failed)")
    return 0


def cmd_extract(args) -> int:
    rows = read_manifest(args.manifest)
    bank = build_filterbank()

    def featurize(row: ManifestRow) -> AggregatedFeature:
        samples = ingest(row.audio_path)
        if not MIN_TAIL_SAMPLES <= len(samples) <= CHUNK_SAMPLES:
            raise DataError(f"{row.audio_path}: {len(samples) / TARGET_SAMPLE_RATE:g} s long, "
                            "not an 8-10 s segment from preprocess")
        return AggregatedFeature(
            vector=aggregate(extract(samples, bank=bank)),
            label=label_from_name(row.division),
            source_id=row.audio_path,
        )

    records, failures = _map_rows(rows, featurize, args.workers)
    if not rows:
        raise DataError(f"{args.manifest}: the manifest lists no files")
    if not records:
        raise DataError("no segments could be extracted")
    write_feature_cache(records, args.out)
    print(f"wrote {len(records)} records to {args.out} "
          f"({failures}/{len(rows)} segments failed)")
    return 0


def cmd_train(args) -> int:
    training_config = _training_config(args)
    records = read_feature_cache(args.cache)
    params, history = train(records, training_config)
    for m in history:
        print(
            f"epoch {m.epoch:3d}  train_loss {m.train_loss:.4f}  train_acc {m.train_acc:.4f}  "
            f"val_loss {m.val_loss:.4f}  val_acc {m.val_acc:.4f}  lr {m.learning_rate:.6g}",
            file=sys.stderr,
        )
    save_model(params, args.model_out)
    write_metrics_csv(history, args.metrics_out)
    final = history[-1]
    print(f"last epoch's training-batch accuracy: {final.train_acc:.6f}")
    print(f"final val accuracy: {final.val_acc:.6f}")
    print(f"model written to {args.model_out}, metrics to {args.metrics_out}")
    return 0


def cmd_evaluate(args) -> int:
    training_config = _training_config(args)
    params = load_model(args.model)
    records = read_feature_cache(args.cache)
    if args.split != "full":
        train_set, test_set, val_set = split_dataset(records, training_config)
        records = {"train": train_set, "test": test_set, "val": val_set}[args.split]
    report = evaluate(params, records)
    text = json.dumps(report, indent=2)
    print(text)
    for path, content in ((args.out, text + "\n"), (args.confusion_csv, confusion_csv(report))):
        if path:
            with write_whole(path) as fh:
                fh.write(content.encode())
    return 0


def cmd_predict(args) -> int:
    params = load_model(args.model)
    samples = ingest(args.wav)
    segments = segment(samples)
    if not segments:
        seconds = len(samples) / TARGET_SAMPLE_RATE
        raise DataError(f"{args.wav}: too short ({seconds:.2f} s) for one 8-10 s segment")
    bank = build_filterbank()
    # the PCM16 rounding a segment file goes through between preprocess and extract
    x = np.stack([aggregate(extract(pcm16_round_trip(reduce_noise(chunk)), bank=bank))
                  for chunk in segments])
    labels, probs = predict(params, x)
    for i, (label, p) in enumerate(zip(labels, probs)):
        print(f"{args.wav}_seg{i:03d}: {DIVISION_NAMES[label]} p={p[label]:.4f}")
    votes = np.bincount(labels, minlength=len(DIVISION_NAMES))
    winner = int(np.argmax(votes))  # ties resolve to the lowest label index
    print(f"prediction: {DIVISION_NAMES[winner]} "
          f"({votes[winner]}/{len(segments)} segments)")
    return 0


def cmd_make_fixture(args) -> int:
    try:
        written = make_fixture(
            args.out,
            seed=args.seed,
            speakers_per_class=args.speakers_per_class,
            files_per_speaker=args.files_per_speaker,
            file_seconds=args.file_seconds,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"wrote {len(written)} files under {args.out}")
    return 0


# --- wiring ---

def build_parser() -> _Parser:
    parser = _Parser(prog="divrec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"divrec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="walk a corpus tree and write a manifest CSV")
    p.add_argument("root")
    p.add_argument("--out", required=True, help="manifest CSV path")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("preprocess", help="segment into 8-10 s chunks and reduce noise")
    p.add_argument("manifest")
    p.add_argument("--out-dir", required=True, help="root for segment WAVs")
    p.add_argument("--out", required=True, help="segment manifest CSV path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("extract", help="compute 26-dim features of 8-10 s segments into a cache")
    p.add_argument("manifest")
    p.add_argument("--out", required=True, help="feature cache path")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the classifier on a feature cache")
    p.add_argument("cache")
    p.add_argument("--model-out", required=True)
    p.add_argument("--metrics-out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a model against a feature cache")
    p.add_argument("model")
    p.add_argument("cache")
    p.add_argument("--split", choices=["full", "train", "test", "val"], default="full")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--confusion-csv", help="write the confusion matrix CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify one WAV file end to end")
    p.add_argument("model")
    p.add_argument("wav")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("make-fixture", help="generate the synthetic 8-class corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speakers-per-class", type=int, default=5)
    p.add_argument("--files-per-speaker", type=int, default=5)
    p.add_argument("--file-seconds", type=float, default=100.0)
    p.set_defaults(func=cmd_make_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's is a subclass; a pool worker's ends the command
        print(f"error: {args.command} ran out of memory" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
