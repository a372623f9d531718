"""The benchmark's workloads: input generators, measured passes and output checks.

Every workload has three parts:

- ``setup(seed)`` makes the inputs from the seed alone (same seed, same
  bytes) in the current directory; ``input_digest()`` hashes them;
- ``run_pass(seed)`` runs the operations a user would and times the pass;
- the checks inside ``run_pass`` compare every outcome with the expected one.
  Each operation (an input file, a segment or a CLI command)
  whose outcome differs counts as failed, with a one-line reason.

All paths are relative to the working directory, so the feature cache and
the model (which embed source paths) are byte-identical across checkouts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

POOL_WORKERS = 2
PAPER_EPOCHS = 35


@dataclass
class PassResult:
    """What one pass measured and found."""

    op_seconds: list[float]
    accuracy: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    disk_written_bytes: int = 0

    def check(self, ok: bool, reason: str) -> None:
        """Count one operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``divrec.cli.main(argv)`` in process; returns (exit code, stdout, stderr)."""
    from divrec import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors and --version
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(root) -> str:
    """SHA-256 over the sorted relative paths and contents of every file."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(sha256_file(path).encode())
    return digest.hexdigest()


def tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def fresh_dir(path) -> Path:
    path = Path(path)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _epoch_rows(metrics_csv) -> int:
    with open(metrics_csv) as fh:
        return sum(1 for _ in fh) - 1


class Pipeline480:
    """48 x 100 s WAVs plus two refusals through scan -> preprocess -> extract
    -> train -> evaluate, as separate CLI commands."""

    name = "pipeline-480"
    why = ("per-segment audio layers (preprocess, audio_io, features) at the run_demo "
           "scale through the CLI with 2 pool workers; writes and re-reads segment WAVs")
    speakers_per_class = 6
    file_seconds = 100.0
    segments_per_file = 10
    # inputs the pipeline must refuse: a clip under 8 s yields no segment, a
    # WAV whose data chunk is cut short fails preprocessing with a DataError
    short_clip = Path("corpus/Sylhet/sylhet_short/sylhet_short_000.wav")
    truncated = Path("corpus/Dhaka/dhaka_trunc/dhaka_trunc_000.wav")

    def setup(self, seed: int) -> None:
        from divrec import fixture

        fresh_dir("corpus")
        fixture.make_fixture("corpus", seed=seed, speakers_per_class=self.speakers_per_class,
                             files_per_speaker=1, file_seconds=self.file_seconds)
        extra = fresh_dir("refusals")
        made = fixture.make_fixture(extra, seed=seed + 100_000, speakers_per_class=1,
                                    files_per_speaker=1, file_seconds=5.0)
        for target, source in ((self.short_clip, made[7]), (self.truncated, made[2])):
            target.parent.mkdir(parents=True)
            raw = source.read_bytes()
            target.write_bytes(raw if target == self.short_clip else raw[: len(raw) // 2])
        shutil.rmtree(extra)

    def input_digest(self) -> str:
        return tree_digest("corpus")

    def expected_inputs(self) -> list[str]:
        return sorted(str(p) for p in Path("corpus").rglob("*.wav"))

    def run_pass(self, seed: int) -> PassResult:
        from divrec import features
        from divrec.evaluation import label_from_name

        out = fresh_dir("out")
        commands = [
            ["scan", "corpus", "--out", f"{out}/manifest.csv"],
            ["preprocess", f"{out}/manifest.csv", "--out-dir", f"{out}/segments",
             "--out", f"{out}/segments.csv", "--workers", str(POOL_WORKERS)],
            ["extract", f"{out}/segments.csv", "--out", f"{out}/cache.feat",
             "--workers", str(POOL_WORKERS)],
            ["train", f"{out}/cache.feat", "--model-out", f"{out}/model.bin",
             "--metrics-out", f"{out}/metrics.csv", "--seed", str(seed)],
            ["evaluate", f"{out}/model.bin", f"{out}/cache.feat", "--split", "val",
             "--seed", str(seed), "--out", f"{out}/report.json"],
        ]
        outcomes = []
        start = time.perf_counter()
        for argv in commands:
            outcomes.append(run_cli(argv))
            if outcomes[-1][0] != 0:
                break
        wall = time.perf_counter() - start

        result = PassResult(op_seconds=[wall], accuracy=0.0)
        outcomes += [(None, "", "")] * (len(commands) - len(outcomes))
        inputs = self.expected_inputs()
        seg_rows = _read_rows(out / "segments.csv")
        cached = {}
        if (out / "cache.feat").exists():
            cached = {r.source_id: r.label for r in features.read_feature_cache(out / "cache.feat")}
        if (out / "report.json").exists():
            result.accuracy = json.loads((out / "report.json").read_text())["accuracy"]
        epochs = _epoch_rows(out / "metrics.csv") if (out / "metrics.csv").exists() else 0
        expected_segments = (len(inputs) - 2) * self.segments_per_file

        # a command succeeds when it exits 0 and its output says what it should
        expectations = {
            "scan": True,
            "preprocess": f"(1/{len(inputs)} input files failed)" in outcomes[1][1],
            "extract": len(cached) == expected_segments,
            "train": epochs == PAPER_EPOCHS,
            "evaluate": result.accuracy >= 0.95,  # the acceptance suite's gate
        }
        for argv, (rc, stdout, err) in zip(commands, outcomes):
            result.check(rc == 0 and expectations[argv[0]],
                         f"{argv[0]}: exit {rc}, {stdout.strip()[-120:]!r} {err.strip()[-120:]!r}")

        stderr = outcomes[1][2]
        per_input: dict[str, int] = {}
        for row in seg_rows:
            stem = Path(row["audio_path"]).stem.rsplit("_seg", 1)[0]
            per_input[stem] = per_input.get(stem, 0) + 1
        for path in inputs:
            got = per_input.get(Path(path).stem, 0)
            if path == str(self.truncated):
                refused = any(line.startswith(path) for line in stderr.splitlines())
                result.check(refused and got == 0, f"{path}: truncated WAV not refused")
            elif path == str(self.short_clip):
                result.check(got == 0, f"{path}: short clip gave {got} segments")
            else:
                result.check(got == self.segments_per_file,
                             f"{path}: {got} segments, expected {self.segments_per_file}")

        for row in seg_rows:
            label = cached.get(row["audio_path"])
            result.check(label == label_from_name(row["division"]),
                         f"{row['audio_path']}: cache label {label}")
        for i in range(expected_segments - len(seg_rows)):
            result.check(False, f"segment {len(seg_rows) + i}: missing")
        result.digests = _digests(out, {"model.bin": "model.bin", "metrics.csv": "metrics.csv",
                                        "cache": "cache.feat"})
        result.disk_written_bytes = tree_bytes(out)
        shutil.rmtree(out)
        return result


class TrainPaper:
    """A DIVFEAT1 cache with the paper's class sizes through train and evaluate."""

    name = "train-paper"
    why = ("network and training at paper scale: 16,730 records, 3,675 Adam steps, "
           "no audio code; overlapping blobs keep val accuracy below 1.0")
    class_sizes = (2400, 2200, 2150, 2100, 2050, 2000, 1950, 1880)  # 16,730 records
    val_size = 1673
    # fixed class centers; the seed draws only the per-record scatter
    center_seed = 2024
    center_scale = 3.0
    spread = 5.0

    def records(self, seed: int):
        from divrec.features import FEATURE_DIM, AggregatedFeature

        centers = np.random.default_rng(self.center_seed).normal(
            0.0, self.center_scale, (len(self.class_sizes), FEATURE_DIM))
        rng = np.random.default_rng(seed)
        records = []
        for label, size in enumerate(self.class_sizes):
            points = centers[label] + rng.normal(0.0, self.spread, (size, FEATURE_DIM))
            records += [AggregatedFeature(v, label, f"blob{label}_{i:05d}")
                        for i, v in enumerate(points)]
        return records

    def setup(self, seed: int) -> None:
        from divrec import features

        features.write_feature_cache(self.records(seed), "paper.feat")

    def input_digest(self) -> str:
        return sha256_file("paper.feat")

    def run_pass(self, seed: int) -> PassResult:
        out = fresh_dir("out")
        commands = [
            ["train", "paper.feat", "--model-out", f"{out}/model.bin",
             "--metrics-out", f"{out}/metrics.csv", "--seed", str(seed)],
            ["evaluate", f"{out}/model.bin", "paper.feat", "--split", "val",
             "--seed", str(seed), "--out", f"{out}/report.json"],
        ]
        start = time.perf_counter()
        train_out = run_cli(commands[0])
        eval_out = run_cli(commands[1]) if train_out[0] == 0 else (None, "", "")
        wall = time.perf_counter() - start

        result = PassResult(op_seconds=[wall], accuracy=0.0)
        report = {}
        if (out / "report.json").exists():
            report = json.loads((out / "report.json").read_text())
            result.accuracy = report["accuracy"]
        final_val = [line for line in train_out[1].splitlines()
                     if line.startswith("final val accuracy:")]
        train_ok = (train_out[0] == 0 and (out / "metrics.csv").exists()
                    and _epoch_rows(out / "metrics.csv") == PAPER_EPOCHS)
        result.check(train_ok, f"train: exit {train_out[0]}: {train_out[2].strip()[-200:]}")
        # evaluate must score the validation split exactly as training did
        agrees = bool(final_val) and abs(float(final_val[0].split(":")[1]) - result.accuracy) < 1e-6
        eval_ok = (eval_out[0] == 0 and report.get("total") == self.val_size
                   and agrees and result.accuracy >= 0.5)
        result.check(eval_ok, f"evaluate: exit {eval_out[0]}, accuracy {result.accuracy}, "
                              f"total {report.get('total')}, train said {final_val}")
        result.digests = _digests(out, {"model.bin": "model.bin", "metrics.csv": "metrics.csv"})
        result.digests["cache"] = sha256_file("paper.feat")
        result.disk_written_bytes = tree_bytes(out)
        shutil.rmtree(out)
        return result


def _read_rows(path) -> list[dict]:
    if not Path(path).exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digests(out: Path, names: dict[str, str]) -> dict[str, str]:
    return {key: sha256_file(out / name) if (out / name).exists() else "missing"
            for key, name in names.items()}


WORKLOADS = {w.name: w for w in (Pipeline480(), TrainPaper())}
