"""Dataset manifest: CSV rows of (audio_path, division, speaker_id).

A corpus on disk is laid out as ``root/<DivisionName>/<speaker_id>/*.wav``;
scanning walks that tree, skips directories that are not one of the eight
canonical division names and WAV files (``.wav`` in any case) directly under
the root or elsewhere under a division, and emits rows sorted by path so
repeated scans of an unchanged tree are byte-identical.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import astuple, dataclass, fields
from pathlib import Path

from .atomic import write_whole
from .errors import DataError
from .evaluation import DIVISION_NAMES


@dataclass
class ManifestRow:
    audio_path: str
    division: str
    speaker_id: str

    def __post_init__(self) -> None:
        # both name files, and the OS refuses a path with a NUL byte
        if "\0" in self.audio_path:
            raise DataError(f"{self.audio_path!r}: audio_path contains a NUL byte")
        if self.division not in DIVISION_NAMES:
            raise DataError(f"{self.audio_path}: unknown division {self.division!r}")
        if "\0" in self.speaker_id:
            raise DataError(f"{self.audio_path}: speaker_id {self.speaker_id!r} "
                            "contains a NUL byte")
        # speaker_id names a directory under the segment output root
        if not self.speaker_id or "/" in self.speaker_id or self.speaker_id in (".", ".."):
            raise DataError(f"{self.audio_path}: speaker_id {self.speaker_id!r} is not "
                            "a single path component (empty, '.', '..' or contains '/')")


MANIFEST_FIELDS = tuple(field.name for field in fields(ManifestRow))


def scan_corpus(root) -> tuple[list[ManifestRow], list[str]]:
    """Walk root/<Division>/<speaker>/*.wav; returns the rows and one line per
    skipped entry: each unknown division directory, each such WAV whose path is
    not valid UTF-8 (as decoded in this locale), and each other file directly
    under root or under a division whose suffix is .wav in any case."""
    root = Path(root)
    rows: list[ManifestRow] = []
    skipped: list[str] = []
    outside = "not a <Division>/<speaker>/*.wav file"
    if root.is_dir():
        entries = sorted(root.iterdir())
        skipped += [f"{path}: {outside}" for path in entries
                    if not path.is_dir() and path.suffix.lower() == ".wav"]
        for division_dir in (p for p in entries if p.is_dir()):
            if division_dir.name not in DIVISION_NAMES:
                skipped.append(f"unknown division directory: {division_dir.name}")
                continue
            listed = set()
            for speaker_dir in sorted(p for p in division_dir.iterdir() if p.is_dir()):
                for wav in sorted(speaker_dir.glob("*.wav")):
                    listed.add(wav)
                    try:  # the manifest is UTF-8 text
                        str(wav).encode("utf-8")
                    except UnicodeEncodeError:  # named by its bytes, which print
                        skipped.append(f"{os.fsencode(wav)!r}: "
                                       "path is not valid UTF-8 in this locale")
                        continue
                    rows.append(
                        ManifestRow(
                            audio_path=str(wav),
                            division=division_dir.name,
                            speaker_id=speaker_dir.name,
                        )
                    )
            skipped += [f"{path}: {outside}" for path in sorted(division_dir.rglob("*"))
                        if path.suffix.lower() == ".wav" and path not in listed]
    rows.sort(key=lambda r: r.audio_path)
    return rows, skipped


def write_manifest(rows: list[ManifestRow], path) -> None:
    """Written whole (``atomic.write_whole``)."""
    with write_whole(path) as raw, io.TextIOWrapper(raw, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_FIELDS)
        for row in rows:
            writer.writerow(astuple(row))


def read_manifest(path) -> list[ManifestRow]:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: manifest is not UTF-8 text ({exc})") from exc
    try:
        table = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise DataError(f"{path}: manifest is not readable CSV ({exc})") from exc
    if not table or tuple(table[0]) != MANIFEST_FIELDS:
        raise DataError(f"{path}: not a manifest (expected header {','.join(MANIFEST_FIELDS)})")
    rows = []
    seen = set()
    for raw in table[1:]:
        if len(raw) != len(MANIFEST_FIELDS):
            raise DataError(f"{path}: bad row {raw!r}")
        row = ManifestRow(*raw)
        if row.audio_path in seen:
            raise DataError(f"{path}: duplicate path {row.audio_path}")
        seen.add(row.audio_path)
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: the manifest lists no files")
    return rows
