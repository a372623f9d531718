"""MFCC FB-40 feature extraction and the 26-dim segment vector.

Per frame: Hamming window, zero-padded 512-point DFT power spectrum, 40
equal-area triangular mel filters, natural log of the filter energies,
orthonormal DCT-II keeping the first 13 coefficients. A segment is summarized
as the classifier's input vector: the 13 MFCC means over its frames, then the
13 means of their first-order delta (window 2, edge frames clamped), which
``aggregate`` computes in closed form from the first and last frames.

Every recipe value is a module constant, and so is every fixed operand built
from them (``HAMMING``, ``DCT_BASIS``, ``DCT_SCALE``), built once at import.
Frames do not overlap (the hop is the frame length), so a 10 s clip at 16 kHz
yields exactly 400 frames of 400 samples, and there is no pre-emphasis.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .atomic import write_whole
from .audio_io import TARGET_SAMPLE_RATE
from .errors import DataError
from .network import NUM_CLASSES

FRAME_LEN = 400  # 25 ms at 16 kHz; also the hop
FFT_SIZE = 512
NUM_FILTERS = 40
NUM_STATIC = 13
DELTA_WINDOW = 2
LOG_FLOOR = 1e-10
FEATURE_DIM = 2 * NUM_STATIC

CACHE_MAGIC = b"DIVFEAT1"

# symmetric Hamming window, endpoints 0.08
HAMMING = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / (FRAME_LEN - 1))

# the (NUM_STATIC, NUM_FILTERS) cosine basis and per-term scale of ``dct2_ortho``
DCT_BASIS = np.cos(np.pi * np.outer(np.arange(NUM_STATIC), 2 * np.arange(NUM_FILTERS) + 1)
                   / (2 * NUM_FILTERS))
DCT_SCALE = np.full(NUM_STATIC, np.sqrt(2.0 / NUM_FILTERS))
DCT_SCALE[0] = np.sqrt(1.0 / NUM_FILTERS)


@dataclass
class FilterBank:
    """40 x 257 non-negative weights."""

    weights: np.ndarray


@dataclass
class AggregatedFeature:
    """26-dim per-segment mean feature vector with its division label; a plain
    record, not checked when built. The cache writer and ``FeatureTable.of``
    refuse, by one check, a vector of another shape, a label that is not an
    int in 0..7 and a source id that is not UTF-8 or is over 65,535 bytes of
    it; the reader refuses a label byte outside 0..7. A ``FeatureTable``
    builds one on demand for each row it is asked for, decoding its source id
    then."""

    vector: np.ndarray
    label: int
    source_id: str


class FeatureTable(Sequence):
    """Records held as columns: an (n, 26) vector array, an (n,) int64 label
    array, and the n source ids as one UTF-8 buffer with n + 1 int64 offsets
    (id k is ``buffer[offsets[k]:offsets[k + 1]]``), checked as a cache's
    records are: by the reader for a read table, by the writer's check for a
    list's (``of``). ``rows`` picks this table's records from the columns, in
    its order, so the parts of a split share one set of columns; it is None
    for a table that is all of its columns in order, whose ``labels`` and
    ``vectors()`` are the columns themselves. ``t[i]`` is an
    ``AggregatedFeature`` whose vector is a writeable view of its row;
    ``t[a:b]`` is a table."""

    def __init__(self, vectors: np.ndarray, labels: np.ndarray, id_buffer: bytes,
                 id_offsets: np.ndarray, rows: np.ndarray | None = None) -> None:
        self.columns = (vectors, labels, id_buffer, id_offsets)
        self.rows = rows

    @classmethod
    def of(cls, records) -> FeatureTable:
        """``records`` itself if it is a table, else a table of a list's
        records, checked by the cache writer's own check (``_cache_fields``):
        a record the writer would refuse raises its ``ValueError``."""
        if isinstance(records, FeatureTable):
            return records
        vectors = np.empty((len(records), FEATURE_DIM))
        labels = np.empty(len(records), dtype=np.int64)
        ids = []
        for i, (row, label, sid) in enumerate(_cache_fields(records)):
            vectors[i], labels[i] = row, label
            ids.append(sid)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum([len(sid) for sid in ids], out=offsets[1:])
        return cls(vectors, labels, b"".join(ids), offsets)

    def __len__(self) -> int:
        return len(self.columns[1]) if self.rows is None else len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        row = range(len(self))[i] if self.rows is None else self.rows[i]
        vectors, labels, id_buffer, id_offsets = self.columns
        source_id = id_buffer[id_offsets[row] : id_offsets[row + 1]].decode("utf-8")
        return AggregatedFeature(vectors[row], int(labels[row]), source_id)

    def take(self, index) -> FeatureTable:
        """The table of this one's records at ``index``, over the same columns."""
        rows = np.arange(len(self)) if self.rows is None else self.rows
        return FeatureTable(*self.columns, rows=rows[index])

    @property
    def labels(self) -> np.ndarray:
        """The records' labels: the label column itself for a whole table."""
        labels = self.columns[1]
        return labels if self.rows is None else labels[self.rows]

    def vectors(self, index=slice(None)) -> np.ndarray:
        """The (k, 26) vectors of this table's records at ``index``, gathered
        into a new array; a whole table given a slice gives a view of its
        vector column instead, and its ``vectors()`` is the column itself."""
        vectors = self.columns[0]
        return vectors[index] if self.rows is None else vectors[self.rows[index]]


def frame_signal(samples: np.ndarray) -> np.ndarray:
    """Slice into (T, FRAME_LEN) at offsets 0, FRAME_LEN, 2*FRAME_LEN, ...;
    partial tail dropped.

    The result is a read-only view of ``samples``, not a copy.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < FRAME_LEN:
        raise DataError(f"{n} samples < frame length {FRAME_LEN}")
    return sliding_window_view(samples, FRAME_LEN)[::FRAME_LEN]


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """|DFT(frame * HAMMING)|^2 / FFT_SIZE on FFT_SIZE/2 + 1 bins, over the
    last axis: one FRAME_LEN frame or a (T, FRAME_LEN) stack of them."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-1:] != (FRAME_LEN,):
        raise ValueError(f"expected frames of length {FRAME_LEN}, got {frames.shape}")
    spectra = np.fft.rfft(frames * HAMMING, n=FFT_SIZE)
    return (spectra.real**2 + spectra.imag**2) / FFT_SIZE


def mel(f) -> np.ndarray:
    """Hz -> mel: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_inv(m) -> np.ndarray:
    """mel -> Hz, exact inverse of ``mel``."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def build_filterbank() -> FilterBank:
    """Triangular equal-area mel filterbank on integer DFT bins.

    NUM_FILTERS + 2 boundaries are spaced uniformly on the mel scale between
    0 Hz and the Nyquist frequency and rounded to DFT bin indices, each at
    least one bin above the last. Filter i rises from boundary i-1 to i and
    falls to i+1, scaled by 2 over the product of the branch width and the
    full support width, which makes every filter's discrete weight sum equal
    (exactly 1 for integer boundaries).
    """
    mel_pts = np.linspace(mel(0.0), mel(TARGET_SAMPLE_RATE / 2), NUM_FILTERS + 2)
    hz_pts = mel_inv(mel_pts)
    bins = np.round(hz_pts * FFT_SIZE / TARGET_SAMPLE_RATE).astype(np.int64)

    n_bins = FFT_SIZE // 2 + 1
    weights = np.zeros((NUM_FILTERS, n_bins))
    k = np.arange(n_bins)
    for i in range(NUM_FILTERS):
        lo, mid, hi = bins[i], bins[i + 1], bins[i + 2]
        rising = (k >= lo) & (k <= mid)
        falling = (k > mid) & (k <= hi)
        weights[i, rising] = 2.0 * (k[rising] - lo) / ((mid - lo) * (hi - lo))
        weights[i, falling] = 2.0 * (hi - k[falling]) / ((hi - mid) * (hi - lo))
    return FilterBank(weights=weights)


def log_mel_energies(power_spec: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Natural log of the per-filter energies, floored at LOG_FLOOR to avoid log(0)."""
    energies = power_spec @ bank.weights.T
    return np.log(np.maximum(energies, LOG_FLOOR))


def dct2_ortho(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of the NUM_FILTERS-long last axis, first NUM_STATIC terms."""
    return (np.asarray(x, dtype=np.float64) @ DCT_BASIS.T) * DCT_SCALE


def extract(samples: np.ndarray, bank: FilterBank) -> np.ndarray:
    """Per-frame MFCCs of 16 kHz mono samples: a (T, 13) matrix, one row per
    FRAME_LEN frame.

    The caller builds ``bank`` once (``build_filterbank``) for many segments.
    """
    if samples.ndim != 1:
        raise ValueError("extract expects mono samples")
    return dct2_ortho(log_mel_energies(power_spectrum(frame_signal(samples)), bank))


def aggregate(mfcc: np.ndarray) -> np.ndarray:
    """The 26-dim segment vector of a (T, 13) MFCC matrix: the 13 column means, then
    the 13 means over t of the delta with clamped edges,
    d_t = sum_{n=1..DELTA_WINDOW} n * (c_{min(t+n, T-1)} - c_{max(t-n, 0)}) / (2 * sum n^2).

    Summed over t, each n-term telescopes to the last n frames minus the first n, plus
    min(n, T) * (c_{T-1} - c_0) from the clamping: only DELTA_WINDOW frames at each end count.
    """
    mfcc = np.asarray(mfcc, dtype=np.float64)
    if mfcc.ndim != 2 or mfcc.shape[0] < 1:
        raise ValueError("expected a non-empty (T, d) matrix")
    t = mfcc.shape[0]
    drift = sum(n * (mfcc[-n:].sum(0) - mfcc[:n].sum(0) + min(n, t) * (mfcc[-1] - mfcc[0]))
                for n in range(1, DELTA_WINDOW + 1))
    drift /= 2 * sum(n * n for n in range(1, DELTA_WINDOW + 1)) * t
    return np.concatenate([mfcc.mean(axis=0), drift])


# --- feature cache container (see docs/formats.md) ---

_RECORD_HEADER = struct.Struct("<BH")  # label, source-id length
_VECTOR_BYTES = 8 * FEATURE_DIM
_MIN_RECORD = _RECORD_HEADER.size + _VECTOR_BYTES  # a record with an empty source id
_MAX_SOURCE_ID = 0xFFFF  # bytes a u16 length can declare
_WRITE_BLOCK = 1024  # records joined per write, so the writer's memory stays flat


def _cache_fields(records):
    """Each record's (26 f64 LE values, label, UTF-8 source id), as a cache
    holds them. A vector that is not 26 values, a label that is not an int in
    0..7 (numpy's taken, 3.0 refused) or a source id that is not UTF-8 or is
    over 65,535 bytes of it raises ``ValueError`` naming the record."""
    for i, rec in enumerate(records):
        row = np.asarray(rec.vector, dtype="<f8")
        if row.shape != (FEATURE_DIM,):
            raise ValueError(f"record {i}: expected {FEATURE_DIM} values, got shape {row.shape}")
        try:
            label = operator.index(rec.label)
            if not 0 <= label < NUM_CLASSES:
                raise TypeError
        except TypeError:
            raise ValueError(f"record {i}: label must be an int in "
                             f"0..{NUM_CLASSES - 1}, got {rec.label}") from None
        try:
            sid = rec.source_id.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"record {i}: source id is not UTF-8") from None
        if len(sid) > _MAX_SOURCE_ID:
            raise ValueError(f"record {i}: source id is {len(sid)} bytes of UTF-8, "
                             f"over {_MAX_SOURCE_ID}")
        yield row, label, sid


def write_feature_cache(records: list[AggregatedFeature], path) -> None:
    """Binary cache: DIVFEAT1 magic, u64 count, then per record a label byte,
    u16 source-id length + UTF-8 bytes, 26 f64 LE values. A record
    ``_cache_fields`` refuses raises its ``ValueError``. Written whole
    (``atomic.write_whole``): a write that raises leaves ``path`` as it was."""
    with write_whole(path) as fh:
        fh.write(CACHE_MAGIC + struct.pack("<Q", len(records)))
        parts = []
        for row, label, sid in _cache_fields(records):
            parts.append(_RECORD_HEADER.pack(label, len(sid)) + sid + row.tobytes())
            if len(parts) == _WRITE_BLOCK:
                fh.write(b"".join(parts))
                parts.clear()
        fh.write(b"".join(parts))


def read_feature_cache(path) -> FeatureTable:
    """The file's records as a whole ``FeatureTable``, whose columns are one
    (count, 26) array, the labels and the source ids' bytes as they lie in the
    file; each id is decoded once here, so one that is not UTF-8 is refused."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CACHE_MAGIC:
        raise DataError(f"{path}: not a feature cache (bad magic)")
    truncated = DataError(f"{path}: truncated feature cache")
    # the declared count is any u64: bound it by the file before allocating
    count = int.from_bytes(raw[8:16], "little")
    if len(raw) < 16 or count > (len(raw) - 16) // _MIN_RECORD:
        raise truncated
    values = bytearray(count * _VECTOR_BYTES)
    labels = bytearray(count)
    ids = bytearray()
    id_offsets = np.zeros(count + 1, dtype=np.int64)
    pos = 16
    try:
        for i in range(count):
            label, sid_len = _RECORD_HEADER.unpack_from(raw, pos)
            start = pos + _RECORD_HEADER.size + sid_len
            pos = start + _VECTOR_BYTES
            if pos > len(raw):
                raise truncated
            sid = raw[start - sid_len : start]
            try:
                sid.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: record {i} source id is not UTF-8") from exc
            values[i * _VECTOR_BYTES : (i + 1) * _VECTOR_BYTES] = raw[start:pos]
            if label >= NUM_CLASSES:
                raise DataError(f"{path}: record {i}: label must be an int in "
                                f"0..{NUM_CLASSES - 1}, got {label}")
            labels[i] = label
            ids += sid
            id_offsets[i + 1] = len(ids)
    except struct.error as exc:
        raise truncated from exc
    if pos != len(raw):
        raise DataError(f"{path}: {len(raw) - pos} bytes after the {count} declared records")
    del raw  # so the check below does not add to the peak of the parse
    vectors = np.frombuffer(values, dtype="<f8").reshape(count, FEATURE_DIM)
    non_finite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if non_finite.size:
        raise DataError(f"{path}: record {non_finite[0]} has a NaN or infinite value")
    return FeatureTable(vectors, np.frombuffer(labels, dtype=np.uint8).astype(np.int64),
                        bytes(ids), id_offsets)
