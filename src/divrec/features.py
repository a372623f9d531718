"""MFCC FB-40 + delta feature extraction and the 26-dim segment vector.

Per frame: Hamming window, zero-padded 512-point DFT power spectrum, 40
equal-area triangular mel filters, natural log of the filter energies,
orthonormal DCT-II keeping the first 13 coefficients. Delta features are the
first-order regression (window 2) of the 13 static coefficients over time,
giving 26 columns per frame. A segment is summarized as the column-wise mean,
the input vector of the classifier.

Framing is non-overlapping by default (hop == frame length), so a 10 s clip
at 16 kHz yields exactly 400 frames of 400 samples. A conventional 10 ms hop
is available through ``FeatureConfig.hop``; pre-emphasis is off by default
but can be enabled with ``FeatureConfig.pre_emphasis``.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip
from .errors import DataError, DegenerateBoundaries, SignalTooShort
from .network import NUM_CLASSES

NUM_STATIC = 13
FEATURE_DIM = 2 * NUM_STATIC

CACHE_MAGIC = b"DIVFEAT1"


@dataclass
class FeatureConfig:
    sample_rate: int = 16000
    frame_len: int = 400  # 25 ms at 16 kHz
    hop: int = 400  # non-overlapping
    fft_size: int = 512
    num_filters: int = 40
    pre_emphasis: float | None = None  # e.g. 0.97; default off
    delta_window: int = 2
    log_floor: float = 1e-10

    def __post_init__(self) -> None:
        if self.frame_len > self.fft_size:
            raise ValueError("frame_len must not exceed fft_size")
        if self.hop <= 0:
            raise ValueError("hop must be positive")


@dataclass
class FilterBank:
    """40 x (fft_size/2 + 1) non-negative weights plus the 42 boundary bins."""

    weights: np.ndarray
    boundary_bins: np.ndarray


@dataclass
class AggregatedFeature:
    """26-dim per-segment mean feature vector with its division label."""

    vector: np.ndarray
    label: int
    source_id: str = ""

    def __post_init__(self) -> None:
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.shape != (FEATURE_DIM,):
            raise ValueError(f"feature vector must have shape ({FEATURE_DIM},)")
        if not isinstance(self.label, (int, np.integer)) or not 0 <= self.label < NUM_CLASSES:
            raise ValueError(f"label must be an int in 0..{NUM_CLASSES - 1}, got {self.label!r}")


def hamming(n: int) -> np.ndarray:
    """Symmetric Hamming window, endpoints 0.08."""
    if n < 2:
        raise ValueError("window length must be >= 2")
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def frame_signal(samples: np.ndarray, config: FeatureConfig | None = None) -> np.ndarray:
    """Slice into (T, frame_len) at offsets 0, hop, 2*hop, ...; partial tail dropped.

    The result is a read-only view of ``samples``, not a copy.
    """
    config = config or FeatureConfig()
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    if n < config.frame_len:
        raise SignalTooShort(f"{n} samples < frame length {config.frame_len}")
    return sliding_window_view(samples, config.frame_len)[:: config.hop]


def power_spectrum(frame: np.ndarray, config: FeatureConfig | None = None) -> np.ndarray:
    """|DFT(frame * hamming)|^2 / fft_size on fft_size/2 + 1 bins."""
    config = config or FeatureConfig()
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (config.frame_len,):
        raise ValueError(f"expected frame of length {config.frame_len}, got {frame.shape}")
    return _power_spectra(frame[None, :], config)[0]


def _power_spectra(frames: np.ndarray, config: FeatureConfig) -> np.ndarray:
    windowed = frames * hamming(config.frame_len)
    spectra = np.fft.rfft(windowed, n=config.fft_size, axis=1)
    return (spectra.real**2 + spectra.imag**2) / config.fft_size


def mel(f) -> np.ndarray:
    """Hz -> mel: 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_inv(m) -> np.ndarray:
    """mel -> Hz, exact inverse of ``mel``."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def build_filterbank(
    num_filters: int = 40,
    fft_size: int = 512,
    sample_rate: int = 16000,
    f_min: float = 0.0,
    f_max: float | None = None,
) -> FilterBank:
    """Triangular equal-area mel filterbank on integer DFT bins.

    num_filters + 2 boundaries are spaced uniformly on the mel scale between
    f_min and f_max and rounded to DFT bin indices. Filter i rises from
    boundary i-1 to i and falls to i+1, scaled by 2 over the product of the
    branch width and the full support width, which makes every filter's
    discrete weight sum equal (exactly 1 for integer boundaries).
    """
    if num_filters < 1:
        raise ValueError("num_filters must be >= 1")
    f_max = sample_rate / 2 if f_max is None else f_max
    if not f_min < f_max <= sample_rate / 2:
        raise ValueError("need f_min < f_max <= sample_rate / 2")

    mel_pts = np.linspace(mel(f_min), mel(f_max), num_filters + 2)
    hz_pts = mel_inv(mel_pts)
    bins = np.round(hz_pts * fft_size / sample_rate).astype(np.int64)
    if np.any(np.diff(bins) < 1):
        raise DegenerateBoundaries(
            f"filter boundaries collapse onto shared bins: fft_size {fft_size} is "
            f"too small for {num_filters} filters"
        )

    n_bins = fft_size // 2 + 1
    weights = np.zeros((num_filters, n_bins))
    k = np.arange(n_bins)
    for i in range(num_filters):
        lo, mid, hi = bins[i], bins[i + 1], bins[i + 2]
        rising = (k >= lo) & (k <= mid)
        falling = (k > mid) & (k <= hi)
        weights[i, rising] = 2.0 * (k[rising] - lo) / ((mid - lo) * (hi - lo))
        weights[i, falling] = 2.0 * (hi - k[falling]) / ((hi - mid) * (hi - lo))
    return FilterBank(weights=weights, boundary_bins=bins)


def log_mel_energies(power_spec: np.ndarray, bank: FilterBank,
                     log_floor: float = 1e-10) -> np.ndarray:
    """Natural log of the per-filter energies, floored to avoid log(0)."""
    energies = power_spec @ bank.weights.T
    return np.log(np.maximum(energies, log_floor))


def dct2_ortho(x: np.ndarray, keep: int = NUM_STATIC) -> np.ndarray:
    """Orthonormal DCT-II of the last axis, truncated to the first ``keep`` terms."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    i = np.arange(n)
    j = np.arange(keep)
    basis = np.cos(np.pi * np.outer(j, 2 * i + 1) / (2 * n))
    scale = np.full(keep, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return (x @ basis.T) * scale


def delta(features: np.ndarray, window: int = 2) -> np.ndarray:
    """First-order regression over time with edge frames clamped.

    d_t = sum_{n=1..window} n * (c_{t+n} - c_{t-n}) / (2 * sum n^2)
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("expected a (T, d) matrix with T >= 1")
    t_max = features.shape[0] - 1
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(features)
    idx = np.arange(features.shape[0])
    for n in range(1, window + 1):
        ahead = features[np.minimum(idx + n, t_max)]
        behind = features[np.maximum(idx - n, 0)]
        out += n * (ahead - behind)
    return out / denom


def extract(clip: AudioClip, config: FeatureConfig | None = None,
            bank: FilterBank | None = None) -> np.ndarray:
    """Full per-frame pipeline: (T, 26) matrix of 13 MFCCs + 13 deltas."""
    config = config or FeatureConfig()
    if clip.samples.ndim != 1:
        raise ValueError("extract expects a mono clip")
    if clip.sample_rate != config.sample_rate:
        raise DataError(
            f"{clip.source_id}: sample rate {clip.sample_rate}, expected {config.sample_rate}"
        )
    if bank is None:
        bank = build_filterbank(config.num_filters, config.fft_size, config.sample_rate)

    samples = clip.samples
    if config.pre_emphasis is not None:
        samples = np.append(samples[0], samples[1:] - config.pre_emphasis * samples[:-1])

    frames = frame_signal(samples, config)
    power = _power_spectra(frames, config)
    log_energies = log_mel_energies(power, bank, config.log_floor)
    static = dct2_ortho(log_energies, NUM_STATIC)
    dynamic = delta(static, config.delta_window)
    return np.hstack([static, dynamic])


def aggregate(feature_matrix: np.ndarray) -> np.ndarray:
    """Column-wise mean of a (T, 26) matrix -> the 26-dim segment vector."""
    feature_matrix = np.asarray(feature_matrix, dtype=np.float64)
    if feature_matrix.ndim != 2 or feature_matrix.shape[0] < 1:
        raise ValueError("expected a non-empty (T, d) matrix")
    return feature_matrix.mean(axis=0)


# --- feature cache container (see docs/formats.md) ---

def write_feature_cache(records: list[AggregatedFeature], path) -> None:
    """Binary cache: DIVFEAT1 magic, u64 count, then per record a label byte,
    u16 source-id length + UTF-8 bytes, 26 f64 LE values."""
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<Q", len(records)))
        for rec in records:
            sid = rec.source_id.encode("utf-8")
            fh.write(struct.pack("<B", rec.label))
            fh.write(struct.pack("<H", len(sid)))
            fh.write(sid)
            fh.write(struct.pack(f"<{FEATURE_DIM}d", *rec.vector))


def read_feature_cache(path) -> list[AggregatedFeature]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CACHE_MAGIC:
        raise DataError(f"{path}: not a feature cache (bad magic)")
    records = []
    try:
        (count,) = struct.unpack_from("<Q", raw, 8)
        pos = 16
        for _ in range(count):
            (label,) = struct.unpack_from("<B", raw, pos)
            (sid_len,) = struct.unpack_from("<H", raw, pos + 1)
            pos += 3
            try:
                sid = raw[pos : pos + sid_len].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"{path}: record {len(records)} source id is not UTF-8"
                ) from exc
            pos += sid_len
            vector = np.array(struct.unpack_from(f"<{FEATURE_DIM}d", raw, pos))
            pos += 8 * FEATURE_DIM
            try:
                records.append(AggregatedFeature(vector, label, sid))
            except ValueError as exc:
                raise DataError(f"{path}: record {len(records)}: {exc}") from exc
    except struct.error as exc:
        raise DataError(f"{path}: truncated feature cache") from exc
    if pos != len(raw):
        raise DataError(f"{path}: {len(raw) - pos} bytes after the {count} declared records")
    vectors = np.array([rec.vector for rec in records]).reshape(-1, FEATURE_DIM)
    non_finite = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if non_finite.size:
        raise DataError(f"{path}: record {non_finite[0]} has a NaN or infinite value")
    return records


def write_feature_csv(records: list[AggregatedFeature], path) -> None:
    """Plain-text mirror of the cache: header label,source_id,f0..f25."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "source_id"] + [f"f{i}" for i in range(FEATURE_DIM)])
        for rec in records:
            writer.writerow([rec.label, rec.source_id] + [f"{v:.17g}" for v in rec.vector])

