"""Segmentation into 8-10 s chunks and spectral-subtraction noise reduction.

Segmentation greedily cuts full-length chunks (default 10 s) from the start
and keeps the remainder only when it is at least ``min_tail_seconds`` long,
so every emitted chunk lies in [8 s, 10 s] under the defaults.

Noise reduction is classical magnitude spectral subtraction: Hann-windowed
frames (512 samples, hop 256), noise magnitude profile estimated as the mean
magnitude spectrum of the lowest-energy frames of the clip, subtraction with
oversubtraction factor alpha, output magnitude floored at beta times the
noisy magnitude. The noisy phase is kept by scaling each complex spectrum
bin with the real gain out_mag / |X| (zero where |X| is zero) rather than
rebuilding it from magnitude and angle. Reconstruction is overlap-add on the
same grid, done one hop-wide block column at a time so that every output
sample sums its frames in frame order; the periodic Hann window sums to
exactly 1 at 50% overlap, so length is preserved and an all-pass
configuration is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip
from .errors import ClipTooShort


@dataclass
class SegmentationPolicy:
    chunk_seconds: float = 10.0
    min_tail_seconds: float = 8.0

    def __post_init__(self) -> None:
        if not 0 < self.min_tail_seconds <= self.chunk_seconds:
            raise ValueError(
                f"need 0 < min_tail_seconds <= chunk_seconds, got "
                f"{self.min_tail_seconds} / {self.chunk_seconds}"
            )


@dataclass
class NoiseReductionConfig:
    frame_len: int = 512
    hop: int = 256
    noise_frames: int = 10
    oversubtraction: float = 1.0  # alpha
    spectral_floor: float = 0.02  # beta

    def __post_init__(self) -> None:
        if self.hop > self.frame_len or self.hop <= 0:
            raise ValueError("need 0 < hop <= frame_len")
        if not 0 <= self.spectral_floor < 1:
            raise ValueError("need 0 <= spectral_floor < 1")
        if self.oversubtraction <= 0:
            raise ValueError("need oversubtraction > 0")


def segment(clip: AudioClip, policy: SegmentationPolicy | None = None) -> list[AudioClip]:
    """Cut consecutive non-overlapping chunks; short input yields an empty list."""
    policy = policy or SegmentationPolicy()
    chunk = int(round(policy.chunk_seconds * clip.sample_rate))
    min_tail = int(round(policy.min_tail_seconds * clip.sample_rate))
    x = clip.samples
    out: list[AudioClip] = []
    start = 0
    while start + chunk <= x.shape[0]:
        out.append(
            AudioClip(
                samples=x[start : start + chunk].copy(),
                sample_rate=clip.sample_rate,
                source_id=f"{clip.source_id}_seg{len(out):03d}",
            )
        )
        start += chunk
    tail = x.shape[0] - start
    if tail >= min_tail:
        out.append(
            AudioClip(
                samples=x[start:].copy(),
                sample_rate=clip.sample_rate,
                source_id=f"{clip.source_id}_seg{len(out):03d}",
            )
        )
    return out


def _periodic_hann(n: int) -> np.ndarray:
    # periodic (DFT-even) variant: at 50% overlap the shifted copies sum to 1
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum (n_frames, frame_len) frames placed ``hop`` apart; hop <= frame_len.

    Works on rows of ``hop`` samples: frame i's j-th hop-wide block lands on
    row i + j. Adding block columns from the last to the first sums each
    sample's frames in ascending frame order, so the result is bit-equal to
    adding the frames one by one. The output holds whole rows and may run
    past the last frame's end; the extra samples are zero.
    """
    n_frames, frame_len = frames.shape
    blocks = -(-frame_len // hop)
    out = np.zeros((n_frames + blocks - 1, hop))
    for j in reversed(range(blocks)):
        block = frames[:, j * hop : (j + 1) * hop]
        out[j : j + n_frames, : block.shape[1]] += block
    return out.ravel()


def reduce_noise(clip: AudioClip, config: NoiseReductionConfig | None = None) -> AudioClip:
    """Magnitude spectral subtraction; output has exactly the input's length."""
    config = config or NoiseReductionConfig()
    x = clip.samples
    if x.ndim != 1:
        raise ValueError("reduce_noise expects a mono clip")
    n = x.shape[0]
    if n < config.frame_len:
        raise ClipTooShort(f"{clip.source_id}: {n} samples < frame_len {config.frame_len}")

    frame_len, hop = config.frame_len, config.hop
    window = _periodic_hann(frame_len)

    # pad by one hop at the front and at least one frame at the back so every
    # original sample sits under a full complement of overlapping windows
    n_frames = int(np.ceil((n + frame_len) / hop)) + 1
    padded_len = (n_frames - 1) * hop + frame_len
    padded = np.zeros(padded_len)
    padded[hop : hop + n] = x

    frames = sliding_window_view(padded, frame_len)[::hop] * window

    spectra = np.fft.rfft(frames, axis=1)
    mag = np.abs(spectra)

    # frames are not needed after the FFT, so square them in place
    energies = np.sum(np.square(frames, out=frames), axis=1)
    k = min(config.noise_frames, n_frames)
    quietest = np.argsort(energies, kind="stable")[:k]
    noise_profile = mag[quietest].mean(axis=0)

    # gain = out_mag / mag, computed in place; out_mag is 0 wherever mag is 0
    gain = np.maximum(mag - config.oversubtraction * noise_profile,
                      config.spectral_floor * mag)
    np.divide(gain, mag, out=gain, where=mag > 0)
    spectra *= gain
    rebuilt = np.fft.irfft(spectra, frame_len, axis=1)

    out = _overlap_add(rebuilt, hop)

    cleaned = np.clip(out[hop : hop + n], -1.0, 1.0)
    return AudioClip(samples=cleaned, sample_rate=clip.sample_rate, source_id=clip.source_id)
