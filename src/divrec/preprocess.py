"""Segmentation into 8-10 s chunks and spectral-subtraction noise reduction.

Every recipe value is a module constant. Segmentation greedily cuts 10 s
chunks from the start and keeps the remainder only when it is at least 8 s
long, so every emitted chunk lies in [8 s, 10 s].

Noise reduction is classical magnitude spectral subtraction: Hann-windowed
frames (512 samples, hop 256), noise magnitude profile estimated as the mean
magnitude spectrum of the 10 lowest-energy frames of the clip, subtraction
with oversubtraction factor 1, output magnitude floored at 0.02 times the
noisy magnitude. The noisy phase is kept by scaling each complex spectrum
bin with the real gain out_mag / |X| (zero where |X| is zero) rather than
rebuilding it from magnitude and angle. Reconstruction is overlap-add on the
same grid, done one hop-wide block column at a time so that every output
sample sums its frames in frame order; the periodic Hann window sums to
exactly 1 at 50% overlap, so length is preserved.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import TARGET_SAMPLE_RATE
from .errors import DataError


CHUNK_SECONDS = 10.0
MIN_TAIL_SECONDS = 8.0

NR_FRAME_LEN = 512
NR_HOP = 256
NOISE_FRAMES = 10
OVERSUBTRACTION = 1.0  # alpha
SPECTRAL_FLOOR = 0.02  # beta


def segment(samples: np.ndarray) -> list[np.ndarray]:
    """Cut consecutive non-overlapping chunks (copies, not views) from 16 kHz
    samples; short input yields an empty list."""
    chunk = int(round(CHUNK_SECONDS * TARGET_SAMPLE_RATE))
    min_tail = int(round(MIN_TAIL_SECONDS * TARGET_SAMPLE_RATE))
    out: list[np.ndarray] = []
    start = 0
    while start + chunk <= samples.shape[0]:
        out.append(samples[start : start + chunk].copy())
        start += chunk
    if samples.shape[0] - start >= min_tail:
        out.append(samples[start:].copy())
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


def reduce_noise(samples: np.ndarray) -> np.ndarray:
    """Magnitude spectral subtraction; output has exactly the input's length."""
    if samples.ndim != 1:
        raise ValueError("reduce_noise expects mono samples")
    n = samples.shape[0]
    if n < NR_FRAME_LEN:
        raise DataError(f"{n} samples < frame length {NR_FRAME_LEN}")

    frame_len, hop = NR_FRAME_LEN, NR_HOP
    window = _periodic_hann(frame_len)

    # pad by one hop at the front and at least one frame at the back so every
    # original sample sits under a full complement of overlapping windows
    n_frames = int(np.ceil((n + frame_len) / hop)) + 1
    padded_len = (n_frames - 1) * hop + frame_len
    padded = np.zeros(padded_len)
    padded[hop : hop + n] = samples

    frames = sliding_window_view(padded, frame_len)[::hop] * window

    spectra = np.fft.rfft(frames, axis=1)
    mag = np.abs(spectra)

    # frames are not needed after the FFT, so square them in place
    energies = np.sum(np.square(frames, out=frames), axis=1)
    k = min(NOISE_FRAMES, n_frames)
    quietest = np.argsort(energies, kind="stable")[:k]
    noise_profile = mag[quietest].mean(axis=0)

    # gain = out_mag / mag, computed in place; out_mag is 0 wherever mag is 0
    gain = np.maximum(mag - OVERSUBTRACTION * noise_profile, SPECTRAL_FLOOR * mag)
    np.divide(gain, mag, out=gain, where=mag > 0)
    spectra *= gain
    rebuilt = np.fft.irfft(spectra, frame_len, axis=1)

    out = _overlap_add(rebuilt, hop)

    return np.clip(out[hop : hop + n], -1.0, 1.0)
