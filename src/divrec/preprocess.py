"""Segmentation into 8-10 s chunks and spectral-subtraction noise reduction.

Every recipe value is a module constant, and so are the operands built from
them (``CHUNK_SAMPLES``, ``MIN_TAIL_SAMPLES``, ``NR_WINDOW``), built once at
import. Segmentation greedily cuts 10 s chunks from the start and keeps the
remainder only when it is at least 8 s long, so every emitted chunk lies in
[8 s, 10 s]. It is a rule over the header's frame count: the commands read
each chunk from the file just before denoising it, so a worker holds one
segment at a time, whatever the length of the recording;
``audio_io.steady_malloc`` keeps that memory in the worker heaps.

Noise reduction is classical magnitude spectral subtraction: Hann-windowed
frames (512 samples, hop 256), noise magnitude profile estimated as the mean
magnitude spectrum of the 10 lowest-energy frames of the padded grid,
subtraction with oversubtraction factor 1, output magnitude floored at 0.02
times the noisy magnitude. The noisy phase is kept by scaling each complex
spectrum bin with the real gain out_mag / |X| (zero where |X| is zero) rather
than rebuilding it from magnitude and angle. Reconstruction is overlap-add on
the same half-overlap grid, done in two hop-wide block adds so that every
output sample sums its two frames in frame order; the periodic Hann window
sums to exactly 1 at 50% overlap, so length is preserved. The grid's last two
frames hold only padding; with energy 0 they are two of the 10 unless the clip
has silent frames, so the profile is 0.8 times the 8 quietest real frames' mean.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import TARGET_SAMPLE_RATE
from .errors import DataError


CHUNK_SAMPLES = 10 * TARGET_SAMPLE_RATE  # 10 s
MIN_TAIL_SAMPLES = 8 * TARGET_SAMPLE_RATE  # 8 s

NR_FRAME_LEN = 512
NR_HOP = NR_FRAME_LEN // 2
NOISE_FRAMES = 10
OVERSUBTRACTION = 1.0  # alpha
SPECTRAL_FLOOR = 0.02  # beta

# periodic (DFT-even) Hann window: at 50% overlap the shifted copies sum to 1
NR_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(NR_FRAME_LEN) / NR_FRAME_LEN)


def segment(frames: int) -> list[int]:
    """The lengths of the consecutive non-overlapping chunks cut from a
    recording of ``frames`` 16 kHz samples, in order from its start: 10 s
    each, then the remainder if it is at least 8 s. Too short a recording
    gives an empty list, and a recording is one segment exactly when this
    returns ``[frames]`` (the test ``extract`` makes)."""
    full, tail = divmod(frames, CHUNK_SAMPLES)
    return [CHUNK_SAMPLES] * full + ([tail] if tail >= MIN_TAIL_SAMPLES else [])


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum (n_frames, NR_FRAME_LEN) frames placed NR_HOP (half a frame) apart.

    Works on rows of NR_HOP samples: frame i's first half lands on row i and
    its second half on row i + 1. Adding the second halves before the first
    sums each sample's frames in ascending frame order, so the result is
    bit-equal to adding the frames one by one.
    """
    out = np.zeros((frames.shape[0] + 1, NR_HOP))
    out[1:] += frames[:, NR_HOP:]
    out[:-1] += frames[:, :NR_HOP]
    return out.ravel()


def reduce_noise(samples: np.ndarray) -> np.ndarray:
    """Magnitude spectral subtraction; output has exactly the input's length."""
    if samples.ndim != 1:
        raise ValueError("reduce_noise expects mono samples")
    n = samples.shape[0]
    if n < NR_FRAME_LEN:
        raise DataError(f"{n} samples < frame length {NR_FRAME_LEN}")

    frame_len, hop = NR_FRAME_LEN, NR_HOP

    # pad by one hop at the front and at least one frame at the back so every
    # original sample sits under a full complement of overlapping windows
    n_frames = int(np.ceil((n + frame_len) / hop)) + 1
    padded_len = (n_frames - 1) * hop + frame_len
    padded = np.zeros(padded_len)
    padded[hop : hop + n] = samples

    frames = sliding_window_view(padded, frame_len)[::hop] * NR_WINDOW
    # each full-size array is dropped after its last use: no dead temporary sets the peak
    del padded

    spectra = np.fft.rfft(frames, axis=1)
    mag = np.abs(spectra)

    # frames are not needed after the FFT, so square them in place
    energies = np.sum(np.square(frames, out=frames), axis=1)
    del frames
    quietest = np.argsort(energies, kind="stable")[:NOISE_FRAMES]
    noise_profile = mag[quietest].mean(axis=0)

    # gain = out_mag / mag, computed in place; out_mag is 0 wherever mag is 0
    gain = np.subtract(mag, OVERSUBTRACTION * noise_profile)
    np.maximum(gain, SPECTRAL_FLOOR * mag, out=gain)
    np.divide(gain, mag, out=gain, where=mag > 0)
    del mag
    spectra *= gain
    del gain
    rebuilt = np.fft.irfft(spectra, frame_len, axis=1)
    del spectra

    out = _overlap_add(rebuilt)[hop : hop + n]
    return np.clip(out, -1.0, 1.0, out=out)
