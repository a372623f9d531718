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

``reduce_noise`` works on NR_BLOCK_FRAMES frames at a time, in two passes: the
frames' energies, then the denoised blocks added into the output. Interior
frames are views of the samples, and only the two edge blocks are copied, so
no spectrogram-sized array and no padded copy of the segment is ever whole:
besides its output, a call holds about 1.4 MB (tracemalloc: 2.7 MB in all for
a 10 s segment, against 6.5 MB computed over whole arrays). Each block goes
through the same operations, in the same order, as the whole grid did, so the
output is bit-equal to the whole-array computation."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
NR_BLOCK_FRAMES = 64  # frames denoised together, so a call's working set stays small


def segment(frames: int) -> list[int]:
    """The lengths of the consecutive non-overlapping chunks cut from a
    recording of ``frames`` 16 kHz samples, in order from its start: 10 s
    each, then the remainder if it is at least 8 s. Too short a recording
    gives an empty list, and a recording is one segment exactly when this
    returns ``[frames]`` (the test ``extract`` makes)."""
    full, tail = divmod(frames, CHUNK_SAMPLES)
    return [CHUNK_SAMPLES] * full + ([tail] if tail >= MIN_TAIL_SAMPLES else [])


def _overlap_add(frames: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Add (n_frames, NR_FRAME_LEN) frames placed NR_HOP (half a frame) apart
    into ``rows``, (n_frames + 1, NR_HOP) and zeros when not given; returns
    the rows flattened.

    Frame i's first half lands on row i and its second half on row i + 1.
    Adding the second halves before the first sums each sample's frames in
    ascending frame order, so the result is bit-equal to adding the frames one
    by one, also when consecutive blocks of frames are added into overlapping
    row ranges in order.
    """
    if rows is None:
        rows = np.zeros((frames.shape[0] + 1, NR_HOP))
    rows[1:] += frames[:, NR_HOP:]
    rows[:-1] += frames[:, :NR_HOP]
    return rows.ravel()


def _frame_blocks(samples: np.ndarray, n_frames: int) -> list[np.ndarray]:
    """Frames 0 to ``n_frames`` - 1 of ``samples``' padded grid, unwindowed, in
    blocks of NR_BLOCK_FRAMES (the last may be shorter). A block whose frames lie
    wholly inside the samples is a read-only view of them; the first and the last
    block, which reach into the padding, are views of a zero-padded copy of
    their own stretch (at most 16,640 samples)."""
    n = samples.shape[0]
    blocks = []
    for first in range(0, n_frames, NR_BLOCK_FRAMES):
        count = min(NR_BLOCK_FRAMES, n_frames - first)
        start = (first - 1) * NR_HOP  # frame 0 starts one hop before the samples
        stop = start + (count - 1) * NR_HOP + NR_FRAME_LEN
        if start >= 0 and stop <= n:
            stretch = samples[start:stop]
        else:
            stretch = np.zeros(stop - start)
            lo, hi = min(max(start, 0), n), min(stop, n)  # the samples under the block, if any
            stretch[lo - start : hi - start] = samples[lo:hi]
        step = stretch.strides[0]
        blocks.append(as_strided(stretch, (count, NR_FRAME_LEN), (NR_HOP * step, step),
                                 writeable=False))
    return blocks


def reduce_noise(samples: np.ndarray) -> np.ndarray:
    """Magnitude spectral subtraction; output has exactly the input's length.

    Two passes over blocks of at most NR_BLOCK_FRAMES frames: the first
    computes every frame's energy, the second denoises each block and adds it
    into the output. Between them, the noise profile is computed from the
    quietest frames alone."""
    if samples.ndim != 1:
        raise ValueError("reduce_noise expects mono samples")
    n = samples.shape[0]
    if n < NR_FRAME_LEN:
        raise DataError(f"{n} samples < frame length {NR_FRAME_LEN}")

    # one hop of padding at the front and at least one frame at the back
    n_frames = -(-(n + NR_FRAME_LEN) // NR_HOP) + 1
    blocks = _frame_blocks(samples, n_frames)
    firsts = range(0, n_frames, NR_BLOCK_FRAMES)

    windowed_buf = np.empty((NR_BLOCK_FRAMES, NR_FRAME_LEN))  # one block's windowed frames

    energies = np.empty(n_frames)
    for first, frames in zip(firsts, blocks):
        windowed = np.multiply(frames, NR_WINDOW, out=windowed_buf[: len(frames)])
        np.sum(np.square(windowed, out=windowed), axis=1,
               out=energies[first : first + len(frames)])
    quietest = np.argsort(energies, kind="stable")[:NOISE_FRAMES]
    picked = np.stack([blocks[i // NR_BLOCK_FRAMES][i % NR_BLOCK_FRAMES] for i in quietest])
    noise = OVERSUBTRACTION * np.abs(np.fft.rfft(picked * NR_WINDOW, axis=1)).mean(axis=0)

    added = np.zeros((n_frames + 1) * NR_HOP)
    rows = added.reshape(n_frames + 1, NR_HOP)
    for first, frames in zip(firsts, blocks):
        count = len(frames)
        spectra = np.fft.rfft(np.multiply(frames, NR_WINDOW, out=windowed_buf[:count]), axis=1)
        mag = np.abs(spectra)
        # gain = out_mag / mag, computed in place; out_mag is 0 wherever mag is 0
        gain = np.subtract(mag, noise)
        np.maximum(gain, SPECTRAL_FLOOR * mag, out=gain)
        np.divide(gain, mag, out=gain, where=mag > 0)
        spectra *= gain
        _overlap_add(np.fft.irfft(spectra, NR_FRAME_LEN, axis=1), rows[first : first + count + 1])

    out = added[NR_HOP : NR_HOP + n]
    return np.clip(out, -1.0, 1.0, out=out)
