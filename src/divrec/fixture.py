"""Synthetic fixture corpus: eight parameterized multi-tone "pseudo-dialects".

Each division gets a fixed trio of formant-like tone frequencies; speakers
jitter those frequencies slightly and every file adds random phases, small
amplitude wobble, speech-like pauses, and a white noise floor. The classes
are well separated in mel-spectral shape, so the full pipeline can be
exercised end to end without any real recordings.

The bytes of every file follow from the seed alone, through the order in
which ``make_fixture`` draws from its one generator:

- per speaker, before the speaker's files: three jitter factors,
  ``uniform(-0.015, 0.015, size=3)``;
- per file (1 and 2 in ``draw_utterance``):
  1. for each of the three tones: a frequency jitter ``uniform(-0.005,
     0.005)``, an amplitude jitter ``uniform(-0.1, 0.1)`` and a phase
     ``uniform(0, 2 pi)``;
  2. the start of the first pause, ``uniform(1, 4)`` s, then after each
     pause that fits in the file the gap to the next, ``uniform(3, 5)`` s
     (the last gap drawn is the one that runs past the end);
  3. the noise floor, n values of ``normal(0, NOISE_LEVEL)``, drawn one
     ``RENDER_BLOCK`` at a time: the same values, and the same generator state
     after them, as one ``normal(0, NOISE_LEVEL, n)``, since the generator
     fills values in order whatever the size of each call.

``render_block`` builds a block's samples from those values alone, so the
draws run on the calling thread in that order while a pool of ``POOL_SIZE``
threads renders and encodes the blocks drawn before; the calling thread writes
the encoded blocks in draw order. Which thread renders a block does not change
its bytes, and no array is as long as a file, so memory does not grow with
the file length.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .audio_io import TARGET_SAMPLE_RATE, WavWriter, encode_pcm16, steady_malloc
from .evaluation import DIVISION_NAMES

# one (f1, f2, f3) tone set per division, pairwise distinct in mel space
CLASS_TONES = (
    (300.0, 1100.0, 2600.0),
    (360.0, 1350.0, 2950.0),
    (430.0, 950.0, 3300.0),
    (520.0, 1600.0, 2400.0),
    (620.0, 1250.0, 3650.0),
    (740.0, 1800.0, 2750.0),
    (880.0, 1450.0, 3100.0),
    (1050.0, 2050.0, 3480.0),
)

TONE_AMPLITUDES = (0.30, 0.20, 0.12)

PAUSE_SAMPLES = int(0.3 * TARGET_SAMPLE_RATE)
NOISE_LEVEL = 0.01  # standard deviation of the white noise floor

# render+encode threads; np.sin and the PCM16 encode release the GIL, so they
# overlap the draws and writes on the calling thread
POOL_SIZE = 2
RENDER_BLOCK = 1 << 16  # samples; small enough to keep a block's temporaries in cache
# blocks drawn but not yet written, across file boundaries: enough to keep both
# threads busy while the calling thread writes, each holding one block's noise
BLOCKS_IN_FLIGHT = 8


class Utterance(NamedTuple):
    """One file's tones and pauses, in draw order; its noise floor follows them."""

    tones: tuple[tuple[float, float, float], ...]  # (frequency Hz, amplitude, phase)
    pauses: tuple[int, ...]  # first sample of each silent stretch


def draw_utterance(
    class_index: int,
    rng: np.random.Generator,
    n: int,
    speaker_jitter: np.ndarray,
) -> Utterance:
    """Draw one n-sample utterance's tones and pauses from ``rng``; its noise
    floor is the next n values of ``normal(0, NOISE_LEVEL)``."""
    tones = []
    for (freq, amp, j) in zip(CLASS_TONES[class_index], TONE_AMPLITUDES, speaker_jitter):
        f = freq * j * (1.0 + rng.uniform(-0.005, 0.005))
        a = amp * (1.0 + rng.uniform(-0.1, 0.1))
        tones.append((f, a, rng.uniform(0, 2 * np.pi)))

    # speech-like pauses: ~0.3 s of silence roughly every 4 s
    pauses = []
    pos = int(rng.uniform(1.0, 4.0) * TARGET_SAMPLE_RATE)
    while pos + PAUSE_SAMPLES < n:
        pauses.append(pos)
        pos += int(rng.uniform(3.0, 5.0) * TARGET_SAMPLE_RATE)

    return Utterance(tuple(tones), tuple(pauses))


def render_block(utterance: Utterance, lo: int, noise: np.ndarray) -> np.ndarray:
    """The PCM16 samples ``lo`` to ``lo + len(noise)`` of ``utterance``, built
    in ``noise``, its noise floor over that stretch.

    Every step is elementwise, so each block, with its own stretch of the time
    axis (sample index / 16000 s), gives the same bits as whole-array
    arithmetic with only block-sized temporaries."""
    hi = lo + len(noise)
    tb = np.arange(lo, hi) / TARGET_SAMPLE_RATE
    voiced = np.zeros(hi - lo)
    for f, a, phase in utterance.tones:
        voiced += a * np.sin(2.0 * np.pi * f * tb + phase)
    for pos in utterance.pauses:
        start, stop = max(pos, lo), min(pos + PAUSE_SAMPLES, hi)
        if start < stop:
            voiced[start - lo : stop - lo] *= 0.0  # the same bits as a 0/1 envelope
    noise += voiced
    np.clip(noise, -1.0, 1.0, out=noise)
    return encode_pcm16(noise)


def make_fixture(
    root,
    seed: int,
    speakers_per_class: int,
    files_per_speaker: int,
    file_seconds: float,
) -> list[Path]:
    """Write the corpus tree root/<Division>/<speaker>/<speaker>_NNN.wav.

    The first error, from this thread or from a render on the pool, stops the
    run: no further block is drawn, the renders already running finish, the
    file being written is removed, and the error is raised. So every file
    left on disk is whole. Like every command, it first fixes the process's
    malloc thresholds (``steady_malloc``)."""
    # the RIFF size field, 36 + data bytes, is a u32; samples are 2 bytes
    max_seconds = (2**32 - 37) // 2 / TARGET_SAMPLE_RATE
    if seed < 0 or speakers_per_class < 1 or files_per_speaker < 1:
        raise ValueError("need seed >= 0, speakers_per_class >= 1 and files_per_speaker >= 1")
    if not 0 < file_seconds <= max_seconds:
        raise ValueError(f"file_seconds must lie in (0, {max_seconds:.0f}], got {file_seconds}")
    root = Path(root)
    rng = np.random.default_rng(seed)
    n = int(round(file_seconds * TARGET_SAMPLE_RATE))  # every file has the same length
    if n < 1:
        raise ValueError(f"file_seconds must give at least one sample, got {file_seconds}")
    steady_malloc()  # each block's arrays reuse the last one's heap, not new pages

    written: list[Path] = []
    window: deque[tuple[Path, int, Future]] = deque()  # (file, first sample, render) in draw order
    wav: WavWriter | None = None  # the file being written, opened at its first block

    def write_oldest() -> None:
        nonlocal wav
        path, lo, rendering = window.popleft()
        pcm = rendering.result()  # raises the error of a failed render
        if lo == 0:
            wav = WavWriter(path, n)
            written.append(path)
        wav.write(pcm)
        if lo + len(pcm) == n:
            wav.close()
            wav = None

    pool = ThreadPoolExecutor(max_workers=POOL_SIZE)
    try:
        for c, division in enumerate(DIVISION_NAMES):
            for s in range(speakers_per_class):
                speaker_id = f"{division.lower()}_spk{s:03d}"
                speaker_dir = root / division / speaker_id
                speaker_dir.mkdir(parents=True, exist_ok=True)
                speaker_jitter = 1.0 + rng.uniform(-0.015, 0.015, size=3)
                for k in range(files_per_speaker):
                    utterance = draw_utterance(c, rng, n, speaker_jitter)
                    path = speaker_dir / f"{speaker_id}_{k:03d}.wav"
                    for lo in range(0, n, RENDER_BLOCK):
                        if len(window) == BLOCKS_IN_FLIGHT:
                            write_oldest()
                        noise = rng.normal(0.0, NOISE_LEVEL, min(RENDER_BLOCK, n - lo))
                        window.append((path, lo, pool.submit(render_block, utterance, lo, noise)))
        while window:
            write_oldest()
    except BaseException:
        if wav is not None:
            wav.discard()
        raise
    finally:
        # after an error: drop the blocks not yet started, let running renders finish
        pool.shutdown(cancel_futures=True)
    return written
