"""Synthetic fixture corpus: eight parameterized multi-tone "pseudo-dialects".

Each division gets a fixed trio of formant-like tone frequencies; speakers
jitter those frequencies slightly and every file adds random phases, small
amplitude wobble, speech-like pauses, and a white noise floor. The classes
are well separated in mel-spectral shape, so the full pipeline can be
exercised end to end without any real recordings.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio_io import TARGET_SAMPLE_RATE, AudioClip, write_wav
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


def synthesize_utterance(
    class_index: int,
    rng: np.random.Generator,
    seconds: float,
    speaker_jitter: np.ndarray | None = None,
    noise_level: float = 0.01,
) -> np.ndarray:
    """One pseudo-utterance: jittered class tones + pauses + noise floor."""
    n = int(round(seconds * TARGET_SAMPLE_RATE))
    t = np.arange(n) / TARGET_SAMPLE_RATE
    jitter = speaker_jitter if speaker_jitter is not None else np.ones(3)

    voiced = np.zeros(n)
    for (freq, amp, j) in zip(CLASS_TONES[class_index], TONE_AMPLITUDES, jitter):
        f = freq * j * (1.0 + rng.uniform(-0.005, 0.005))
        a = amp * (1.0 + rng.uniform(-0.1, 0.1))
        voiced += a * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))

    # gate with speech-like pauses: ~0.3 s of silence roughly every 4 s
    envelope = np.ones(n)
    pause_len = int(0.3 * TARGET_SAMPLE_RATE)
    pos = int(rng.uniform(1.0, 4.0) * TARGET_SAMPLE_RATE)
    while pos + pause_len < n:
        envelope[pos : pos + pause_len] = 0.0
        pos += int(rng.uniform(3.0, 5.0) * TARGET_SAMPLE_RATE)

    signal = voiced * envelope + rng.normal(0.0, noise_level, n)
    return np.clip(signal, -1.0, 1.0)


def make_fixture(
    root,
    seed: int = 0,
    speakers_per_class: int = 5,
    files_per_speaker: int = 5,
    file_seconds: float = 100.0,
    noise_level: float = 0.01,
) -> list[Path]:
    """Write the corpus tree root/<Division>/<speaker>/<speaker>_NNN.wav."""
    # the RIFF size field, 36 + data bytes, is a u32; samples are 2 bytes
    max_seconds = (2**32 - 37) // 2 / TARGET_SAMPLE_RATE
    if seed < 0 or speakers_per_class < 1 or files_per_speaker < 1:
        raise ValueError("need seed >= 0, speakers_per_class >= 1 and files_per_speaker >= 1")
    if not 0 < file_seconds <= max_seconds:
        raise ValueError(f"file_seconds must lie in (0, {max_seconds:.0f}], got {file_seconds}")
    if not 0 <= noise_level < float("inf"):
        raise ValueError(f"noise_level must be finite and >= 0, got {noise_level}")
    root = Path(root)
    rng = np.random.default_rng(seed)
    written: list[Path] = []
    for c, division in enumerate(DIVISION_NAMES):
        for s in range(speakers_per_class):
            speaker_id = f"{division.lower()}_spk{s:03d}"
            speaker_dir = root / division / speaker_id
            speaker_dir.mkdir(parents=True, exist_ok=True)
            speaker_jitter = 1.0 + rng.uniform(-0.015, 0.015, size=3)
            for k in range(files_per_speaker):
                samples = synthesize_utterance(c, rng, file_seconds, speaker_jitter, noise_level)
                path = speaker_dir / f"{speaker_id}_{k:03d}.wav"
                write_wav(AudioClip(samples, TARGET_SAMPLE_RATE, str(path)), path)
                written.append(path)
    return written
