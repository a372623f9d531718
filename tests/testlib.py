"""Independent oracle helpers shared by the test modules."""

import struct
import tracemalloc
import zlib

import numpy as np

from divrec.fixture import NOISE_LEVEL, PAUSE_SAMPLES, draw_utterance
from divrec.network import ARCHITECTURE, init_params


def build_wav_bytes(
    raw: np.ndarray,
    sample_rate: int = 16000,
    channels: int = 1,
    audio_format: int = 1,
    bits: int = 16,
    declared_data_size: int | None = None,
) -> bytes:
    """Hand-built RIFF/WAVE writer, independent of the package encoder.

    ``declared_data_size`` larger than the actual payload fakes truncation.
    """
    data = np.asarray(raw, dtype="<i2").tobytes()
    size = len(data) if declared_data_size is None else declared_data_size
    block_align = channels * bits // 8
    return (
        b"RIFF"
        + struct.pack("<I", 36 + len(data))
        + b"WAVE"
        + b"fmt "
        + struct.pack(
            "<IHHIIHH",
            16,
            audio_format,
            channels,
            sample_rate,
            sample_rate * block_align,
            block_align,
            bits,
        )
        + b"data"
        + struct.pack("<I", size)
        + data
    )


def riff_bytes(*chunks: bytes) -> bytes:
    """A RIFF/WAVE file of the given chunks, with the RIFF size that covers them."""
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def chunk_bytes(chunk_id: bytes, body: bytes, declared: int | None = None) -> bytes:
    """One RIFF chunk; ``declared`` overrides the size field."""
    return chunk_id + struct.pack("<I", len(body) if declared is None else declared) + body


# (in_dim, out_dim, activation tag, dropout rate or None) per layer:
# 26-128-256-256-64-32-8, ReLU (tag 1) then softmax (tag 2), dropout after 3 and 4
PAPER_LAYERS = (
    (26, 128, 1, None),
    (128, 256, 1, None),
    (256, 256, 1, 0.2),
    (256, 64, 1, 0.2),
    (64, 32, 1, None),
    (32, 8, 2, None),
)


def build_model_bytes(
    layers=PAPER_LAYERS, version: int = 1, seed: int = 0, trailing: bytes = b""
) -> bytes:
    """Hand-built DIVMODL1 writer, independent of the package encoder.

    Writes ``layers`` as the layer table, random weights and biases sized to
    that table, any ``trailing`` payload bytes, and a valid CRC-32, so only
    the table or the size can make a reader refuse the file.
    """
    rng = np.random.default_rng(seed)
    payload = struct.pack("<BB", version, len(layers))
    for in_dim, out_dim, tag, rate in layers:
        payload += struct.pack("<IIBd", in_dim, out_dim, tag,
                               float("nan") if rate is None else rate)
    for in_dim, out_dim, _, _ in layers:
        payload += rng.normal(0.0, 0.1, out_dim * (in_dim + 1)).astype("<f8").tobytes()
    payload += trailing
    return b"DIVMODL1" + payload + struct.pack("<I", zlib.crc32(payload))


# model files a reader must refuse although their checksum is valid
BAD_MODELS = {
    "tag-0": dict(layers=PAPER_LAYERS[:-1] + ((32, 8, 0, None),)),
    "unchained": dict(layers=PAPER_LAYERS[:2] + ((200, 256, 1, 0.2),) + PAPER_LAYERS[3:]),
    "empty-table": dict(layers=()),
    "10-8": dict(layers=((10, 8, 2, None),)),
    "version-2": dict(version=2),
    "single-26-8": dict(layers=((26, 8, 2, None),)),
    "relu-output": dict(layers=((26, 5, 1, None), (5, 8, 1, None))),
    "trailing-bytes": dict(trailing=b"\0" * 8),
}


def passthrough_params():
    """Identity sub-blocks on every layer: logit c equals input feature c.

    With non-negative inputs the ReLU chain forwards the first 8 features
    unchanged, so argmax(output) == argmax(input[:8]); dropout layers are
    inert in inference mode.
    """
    params = init_params(0)
    for spec, w in zip(ARCHITECTURE, params.weights):
        w[:] = 0.0
        k = min(spec.in_dim, spec.out_dim)
        w[np.arange(k), np.arange(k)] = 1.0
    for b in params.biases:
        b[:] = 0.0
    return params


def sine_clip(freq: float = 440.0, amplitude: float = 0.5, seconds: float = 1.0) -> np.ndarray:
    t = np.arange(int(round(seconds * 16000))) / 16000
    return amplitude * np.sin(2 * np.pi * freq * t)


def render_utterance(utterance, noise: np.ndarray) -> np.ndarray:
    """The samples of a fixture ``utterance`` over its whole ``noise`` floor,
    in whole-array arithmetic: the oracle for ``fixture.render_block``."""
    t = np.arange(len(noise)) / 16000
    voiced = np.zeros(len(noise))
    for f, a, phase in utterance.tones:
        voiced += a * np.sin(2.0 * np.pi * f * t + phase)
    for pos in utterance.pauses:
        voiced[pos : pos + PAUSE_SAMPLES] *= 0.0
    return np.clip(noise + voiced, -1.0, 1.0)


def draw_and_render(class_index: int, rng: np.random.Generator, n: int,
                    speaker_jitter: np.ndarray) -> np.ndarray:
    """One n-sample fixture file's samples, drawn from ``rng`` in
    ``make_fixture``'s order with the noise floor drawn whole."""
    utterance = draw_utterance(class_index, rng, n, speaker_jitter)
    return render_utterance(utterance, rng.normal(0.0, NOISE_LEVEL, n))


def synthesize_utterance(class_index: int, rng: np.random.Generator, seconds: float) -> np.ndarray:
    """One 16 kHz fixture utterance of class ``class_index`` with no speaker jitter."""
    return draw_and_render(class_index, rng, int(round(seconds * 16000)), np.ones(3))


# records the cache writer and FeatureTable.of both refuse, by name: (label,
# number of values, source id, the message after "record {i}: "). The last is
# a lone surrogate, as decoding a non-UTF-8 file name with surrogateescape gives
REFUSED_RECORDS = {
    "-1": (-1, 26, "s", "label must be an int in 0..7, got -1"),
    "8": (8, 26, "s", "label must be an int in 0..7, got 8"),
    "255": (255, 26, "s", "label must be an int in 0..7, got 255"),
    "2.5": (2.5, 26, "s", "label must be an int in 0..7, got 2.5"),
    "3.0": (3.0, 26, "s", "label must be an int in 0..7, got 3.0"),
    "25-values": (2, 25, "s", "expected 26 values, got shape (25,)"),
    "65536-byte-id": (3, 26, "x" * 65_536, "source id is 65536 bytes of UTF-8, over 65535"),
    "lone-surrogate": (3, 26, "seg\udce9", "source id is not UTF-8"),
}


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, while ``fn()`` runs."""
    return traced_held_and_peak(fn)[1]


def traced_held_and_peak(fn) -> tuple[int, int]:
    """The bytes still traced once ``fn()`` has returned, its result among
    them, and the tracemalloc peak while it ran.

    Tracing stops even when ``fn`` raises, so a failing call cannot leave it on
    to slow every later test."""
    tracemalloc.start()
    try:
        result = fn()  # noqa: F841  (held while the memory is read)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
