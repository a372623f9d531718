"""Independent oracle helpers shared by the test modules."""

import struct
import tracemalloc
import zlib

import numpy as np

from divrec.fixture import draw_utterance, render_utterance
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


def synthesize_utterance(class_index: int, rng: np.random.Generator, seconds: float) -> np.ndarray:
    """One 16 kHz fixture utterance of class ``class_index`` with no speaker jitter."""
    return render_utterance(draw_utterance(class_index, rng, int(round(seconds * 16000)), np.ones(3)))


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, while ``fn()`` runs.

    Tracing stops even when ``fn`` raises, so a failing call cannot leave it on
    to slow every later test."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
