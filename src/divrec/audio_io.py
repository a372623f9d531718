"""WAV decoding and encoding.

Only uncompressed 16-bit PCM little-endian RIFF/WAVE files are accepted;
anything else is rejected loudly. Raw int16 samples are normalized by
dividing by 32768 on read and encoded as round(a * 32767) on write (the
standard asymmetric int16 convention: -32768 maps to -1.0 but 1.0 maps
to 32767). The exact chunk layout is documented in docs/formats.md.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError

TARGET_SAMPLE_RATE = 16000


def read_wav(path) -> tuple[np.ndarray, int]:
    """Decode a RIFF/WAVE PCM16 LE file into (samples, sample rate).

    ``samples`` are float64 in [-1.0, 1.0]: 1-D for a mono file, (n, channels)
    otherwise.

    Raises DataError for non-RIFF/WAVE containers, impossible fmt fields (no
    channels, sample rate 0), anything that is not uncompressed 16-bit PCM,
    and a data chunk shorter than its declared size.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body_start + 16 > len(raw):
                raise DataError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", raw, body_start)
        elif chunk_id == b"data":
            avail = len(raw) - body_start
            if avail < chunk_size:
                raise DataError(
                    f"{path}: data chunk declares {chunk_size} bytes, only {avail} present"
                )
            data = raw[body_start : body_start + chunk_size]
        # chunks are word-aligned: odd sizes carry a pad byte
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt is None or data is None:
        raise DataError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise DataError(f"{path}: audio format {audio_format} is not PCM")
    if bits != 16:
        raise DataError(f"{path}: {bits}-bit samples, only 16-bit supported")
    if channels < 1:
        raise DataError(f"{path}: channel count {channels}")
    if sample_rate == 0:
        raise DataError(f"{path}: sample rate 0")

    frame_bytes = 2 * channels
    usable = len(data) - (len(data) % frame_bytes)
    samples = decode_pcm16(np.frombuffer(data[:usable], dtype="<i2"))
    if channels > 1:
        samples = samples.reshape(-1, channels)
    return samples, sample_rate


def ingest(path) -> np.ndarray:
    """The file's mono samples, channels averaged; any sample rate other than
    16 kHz is refused."""
    samples, sample_rate = read_wav(path)
    if sample_rate != TARGET_SAMPLE_RATE:
        raise DataError(
            f"{path}: sample rate {sample_rate} Hz, only {TARGET_SAMPLE_RATE} supported"
        )
    return samples if samples.ndim == 1 else samples.mean(axis=1)


def encode_pcm16(samples: np.ndarray) -> np.ndarray:
    """Quantize amplitudes to int16: round(a * 32767) clamped to the int16 range."""
    scaled = samples * 32767.0
    np.round(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    return scaled.astype("<i2")


def decode_pcm16(ints: np.ndarray) -> np.ndarray:
    """Normalize raw int16 samples to float64 amplitudes: raw / 32768."""
    return ints.astype(np.float64) / 32768.0


def pcm16_round_trip(samples: np.ndarray) -> np.ndarray:
    """The samples ``read_wav`` returns after ``write_wav``, computed in memory."""
    return decode_pcm16(encode_pcm16(samples))


def write_wav(samples: np.ndarray, path) -> None:
    """Encode mono samples as a 16 kHz PCM16 LE WAV file."""
    if samples.ndim != 1:
        raise ValueError("write_wav expects mono samples")
    pcm = encode_pcm16(samples).tobytes()
    header = (
        b"RIFF"
        + struct.pack("<I", 36 + len(pcm))
        + b"WAVE"
        + b"fmt "
        + struct.pack(
            "<IHHIIHH",
            16,  # PCM fmt block size
            1,  # PCM
            1,  # mono
            TARGET_SAMPLE_RATE,
            TARGET_SAMPLE_RATE * 2,
            2,  # block align
            16,  # bits per sample
        )
        + b"data"
        + struct.pack("<I", len(pcm))
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pcm)
