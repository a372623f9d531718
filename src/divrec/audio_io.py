"""WAV decoding and encoding on top of the standard library's ``wave`` module.

Raw int16 samples are normalized by dividing by 32768 on read and encoded as
round(a * 32767) on write (the standard asymmetric int16 convention: -32768
maps to -1.0 but 1.0 maps to 32767). ``read_wav`` says which checks ``wave``
makes and which this module adds; docs/formats.md gives the file layout.
"""

from __future__ import annotations

import os
import wave

import numpy as np

from .errors import DataError

TARGET_SAMPLE_RATE = 16000
ENCODE_BLOCK = 1 << 16  # samples encoded per write, so the writer's memory stays flat


def read_wav(path) -> tuple[np.ndarray, int]:
    """Decode a RIFF/WAVE PCM16 LE file into (samples, sample rate).

    ``samples`` are float64 in [-1.0, 1.0]: 1-D for a mono file, (n, channels)
    otherwise.

    Raises DataError naming the file and the reason. ``wave`` refuses a
    container that is not RIFF/WAVE, a format tag other than PCM, zero
    channels, ``data`` before ``fmt ``, and a chunk cut short or running past
    the RIFF size; checked here are a sample width other than 16 bits, a
    sample rate of 0, and a data chunk shorter than its declared size.
    """
    with open(path, "rb") as fh:
        try:
            with wave.open(fh) as wav:
                channels, width, sample_rate, frames = wav.getparams()[:4]
                if width != 2:
                    raise DataError(f"{path}: {8 * width}-bit samples, only 16-bit supported")
                if sample_rate == 0:
                    raise DataError(f"{path}: sample rate 0")
                # the declared size is outside input: ask for no more than the
                # file holds, since a read allocates what it is asked for
                data = wav.readframes(min(frames, os.fstat(fh.fileno()).st_size // (2 * channels)))
        # wave raises EOFError and RuntimeError without a message
        except (wave.Error, EOFError, RuntimeError) as exc:
            reason = str(exc) or "a chunk is cut short or runs past the RIFF size"
            raise DataError(f"{path}: {reason}") from exc
    if len(data) < frames * 2 * channels:
        raise DataError(f"{path}: data chunk declares {frames * 2 * channels} bytes, "
                        f"only {len(data)} present")
    # wave hands over samples in the host's byte order
    samples = decode_pcm16(np.frombuffer(data, dtype=np.int16))
    return (samples if channels == 1 else samples.reshape(-1, channels)), sample_rate


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
    return ints / 32768.0


def pcm16_round_trip(samples: np.ndarray) -> np.ndarray:
    """The samples ``read_wav`` returns after ``write_wav``, computed in memory."""
    return decode_pcm16(encode_pcm16(samples))


def write_wav(samples: np.ndarray, path) -> None:
    """Encode mono samples as a 16 kHz PCM16 LE WAV file (the 44-byte header
    of docs/formats.md), ``ENCODE_BLOCK`` samples at a time."""
    if samples.ndim != 1:
        raise ValueError("write_wav expects mono samples")
    # opened here, not by wave: wave.open on a path it cannot open leaves a
    # half-built writer whose __del__ prints a traceback
    with open(path, "wb") as fh, wave.open(fh, "wb") as wav:
        # frame count declared: wave writes the header once, and host-order samples as LE
        wav.setparams((1, 2, TARGET_SAMPLE_RATE, len(samples), "NONE", "not compressed"))
        for first in range(0, len(samples), ENCODE_BLOCK):
            block = encode_pcm16(samples[first : first + ENCODE_BLOCK])
            wav.writeframesraw(block.astype(np.int16, copy=False))
