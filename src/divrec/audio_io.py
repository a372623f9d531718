"""WAV decoding on top of the standard library's ``wave`` module, and encoding.

Raw int16 samples are normalized by dividing by 32768 on read and encoded as
round(a * 32767) on write (the standard asymmetric int16 convention: -32768
maps to -1.0 but 1.0 maps to 32767). ``WavReader`` says which checks ``wave``
makes and which this module adds; docs/formats.md gives the file layout, whose
44-byte header ``WavWriter`` writes.

``preprocess`` and ``predict`` decode one segment's block at a time, and
``WavWriter`` takes a file a block at a time, so no array grows with the
recording; ``steady_malloc`` keeps the freed blocks in the heap.
"""

from __future__ import annotations

import ctypes
import os
import struct
import wave
from contextlib import suppress

import numpy as np

from .errors import DataError

TARGET_SAMPLE_RATE = 16000
ENCODE_BLOCK = 1 << 16  # samples encoded per write, so the writer's memory stays flat


# glibc's malloc.h: mallopt parameters and the values every command and
# make_fixture fix
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # the ceiling of glibc's own dynamic threshold on 64-bit hosts
TRIM_THRESHOLD = 64 << 20  # twice that, the ratio glibc's dynamic rule keeps


def steady_malloc() -> None:
    """Fix glibc's mmap and trim thresholds, so that the arrays each segment,
    block or training step frees stay in the heap for the next one instead of
    going back to the kernel and being faulted in again; does nothing when the
    C library has no ``mallopt``.

    By default glibc raises both thresholds to the largest block freed so far,
    so its behaviour would depend on which arrays a caller happened to free
    first. Block-at-a-time decoding and writing free no whole-file array to push
    them up, so each thread would hand its block arrays back to the kernel
    after every segment or block and fault them in again."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class WavReader:
    """A RIFF/WAVE PCM16 LE file, opened to be decoded a block at a time.

    Opening makes every check, so a file is refused before any sample is
    decoded; ``frames``, ``channels`` and ``sample_rate`` come from its header.
    ``wave`` refuses a container that is not RIFF/WAVE, a format tag other than
    PCM, zero channels, ``data`` before ``fmt ``, and a chunk cut short or
    running past the RIFF size; checked here are a sample width other than 16
    bits, a sample rate of 0 (or other than ``rate``, when given), and a data
    chunk shorter than its declared size. Each refusal is a DataError naming
    the file and the reason.
    """

    def __init__(self, path, rate: int | None = None):
        self.path = path
        self._fh = open(path, "rb")
        try:
            # wave reads no further than the RIFF size: data past it is not present
            riff_end = 8 + int.from_bytes(self._fh.peek(8)[4:8], "little")
            try:
                self._wav = wave.open(self._fh)
            # wave raises EOFError and RuntimeError without a message
            except (wave.Error, EOFError, RuntimeError) as exc:
                reason = str(exc) or "a chunk is cut short or runs past the RIFF size"
                raise DataError(f"{path}: {reason}") from exc
            self.channels, width, self.sample_rate, self.frames = self._wav.getparams()[:4]
            if width != 2:
                raise DataError(f"{path}: {8 * width}-bit samples, only 16-bit supported")
            if self.sample_rate == 0:
                raise DataError(f"{path}: sample rate 0")
            if rate is not None and self.sample_rate != rate:
                raise DataError(f"{path}: sample rate {self.sample_rate} Hz, only {rate} supported")
            declared = self.frames * 2 * self.channels
            present = min(os.fstat(self._fh.fileno()).st_size, riff_end) - self._fh.tell()
            if present < declared:
                raise DataError(f"{path}: data chunk declares {declared} bytes, "
                                f"only {present} present")
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> WavReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    def read(self, n: int) -> np.ndarray:
        """The next ``n`` frames (fewer at the end of the data) as float64 in
        [-1.0, 1.0]: 1-D for a mono file, (n, channels) otherwise."""
        n = min(n, self.frames - self._wav.tell())
        data = self._wav.readframes(n)
        if len(data) < n * 2 * self.channels:  # the file shrank after it was opened
            raise DataError(f"{self.path}: data chunk cut short while being read")
        # wave hands over samples in the host's byte order
        samples = decode_pcm16(np.frombuffer(data, dtype=np.int16))
        return samples if self.channels == 1 else samples.reshape(-1, self.channels)

    def read_mono(self, n: int) -> np.ndarray:
        """``read(n)`` with the channels averaged, within this block only."""
        block = self.read(n)
        return block if block.ndim == 1 else block.mean(axis=1)


def read_wav(path, rate: int | None = None) -> tuple[np.ndarray, int]:
    """Decode a whole file into (samples, sample rate), with ``WavReader``'s
    checks and layout."""
    with WavReader(path, rate) as wav:
        return wav.read(wav.frames), wav.sample_rate


def ingest(path) -> np.ndarray:
    """The whole file's mono samples, channels averaged; any sample rate other
    than 16 kHz is refused. The commands read recordings of any length a
    segment at a time instead, through ``WavReader``."""
    samples, _ = read_wav(path, TARGET_SAMPLE_RATE)
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


class WavWriter:
    """A 16 kHz mono PCM16 LE file of ``frames`` samples, written a block at a
    time: the counterpart of ``WavReader``.

    The 44-byte header of docs/formats.md declares ``frames`` and is written
    first, so no field is patched afterwards. A file is never left cut short:
    one the with-block leaves by an exception is removed by ``discard``, and so
    is one whose write or close fails, with an OSError that names it. ``close``
    also removes a file whose sample count is not the declared one, and raises
    ValueError.
    """

    def __init__(self, path, frames: int):
        self.path = path
        self.frames = frames
        self._written = 0
        data_bytes = 2 * frames
        self._fh = open(path, "wb")
        self._checked(self._fh.write, b"RIFF" + struct.pack(
            "<I4s4sIHHIIHH4sI", 36 + data_bytes, b"WAVE", b"fmt ", 16, 1, 1,
            TARGET_SAMPLE_RATE, 2 * TARGET_SAMPLE_RATE, 2, 16, b"data", data_bytes))

    def __enter__(self) -> WavWriter:
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is None:
            self.close()
        else:
            self.discard()

    def _checked(self, op, *args) -> None:
        try:
            op(*args)
        except OSError as exc:
            self.discard()
            if exc.filename is None:  # a failed write or flush names no file
                exc.filename = os.fspath(self.path)
            raise

    def write(self, pcm: np.ndarray) -> None:
        """Append int16 samples, as ``encode_pcm16`` gives them."""
        self._written += len(pcm)
        self._checked(self._fh.write, pcm.astype("<i2", copy=False))

    def close(self) -> None:
        self._checked(self._fh.close)
        if self._written != self.frames:
            self.discard()
            raise ValueError(f"{self.path}: {self._written} samples written, "
                             f"{self.frames} declared; the file was removed")

    def discard(self) -> None:
        """Close the file and remove it."""
        with suppress(OSError):
            self._fh.close()
        with suppress(FileNotFoundError):
            os.remove(self.path)


def write_wav(samples: np.ndarray, path) -> None:
    """Encode mono samples as a 16 kHz PCM16 LE WAV file through ``WavWriter``,
    ``ENCODE_BLOCK`` samples at a time."""
    if samples.ndim != 1:
        raise ValueError("write_wav expects mono samples")
    with WavWriter(path, len(samples)) as wav:
        for first in range(0, len(samples), ENCODE_BLOCK):
            wav.write(encode_pcm16(samples[first : first + ENCODE_BLOCK]))
