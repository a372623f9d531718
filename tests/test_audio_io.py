import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.audio_io import (WavWriter, encode_pcm16, ingest, pcm16_round_trip, read_wav,
                             write_wav)
from divrec.errors import DataError

from testlib import build_wav_bytes, chunk_bytes, riff_bytes


def test_one_second_mono_fixture_sample_count(tmp_path):
    path = tmp_path / "one_second.wav"
    path.write_bytes(build_wav_bytes(np.zeros(16000, dtype=np.int16)))
    samples, sample_rate = read_wav(path)
    assert samples.shape == (16000,)
    assert sample_rate == 16000


def test_normalization_divides_by_32768(tmp_path):
    path = tmp_path / "levels.wav"
    path.write_bytes(build_wav_bytes(np.array([-32768, 16384, 0, 32767], dtype=np.int16)))
    samples, _ = read_wav(path)
    assert samples[0] == -1.0
    assert samples[1] == 0.5
    assert samples[2] == 0.0
    assert samples[3] == 32767 / 32768


@pytest.mark.parametrize("channels", [1, 2])
def test_every_int16_value_decodes_to_raw_over_32768(tmp_path, channels):
    every = np.arange(-32768, 32768, dtype=np.int16)
    raw = np.concatenate([every, every[::-1], every[:1000]])
    path = tmp_path / "every.wav"
    path.write_bytes(build_wav_bytes(raw, channels=channels))
    samples, _ = read_wav(path)
    expected = raw.astype(np.float64) / 32768.0
    assert samples.shape == ((len(raw),) if channels == 1 else (len(raw) // 2, 2))
    assert np.array_equal(samples.reshape(-1).view(np.int64), expected.view(np.int64))


def test_write_after_read_reproduces_data_chunk(tmp_path):
    # 440 Hz sine quantized below half scale: the asymmetric read/write pair
    # (divide by 32768, multiply by 32767) is the identity on that range
    t = np.arange(16000) / 16000
    raw = np.round(0.45 * 32767 * np.sin(2 * np.pi * 440 * t)).astype(np.int16)
    original = tmp_path / "orig.wav"
    original.write_bytes(build_wav_bytes(raw))

    rewritten = tmp_path / "rewritten.wav"
    write_wav(read_wav(original)[0], rewritten)

    orig_bytes = original.read_bytes()
    new_bytes = rewritten.read_bytes()
    assert orig_bytes[orig_bytes.index(b"data") :] == new_bytes[new_bytes.index(b"data") :]


@pytest.mark.parametrize("n", [0, 1, 160_000])
def test_write_wav_bytes_equal_hand_built_file(tmp_path, rng, n):
    # the whole file, header included: the 44-byte layout in docs/formats.md
    samples = rng.uniform(-1.0, 1.0, n)
    path = tmp_path / "out.wav"
    write_wav(samples, path)
    assert path.read_bytes() == build_wav_bytes(encode_pcm16(samples))


@pytest.mark.parametrize("n", [0, 1, 65_535, 65_536, 65_537, 160_000, 1_600_000])
def test_write_wav_bytes_equal_hand_built_file_at_block_edges(tmp_path, n):
    # lengths around a 65,536-sample block and a 100 s file, with values
    # beyond +-1 that the encoder clamps
    samples = np.random.default_rng(n).uniform(-1.25, 1.25, n)
    path = tmp_path / "out.wav"
    write_wav(samples, path)
    assert path.read_bytes() == build_wav_bytes(encode_pcm16(samples).astype(np.int16))



@pytest.mark.parametrize("written, raised", [
    (2, RuntimeError),  # the with-block raises before its last block
    (2, ValueError),  # the block ends with fewer samples than declared
    (4, ValueError),  # or with more
], ids=["block-raises", "short", "long"])
def test_wav_writer_removes_a_file_that_does_not_hold_its_declared_samples(
        tmp_path, written, raised):
    path = tmp_path / "out.wav"
    pcm = encode_pcm16(np.zeros(1000))
    with pytest.raises(raised):
        with WavWriter(path, 3000) as wav:
            for _ in range(written):
                wav.write(pcm)
            if raised is RuntimeError:
                raise RuntimeError("stopped")
    assert not path.exists()

def test_rejects_non_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(DataError, match="bad.wav: file does not start with RIFF id"):
        read_wav(path)


def test_rejects_non_wave_riff(tmp_path):
    path = tmp_path / "bad.wav"
    good = build_wav_bytes(np.zeros(4, dtype=np.int16))
    path.write_bytes(good[:8] + b"AVI " + good[12:])
    with pytest.raises(DataError, match="bad.wav: not a WAVE file"):
        read_wav(path)


@pytest.mark.parametrize("kwargs", [{"audio_format": 3}, {"bits": 8}, {"bits": 24}])
def test_rejects_non_pcm16(tmp_path, kwargs):
    path = tmp_path / "bad.wav"
    path.write_bytes(build_wav_bytes(np.zeros(4, dtype=np.int16), **kwargs))
    message = ("unknown format: 3" if "audio_format" in kwargs
               else f"{kwargs['bits']}-bit samples, only 16-bit supported")
    with pytest.raises(DataError, match=f"bad.wav: {message}"):
        read_wav(path)


def test_rejects_truncated_data(tmp_path):
    path = tmp_path / "trunc.wav"
    path.write_bytes(build_wav_bytes(np.zeros(4, dtype=np.int16), declared_data_size=1000))
    with pytest.raises(DataError, match="trunc.wav: data chunk declares 1000 bytes, only 8 present"):
        read_wav(path)


RAW = np.array([1, -2, 3, -4], dtype=np.int16)
GOOD = build_wav_bytes(RAW)  # header 0:12, fmt chunk 12:36, data chunk 36:
PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")


def _riff_size(size: int) -> bytes:
    return GOOD[:4] + struct.pack("<I", size) + GOOD[8:]


@pytest.mark.parametrize("data, message", [
    (_riff_size(0), "not a WAVE file"),
    # the RIFF body ends 2 bytes into the data: 2 of its 8 bytes count
    (_riff_size(38), "data chunk declares 8 bytes, only 2 present"),
    (GOOD[:12] + GOOD[36:] + GOOD[12:36], "data chunk before fmt chunk"),
], ids=["riff-size-0", "riff-size-inside-data", "data-before-fmt"])
def test_refuses_what_the_wave_module_refuses(tmp_path, data, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(data)
    with pytest.raises(DataError, match=f"bad.wav: {message}"):
        read_wav(path)


@pytest.mark.parametrize("data", [
    _riff_size(0xFFFFFFFF),  # as streaming writers leave it
    build_wav_bytes(RAW, bits=12),  # 9-16 bits are stored in 2 bytes
    # a data chunk short of only a partial trailing frame
    GOOD[:40] + struct.pack("<I", 9) + GOOD[44:],
    GOOD + b"data" + struct.pack("<I", 2) + b"\x7f\x7f",  # only the first data chunk is read
], ids=["riff-size-streaming", "12-bit", "partial-frame-missing", "second-data-chunk"])
def test_reads_what_the_wave_module_reads(tmp_path, data):
    path = tmp_path / "ok.wav"
    path.write_bytes(data)
    samples, sample_rate = read_wav(path)
    assert sample_rate == 16000
    assert np.array_equal(samples, RAW / 32768)


def test_extensible_pcm_reads_from_python_3_12(tmp_path):
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 32000, 2, 16, 22, 16, 4) + PCM_GUID
    path = tmp_path / "ext.wav"
    path.write_bytes(riff_bytes(chunk_bytes(b"fmt ", fmt), GOOD[36:]))
    if sys.version_info < (3, 12):
        with pytest.raises(DataError, match="ext.wav: unknown format: 65534"):
            read_wav(path)
    else:
        assert np.array_equal(read_wav(path)[0], RAW / 32768)


def test_write_zero_second_clip_data_chunk(tmp_path):
    path = tmp_path / "zero.wav"
    write_wav(np.zeros(16000), path)
    raw = path.read_bytes()
    data = raw[raw.index(b"data") + 8 :]
    assert data == b"\x00" * 32000


def test_write_full_scale_encodes_32767(tmp_path):
    # the write multiplier is 32767, so +/-1.0 map to +/-32767; -32768 is
    # reachable only on read (the asymmetric edge of the int16 convention)
    path = tmp_path / "full.wav"
    write_wav(np.array([1.0, -1.0]), path)
    samples, _ = read_wav(path)
    raw = np.round(samples * 32768).astype(int)
    assert raw[0] == 32767
    assert raw[1] == -32767


def test_encode_clamps_out_of_range():
    assert encode_pcm16(np.array([1.5]))[0] == 32767
    assert encode_pcm16(np.array([-1.5]))[0] == -32768


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=-16384, max_value=16384), min_size=1, max_size=200)
)
def test_read_write_identity_on_quantized_grid(tmp_path_factory, raws):
    # amplitudes on the 1/32768 grid below half scale survive a write/read
    # round trip exactly (round(x * 32767/32768) == x for |x| <= 16384)
    path = tmp_path_factory.mktemp("rt") / "grid.wav"
    amplitudes = np.array(raws) / 32768.0
    write_wav(amplitudes, path)
    back, sample_rate = read_wav(path)
    assert sample_rate == 16000
    np.testing.assert_array_equal(back, amplitudes)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=1, max_size=200))
def test_pcm16_round_trip_equals_write_then_read(tmp_path_factory, amplitudes):
    # above half scale too, where a write/read round trip is not the identity
    path = tmp_path_factory.mktemp("q") / "clip.wav"
    samples = np.array(amplitudes)
    write_wav(samples, path)
    assert pcm16_round_trip(samples).tobytes() == read_wav(path)[0].tobytes()


@pytest.mark.parametrize("rate", [128, 8000, 44100, 48000])
def test_ingest_refuses_rates_other_than_16k(tmp_path, rate):
    # no resampling: any other rate is refused rather than aliased into the MFCC band
    path = tmp_path / "other.wav"
    path.write_bytes(build_wav_bytes(np.zeros(rate), sample_rate=rate))
    with pytest.raises(DataError, match=f"sample rate {rate} Hz, only 16000 supported"):
        ingest(path)
    assert read_wav(path)[1] == rate


def _ingest_frames(tmp_path, name, frames):
    """Write raw int16 frames, shape (n, channels), as a 16 kHz WAV and ingest
    it; also return the brute-force oracle, the exact mean of each frame's
    decoded channels."""
    raw = np.asarray(frames).astype(np.int16)
    path = tmp_path / f"{name}.wav"
    path.write_bytes(build_wav_bytes(raw.reshape(-1), sample_rate=16000,
                                     channels=raw.shape[1]))
    expected = [sum(v / 32768 for v in frame) / len(frame) for frame in raw.tolist()]
    return ingest(path), np.array(expected)


def test_ingest_produces_mono_16k(tmp_path):
    wave = np.sin(2 * np.pi * 300 * np.arange(16000) / 16000)
    frames = np.stack([np.round(10000 * wave), np.round(-5000 * wave)], axis=1)
    samples, expected = _ingest_frames(tmp_path, "opposed-sines", frames)
    assert samples.ndim == 1
    assert len(samples) == 16000
    np.testing.assert_array_equal(samples, expected)


def test_to_mono_symmetric_stereo_cancels(tmp_path):
    frames = np.stack([np.full(100, 16384), np.full(100, -16384)], axis=1)
    samples, _ = _ingest_frames(tmp_path, "symmetric-cancel", frames)
    assert np.all(samples == 0.0)
    assert len(samples) == 100


def test_to_mono_duplicated_channels_identity(tmp_path):
    ramp = np.round(np.linspace(-29000, 29000, 64))
    samples, _ = _ingest_frames(tmp_path, "duplicated", np.stack([ramp, ramp], axis=1))
    np.testing.assert_array_equal(samples, ramp / 32768)


def test_to_mono_random_matches_elementwise_mean(tmp_path, rng):
    frames = rng.integers(-32768, 32768, size=(500, 2))
    samples, expected = _ingest_frames(tmp_path, "random", frames)
    np.testing.assert_array_equal(samples, expected)


def test_to_mono_passes_mono_through(tmp_path):
    frames = np.round(np.linspace(-32768, 32767, 300))[:, None]
    samples, expected = _ingest_frames(tmp_path, "mono", frames)
    assert samples.ndim == 1
    np.testing.assert_array_equal(samples, read_wav(tmp_path / "mono.wav")[0])
    np.testing.assert_array_equal(samples, expected)
