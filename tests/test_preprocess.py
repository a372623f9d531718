import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec.audio_io import encode_pcm16, write_wav
from divrec.cli import _preprocess_one
from divrec.errors import DataError
from divrec.manifest import ManifestRow
from divrec.preprocess import (
    NOISE_FRAMES,
    NR_FRAME_LEN,
    NR_HOP,
    NR_WINDOW,
    OVERSUBTRACTION,
    SPECTRAL_FLOOR,
    _overlap_add,
    reduce_noise,
    segment,
)

from testlib import sine_clip, synthesize_utterance

SR = 16000


def _clip(seconds: float) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.uniform(-0.5, 0.5, int(seconds * SR))


def test_25s_yields_two_chunks_tail_discarded():
    assert segment(25 * SR) == [10 * SR, 10 * SR]


def test_18s_yields_10s_plus_8s():
    assert segment(18 * SR) == [10 * SR, 8 * SR]


def test_7s_yields_nothing():
    assert segment(7 * SR) == []


def test_segment_ids_are_suffixed(tmp_path):
    write_wav(_clip(20.0), tmp_path / "clip.wav")
    row = ManifestRow(audio_path=str(tmp_path / "clip.wav"), division="Dhaka", speaker_id="s1")
    rows = _preprocess_one(row, tmp_path / "seg")
    assert [Path(r.audio_path).name for r in rows] == ["clip_seg000.wav", "clip_seg001.wav"]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=35 * SR))
def test_segments_are_prefix_partition(n_samples):
    lengths = segment(n_samples)
    assert all(8 * SR <= n <= 10 * SR for n in lengths)
    # every chunk but the last is a full 10 s, so the chunks tile a prefix
    assert all(n == 10 * SR for n in lengths[:-1])
    covered = sum(lengths)
    assert covered <= n_samples
    assert n_samples - covered < 10 * SR  # shortfall is a sub-chunk tail
    # any discarded tail is below the keep threshold
    if n_samples % (10 * SR) and covered < n_samples:
        assert n_samples - covered < 8 * SR


def test_noise_reduction_zero_in_zero_out():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the zero-magnitude gain must not divide 0 by 0
        out = reduce_noise(np.zeros(4 * SR))
    assert len(out) == 4 * SR
    np.testing.assert_array_equal(out, 0.0)


def test_noise_reduction_preserves_length():
    for seconds in (0.05, 1.0, 2.37):
        clip = _clip(seconds)
        assert len(reduce_noise(clip)) == len(clip)


def test_noise_reduction_deterministic():
    clip = _clip(1.5)
    a = reduce_noise(clip)
    b = reduce_noise(clip)
    np.testing.assert_array_equal(a, b)


def test_noise_reduction_rejects_short_clip():
    with pytest.raises(DataError, match="511 samples < frame length 512"):
        reduce_noise(np.zeros(511))


def test_snr_improves_on_gated_sine_plus_noise():
    # known decomposition: a gated 440 Hz sine (silent leader gives the noise
    # profiler genuinely signal-free frames, as pauses do in speech) + white noise
    rng = np.random.default_rng(17)
    n = 4 * SR
    t = np.arange(n) / SR
    gate = np.ones(n)
    gate[: int(0.5 * SR)] = 0.0
    gate[2 * SR : 2 * SR + int(0.4 * SR)] = 0.0
    clean = 0.5 * np.sin(2 * np.pi * 440 * t) * gate
    noise = rng.normal(0.0, 0.05, n)

    noisy = np.clip(clean + noise, -1, 1)
    out = reduce_noise(noisy)

    def snr(signal):
        residual = signal - clean
        return 10 * np.log10(np.sum(clean**2) / np.sum(residual**2))

    assert snr(out) > snr(noisy)


def test_pure_sine_deviation_bounded_by_spectral_floor():
    amplitude = 0.5
    clip = sine_clip(freq=440.0, amplitude=amplitude, seconds=2.0)
    out = reduce_noise(clip)
    # per-bin magnitudes end between beta*|X| and |X|, so the output cannot
    # stray from the input by more than the fully-attenuated amplitude
    bound = (1.0 - SPECTRAL_FLOOR) * amplitude
    assert np.max(np.abs(out - clip)) <= bound * 1.05


def test_output_clamped_to_unit_range():
    rng = np.random.default_rng(3)
    out = reduce_noise(np.clip(rng.normal(0, 0.5, SR), -1, 1))
    assert np.max(np.abs(out)) <= 1.0


# --- reference implementation: per-frame overlap-add, angle/exp resynthesis ---

def _reference_overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    n_frames, frame_len = frames.shape
    out = np.zeros((n_frames - 1) * hop + frame_len)
    for i in range(n_frames):
        out[i * hop : i * hop + frame_len] += frames[i]
    return out


def _reference_reduce_noise(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    frame_len, hop = NR_FRAME_LEN, NR_HOP
    n_frames = int(np.ceil((n + frame_len) / hop)) + 1
    padded = np.zeros((n_frames - 1) * hop + frame_len)
    padded[hop : hop + n] = x
    offsets = hop * np.arange(n_frames)[:, None] + np.arange(frame_len)[None, :]
    frames = padded[offsets] * NR_WINDOW

    spectra = np.fft.rfft(frames, axis=1)
    mag = np.abs(spectra)
    phase = np.angle(spectra)
    energies = np.sum(frames**2, axis=1)
    quietest = np.argsort(energies, kind="stable")[: min(NOISE_FRAMES, n_frames)]
    noise_profile = mag[quietest].mean(axis=0)
    out_mag = np.maximum(mag - OVERSUBTRACTION * noise_profile, SPECTRAL_FLOOR * mag)
    rebuilt = np.fft.irfft(out_mag * np.exp(1j * phase), frame_len, axis=1)
    out = _reference_overlap_add(rebuilt, hop)
    return np.clip(out[hop : hop + n], -1.0, 1.0)


def _fixture_segment(class_index: int, seconds: float = 10.0) -> np.ndarray:
    rng = np.random.default_rng(100 + class_index)
    samples = synthesize_utterance(class_index, rng, seconds)
    # on the PCM16 grid, as segments are after ingest
    return encode_pcm16(samples) / 32768.0


@pytest.mark.parametrize("frame_len,hop", [(NR_FRAME_LEN, NR_HOP)])
def test_blocked_overlap_add_bit_equal_to_frame_loop(frame_len, hop):
    frames = np.random.default_rng(frame_len + hop).normal(size=(57, frame_len))
    blocked = _overlap_add(frames)
    reference = _reference_overlap_add(frames, hop)
    np.testing.assert_array_equal(blocked[: reference.shape[0]], reference)
    np.testing.assert_array_equal(blocked[reference.shape[0] :], 0.0)


@pytest.mark.parametrize("class_index", range(8))
def test_reduce_noise_matches_reference_on_fixture_segments(class_index):
    clip = _fixture_segment(class_index)
    expected = _reference_reduce_noise(clip)
    got = reduce_noise(clip)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    assert encode_pcm16(got).tobytes() == encode_pcm16(expected).tobytes()


def test_reduce_noise_silent_stretch_raises_no_warning():
    samples = _fixture_segment(5, seconds=3.0)
    samples[SR : 2 * SR] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = reduce_noise(samples)
    np.testing.assert_allclose(out, _reference_reduce_noise(samples),
                               rtol=0, atol=1e-12)


# --- byte pin: the vectorized reduce_noise as first landed, copied here ---

def _pinned_reduce_noise(samples: np.ndarray) -> np.ndarray:
    n = samples.shape[0]
    frame_len, hop = NR_FRAME_LEN, NR_HOP
    n_frames = int(np.ceil((n + frame_len) / hop)) + 1
    padded = np.zeros((n_frames - 1) * hop + frame_len)
    padded[hop : hop + n] = samples
    frames = np.lib.stride_tricks.sliding_window_view(padded, frame_len)[::hop] * NR_WINDOW
    spectra = np.fft.rfft(frames, axis=1)
    mag = np.abs(spectra)
    energies = np.sum(np.square(frames, out=frames), axis=1)
    quietest = np.argsort(energies, kind="stable")[:NOISE_FRAMES]
    noise_profile = mag[quietest].mean(axis=0)
    gain = np.maximum(mag - OVERSUBTRACTION * noise_profile, SPECTRAL_FLOOR * mag)
    np.divide(gain, mag, out=gain, where=mag > 0)
    spectra *= gain
    rebuilt = np.fft.irfft(spectra, frame_len, axis=1)
    added = np.zeros((n_frames + 1, hop))
    added[1:] += rebuilt[:, hop:]
    added[:-1] += rebuilt[:, :hop]
    return np.clip(added.ravel()[hop : hop + n], -1.0, 1.0)


_PINNED_INPUTS = {
    **{f"fixture-{c}": (lambda c=c: _fixture_segment(c)) for c in range(8)},
    "zeros": lambda: np.zeros(10 * SR),
    "8.1s": lambda: _fixture_segment(2, seconds=8.1),
    "plus-one": lambda: np.ones(10 * SR),
    "minus-one": lambda: -np.ones(10 * SR),
}


@pytest.mark.parametrize("name", list(_PINNED_INPUTS))
def test_reduce_noise_bytes_equal_pinned_copy(name):
    samples = _PINNED_INPUTS[name]()
    got = reduce_noise(samples)
    assert got.dtype == np.float64 and got.shape == samples.shape
    assert got.tobytes() == _pinned_reduce_noise(samples).tobytes()
