import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divrec import features
from divrec.errors import DataError
from divrec.features import (
    HAMMING,
    AggregatedFeature,
    FeatureTable,
    aggregate,
    build_filterbank,
    dct2_ortho,
    extract,
    frame_signal,
    log_mel_energies,
    mel,
    mel_inv,
    power_spectrum,
    read_feature_cache,
    write_feature_cache,
)

from testlib import REFUSED_RECORDS, traced_held_and_peak, traced_peak

SR = 16000
BANK = build_filterbank()


# --- framing ---

def test_ten_seconds_gives_400_frames_of_400():
    frames = frame_signal(np.zeros(160000))
    assert frames.shape == (400, 400)


def test_two_full_frames():
    assert frame_signal(np.zeros(800)).shape == (2, 400)


def test_partial_tail_discarded():
    assert frame_signal(np.zeros(799)).shape == (1, 400)


def test_too_short_raises():
    with pytest.raises(DataError, match="399 samples < frame length 400"):
        frame_signal(np.zeros(399))


def test_frames_are_contiguous_slices():
    x = np.arange(1200, dtype=np.float64)
    frames = frame_signal(x)
    np.testing.assert_array_equal(frames[1], x[400:800])


# --- hamming window ---

def test_hamming_endpoints():
    assert HAMMING.shape == (400,)
    assert HAMMING[0] == pytest.approx(0.08, abs=1e-15)
    assert HAMMING[-1] == pytest.approx(0.08, abs=1e-15)


def test_hamming_symmetry():
    np.testing.assert_allclose(HAMMING, HAMMING[::-1], rtol=0, atol=1e-15)


# --- power spectrum ---

def naive_power_spectrum(frame, fft_size):
    """O(N^2) DFT oracle with its own symmetric Hamming window."""
    n_frame = len(frame)
    windowed = np.zeros(fft_size)
    for i in range(n_frame):
        windowed[i] = frame[i] * (0.54 - 0.46 * np.cos(2 * np.pi * i / (n_frame - 1)))
    n = np.arange(fft_size)
    out = np.empty(fft_size // 2 + 1)
    for k in range(fft_size // 2 + 1):
        coeff = np.sum(windowed * np.exp(-2j * np.pi * k * n / fft_size))
        out[k] = abs(coeff) ** 2 / fft_size
    return out


def test_zero_frame_zero_spectrum():
    np.testing.assert_array_equal(power_spectrum(np.zeros(400)), 0.0)


def test_spectrum_nonnegative(rng):
    assert np.all(power_spectrum(rng.uniform(-1, 1, 400)) >= 0.0)


def test_sine_at_bin32_peaks_there_and_matches_oracle():
    t = np.arange(400) / SR
    frame = np.sin(2 * np.pi * 1000.0 * t)  # 1000 Hz = bin 32 of a 512 DFT at 16 kHz
    spec = power_spectrum(frame)
    assert np.argmax(spec) == 32
    oracle = naive_power_spectrum(frame, 512)
    assert np.max(np.abs(spec - oracle)) / np.max(oracle) < 1e-9


def test_random_frames_match_naive_dft(rng):
    for _ in range(10):
        frame = rng.uniform(-1, 1, 400)
        spec = power_spectrum(frame)
        oracle = naive_power_spectrum(frame, 512)
        assert np.max(np.abs(spec - oracle)) / np.max(oracle) < 1e-9


def test_parseval_consistency(rng):
    # sum of the one-sided spectrum with weights (1, 2, ..., 2, 1) equals the
    # windowed-frame energy
    for _ in range(10):
        frame = rng.uniform(-1, 1, 400)
        spec = power_spectrum(frame)
        weights = np.full(spec.shape, 2.0)
        weights[0] = weights[-1] = 1.0
        energy = np.sum((frame * HAMMING) ** 2)
        assert np.sum(weights * spec) == pytest.approx(energy, rel=1e-6)


def test_stacked_frames_equal_single_frames_byte_for_byte(rng):
    frames = rng.uniform(-1, 1, (7, 400))
    stacked = power_spectrum(frames)
    assert stacked.shape == (7, 257)
    for frame, row in zip(frames, stacked):
        assert power_spectrum(frame).tobytes() == row.tobytes()


def test_power_spectrum_refuses_other_frame_lengths():
    with pytest.raises(ValueError, match="expected frames of length 400"):
        power_spectrum(np.zeros((3, 401)))


# --- mel scale ---

def test_mel_zero():
    assert mel(0.0) == 0.0


def test_mel_1000_value():
    assert float(mel(1000.0)) == pytest.approx(999.9855371396244, abs=1e-9)
    assert round(float(mel(1000.0)), 2) == 999.99


@pytest.mark.parametrize("f", [100.0, 1000.0, 7999.0])
def test_mel_inverse_identity(f):
    assert float(mel_inv(mel(f))) == pytest.approx(f, rel=1e-9)


# --- filterbank ---

def _boundary_bins():
    """The 42 filter boundaries from the recipe: points spaced uniformly on the
    mel scale from 0 Hz to 8 kHz, rounded to 512-point DFT bins."""
    top = 2595.0 * np.log10(1.0 + 8000.0 / 700.0)
    hz = 700.0 * (10.0 ** (np.linspace(0.0, top, 42) / 2595.0) - 1.0)
    return np.round(hz * 512 / SR).astype(int)


def test_filters_vanish_outside_their_boundaries():
    bank = build_filterbank()
    bins = _boundary_bins()
    k = np.arange(bank.weights.shape[1])
    for i in range(40):
        lo, hi = bins[i], bins[i + 2]
        outside = (k < lo) | (k > hi)
        assert np.all(bank.weights[i, outside] == 0.0)


def test_equal_area_row_sums():
    bank = build_filterbank()
    sums = bank.weights.sum(axis=1)
    assert sums.max() / sums.min() == pytest.approx(1.0, abs=1e-6)


def test_band_is_tiled():
    bank = build_filterbank()
    bins = _boundary_bins()
    lo, hi = bins[0], bins[-1]
    covered = (bank.weights > 0).any(axis=0)
    # interior bins are under at least one triangle; the exact boundary bins
    # are the zeros of their neighbours
    assert np.all(covered[lo + 1 : hi])


def test_boundary_count_and_monotonicity():
    bins = _boundary_bins()
    assert bins.shape == (42,)
    assert np.all(np.diff(bins) >= 1)
    # filter i peaks at boundary i + 1
    np.testing.assert_array_equal(build_filterbank().weights.argmax(axis=1), bins[1:-1])


# --- log energies ---

def test_zero_spectrum_hits_floor():
    bank = build_filterbank()
    energies = log_mel_energies(np.zeros(257), bank)
    np.testing.assert_allclose(energies, np.log(1e-10), rtol=0, atol=1e-12)


def test_log_energy_scaling_shift(rng):
    bank = build_filterbank()
    spec = rng.uniform(0.5, 2.0, 257)
    base = log_mel_energies(spec, bank)
    scaled = log_mel_energies(3.7 * spec, bank)
    np.testing.assert_allclose(scaled - base, np.log(3.7), rtol=0, atol=1e-12)


def test_log_energies_match_matvec_oracle(rng):
    bank = build_filterbank()
    spec = rng.uniform(0.0, 1.0, 257)
    oracle = np.array(
        [np.log(max(1e-10, sum(bank.weights[i, k] * spec[k] for k in range(257))))
         for i in range(40)]
    )
    np.testing.assert_allclose(log_mel_energies(spec, bank), oracle, rtol=0, atol=1e-12)


# --- DCT ---

def naive_dct2_ortho(x, keep):
    """Double-loop DCT-II oracle."""
    n = len(x)
    out = np.zeros(keep)
    for j in range(keep):
        alpha = np.sqrt(1.0 / n) if j == 0 else np.sqrt(2.0 / n)
        acc = 0.0
        for i in range(n):
            acc += x[i] * np.cos(np.pi * j * (2 * i + 1) / (2 * n))
        out[j] = alpha * acc
    return out


def test_constant_input_is_dc_only():
    coeffs = dct2_ortho(np.full(40, 2.5))
    assert coeffs[0] == pytest.approx(2.5 * np.sqrt(40), rel=1e-12)
    np.testing.assert_allclose(coeffs[1:], 0.0, rtol=0, atol=1e-12)


def test_output_length_is_13():
    assert dct2_ortho(np.zeros(40)).shape == (13,)


def test_dct_matches_double_loop_oracle(rng):
    x = rng.normal(0, 1, 40)
    np.testing.assert_allclose(dct2_ortho(x), naive_dct2_ortho(x, 13), rtol=0, atol=1e-12)


# --- delta ---

def naive_delta(features, window=2):
    """Direct formula with clamped indices."""
    t_count, dim = features.shape
    denom = 2 * sum(n * n for n in range(1, window + 1))
    out = np.zeros_like(features)
    for t in range(t_count):
        for n in range(1, window + 1):
            ahead = features[min(t + n, t_count - 1)]
            behind = features[max(t - n, 0)]
            out[t] += n * (ahead - behind)
    return out / denom


def test_constant_matrix_zero_delta():
    c = np.full((6, 13), 3.0)
    np.testing.assert_array_equal(aggregate(c)[13:], naive_delta(c).mean(axis=0))
    np.testing.assert_array_equal(aggregate(c)[13:], 0.0)


def test_linear_ramp_interior_delta_equals_slope():
    a = 0.7
    ramp = a * np.arange(10)[:, None] * np.ones((1, 13))
    assert np.all(naive_delta(ramp)[2:-2] == pytest.approx(a, abs=1e-12))
    np.testing.assert_allclose(aggregate(ramp)[13:], naive_delta(ramp).mean(axis=0),
                               rtol=0, atol=1e-12)


def test_delta_matches_direct_formula(rng):
    x = rng.normal(0, 1, (5, 13))
    np.testing.assert_allclose(aggregate(x)[13:], naive_delta(x).mean(axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("window", [1, 3, 4])
def test_delta_means_hold_for_other_windows_and_short_matrices(rng, monkeypatch, window):
    monkeypatch.setattr(features, "DELTA_WINDOW", window)
    for t_count in range(1, 7):
        x = rng.normal(0, 1, (t_count, 13))
        np.testing.assert_allclose(aggregate(x)[13:], naive_delta(x, window).mean(axis=0),
                                   rtol=0, atol=1e-12)


def test_single_frame_delta_is_zero(rng):
    x = rng.normal(0, 1, (1, 13))
    np.testing.assert_array_equal(aggregate(x)[13:], naive_delta(x).mean(axis=0))
    np.testing.assert_array_equal(aggregate(x)[13:], 0.0)


# --- extract / aggregate ---

def _rich_clip(seconds=10.0, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * SR)) / SR
    x = (
        0.3 * np.sin(2 * np.pi * 350 * t)
        + 0.2 * np.sin(2 * np.pi * 1200 * t)
        + 0.05 * rng.normal(size=t.shape)
    )
    return np.clip(x, -1, 1)


def test_ten_second_clip_gives_400_by_13():
    assert extract(_rich_clip(), BANK).shape == (400, 13)


def test_extract_deterministic():
    clip = _rich_clip()
    np.testing.assert_array_equal(extract(clip, BANK), extract(clip, BANK))


@pytest.mark.parametrize("length", [400 * t for t in (1, 2, 3, 4, 5, 6, 7, 320, 400)]
                         + [400 * 320 + 399])
def test_segment_vector_is_mfcc_means_then_delta_means(length):
    x = _rich_clip()[:length]
    c = dct2_ortho(log_mel_energies(power_spectrum(frame_signal(x)), BANK))
    vector = aggregate(extract(x, BANK))
    assert vector.shape == (26,)
    assert vector[:13].tobytes() == c.mean(axis=0).tobytes()
    np.testing.assert_allclose(vector[13:], naive_delta(c).mean(axis=0), rtol=0, atol=1e-12)


def test_gain_shift_moves_only_c0():
    # scaling the waveform by c scales power by c^2, shifting every log
    # energy by 2 ln c; under the orthonormal DCT that lands entirely on c_0,
    # and a constant shift of c_0 leaves every delta unchanged
    clip = _rich_clip(seconds=1.0)
    scaled = clip * 0.5
    base = extract(clip, BANK)
    shifted = extract(scaled, BANK)
    expected_c0_shift = 2.0 * np.log(0.5) * np.sqrt(40)
    np.testing.assert_allclose(
        shifted[:, 0] - base[:, 0], expected_c0_shift, rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(shifted[:, 1:], base[:, 1:], rtol=0, atol=1e-9)
    np.testing.assert_allclose(aggregate(shifted)[13:], aggregate(base)[13:], rtol=0, atol=1e-9)


def test_aggregate_single_frame_identity(rng):
    row = rng.normal(0, 1, (1, 13))
    np.testing.assert_array_equal(aggregate(row), np.concatenate([row[0], np.zeros(13)]))


def test_network_input_dimension_from_parameter_arithmetic():
    # first dense layer: 128 units, 3456 parameters => d*128 + 128 = 3456
    d = (3456 - 128) // 128
    assert d == 26
    assert aggregate(extract(_rich_clip(seconds=1.0), BANK)[None][0]).shape == (26,)


def test_aggregate_matches_bruteforce_column_means(rng):
    x = rng.normal(0, 1, (10, 13))
    d = naive_delta(x)
    oracle = np.array([sum(x[t, j] for t in range(10)) / 10 for j in range(13)]
                      + [sum(d[t, j] for t in range(10)) / 10 for j in range(13)])
    np.testing.assert_allclose(aggregate(x), oracle, rtol=0, atol=1e-12)


# --- cache round trips ---

def _records(rng, n=7):
    return [AggregatedFeature(rng.normal(0, 1, 26), i % 8, f"seg{i:03d}") for i in range(n)]


def test_binary_cache_round_trip(tmp_path, rng):
    records = _records(rng)
    path = tmp_path / "cache.feat"
    write_feature_cache(records, path)
    back = read_feature_cache(path)
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a.label == b.label
        assert a.source_id == b.source_id
        np.testing.assert_array_equal(a.vector, b.vector)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=26, max_size=26))
def test_cache_preserves_exact_doubles(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("fc") / "one.feat"
    rec = AggregatedFeature(np.array(values), 4, "x")
    write_feature_cache([rec], path)
    np.testing.assert_array_equal(read_feature_cache(path)[0].vector, rec.vector)


def _golden_records():
    # an empty and a multi-byte UTF-8 source id; signed zero, the smallest
    # subnormal, +-1e308 and a NaN, which the writer does not refuse
    special = np.linspace(-2.5, 2.5, 26)
    special[:6] = [-0.0, 5e-324, 1e308, -1e308, np.nan, 0.1]
    return [
        AggregatedFeature(special, 0, ""),
        AggregatedFeature(-special[::-1], 7, "ঢাকা/বক্তা_০১"),
        AggregatedFeature(np.arange(26) / 3.0, 4, "seg002"),
    ]


def test_cache_bytes_are_pinned(tmp_path):
    path = tmp_path / "golden.feat"
    write_feature_cache(_golden_records(), path)
    data = path.read_bytes()
    assert len(data) == 690
    assert hashlib.sha256(data).hexdigest() == (
        "f005267b131eb3b9094568445e73404cd7afa28f1824fdf8e0eec4e6b6e8ec69")


@pytest.mark.parametrize("shape", [(27,), (25,), (26, 1)])
def test_writer_refuses_vectors_of_another_shape(tmp_path, shape):
    records = [AggregatedFeature(np.full(shape, 1.0), i % 8, f"r{i}") for i in range(10)]
    with pytest.raises(ValueError, match=re.escape(f"record 0: expected 26 values, got shape {shape}")):
        write_feature_cache(records, tmp_path / "bad.feat")


def test_failed_write_names_the_ragged_record_and_leaves_no_file(tmp_path):
    # the 27-value records start in the second 1,024-record block, after the
    # header and the first block have been written
    records = [AggregatedFeature(np.full(26, i / 8), i % 8, f"r{i}") for i in range(1030)]
    records += [AggregatedFeature(np.full(27, 1.0), 0, f"bad{i}") for i in range(5)]
    new = tmp_path / "new.feat"
    with pytest.raises(ValueError, match=re.escape("record 1030: expected 26 values, got shape (27,)")):
        write_feature_cache(records, new)
    existing = tmp_path / "existing.feat"
    write_feature_cache(records[:3], existing)
    before = existing.read_bytes()
    with pytest.raises(ValueError, match="record 1030: "):
        write_feature_cache(records, existing)
    assert existing.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.feat"]


def test_failed_write_of_another_kind_keeps_numpy_error(tmp_path):
    for vector in (np.full(26, "x", dtype=object), ["x"] * 26):
        with pytest.raises(ValueError, match="could not convert string to float"):
            write_feature_cache([AggregatedFeature(vector, 0, "s")], tmp_path / "c.feat")
        assert list(tmp_path.iterdir()) == []


# ids as pytest names (label, source id, message)
@pytest.mark.parametrize("label, size, source_id, message", REFUSED_RECORDS.values(),
                         ids=[f"{label}-{sid}-{message}"
                              for label, _, sid, message in REFUSED_RECORDS.values()])
def test_writer_refuses_what_the_reader_would_not_read_back(tmp_path, label, size, source_id,
                                                            message):
    # a record the reader could not read back, after two good records
    records = [AggregatedFeature(np.zeros(26), 0, "ok") for _ in range(2)]
    records.append(AggregatedFeature(np.zeros(size), label, source_id))
    with pytest.raises(ValueError, match=re.escape(f"record 2: {message}")):
        write_feature_cache(records, tmp_path / "c.feat")
    assert list(tmp_path.iterdir()) == []


def test_writer_takes_the_widest_source_id_and_every_label(tmp_path):
    records = [AggregatedFeature(np.zeros(26), label, "x" * 65_535 if label == 7 else "s")
               for label in range(8)]
    write_feature_cache(records, tmp_path / "c.feat")
    back = read_feature_cache(tmp_path / "c.feat")
    assert [rec.label for rec in back] == list(range(8))
    assert len(back[7].source_id) == 65_535


def test_writer_takes_numpy_integer_labels(tmp_path):
    records = [AggregatedFeature(np.zeros(26), kind(5), "s") for kind in (np.int64, np.uint8)]
    write_feature_cache(records, tmp_path / "c.feat")
    assert [rec.label for rec in read_feature_cache(tmp_path / "c.feat")] == [5, 5]


def test_writes_leave_a_file_named_like_a_temporary_alone(tmp_path, rng):
    # the temporary name is unique, so a user's <path>.tmp is never written
    path, bystander = tmp_path / "cache.feat", tmp_path / "cache.feat.tmp"
    bystander.write_bytes(b"a user's file")
    write_feature_cache(_records(rng), path)
    assert bystander.read_bytes() == b"a user's file"
    with pytest.raises(ValueError, match=re.escape("record 0: expected 26 values")):
        write_feature_cache([AggregatedFeature(np.zeros(27), 0, "bad")], path)
    assert bystander.read_bytes() == b"a user's file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.feat", "cache.feat.tmp"]
    assert len(read_feature_cache(path)) == 7


def test_cache_gets_the_mode_open_gives(tmp_path, rng):
    write_feature_cache(_records(rng), tmp_path / "cache.feat")
    (tmp_path / "plain").write_bytes(b"")
    assert (tmp_path / "cache.feat").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_zero_record_cache_round_trip(tmp_path):
    path = tmp_path / "empty.feat"
    write_feature_cache([], path)
    assert path.read_bytes() == b"DIVFEAT1" + bytes(8)
    assert list(read_feature_cache(path)) == []


def test_read_vectors_are_writeable_and_separate(tmp_path, rng):
    path = tmp_path / "cache.feat"
    write_feature_cache(_records(rng, n=3), path)
    back = read_feature_cache(path)
    before = back[1].vector.copy()
    back[0].vector[:] = 7.0
    np.testing.assert_array_equal(back[1].vector, before)


def test_a_whole_table_is_its_columns(tmp_path, rng):
    # a read table and a list's table hold every row in order: their vectors()
    # is the vector column, whose rows the records' vectors view; a split part
    # gathers its rows into a new array
    write_feature_cache(_records(rng, n=12), tmp_path / "cache.feat")
    for table in (read_feature_cache(tmp_path / "cache.feat"),
                  FeatureTable.of(_records(np.random.default_rng(3), n=12))):
        vectors = table.vectors()
        assert all(np.shares_memory(vectors, rec.vector) for rec in table)
        vectors[4] = 9.0
        np.testing.assert_array_equal(table[4].vector, np.full(26, 9.0))
        np.testing.assert_array_equal(table.labels, [i % 8 for i in range(12)])
        part = table[2:6]
        assert not np.shares_memory(part.vectors(), vectors)
        np.testing.assert_array_equal(part.vectors(), vectors[2:6])


def test_source_ids_round_trip_through_a_read_table_its_slices_and_split_parts(tmp_path):
    # an empty id, the widest one (21,845 three-byte characters) and a
    # non-ASCII one among plain ids, two records per label
    from divrec.training import TrainingConfig, split_dataset

    ids = [f"s{i}" for i in range(16)]
    ids[0], ids[7], ids[15] = "", "ঢ" * 21_845, "ঢাকা/বক্তা_০১"
    assert len(ids[7].encode("utf-8")) == 65_535
    records = [AggregatedFeature(np.full(26, i / 4), i % 8, sid) for i, sid in enumerate(ids)]
    write_feature_cache(records, tmp_path / "ids.feat")
    table = read_feature_cache(tmp_path / "ids.feat")
    assert [rec.source_id for rec in table] == ids
    assert [table[-1].source_id, table[-9].source_id] == [ids[15], ids[7]]
    assert [rec.source_id for rec in table[5:16]] == ids[5:16]
    assert [rec.source_id for rec in table[5:16][1:3]] == ids[6:8]
    config = TrainingConfig(seed=2)
    for part, listed in zip(split_dataset(table, config), split_dataset(records, config)):
        assert [rec.source_id for rec in part] == [rec.source_id for rec in listed]
    assert sorted(rec.source_id for part in split_dataset(table, config) for rec in part) == (
        sorted(ids))


def test_writer_takes_a_read_table_and_its_split_parts(tmp_path):
    # a table is a sequence of records: written again, a read table gives the
    # file's own bytes, and a split part the bytes of its records as a list
    from divrec.training import TrainingConfig, split_dataset

    ids = [f"s{i}" for i in range(40)]
    ids[0], ids[9] = "", "ঢাকা/বক্তা_০১"
    records = [AggregatedFeature(np.full(26, i / 4), i % 8, sid) for i, sid in enumerate(ids)]
    write_feature_cache(records, tmp_path / "all.feat")
    table = read_feature_cache(tmp_path / "all.feat")
    write_feature_cache(table, tmp_path / "again.feat")
    assert (tmp_path / "again.feat").read_bytes() == (tmp_path / "all.feat").read_bytes()
    part = split_dataset(table, TrainingConfig(seed=2))[0]
    write_feature_cache(part, tmp_path / "part.feat")
    write_feature_cache([records[i] for i in part.rows], tmp_path / "listed.feat")
    assert (tmp_path / "part.feat").read_bytes() == (tmp_path / "listed.feat").read_bytes()
    assert [rec.source_id for rec in read_feature_cache(tmp_path / "part.feat")] == [
        rec.source_id for rec in part]


def test_a_list_table_takes_numpy_integer_labels():
    records = [AggregatedFeature(np.zeros(26), kind(5), "s") for kind in (np.int64, np.uint8)]
    assert FeatureTable.of(records).labels.tolist() == [5, 5]


def test_count_beyond_the_file_is_refused_before_allocating(tmp_path, rng):
    path = tmp_path / "huge.feat"
    write_feature_cache(_records(rng, n=3), path)
    data = bytearray(path.read_bytes())
    data[8:16] = struct.pack("<Q", 2**64 - 1)
    data[16] = 9  # a bad label in the first record: no record is read
    path.write_bytes(bytes(data))

    def read():
        with pytest.raises(DataError, match="huge.feat: truncated feature cache"):
            read_feature_cache(path)

    assert traced_peak(read) < 1_000_000


@pytest.mark.parametrize("label", [8, 255])
def test_reader_names_the_record_with_a_bad_label(tmp_path, label):
    path = tmp_path / "labels.feat"
    write_feature_cache(
        [AggregatedFeature(np.full(26, i / 8), i % 8, f"r{i:02d}") for i in range(80)], path)
    data = bytearray(path.read_bytes())
    data[16 + 57 * (1 + 2 + 3 + 8 * 26)] = label  # record 57's label byte
    path.write_bytes(bytes(data))
    with pytest.raises(DataError) as excinfo:
        read_feature_cache(path)
    assert str(excinfo.value) == f"{path}: record 57: label must be an int in 0..7, got {label}"


def test_cache_memory_at_paper_scale(tmp_path, rng):
    # train-paper's 16,730 records: the writer joins one block at a time. The
    # reader peaks at the file's 3.7 MB of bytes, the 3.5 MB vector array and
    # the source ids (7.54 MB; 12.27 MB with a record object and a row view
    # per record), and its table then holds the columns: 3.93 MB with the ids
    # in one buffer, 4.89 MB with a str per id and 8.10 MB with a record each
    n = 16_730
    vectors = rng.normal(0, 5, (n, 26))
    records = [AggregatedFeature(v, i % 8, f"blob{i % 8}_{i:05d}") for i, v in enumerate(vectors)]
    path = tmp_path / "paper.feat"
    assert traced_peak(lambda: write_feature_cache(records, path)) < 2_000_000
    held, peak = traced_held_and_peak(lambda: read_feature_cache(path))
    assert peak < 10_000_000, peak
    assert held < 4_500_000, held
