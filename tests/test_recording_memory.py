"""preprocess and predict read a recording one segment at a time, and
make-fixture writes one a block at a time: no array grows with the file's
length, no stage writes into its input, and a worker's heap stays in place
from one segment to the next."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from divrec import cli
from divrec.audio_io import WavReader, read_wav, write_wav
from divrec.cli import _preprocess_one, main
from divrec.fixture import make_fixture
from divrec.manifest import ManifestRow
from divrec.network import init_params, save_model
from divrec.preprocess import reduce_noise, segment

from testlib import build_wav_bytes, synthesize_utterance, traced_peak

SR = 16000
SRC = Path(__file__).resolve().parents[1] / "src"


def _recording(path: Path, seconds: float) -> ManifestRow:
    write_wav(synthesize_utterance(3, np.random.default_rng(8), seconds), path)
    return ManifestRow(audio_path=str(path), division="Dhaka", speaker_id="s1")


def test_read_only_recording_gives_the_same_segments_and_predictions(
        tmp_path, monkeypatch, capsys):
    # 28 s: two 10 s chunks and an 8 s tail
    row = _recording(tmp_path / "clip.wav", 28.0)
    model = tmp_path / "model.bin"
    save_model(init_params(0), model)

    def run(out_dir):
        rows = _preprocess_one(row, out_dir)
        assert main(["predict", str(model), row.audio_path]) == 0
        return [Path(r.audio_path).read_bytes() for r in rows], capsys.readouterr().out

    writable = run(tmp_path / "writable")

    def read_only_reader(path, rate):
        wav = WavReader(path, rate)
        read_mono = wav.read_mono

        def read_only(n):
            samples = read_mono(n)
            samples.flags.writeable = False
            return samples

        wav.read_mono = read_only
        return wav

    monkeypatch.setattr(cli, "WavReader", read_only_reader)
    read_only = run(tmp_path / "read-only")
    assert len(read_only[0]) == 3
    assert read_only == writable


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """tracemalloc peaks of preprocess and predict on 100 s and 600 s
    recordings, the longer one six copies of the shorter."""
    root = tmp_path_factory.mktemp("peaks")
    model = root / "model.bin"
    save_model(init_params(0), model)
    short = synthesize_utterance(3, np.random.default_rng(8), 100.0)
    result = {}
    for copies in (1, 6):
        path = root / f"{100 * copies}s.wav"
        write_wav(np.tile(short, copies), path)
        row = ManifestRow(audio_path=str(path), division="Dhaka", speaker_id="s1")
        result[100 * copies] = {
            "preprocess": traced_peak(lambda: _preprocess_one(row, root / f"seg{copies}")),
            "predict": traced_peak(lambda: main(["predict", str(model), str(path)])),
        }
    return result


@pytest.mark.parametrize("command", ["preprocess", "predict"])
def test_peak_of_600_s_within_one_and_a_half_times_100_s(peaks, command, capsys):
    # a whole-file decode would hold 8 bytes per sample: 76.8 MB at 600 s
    assert peaks[600][command] <= 1.5 * peaks[100][command], peaks


def _stereo(path: Path, seconds: float) -> np.ndarray:
    """Write a 16 kHz stereo WAV whose channels differ; returns its int16 frames."""
    rng = np.random.default_rng(21)
    left = synthesize_utterance(1, rng, seconds)
    right = synthesize_utterance(6, rng, seconds)
    frames = np.round(np.stack([left, right], axis=1) * 16000).astype(np.int16)
    path.write_bytes(build_wav_bytes(frames.ravel(), channels=2))
    return frames


def test_stereo_segments_equal_the_whole_file_mean_cut_at_the_same_bounds(tmp_path):
    _stereo(tmp_path / "stereo.wav", 28.0)
    whole = read_wav(tmp_path / "stereo.wav")[0].mean(axis=1)
    row = ManifestRow(audio_path=str(tmp_path / "stereo.wav"), division="Dhaka",
                      speaker_id="s1")
    rows = _preprocess_one(row, tmp_path / "seg")
    bounds = np.cumsum([0, *segment(len(whole))])
    assert len(rows) == len(bounds) - 1 == 3
    for out_row, start, stop in zip(rows, bounds, bounds[1:]):
        expected = tmp_path / "expected.wav"
        write_wav(reduce_noise(whole[start:stop]), expected)
        assert Path(out_row.audio_path).read_bytes() == expected.read_bytes()


def test_stereo_preprocess_peaks_within_one_and_a_half_times_mono(tmp_path):
    # taking the mean of the whole file held 24 bytes per frame: 38.4 MB at 100 s
    frames = _stereo(tmp_path / "stereo.wav", 100.0)
    (tmp_path / "mono.wav").write_bytes(build_wav_bytes(frames[:, 0]))
    peak = {}
    for name in ("mono", "stereo"):
        row = ManifestRow(audio_path=str(tmp_path / f"{name}.wav"), division="Dhaka",
                          speaker_id="s1")
        peak[name] = traced_peak(lambda: _preprocess_one(row, tmp_path / f"seg-{name}"))
    assert peak["stereo"] <= 1.5 * peak["mono"], peak


STEADY_FAULTS = """
import resource, sys
from divrec.cli import main

root = sys.argv[1]
assert main(["make-fixture", "--out", root + "/corpus", "--speakers-per-class", "1",
             "--files-per-speaker", "2", "--file-seconds", "20"]) == 0
assert main(["scan", root + "/corpus", "--out", root + "/m.csv"]) == 0

def faults(k):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["preprocess", root + "/m.csv", "--out-dir", f"{root}/seg{k}",
                 "--out", f"{root}/s{k}.csv", "--workers", "2"]) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(0)
print(faults(1))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt")
def test_a_repeated_preprocess_faults_in_almost_no_pages(tmp_path):
    # 16 files of 20 s: 32 segments. With glibc's default thresholds each
    # worker returned its segment arrays to the kernel after every segment,
    # about 1,800 minor faults per segment; with them fixed, under 1.
    proc = subprocess.run([sys.executable, "-c", STEADY_FAULTS, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    faults = int(proc.stdout.split()[-1])
    assert faults / 32 < 50, faults



FIXTURE_FAULTS = """
import resource, sys
from divrec.fixture import make_fixture

def faults(k):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    make_fixture(f"{sys.argv[1]}/c{k}", seed=k, speakers_per_class=1, files_per_speaker=2,
                 file_seconds=20.0)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(0)
print(faults(1))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's mallopt")
def test_a_repeated_make_fixture_faults_in_few_pages(tmp_path):
    # called as a library, without a command to fix the malloc thresholds: 16
    # files of 20 s, 80 blocks. With glibc's default thresholds each thread
    # returned its block arrays to the kernel after every block, 60-210 minor
    # faults per block over 9 runs; with them fixed, 0-11.
    proc = subprocess.run([sys.executable, "-c", FIXTURE_FAULTS, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    faults = int(proc.stdout.split()[-1])
    assert faults / 80 < 20, faults

# Bounds on each stage's own working memory (tracemalloc peaks, inputs built
# outside the traced call). Holding every dead intermediate until return
# peaked at 14.2 MB in reduce_noise; encoding a whole file at once at 16.0 MB
# in write_wav; predict on 100 s, which runs both, at 28.1 MB; make_fixture
# with a full-length noise array per file in flight at 28.2 MB for 8 x 60 s
# files, against 9.2 MB a block at a time.

def test_reduce_noise_of_a_10_s_segment_peaks_under_8_mb():
    segment = synthesize_utterance(5, np.random.default_rng(9), 10.0)
    assert traced_peak(lambda: reduce_noise(segment)) <= 8_000_000


def test_write_wav_of_100_s_peaks_under_2_mb(tmp_path):
    samples = synthesize_utterance(2, np.random.default_rng(10), 100.0)
    assert traced_peak(lambda: write_wav(samples, tmp_path / "100s.wav")) <= 2_000_000


def test_predict_of_a_100_s_file_peaks_under_24_mb(tmp_path, capsys):
    model = tmp_path / "model.bin"
    save_model(init_params(0), model)
    row = _recording(tmp_path / "100s.wav", 100.0)
    assert traced_peak(lambda: main(["predict", str(model), row.audio_path])) <= 24_000_000
    assert "prediction:" in capsys.readouterr().out


def test_make_fixture_of_8_files_of_60_s_peaks_under_12_mb(tmp_path):
    assert traced_peak(lambda: make_fixture(tmp_path, seed=3, speakers_per_class=1,
                                            files_per_speaker=1,
                                            file_seconds=60.0)) <= 12_000_000
