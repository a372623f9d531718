"""preprocess and predict hold each recording once: ``segment`` cuts views of
the decoded samples, and no stage writes into its input."""

from pathlib import Path

import numpy as np

from divrec import cli
from divrec.audio_io import ingest, write_wav
from divrec.cli import _preprocess_one, main
from divrec.manifest import ManifestRow
from divrec.network import init_params, save_model
from divrec.preprocess import reduce_noise

from conftest import synthesize_utterance, traced_peak

SR = 16000


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

    def read_only_ingest(path):
        samples = ingest(path)
        samples.flags.writeable = False
        return samples

    monkeypatch.setattr(cli, "ingest", read_only_ingest)
    read_only = run(tmp_path / "read-only")
    assert len(read_only[0]) == 3
    assert read_only == writable


def test_peak_grows_at_most_10_bytes_per_added_sample(tmp_path):
    # the decoded float64 samples (8 bytes each) are the only full-length
    # array left once the file's int16 bytes are decoded, and each segment's
    # temporaries are the same size whatever the length of the recording
    model = tmp_path / "model.bin"
    save_model(init_params(0), model)
    peaks = {}
    for seconds in (100, 300):
        row = _recording(tmp_path / f"{seconds}s.wav", seconds)
        peaks[seconds] = (
            traced_peak(lambda: _preprocess_one(row, tmp_path / f"seg{seconds}")),
            traced_peak(lambda: main(["predict", str(model), row.audio_path])),
        )
    added = (300 - 100) * SR
    for command, short, long in zip(("preprocess", "predict"), peaks[100], peaks[300]):
        assert (long - short) / added <= 10, (command, short, long)


# Bounds on each stage's own working memory (tracemalloc peaks, inputs built
# outside the traced call). Holding every dead intermediate until return
# peaked at 14.2 MB in reduce_noise; encoding a whole file at once at 16.0 MB
# in write_wav; predict on 100 s, which runs both, at 28.1 MB.

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
