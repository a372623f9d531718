"""Every function the benchmark's tracer wraps is called by the CLI pipeline.

A wrap that still resolves but is no longer called (say, ``extract`` moved
out of ``divrec.cli``) leaves its per-layer metric at 0 in every traced run.
"""

from divrec import cli

from test_tracer_names import tracing  # noqa: F401  (the fixture that loads perfbench/tracing.py)


def test_every_measured_wrap_is_called(tracing, tmp_path, capsys):  # noqa: F811
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    commands = [
        ["make-fixture", "--out", str(corpus), "--speakers-per-class", "1",
         "--files-per-speaker", "1", "--file-seconds", "20"],
        ["scan", str(corpus), "--out", str(out / "manifest.csv")],
        ["preprocess", str(out / "manifest.csv"), "--out-dir", str(out / "segments"),
         "--out", str(out / "segments.csv"), "--workers", "2"],
        ["extract", str(out / "segments.csv"), "--out", str(out / "cache.feat"),
         "--workers", "2"],
        ["train", str(out / "cache.feat"), "--model-out", str(out / "model.bin"),
         "--metrics-out", str(out / "metrics.csv"), "--epochs", "1"],
        ["evaluate", str(out / "model.bin"), str(out / "cache.feat"), "--split", "val"],
    ]
    out.mkdir()
    with tracing.Tracer(tracing.MEASURED_WRAPS) as tracer:
        for argv in commands:
            assert cli.main(argv) == 0, (argv, capsys.readouterr().err)

    assert tracer.missing == []
    expected = {name for _, _, name, _ in tracing.MEASURED_WRAPS if isinstance(name, str)}
    expected |= {"network.forward_train", "network.forward_infer"}
    recorded = {span.name for span in tracer.spans}
    assert sorted(expected - recorded) == []
