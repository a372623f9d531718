"""scripts/bench_pairs.py --summary on two small files in its layout."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(bench_pairs, parent: str, parent_rss: list, change_rss: list,
            parent_acc=(1.0,) * 3, change_acc=(1.0,) * 3) -> dict:
    digests = {"cache": "c0", "model.bin": "m0"}
    runs = {side: [{"seed": 7 + k, "metrics": {"peak_rss_mb": rss, "accuracy": acc},
                    "attempted": 10, "failed": 0, "digests": digests}
                   for k, (rss, acc) in enumerate(zip(rss_values, acc_values))]
            for side, rss_values, acc_values in (("parent", parent_rss, parent_acc),
                                                 ("change", change_rss, change_acc))}
    return {
        "layout": bench_pairs.LAYOUT, "parent": parent, "change": "def5678",
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0",
        "environment": {},
        "workloads": {"pipeline-480": {
            "seeds": [7, 8, 9], "first": ["parent", "change", "parent"], "runs": runs,
            "metrics": bench_pairs.summarize(runs, {"peak_rss_mb": "lower",
                                                    "accuracy": "higher"}),
            "no_failures": True, "digests_equal": True,
        }},
    }


def test_summary_prints_one_line_per_file_workload_and_metric(bench_pairs, tmp_path, capsys):
    first, second, third, old = (tmp_path / name for name in
                                 ("BENCH_1.json", "BENCH_2.json", "BENCH_3.json", "old.json"))
    # quartiles are perfbench/stats.py's (exclusive method), of each side and
    # of the per-pair ratios change / parent; the change wins accuracy, a
    # higher-is-better metric, in two pairs and ties the third.
    # A gain is shown only on BENCH_2's peak_rss_mb: every pair won, by more
    # than the parent's spread; BENCH_3's change wins every pair by less
    first.write_text(json.dumps(_record(bench_pairs, "abc1234", [90, 91, 92], [79, 80, 93],
                                        [0.8, 0.8, 0.9], [0.9, 0.85, 0.9])))
    second.write_text(json.dumps(_record(bench_pairs, "def5678", [90, 91, 92], [80, 81, 82])))
    third.write_text(json.dumps(_record(bench_pairs, "fed8765", [80, 90, 100], [79, 89, 99])))
    old.write_text(json.dumps({"summary": {}}))
    assert bench_pairs.main(["--summary", str(first), str(second), str(third), str(old)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "BENCH_1.json abc1234 pipeline-480 peak_rss_mb (lower): parent 91 [90, 92] "
        "change 80 [79, 93] pair ratio 0.8791 [0.8778, 1.011], won 2/3, no gain shown; failures none, digests equal",
        "BENCH_1.json abc1234 pipeline-480 accuracy (higher): parent 0.8 [0.8, 0.9] "
        "change 0.9 [0.85, 0.9] pair ratio 1.062 [1, 1.125], won 2/3, no gain shown; failures none, digests equal",
        "BENCH_2.json def5678 pipeline-480 peak_rss_mb (lower): parent 91 [90, 92] "
        "change 81 [80, 82] pair ratio 0.8901 [0.8889, 0.8913], won 3/3, gain shown; failures none, digests equal",
        "BENCH_2.json def5678 pipeline-480 accuracy (higher): parent 1 [1, 1] "
        "change 1 [1, 1] pair ratio 1 [1, 1], won 0/3, no gain shown; failures none, digests equal",
        "BENCH_3.json fed8765 pipeline-480 peak_rss_mb (lower): parent 90 [80, 100] "
        "change 89 [79, 99] pair ratio 0.9889 [0.9875, 0.99], won 3/3, no gain shown; failures none, digests equal",
        "BENCH_3.json fed8765 pipeline-480 accuracy (higher): parent 1 [1, 1] "
        "change 1 [1, 1] pair ratio 1 [1, 1], won 0/3, no gain shown; failures none, digests equal",
        f"{old}: not a bench_pairs/1 file; skipped",
    ]


def test_summary_into_a_closed_pipe_exits_quietly(bench_pairs, tmp_path):
    # the pipe's reader is gone before the first line is written, as with
    # ``| head`` once it has read its lines: no traceback, and exit 0
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps(_record(bench_pairs, "abc1234", [90, 91, 92], [79, 80, 93])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, str(SCRIPT), "--summary", str(path)],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_a_ratio_over_a_parent_value_of_zero_is_not_printed(bench_pairs):
    runs = {"parent": [{"metrics": {"x": 0.0}}, {"metrics": {"x": 2.0}}],
            "change": [{"metrics": {"x": 1.0}}, {"metrics": {"x": 1.0}}]}
    assert bench_pairs.pair_ratios(runs, "x") == "pair ratio n/a"


def test_only_an_edit_to_what_a_run_reads_marks_the_tree_edited(bench_pairs, tmp_path,
                                                               monkeypatch):
    # a clone-like tree with a source file, the harness, BENCHMARK.json and a
    # note; editing or adding the note is not an edit to what a run measures
    for name in ("src/divrec/a.py", "perfbench/run.py", "BENCHMARK.json", "ROADMAP.md"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("0\n")
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "seed"]):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert not bench_pairs.run_paths_edited()
    (tmp_path / "ROADMAP.md").write_text("1\n")
    (tmp_path / "NOTES.md").write_text("new\n")
    assert not bench_pairs.run_paths_edited()
    for name in ("src/divrec/a.py", "perfbench/run.py", "BENCHMARK.json", "src/divrec/b.py"):
        path = tmp_path / name
        before = path.read_text() if path.exists() else None
        path.write_text("1\n")
        assert bench_pairs.run_paths_edited(), name
        if before is None:
            path.unlink()
        else:
            path.write_text(before)
    assert not bench_pairs.run_paths_edited()


@pytest.mark.parametrize("failing", ["parent", "change"])
def test_a_failed_run_names_its_workload_seed_and_side(bench_pairs, tmp_path, monkeypatch,
                                                       failing):
    # a checkout whose perfbench/run.py prints a minimal result, or exits 1:
    # the committed one is the parent's (git archive), the edited one the change's
    ok = ("print('digests: {}')\nprint('environment: {}')\n"
          "print('{\"metrics\": {}, \"attempted\": 1, \"failed\": 0}')\n")
    fail = "import sys\nsys.exit('boom')\n"
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"workloads": [{"name": "w1"}], "end_to_end": []}))
    run_py = tmp_path / "perfbench" / "run.py"
    run_py.write_text(fail if failing == "parent" else ok)
    for args in (["init", "-q"], ["add", "-A"],
                 ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "seed"]):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)
    run_py.write_text(ok if failing == "parent" else fail)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    args = bench_pairs.argparse.Namespace(parent="HEAD", pairs=2, seconds=1.0, first_seed=7,
                                          workload=None)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.run_pairs(args)
    message = str(excinfo.value.code)
    assert message.startswith(f"w1 seed 7 {failing}: run.py in "), message
    assert message.endswith(" exited 1:\nboom\n"), message
