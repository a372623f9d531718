import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_run_demo_writes_its_reports(tmp_path):
    # the README's first command, on 80 segments (10 per class) for 2 epochs
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_demo.py"), "--out", str(tmp_path),
         "--segments", "80", "--epochs", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert '"accuracy"' in (tmp_path / "report.json").read_text()
    lines = (tmp_path / "confusion.csv").read_text().splitlines()
    # the validation split holds one of each class's ten segments
    assert len(lines) == 9 and sum(int(v) for row in lines[1:] for v in row.split(",")) == 8
