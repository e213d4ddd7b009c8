"""The scripts under ``scripts/`` read the package's result types directly,
so a renamed attribute breaks them without failing any other test."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_all_runs_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_all.py"), "--trials", "2", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all done" in proc.stdout


def test_reproduce_all_certificates_leave_no_open_file(tmp_path):
    """Development mode reports every file object left for the collector."""
    proc = subprocess.run(
        [sys.executable, "-X", "dev", str(SCRIPTS / "reproduce_all.py"), "--trials", "2",
         "--seeds", "1", "--certificates", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    assert len(list(tmp_path.glob("*.json"))) == 27
