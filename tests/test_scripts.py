"""The scripts under ``scripts/`` read the package's result types directly,
so a renamed attribute breaks them without failing any other test."""

import hashlib
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


# SHA-256 of the stdout of ``reproduce_all.py --trials 2 --seeds 1`` without
# its final timing line, as the script wrote it before theorem rows and the
# rank-3 pair shared one row type.
REPRODUCE_ALL_DIGEST = "ac37518930ebd4fb953541adff20b5b525190818485655c40afc4e1924f28c10"


def test_reproduce_all_runs_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_all.py"), "--trials", "2", "--seeds", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    body, timing = proc.stdout.rsplit("all done in ", 1)
    assert timing.endswith("s\n")
    assert hashlib.sha256(body.encode()).hexdigest() == REPRODUCE_ALL_DIGEST


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
