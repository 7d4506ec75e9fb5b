"""Every ``tools/diff_reports.py`` answer against its frozen digest.

``tests/golden/answers.json`` holds, per request label, the exit code and
a sha256 prefix of the output, written by ``tools/freeze_answers.py``.  The
requests run in a subprocess with ``PYTHONHASHSEED=0``, as ``diff_reports``
runs them, so this process's state and hash seed do not enter the answers.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_diff_reports_answers_match_the_frozen_digests():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "freeze_answers.py"), "--check"],
        capture_output=True, text=True, env=env, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1].endswith(" requests, 0 moved")
