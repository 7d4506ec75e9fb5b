"""CLI reports and demo output, byte for byte against the frozen golden file.

``tests/golden/cli_reports.json`` is written by
``tools/freeze_cli_reports.py`` from the symbolic layer itself; it pins
output, it is not an oracle cross-check.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from fpquiver import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads(
    (ROOT / "tests" / "golden" / "cli_reports.json").read_text(encoding="utf-8"))


def test_cli_reports_match_golden(capsys):
    for entry in GOLDEN["reports"]:
        argv = [str(ROOT / a) if a.startswith("tests/fixtures/") else a
                for a in entry["argv"]]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert (code, out) == (entry["exit"], entry["stdout"]), entry["argv"]


@pytest.mark.parametrize("name", sorted(GOLDEN["demos"]))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN["demos"][name]
