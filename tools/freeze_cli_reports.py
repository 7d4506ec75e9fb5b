"""Record CLI reports and demo output and write tests/golden/cli_reports.json.

This file pins the symbolic layer's output: the stdout and exit code of a
fixed list of ``fpquiver`` invocations on the bundled fixtures, and the
stdout of each demo script.  It is not an oracle cross-check like
``derived.json``; the values come from the symbolic layer itself, so a test
that reads them only shows that a change kept every report byte for byte.
Refreeze it only when a report is meant to change.

Run from the repository root:

    PYTHONPATH=src python3 tools/freeze_cli_reports.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

from fpquiver import cli, engine_for, parse

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "golden" / "cli_reports.json"
DEMOS = ("classify_walkthrough.py", "injective_limits.py")

# ``broken`` and ``cycle`` stop at parsing or at the interval finiteness
# check, so only the whole-file commands are recorded for them
REJECTED = ("broken", "cycle")
# fixture -> (a valid vertex id, a second id for ``query paths``)
FIXTURES = {
    "ex1": ("r:a:0", "r:a:3"),
    "ex2": ("r:a:0", "r:a:3"),
    "ex3": ("v:v0", "r:b:2"),
    "ex4": ("r:a:0", "r:b:5"),
    "ex5": ("r:a:0", "r:b:3"),
}
BAD_IDS = ("r:zzz:0", "bogus", "r:a:x")
UNKNOWN_CLASS = "(zzz,+)"


def class_ids(path):
    """Class ids the engine lists for a fixture."""
    q = parse((ROOT / path).read_text(encoding="utf-8"))
    classes, _ = engine_for(q).tail_classes()
    return [c.class_id() for c in classes]


def invocations():
    """Every argv the golden file pins, fixture paths relative to ROOT."""
    out = []
    for name in REJECTED + tuple(FIXTURES):
        path = f"tests/fixtures/{name}.quiver"
        out.append(["validate", path])
        out.append(["classify", path])
        out.append(["oracle-compare", path, "--seed", "3"])
    for name, (vid, other) in FIXTURES.items():
        path = f"tests/fixtures/{name}.quiver"
        for kind in ("pred", "succ", "out", "in"):
            for text in (vid,) + BAD_IDS:
                out.append(["query", path, kind, text])
        out.append(["query", path, "paths", vid, other])
        classes = class_ids(path)
        for cid in classes + [UNKNOWN_CLASS]:
            out.append(["query", path, "supp", cid])
            out.append(["query", path, "boundary", cid])
        for kind in ("P", "I"):
            out.append(["rep", path, kind, vid, "--dump"])
            out.append(["rep", path, kind, vid, "--dot", "--window", "3"])
        for cid in classes:
            out.append(["rep", path, "Y", cid, "--window", "5", "--dump"])
    return out


def run_cli(argv):
    """(exit code, stdout) of one in-process ``cli.main`` call."""
    argv = [str(ROOT / a) if a.startswith("tests/fixtures/") else a
            for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_demo(name):
    """(exit code, stdout) of one demo script in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=False)
    return proc.returncode, proc.stdout


def main():
    reports = []
    for argv in invocations():
        code, stdout = run_cli(argv)
        reports.append({"argv": argv, "exit": code, "stdout": stdout})
    demos = {}
    for name in DEMOS:
        code, stdout = run_demo(name)
        if code != 0:
            raise SystemExit(f"demo {name} exited {code}")
        demos[name] = stdout
    golden = {"reports": reports, "demos": demos}
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(reports)} reports, {len(demos)} demos)")


if __name__ == "__main__":
    main()
