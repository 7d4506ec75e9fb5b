"""Freeze every ``tools/diff_reports.py`` answer in tests/golden/answers.json.

``diff_reports`` compares two checkouts request by request.  This tool
runs the same requests on this tree alone (``diff_reports.run_trees``, so
in a subprocess with ``PYTHONHASHSEED=0``) and keeps, per request label,
the exit code and a sha256 prefix of the output: one line per request,
about 200 KB where the outputs themselves are megabytes.  Like
``cli_reports.json`` it pins the program's own answers, it is not an
oracle cross-check.  Refreeze it only when an answer is meant to change,
and use ``diff_reports`` against the parent checkout to read what changed.

Run from the repository root:

    python3 tools/freeze_answers.py           # write the file
    python3 tools/freeze_answers.py --check   # list the labels that moved

``--check`` prints each label whose exit code or digest differs from the
file (or that is missing on either side) and exits 1 if any does.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

sys.dont_write_bytecode = True

import diff_reports  # noqa: E402  (the directory of this script)

OUT = diff_reports.ROOT / "tests" / "golden" / "answers.json"
DIGEST_CHARS = 16


def answers():
    """label -> [exit code, sha256 prefix of the output] on this tree."""
    with tempfile.TemporaryDirectory() as folder:
        (out,) = diff_reports.run_trees((diff_reports.ROOT,), folder)
    return {
        label: [code, hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]]
        for label, (code, text) in out.items()
    }


def dumps(digests):
    """A JSON object with one request per line, in label order."""
    lines = [f"{json.dumps(label)}: {json.dumps(digests[label])}"
             for label in sorted(digests)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def moved(frozen, digests):
    """Labels whose entry differs between the two maps, or is in one only."""
    return sorted(label for label in frozen.keys() | digests.keys()
                  if frozen.get(label) != digests.get(label))


def main(argv):
    if argv[1:] not in ([], ["--check"]):
        print("usage: python3 tools/freeze_answers.py [--check]")
        return 2
    digests = answers()
    if not argv[1:]:
        OUT.write_text(dumps(digests), encoding="utf-8")
        print(f"wrote {OUT} ({len(digests)} requests)")
        return 0
    frozen = json.loads(OUT.read_text(encoding="utf-8"))
    labels = moved(frozen, digests)
    for label in labels:
        print(f"moved: {label}: {frozen.get(label)} -> {digests.get(label)}")
    print(f"{len(frozen.keys() | digests.keys())} requests, "
          f"{len(labels)} moved")
    return 1 if labels else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
