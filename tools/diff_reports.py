"""Compare this tree's benchmark outputs with those of another checkout.

Every seed-1 and seed-2 ``catalog-cold`` request runs through
``fpquiver.cli.main`` in-process, with the engine cache cleared before each
request, and so do the scaling shapes the benchmark stops short of:
``classify`` on far constants C=300 and C=600 (where the cost of the
pointwise check grows as C squared) and on the R=4 and R=5 ``int`` ladders,
``validate`` on the R=5 ladder, ``validate`` on the R=5 ladder with a
fan into its first ray and a fan out of its last, which is not interval
finite through a pair of distinct vertices (exit 3), and ``validate`` on
the R=6 shift-1 ``nat`` ladder and the R=5 shift-2 ``int`` ladder, two
acyclic inputs with a large (ray, gain) space for the cycle search.  Every
distinct seed-1 and seed-2 ``reps`` build is written out with ``dump_rep``
followed by its socle and radical dimensions, the basis labels of each
support vertex, and the hom dimension and realize/extract round trip at the
build's vertex.  Each tree runs
in its own subprocess with ``PYTHONPATH=<tree>/src`` and the same
``PYTHONHASHSEED``, so that text which iterates a set of strings comes out
in the same order on both sides and a difference means the trees differ.
The inputs come from this tree's ``perfbench/gen.py`` and
``checks.build_rep``, imported without writing bytecode, so both trees see
the same requests.

Run from the repository root, with a checkout of the commit to compare
against (``git worktree add``, or ``git archive`` unpacked elsewhere):

    python3 tools/diff_reports.py PARENT_DIR

Prints each request whose stdout or exit code differs and exits 1 if any
does, 0 otherwise.  A run takes up to 90 seconds on two cores.
"""

import contextlib
import difflib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import gen  # noqa: E402

SEEDS = (1, 2)
HASH_SEED = "0"  # PYTHONHASHSEED of both tree subprocesses


def fan_ladder_text(rays, name):
    """An ``int`` ladder with a fan from core s into its first ray and a
    fan from its last ray into core t, so Q(s, t) is infinite."""
    text, ids = gen.ladder_text(random.Random(0), rays, 1, "int", name)
    head, body = text.split("\n", 1)
    return (f"{head}\nvertex s\nvertex t\n{body}"
            f"family fs: s -> {ids[0]}[i] for i >= 0\n"
            f"family ft: {ids[-1]}[i] -> t for i >= 0\n")


# (name, subcommand, description text) of each scaling shape, run once per
# tree
SCALING = (
    ("far300", "classify", gen.far_text(random.Random(0), 300, "far300")[0]),
    ("far600", "classify", gen.far_text(random.Random(0), 600, "far600")[0]),
    ("ladder4", "classify",
     gen.ladder_text(random.Random(0), 4, 1, "int", "ladder4")[0]),
    ("ladder5", "classify",
     gen.ladder_text(random.Random(0), 5, 1, "int", "ladder5")[0]),
    ("ladder5", "validate",
     gen.ladder_text(random.Random(0), 5, 1, "int", "ladder5")[0]),
    ("fanladder5", "validate", fan_ladder_text(5, "fanladder5")),
    ("ladder6nat", "validate",
     gen.ladder_text(random.Random(0), 6, 1, "nat", "ladder6nat")[0]),
    ("ladder5s2", "validate",
     gen.ladder_text(random.Random(0), 5, 2, "int", "ladder5s2")[0]),
)
CATALOG_BLOCKS = 2  # perfbench/run.py: every distinct request of a seed
DIFF_LINES = 20


def requests(folder):
    """The request list: catalog argvs (description files written under
    ``folder``) and the distinct reps builds, each with a unique label."""
    catalog, reps, builds = [], [], set()
    for seed in SEEDS:
        for block in gen.catalog_blocks(seed, CATALOG_BLOCKS):
            for name, text, tail in block:
                path = pathlib.Path(folder) / f"catalog-{seed}-{name}.quiver"
                path.write_text(text, encoding="utf-8")
                catalog.append(
                    (f"catalog-cold {name}", [tail[0], str(path)] + tail[1:]))
        for name, text, build, where, n, _op in gen.reps_pass(seed):
            if (text, build, where, n) not in builds:
                builds.add((text, build, where, n))
                reps.append((f"reps {name}", text, build, where, n))
    for name, command, text in SCALING:
        path = pathlib.Path(folder) / f"scaling-{name}.quiver"
        path.write_text(text, encoding="utf-8")
        catalog.append((f"scaling {command} {name}", [command, str(path)]))
    return {"catalog": catalog, "reps": reps}


def hom_round_trip(fp, m, build, at):
    """Hom dimension and realize/extract round trip at ``at``, in the
    direction the benchmark's ``hom`` requests take (Hom(P, I_at) for a
    projective, Hom(P_at, M) otherwise)."""
    make = fp.hom_to_injective if build == "P" else fp.hom_from_projective
    h = make(m, at)
    x = [k % 5 + 1 for k in range(h.dimension)]
    return {"dim": h.dimension, "roundtrip": h.extract(h.realize(x)) == x}


def collect(tree, spec_path, out_path):
    """Child side: run every request on the fpquiver of ``tree``."""
    import fpquiver.cli  # noqa: F401  (the package does not import its CLI)
    from fpquiver import regions

    fp = sys.modules["fpquiver"]
    src = pathlib.Path(tree).resolve() / "src"
    if pathlib.Path(fp.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported {fp.__file__}, not the package in {src}")
    spec = json.loads(pathlib.Path(spec_path).read_text(encoding="utf-8"))
    out = {}
    for label, argv in spec["catalog"]:
        regions._ENGINES.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fp.cli.main(argv)
        out[label] = [code, buf.getvalue()]
    for label, text, build, where, n in spec["reps"]:
        regions._ENGINES.clear()
        q = fp.parse(text)
        try:
            m, at = checks.build_rep(
                fp, q, build, tuple(where) if where else None, n)
            facts = {"socle": checks.ids(fp.socle(m).dims_dict()),
                     "radical": checks.ids(fp.radical(m).dims_dict()),
                     "labels": {v.canonical_id(): m.labels(v)
                                for v in m.support()},
                     "hom": hom_round_trip(fp, m, build, at)}
            out[label] = [0, fp.dump_rep(m) + json.dumps(facts, indent=0,
                                                         sort_keys=True)]
        except Exception as exc:  # a failed build is an output to compare
            out[label] = [1, f"{type(exc).__name__}: {exc}"]
    pathlib.Path(out_path).write_text(json.dumps(out), encoding="utf-8")


def run_trees(trees, folder):
    """Outputs of every request on each tree, both trees run at once."""
    spec = pathlib.Path(folder) / "requests.json"
    spec.write_text(json.dumps(requests(folder)), encoding="utf-8")
    procs = []
    for k, tree in enumerate(trees):
        out = pathlib.Path(folder) / f"out-{k}.json"
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree) / "src"),
                   PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED=HASH_SEED)
        argv = [sys.executable, __file__, "--collect", str(tree), str(spec),
                str(out)]
        procs.append((subprocess.Popen(argv, env=env), out))
    results = []
    for proc, out in procs:
        if proc.wait() != 0:
            raise SystemExit(f"collecting outputs failed: {proc.args}")
        results.append(json.loads(out.read_text(encoding="utf-8")))
    return results


def main(argv):
    if len(argv) == 5 and argv[1] == "--collect":
        collect(*argv[2:])
        return 0
    if len(argv) != 2 or not (pathlib.Path(argv[1]) / "src").is_dir():
        print(__doc__.strip().splitlines()[0])
        print("usage: python3 tools/diff_reports.py PARENT_DIR")
        return 2
    with tempfile.TemporaryDirectory() as folder:
        parent, change = run_trees((argv[1], ROOT), folder)
    differ = 0
    for label in sorted(parent.keys() | change.keys()):
        old, new = parent.get(label), change.get(label)
        if old == new:
            continue
        differ += 1
        print(f"differs: {label}: exit {old and old[0]} -> {new and new[0]}")
        lines = difflib.unified_diff(
            (old[1] if old else "").splitlines(),
            (new[1] if new else "").splitlines(), "parent", "change",
            lineterm="")
        for line in list(lines)[:DIFF_LINES]:
            print("    " + line)
    print(f"{len(parent.keys() | change.keys())} requests, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
