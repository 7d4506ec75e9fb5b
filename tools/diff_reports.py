"""Compare this tree's benchmark outputs with those of another checkout.

Every seed-1 and seed-2 ``catalog-cold`` request runs through
``fpquiver.cli.main`` in-process, with the engine cache cleared before each
request, and so do ``validate`` and ``classify`` on each of the 2,000
corpus fragments the benchmark draws from (``gen.fragment``) and the
scaling shapes the benchmark stops short of:
``classify`` on far constants C=300, C=600 and C=1000 (the window, and
with it the one-pass pointwise check, grows with C) and on the R=4 and R=5
``int`` ladders, ``validate`` on the R=5 ladder, ``validate`` on the R=5
ladder with a fan into its first ray and a fan out of its last, which is
not interval finite through a pair of distinct vertices (exit 3), and
``validate`` on the R=6 shift-1 ``nat`` ladder and the R=5 shift-2 ``int``
ladder, two acyclic inputs with a large (ray, gain) space for the cycle
search, and on dense templates (N ``int`` rays with the N(N-1) families
``rK[i] -> rJ[i+1] for all i``, K != J, one strongly connected component
with far more cycles than rays): ``validate`` at N=9 and ``classify`` at N=6
and N=8, which report infinitely many tail classes and are where the pump
search costs most.  Three small descriptions catch
what the benchmark's requests cannot: ``rep --dump`` of P and I on ex3 and
on a shortcut quiver, whose paths between two vertices differ in length
(so the basis order shows), and ``query succ`` on a stride-3 description
whose descending tail has a residue set that is not its own mirror.  Their
argvs also spell ``--window=N`` and put an option before positionals, so
that the trees' command-line readers are compared too.  A mixed-stride
description (strides 2 and 3 on two ``int`` rays, a family between them
from index 250 and a core arrow to index -301) runs ``classify``,
``query pred r:b:400`` and ``query boundary (b,+,1)``, whose set algebra
meets lcm periods and a pointwise band hundreds of indices wide.
``query out`` and ``query in`` at ``r:b:100000`` on ex5 ask for the
one-step sets of a far vertex, and ``query out v:v0`` on ex3 for those of
a fan source.  Two descriptions hold the statement kinds no fixture has:
a family from a ray into a fixed ray vertex, and an unguarded fan from a
core vertex; each runs ``classify``, ``query out`` at a vertex that fires
it and ``query boundary`` of a class whose support holds its source.
A quiver whose pumps need a guarded family (every vertex of ``a`` is one,
through ``c[i] -> a[i+5] for i >= 0``, while the unguarded component of
``a`` has no cycle) runs ``validate``, ``classify`` (exit 1 on the known
"unsupported shape" defect) and ``query succ r:a:-50``.
One request runs ``classify`` on the five fixtures in order and then in
reverse, without clearing the engine cache, so that the trees' answers are
compared while the current description switches.  One request per fixture,
per hand-made statement-kind description and for that quiver prints
library answers that no CLI command gives: ``has_right_infinite_path``
and ``has_left_infinite_path`` at each core vertex and at ray indices 0,
5 and (on ``int`` rays) -5, ``is_interval_finite``, and
``classes_equivalent`` over every ordered pair of tail classes.  Every
distinct seed-1 and seed-2 ``reps`` build is written out with ``dump_rep``,
followed by the ``dump_rep`` of its socle and radical as representations
and of its quotients by each, its socle and radical dimensions and boundary
flags, the basis labels of each support vertex, the dimensions of the
subrepresentation generated by the first basis vector at the build's
vertex, the hom dimension and realize/extract round trip there, and, for a
Y build, the ``eventual_tail_bijectivity`` of its class or the exception it
raises.  Each tree runs in its own subprocess with ``PYTHONPATH=<tree>/src``
and the same ``PYTHONHASHSEED``, so that text which iterates a set of
strings comes out in the same order on both sides and a difference means the
trees differ.
The inputs come from this tree's ``perfbench/gen.py`` and
``checks.build_rep``, imported without writing bytecode, so both trees see
the same requests.

Run from the repository root, with a checkout of the commit to compare
against (``git worktree add``, or ``git archive`` unpacked elsewhere):

    python3 tools/diff_reports.py PARENT_DIR

Prints each request whose stdout or exit code differs and exits 1 if any
does, 0 otherwise.  Each tree's run takes about 10-14 s on two cores, and
the two trees run at once.  ``tools/freeze_answers.py`` keeps a digest of
this tree's answers in ``tests/golden/answers.json``.
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


# two paths of different lengths from a[0] to the tail of b, with the
# shorter one last in label order (tests/test_path_basis.py)
SHORTCUT = """quiver shortcut
vertex c
ray a domain nat
ray b domain int
family alpha: a[i] -> a[i+1] for i >= 0
family beta: b[i] -> b[i+1] for all i
arrow f: a[0] -> c
arrow g: c -> b[0]
arrow gamma0: a[0] -> b[0]
"""

# a descending stride-3 tail with residue set {1} (tests/test_regions.py)
STRIDE3 = (
    "quiver s3\nray a domain int\nray b domain int\n"
    "family down3: a[i+3] -> a[i] for all i\n"
    "family up3: b[i] -> b[i+3] for all i\n"
    "arrow x: b[1] -> a[1]\n"
)

# strides 2 and 3 (lcm 6) and thresholds hundreds apart, so the set algebra
# meets lcm periods and a wide band of points between the tails
MIXED = (
    "quiver mixed\nray a domain int\nray b domain int\nvertex c\n"
    "family p: a[i] -> a[i+2] for i >= -7\n"
    "family q: b[i] -> b[i+3] for i >= 4\n"
    "family s: a[i] -> b[i+1] for i >= 250\n"
    "arrow g: c -> a[-301]\n"
)


# the statement kinds no fixture has: a family from a ray into a fixed ray
# vertex (and one into a core vertex), and an unguarded fan from a core
# vertex (tests/test_regions.py)
INTO_FIXED = (
    "quiver intofixed\nvertex c\nray a domain nat\nray b domain int\n"
    "family down: a[i+1] -> a[i] for i >= 0\n"
    "family g: a[i] -> b[3] for i >= 2\n"
    "family up: b[i] -> b[i+1] for all i\n"
    "family h: a[i] -> c for i >= 5\n"
)
UNGUARDED_FAN = (
    "quiver unguardedfan\nvertex c0\nray r domain int\nray d domain int\n"
    "family fan: c0 -> r[i] for all i\n"
    "family s: r[i] -> d[i+1] for all i\n"
    "family t: d[i] -> d[i+1] for i >= 0\n"
)


# every vertex of a is a pump through the guarded family h, although the
# unguarded component of a has no cycle (tests/test_regions.py)
UP = (
    "quiver up\nray a domain int\nray c domain int\n"
    "family f: a[i] -> c[i] for all i\n"
    "family g: c[i] -> c[i+1] for all i\n"
    "family h: c[i] -> a[i+5] for i >= 0\n"
)


def dense_text(rays, name):
    """``rays`` int rays with a family from each ray to every other, one
    index up."""
    lines = [f"quiver {name}"] + [f"ray r{k} domain int" for k in range(rays)]
    lines += [f"family f{k}_{j}: r{k}[i] -> r{j}[i+1] for all i"
              for k in range(rays) for j in range(rays) if k != j]
    return "\n".join(lines) + "\n"


# (name, subcommand and the words after the file, description text) of each
# scaling shape, run once per tree
SCALING = (
    ("far300", "classify", gen.far_text(random.Random(0), 300, "far300")[0]),
    ("far600", "classify", gen.far_text(random.Random(0), 600, "far600")[0]),
    ("far1000", "classify",
     gen.far_text(random.Random(0), 1000, "far1000")[0]),
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
    ("dense9", "validate", dense_text(9, "dense9")),
    ("dense6", "classify", dense_text(6, "dense6")),
    ("dense8", "classify", dense_text(8, "dense8")),
    ("ex3", "rep P v:v0 --window 4 --dump", gen.FIXTURES["ex3"]),
    ("ex3", "rep I r:b:4 --window=4 --dump", gen.FIXTURES["ex3"]),
    ("shortcut", "rep --dump P r:a:0 --window 3", SHORTCUT),
    ("shortcut", "rep I r:b:3 --window=3 --dump", SHORTCUT),
    ("stride3", "query succ r:b:1", STRIDE3),
    ("mixed", "classify", MIXED),
    ("mixed", "query pred r:b:400", MIXED),
    ("mixed", "query boundary (b,+,1)", MIXED),
    ("ex5", "query out r:b:100000", gen.FIXTURES["ex5"]),
    ("ex5", "query in r:b:100000", gen.FIXTURES["ex5"]),
    ("ex3", "query out v:v0", gen.FIXTURES["ex3"]),
    ("intofixed", "classify", INTO_FIXED),
    ("intofixed", "query out r:a:7", INTO_FIXED),
    ("intofixed", "query boundary (b,+)", INTO_FIXED),
    ("unguardedfan", "classify", UNGUARDED_FAN),
    ("unguardedfan", "query out v:c0", UNGUARDED_FAN),
    ("unguardedfan", "query boundary (d,+)", UNGUARDED_FAN),
    ("up", "validate", UP),
    ("up", "classify", UP),
    ("up", "query succ r:a:-50", UP),
)
SWITCHING = "switching classify ex1..ex5 ex5..ex1"  # its request's label
# descriptions of the library-answers requests
LIBRARY = (*gen.FIXTURES.items(), ("intofixed", INTO_FIXED),
           ("unguardedfan", UNGUARDED_FAN), ("up", UP))
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
    for j in range(gen.CORPUS_SIZE):
        path = pathlib.Path(folder) / f"corpus-frag{j}.quiver"
        path.write_text(gen.fragment(j)[0], encoding="utf-8")
        for command in ("validate", "classify"):
            catalog.append((f"corpus {command} frag{j}", [command, str(path)]))
    for name, command, text in SCALING:
        path = pathlib.Path(folder) / f"scaling-{name}.quiver"
        path.write_text(text, encoding="utf-8")
        tail = command.split()
        catalog.append((" ".join(["scaling", tail[0], name] + tail[1:]),
                        [tail[0], str(path)] + tail[1:]))
    switching = []
    for name, text in gen.FIXTURES.items():
        path = pathlib.Path(folder) / f"switching-{name}.quiver"
        path.write_text(text, encoding="utf-8")
        switching.append(["classify", str(path)])
    switching += switching[::-1]
    return {"catalog": catalog, "reps": reps, "switching": switching,
            "library": LIBRARY}


def library_answers(fp, q):
    """Answers no CLI command prints: infinite paths both ways at a few
    vertices, interval finiteness, and equivalence of tail-class pairs."""
    lines = [f"interval finite: {fp.is_interval_finite(q)}"]
    probes = [fp.core(name) for name in q.core_vertices]
    for name, dom in q.rays:
        probes += [fp.ray(name, i) for i in (0, 5, -5)
                   if i >= 0 or dom == "int"]
    for v in probes:
        lines.append(f"{v.canonical_id()}: right "
                     f"{fp.has_right_infinite_path(q, v)}, left "
                     f"{fp.has_left_infinite_path(q, v)}")
    classes = fp.enumerate_tail_classes(q)[0]
    for c1 in classes:
        same = [c2.class_id() for c2 in classes
                if fp.classes_equivalent(q, c1, c2)]
        lines.append(f"{c1.class_id()} ~ {' '.join(same)}")
    return "\n".join(lines) + "\n"


def hom_round_trip(fp, m, build, at):
    """Hom dimension and realize/extract round trip at ``at``, in the
    direction the benchmark's ``hom`` requests take (Hom(P, I_at) for a
    projective, Hom(P_at, M) otherwise)."""
    make = fp.hom_to_injective if build == "P" else fp.hom_from_projective
    h = make(m, at)
    x = [k % 5 + 1 for k in range(h.dimension)]
    return {"dim": h.dimension, "roundtrip": h.extract(h.realize(x)) == x}


def tail_bijectivity(fp, q, m):
    """``eventual_tail_bijectivity`` of a Y build's class (the first
    ray's, as ``checks.build_rep`` picks it), or the exception it raises."""
    classes, _ = fp.enumerate_tail_classes(q)
    cls = next(c for c in classes if c.ray == q.rays[0][0])
    try:
        return repr(fp.eventual_tail_bijectivity(m, cls))
    except Exception as exc:  # a refusal is an output to compare
        return f"{type(exc).__name__}: {exc}"


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
    codes, buf = [], io.StringIO()
    with contextlib.redirect_stdout(buf):
        for argv in spec["switching"]:
            codes.append(fp.cli.main(argv))
    out[SWITCHING] = [codes, buf.getvalue()]
    for name, text in spec["library"]:
        regions._ENGINES.clear()
        try:
            answer = [0, library_answers(fp, fp.parse(text))]
        except Exception as exc:  # a failed answer is an output to compare
            answer = [1, f"{type(exc).__name__}: {exc}"]
        out[f"library {name}"] = answer
    for label, text, build, where, n in spec["reps"]:
        regions._ENGINES.clear()
        q = fp.parse(text)
        try:
            m, at = checks.build_rep(
                fp, q, build, tuple(where) if where else None, n)
            soc, rad = fp.socle(m), fp.radical(m)
            facts = {"socle": checks.ids(soc.dims_dict()),
                     "radical": checks.ids(rad.dims_dict()),
                     "socle boundary": sorted(
                         v.canonical_id() for v in soc.boundary),
                     "radical boundary": sorted(
                         v.canonical_id() for v in rad.boundary),
                     "labels": {v.canonical_id(): m.labels(v)
                                for v in m.support()},
                     "hom": hom_round_trip(fp, m, build, at)}
            dumps = [fp.dump_rep(m)]
            for name, sub in (("socle", soc), ("radical", rad)):
                dumps += [f"{name}\n", fp.dump_rep(sub.as_rep()),
                          f"quotient by the {name}\n",
                          fp.dump_rep(fp.quotient(m, sub))]
            first = [int(j == 0) for j in range(m.dim(at))]
            facts["generated by the first basis vector"] = checks.ids(
                fp.subrep_generated(m, {at: [first]}).dims_dict())
            if build == "Y":
                facts["tail bijectivity"] = tail_bijectivity(fp, q, m)
            dumps.append(json.dumps(facts, indent=0, sort_keys=True))
            out[label] = [0, "".join(dumps)]
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
