"""Symbolic region queries: cycles, counts, neighborhoods, tail classes."""

import gc
import os
import pathlib
import random
import subprocess
import sys
import weakref
from collections import deque

import pytest

from conftest import FIXTURE_DIR, load_gen, load_quiver, window_targets
from fpquiver import cli, oracle, regions
from fpquiver.classify import _pointwise_ia, classify
from fpquiver.patterns import (
    Finite,
    IndexSet,
    Infinite,
    InternalConsistencyError,
    SupportDescription,
)
from fpquiver.qdl import (
    ArrowRef,
    Path,
    VertexRef,
    core,
    instantiate_window,
    parse,
    ray,
)
from fpquiver.regions import (
    NotIntervalFinite,
    PreconditionError,
    RegionEngine,
    StageResult,
    TailClass,
    engine_for,
)


def test_corpus_is_acyclic(corpus):
    for q in corpus.values():
        assert regions.oriented_cycle_witness(q) is None


def test_anchored_cycle_witness():
    q = parse("quiver cyc\nvertex u\nvertex w\narrow f: u -> w\narrow g: w -> u\n")
    wit = regions.oriented_cycle_witness(q)
    assert wit is not None
    assert wit.source == wit.target
    assert wit.is_composable()


def test_zero_gain_cycle_witness():
    q = parse(
        "quiver zg\nray a domain int\n"
        "family f: a[i] -> a[i+1] for all i\n"
        "family g: a[i] -> a[i-1] for all i\n"
    )
    wit = regions.oriented_cycle_witness(q)
    assert wit is not None and wit.source == wit.target


def test_path_counts(ex1, ex2, ex3):
    assert regions.path_count(ex1, ray("a", 0), ray("a", 3)) == Finite(1)
    assert regions.path_count(ex2, ray("a", 5), ray("a", 1)) == Finite(0)
    assert regions.path_count(ex3, core("v0"), ray("b", 2)) == Finite(3)
    assert regions.path_count(ex2, ray("a", 0), ray("a", 5)) == Finite(1)


def test_predecessors_finite(ex1, ex4):
    pd = regions.predecessors(ex4, ray("b", 2))
    assert pd.cardinality(ex4) == Finite(6)
    assert sorted(v.canonical_id() for v in pd.vertices(ex4)) == sorted(
        ["r:a:0", "r:a:1", "r:a:2", "r:b:0", "r:b:1", "r:b:2"])
    assert regions.predecessors(ex1, ray("a", 0)).cardinality(ex1) == Finite(1)


def test_predecessors_infinite(ex2):
    pd = regions.predecessors(ex2, ray("a", 0))
    assert isinstance(pd.cardinality(ex2), Infinite)
    assert pd.ray_part("a").display("int") == "i <= 0"


def test_successors(ex1, ex4, ex5):
    sc = regions.successors(ex1, ray("a", 0))
    assert isinstance(sc.cardinality(ex1), Infinite)
    assert sc.ray_part("a").display("nat") == "all"
    sc = regions.successors(ex4, ray("b", 3))
    assert sc.ray_part("b").display("nat") == "all except {0, 1, 2}"
    assert sc.ray_part("a").is_empty
    assert isinstance(
        regions.successors(ex5, ray("b", 0)).cardinality(ex5), Infinite)


def test_neighbors(ex1, ex3, ex4):
    on = regions.out_neighbors(ex3, core("v0"))
    assert isinstance(on.cardinality(ex3), Infinite)
    on = regions.out_neighbors(ex4, ray("a", 1))
    assert sorted(v.canonical_id() for v in on.vertices(ex4)) == [
        "r:a:2", "r:b:1"]
    on = regions.out_neighbors(ex1, ray("a", 5))
    assert [v.canonical_id() for v in on.vertices(ex1)] == ["r:a:6"]


def test_in_neighbors(ex4):
    inn = regions.in_neighbors(ex4, ray("b", 0))
    assert [v.canonical_id() for v in inn.vertices(ex4)] == ["r:a:0"]


def test_corpus_interval_finite(corpus):
    for q in corpus.values():
        ok, pair, wit = engine_for(q).interval_finite_witness()
        assert ok, q.name


def test_is_interval_finite_is_a_bool(ex1):
    assert regions.is_interval_finite(ex1) is True
    assert regions.is_interval_finite(load_quiver("cycle")) is False
    # the first acyclic random draw that fails through a pair of vertices
    rng = random.Random(23)
    while True:
        q = oracle.random_description(rng)
        if regions.oriented_cycle_witness(q) is None:
            ok, pair, _ = engine_for(q).interval_finite_witness()
            if not ok:
                break
    assert pair[0] != pair[1]
    assert regions.is_interval_finite(q) is False


def test_not_interval_finite_fan_through():
    q = parse(
        "quiver nif2\nvertex s\nvertex t\nray a domain nat\n"
        "family f: s -> a[i] for i >= 0\n"
        "family g: a[i] -> t for i >= 0\n"
    )
    ok, pair, wit = engine_for(q).interval_finite_witness()
    assert not ok
    assert tuple(v.canonical_id() for v in pair) == ("v:s", "v:t")
    eng = engine_for(q)
    with pytest.raises(NotIntervalFinite):
        eng.ensure_interval_finite()


def test_infinite_paths(ex1, ex2, ex3, ex5):
    assert regions.has_right_infinite_path(ex1, ray("a", 0))
    assert not regions.has_left_infinite_path(ex1, ray("a", 0))
    assert regions.has_left_infinite_path(ex2, ray("a", 0))
    assert regions.has_right_infinite_path(ex5, ray("b", -5))
    assert regions.has_right_infinite_path(ex3, core("v0"))


def test_tail_class_enumeration(corpus):
    want = {
        "ex1": [("a", "+")],
        "ex2": [("a", "+")],
        "ex3": [("b", "+")],
        "ex4": [("a", "+"), ("b", "+")],
        "ex5": [("a", "+"), ("b", "+")],
    }
    for name, q in corpus.items():
        classes, reports = regions.enumerate_tail_classes(q)
        assert [(c.ray, c.direction) for c in classes] == want[name]
        assert reports == [] or reports == ()


def test_class_ids(ex5):
    classes, _ = regions.enumerate_tail_classes(ex5)
    assert [c.class_id() for c in classes] == ["(a,+)", "(b,+)"]


def test_class_supports(ex4, ex5):
    classes5 = {c.ray: c for c in regions.enumerate_tail_classes(ex5)[0]}
    sa = regions.class_support(ex5, classes5["a"])
    assert sa.ray_part("a").display("nat") == "all"
    assert sa.ray_part("b").is_empty
    sb = regions.class_support(ex5, classes5["b"])
    assert sb.ray_part("b").display("int") == "all"
    assert sorted(sb.ray_part("a").elements()) == [0, 1]

    classes4 = {c.ray: c for c in regions.enumerate_tail_classes(ex4)[0]}
    sb4 = regions.class_support(ex4, classes4["b"])
    assert sb4.ray_part("a").display("nat") == "all"
    assert sb4.ray_part("b").display("nat") == "all"
    sa4 = regions.class_support(ex4, classes4["a"])
    assert sa4.ray_part("a").display("nat") == "all"
    assert sa4.ray_part("b").is_empty


def test_stage_checks(ex1, ex3, ex4, ex5):
    eng1 = engine_for(ex1)
    cls1 = regions.enumerate_tail_classes(ex1)[0][0]
    supp1 = regions.class_support(ex1, cls1)
    top = eng1.top_finite_stage(supp1)
    assert top.ok
    assert [v.canonical_id() for v in top.detail] == ["r:a:0"]
    assert eng1.uniform_stage(cls1, supp1).ok
    bnd = eng1.boundary_stage(supp1)
    assert bnd.ok and bnd.detail.is_empty

    eng4 = engine_for(ex4)
    classes4 = {c.ray: c for c in regions.enumerate_tail_classes(ex4)[0]}
    sa4 = regions.class_support(ex4, classes4["a"])
    assert eng4.top_finite_stage(sa4).ok
    assert eng4.uniform_stage(classes4["a"], sa4).ok
    assert not eng4.boundary_stage(sa4).ok
    sb4 = regions.class_support(ex4, classes4["b"])
    assert eng4.top_finite_stage(sb4).ok
    uni = eng4.uniform_stage(classes4["b"], sb4)
    assert not uni.ok
    assert uni.witness[0].canonical_id() == "r:a:0"

    eng3 = engine_for(ex3)
    cls3 = regions.enumerate_tail_classes(ex3)[0][0]
    supp3 = regions.class_support(ex3, cls3)
    assert supp3.contains(core("v0"))
    top3 = eng3.top_finite_stage(supp3)
    assert top3.ok
    assert [v.canonical_id() for v in top3.detail] == ["v:v0"]
    assert not eng3.uniform_stage(cls3, supp3).ok

    eng5 = engine_for(ex5)
    classes5 = {c.ray: c for c in regions.enumerate_tail_classes(ex5)[0]}
    sa5 = regions.class_support(ex5, classes5["a"])
    assert eng5.top_finite_stage(sa5).ok
    assert eng5.uniform_stage(classes5["a"], sa5).ok
    bnd5 = eng5.boundary_stage(sa5)
    assert bnd5.ok
    assert sorted(v.canonical_id() for v in bnd5.detail.vertices(ex5)) == [
        "r:b:0", "r:b:1"]
    sb5 = regions.class_support(ex5, classes5["b"])
    assert not eng5.top_finite_stage(sb5).ok


def test_classification_sets(ex1, ex2, ex3, ex4, ex5):
    assert engine_for(ex1).ia_no_set().is_empty
    assert engine_for(ex2).ia_no_set().ray_part("a").display("int") == "all"
    # ex3 has no vertex with infinitely many predecessors: the opposite
    # quiver triggers nothing, and the no-set is what its fan reaches
    assert not any(engine_for(ex3).op()._trigger_bundle())
    no3 = engine_for(ex3).ia_no_set()
    assert no3.contains(core("v0"))
    assert no3.ray_part("b").display("nat") == "all"
    no5 = engine_for(ex5).ia_no_set()
    assert no5.ray_part("b").display("int") == "all"
    assert no5.ray_part("a").is_empty
    assert engine_for(ex4).ia_no_set().is_empty


def test_class_equivalence(ex4):
    eng = engine_for(ex4)
    c_a5 = TailClass(ray="a", direction="+", stride=1, base_index=0,
                     start=ray("a", 5), cycle=("alpha",))
    c_a9 = TailClass(ray="a", direction="+", stride=1, base_index=0,
                     start=ray("a", 9), cycle=("alpha",))
    c_b2 = TailClass(ray="b", direction="+", stride=1, base_index=0,
                     start=ray("b", 2), cycle=("beta",))
    assert eng.classes_equivalent(c_a5, c_a9)
    assert not eng.classes_equivalent(c_a5, c_b2)
    # on catalog classes the relation is equality: reflexive, symmetric,
    # and distinct classes are not equivalent
    rng = random.Random("equivalence")
    qs = [load_quiver(f"ex{k}") for k in range(1, 6)]
    qs += [oracle.random_description(rng, f"rnd{k}") for k in range(30)]
    for q in qs:
        e = RegionEngine(q)
        if e.cycle_witness() is not None:
            continue
        classes = e.tail_classes()[0]
        for c1 in classes:
            assert e.classes_equivalent(c1, c1), c1
            for c2 in classes:
                assert e.classes_equivalent(c1, c2) == (c1 == c2), (c1, c2)


def test_stabilization_index_positive(corpus):
    for q in corpus.values():
        assert regions.stabilization_index(q) >= 1


def test_window_cycle_search_needs_no_recursion(monkeypatch):
    # the back arrow closes a 1,501-arrow cycle: a depth-first search down
    # it is 1,500 calls deep, past the default recursion limit of 1,000
    def refuse(limit):
        raise AssertionError("library code changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    q = parse(
        "quiver longcycle\nray a domain nat\n"
        "family alpha: a[i] -> a[i+1] for i >= 0\n"
        "arrow back: a[1500] -> a[0]\n"
    )
    wit = regions.oriented_cycle_witness(q)
    assert wit is not None
    assert wit.source == wit.target == ray("a", 0)
    assert len(wit) == 1501 and wit.is_composable()


def test_engine_cache_is_bounded():
    for k in range(37):
        q = parse(f"quiver bounded{k}\nvertex v\n")
        engine_for(q)
        assert len(regions._ENGINES) == 1
    assert list(regions._ENGINES) == [q]
    regions._ENGINES.clear()
    assert not regions._ENGINES


def test_clearing_the_registry_frees_the_engine_pair(ex5):
    classify(ex5)
    eng = engine_for(ex5)
    refs = [weakref.ref(eng), weakref.ref(eng.op())]
    del eng
    gc.disable()
    try:
        regions._ENGINES.clear()
        # reference counting alone frees both, with the collector off
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_opposite_engine_is_owned(ex3, ex5):
    eng = engine_for(ex5)
    assert eng.op() is eng.op()
    assert eng.op()._op_engine is None
    assert list(regions._ENGINES) == [ex5]
    assert ex5.opposite() not in regions._ENGINES
    v = ray("b", 3)
    assert eng.successors(v) is eng.successors(v)
    catalog = classify(ex5)
    engine_for(ex3)
    fresh = engine_for(ex5)
    assert fresh is not eng and fresh._graph is None
    assert classify(ex5) == catalog


# classifies eight descriptions whose windows are about 3,000 indices wide,
# one after another in one process, and prints the growth of its peak RSS in
# KB from the first to the last; the address-space limit turns a leak into a
# MemoryError instead of a swamped machine
FAR_SEQUENCE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from fpquiver import classify, parse
peaks = []
for k in range(8):
    classify(parse(
        f"quiver far{k}\\nray a domain nat\\nray b domain nat\\n"
        "family fa: a[i] -> a[i+1] for i >= 0\\n"
        "family fb: b[i] -> b[i+1] for i >= 0\\n"
        f"arrow g: a[{3000 + k}] -> b[0]\\n"))
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(peaks[-1] - peaks[0])
"""


def test_switching_descriptions_keeps_memory_flat():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", FAR_SEQUENCE],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 20 * 1024


# two int rays with stride-3 families pointing opposite ways, so successor
# and predecessor sets each get one ascending and one descending tail whose
# residue class is not its own mirror image
STRIDE3 = (
    "quiver s3\nray a domain int\nray b domain int\n"
    "family down3: a[i+3] -> a[i] for all i\n"
    "family up3: b[i] -> b[i+3] for all i\n"
    "arrow x: b[1] -> a[1]\n"
)


def _window_reach(q, start, radius, inner, forward):
    """Plain BFS over Window(radius), restricted to |index| <= inner."""
    w = instantiate_window(q, radius)
    seen = {start}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        step = w.arrows_from(v) if forward else w.arrows_into(v)
        for a in step:
            nxt = a.target if forward else a.source
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return {v for v in seen if v.kind == "core" or abs(v.index) <= inner}


@pytest.mark.parametrize("kind, vertex", [
    ("successors", ray("b", 1)),
    ("successors", ray("a", 4)),
    ("predecessors", ray("a", -5)),
    ("predecessors", ray("b", 7)),
])
def test_strided_tails_in_both_directions(kind, vertex):
    q = parse(STRIDE3)
    sd = getattr(regions, kind)(q, vertex)
    assert isinstance(sd.cardinality(q), Infinite)
    want = _window_reach(q, vertex, 40, 20, forward=kind == "successors")
    assert sd.in_window(q, 20) == want


def test_strided_descending_tail_report(tmp_path, capsys):
    path = tmp_path / "s3.quiver"
    path.write_text(STRIDE3, encoding="utf-8")
    assert cli.main(["query", str(path), "succ", "r:b:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("result: infinite (ray a, i <= 1 with i mod 3 in {1}; "
            "ray b, i >= 1 with i mod 3 in {1})") in lines


# a two-ray int ladder: a shift-1 chain on each ray plus rungs between them
LADDER2 = (
    "quiver ladder2\nray p domain int\nray q domain int\n"
    "family cp: p[i] -> p[i+1] for all i\n"
    "family cq: q[i] -> q[i+1] for all i\n"
    "family u: p[i] -> q[i] for all i\n"
)


# a path from a[i] climbs to a[i+2] only through b[i+5], so near the edge
# of a window it leaves the window and comes back
REENTER = (
    "quiver reenter\nray a domain int\nray b domain int\n"
    "family up: a[i] -> b[i+5] for all i\n"
    "family down: b[i] -> a[i-3] for all i\n"
)


def _narrow_radius_quivers():
    rng = random.Random(11)
    out = [load_quiver("ex5"), parse(LADDER2), parse(REENTER), parse(STRIDE3)]
    while len(out) < 7:
        q = oracle.random_description(rng)
        if regions.oriented_cycle_witness(q) is None:
            out.append(q)
    return out


@pytest.mark.parametrize("q", _narrow_radius_quivers(),
                         ids=lambda q: q.name)
def test_wide_graph_answers_narrow_radii(q):
    # engine A holds a window far wider than any radius asked below; it must
    # answer exactly like a fresh engine B that never saw a wider window
    wide = RegionEngine(q)
    wide.graph(wide.base_radius + 60)
    rng = random.Random(5)
    for r in (3, 5, wide.base_radius):
        fresh = RegionEngine(q)
        assert wide.upset(r) == fresh.upset(r)
        verts = list(instantiate_window(q, r).vertices)
        picks = rng.sample(verts, min(6, len(verts)))
        for a in picks:
            for b in picks:
                assert wide._window_count(r, a, b) == fresh._window_count(r, a, b)
            assert wide._count_into(r, a) == fresh._count_into(r, a)
            assert wide.successors(a) == fresh.successors(a)
            assert (wide.has_right_infinite_path(a)
                    == fresh.has_right_infinite_path(a))


@pytest.mark.parametrize("domain, guard, back", [
    ("nat", "for i >= 0", "arrow back: a[12] -> a[3]"),
    ("int", "for all i", "arrow back: a[12] -> a[3]"),
    ("int", "for all i", "family back: a[i+1] -> a[i] for all i"),
])
def test_wide_graph_finds_the_same_cycle(domain, guard, back):
    q = parse(
        f"quiver back\nray a domain {domain}\n"
        f"family up: a[i] -> a[i+1] {guard}\n{back}\n"
    )
    wide = RegionEngine(q)
    wide.graph(wide.base_radius + 60)
    wit = wide.cycle_witness()
    assert wit is not None and wit == RegionEngine(q).cycle_witness()


def test_one_graph_per_engine():
    q = parse(
        "quiver far60\nray a domain nat\nray b domain nat\n"
        "family fa: a[i] -> a[i+1] for i >= 0\n"
        "family fb: b[i] -> b[i+1] for i >= 0\n"
        "arrow g: a[60] -> b[0]\n"
    )
    eng = RegionEngine(q)
    assert eng.graph(eng.base_radius + 10) is eng.graph(eng.base_radius)
    classify(q)
    for e in (engine_for(q), engine_for(q).op()):
        g = e.graph(0)
        assert all(e.graph(r) is g for r in range(g.window.radius + 1))


def _one_window_texts():
    gen = load_gen()
    far60 = (
        "quiver far60\nray a domain nat\nray b domain nat\n"
        "family fa: a[i] -> a[i+1] for i >= 0\n"
        "family fb: b[i] -> b[i+1] for i >= 0\n"
        "arrow g: a[60] -> b[0]\n"
    )
    ladder = gen.ladder_text(random.Random(0), 3, 1, "nat", "ladder3nat")[0]
    # two interval finite fragments whose a-side reach is infinite, so the
    # witness search reads the opposite engine too, and whose tail classes
    # have strides 2 and 4: their class supports read it past reach_radius
    fragments = [gen.fragment(j)[0] for j in (307, 1338)]
    assert all(gen.corpus_labels()[j] == "f" for j in (307, 1338))
    # no pump and no fan, so the witness search never reads the opposite
    # engine and a predecessor query is its first read
    down = "quiver down\nray a domain nat\nfamily d: a[i+1] -> a[i] for i >= 0\n"
    return [(FIXTURE_DIR / f"{name}.quiver").read_text(encoding="utf-8")
            for name in ("ex4", "ex5")] + [far60, ladder] + fragments + [down]


@pytest.mark.parametrize("text", _one_window_texts(),
                         ids=lambda t: t.split()[1])
def test_one_window_build_per_engine_and_request(text, tmp_path, monkeypatch,
                                                 capsys):
    path = tmp_path / "q.quiver"
    path.write_text(text, encoding="utf-8")
    q = parse(text)
    builds = []

    def counting(desc, radius):
        builds.append(desc)
        return instantiate_window(desc, radius)

    monkeypatch.setattr(regions, "instantiate_window", counting)
    first, last = q.rays[0][0], q.rays[-1][0]
    for argv, most in (
        (["validate"], 1),
        (["classify"], 1),
        (["query", "pred", f"r:{last}:5"], 1),
        (["query", "succ", f"r:{first}:5"], 1),
        # the path probes reach past the witness search's radius
        (["query", "paths", f"r:{first}:0", f"r:{last}:3"], 2),
    ):
        regions._ENGINES.clear()
        builds.clear()
        assert cli.main([argv[0], str(path)] + argv[1:]) == 0, argv
        capsys.readouterr()
        per_engine = {d: builds.count(d) for d in builds}
        assert set(per_engine) <= {q, q.opposite()}
        assert max(per_engine.values()) <= most, (argv, per_engine)


def _first_radius_inputs():
    gen = load_gen()
    labels = gen.corpus_labels()
    rng = random.Random("first-radius")
    picks = []
    for label in "nf":
        picks += rng.sample([j for j, x in enumerate(labels) if x == label], 10)
    return (
        [load_quiver(f"ex{k}") for k in range(1, 6)]
        + _narrow_radius_quivers()
        + [parse(gen.fragment(j)[0]) for j in sorted(picks)]
    )


def _witness_answers(eng):
    """The witness search's and the vertex criterion's answers, each error
    standing as its type and message."""

    def pointwise():
        if eng.cycle_witness() is not None:
            return None
        ok = _pointwise_ia(eng)
        return [ok(name, i) for name, dom in eng.q.rays
                for i in range(0 if dom == "nat" else -eng.nstar,
                               eng.nstar + 1)]

    out = []
    for read in (eng.cycle_witness, lambda: dict(eng.pump_tails),
                 eng.interval_finite_witness, eng.ia_no_set, pointwise):
        try:
            out.append(read())
        except (NotIntervalFinite, PreconditionError,
                InternalConsistencyError) as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("q", _first_radius_inputs(), ids=lambda q: q.name)
def test_witness_answers_do_not_depend_on_the_first_radius(q):
    # one engine pair starts from exactly base_radius, so its cycle search
    # reads a graph of that radius and the later reads rebuild it; the
    # other starts from the reach radius the witness search asks for
    answers = []
    for first in ("base_radius", "reach_radius"):
        eng = RegionEngine(q)
        for e in (eng, eng.op()):
            e.graph(getattr(e, first))
            assert e.graph(0).window.radius == getattr(e, first)
        answers.append(_witness_answers(eng))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("q", _narrow_radius_quivers(),
                         ids=lambda q: q.name)
def test_window_reach_of_a_wide_graph(q):
    eng = RegionEngine(q)
    g = eng.graph(eng.base_radius + 60)
    rng = random.Random(5)
    for r in (3, 5, eng.base_radius):
        verts = list(instantiate_window(q, r).vertices)
        for a in rng.sample(verts, min(6, len(verts))):
            seen = regions._reached(g, [a], r)
            got = {v for v, hit in zip(g.window.vertices, seen) if hit}
            assert got == _window_reach(q, a, r, r, forward=True)


def _fan_source_quivers():
    rng = random.Random(17)
    return [load_quiver(f"ex{k}") for k in range(1, 6)] + [
        oracle.random_description(rng, f"rnd{k}") for k in range(30)
    ]


@pytest.mark.parametrize("q", _fan_source_quivers(), ids=lambda q: q.name)
def test_fan_sources_are_the_infinite_out_degree(q):
    # the engine's fan sources against the out-neighbour sets they replace
    # in classify and linrep, on the engine and on its opposite
    eng = engine_for(q)
    for e in (eng, eng.op()):
        for v in instantiate_window(e.q, eng.nstar).vertices:
            infinite = isinstance(e.out_neighbors(v).cardinality(e.q), Infinite)
            assert (v in e.fan_sources) == infinite, v


def _brute_upset(q, r):
    """Ray vertices of Window(r) from which translation arrows alone lead
    to a higher index on the same ray (plain BFS per vertex)."""
    w = instantiate_window(q, r)
    translation = {
        f.label for f in q.families if f.source.is_var and f.target.is_var
    }
    out = set()
    for v in w.vertices:
        if v.kind != "ray":
            continue
        seen = {v}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            if u.name == v.name and u.index > v.index:
                out.add(v)
                break
            for a in w.arrows_from(u):
                if a.label in translation and a.target not in seen:
                    seen.add(a.target)
                    queue.append(a.target)
    return out


@pytest.mark.parametrize("q", _narrow_radius_quivers(),
                         ids=lambda q: q.name)
def test_upset_is_the_brute_pump_set(q):
    eng = RegionEngine(q)
    for r in (3, 5, eng.base_radius):
        assert eng.upset(r) == _brute_upset(q, r), r


@pytest.mark.parametrize("q", _narrow_radius_quivers(),
                         ids=lambda q: q.name)
def test_pumps_of_a_reach_set(q):
    # has_right_infinite_path is the formula over upset(r) it replaced
    eng = RegionEngine(q)
    rng = random.Random(7)
    for r in (3, 5, eng.base_radius):
        verts = list(instantiate_window(q, r).vertices)
        picks = rng.sample(verts, min(6, len(verts)))
        for a in picks:
            radius = eng._query_radius(a)
            g = eng.graph(radius)
            seen = regions._reached(g, [a], radius)
            reach = {v for v, hit in zip(g.window.vertices, seen) if hit}
            formula = any(
                v in eng.upset(radius)
                or (v.kind == "ray" and v.name in eng.descent_rays)
                for v in reach)
            assert eng.has_right_infinite_path(a) == formula, a


def _reference_witness(eng):
    """The pairwise interval-finiteness search: every infinity source a
    with an infinite successor set against every b, in order."""
    w = eng.cycle_witness()
    if w is not None:
        return (False, (w.source, w.source), w)
    for a in eng._infinity_sources():
        sa = eng.successors(a)
        if sa.is_finite:
            continue
        for b in eng.op()._infinity_sources():
            if not sa.intersect(eng.predecessors(b)).is_finite:
                verdict = eng.path_count(a, b)
                assert not verdict.is_finite
                return (False, (a, b), verdict.witness)
    return (True, None, None)


NIF2 = (
    "quiver nif2\nvertex s\nvertex t\nray a domain nat\n"
    "family f: s -> a[i] for i >= 0\n"
    "family g: a[i] -> t for i >= 0\n"
)


def _witness_quivers():
    # 40 acyclic draws: 34 interval finite, 6 with an infinite pair; the
    # fixtures are interval finite and nif2 has the pair (s, t)
    rng = random.Random(23)
    drawn = []
    while len(drawn) < 40:
        q = oracle.random_description(rng, f"rnd{len(drawn)}")
        if regions.oriented_cycle_witness(q) is None:
            drawn.append(q)
    return [load_quiver(f"ex{k}") for k in range(1, 6)] + [parse(NIF2)] + drawn


@pytest.mark.parametrize("q", _witness_quivers(), ids=lambda q: q.name)
def test_interval_finite_witness_matches_the_pairwise_search(q):
    assert RegionEngine(q).interval_finite_witness() == _reference_witness(
        RegionEngine(q))
    # one reach from many seeds is the union of their reaches
    for e in (RegionEngine(q), RegionEngine(q).op()):
        cands = e._infinity_sources()
        union = SupportDescription.build()
        for a in cands:
            union = union.union(e.successors(a))
        assert e._succ_support(cands, e._query_radius(*cands)) == union


# templates of translation families: a gain-0 self-loop, a sign mix that
# only a two-ray cycle closes, a four-ray cycle of gain 0 and one of gain
# +1, guarded families, and a ray that meets a gain-0 loop only through a
# rung of gain 1 (declared first, so its search runs first)
CYCLE_TEMPLATES = (
    "quiver loop0\nray a domain int\nfamily z: a[i] -> a[i] for all i\n",
    "quiver mix24\nray a domain int\nray b domain int\n"
    "family p: a[i] -> a[i+2] for all i\n"
    "family m: b[i+4] -> b[i] for all i\n"
    "family x: a[i] -> b[i+1] for all i\n"
    "family y: b[i] -> a[i] for all i\n",
    "quiver four0\nray a domain int\nray b domain int\nray c domain int\n"
    "ray d domain int\n"
    "family ab: a[i] -> b[i+1] for all i\nfamily bc: b[i] -> c[i+1] for all i\n"
    "family cd: c[i] -> d[i+1] for all i\nfamily da: d[i+3] -> a[i] for all i\n",
    "quiver four1\nray a domain nat\nray b domain nat\nray c domain nat\n"
    "ray d domain nat\n"
    "family ab: a[i] -> b[i+1] for i >= 0\nfamily bc: b[i] -> c[i+1] for i >= 0\n"
    "family cd: c[i] -> d[i+1] for i >= 0\nfamily da: d[i+2] -> a[i] for i >= 0\n"
    "family aa: a[i] -> a[i+2] for i >= 0\n",
    "quiver guarded0\nray a domain nat\nray b domain nat\n"
    "family f: a[i] -> b[i+1] for i >= 3\n"
    "family g: b[i+1] -> a[i] for i >= 5\n",
    "quiver guarded1\nray a domain nat\nray b domain int\n"
    "family f: a[i] -> b[i+1] for i >= 3\n"
    "family g: b[i+2] -> a[i] for i >= 5\n"
    "family h: b[i] -> b[i+2] for i >= 1\n",
    "quiver rung1\nray b domain int\nray a domain int\n"
    "family z: a[i] -> a[i] for all i\n"
    "family up: a[i] -> b[i+1] for all i\n"
    "family back: b[i] -> a[i] for all i\n",
)


def _reference_cycle(eng, window=True):
    """The window's cycle, else a (ray, gain) search from every ray in
    declaration order over all translation families, with gains bounded
    by ``l_max``; the first closed walk of gain 0 is lifted to base index
    ``c_max + l_max + max_shift + 2``."""
    q = eng.q
    if window:
        g = eng.graph(eng.base_radius)
        if g.topo is None:
            cyc = regions._window_cycle(g, eng.base_radius)
            if cyc is not None:
                return cyc
    fams = eng.translation_families
    if not fams:
        return None
    l_max = 4 * max(1, len(q.rays) * q.max_shift() * len(fams)) ** 2 + 8
    for r0 in q.ray_names():
        start = (r0, 0)
        parent = {start: None}
        queue = deque([start])
        found = None
        while queue and found is None:
            state = queue.popleft()
            for f in fams:
                if f.source.name != state[0]:
                    continue
                nxt = (f.target.name, state[1] + f.target.shift - f.source.shift)
                if nxt == start:
                    found = (state, f)
                    break
                if abs(nxt[1]) > l_max or nxt in parent:
                    continue
                parent[nxt] = (state, f)
                queue.append(nxt)
        if found is None:
            continue
        walk = [found[1]]
        state = found[0]
        while parent[state] is not None:
            state, f = parent[state]
            walk.append(f)
        walk.reverse()
        cur = base = eng.c_max + l_max + q.max_shift() + 2
        arrows = []
        for f in walk:
            i = cur - f.source.shift
            arrows.append(
                ArrowRef(f.label, i, f.source.resolve(i), f.target.resolve(i)))
            cur = i + f.target.shift
        return Path(ray(r0, base), tuple(arrows))
    return None


def _cycle_quivers():
    rng = random.Random(29)
    return (
        [load_quiver(f"ex{k}") for k in range(1, 6)]
        + [load_quiver("cycle"), parse(LADDER2), parse(REENTER),
           parse(STRIDE3)]
        + [parse(text) for text in CYCLE_TEMPLATES]
        + [oracle.random_description(rng, f"rnd{k}") for k in range(60)]
    )


@pytest.mark.parametrize("q", _cycle_quivers(), ids=lambda q: q.name)
def test_cycle_witness_matches_the_search_from_every_ray(q, monkeypatch):
    wit = RegionEngine(q).cycle_witness()
    assert wit == _reference_cycle(RegionEngine(q))
    if wit is not None:
        assert wit.source == wit.target and wit.is_composable()
    # without the window's cycle, the (ray, gain) search names the witness
    monkeypatch.setattr(regions, "_window_cycle", lambda g, radius: None)
    wit = RegionEngine(q).cycle_witness()
    assert wit == _reference_cycle(RegionEngine(q), window=False)
    if wit is not None:
        assert wit.source == wit.target and wit.is_composable()


def _brute_zero_gain_rays(nodes, edges, bound=240):
    """Rays from which a BFS over (ray, gain) states with |gain| <= bound
    returns to (ray, 0) along ``edges``."""
    out = set()
    for r in nodes:
        start = (r, 0)
        seen = {start}
        queue = deque(seen)
        while queue and r not in out:
            at, gain = queue.popleft()
            for _, u, v, g in edges:
                nxt = (v, gain + g)
                if u != at or abs(nxt[1]) > bound:
                    continue
                if nxt == start:
                    out.add(r)
                    break
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return out


def _edges(*specs):
    return tuple((f"e{k}", u, v, g) for k, (u, v, g) in enumerate(specs))


# templates with rays a-d: three- and four-ray components, gain-0
# self-loops, self-loops +2 and -4 that only rungs of gain 1 and 0 join,
# zero-gain cycles beside positive ones, and several components at once;
# then a 2-cycle plus a second cycle through it, a 3-cycle plus a chord,
# parallel edges of each sign, a negative component that other rays reach,
# a 2-cycle entered from its larger ray, and mixneg, a loop of gain -1 on a
# beside a -> b -> a of gain +2 (cyclic, yet only a is on a negative cycle)
HAND_TEMPLATES = (
    _edges(("a", "a", 0)),
    _edges(("a", "a", 2)),
    _edges(("a", "a", 2), ("b", "b", -4), ("a", "b", 1), ("b", "a", 0)),
    _edges(("a", "a", 2), ("b", "b", -4)),
    _edges(("a", "a", 2), ("b", "b", -4), ("a", "b", 1)),
    _edges(("a", "b", 1), ("b", "c", 1), ("c", "a", -2)),
    _edges(("a", "b", 1), ("b", "c", 1), ("c", "a", -1)),
    _edges(("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", -3)),
    _edges(("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "a", -2),
           ("c", "a", -3)),
    _edges(("a", "b", 1), ("b", "a", 0), ("b", "c", 0), ("c", "b", 0)),
    _edges(("a", "a", 0), ("a", "b", 1), ("b", "a", 0)),
    _edges(("a", "a", 0), ("a", "b", -1), ("b", "a", 0)),
    _edges(("a", "b", 1), ("b", "a", -1), ("a", "a", 3)),
    _edges(("a", "b", 2), ("b", "a", -1), ("c", "d", 1), ("d", "c", 0),
           ("d", "d", -2), ("b", "c", 0)),
    _edges(("a", "b", 1), ("b", "a", 1), ("b", "c", 1), ("c", "a", 1)),
    _edges(("a", "b", 1), ("b", "c", 1), ("c", "a", 1), ("a", "c", 2)),
    _edges(("a", "b", 1), ("a", "b", 2), ("b", "a", 0)),
    _edges(("a", "b", -1), ("a", "b", -1), ("b", "a", -1), ("c", "c", 1)),
    _edges(("a", "b", 1), ("b", "c", -1), ("c", "b", -2), ("d", "c", 3)),
    _edges(("b", "a", -1), ("a", "b", -2), ("c", "a", 0)),
    _edges(("a", "a", -1), ("a", "b", 1), ("b", "a", 1)),
)


def _templates():
    rng = random.Random(31)
    out = [pytest.param("abcd", edges, id=f"hand{k}")
           for k, edges in enumerate(HAND_TEMPLATES)]
    # the engine's templates, guarded families included
    for text in CYCLE_TEMPLATES:
        q = parse(text)
        out.append(pytest.param(q.ray_names(), RegionEngine(q).full_template,
                                id=q.name))
    for k in range(150):
        nodes = "abcd"[: rng.randint(1, 4)]
        edges = _edges(*(
            (rng.choice(nodes), rng.choice(nodes), rng.randint(-4, 4))
            for _ in range(rng.randint(1, 6))))
        out.append(pytest.param(nodes, edges, id=f"rnd{k}"))
    return out


@pytest.mark.parametrize("nodes, edges", _templates())
def test_zero_gain_rays_match_a_gain_bounded_search(nodes, edges):
    assert regions._zero_gain_rays(nodes, edges) == _brute_zero_gain_rays(
        nodes, edges)


def _simple_cycles(nodes, edges):
    """All simple cycles of a small multigraph as (gain, edge-list) pairs,
    each listed once, from its least node (exponential in general)."""
    order = {r: k for k, r in enumerate(sorted(nodes))}
    cycles = []

    def walk(start, at, visited, trail):
        for e in edges:
            _, u, v, g = e
            if u != at:
                continue
            if v == start:
                cycles.append(trail + [e])
            elif v not in visited and order[v] > order[start]:
                walk(start, v, visited | {v}, trail + [e])

    for s in sorted(nodes):
        walk(s, s, {s}, [])
    return [(sum(e[3] for e in cyc), tuple(cyc)) for cyc in cycles]


def _reference_tail_facts(eng):
    """(neg_cycle_rays, descent_rays, tail_classes()) read off a listing of
    every simple cycle of the template: the rays on an unguarded cycle of
    gain < 0, the rays reaching one, and per strongly connected component
    with cycles of a regime's sign, one class per residue of its one cycle
    or a family report when it has more (meaningful on acyclic templates)."""
    names = eng.q.ray_names()
    neg = {
        u
        for gain, cyc in _simple_cycles(names, eng.u_template)
        if gain < 0
        for _, u, _v, _g in cyc
    }
    descent = {r for r in names if eng.u_reach[r] & neg}
    classes, reports = [], []
    gz = eng.c_max + eng.bound + 2
    for regime, edges in (("+", eng.full_template), ("-", eng.u_template)):
        comp = regions._scc_ids(names, edges)
        by_comp = {}
        for gain, cyc in _simple_cycles(names, edges):
            if gain != 0 and (gain > 0) == (regime == "+"):
                by_comp.setdefault(comp[cyc[0][1]], []).append((gain, cyc))
        for cid in sorted(by_comp):
            group = by_comp[cid]
            if len(group) > 1:
                reports.append(regions.InfiniteClassFamilyReport(
                    regime=regime,
                    ray=min(e[1] for _, cyc in group for e in cyc),
                    labels=tuple(sorted({e[0] for _, cyc in group
                                         for e in cyc}))))
                continue
            gain, cyc = group[0]
            rays_on = [e[1] for e in cyc]
            k = rays_on.index(min(rays_on))
            r0 = rays_on[k]
            stride = abs(gain)
            for off in range(stride):
                s0 = gz + off if regime == "+" else -gz - off
                classes.append(TailClass(
                    ray=r0, direction=regime, stride=stride,
                    base_index=s0 % stride, start=ray(r0, s0),
                    cycle=tuple(e[0] for e in cyc[k:] + cyc[:k])))
    classes.sort(key=lambda c: (c.ray, c.direction, c.base_index))
    return neg, descent, (classes, reports)


def _down_seeds(eng, neg):
    """Per ray r0, the union of u_reach[c] over c in u_reach[r0] & neg, as
    _succ_support seeds a descending tail."""
    return {r0: set().union(*(eng.u_reach[c] for c in eng.u_reach[r0] & neg))
            for r0 in eng.q.ray_names()}


def _template_quiver(name, nodes, edges, guarded):
    """A description with one int ray per node and one family per template
    edge, spelled u[i] -> v[i+g] (u[i+|g|] -> v[i] for g < 0), each
    ``for i >= 0`` where ``guarded(k)`` holds for its position k."""
    lines = [f"quiver {name}"] + [f"ray {r} domain int" for r in nodes]
    for k, (label, u, v, g) in enumerate(edges):
        src = f"{u}[i+{-g}]" if g < 0 else f"{u}[i]"
        tgt = f"{v}[i+{g}]" if g > 0 else f"{v}[i]"
        guard = "for i >= 0" if guarded(k) else "for all i"
        lines.append(f"family {label}: {src} -> {tgt} {guard}")
    return parse("\n".join(lines) + "\n")


def _tail_quivers():
    # the cycle quivers (cyclic random draws among them), gen.py ladders,
    # and a description of every template above: unguarded, and with every
    # other family guarded so that the full and unguarded templates differ
    gen = load_gen()
    out = _cycle_quivers()
    for rays, shift, dom in ((2, 1, "int"), (3, 1, "nat"), (5, 1, "int"),
                             (5, 2, "int"), (6, 1, "nat")):
        name = f"ladder{rays}s{shift}{dom}"
        out.append(parse(gen.ladder_text(random.Random(0), rays, shift, dom,
                                         name)[0]))
    for p in _templates():
        nodes, edges = p.values
        out.append(_template_quiver(f"{p.id}_all", nodes, edges,
                                    lambda k: False))
        out.append(_template_quiver(f"{p.id}_mixed", nodes, edges,
                                    lambda k: k % 2 == 0))
    return out


@pytest.mark.parametrize("q", _tail_quivers(), ids=lambda q: q.name)
def test_tail_facts_match_the_simple_cycle_listing(q):
    eng = RegionEngine(q)
    neg, descent, catalog = _reference_tail_facts(eng)
    # neg_cycle_rays is set before the cycle check; on a cyclic template
    # it may name further rays of a component with a negative cycle, but
    # its readers see only whole components, which share u_reach
    assert eng.descent_rays == descent
    assert _down_seeds(eng, eng.neg_cycle_rays) == _down_seeds(eng, neg)
    if eng.cycle_witness() is None:
        assert eng.neg_cycle_rays == neg
        assert eng.tail_classes() == catalog


def test_cycle_search_checks_the_template_test(monkeypatch):
    # a ladder with no cycle: a ray the template test wrongly accepted
    # would send the (ray, gain) search through its whole space in vain
    q = parse(LADDER2)
    assert RegionEngine(q).cycle_witness() is None
    monkeypatch.setattr(regions, "_zero_gain_rays",
                        lambda nodes, edges: {nodes[-1]})
    with pytest.raises(InternalConsistencyError, match="gain 0"):
        RegionEngine(q).cycle_witness()


# --- one rule per one-step fact: reference versions of each -------------


def _neighbor_quivers():
    rng = random.Random("out-neighbours")
    return [load_quiver(f"ex{k}") for k in range(1, 6)] + [
        oracle.random_description(rng, f"rnd{k}") for k in range(30)
    ]


@pytest.mark.parametrize("q", _neighbor_quivers(), ids=lambda q: q.name)
def test_out_neighbors_are_the_window_targets(q):
    # a fan source has infinitely many targets; any other vertex has those
    # of its arrows in a window nstar wider than its own index
    eng = RegionEngine(q)
    for e in (eng, eng.op()):
        for v in instantiate_window(e.q, eng.nstar).vertices:
            got = e.out_neighbors(v)
            if v in e.fan_sources:
                assert isinstance(got.cardinality(e.q), Infinite), v
            else:
                want = window_targets(e.q, v, abs(v.index) + eng.nstar)
                assert set(got.vertices(e.q)) == want, v


def test_out_neighbors_of_a_far_vertex(ex5):
    eng = RegionEngine(ex5)
    far = ray("b", 100000)
    for e in (eng, eng.op()):
        want = window_targets(e.q, far, 100000 + eng.nstar)
        assert want and set(e.out_neighbors(far).vertices(e.q)) == want


def _threshold_tails(eng, radius):
    """The pump set's tails per ray by the threshold walk: on each side, the
    run of pumps that ends at the window edge ``radius``, read from a window
    ``bound + 2`` wider; pumps near an edge that miss it are ragged."""
    big = eng.upset(radius + eng.bound + 2)
    out = {}
    for name, dom in eng.q.rays:
        data = {v.index for v in big
                if v.name == name and abs(v.index) <= radius}
        if not data:
            continue
        iset = IndexSet.empty()
        for sign in (1, -1) if dom == "int" else (1,):
            side = {sign * i for i in data}
            if radius not in side:
                if max(side) > radius - eng.bound - 2:
                    raise InternalConsistencyError(f"ragged pumps on {name}")
                continue
            t = radius
            while t - 1 in side:
                t -= 1
            iset = iset.union(IndexSet.up_from(t) if sign == 1
                              else IndexSet.down_from(-t))
        if not iset.is_empty:
            out[name] = iset
    return out


def _engine_inputs():
    # the fixtures, random draws, corpus fragments labelled interval finite
    # and ladders; the cyclic draws are left out by the tests that need
    # an acyclic window
    gen = load_gen()
    out = [load_quiver(f"ex{k}") for k in range(1, 6)]
    rng = random.Random("one-step")
    out += [oracle.random_description(rng, f"rnd{k}") for k in range(60)]
    finite = [j for j, x in enumerate(gen.corpus_labels()) if x == "f"]
    for j in sorted(random.Random("one-step").sample(finite, 40)):
        out.append(parse(gen.fragment(j)[0]))
    for rays, shift, dom in ((2, 1, "int"), (3, 1, "nat"), (3, 2, "int")):
        out.append(parse(gen.ladder_text(random.Random(0), rays, shift, dom,
                                         f"ladder{rays}s{shift}{dom}")[0]))
    return out


@pytest.mark.parametrize("q", _engine_inputs(), ids=lambda q: q.name)
def test_pump_tails_match_the_threshold_walk(q):
    eng = RegionEngine(q)
    if eng.cycle_witness() is not None:
        return
    for e in (eng, eng.op()):
        assert dict(e.pump_tails) == _threshold_tails(
            e, e.base_radius)


def _reference_chain(eng, rest):
    """The backward chain read from the window's own in-arrow lists."""
    card = rest.cardinality(eng.q)
    if isinstance(card, Infinite):
        elem = card.witness.instances(1)[0]
    else:
        elem = rest.vertices(eng.q)[0]
    w = instantiate_window(eng.q, eng.base_radius + abs(elem.index))
    arrows = []
    cur = elem
    for _ in range(2 * eng.bound + 4):
        step = [a for a in w.arrows_into(cur) if rest.contains(a.source)]
        if not step:
            break
        arrows.append(step[0])
        cur = step[0].source
    arrows.reverse()
    return Path(cur, tuple(arrows))


def _reference_top_finite(eng, supp):
    """The top-finite stage with its cover as a union of one reach per
    generator."""
    sources = supp.difference(eng.step_image(supp))
    card = sources.cardinality(eng.q)
    if isinstance(card, Infinite):
        return StageResult(False, detail="infinitely many sources",
                           witness=card.witness)
    gens = sources.vertices(eng.q)
    cover = SupportDescription.build()
    for g in gens:
        cover = cover.union(eng.successors(g))
    rest = supp.difference(cover)
    if not rest.is_empty:
        return StageResult(False, detail="not generated from its sources",
                           witness=_reference_chain(eng, rest))
    return StageResult(True, detail=tuple(gens))


def test_backward_chain_stays_in_its_window():
    # b[0] has an in-arrow from every a[i]; the only one in ``rest`` lies
    # past Window(base_radius) but inside the wider graph the opposite
    # engine holds, so the chain from b[0] stops at once
    q = parse("quiver sink\nray b domain nat\nray a domain nat\n"
              "family g: a[i] -> b[0] for i >= 0\n")
    eng = RegionEngine(q)
    far = eng.base_radius + 10
    eng.op().graph(far + 10)
    rest = SupportDescription.build(
        parts={"a": IndexSet.of([far]), "b": IndexSet.of([0])})
    chain = eng._backward_chain(rest)
    assert chain == Path(ray("b", 0), ()) == _reference_chain(eng, rest)


@pytest.mark.parametrize("q", _engine_inputs(), ids=lambda q: q.name)
def test_top_finite_stage_matches_the_union_of_reaches(q):
    eng = RegionEngine(q)
    if eng.cycle_witness() is not None or not eng.interval_finite_witness()[0]:
        return
    for cls in eng.tail_classes()[0]:
        supp = eng.class_support(cls)
        want = _reference_top_finite(RegionEngine(q), supp)
        assert eng.top_finite_stage(supp) == want, cls


# --- helpers called instead of their hand-rolled copies: references -------

# a family from a ray into a fixed ray vertex and one into a core vertex
INTO_FIXED = (
    "quiver intofixed\nvertex c\nray a domain nat\nray b domain int\n"
    "family down: a[i+1] -> a[i] for i >= 0\n"
    "family g: a[i] -> b[3] for i >= 2\n"
    "family up: b[i] -> b[i+1] for all i\n"
    "family h: a[i] -> c for i >= 5\n"
)

# an unguarded fan from a core vertex into an int ray
UNGUARDED_FAN = (
    "quiver unguardedfan\nvertex c0\nray r domain int\nray d domain int\n"
    "family fan: c0 -> r[i] for all i\n"
    "family s: r[i] -> d[i+1] for all i\n"
    "family t: d[i] -> d[i+1] for i >= 0\n"
)


def _reference_fit_tail(eng, name, data, top, floor, flagged, descending):
    """The up tail fitted on the band below ``top``, its threshold walked
    down to ``floor`` while the data follows the pattern."""
    side, edge = ("below", "bottom") if descending else ("above", "top")
    if not flagged:
        if data and max(data) > top:
            raise InternalConsistencyError(
                f"reach on ray {name} touches the window {edge} without an "
                "infinity certificate"
            )
        return None
    lo_band = top - 2 * eng.bound - 4
    period = None
    for cand in range(1, eng.bound + 2):
        if all((i in data) == ((i + cand) in data)
               for i in range(lo_band, top - cand + 1)):
            period = cand
            break
    if period is None:
        raise InternalConsistencyError(
            f"no period <= {eng.bound + 1} fits the reach band on "
            f"ray {name}" + (" (descending)" if descending else "")
        )
    residues = frozenset(
        i % period for i in range(lo_band, top + 1) if i in data)
    if not residues:
        raise InternalConsistencyError(
            f"ray {name} flagged as unbounded {side} but the window "
            "band is empty"
        )
    for i in data:
        if i > top and i % period not in residues:
            raise InternalConsistencyError(
                f"reach element {name}[{-i if descending else i}] {side} "
                "the fit zone does not match the fitted tail"
            )
    t = lo_band
    while t - 1 >= floor and (
            ((t - 1) in data) == (((t - 1) % period) in residues)):
        t -= 1
    return (t, period, residues)


def _reference_fit_ray(eng, name, data, dom, radius, up_flag, down_flag):
    top = radius - eng.setback
    lo_dom = 0 if dom == "nat" else -radius
    up = _reference_fit_tail(eng, name, data, top, lo_dom, up_flag, False)
    if down_flag and dom == "nat":
        raise InternalConsistencyError(
            f"downward flag on nat-domain ray {name}")
    floor = 1 - up[0] if up is not None else -top
    down = _reference_fit_tail(
        eng, name, {-i for i in data}, top, floor, down_flag, True)
    if down is not None:
        t, p, rs = down
        down = (-t, p, frozenset(-r % p for r in rs))
    mid = {i for i in data
           if (up is None or i < up[0]) and (down is None or i > down[0])}
    return IndexSet.make(up=up, down=down, mid=mid)


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the message of its consistency error."""
    try:
        return fn(*args)
    except InternalConsistencyError as exc:
        return ("raises", str(exc))


def _pattern(rng, b):
    p = rng.randint(1, b + 1)
    rs = frozenset(r for r in range(p) if rng.random() < 0.5) or {0}
    return p, rs


def _synthetic_fits(count):
    """(engine, _fit_ray arguments) of seeded eventually periodic data:
    periods up to bound + 1, thresholds anywhere in the window, a random
    finite middle and, now and then, one stray point."""
    rng = random.Random("fit-ray")
    engines = [RegionEngine(load_quiver("ex4")), RegionEngine(parse(STRIDE3))]
    out = []
    for k in range(count):
        eng = engines[k % len(engines)]
        b = eng.bound
        dom = rng.choice(("nat", "int"))
        radius = eng.base_radius + rng.randrange(0, 3 * b)
        lo_dom = 0 if dom == "nat" else -radius
        flags = rng.choice(((True, False), (False, True), (True, True))
                           if dom == "int" else ((True, False),))
        # mostly thresholds that leave each fit band on its own pattern
        band = radius - eng.setback - 2 * b - 4
        lo = max(lo_dom, -band) if rng.random() < 0.8 else lo_dom
        hi = band if lo > lo_dom or rng.random() < 0.8 else radius
        t_up = rng.randrange(lo, hi + 1)
        t_dn = rng.randrange(lo, t_up + 1)
        data = set()
        if flags[0]:
            p, rs = _pattern(rng, b)
            data |= {i for i in range(t_up, radius + 1) if i % p in rs}
        if flags[1]:
            p, rs = _pattern(rng, b)
            data |= {i for i in range(-radius, t_dn + 1) if i % p in rs}
        lo_mid = t_dn + 1 if flags[1] else lo_dom
        if lo_mid <= t_up:
            data |= {rng.randrange(lo_mid, t_up + 1)
                     for _ in range(rng.randrange(0, 6))}
        if rng.random() < 0.15:
            data.add(rng.randrange(lo_dom, radius + 1))
        out.append((eng, ("r", data, dom, radius) + flags))
    return out


def test_fit_ray_matches_the_threshold_walk_on_seeded_data():
    fitted = 0
    for eng, args in _synthetic_fits(400):
        got = _outcome(eng._fit_ray, *args)
        assert got == _outcome(_reference_fit_ray, eng, *args), args[2:]
        fitted += isinstance(got, IndexSet)
    assert fitted > 200


def _fit_inputs():
    gen = load_gen()
    out = [load_quiver(f"ex{k}") for k in range(1, 6)]
    out += [parse(t) for t in (STRIDE3, LADDER2, INTO_FIXED, UNGUARDED_FAN)]
    for rays, shift, dom in ((2, 1, "int"), (3, 1, "nat"), (3, 2, "int")):
        out.append(parse(gen.ladder_text(random.Random(0), rays, shift, dom,
                                         f"ladder{rays}s{shift}{dom}")[0]))
    return out


@pytest.mark.parametrize("q", _fit_inputs(), ids=lambda q: q.name)
def test_fit_ray_matches_the_threshold_walk_on_reach_data(q, monkeypatch):
    calls = []
    fit = RegionEngine._fit_ray

    def spy(self, *args):
        got = fit(self, *args)
        calls.append((self, args, got))
        return got

    monkeypatch.setattr(RegionEngine, "_fit_ray", spy)
    monkeypatch.setattr(regions, "_ENGINES", {})
    classify(q)
    eng = engine_for(q)
    for e in (eng, eng.op()):
        for v in instantiate_window(e.q, 2).vertices:
            e.successors(v)
    assert calls
    for e, args, got in calls:
        assert got == _reference_fit_ray(e, *args), args[0]


def _reference_step_image(eng, supp):
    """The one-step image with single arrows, templated sources and fans
    in separate branches."""
    q = eng.q
    cores = set()
    parts = {}

    def add_set(name, iset):
        iset = iset.intersect(IndexSet.domain_set(q.domain(name)))
        if not iset.is_empty:
            parts[name] = parts.get(name, IndexSet.empty()).union(iset)

    for a in q.arrows:
        if supp.contains(a.source.resolve()):
            tgt = a.target.resolve()
            if not q.has_vertex(tgt):
                continue
            if tgt.kind == "core":
                cores.add(tgt.name)
            else:
                add_set(tgt.name, IndexSet.of([tgt.index]))
    for f in q.families:
        src, tgt = f.source, f.target
        if src.is_var:
            fired = supp.ray_part(src.name).shift(-src.shift)
            if f.lower is not None:
                fired = fired.intersect(IndexSet.up_from(f.lower))
            if fired.is_empty:
                continue
            if tgt.is_var:
                add_set(tgt.name, fired.shift(tgt.shift))
            else:
                t = tgt.resolve()
                if t.kind == "core":
                    cores.add(t.name)
                else:
                    add_set(t.name, IndexSet.of([t.index]))
        elif supp.contains(src.resolve()):
            if f.lower is None:
                add_set(tgt.name, IndexSet.domain_set("int"))
            else:
                add_set(tgt.name, IndexSet.up_from(f.lower + tgt.shift))
    return SupportDescription.build(cores, parts)


def _seeded_supports(q, rng, count):
    """Random supports: some core vertices and, per ray, nothing, a few
    points, a strided tail either way or the whole ray."""
    out = []
    for _ in range(count):
        cores = [c for c in q.core_vertices if rng.random() < 0.5]
        parts = {}
        for name, dom in q.rays:
            kind = rng.randrange(5)
            t, p = rng.randrange(-20, 21), rng.randint(1, 3)
            iset = (IndexSet.empty(),
                    IndexSet.of(rng.sample(range(-30, 31), 3)),
                    IndexSet.up_from(t, p),
                    IndexSet.down_from(t, p),
                    IndexSet.domain_set(dom))[kind]
            parts[name] = iset.intersect(IndexSet.domain_set(dom))
        out.append(SupportDescription.build(cores, parts))
    return out


def _statement_inputs():
    rng = random.Random("step-image")
    out = [load_quiver(f"ex{k}") for k in range(1, 6)]
    out += [parse(t) for t in (STRIDE3, INTO_FIXED, UNGUARDED_FAN)]
    out += [oracle.random_description(rng, f"rnd{k}") for k in range(40)]
    return out


@pytest.mark.parametrize("q", _statement_inputs(), ids=lambda q: q.name)
def test_step_image_matches_the_branch_per_statement_kind(q):
    eng = RegionEngine(q)
    supports = _seeded_supports(q, random.Random(q.name), 12)
    supports += [SupportDescription.everything(q), SupportDescription.build()]
    if eng.cycle_witness() is None:
        supports += [eng.class_support(c) for c in eng.tail_classes()[0]]
    for e in (eng, eng.op()):
        for supp in supports:
            assert e.step_image(supp) == _reference_step_image(e, supp), supp


def test_hand_made_statements_fire():
    # the two statement kinds no fixture has: a family into a fixed ray
    # vertex, and an unguarded fan from a core vertex
    eng = RegionEngine(parse(INTO_FIXED))
    image = eng.step_image(SupportDescription.build(
        parts={"a": IndexSet.up_from(4)}))
    assert image.ray_part("b") == IndexSet.of([3])
    assert image.cores == {"c"}
    assert image.ray_part("a") == IndexSet.up_from(3)
    eng = RegionEngine(parse(UNGUARDED_FAN))
    image = eng.step_image(SupportDescription.build(["c0"]))
    assert image.ray_part("r") == IndexSet.domain_set("int")


def _orbit_inputs():
    gen = load_gen()
    out = _fit_inputs()
    finite = [j for j, x in enumerate(gen.corpus_labels()) if x == "f"]
    for j in sorted(random.Random("orbits").sample(finite, 40)):
        out.append(parse(gen.fragment(j)[0]))
    return out


def _walked_tails(eng, cls):
    """The class's progressions per ray over its first turn, walked with
    ``orbit_step``."""
    tails = {}
    at = cls.start
    for step in range(len(cls.cycle) + 1):
        prog = (IndexSet.up_from(at.index, cls.stride)
                if cls.direction == "+"
                else IndexSet.down_from(at.index, cls.stride))
        tails[at.name] = tails.get(at.name, IndexSet.empty()).union(prog)
        if step < len(cls.cycle):
            at = eng.orbit_step(cls, at, step)[2]
    return tails


def _walked_configs(eng, cls, bound):
    """The forward orbit up to and including its first config past
    ``bound``."""
    configs = [cls.start]
    while abs(configs[-1].index) <= bound:
        configs.append(eng.orbit_step(cls, configs[-1], len(configs) - 1)[2])
    return configs


@pytest.mark.parametrize("q", _orbit_inputs(), ids=lambda q: q.name)
def test_class_orbits_match_the_orbit_walk(q, monkeypatch):
    eng = RegionEngine(q)
    if eng.cycle_witness() is not None:
        return
    seeded = []
    succ = RegionEngine._succ_support

    def spy(self, seeds, radius, seed_tails=None):
        if seed_tails is not None:
            seeded.append((seeds, radius, seed_tails))
        return succ(self, seeds, radius, seed_tails=seed_tails)

    monkeypatch.setattr(RegionEngine, "_succ_support", spy)
    for cls in eng.tail_classes()[0]:
        seeded.clear()
        eng.class_support(cls)
        radius = eng.base_radius + abs(cls.start.index) + 2 * eng.bound
        want = _walked_configs(eng, cls, radius)[:-1]
        assert seeded == [(want, radius, _walked_tails(eng, cls))], cls
        for r in (radius, radius + 3 * cls.stride + 1):
            assert eng.class_tail_configs(cls, r) == (
                _walked_configs(eng, cls, r)[:-1]), cls


# --- the vertex criterion's no-set: references ------------------------------


def _reference_pump_configs(eng, radius):
    """Configs of Window(radius) admitting a right-infinite continuation by
    themselves: the pumps and every descent-ray vertex."""
    pumps = set(eng.upset(radius))
    g = eng.graph(radius)
    for vi, (name, lv) in enumerate(zip(g.rays_at, g.level)):
        if lv <= radius and name in eng.descent_rays:
            pumps.add(regions._vertex_at(g, vi))
    return pumps


def _reference_trigger_bundle(eng):
    """(seeds, seed_tails): the fan sources and pump configs of
    Window(base_radius), and the fitted pump tails with each descent ray
    whole."""
    radius = eng.base_radius
    seeds = set(eng.fan_sources) | _reference_pump_configs(eng, radius)
    tails = dict(eng.pump_tails)
    for name in eng.descent_rays:
        tails[name] = tails.get(name, IndexSet.empty()).union(
            IndexSet.domain_set(eng.q.domain(name)))
    return seeds, tails


def _reference_infinite_pred_set(eng):
    """All vertices with infinitely many predecessors."""
    eng.ensure_acyclic()
    seeds, tails = _reference_trigger_bundle(eng.op())
    if not seeds and not tails:
        return SupportDescription.build()
    return eng._succ_support(sorted(seeds, key=VertexRef.sort_key),
                             eng.base_radius, seed_tails=tails)


def _reference_fan_successor_set(eng):
    """All vertices reachable from some fan family source."""
    eng.ensure_acyclic()
    if not eng.fan_sources:
        return SupportDescription.build()
    return eng._succ_support(list(eng.fan_sources), eng.base_radius)


def _no_set_inputs():
    gen = load_gen()
    out = [load_quiver(f"ex{k}") for k in range(1, 6)]
    out += [parse(t) for t in (INTO_FIXED, UNGUARDED_FAN)]
    rng = random.Random("no-set")
    out += [oracle.random_description(rng, f"rnd{k}") for k in range(40)]
    out += [parse(gen.fragment(j)[0])
            for j, x in enumerate(gen.corpus_labels()) if x == "f"]
    for rays in (2, 3, 4):
        for dom in ("int", "nat"):
            out.append(parse(gen.ladder_text(
                random.Random(0), rays, 1, dom, f"ladder{rays}{dom}")[0]))
    return out


@pytest.mark.parametrize("q", _no_set_inputs(), ids=lambda q: q.name)
def test_no_set_matches_the_two_reaches(q):
    eng = RegionEngine(q)
    if eng.cycle_witness() is not None:
        return
    for e in (eng, eng.op()):
        seeds, tails = e._trigger_bundle()
        want_seeds, want_tails = _reference_trigger_bundle(e)
        assert tails == want_tails
        assert seeds >= want_seeds
        held = SupportDescription.build(parts=tails)
        assert all(s in e.fan_sources or held.contains(s) for s in seeds)
    want = _reference_infinite_pred_set(eng).union(
        _reference_fan_successor_set(eng))
    assert eng.ia_no_set() == want
    if not eng.interval_finite_witness()[0]:
        return
    try:
        cat = classify(q)
    except InternalConsistencyError as err:
        # the known "unsupported shape" defect: a half-line no-set
        if "unsupported shape" in str(err):
            return
        raise
    for rv in cat.ia_rays:
        domain = IndexSet.domain_set(rv.domain)
        assert rv.no_set == want.ray_part(rv.ray).intersect(domain), rv.ray
    for name, v in cat.ia_core:
        assert v.is_yes == (not want.contains(core(name))), name


# --- the pump set as one engine fact: references ----------------------------

# every vertex of a is a pump, through the guarded family h, although the
# unguarded component of a has no cycle
UP = (
    "quiver up\nray a domain int\nray c domain int\n"
    "family f: a[i] -> c[i] for all i\n"
    "family g: c[i] -> c[i+1] for all i\n"
    "family h: c[i] -> a[i+5] for i >= 0\n"
)


def _dense_text(rays):
    """``rays`` int rays with a family from each ray to every other, one
    index up."""
    lines = [f"quiver dense{rays}"]
    lines += [f"ray r{k} domain int" for k in range(rays)]
    lines += [f"family f{k}_{j}: r{k}[i] -> r{j}[i+1] for all i"
              for k in range(rays) for j in range(rays) if k != j]
    return "\n".join(lines) + "\n"


def _reference_pump_tails(eng):
    """The pump set per ray, fitted like a reach set from a window
    ``bound + 2`` wider than base_radius, flagged up where the pumps reach
    base_radius and down where they reach -base_radius."""
    radius = eng.base_radius
    big = eng.upset(radius + eng.bound + 2)
    data = {name: set() for name in eng.q.ray_names()}
    for v in big:
        if abs(v.index) <= radius:
            data[v.name].add(v.index)
    return {
        name: eng._fit_ray(name, data[name], dom, radius,
                           radius in data[name], -radius in data[name])
        for name, dom in eng.q.rays
        if data[name]
    }


def _reference_right_infinite(eng, v, upsets):
    """Does a window pump or a descent-ray vertex lie in the window reach
    of ``v``?  ``upsets`` caches upset(radius) by radius."""
    eng.ensure_acyclic()
    radius = eng._query_radius(v)
    if radius not in upsets:
        upsets[radius] = eng.upset(radius)
    g = eng.graph(radius)
    seen = regions._reached(g, [v], radius)
    return any(
        hit and (name in eng.descent_rays
                 or regions._vertex_at(g, vi) in upsets[radius])
        for vi, (name, hit) in enumerate(zip(g.rays_at, seen))
    )


def _pump_inputs():
    return _no_set_inputs() + [
        parse(_dense_text(k)) for k in (4, 5, 6)] + [parse(UP)]


@pytest.mark.parametrize("q", _pump_inputs(), ids=lambda q: q.name)
def test_pump_tails_and_infinite_paths_match_the_references(q):
    eng = RegionEngine(q)
    if eng.cycle_witness() is not None:
        return
    for e in (eng, eng.op()):
        assert dict(e.pump_tails) == _reference_pump_tails(e)
    verts = [core(name) for name in q.core_vertices]
    for name, dom in q.rays:
        verts += [ray(name, i) for i in range(0 if dom == "nat" else -8, 9)]
    right, left = {}, {}
    for v in verts:
        assert eng.has_right_infinite_path(v) == _reference_right_infinite(
            eng, v, right), v
        assert eng.has_left_infinite_path(v) == _reference_right_infinite(
            eng.op(), v, left), v


def test_a_pump_set_that_needs_a_guarded_family():
    # a[i] -> c[i] climbs c to c[0] and h leads on to a[5], so every vertex
    # of a is a pump, yet the unguarded component of a has no cycle
    q = parse(UP)
    eng = RegionEngine(q)
    assert eng.interval_finite_witness()[0]
    assert all(not inner for rays, inner in regions._components(
        q.ray_names(), eng.u_template) if "a" in rays)
    assert eng.pump_tails["a"] == IndexSet.domain_set("int")
    r = 30
    brute = _brute_upset(q, r)
    rho = r - eng.bound - 2
    for name in q.ray_names():
        pumps = eng.pump_tails.get(name, IndexSet.empty())
        for i in range(-rho, rho + 1):
            assert (ray(name, i) in brute) == pumps.contains(i), (name, i)
