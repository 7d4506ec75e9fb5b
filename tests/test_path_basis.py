"""Path-basis representations against a reference built from Path objects.

The reference collects every window path, sorts each vertex's paths with
``Path.sort_key``, labels them with ``Path.describe()`` and fills the 0/1
arrow maps by matching extended paths.  ``build_P``, ``build_I`` and
``build_Y`` must agree with it entry by entry and label by label, on the
bundled fixtures and on the benchmark's ladder windows (``perfbench/gen.py``
imported without writing bytecode next to it).
"""

import importlib.util
import pathlib
import random
import sys

import pytest

from conftest import load_quiver
from fpquiver.linrep import (
    InfiniteDimensionAt,
    RepWindow,
    build_I,
    build_P,
    build_Y,
    hom_from_projective,
    hom_to_injective,
    zero_rep,
)
from fpquiver.qdl import Path, core, instantiate_window, parse, ray
from fpquiver.regions import PreconditionError, engine_for

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_gen():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "_perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = saved
    return gen


gen = _load_gen()

# (rays, domain, n): ladder windows of the benchmark's reps requests
LADDERS = ((2, "nat", 14), (2, "int", 11), (3, "nat", 8), (3, "nat", 13),
           (3, "int", 8))
# (fixture, n, projective vertex, injective vertex)
FIXTURES = (
    ("ex1", 4, ray("a", 0), ray("a", 4)),
    ("ex2", 3, ray("a", -3), ray("a", 3)),
    ("ex3", 4, core("v0"), ray("b", 4)),
    ("ex4", 4, ray("a", 0), ray("b", 4)),
    ("ex5", 3, ray("a", 0), ray("b", 3)),
)

# two paths of different lengths from a[0] to the tail of b, with the
# shorter one last in label order
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


def _ladder(rays, dom, n):
    text, ids = gen.ladder_text(random.Random(f"{rays}{dom}{n}"), rays, 1,
                                dom, f"rep{rays}{dom}{n}")
    lo = 0 if dom == "nat" else -n
    return parse(text), ray(ids[0], lo), ray(ids[-1], n)


def _cases():
    for name, n, p_at, i_at in FIXTURES:
        yield pytest.param(load_quiver(name), n, p_at, i_at, id=name)
    yield pytest.param(parse(SHORTCUT), 3, ray("a", 0), ray("b", 3),
                       id="shortcut")
    for rays, dom, n in LADDERS:
        q, p_at, i_at = _ladder(rays, dom, n)
        yield pytest.param(q, n, p_at, i_at, id=f"ladder{rays}{dom}{n}")


# ---------------------------------------------------------------------------
# reference


def _ref_paths(arrows, a, reverse):
    """Every path along ``arrows`` out of ``a`` (into it, if reverse), per
    other endpoint, sorted by ``Path.sort_key``."""
    out = {a: [Path(a)]}
    stack = [Path(a)]
    while stack:
        p = stack.pop()
        for ar in arrows:
            if reverse and ar.target == p.source:
                new, end = Path(ar.source, (ar,) + p.arrows), ar.source
            elif not reverse and ar.source == p.target:
                new, end = Path(p.source, p.arrows + (ar,)), ar.target
            else:
                continue
            out.setdefault(end, []).append(new)
            stack.append(new)
    for ps in out.values():
        ps.sort(key=Path.sort_key)
    return out


def _ref_maps(window, basis, extend):
    """0/1 arrow maps on per-vertex path bases.  With "post" (projectives)
    the path p at an arrow's source goes to p then the arrow at its
    target; with "pre" (the duals: injectives, tail limits) the functional
    at p on the target pulls back from the arrow then p on the source,
    when that path is in the source's basis."""
    index = {v: {p: k for k, p in enumerate(ps)} for v, ps in basis.items()}
    maps = {}
    for ar in window.arrows:
        src, tgt = basis.get(ar.source, []), basis.get(ar.target, [])
        m = [[0] * len(src) for _ in tgt]
        if extend == "post":
            for k, p in enumerate(src):
                m[index[ar.target][Path(p.source, p.arrows + (ar,))]][k] = 1
        else:
            for k, p in enumerate(tgt):
                col = index.get(ar.source, {}).get(
                    Path(ar.source, (ar,) + p.arrows))
                if col is not None:
                    m[k][col] = 1
        maps[ar.canonical_id()] = m
    return maps


def _ref_P(q, a, n):
    window = instantiate_window(q, n)
    basis = _ref_paths(window.arrows, a, reverse=False)
    labels = {v: tuple(p.describe() for p in ps) for v, ps in basis.items()}
    return basis, _ref_maps(window, basis, "post"), labels


def _ref_I(q, a, n):
    window = instantiate_window(q, n)
    basis = _ref_paths(window.arrows, a, reverse=True)
    labels = {v: tuple(p.describe() for p in ps) for v, ps in basis.items()}
    return basis, _ref_maps(window, basis, "pre"), labels


def _ref_Y(q, cls, n):
    """Paths from each window vertex into the tail checkpoint ``build_Y``
    uses, sorted by the orbit suffix they end in, then by the rest."""
    eng = engine_for(q)
    window = instantiate_window(q, n)
    dirn = 1 if cls.direction == "+" else -1
    start = cls.start.index
    target1 = n + eng.nstar + 2 * eng.bound + 2
    loops1 = max(1, -(-(target1 - dirn * start) // cls.stride))
    loops2 = loops1 + -(-(2 * eng.bound + 4) // cls.stride)
    t1 = ray(cls.ray, start + dirn * cls.stride * loops1)
    big = abs(start + dirn * cls.stride * loops2) + eng.base_radius
    configs = eng.spell_class(cls, loops1 * len(cls.cycle))
    orbit = []
    for k, at in enumerate(configs[:-1]):
        label, i, _ = eng.orbit_step(cls, at, k)
        orbit.append(f"{label}@{i}")
    into = _ref_paths(instantiate_window(q, big).arrows, t1, reverse=True)
    basis, labels = {}, {}
    for v in window.vertices:
        keyed = []
        for p in into.get(v, []):
            ids = p.sort_key()[1]
            s = 0
            while (s < min(len(ids), len(orbit))
                   and ids[-1 - s] == orbit[-1 - s]):
                s += 1
            prefix = Path(v, p.arrows[: len(p.arrows) - s])
            keyed.append(((len(orbit) - s, prefix.sort_key()), p, prefix))
        if keyed:
            keyed.sort(key=lambda t: t[0])
            basis[v] = [p for _, p, _ in keyed]
            labels[v] = tuple((key[0], prefix.describe())
                              for key, _, prefix in keyed)
    return basis, _ref_maps(window, basis, "pre"), labels


def _assert_matches(m, ref):
    basis, maps, labels = ref
    assert m.dims == {v: len(ps) for v, ps in basis.items()}
    assert m.basis_labels == labels
    for ar in m.window.arrows:
        got, want = m.matrix(ar), maps[ar.canonical_id()]
        assert len(got) == len(want), ar
        for row, ref_row in zip(got, want):
            assert list(row) == ref_row, ar


def _assert_round_trip(h):
    x = [k % 5 + 1 for k in range(h.dimension)]
    assert h.extract(h.realize(x)) == x


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("q, n, p_at, i_at", _cases())
def test_build_P_matches_reference(q, n, p_at, i_at):
    m = build_P(q, p_at, n)
    _assert_matches(m, _ref_P(q, p_at, n))
    _assert_round_trip(hom_to_injective(m, p_at))


@pytest.mark.parametrize("q, n, p_at, i_at", _cases())
def test_build_I_matches_reference(q, n, p_at, i_at):
    m = build_I(q, i_at, n)
    _assert_matches(m, _ref_I(q, i_at, n))
    _assert_round_trip(hom_from_projective(m, i_at))


@pytest.mark.parametrize("q, n, p_at, i_at", _cases())
def test_build_Y_matches_reference(q, n, p_at, i_at):
    classes, _ = engine_for(q).tail_classes()
    built = 0
    for cls in classes:
        try:
            m = build_Y(q, cls, n)
        except InfiniteDimensionAt:
            continue
        _assert_matches(m, _ref_Y(q, cls, n))
        at = max(m.support(), key=lambda v: (m.dim(v), v.sort_key()))
        _assert_round_trip(hom_from_projective(m, at))
        built += 1
    assert built or q.name in ("ex3", "ex4")


@pytest.mark.parametrize("name", ["ex1", "ex4", "ex5"])
def test_small_hom_round_trips_both_ways(name):
    q = load_quiver(name)
    window = instantiate_window(q, 3)
    for v in window.vertices:
        for m in (build_P(q, v, 3), build_I(q, v, 3)):
            for w in m.support():
                _assert_round_trip(hom_from_projective(m, w))
                _assert_round_trip(hom_to_injective(m, w))


def test_path_basis_rejects_a_cycle():
    q = load_quiver("cycle")
    with pytest.raises(PreconditionError, match="not acyclic"):
        build_P(q, core("s"), 0)
    with pytest.raises(PreconditionError, match="not acyclic"):
        build_I(q, core("t"), 0)


def test_matrix_of_a_missing_map(ex1):
    w = instantiate_window(ex1, 3)
    z = zero_rep(w)
    assert z.matrix("alpha@0") == []
    assert z.matrix(w.arrow(2)) == []
    m = RepWindow(w, {ray("a", 1): 2}, {})
    assert m.matrix("alpha@0") == [[], []]
    assert m.matrix("alpha@1") == []
    for missing in ("alpha@3", "alpha@-1", "beta@0", "alpha"):
        with pytest.raises(KeyError):
            z.matrix(missing)
