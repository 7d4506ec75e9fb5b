"""Representation windows: builders, structure maps, hom spaces, tails."""

import random

import pytest

from conftest import load_gen, load_quiver
from fpquiver import ratmat
from fpquiver.linrep import (
    InfiniteDimensionAt,
    MorphismWindow,
    RepWindow,
    TailBijectivity,
    apply_path,
    build_I,
    build_P,
    build_Y,
    check_restriction_surjective,
    direct_sum,
    dump_rep,
    eventual_tail_bijectivity,
    hom_from_projective,
    hom_to_injective,
    is_fd_rep_fp,
    quotient,
    radical,
    socle,
    subrep_generated,
    zero_rep,
)
from fpquiver.qdl import Path, VertexRef, core, instantiate_window, parse, ray
from fpquiver.regions import PreconditionError, engine_for


def arrow_in(window, aid):
    for ar in window.arrows:
        if ar.canonical_id() == aid:
            return ar
    raise KeyError(aid)


def cls_of(q, cid):
    classes, _ = engine_for(q).tail_classes()
    for c in classes:
        if c.class_id() == cid:
            return c
    raise KeyError(cid)


def test_apply_path(ex1):
    m = build_P(ex1, ray("a", 0), 3)
    w = m.window
    assert apply_path(m, Path(ray("a", 0))) == [[1]]
    p02 = Path(ray("a", 0), (arrow_in(w, "alpha@0"), arrow_in(w, "alpha@1")))
    assert apply_path(m, p02) == [[1]]
    assert apply_path(zero_rep(w), p02) == []


def test_apply_path_leaving_window(ex1):
    m = build_P(ex1, ray("a", 0), 2)
    big = build_P(ex1, ray("a", 0), 5).window
    stray = Path(ray("a", 2), (arrow_in(big, "alpha@2"),))
    with pytest.raises(PreconditionError):
        apply_path(m, stray)


def test_build_P_dims(ex1, ex3, ex4):
    p1 = build_P(ex1, ray("a", 0), 3)
    assert [p1.dim(ray("a", i)) for i in range(4)] == [1, 1, 1, 1]
    p3 = build_P(ex3, core("v0"), 3)
    assert p3.dim(ray("b", 2)) == 3
    p4 = build_P(ex4, ray("b", 0), 2)
    assert [p4.dim(ray("a", i)) for i in range(3)] == [0, 0, 0]
    assert [p4.dim(ray("b", i)) for i in range(3)] == [1, 1, 1]


def test_build_P_requires_window_vertex(ex1):
    with pytest.raises(PreconditionError):
        build_P(ex1, ray("a", 9), 3)


def test_build_I_dims(ex1, ex4, ex5):
    i1 = build_I(ex1, ray("a", 2), 4)
    assert [i1.dim(ray("a", i)) for i in range(5)] == [1, 1, 1, 0, 0]
    i4 = build_I(ex4, ray("b", 2), 3)
    assert i4.dim(ray("a", 1)) == 2
    i5 = build_I(ex5, ray("a", 0), 2)
    assert sorted(i5.dims.items()) == [(ray("a", 0), 1)]


def test_structure_map_composition(ex1):
    m = build_P(ex1, ray("a", 0), 3)
    w = m.window
    full = Path(ray("a", 0), tuple(arrow_in(w, f"alpha@{i}") for i in range(3)))
    tail = Path(ray("a", 1), (arrow_in(w, "alpha@1"), arrow_in(w, "alpha@2")))
    head = Path(ray("a", 0), (arrow_in(w, "alpha@0"),))
    assert apply_path(m, full) == ratmat.mat_mul(
        apply_path(m, tail), apply_path(m, head))


def test_build_Y(ex1, ex5):
    y1 = build_Y(ex1, cls_of(ex1, "(a,+)"), 3)
    assert [y1.dim(ray("a", i)) for i in range(4)] == [1, 1, 1, 1]
    assert all(y1.matrix(f"alpha@{i}") == [[1]] for i in range(3))
    y5 = build_Y(ex5, cls_of(ex5, "(a,+)"), 3)
    assert [y5.dim(ray("a", i)) for i in range(4)] == [1, 1, 1, 1]
    assert all(
        y5.dim(v) == 0 for v in y5.window.vertices if v.name == "b")


def test_build_Y_unbounded(ex4):
    with pytest.raises(InfiniteDimensionAt) as err:
        build_Y(ex4, cls_of(ex4, "(b,+)"), 2)
    assert err.value.vertex == ray("a", 0)


def test_Y_is_limit_of_injectives(ex1):
    y1 = build_Y(ex1, cls_of(ex1, "(a,+)"), 3)
    far = build_I(ex1, ray("a", 9), 12)
    assert [far.dim(ray("a", i)) for i in range(4)] == [
        y1.dim(ray("a", i)) for i in range(4)]


def test_socle_and_radical(ex1):
    i1 = build_I(ex1, ray("a", 2), 4)
    s = socle(i1)
    assert s.dims_dict() == {ray("a", 2): 1}
    assert sorted(s.boundary) == []
    inc = s.inclusion()
    assert inc.component(ray("a", 2)) == [[1]]
    p1 = build_P(ex1, ray("a", 0), 3)
    r = radical(p1)
    assert [r.dim(ray("a", i)) for i in range(4)] == [0, 1, 1, 1]
    assert socle(zero_rep(p1.window)).dims_dict() == {}


@pytest.mark.parametrize("fixture, top, side, flagged", [
    ("ex1", ray("a", 0), "socle", {ray("a", 3)}),
    ("ex2", ray("a", -3), "radical", {ray("a", -3)}),
    ("ex3", core("v0"), "socle", {core("v0"), ray("b", 3)}),
])
def test_socle_and_radical_boundary_flags(request, fixture, top, side,
                                          flagged):
    # a vertex is flagged when one of its out- (socle) or in-neighbours
    # (radical) lies outside the window, or there are infinitely many
    p = build_P(request.getfixturevalue(fixture), top, 3)
    sub = socle(p) if side == "socle" else radical(p)
    assert sub.boundary == frozenset(flagged)


def test_hom_from_projective(ex1, ex4):
    p1 = build_P(ex1, ray("a", 0), 3)
    h = hom_from_projective(p1, ray("a", 0))
    assert h.dimension == 1
    f = h.realize([1])
    assert isinstance(f, MorphismWindow)
    assert h.extract(f) == [1]
    z = zero_rep(p1.window)
    assert hom_from_projective(z, ray("a", 0)).dimension == 0
    i4 = build_I(ex4, ray("b", 2), 3)
    h2 = hom_from_projective(i4, ray("a", 1))
    assert h2.dimension == 2
    f2 = h2.realize([1, 2])
    assert h2.extract(f2) == [1, 2]


def test_hom_to_injective(ex1):
    p = build_P(ex1, ray("a", 0), 4)
    h = hom_to_injective(p, ray("a", 2))
    assert h.dimension == 1
    g = h.realize([3])
    assert h.extract(g) == [3]
    y = build_Y(ex1, cls_of(ex1, "(a,+)"), 3)
    assert hom_to_injective(y, ray("a", 1)).dimension == 1


def test_restriction_surjectivity(ex1, ex5):
    i13 = build_I(ex1, ray("a", 3), 4)
    p01 = Path(ray("a", 0), (arrow_in(i13.window, "alpha@0"),))
    assert check_restriction_surjective(i13, ray("a", 0), [p01])
    y5 = build_Y(ex5, cls_of(ex5, "(a,+)"), 3)
    p01y = Path(ray("a", 0), (arrow_in(y5.window, "alpha@0"),))
    assert check_restriction_surjective(y5, ray("a", 0), [p01y])
    # a projective fails: both arrows out of a0 hit independent targets
    p5 = build_P(ex5, ray("a", 0), 2)
    pa = Path(ray("a", 0), (arrow_in(p5.window, "alpha@0"),))
    pb = Path(ray("a", 0), (arrow_in(p5.window, "gamma0"),))
    assert not check_restriction_surjective(p5, ray("a", 0), [pa, pb])


def test_restriction_rejects_divisible_paths(ex5):
    p5 = build_P(ex5, ray("a", 0), 2)
    pa = Path(ray("a", 0), (arrow_in(p5.window, "alpha@0"),))
    longer = Path(ray("a", 0), (arrow_in(p5.window, "alpha@0"),
                                arrow_in(p5.window, "alpha@1")))
    with pytest.raises(PreconditionError):
        check_restriction_surjective(p5, ray("a", 0), [pa, longer])


def test_eventual_tail_bijectivity(ex1, ex5):
    y = build_Y(ex1, cls_of(ex1, "(a,+)"), 6)
    tb = eventual_tail_bijectivity(y, cls_of(ex1, "(a,+)"))
    assert (tb.ok, tb.z_index) == (True, 0)
    y5 = build_Y(ex5, cls_of(ex5, "(a,+)"), 6)
    tb5 = eventual_tail_bijectivity(y5, cls_of(ex5, "(a,+)"))
    assert (tb5.ok, tb5.z_index) == (True, 0)
    # a plain injective dies along the tail, so bijectivity fails beyond
    # its support; the report pins both indices
    i48 = build_I(ex1, ray("a", 4), 8)
    tb2 = eventual_tail_bijectivity(i48, cls_of(ex1, "(a,+)"))
    assert not tb2.ok
    assert tb2.failure_index == 5
    assert tb2.within_support_z == 0


def test_subrep_and_quotient(ex1):
    y = build_Y(ex1, cls_of(ex1, "(a,+)"), 5)
    sub = subrep_generated(y, {ray("a", 2): [[1]]})
    assert [sub.dim(ray("a", i)) for i in range(6)] == [0, 0, 1, 1, 1, 1]
    quo = quotient(y, sub)
    assert [quo.dim(ray("a", i)) for i in range(6)] == [1, 1, 0, 0, 0, 0]
    assert subrep_generated(y, {}).dims_dict() == {}
    allseeds = {v: [list(row) for row in ratmat.identity(y.dim(v))]
                for v in y.window.vertices if y.dim(v)}
    full = subrep_generated(y, allseeds)
    assert full.dims_dict() == dict(y.dims)
    assert quotient(y, full).dims == {}
    assert isinstance(sub.inclusion(), MorphismWindow)


def test_is_fd_rep_fp(ex1, ex3):
    i3 = build_I(ex3, ray("b", 1), 4)
    assert is_fd_rep_fp(ex3, i3) == (False, core("v0"))
    assert is_fd_rep_fp(ex1, build_I(ex1, ray("a", 2), 5)) == (True, None)
    assert is_fd_rep_fp(
        ex1, zero_rep(instantiate_window(ex1, 3))) == (True, None)


def test_is_fd_rep_fp_boundary_guard(ex1):
    full = build_Y(ex1, cls_of(ex1, "(a,+)"), 4)
    with pytest.raises(PreconditionError):
        is_fd_rep_fp(ex1, full)


def test_direct_sum_socle_multiplicities(ex1):
    dsum = direct_sum(build_I(ex1, ray("a", 1), 4),
                      build_I(ex1, ray("a", 2), 4))
    assert socle(dsum).dims_dict() == {ray("a", 1): 1, ray("a", 2): 1}


def test_morphism_window_checks_naturality(ex1):
    m = build_P(ex1, ray("a", 0), 2)
    good = MorphismWindow(m, m, {v: [[1]] for v in m.window.vertices})
    assert good.component(ray("a", 1)) == [[1]]
    with pytest.raises(ValueError):
        MorphismWindow(m, m, {ray("a", 0): [[1]], ray("a", 1): [[2]],
                              ray("a", 2): [[1]]})


def test_rep_window_validation(ex1):
    w = instantiate_window(ex1, 1)
    with pytest.raises(ValueError):
        RepWindow(w, {ray("a", 0): 1, ray("a", 1): 1},
                  {"alpha@0": [[1], [2]]}, {})


@pytest.mark.parametrize("dims, matrix", [
    (1, []),                  # no rows where dim(target) is 1
    (2, [[1, 0], [1]]),       # a short row
])
def test_rep_window_rejects_bad_matrix(ex1, dims, matrix):
    w = instantiate_window(ex1, 2)
    with pytest.raises(ValueError):
        RepWindow(w, {ray("a", 0): dims, ray("a", 1): dims},
                  {"alpha@0": matrix})


def test_dump_rep(ex1):
    m = build_P(ex1, ray("a", 0), 3)
    d = dump_rep(m)
    assert "vertex r:a:0 dim 1" in d
    assert "arrow alpha@0 1x1" in d
    assert "\n1/1\n" in d or d.endswith("1/1")
    assert d == dump_rep(build_P(ex1, ray("a", 0), 3))


def _rep_builds():
    # every distinct build of the benchmark's seed-1 and seed-2 reps
    # passes, and P and I at the small vertices of each fixture
    gen = load_gen()
    builds = {}
    for seed in (1, 2):
        for name, text, build, where, n, _op in gen.reps_pass(seed):
            builds.setdefault((text, build, where, n), name)
    out = [pytest.param(parse(text), build, where, n, id=name)
           for (text, build, where, n), name in builds.items()]
    for k in range(1, 6):
        q = load_quiver(f"ex{k}")
        for v in instantiate_window(q, 1).vertices:
            for build in ("P", "I"):
                out.append(pytest.param(
                    q, build, v, 3, id=f"ex{k}-{build}-{v.canonical_id()}"))
    return out


def _flag_rule(eng, m):
    """Support vertices that are a fan source of ``eng`` or have an
    out-neighbour outside the window."""
    return frozenset(
        v for v in m.window.vertices
        if m.dim(v) and (v in eng.fan_sources or not all(
            m.window.contains(t) for t in eng.out_neighbors(v).vertices(eng.q)))
    )


@pytest.mark.parametrize("q, build, where, n", _rep_builds())
def test_boundary_flags_follow_the_out_neighbour_rule(q, build, where, n):
    if build == "Y":
        classes, _ = engine_for(q).tail_classes()
        m = build_Y(q, next(c for c in classes if c.ray == q.rays[0][0]), n)
    else:
        at = where if isinstance(where, VertexRef) else ray(*where)
        try:
            m = (build_P if build == "P" else build_I)(q, at, n)
        except InfiniteDimensionAt:
            return
    eng = engine_for(q)
    assert socle(m).boundary == _flag_rule(eng, m)
    assert radical(m).boundary == _flag_rule(eng.op(), m)


# --- helpers called instead of their hand-rolled copies: references -------


def _reference_as_rep(sub):
    dims = sub.dims_dict()
    maps = {}
    for ar in sub.parent.window.arrows:
        sb = sub.bases.get(ar.source, ())
        tb = sub.bases.get(ar.target, ())
        m = ratmat.zeros(len(tb), len(sb))
        for col, u in enumerate(sb):
            w = ratmat.mat_vec(sub.parent.matrix(ar), list(u))
            coords = ratmat.coords_in_span([list(r) for r in tb], w)
            assert coords is not None, ar
            for row, c in enumerate(coords):
                m[row][col] = c
        maps[ar.canonical_id()] = m
    return RepWindow(sub.parent.window, dims, maps)


def _reference_quotient(m, sub):
    comp = {}
    for v in m.window.vertices:
        d = m.dim(v)
        if d == 0:
            continue
        rows = [list(r) for r in sub.bases.get(v, ())]
        cv = ratmat.complement_basis(rows, d)
        if cv:
            comp[v] = (rows, cv)
    dims = {v: len(cv) for v, (rows, cv) in comp.items()}
    maps = {}
    for ar in m.window.arrows:
        src = comp.get(ar.source)
        tgt = comp.get(ar.target)
        mmat = ratmat.zeros(
            len(tgt[1]) if tgt else 0, len(src[1]) if src else 0)
        if src and tgt:
            t_rows, t_comp = tgt
            full = ratmat.transpose(t_rows + t_comp)
            for col, u in enumerate(src[1]):
                coords = ratmat.solve(full, ratmat.mat_vec(m.matrix(ar), u))
                assert coords is not None, ar
                for row in range(len(t_comp)):
                    mmat[row][col] = coords[len(t_rows) + row]
        maps[ar.canonical_id()] = mmat
    return RepWindow(m.window, dims, maps)


def _fixture_builds():
    """P and I at the small vertices of each fixture, and Y of each of its
    classes."""
    out = []
    for k in range(1, 6):
        q = load_quiver(f"ex{k}")
        for v in instantiate_window(q, 1).vertices:
            for build in (build_P, build_I):
                try:
                    out.append(build(q, v, 3))
                except InfiniteDimensionAt:
                    pass
        for cls in engine_for(q).tail_classes()[0]:
            try:
                out.append(build_Y(q, cls, 4))
            except InfiniteDimensionAt:
                pass
    return out


def test_induced_maps_match_the_loop_per_map():
    checked = 0
    for m in _fixture_builds():
        support = m.support()
        subs = [socle(m), radical(m)]
        if support:
            v = support[-1]
            subs.append(subrep_generated(
                m, {v: [[int(j == 0) for j in range(m.dim(v))]]}))
        for sub in subs:
            assert sub.as_rep() == _reference_as_rep(sub)
            assert quotient(m, sub) == _reference_quotient(m, sub)
            checked += 1
    assert checked > 60


def _reference_tail_bijectivity(i, cls):
    """Eventual bijectivity with the forward orbit walked by hand."""
    window = i.window
    q = window.description
    eng = engine_for(q)
    cyc_len = len(cls.cycle)
    cushion = eng.bound * (cyc_len + 2) + 4
    arrow_ids = {ar.canonical_id() for ar in window.arrows}
    configs = {0: cls.start}
    k = 0
    while abs(configs[k].index) <= window.radius + cushion:
        configs[k + 1] = eng.orbit_step(cls, configs[k], k)[2]
        k += 1
    at = cls.start
    k = 0
    while True:
        f = eng._families[cls.cycle[(k - 1) % cyc_len]]
        i_fam = at.index - f.target.shift
        if f.lower is not None and i_fam < f.lower:
            break
        prev = f.source.resolve(i_fam)
        if not q.has_vertex(prev):
            break
        if abs(prev.index) > window.radius + cushion:
            break
        configs[k - 1] = prev
        k -= 1
        at = prev
    runs, cur = [], []
    for kk in sorted(configs):
        if window.contains(configs[kk]):
            cur.append(kk)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    run = (runs[-1] if cls.direction == "+" else runs[0]) if runs else []
    if not run or run[-1] - run[0] < 2:
        raise PreconditionError(
            f"window radius {window.radius} too small for class "
            f"{cls.class_id()}; need radius >= "
            f"{abs(cls.start.index) + 2 * cls.stride + 2}"
        )
    verts = [configs[kk] for kk in run]
    dims = [i.dim(v) for v in verts]
    bij = []
    for pos, kk in enumerate(run[:-1]):
        label, i_fam, _ = eng.orbit_step(cls, configs[kk], kk)
        aid = f"{label}@{i_fam}"
        assert aid in arrow_ids, aid
        mat = i.matrix(aid)
        square = dims[pos] == dims[pos + 1]
        bij.append(square and ratmat.rank(list(mat)) == dims[pos])
    if dims[-1] == 0:
        if all(d == 0 for d in dims):
            return TailBijectivity(
                True, z_index=verts[0].index, note="zero on the window tail")
        last_nz = max(p for p, d in enumerate(dims) if d)
        z_in = 0
        for pos in range(last_nz - 1, -1, -1):
            if not bij[pos]:
                z_in = pos + 1
                break
        return TailBijectivity(
            False,
            failure_index=verts[last_nz + 1].index,
            within_support_z=verts[z_in].index,
            note=(
                "tail dimension falls to zero at "
                f"{verts[last_nz + 1].canonical_id()}; maps are bijective "
                "only within the support"
            ),
        )
    z_pos = 0
    for pos in range(len(bij) - 1, -1, -1):
        if not bij[pos]:
            z_pos = pos + 1
            break
    if z_pos == len(bij):
        return TailBijectivity(
            False,
            failure_index=verts[-2].index,
            note="maps are not bijective up to the window edge",
        )
    return TailBijectivity(True, z_index=verts[z_pos].index)


def _bijectivity_outcome(fn, m, cls):
    try:
        return fn(m, cls)
    except PreconditionError as exc:
        return ("raises", str(exc))


def _tail_inputs():
    # (description, whether to build representations on it): the fixtures
    # and a stride-3 description with a descending class get built limits;
    # corpus fragments labelled interval finite and two ladders, whose
    # limits are large dense grids, get zero representations only
    gen = load_gen()
    out = [(load_quiver(f"ex{k}"), True) for k in range(1, 6)]
    out.append((parse(
        "quiver s3\nray a domain int\nray b domain int\n"
        "family down3: a[i+3] -> a[i] for all i\n"
        "family up3: b[i] -> b[i+3] for all i\n"
        "arrow x: b[1] -> a[1]\n"), True))
    finite = [j for j, x in enumerate(gen.corpus_labels()) if x == "f"]
    out += [(parse(gen.fragment(j)[0]), False) for j in finite[:30]]
    for rays, shift, dom in ((2, 1, "int"), (3, 2, "int")):
        out.append((parse(gen.ladder_text(random.Random(0), rays, shift, dom,
                                          f"ladder{rays}s{shift}{dom}")[0]),
                    False))
    return [pytest.param(q, built, id=q.name) for q, built in out]


@pytest.mark.parametrize("q, built", _tail_inputs())
def test_tail_bijectivity_matches_the_orbit_walk(q, built):
    # on zero representations of several radii, too small ones included,
    # and on limits of the class itself and of a plain injective
    eng = engine_for(q)
    if eng.cycle_witness() is not None:
        return
    for cls in eng.tail_classes()[0]:
        n0 = abs(cls.start.index)
        reps = [zero_rep(instantiate_window(q, max(0, n0 + k)))
                for k in (-8, 0, 2, 5, 11)]
        for build in (lambda: build_Y(q, cls, n0 + 4),
                      lambda: build_I(q, cls.start, n0 + 6)) * built:
            try:
                reps.append(build())
            except InfiniteDimensionAt:
                pass
        for m in reps:
            assert _bijectivity_outcome(eventual_tail_bijectivity, m, cls) == (
                _bijectivity_outcome(_reference_tail_bijectivity, m, cls)), cls
