"""Property-based invariants: duality, dimension laws, exact algebra."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fpquiver import linrep, oracle, ratmat, regions
from fpquiver.patterns import Finite, IndexSet, Infinite
from fpquiver.qdl import instantiate_window

SEEDS = st.integers(min_value=0, max_value=10**6)


def usable_quiver(seed):
    """A random acyclic, interval finite description, or None."""
    q = oracle.random_description(random.Random(seed))
    if regions.oriented_cycle_witness(q) is not None:
        return None
    ok, _, _ = regions.engine_for(q).interval_finite_witness()
    return q if ok else None


def window_verts(q, radius, rng, k):
    verts = list(instantiate_window(q, radius).vertices)
    if len(verts) <= k:
        return verts
    return rng.sample(verts, k)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_duality_pred_succ(seed):
    q = usable_quiver(seed)
    if q is None:
        return
    op = q.opposite()
    rng = random.Random(seed + 1)
    for v in window_verts(q, 2, rng, 3):
        pred = regions.predecessors(q, v)
        succ_op = regions.successors(op, v)
        assert pred.in_window(q, 6) == succ_op.in_window(op, 6)
        assert isinstance(pred.cardinality(q), Infinite) == isinstance(
            succ_op.cardinality(op), Infinite)


@settings(max_examples=30, deadline=None)
@given(SEEDS)
def test_duality_path_count(seed):
    q = usable_quiver(seed)
    if q is None:
        return
    op = q.opposite()
    rng = random.Random(seed + 2)
    verts = window_verts(q, 2, rng, 4)
    for a in verts:
        for b in verts:
            assert regions.path_count(q, a, b) == regions.path_count(op, b, a)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_dim_law_against_brute(seed):
    q = usable_quiver(seed)
    if q is None:
        return
    rng = random.Random(seed + 3)
    w = instantiate_window(q, 3)
    g = oracle.from_window(w)
    for a in window_verts(q, 3, rng, 2):
        groups = oracle.paths_from(g, a)
        m = linrep.build_P(q, a, 3)
        for b in w.vertices:
            assert m.dim(b) == len(groups.get(b, ()))
        assert linrep.socle(m).dims_dict() == oracle.brute_socle(m)
        assert linrep.radical(m).dims_dict() == oracle.brute_radical(m)
        groups = oracle.paths_from(g, a, reverse=True)
        m = linrep.build_I(q, a, 3)
        for b in w.vertices:
            assert m.dim(b) == len(groups.get(b, ()))
        assert linrep.socle(m).dims_dict() == oracle.brute_socle(m)
        assert linrep.radical(m).dims_dict() == oracle.brute_radical(m)


@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_hom_round_trips(seed):
    q = usable_quiver(seed)
    if q is None:
        return
    rng = random.Random(seed + 4)
    for a in window_verts(q, 2, rng, 2):
        m = linrep.build_I(q, a, 2)
        for b in window_verts(q, 2, rng, 2):
            h = linrep.hom_from_projective(m, b)
            if h.dimension:
                x = [rng.randint(-3, 3) for _ in range(h.dimension)]
                assert h.extract(h.realize(x)) == x
            h = linrep.hom_to_injective(m, b)
            if h.dimension:
                x = [rng.randint(-3, 3) for _ in range(h.dimension)]
                assert h.extract(h.realize(x)) == x


def fraction_matrices(max_n=4):
    entry = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)
    return st.integers(1, max_n).flatmap(
        lambda c: st.lists(
            st.lists(entry, min_size=c, max_size=c), min_size=1, max_size=4))


def sparse_matrices(max_n=12):
    """Matrices shaped like path-representation maps: at most one nonzero
    per row, or a low density of fractional entries."""
    entry = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)
    dims = st.tuples(st.integers(1, max_n), st.integers(1, max_n))

    def one_per_row(rc):
        cell = st.none() | st.tuples(st.integers(0, rc[1] - 1), entry)
        return st.lists(cell, min_size=rc[0], max_size=rc[0]).map(
            lambda cells: _filled(rc, [
                (i, c[0], c[1]) for i, c in enumerate(cells) if c]))

    def low_density(rc):
        cell = st.tuples(
            st.integers(0, rc[0] - 1), st.integers(0, rc[1] - 1), entry)
        return st.lists(cell, max_size=rc[0] * rc[1] // 8 + 1).map(
            lambda cells: _filled(rc, cells))

    return dims.flatmap(lambda rc: one_per_row(rc) | low_density(rc))


def _filled(rc, cells):
    a = ratmat.zeros(*rc)
    for i, j, x in cells:
        a[i][j] = x
    return a


MATRICES = fraction_matrices() | sparse_matrices()


@settings(max_examples=100, deadline=None)
@given(MATRICES)
def test_rank_matches_brute_and_transpose(rows):
    a = ratmat.mat(rows)
    r = ratmat.rank(a)
    assert r == oracle.brute_rank(a)
    assert r == ratmat.rank(ratmat.transpose(a))


@settings(max_examples=100, deadline=None)
@given(MATRICES)
def test_kernel_annihilates(rows):
    a = ratmat.mat(rows)
    cols = len(rows[0])
    basis = ratmat.kernel_basis(a, cols=cols)
    assert len(basis) == cols - ratmat.rank(a)
    for v in basis:
        assert ratmat.mat_vec(a, v) == [0] * len(rows)


@settings(max_examples=100, deadline=None)
@given(MATRICES.flatmap(lambda a: st.tuples(st.just(a), st.permutations(a))))
def test_rref_independent_of_row_order(pair):
    a, shuffled = pair
    assert ratmat.rref(shuffled) == ratmat.rref(a)


@settings(max_examples=60, deadline=None)
@given(MATRICES)
def test_complement_basis_is_greedy(rows):
    # reference: take e_c in increasing c unless the span already has it
    n = len(rows[0])
    want = []
    for c in range(n):
        e = [Fraction(int(i == c)) for i in range(n)]
        if not ratmat.in_span(list(rows) + want, e):
            want.append(e)
    assert ratmat.complement_basis(rows, n) == want


@settings(max_examples=50, deadline=None)
@given(fraction_matrices())
def test_span_basis_idempotent(rows):
    b1 = ratmat.span_basis(rows)
    assert ratmat.span_basis(b1) == b1
    for v in rows:
        assert ratmat.in_span(b1, v)


def index_sets():
    finite = st.lists(st.integers(-8, 8), max_size=4).map(IndexSet.of)
    up = st.integers(-5, 5).map(IndexSet.up_from)
    down = st.integers(-5, 5).map(IndexSet.down_from)
    base = st.one_of(finite, up, down)
    return st.tuples(base, base).map(lambda p: p[0].union(p[1]))


@settings(max_examples=60, deadline=None)
@given(index_sets(), index_sets())
def test_index_set_algebra(s, t):
    union = s.union(t)
    inter = s.intersect(t)
    diff = s.difference(t)
    for i in range(-25, 26):
        assert union.contains(i) == (s.contains(i) or t.contains(i))
        assert inter.contains(i) == (s.contains(i) and t.contains(i))
        assert diff.contains(i) == (s.contains(i) and not t.contains(i))


@settings(max_examples=40, deadline=None)
@given(index_sets(), st.integers(-4, 4))
def test_index_set_shift(s, k):
    moved = s.shift(k)
    for i in range(-20, 21):
        assert moved.contains(i + k) == s.contains(i)


def strided_tails():
    """(threshold, period, residues) with period 1-3 and residues nonempty."""
    return st.integers(1, 3).flatmap(lambda p: st.tuples(
        st.integers(-6, 6), st.just(p),
        st.frozensets(st.integers(0, p - 1), min_size=1)))


def strided_index_sets():
    return st.builds(
        lambda up, down, mid: IndexSet.make(up=up, down=down, mid=mid),
        st.none() | strided_tails(), st.none() | strided_tails(),
        st.lists(st.integers(-8, 8), max_size=4))


def mirror(s):
    """{-i : i in s}, built from the public fields."""
    def flip(tail):
        if tail is None:
            return None
        t, p, rs = tail
        return (-t, p, frozenset(-r % p for r in rs))

    return IndexSet.make(up=flip(s.down), down=flip(s.up),
                         mid=[-i for i in s.mid])


@settings(max_examples=100, deadline=None)
@given(strided_index_sets(), strided_index_sets(), st.integers(-4, 4))
def test_strided_index_set_algebra(s, t, k):
    union, inter, diff = s.union(t), s.intersect(t), s.difference(t)
    moved = s.shift(k)
    for i in range(-40, 41):
        assert union.contains(i) == (s.contains(i) or t.contains(i))
        assert inter.contains(i) == (s.contains(i) and t.contains(i))
        assert diff.contains(i) == (s.contains(i) and not t.contains(i))
        assert moved.contains(i) == s.contains(i - k)
        assert mirror(s).contains(i) == s.contains(-i)
    ms, mt = mirror(s), mirror(t)
    assert mirror(union) == ms.union(mt)
    assert mirror(inter) == ms.intersect(mt)
    assert mirror(diff) == ms.difference(mt)
    assert mirror(moved) == ms.shift(-k)


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_window_counts_monotone(seed):
    q = usable_quiver(seed)
    if q is None:
        return
    rng = random.Random(seed + 5)
    verts = window_verts(q, 2, rng, 3)
    eng = regions.engine_for(q)
    for a in verts:
        for b in verts:
            c3 = eng._window_count(3, a, b)
            c5 = eng._window_count(5, a, b)
            assert c3 <= c5
            card = eng.path_count(a, b)
            if isinstance(card, Finite):
                assert c5 <= card.count
