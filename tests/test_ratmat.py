"""Exact rational linear algebra."""

import random
from fractions import Fraction

import pytest

from fpquiver import oracle
from fpquiver import ratmat as rm


def test_mat_normalizes_to_fractions():
    a = rm.mat([[1, 2], [3, 4]])
    assert a[0][0] == Fraction(1)
    assert isinstance(a[1][1], Fraction)


def test_shapes_and_constructors():
    assert rm.shape(rm.zeros(2, 3)) == (2, 3)
    assert rm.identity(3)[1][1] == 1
    assert rm.identity(3)[0][1] == 0
    assert rm.shape([]) == (0, 0)


def test_mat_mul_and_vec():
    a = rm.mat([[1, 2], [0, 1]])
    b = rm.mat([[1, 0], [3, 1]])
    assert rm.mat_mul(a, b) == rm.mat([[7, 2], [3, 1]])
    assert rm.mat_vec(a, [1, 1]) == [Fraction(3), Fraction(1)]


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        rm.mat_mul(rm.zeros(2, 3), rm.zeros(2, 3))


def test_transpose_involution():
    a = rm.mat([[1, 2, 3], [4, 5, 6]])
    assert rm.transpose(rm.transpose(a)) == a
    assert rm.transpose([]) == []


def test_rank_and_rref():
    a = rm.mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rm.rank(a) == 2
    rows, pivots = rm.rref(a)
    assert rows[0][0] == 1
    assert pivots == [0, 1]
    assert rm.rank(rows) == 2
    assert rm.rank(rm.identity(4)) == 4
    assert rm.rank([]) == 0
    # reducing the last row by the first brings in column 2, a pivot
    # found after the first row, which must be cleared in turn
    fill = rm.mat([[1, 0, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0]])
    assert rm.rank(fill) == 3
    assert rm.rref(fill) == (rm.mat([[1, 0, 0, 0], [0, 0, 1, 0],
                                     [0, 0, 0, 1]]), [0, 2, 3])


def test_rank_fractional_pivots():
    a = rm.mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
    assert rm.rank(a) == 1


def test_solve_and_kernel():
    a = rm.mat([[2, 0], [0, 3]])
    assert rm.solve(a, [4, 9]) == [Fraction(2), Fraction(3)]
    assert rm.solve(rm.mat([[1, 1], [1, 1]]), [1, 2]) is None
    k = rm.kernel_basis(rm.mat([[1, 1, 0]]))
    assert len(k) == 2
    for v in k:
        assert rm.mat_vec(rm.mat([[1, 1, 0]]), v) == [0]


def test_solve_rejects_mismatched_right_hand_side():
    with pytest.raises(ValueError):
        rm.solve(rm.identity(2), [5, 6, 7])
    with pytest.raises(ValueError):
        rm.solve(rm.identity(2), [5])


def test_kernel_of_empty_matrix_is_full_space():
    k = rm.kernel_basis([], cols=3)
    assert k == rm.identity(3)


def test_span_basis_canonical():
    u = rm.span_basis([[1, 1], [2, 2], [0, 1]])
    v = rm.span_basis([[0, 1], [1, 0]])
    assert u == v
    assert rm.span_basis([]) == []


def test_in_span_and_coords():
    basis = [[1, 0, 1], [0, 1, 0]]
    assert rm.in_span(basis, [2, 3, 2])
    assert not rm.in_span(basis, [0, 0, 1])
    coords = rm.coords_in_span(basis, [2, 3, 2])
    assert coords is not None
    recon = [sum(c * b[j] for c, b in zip(coords, basis)) for j in range(3)]
    assert recon == [2, 3, 2]
    assert rm.coords_in_span(basis, [0, 0, 1]) is None


def test_sum_and_intersection_dims():
    u = [[1, 0, 0], [0, 1, 0]]
    v = [[0, 1, 0], [0, 0, 1]]
    i = rm.intersect_spaces(u, v)
    assert len(i) == 1
    assert rm.in_span(i, [0, 1, 0])


def test_complement_basis():
    u = [[1, 1, 0]]
    c = rm.complement_basis(u, 3)
    assert len(c) == 2
    assert rm.rank(rm.mat(list(u) + list(c))) == 3


def test_mat_eq_and_is_zero():
    assert rm.mat_eq(rm.zeros(2, 2), [[0, 0], [0, 0]])
    assert rm.is_zero(rm.zeros(3, 1))
    assert not rm.is_zero(rm.identity(1))


# --- the shared zero: elimination must not depend on how a zero is spelled

# every kind of zero a grid can hold (the shared one, a fresh Fraction, a
# computed one, an int), and nonzeros that are units, Fractions and ints
_ENTRIES = (
    lambda: rm._ZERO,
    lambda: Fraction(0),
    lambda: Fraction(1) - Fraction(1),
    lambda: 0,
    lambda: Fraction(1),
    lambda: Fraction(-1),
    lambda: 1,
    lambda: -1,
    lambda: Fraction(1, 2),
    lambda: Fraction(-3, 2),
)


def _random_matrix(rng):
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    # mostly zeros, as in the path maps, with a denser draw now and then
    zero_share = rng.choice((0.3, 0.6, 0.9))
    return [[rng.choice(_ENTRIES[:4])() if rng.random() < zero_share
             else rng.choice(_ENTRIES)() for _ in range(cols)]
            for _ in range(rows)]


def _fresh_zeros(a):
    """The same matrix with every zero a distinct new Fraction(0)."""
    return [[Fraction(0) if x == 0 else x for x in row] for row in a]


def _snapshot(a):
    return [(row, list(row)) for row in a]


def _unchanged(a, snap):
    """Neither the rows nor the entries of ``a`` were replaced."""
    return len(a) == len(snap) and all(
        row is old_row and len(row) == len(entries)
        and all(x is y for x, y in zip(row, entries))
        for row, (old_row, entries) in zip(a, snap))


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@pytest.mark.parametrize("seed", range(300))
def test_elimination_matches_brute_force_for_every_zero(seed):
    rng = random.Random(seed)
    a = _random_matrix(rng)
    rows, cols = len(a), len(a[0])
    snap = _snapshot(a)
    r = rm.rank(a)
    assert r == oracle.brute_rank(a)
    assert _unchanged(a, snap)

    kernel = rm.kernel_basis(a)
    assert _unchanged(a, snap)
    assert len(kernel) == cols - r
    assert _all_fractions(kernel)
    for v in kernel:
        assert all(x == 0 for x in rm.mat_vec(a, v))
    assert rm.rank(kernel) == len(kernel)

    fresh = _fresh_zeros(a)
    reduced, pivots = rm.rref(a)
    assert _unchanged(a, snap)
    assert (reduced, pivots) == rm.rref(fresh)
    assert len(pivots) == r and _all_fractions(reduced)
    basis = rm.span_basis(a)
    assert _unchanged(a, snap)
    assert basis == rm.span_basis(fresh) == reduced
    assert _all_fractions(basis)

    # a solvable right-hand side, and whatever one random vector gives
    x0 = [rng.choice(_ENTRIES)() for _ in range(cols)]
    for b in (rm.mat_vec(a, x0), [rng.choice(_ENTRIES)() for _ in range(rows)]):
        b_snap = list(b)
        x = rm.solve(a, b)
        assert _unchanged(a, snap) and all(u is v for u, v in zip(b, b_snap))
        if x is None:
            assert oracle.brute_rank([list(row) + [bb] for row, bb in
                                      zip(a, b)]) > r
        else:
            assert len(x) == cols and all(type(c) is Fraction for c in x)
            assert rm.mat_vec(a, x) == [Fraction(bb) for bb in b]
    assert rm.solve(a, rm.mat_vec(a, x0)) is not None

    comp = rm.complement_basis(a, cols)
    assert _unchanged(a, snap)
    assert len(comp) == cols - r and _all_fractions(comp)
    assert oracle.brute_rank(list(a) + comp) == cols
    assert comp == rm.complement_basis(fresh, cols)


def test_shared_zero_fills_the_constructors():
    assert all(x is rm._ZERO for row in rm.zeros(3, 4) for x in row)
    ident = rm.identity(3)
    assert all(ident[i][j] is rm._ZERO for i in range(3) for j in range(3)
               if i != j)
    rows, _ = rm.rref(rm.mat([[1, 2, 0], [0, 0, 1]]))
    assert rows[0][2] is rm._ZERO and rows[1][0] is rm._ZERO


def test_unit_pivot_rows_keep_their_entries():
    half = Fraction(1, 2)
    a = [[rm._ZERO, Fraction(1), half], [Fraction(2), rm._ZERO, rm._ZERO]]
    rows, pivots = rm.rref(a)
    assert pivots == [0, 1]
    assert rows == [[1, 0, 0], [0, 1, half]]
    # the undivided unit-pivot row hands the input's Fraction through
    assert rows[1][2] is half
    assert a == [[0, 1, half], [2, 0, 0]]


@pytest.mark.parametrize("seed", range(100))
def test_row_dict_functions_match_the_dense_ones(seed):
    rng = random.Random(seed)
    a = _random_matrix(rng)
    rows, cols = len(a), len(a[0])
    # row dicts holding every entry but the shared zero: other zeros stay
    dicts = [{c: x for c, x in enumerate(row) if x is not rm._ZERO}
             for row in a]
    copies = [dict(r) for r in dicts]
    assert rm.rank_rows(dicts) == rm.rank(a)
    # the row-dict answers hold nonzero Fractions, densely the same
    for got, want in ((rm.kernel_rows(dicts, cols), rm.kernel_basis(a)),
                      (rm.span_rows(dicts), rm.span_basis(a))):
        assert [[r.get(c, 0) for c in range(cols)] for r in got] == want
        assert all(type(x) is Fraction and x for r in got for x in r.values())
    # several right-hand sides at once give each one's solve
    bs = [rm.mat_vec(a, [rng.choice(_ENTRIES)() for _ in range(cols)]),
          [rng.choice(_ENTRIES)() for _ in range(rows)],
          [rm._ZERO] * rows]
    system = [{**r, **{cols + j: b[i] for j, b in enumerate(bs)}}
              for i, r in enumerate(dicts)]
    x = rm.solve_rows(system, cols)
    each = [rm.solve(a, b) for b in bs]
    if any(s is None for s in each):
        assert x is None
    else:
        assert len(x) == cols
        assert [[r.get(j, 0) for r in x] for j in range(len(bs))] == each
        assert all(type(v) is Fraction and v for r in x for v in r.values())
    assert dicts == copies
