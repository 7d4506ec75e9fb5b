"""Exact rational linear algebra."""

from fractions import Fraction

import pytest

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
