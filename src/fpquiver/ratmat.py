"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions.  Every zero this module writes
into a grid is one shared constant, ``_ZERO``; a Fraction is immutable and
a grid is changed only by replacing its entries, so the sharing is safe.
Elimination is sparse exact Gauss-Jordan: each input row is scanned once
and kept as a {column: Fraction} dict of its nonzero entries.  The scan
costs one identity test per stored entry: the shared zero is skipped
there, and only the other entries (nonzeros, and zeros computed or built
elsewhere) are truth-tested and, unless already Fractions, converted.
Arithmetic is then spent only on nonzeros, and a pivot row is divided by
its pivot only when that pivot is not 1, so the 0/1 maps of path
representations are eliminated without a division.
Ranks, kernels, solutions and reduced bases are read off the reduced row
echelon form, which is unique, so they do not depend on the order of
elimination.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def mat(rows):
    """Normalized copy with Fraction entries."""
    return [[Fraction(x) for x in row] for row in rows]


def zeros(r, c):
    return [[_ZERO] * c for _ in range(r)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def shape(a):
    return (len(a), len(a[0]) if a else 0)


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_eq(a, b):
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def _echelon(a):
    """Sparse forward elimination: {pivot column: row} for the row space.

    Each row is a {col: Fraction} dict holding only nonzero entries, with
    a 1 at its pivot, the least column it holds.  A new row is reduced by
    clearing its least pivot column until none is left; a pivot row holds
    no column left of its pivot, so each subtraction only adds columns to
    the right of the one it clears.
    """
    piv = {}
    for row in a:
        # the shared zero is skipped by identity, before any Fraction code
        r = {c: x if type(x) is Fraction else Fraction(x)
             for c, x in enumerate(row) if x is not _ZERO and x}
        while True:
            c = min((c for c in r if c in piv), default=None)
            if c is None:
                break
            _axpy(r, -r[c], piv[c])
        if r:
            p = min(r)
            inv = r[p]
            # r is this loop's own dict, so a unit pivot row is kept as is
            piv[p] = r if inv == 1 else {c: x / inv for c, x in r.items()}
    return piv


def _reduce(a):
    """The nonzero rows of rref(a) as (pivot column, row dict) pairs.

    Back-substitution runs once, from the rightmost pivot leftwards, so
    every row it subtracts is already reduced and adds no pivot column.
    """
    piv = _echelon(a)
    order = sorted(piv)
    for p in reversed(order):
        r = piv[p]
        for c in [c for c in r if c != p and c in piv]:
            _axpy(r, -r[c], piv[c])
    return [(p, piv[p]) for p in order]


def _axpy(r, f, row):
    """r += f * row in place, dropping entries that cancel."""
    for c, y in row.items():
        x = r.get(c, 0) + f * y
        if x:
            r[c] = x
        else:
            r.pop(c, None)


def _dense(rows, cols):
    out = []
    for _, r in rows:
        d = [_ZERO] * cols
        for c, x in r.items():
            d[c] = x
        out.append(d)
    return out


def rank(a):
    return len(_echelon(a))


def rref(a):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    rows = _reduce(a)
    return _dense(rows, len(a[0]) if a else 0), [p for p, _ in rows]


def kernel_basis(a, cols=None):
    """Basis of {x : a x = 0} as length-``cols`` vectors."""
    if cols is None:
        cols = len(a[0]) if a else 0
    if not a or cols == 0:
        return identity(cols)
    rows = _reduce(a)
    pivots = {p for p, _ in rows}
    out = {}
    for fc in range(cols):
        if fc not in pivots:
            v = [_ZERO] * cols
            v[fc] = Fraction(1)
            out[fc] = v
    for p, r in rows:
        for c, x in r.items():
            if c != p:
                out[c][p] = -x
    return list(out.values())


def solve(a, b):
    """One solution of a x = b, or None."""
    if len(a) != len(b):
        raise ValueError("shape mismatch in linear system")
    cols = len(a[0]) if a else 0
    x = [_ZERO] * cols
    for p, r in _reduce([list(row) + [bb] for row, bb in zip(a, b)]):
        if p == cols:
            return None
        x[p] = r.get(cols, _ZERO)
    return x


def span_basis(vectors):
    """Reduced basis of the span of the given row vectors."""
    if not vectors:
        return []
    return _dense(_reduce(vectors), len(vectors[0]))


def in_span(vectors, v):
    base = span_basis(vectors)
    return span_basis(base + [list(v)]) == base or (
        not any(Fraction(x) != 0 for x in v)
    )


def coords_in_span(vectors, v):
    """Coefficients expressing v over the given vectors, or None."""
    if not vectors:
        return [] if all(Fraction(x) == 0 for x in v) else None
    return solve(transpose(mat(vectors)), v)


def intersect_spaces(u, v):
    """Zassenhaus: rref of [[U U],[V 0]]; zero-left rows carry the meet."""
    if not u or not v:
        return []
    n = len(u[0])
    block = [list(row) + list(row) for row in u]
    block += [list(row) + [_ZERO] * n for row in v]
    m, _ = rref(block)
    out = []
    for row in m:
        if all(x == 0 for x in row[:n]) and any(x != 0 for x in row[n:]):
            out.append(row[n:])
    return span_basis(out)


def complement_basis(u, n):
    """Coordinate vectors extending span(u) to the full space.

    e_c is taken, in increasing c, unless it lies in span(u) plus the e_j
    before it, i.e. unless c is the last nonzero column of some vector of
    span(u); those columns are the pivots of u with its columns reversed.
    """
    last = {n - 1 - p for p in _echelon([row[::-1] for row in u])}
    return [
        [Fraction(1) if i == c else _ZERO for i in range(n)]
        for c in range(n)
        if c not in last
    ]
