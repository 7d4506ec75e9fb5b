"""Exact linear algebra over the rationals.

Dense matrices are lists of rows of Fractions.  Every zero this module
writes into a dense grid is one shared constant, ``_ZERO``; a Fraction is
immutable and a grid is changed only by replacing its entries, so the
sharing is safe.

Elimination is sparse exact Gauss-Jordan on rows held as {column:
Fraction} dicts of their nonzero entries, and it has one core
(``_echelon``/``_reduce``) with two ways in.  The dense functions
(``rank``, ``rref``, ``kernel_basis``, ``solve``, ``span_basis``,
``complement_basis``) convert each input row once: the shared zero is
skipped by identity, and only the other entries (nonzeros, and zeros
computed or built elsewhere) are truth-tested and, unless already
Fractions, converted.  The ``*_rows`` functions take row dicts, the form
in which ``linrep`` stores its arrow maps, and copy each one without its
zero entries, so a row costs its stored entries and never the width of the
matrix; the caller's rows are never changed, and kernels and spans come
back as row dicts.  Arithmetic is then spent only on nonzeros: clearing a
pivot column drops it exactly, and a pivot row is divided by its pivot
only when that pivot is not 1, so the 0/1 maps of path representations
are eliminated without a division.  Ranks, kernels, solutions and reduced bases are read off the
reduced row echelon form, which is unique, so they do not depend on the
order of elimination or on which way the rows came in.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _from_dense(a):
    """Each dense row as a fresh {col: Fraction} dict of its nonzeros."""
    for row in a:
        # the shared zero is skipped by identity, before any Fraction code
        yield {c: x if type(x) is Fraction else Fraction(x)
               for c, x in enumerate(row) if x is not _ZERO and x}


def _from_rows(rows):
    """Each nonempty row dict copied without its zero entries, values
    Fractions; the shared one is kept by identity, before any Fraction
    code."""
    for r in rows:
        if r:
            yield {c: x if type(x) is Fraction else Fraction(x)
                   for c, x in r.items() if x is _ONE or x}


def _echelon(rows):
    """Sparse forward elimination: {pivot column: row} for the row space.

    ``rows`` yields {col: Fraction} dicts of nonzero entries that this
    call owns (``_from_dense`` or ``_from_rows``).  Each pivot row has a 1
    at its pivot, the least column it holds.  A new row is reduced by
    clearing its least pivot column until none is left; a pivot row holds
    no column left of its pivot, so each subtraction only adds columns to
    the right of the one it clears.  A row whose pivot entry is the
    shared one is known to be a unit pivot row without a comparison.
    """
    piv = {}
    pivots = piv.keys()
    for r in rows:
        # the pivot columns r holds, found by one set intersection in C
        hit = pivots & r.keys()
        while hit:
            c = min(hit)
            _clear(r, c, piv[c])
            hit = pivots & r.keys()
        if r:
            p = min(r)
            inv = r[p]
            # r is owned here, so a unit pivot row is kept as is
            piv[p] = r if inv is _ONE or inv == 1 else {
                c: x / inv for c, x in r.items()}
    return piv


def _reduce(rows):
    """The nonzero rows of rref as (pivot column, row dict) pairs.

    Back-substitution runs once, from the rightmost pivot leftwards, so
    every row it subtracts is already reduced and adds no pivot column.
    """
    piv = _echelon(rows)
    order = sorted(piv)
    for p in reversed(order):
        r = piv[p]
        if len(r) > 1:
            for c in [c for c in r if c != p and c in piv]:
                _clear(r, c, piv[c])
    return [(p, piv[p]) for p in order]


def _clear(r, c, row):
    """r -= r[c] * row in place, ``row`` the pivot row of column c, so
    with a 1 there: r loses column c exactly, and its other entries take
    the rest of the row, dropping any that cancel."""
    f = r.pop(c)
    for j, y in row.items():
        if j != c:
            x = r.get(j, _ZERO) - f * y
            if x:
                r[j] = x
            else:
                r.pop(j, None)


def _dense(rows, cols):
    """Length-``cols`` dense rows from row dicts."""
    out = []
    for r in rows:
        d = [_ZERO] * cols
        for c, x in r.items():
            d[c] = x
        out.append(d)
    return out


def _kernel(rows, cols):
    """Basis of the kernel from the (pivot, row) pairs of an rref, as row
    dicts, one per free column in increasing order: 1 there and -x at the
    pivot of each row holding x in that column."""
    pivots = {p for p, _ in rows}
    out = {fc: {fc: _ONE} for fc in range(cols) if fc not in pivots}
    for p, r in rows:
        for c, x in r.items():
            if c != p:
                out[c][p] = -x
    return list(out.values())


def _solve(rows, cols):
    """One solution X of A X = B, from owned row dicts of [A | B] with A in
    the columns below ``cols``: one dict {j: entry} of nonzeros per unknown,
    free unknowns 0; None unless every column of B is in A's column space.

    A reduced row whose pivot lies in B is a combination of the equations
    that reads 0 = 1 in that column of B; otherwise every pivot is an
    unknown, and rref's uniqueness makes column j of the answer the
    solution of A x = B[:, j] alone."""
    x = [{} for _ in range(cols)]
    for p, r in _reduce(rows):
        if p >= cols:
            return None
        x[p] = {c - cols: v for c, v in r.items() if c >= cols}
    return x


def rank(a):
    return len(_echelon(_from_dense(a)))


def rank_rows(rows):
    """Rank of the matrix with these row dicts."""
    return len(_echelon(_from_rows(rows)))


def rref(a):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    rows = _reduce(_from_dense(a))
    return (_dense((r for _, r in rows), len(a[0]) if a else 0),
            [p for p, _ in rows])


def kernel_basis(a, cols=None):
    """Basis of {x : a x = 0} as length-``cols`` vectors."""
    if cols is None:
        cols = len(a[0]) if a else 0
    return _dense(_kernel(_reduce(_from_dense(a)), cols), cols)


def kernel_rows(rows, cols):
    """``kernel_basis`` of the ``cols``-column matrix with these row dicts,
    each basis vector a dict of its nonzeros."""
    return _kernel(_reduce(_from_rows(rows)), cols)


def solve(a, b):
    """One solution of a x = b, or None."""
    if len(a) != len(b):
        raise ValueError("shape mismatch in linear system")
    cols = len(a[0]) if a else 0
    x = _solve(_from_dense(list(row) + [bb] for row, bb in zip(a, b)), cols)
    return None if x is None else [r.get(0, _ZERO) for r in x]


def solve_rows(rows, cols):
    """One solution X of A X = B given the row dicts of [A | B], A in the
    columns below ``cols``: X as one {j: entry} dict of nonzeros per
    unknown (free unknowns 0), or None if some column of B is not in the
    column space of A."""
    return _solve(_from_rows(rows), cols)


def span_basis(vectors):
    """Reduced basis of the span of the given row vectors."""
    if not vectors:
        return []
    return _dense((r for _, r in _reduce(_from_dense(vectors))),
                  len(vectors[0]))


def span_rows(rows):
    """``span_basis`` of vectors given as row dicts, each basis vector a
    dict of its nonzeros."""
    return [r for _, r in _reduce(_from_rows(rows))]


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
    last = {n - 1 - p for p in _echelon(_from_dense(row[::-1] for row in u))}
    return [
        [Fraction(1) if i == c else _ZERO for i in range(n)]
        for c in range(n)
        if c not in last
    ]
