"""Finite-dimensional representation windows with exact arithmetic.

A RepWindow stores the fibers and arrow maps of a representation over one
instantiated window.  The standard objects are built here: projectives
(fibers spanned by paths out of a vertex), injectives (dual paths into a
vertex) and tail-class limits (stabilized path spaces into a far tail
checkpoint).  All entries are Fractions, so the rank arguments behind the
surjectivity and bijectivity checks are exact.

Each path basis is built once, by length, each path an arrow-id tuple
linked to the path it extends: the tuples order the basis (as
``Path.sort_key`` does) and spell the basis labels (as ``Path.describe``
does, on first read), and the links give the 0/1 arrow maps.  Each arrow
map is stored once, as sparse rows (``RepWindow.rows``), which the builders
write directly and which ``socle``, ``radical``, ``subrep_generated``,
sub-representations, quotients, the hom spaces, the naturality check and
``dump_rep`` read, eliminating through ``ratmat``'s row-dict functions;
so their cost follows the nonzeros.  The dense grids (``RepWindow.maps``,
``matrix``) are a view built on first read, for ``apply_path`` and the
brute-force oracle; so are a socle's or radical's dense bases.
"""

from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from . import ratmat, regions
from .patterns import InternalConsistencyError
from .qdl import VertexRef, describe_path, instantiate_window, ray
from .regions import PreconditionError


class InfiniteDimensionAt(Exception):
    """A requested fiber is infinite dimensional; carries the vertex."""

    def __init__(self, vertex):
        super().__init__(f"infinite dimension at {vertex.canonical_id()}")
        self.vertex = vertex


class RepWindow:
    """Fibers and arrow maps over one window.

    The map of each arrow, of shape dim(target) x dim(source), is stored
    once, as rows: one {source basis index: entry} dict per target basis
    vector (``rows``).  The builders here store only nonzero entries.  The
    constructor takes dense grids, lists of rows, and stores every entry
    but ``ratmat``'s shared zero; ``from_rows`` takes the rows, and the
    builders' labels are spelled on first read.  ``maps``
    and ``matrix`` give the dense meaning: ``maps`` is built on first read,
    from the rows with the shared zero in every other cell, so it gives
    back the grids the constructor was given.  Fibers and maps missing from
    the dicts are zero.  Equality compares window, dims, dense maps and
    basis labels.
    """

    def __init__(self, window, dims, maps, basis_labels=None):
        rows = {}
        for aid, m in maps.items():
            height, width = _map_shape(window, dims, aid)
            if len(m) != height or any(len(r) != width for r in m):
                raise ValueError(f"matrix for {aid} is not {height}x{width}")
            rows[aid] = tuple(
                {c: x for c, x in enumerate(r) if x is not _ZERO} for r in m
            )
        self._store(window, dims, rows, basis_labels)

    @classmethod
    def from_rows(cls, window, dims, rows, basis_labels=None):
        """The representation with these stored rows (see ``rows``)."""
        for aid, m in rows.items():
            height, width = _map_shape(window, dims, aid)
            if len(m) != height or any(
                not 0 <= c < width for r in m for c in r
            ):
                raise ValueError(f"matrix for {aid} is not {height}x{width}")
        self = cls.__new__(cls)
        self._store(window, dims, rows, basis_labels)
        return self

    @classmethod
    def _built(cls, window, dims, rows, spell_labels):
        """A builder's representation: its rows are in range by
        construction and not checked again, and its basis labels are
        ``spell_labels()``, called on first read."""
        self = cls.__new__(cls)
        vars(self).update(
            window=window, dims=dims, _rows=rows, _spell_labels=spell_labels)
        return self

    def _store(self, window, dims, rows, basis_labels):
        labels = {} if basis_labels is None else basis_labels
        vars(self).update(
            window=window, dims=dims, _rows=rows, basis_labels=labels)
        for v, ls in labels.items():
            if len(ls) != len(set(ls)) or len(ls) != self.dim(v):
                raise ValueError(f"bad basis labels at {v.canonical_id()}")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def basis_labels(self):
        """Basis labels by vertex, spelled on first read for the builders'
        representations (the others store theirs)."""
        return self._spell_labels()

    @cached_property
    def maps(self):
        """Dense grids by arrow id, built on first read; writing to them
        does not change the representation."""
        out = {}
        for aid, rows in self._rows.items():
            width = self.dim(self.window.arrow_by_id(aid).source)
            grid = out[aid] = []
            for r in rows:
                line = [_ZERO] * width
                for c, x in r.items():
                    line[c] = x
                grid.append(line)
        return MappingProxyType(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.window, self.dims, self.maps, self.basis_labels) == (
            other.window, other.dims, other.maps, other.basis_labels)

    __hash__ = None

    def __repr__(self):
        return (f"RepWindow(window={self.window!r}, dims={self.dims!r}, "
                f"maps={dict(self.maps)!r}, "
                f"basis_labels={self.basis_labels!r})")

    def dim(self, vref):
        return self.dims.get(vref, 0)

    def rows(self, arrow):
        """The stored rows of the map of ``arrow`` (an arrow or its id):
        one {column: entry} dict per target basis vector.  They are the
        representation's own: read them, never write to them."""
        key = arrow if isinstance(arrow, str) else arrow.canonical_id()
        m = self._rows.get(key)
        if m is not None:
            return m
        a = self.window.arrow_by_id(key)
        return tuple({} for _ in range(self.dim(a.target)))

    def matrix(self, arrow):
        key = arrow if isinstance(arrow, str) else arrow.canonical_id()
        m = self.maps.get(key)
        if m is not None:
            return m
        a = self.window.arrow_by_id(key)
        return ratmat.zeros(self.dim(a.target), self.dim(a.source))

    def labels(self, vref):
        return self.basis_labels.get(vref, tuple(range(self.dim(vref))))

    def total_dim(self):
        return sum(self.dims.values())

    def support(self):
        return [v for v in self.window.vertices if self.dim(v) > 0]


def _map_shape(window, dims, aid):
    """(dim(target), dim(source)) of the arrow ``aid`` of ``window``."""
    try:
        a = window.arrow_by_id(aid)
    except KeyError:
        raise ValueError(f"no arrow {aid} in Window({window.radius})") from None
    return dims.get(a.target, 0), dims.get(a.source, 0)


def zero_rep(window):
    return RepWindow(window, {}, {})


def apply_path(m, p):
    """The composite matrix along a path; the trivial path gives identity."""
    if not m.window.contains(p.source) or not m.window.contains(p.target):
        raise PreconditionError(f"path {p.describe()} leaves the window")
    out = ratmat.identity(m.dim(p.source))
    for a in p.arrows:
        out = ratmat.mat_mul(m.matrix(a), out)
    return out


@dataclass(frozen=True)
class MorphismWindow:
    """Per-vertex components of a morphism; naturality is checked exactly."""

    source: RepWindow
    target: RepWindow
    components: dict

    def __post_init__(self):
        """Check f(target) M(a) = N(a) f(source) for every arrow a, with
        the maps of M = source and N = target read as their stored rows;
        both sides are compared as rows of their nonzero entries."""
        if self.source.window is not self.target.window and (
            self.source.window != self.target.window
        ):
            raise ValueError("morphism endpoints live on different windows")
        for a in self.source.window.arrows:
            comp_t, comp_s = self.component(a.target), self.component(a.source)
            m_rows, n_rows = self.source.rows(a), self.target.rows(a)
            if (comp_t and m_rows and len(comp_t[0]) != len(m_rows)) or (
                n_rows and comp_s and self.target.dim(a.source) != len(comp_s)
            ):
                raise ValueError("shape mismatch in matrix product")
            # row i of f(t) M(a) combines the rows of M(a) by f(t)'s row i;
            # row i of N(a) f(s) combines the rows of f(s) by N(a)'s row i
            left = [_combine(enumerate(line), m_rows) for line in comp_t]
            right = [_combine(r.items(), comp_s) for r in n_rows]
            if left != right and (any(left) or any(right)):
                raise ValueError(f"naturality fails at {a.canonical_id()}")

    def component(self, vref):
        m = self.components.get(vref)
        if m is not None:
            return m
        return ratmat.zeros(self.target.dim(vref), self.source.dim(vref))


# ---------------------------------------------------------------------------
# path bases


def _path_basis(window, a, reverse=False):
    """All window paths out of ``a`` (or into it, if reverse), grouped by
    the other endpoint, as arrow-id tuples in path order, and the links
    between them: (arrow id, index, index of the path it extends) for
    every nontrivial path, which extends a path one shorter by that arrow
    (appended, or prepended if reverse), both indices at their own
    vertices.

    The search runs by length, reading each arrow's canonical id once,
    into one step list per vertex.  Each length's paths at a vertex are
    sorted by ids and follow the shorter ones: the order of
    ``Path.sort_key``, (length, ids).  Paths sharing both endpoints are
    named by their ids.  No ``Path`` is built here.
    """
    adj = window.arrows_into if reverse else window.arrows_from
    steps = {}
    basis = {a: [()]}
    links = []
    # the paths of the current length by end vertex: (first index, paths)
    level = {a: (0, [()])}
    limit = window.layout.size
    for length in range(limit + 1):
        grown = {}
        for v, (first, ps) in level.items():
            vsteps = steps.get(v)
            if vsteps is None:
                vsteps = steps[v] = [
                    (ar.source if reverse else ar.target, ar.canonical_id())
                    for ar in adj(v)
                ]
            if vsteps and length >= limit:
                raise PreconditionError("window graph is not acyclic")
            for w, aid in vsteps:
                out = grown.setdefault(w, [])
                for k, p in enumerate(ps, first):
                    out.append(((aid,) + p if reverse else p + (aid,), aid, k))
        if not grown:
            break
        level = {}
        for w, out in grown.items():
            # ids are unique at w, so the sort never compares past them
            out.sort()
            ps = basis.setdefault(w, [])
            first = len(ps)
            links.extend(
                (aid, i, k) for i, (_, aid, k) in enumerate(out, first))
            new = [p for p, _, _ in out]
            ps.extend(new)
            level[w] = (first, new)
    return basis, links


def _link_maps(window, dims, links, reverse):
    """The 0/1 arrow maps, as rows, of the paths' links (``_path_basis``):
    a path's link sends the path it extends to it, or, if reverse (the
    functionals dual to paths into a vertex), it back to that path."""
    maps = {}
    for ar in window.arrows:
        maps[ar.canonical_id()] = tuple(
            {} for _ in range(dims.get(ar.target, 0)))
    for aid, i, k in links:
        if reverse:
            maps[aid][k][i] = _ONE
        else:
            maps[aid][i][k] = _ONE
    return maps


_ONE = ratmat._ONE
_ZERO = ratmat._ZERO


def build_P(q, a, n):
    """Projective at ``a`` on Window(n): fibers spanned by paths from a."""
    return _build_P_on(instantiate_window(q, n), a)


def _build_P_on(window, a):
    if not window.contains(a):
        raise PreconditionError(
            f"{a.canonical_id()} is outside Window({window.radius})"
        )
    basis, links = _path_basis(window, a)
    dims = {v: len(ps) for v, ps in basis.items()}
    maps = _link_maps(window, dims, links, reverse=False)
    src = a.canonical_id()
    return RepWindow._built(window, dims, maps, lambda: {
        v: tuple(describe_path(src, ids) for ids in ps)
        for v, ps in basis.items()
    })


def build_I(q, a, n):
    """Injective at ``a`` on Window(n): dual of the paths into a."""
    return _build_I_on(instantiate_window(q, n), a)


def _build_I_on(window, a):
    if not window.contains(a):
        raise PreconditionError(
            f"{a.canonical_id()} is outside Window({window.radius})"
        )
    bases, links = _path_basis(window, a, reverse=True)
    dims = {v: len(ts) for v, ts in bases.items()}
    maps = _link_maps(window, dims, links, reverse=True)
    return RepWindow._built(window, dims, maps, lambda: {
        v: tuple(describe_path(v.canonical_id(), ids) for ids in ts)
        for v, ts in bases.items()
    })


def _precomposition_maps(window, bases):
    """Arrow maps dual to precomposition on per-vertex path bases, each
    basis a list of arrow-id tuples (in path order).

    The basis functional t at the target pulls back from the functional
    at (ar then t) on the source side, when that path is in its basis.
    Each map is stored as rows, with one 1 per matched path.
    """
    index = {v: {t: k for k, t in enumerate(ts)} for v, ts in bases.items()}
    maps = {}
    for ar in window.arrows:
        aid = ar.canonical_id()
        src_index = index.get(ar.source, {})
        rows = []
        for t in bases.get(ar.target, ()):
            col = src_index.get((aid,) + t)
            rows.append({} if col is None else {col: _ONE})
        maps[aid] = tuple(rows)
    return maps


# ---------------------------------------------------------------------------
# tail-class limits


def build_Y(q, cls, n):
    """Limit representation of a tail class on Window(n).

    Fibers are the stabilized path counts into a far tail checkpoint; a
    fiber that keeps growing raises InfiniteDimensionAt for the first such
    vertex in window order.
    """
    eng = regions.engine_for(q)
    eng.ensure_acyclic()
    window = instantiate_window(q, n)
    cyc_len = len(cls.cycle)
    dirn = 1 if cls.direction == "+" else -1
    start_i = cls.start.index
    target1 = n + eng.nstar + 2 * eng.bound + 2
    loops1 = max(1, -(-(target1 - dirn * start_i) // cls.stride))
    loops2 = loops1 + -(-(2 * eng.bound + 4) // cls.stride)
    j1 = start_i + dirn * cls.stride * loops1
    j2 = start_i + dirn * cls.stride * loops2
    t1, t2 = ray(cls.ray, j1), ray(cls.ray, j2)
    big = abs(j2) + eng.base_radius
    # path counts by position in the engine's graph, built once, at the
    # widest radius; a count at a smaller radius ignores the rest of it
    g = eng.graph(big + eng.margin)
    check = regions._ways(g, big + eng.margin, t1)
    ways1 = regions._ways(g, big, t1)
    ways2 = regions._ways(g, big, t2)
    at_pos = {v: g.window.vertex_index(v) for v in window.vertices}
    for v, vi in at_pos.items():
        c1, c2 = ways1[vi], ways2[vi]
        if c2 > c1:
            raise InfiniteDimensionAt(v)
        if c2 < c1:
            raise InternalConsistencyError(
                f"path count into the tail dropped at {v.canonical_id()}: "
                f"{c1} at {t1.canonical_id()} vs {c2} at {t2.canonical_id()}"
            )
        if check[vi] != c1:
            raise InternalConsistencyError(
                f"tail path count at {v.canonical_id()} changed when the "
                "window grew; the enumeration radius is not saturated"
            )
    # spell the orbit up to the checkpoint so suffixes can be trimmed
    configs = eng.spell_class(cls, loops1 * cyc_len)
    if configs[-1] != t1:
        raise InternalConsistencyError("class orbit missed its checkpoint")
    orbit_ids = []
    for k, at in enumerate(configs[:-1]):
        label, i, _ = eng.orbit_step(cls, at, k)
        orbit_ids.append(f"{label}@{i}")
    m_steps = len(orbit_ids)
    end = g.window.vertex_index(t1)
    # (next position, arrow id) of each step that stays inside the reach
    steps = {}
    dims, entries, chosen = {}, {}, {}
    for v, vi in at_pos.items():
        want = ways1[vi]
        if not want:
            continue
        found = []
        stack = [(vi, ())]
        while stack:
            at, ids = stack.pop()
            if at == end:
                found.append(ids)
                continue
            at_steps = steps.get(at)
            if at_steps is None:
                at_steps = steps[at] = [
                    (ti, g.window.arrow(k).canonical_id())
                    for k, ti in g.out_adj[at]
                    if ways1[ti]
                ]
            for w, aid in at_steps:
                stack.append((w, ids + (aid,)))
        if len(found) != want:
            raise InternalConsistencyError(
                f"enumerated {len(found)} tail paths at {v.canonical_id()}, "
                f"counted {want}"
            )
        keyed = []
        for ids in found:
            s = 0
            while (
                s < min(len(ids), m_steps)
                and ids[len(ids) - 1 - s] == orbit_ids[m_steps - 1 - s]
            ):
                s += 1
            prefix = ids[: len(ids) - s]
            keyed.append(((m_steps - s, (len(prefix), prefix)), ids))
        keyed.sort(key=lambda t: t[0])
        dims[v] = want
        entries[v] = [(entry, prefix) for (entry, (_, prefix)), _ in keyed]
        chosen[v] = [ids for _, ids in keyed]
    maps = _precomposition_maps(window, chosen)
    return RepWindow._built(window, dims, maps, lambda: {
        v: tuple((entry, describe_path(v.canonical_id(), prefix))
                 for entry, prefix in es)
        for v, es in entries.items()
    })


# ---------------------------------------------------------------------------
# socle, radical, subrepresentations, quotients


class SubRepWindow:
    """A subrepresentation given by per-vertex spanning rows inside a parent.

    ``boundary`` flags vertices whose defining arrows were truncated by the
    window; their fibers are computed from what is visible but should be
    excluded from assertions.

    The constructor takes ``bases``, dense spanning vectors by vertex.
    ``socle`` and ``radical`` store theirs as row dicts of nonzeros
    instead, and ``bases`` is then a view built on first read, each vector
    a tuple with the shared zero in every other cell; either form is built
    from the other when first needed.  Frozen; equality compares parent,
    bases and boundary.
    """

    def __init__(self, parent, bases, boundary=frozenset()):
        vars(self).update(parent=parent, bases=bases, boundary=boundary)

    @classmethod
    def _of_rows(cls, parent, rows, boundary):
        """The subrepresentation spanned at each vertex by these row dicts."""
        self = cls.__new__(cls)
        vars(self).update(parent=parent, _rows=rows, boundary=boundary)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def bases(self):
        out = {}
        for v, rows in self._rows.items():
            d = self.parent.dim(v)
            vecs = []
            for r in rows:
                vec = [_ZERO] * d
                for c, x in r.items():
                    vec[c] = x
                vecs.append(tuple(vec))
            out[v] = tuple(vecs)
        return out

    @cached_property
    def _rows(self):
        return {
            v: tuple({c: x for c, x in enumerate(b) if x} for b in vecs)
            for v, vecs in self.bases.items()
        }

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.bases, self.boundary) == (
            other.parent, other.bases, other.boundary)

    __hash__ = None

    def __repr__(self):
        return (f"SubRepWindow(parent={self.parent!r}, "
                f"bases={self.bases!r}, boundary={self.boundary!r})")

    def _spans(self):
        """Whichever form is stored, by vertex; both have the same
        lengths."""
        state = vars(self)
        return state["bases"] if "bases" in state else state["_rows"]

    def dim(self, vref):
        return len(self._spans().get(vref, ()))

    def dims_dict(self):
        return {v: len(b) for v, b in self._spans().items() if b}

    def as_rep(self):
        maps = {}
        rows = self._rows
        for ar in self.parent.window.arrows:
            sb = rows.get(ar.source, ())
            tb = rows.get(ar.target, ())
            maps[ar.canonical_id()] = _coordinates(self.parent, ar, sb, tb)
        return RepWindow.from_rows(self.parent.window, self.dims_dict(), maps)

    def inclusion(self):
        comps = {
            v: ratmat.transpose([list(r) for r in b])
            for v, b in self.bases.items()
            if b
        }
        return MorphismWindow(self.as_rep(), self.parent, comps)


def _truncated(eng, m):
    """Support vertices of ``m`` with a one-step target under ``eng``
    outside the window: every fan source (it has infinitely many), and any
    vertex with an arrow out of the window in ``eng``'s window graph."""
    radius = m.window.radius
    flags, g = set(), None
    for v in m.support():
        if v in eng.fan_sources:
            flags.add(v)
            continue
        if g is None:
            # any other vertex's targets lie within max_shift of it or at a
            # constant |c| <= c_max, both inside radius + nstar, so the
            # engine graph that wide holds every arrow out of v
            g = eng.graph(radius + eng.nstar)
        if any(
            g.level[ti] > radius
            for _, ti in g.out_adj[g.window.vertex_index(v)]
        ):
            flags.add(v)
    return frozenset(flags)


def _combine(coeffs, rows):
    """{column: entry} of the nonzeros of sum c * rows[k] over the (k, c)
    pairs of ``coeffs``; each row is a dict or a dense list."""
    acc = {}
    for k, c in coeffs:
        if c is _ZERO or not c:
            continue
        row = rows[k]
        for j, y in row.items() if isinstance(row, dict) else enumerate(row):
            acc[j] = acc.get(j, _ZERO) + c * y
    return {j: x for j, x in acc.items() if x}


def _image(rows, u):
    """The image of the dense vector ``u`` under a map given by its rows."""
    return [sum((x * u[c] for c, x in r.items()), _ZERO) for r in rows]


def socle(m):
    """Intersection of the kernels of all outgoing maps, per vertex.

    Vertices with out-arrows truncated by the window are flagged boundary.
    """
    eng = regions.engine_for(m.window.description)
    bases = {}
    for v in m.window.vertices:
        d = m.dim(v)
        if d == 0:
            continue
        stacked = []
        for ar in m.window.arrows_from(v):
            stacked.extend(m.rows(ar))
        rows = ratmat.kernel_rows(stacked, d)
        if rows:
            bases[v] = tuple(rows)
    return SubRepWindow._of_rows(m, bases, _truncated(eng, m))


def radical(m):
    """Sum of the images of all incoming maps, per vertex (dual flags)."""
    eng = regions.engine_for(m.window.description).op()
    bases = {}
    for v in m.window.vertices:
        d = m.dim(v)
        if d == 0:
            continue
        # the columns of each map into v, as row dicts over v's basis
        cols = []
        for ar in m.window.arrows_into(v):
            by_col = {}
            for i, r in enumerate(m.rows(ar)):
                for j, x in r.items():
                    by_col.setdefault(j, {})[i] = x
            cols.extend(by_col.values())
        rows = ratmat.span_rows(cols)
        if rows:
            bases[v] = tuple(rows)
    return SubRepWindow._of_rows(m, bases, _truncated(eng, m))


def subrep_generated(m, seeds):
    """Smallest subrepresentation containing the seed vectors.

    A worklist of vertices whose span grew: the arrows out of a vertex are
    read again only after its span grew, until no span grows.
    """
    spans = {}
    for v, vecs in seeds.items():
        if not m.window.contains(v):
            raise PreconditionError(f"seed vertex {v.canonical_id()} not in window")
        for u in vecs:
            if len(u) != m.dim(v):
                raise PreconditionError(
                    f"seed at {v.canonical_id()} has length {len(u)}, "
                    f"fiber dimension is {m.dim(v)}"
                )
        rows = ratmat.span_basis([[Fraction(x) for x in u] for u in vecs])
        if rows:
            spans[v] = rows
    queue = deque(spans)
    while queue:
        v = queue.popleft()
        for ar in m.window.arrows_from(v):
            imgs = [_image(m.rows(ar), u) for u in spans[v]]
            old = spans.get(ar.target, [])
            new = ratmat.span_basis(old + imgs)
            if len(new) > len(old):
                spans[ar.target] = new
                if ar.target not in queue:
                    queue.append(ar.target)
    bases = {v: tuple(tuple(r) for r in rows) for v, rows in spans.items()}
    return SubRepWindow(m, bases, frozenset())


def quotient(m, sub):
    """Quotient by a subrepresentation, with exact induced maps."""
    if sub.parent is not m and sub.parent != m:
        raise PreconditionError("subrepresentation belongs to another parent")
    comp = {}
    for v in m.window.vertices:
        d = m.dim(v)
        if d == 0:
            continue
        cv = ratmat.complement_basis(sub.bases.get(v, ()), d)
        if cv:
            # the complement's unit vectors and the span's rows, as dicts
            comp[v] = (list(sub._rows.get(v, ())),
                       [{e.index(1): _ONE} for e in cv])
    dims = {v: len(cv) for v, (rows, cv) in comp.items()}
    maps = {}
    for ar in m.window.arrows:
        src = comp.get(ar.source)
        t_rows, t_comp = comp.get(ar.target, ([], []))
        # the coordinates over the target's complement, of the images of
        # the source's complement; zero unless both ends have one
        vectors = src[1] if src and t_comp else ()
        maps[ar.canonical_id()] = _coordinates(
            m, ar, vectors, t_rows + t_comp, skip=len(t_rows)
        )
    return RepWindow.from_rows(m.window, dims, maps)


def _coordinates(m, ar, vectors, basis, skip=0):
    """The map, as rows, whose column j holds the coordinates of m(ar)
    vectors[j] over the rows of ``basis`` after the first ``skip``; raises
    unless each image lies in the span of ``basis``.  Vectors and basis
    rows are dicts of their nonzeros.

    One reduction of [basis^T | images] gives every column at once: the
    system has a row per target coordinate, the basis vectors' entries
    there in the first columns and the images' after them."""
    k = len(basis)
    if not vectors:
        return tuple({} for _ in range(k - skip))
    system = [{} for _ in range(m.dim(ar.target))]
    for col, b in enumerate(basis):
        for i, x in b.items():
            system[i][col] = x
    rows = m.rows(ar)
    for j, u in enumerate(vectors):
        for i, r in enumerate(rows):
            x = sum((y * u[c] for c, y in r.items() if c in u), _ZERO)
            if x:
                system[i][k + j] = x
    coords = ratmat.solve_rows(system, k)
    if coords is None:
        raise InternalConsistencyError(
            f"subspace is not closed under {ar.canonical_id()}"
        )
    return tuple(coords[skip:])


def direct_sum(m1, m2):
    """Block-diagonal sum of two representations on the same window."""
    if m1.window is not m2.window and m1.window != m2.window:
        raise PreconditionError("summands live on different windows")
    dims = {}
    for v in m1.window.vertices:
        d = m1.dim(v) + m2.dim(v)
        if d:
            dims[v] = d
    maps = {}
    for ar in m1.window.arrows:
        shift = m1.dim(ar.source)
        # m1's rows are shared, never written; m2's move right past m1's
        maps[ar.canonical_id()] = tuple(m1.rows(ar)) + tuple(
            {shift + j: x for j, x in r.items()} for r in m2.rows(ar)
        )
    labels = {}
    for v in dims:
        labels[v] = tuple(
            [(0, l) for l in m1.labels(v)] + [(1, l) for l in m2.labels(v)]
        )
    return RepWindow.from_rows(m1.window, dims, maps, labels)


# ---------------------------------------------------------------------------
# Hom spaces via the projective/injective adjunctions


@dataclass(frozen=True)
class HomSpace:
    """Hom(P_a, M) or Hom(M, I_a) presented through its fiber at ``a``.

    ``realize`` sends a coordinate vector (resp. functional) to the actual
    morphism; ``extract`` reads it back.  The two are mutually inverse.
    """

    dimension: int
    vertex: VertexRef
    rep: RepWindow
    standard: RepWindow
    kind: str

    def realize(self, x):
        """The morphism of ``x``, spread from ``vertex`` along the standard
        object's maps.  Each of them sends a basis path to one basis path:
        for P_a, a path p at v to p.ar at w, so the image of p.ar is M(ar)
        times that of p (x at the trivial path); for I_a, the functional of
        a path t at w to that of ar.t at v, which is t's functional
        composed with M(ar) (x at the trivial path).  So every component
        is m(p) x, or x m(p), for each basis path p, with no path
        enumerated again."""
        if len(x) != self.dimension:
            raise PreconditionError(
                f"vector has length {len(x)}, expected {self.dimension}"
            )
        x = [Fraction(c) for c in x]
        m, std, window = self.rep, self.standard, self.rep.window
        forward = self.kind == "from_projective"
        # P_a(ar) has its 1 for path p in p's column, I_a(ar) in t's row
        sends = {}
        for ar in window.arrows:
            rows = std.rows(ar)
            sends[ar] = {c: i for i, r in enumerate(rows) for c in r} if (
                forward) else {t: c for t, r in enumerate(rows) for c in r}
        # one dense vector per basis path of the standard object, by vertex
        vecs = {self.vertex: {0: x}}
        todo = [(self.vertex, 0)]
        while todo:
            v, k = todo.pop()
            vec = vecs[v][k]
            for ar in window.arrows_from(v) if forward else (
                window.arrows_into(v)
            ):
                i = sends[ar].get(k)
                if i is None:
                    continue
                if forward:
                    w, new = ar.target, _image(m.rows(ar), vec)
                else:
                    w, new = ar.source, [_ZERO] * m.dim(ar.source)
                    for j, c in _combine(enumerate(vec), m.rows(ar)).items():
                        new[j] = c
                vecs.setdefault(w, {})[i] = new
                todo.append((w, i))
        comps = {}
        for v, by_k in vecs.items():
            lines = [by_k[k] for k in range(std.dim(v))]
            comps[v] = ratmat.transpose(lines) if forward else lines
        if forward:
            return MorphismWindow(std, m, comps)
        return MorphismWindow(m, std, comps)

    def extract(self, f):
        comp = f.component(self.vertex)
        if self.kind == "from_projective":
            # evaluate at the trivial path, the first basis element
            return [row[0] for row in comp]
        return list(comp[0]) if comp else []


def hom_from_projective(m, a):
    """Hom out of the projective at ``a``: canonically the fiber m(a)."""
    if not m.window.contains(a):
        raise PreconditionError(f"{a.canonical_id()} not in window")
    return HomSpace(
        m.dim(a), a, m, _build_P_on(m.window, a), "from_projective"
    )


def hom_to_injective(m, a):
    """Hom into the injective at ``a``: canonically the dual of m(a)."""
    if not m.window.contains(a):
        raise PreconditionError(f"{a.canonical_id()} not in window")
    return HomSpace(
        m.dim(a), a, m, _build_I_on(m.window, a), "to_injective"
    )


# ---------------------------------------------------------------------------
# structural checks on injective-like objects


def check_restriction_surjective(i, a, paths):
    """Is the stacked restriction map I(a) -> (+) I(target p_k) onto?

    The paths must start at ``a`` and be pairwise non-divisible: no p_k may
    extend another by postcomposition.
    """
    for p in paths:
        if p.source != a:
            raise PreconditionError(
                f"path {p.describe()} does not start at {a.canonical_id()}"
            )
    for j, pj in enumerate(paths):
        for k, pk in enumerate(paths):
            if j == k:
                continue
            ids_j = tuple(ar.canonical_id() for ar in pj.arrows)
            ids_k = tuple(ar.canonical_id() for ar in pk.arrows)
            if ids_k[: len(ids_j)] == ids_j:
                raise PreconditionError(
                    f"path {pk.describe()} factors through {pj.describe()}"
                )
    stacked = []
    for p in paths:
        stacked.extend(apply_path(i, p))
    return ratmat.rank(stacked) == len(stacked)


@dataclass(frozen=True)
class TailBijectivity:
    """Outcome of the eventual-bijectivity scan along a class tail."""

    ok: bool
    z_index: int | None = None
    failure_index: int | None = None
    within_support_z: int | None = None
    note: str = ""


def eventual_tail_bijectivity(i, cls):
    """Least tail position from which every map to the window edge is a
    bijection; reports failure when the fibers die out or never stabilize.
    """
    window = i.window
    q = window.description
    eng = regions.engine_for(q)
    cyc_len = len(cls.cycle)
    cushion = eng.bound * (cyc_len + 2) + 4
    arrow_ids = {ar.canonical_id() for ar in window.arrows}

    forward = eng.class_tail_configs(cls, window.radius + cushion)
    configs = dict(enumerate(forward))
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
    ks = sorted(configs)
    runs, cur = [], []
    for kk in ks:
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
        if aid not in arrow_ids:
            raise InternalConsistencyError(
                f"tail arrow {aid} missing from the window"
            )
        square = dims[pos] == dims[pos + 1]
        bij.append(square and ratmat.rank_rows(i.rows(aid)) == dims[pos])
    if dims[-1] == 0:
        if all(d == 0 for d in dims):
            return TailBijectivity(
                True, z_index=verts[0].index, note="zero on the window tail"
            )
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


def is_fd_rep_fp(q, m):
    """Finitely-presented test for a finite-dimensional representation:
    every support vertex must have finitely many out-neighbors.

    Returns (verdict, witness vertex or None)."""
    r = m.window.radius
    for v in m.support():
        if v.kind == "ray" and abs(v.index) >= r:
            raise PreconditionError(
                f"support touches the window boundary at {v.canonical_id()}"
            )
    fan_sources = regions.engine_for(q).fan_sources
    for v in m.support():
        if v in fan_sources:
            return False, v
    return True, None


# ---------------------------------------------------------------------------
# serialization


class _Runs(dict):
    """``cell`` repeated k times, by k, spelled on first use."""

    def __init__(self, cell):
        super().__init__()
        self.cell = cell

    def __missing__(self, k):
        run = self[k] = self.cell * k
        return run


def dump_rep(m):
    """Deterministic text dump: dimensions, then matrices in window order.

    A row is spelled from its stored entries, with each run of zero cells
    around them copied from one string per run length."""
    lines = [f"window radius {m.window.radius}"]
    for v in m.window.vertices:
        lines.append(f"vertex {v.canonical_id()} dim {m.dim(v)}")
    lead, tail = _Runs("0/1 "), _Runs(" 0/1")
    for ar in m.window.arrows:
        rows = m.rows(ar)
        cols = m.dim(ar.source)
        lines.append(f"arrow {ar.canonical_id()} {len(rows)}x{cols}")
        for r in rows:
            if not r:
                lines.append(tail[cols][1:])
                continue
            parts, at = [], 0
            for j in sorted(r):
                c = r[j]
                parts += (lead[j - at], "1/1" if c is _ONE else
                          f"{c.numerator}/{c.denominator}" if c else "0/1",
                          " ")
                at = j + 1
            # the last separator gives way to the zeros after the last entry
            parts[-1] = tail[cols - at]
            lines.append("".join(parts))
    return "\n".join(lines) + "\n"
