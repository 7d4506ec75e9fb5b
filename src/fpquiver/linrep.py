"""Finite-dimensional representation windows with exact arithmetic.

A RepWindow stores the fibers and arrow matrices of a representation over
one instantiated window.  The standard objects are built here: projectives
(fibers spanned by paths out of a vertex), injectives (dual paths into a
vertex) and tail-class limits (stabilized path spaces into a far tail
checkpoint).  All entries are Fractions, so the rank arguments behind the
surjectivity and bijectivity checks are exact.

Each path basis is built once, each path carried as its arrow-id tuple next
to its arrows: the tuples order the basis (as ``Path.sort_key`` does), index
the rows and columns of the 0/1 arrow maps and spell the basis labels (as
``Path.describe`` does), so no arrow id is recomputed per path.  The maps
stay dense ``Fraction`` grids, the layout the benchmark's tracer reads.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import ratmat, regions
from .patterns import InternalConsistencyError
from .qdl import Path, VertexRef, describe_path, instantiate_window, ray
from .regions import PreconditionError


class InfiniteDimensionAt(Exception):
    """A requested fiber is infinite dimensional; carries the vertex."""

    def __init__(self, vertex):
        super().__init__(f"infinite dimension at {vertex.canonical_id()}")
        self.vertex = vertex


@dataclass(frozen=True)
class RepWindow:
    """Fibers and arrow matrices over one window.

    maps[arrow canonical id] has shape dim(target) x dim(source); fibers
    and maps missing from the dicts are zero.
    """

    window: object
    dims: dict
    maps: dict
    basis_labels: dict = field(default_factory=dict)

    def __post_init__(self):
        for a in self.window.arrows:
            m = self.maps.get(a.canonical_id())
            if m is None:
                continue
            rows, cols = self.dim(a.target), self.dim(a.source)
            if len(m) != rows or any(len(r) != cols for r in m):
                raise ValueError(
                    f"matrix for {a.canonical_id()} is not {rows}x{cols}"
                )
        for v, labels in self.basis_labels.items():
            if len(labels) != len(set(labels)) or len(labels) != self.dim(v):
                raise ValueError(f"bad basis labels at {v.canonical_id()}")

    def dim(self, vref):
        return self.dims.get(vref, 0)

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
        if self.source.window is not self.target.window and (
            self.source.window != self.target.window
        ):
            raise ValueError("morphism endpoints live on different windows")
        for a in self.source.window.arrows:
            left = ratmat.mat_mul(
                self.component(a.target), self.source.matrix(a)
            )
            right = ratmat.mat_mul(
                self.target.matrix(a), self.component(a.source)
            )
            if not ratmat.mat_eq(left, right):
                # composites through a zero-dimensional vertex come back
                # with degenerate shapes; both are the zero map then
                if not (ratmat.is_zero(left) and ratmat.is_zero(right)):
                    raise ValueError(
                        f"naturality fails at {a.canonical_id()}")

    def component(self, vref):
        m = self.components.get(vref)
        if m is not None:
            return m
        return ratmat.zeros(self.target.dim(vref), self.source.dim(vref))


# ---------------------------------------------------------------------------
# path bases


def _path_basis(window, a, reverse=False):
    """All window paths out of ``a`` (or into it, if reverse), grouped by
    the other endpoint, as (arrow ids, arrows) pairs in path order.

    The search reads each arrow's canonical id once, into one step list per
    vertex, and carries the id tuple next to the arrows.  A vertex's paths
    are sorted by (length, ids), the order of ``Path.sort_key``; they share
    both endpoints, so the ids name one.  No ``Path`` is built here.
    """
    adj = window.arrows_into if reverse else window.arrows_from
    steps = {}
    out = {a: [((), ())]}
    stack = [(a, (), ())]
    limit = window.layout.size
    while stack:
        v, ids, arrows = stack.pop()
        vsteps = steps.get(v)
        if vsteps is None:
            vsteps = steps[v] = [
                (ar, ar.source if reverse else ar.target, ar.canonical_id())
                for ar in adj(v)
            ]
        if vsteps and len(ids) >= limit:
            raise PreconditionError("window graph is not acyclic")
        for ar, w, aid in vsteps:
            if reverse:
                path = ((aid,) + ids, (ar,) + arrows)
            else:
                path = (ids + (aid,), arrows + (ar,))
            out.setdefault(w, []).append(path)
            stack.append((w,) + path)
    for ps in out.values():
        ps.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return out


_ONE = Fraction(1)


def build_P(q, a, n):
    """Projective at ``a`` on Window(n): fibers spanned by paths from a."""
    return _build_P_on(instantiate_window(q, n), a)


def _build_P_on(window, a):
    if not window.contains(a):
        raise PreconditionError(
            f"{a.canonical_id()} is outside Window({window.radius})"
        )
    basis = _path_basis(window, a)
    dims = {v: len(ps) for v, ps in basis.items()}
    index = {
        v: {ids: k for k, (ids, _) in enumerate(ps)} for v, ps in basis.items()
    }
    maps = {}
    for ar in window.arrows:
        aid = ar.canonical_id()
        m = ratmat.zeros(dims.get(ar.target, 0), dims.get(ar.source, 0))
        rows = index.get(ar.target)
        for k, (ids, _) in enumerate(basis.get(ar.source, ())):
            m[rows[ids + (aid,)]][k] = _ONE
        maps[aid] = m
    src = a.canonical_id()
    labels = {
        v: tuple(describe_path(src, ids) for ids, _ in ps)
        for v, ps in basis.items()
    }
    return RepWindow(window, dims, maps, labels)


def build_I(q, a, n):
    """Injective at ``a`` on Window(n): dual of the paths into a."""
    return _build_I_on(instantiate_window(q, n), a)


def _build_I_on(window, a):
    if not window.contains(a):
        raise PreconditionError(
            f"{a.canonical_id()} is outside Window({window.radius})"
        )
    bases = {
        v: [ids for ids, _ in ps]
        for v, ps in _path_basis(window, a, reverse=True).items()
    }
    dims = {v: len(ts) for v, ts in bases.items()}
    labels = {}
    for v, ts in bases.items():
        src = v.canonical_id()
        labels[v] = tuple(describe_path(src, ids) for ids in ts)
    maps = _precomposition_maps(window, bases)
    return RepWindow(window, dims, maps, labels)


def _precomposition_maps(window, bases):
    """Arrow maps dual to precomposition on per-vertex path bases, each
    basis a list of arrow-id tuples (in path order).

    The basis functional t at the target pulls back from the functional
    at (ar then t) on the source side, when that path is in its basis.
    The maps are dense ``Fraction`` grids with one 1 per matched path.
    """
    index = {v: {t: k for k, t in enumerate(ts)} for v, ts in bases.items()}
    maps = {}
    for ar in window.arrows:
        aid = ar.canonical_id()
        src_index = index.get(ar.source, {})
        tgt = bases.get(ar.target, ())
        m = ratmat.zeros(len(tgt), len(src_index))
        for k, t in enumerate(tgt):
            col = src_index.get((aid,) + t)
            if col is not None:
                m[k][col] = _ONE
        maps[aid] = m
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
    # the widest count first, so the engine's graph is built once
    check = eng._count_into(big + eng.margin, t1)
    counts1 = eng._count_into(big, t1)
    counts2 = eng._count_into(big, t2)
    for v in window.vertices:
        c1, c2 = counts1.get(v, 0), counts2.get(v, 0)
        if c2 > c1:
            raise InfiniteDimensionAt(v)
        if c2 < c1:
            raise InternalConsistencyError(
                f"path count into the tail dropped at {v.canonical_id()}: "
                f"{c1} at {t1.canonical_id()} vs {c2} at {t2.canonical_id()}"
            )
        if check.get(v, 0) != c1:
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
    g = eng.graph(big)
    # (next vertex, arrow id) of each step that stays inside the reach
    steps = {}
    dims, labels, chosen = {}, {}, {}
    for v in window.vertices:
        want = counts1.get(v, 0)
        if not want:
            continue
        found = []
        stack = [(v, ())]
        while stack:
            at, ids = stack.pop()
            if at == t1:
                found.append(ids)
                continue
            at_steps = steps.get(at)
            if at_steps is None:
                at_steps = steps[at] = []
                for k, ti in g.out_adj[g.window.vertex_index(at)]:
                    w = regions._vertex_at(g, ti)
                    if w == t1 or w in counts1:
                        at_steps.append((w, g.window.arrow(k).canonical_id()))
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
        src = v.canonical_id()
        dims[v] = want
        labels[v] = tuple(
            (entry, describe_path(src, prefix))
            for (entry, (_, prefix)), _ in keyed
        )
        chosen[v] = [ids for _, ids in keyed]
    maps = _precomposition_maps(window, chosen)
    return RepWindow(window, dims, maps, labels)


# ---------------------------------------------------------------------------
# socle, radical, subrepresentations, quotients


@dataclass(frozen=True)
class SubRepWindow:
    """A subrepresentation given by per-vertex spanning rows inside a parent.

    ``boundary`` flags vertices whose defining arrows were truncated by the
    window; their fibers are computed from what is visible but should be
    excluded from assertions.
    """

    parent: RepWindow
    bases: dict
    boundary: frozenset = frozenset()

    def dim(self, vref):
        return len(self.bases.get(vref, ()))

    def dims_dict(self):
        return {v: len(b) for v, b in self.bases.items() if b}

    def as_rep(self):
        maps = {}
        for ar in self.parent.window.arrows:
            sb = self.bases.get(ar.source, ())
            tb = self.bases.get(ar.target, ())
            maps[ar.canonical_id()] = _coordinates(self.parent, ar, sb, tb)
        return RepWindow(self.parent.window, self.dims_dict(), maps)

    def inclusion(self):
        comps = {
            v: ratmat.transpose([list(r) for r in b])
            for v, b in self.bases.items()
            if b
        }
        return MorphismWindow(self.as_rep(), self.parent, comps)


def _neighbors_inside(eng, v, window):
    """Whether every one-step target of ``v`` under ``eng`` is in ``window``
    (never, at a fan source: it has infinitely many)."""
    if v in eng.fan_sources:
        return False
    # any other vertex's targets lie within max_shift of it or at a constant
    # |c| <= c_max, both inside radius + nstar, so the engine graph that
    # wide holds every arrow out of v
    g = eng.graph(window.radius + eng.nstar)
    return all(
        g.level[ti] <= window.radius
        for _, ti in g.out_adj[g.window.vertex_index(v)]
    )


def socle(m):
    """Intersection of the kernels of all outgoing maps, per vertex.

    Vertices with out-arrows truncated by the window are flagged boundary.
    """
    eng = regions.engine_for(m.window.description)
    bases, flags = {}, set()
    for v in m.window.vertices:
        d = m.dim(v)
        if d == 0:
            continue
        if not _neighbors_inside(eng, v, m.window):
            flags.add(v)
        stacked = []
        for ar in m.window.arrows_from(v):
            stacked.extend(m.matrix(ar))
        rows = ratmat.kernel_basis(stacked, cols=d)
        if rows:
            bases[v] = tuple(tuple(r) for r in rows)
    return SubRepWindow(m, bases, frozenset(flags))


def radical(m):
    """Sum of the images of all incoming maps, per vertex (dual flags)."""
    eng = regions.engine_for(m.window.description).op()
    bases, flags = {}, set()
    for v in m.window.vertices:
        if m.dim(v) == 0:
            continue
        if not _neighbors_inside(eng, v, m.window):
            flags.add(v)
        cols = []
        for ar in m.window.arrows_into(v):
            if m.dim(ar.source):
                cols.extend(ratmat.transpose(m.matrix(ar)))
        rows = ratmat.span_basis(cols)
        if rows:
            bases[v] = tuple(tuple(r) for r in rows)
    return SubRepWindow(m, bases, frozenset(flags))


def subrep_generated(m, seeds):
    """Smallest subrepresentation containing the seed vectors."""
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
    changed = True
    while changed:
        changed = False
        for ar in m.window.arrows:
            sb = spans.get(ar.source)
            if not sb:
                continue
            imgs = [ratmat.mat_vec(m.matrix(ar), u) for u in sb]
            old = spans.get(ar.target, [])
            new = ratmat.span_basis(old + imgs)
            if len(new) > len(old):
                spans[ar.target] = new
                changed = True
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
        rows = [list(r) for r in sub.bases.get(v, ())]
        cv = ratmat.complement_basis(rows, d)
        if cv:
            comp[v] = (rows, cv)
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
    return RepWindow(m.window, dims, maps)


def _coordinates(m, ar, vectors, basis, skip=0):
    """The matrix whose column j holds the coordinates of m(ar) vectors[j]
    over the rows of ``basis`` after the first ``skip``; raises unless
    each image lies in the span of ``basis``."""
    cols = []
    for u in vectors:
        w = ratmat.mat_vec(m.matrix(ar), list(u))
        coords = ratmat.coords_in_span([list(r) for r in basis], w)
        if coords is None:
            raise InternalConsistencyError(
                f"subspace is not closed under {ar.canonical_id()}"
            )
        cols.append(coords)
    return [[c[row] for c in cols] for row in range(skip, len(basis))]


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
        a, b = m1.matrix(ar), m2.matrix(ar)
        ra, ca = len(a), m1.dim(ar.source)
        rb, cb = len(b), m2.dim(ar.source)
        m = ratmat.zeros(ra + rb, ca + cb)
        for i in range(ra):
            for j in range(ca):
                m[i][j] = a[i][j]
        for i in range(rb):
            for j in range(cb):
                m[ra + i][ca + j] = b[i][j]
        maps[ar.canonical_id()] = m
    labels = {}
    for v in dims:
        labels[v] = tuple(
            [(0, l) for l in m1.labels(v)] + [(1, l) for l in m2.labels(v)]
        )
    return RepWindow(m1.window, dims, maps, labels)


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
        if len(x) != self.dimension:
            raise PreconditionError(
                f"vector has length {len(x)}, expected {self.dimension}"
            )
        x = [Fraction(c) for c in x]
        m, window = self.rep, self.rep.window
        comps = {}
        if self.kind == "from_projective":
            paths = _path_basis(window, self.vertex)
            for v, ps in paths.items():
                mat = [[Fraction(0)] * len(ps) for _ in range(m.dim(v))]
                for col, (_, arrows) in enumerate(ps):
                    p = Path(self.vertex, arrows)
                    img = ratmat.mat_vec(apply_path(m, p), x)
                    for row, c in enumerate(img):
                        mat[row][col] = c
                comps[v] = mat
            return MorphismWindow(self.standard, m, comps)
        paths = _path_basis(window, self.vertex, reverse=True)
        for v, ps in paths.items():
            mat = []
            for _, arrows in ps:
                mp = apply_path(m, Path(v, arrows))
                mat.append(
                    [
                        sum((x[i] * mp[i][j] for i in range(len(mp))), Fraction(0))
                        for j in range(m.dim(v))
                    ]
                )
            comps[v] = mat
        return MorphismWindow(m, self.standard, comps)

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
        mat = i.matrix(aid)
        square = dims[pos] == dims[pos + 1]
        bij.append(square and ratmat.rank(list(mat)) == dims[pos])
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


def dump_rep(m):
    """Deterministic text dump: dimensions, then matrices in window order."""
    lines = [f"window radius {m.window.radius}"]
    for v in m.window.vertices:
        lines.append(f"vertex {v.canonical_id()} dim {m.dim(v)}")
    for ar in m.window.arrows:
        mat = m.matrix(ar)
        rows = len(mat)
        cols = len(mat[0]) if mat else m.dim(ar.source)
        lines.append(f"arrow {ar.canonical_id()} {rows}x{cols}")
        for row in mat:
            # most entries of a path map are 0: format only the others
            cells = ["0/1"] * len(row)
            for j, c in enumerate(row):
                if c:
                    cells[j] = f"{c.numerator}/{c.denominator}"
            lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
