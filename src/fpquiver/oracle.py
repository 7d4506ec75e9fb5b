"""Independent brute-force engine on explicit finite quivers.

Everything here is deliberately naive: exhaustive recursion for path sets,
breadth-first reachability for predecessor counts, and plain dense Gaussian
elimination over Fractions for ranks.  None of the enumeration or
elimination code is shared with the symbolic layer, so agreement between
the two is meaningful evidence rather than a tautology.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import regions
from .patterns import Finite
from .qdl import DOMAIN_NAT, core, instantiate_window, parse, ray


class CycleDetected(Exception):
    """The explicit quiver has an oriented cycle; path sets are infinite."""


class OracleMismatch(Exception):
    """A brute-force trace contradicts the symbolic answer."""


@dataclass(frozen=True)
class ExplicitQuiver:
    """A plain finite quiver: vertex list plus (label, source, target)."""

    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        vs = set(self.vertices)
        for label, s, t in self.arrows:
            if s not in vs or t not in vs:
                raise ValueError(f"dangling endpoint on arrow {label}")


def from_window(window):
    return ExplicitQuiver(
        tuple(window.vertices),
        tuple(
            (ar.canonical_id(), ar.source, ar.target) for ar in window.arrows
        ),
    )


def _vkey(v):
    return v.sort_key() if hasattr(v, "sort_key") else (str(v),)


def _sorted_arrows(g):
    return sorted(g.arrows, key=lambda a: (a[0], _vkey(a[1]), _vkey(a[2])))


def check_acyclic(g):
    adj = {}
    for _, s, t in g.arrows:
        adj.setdefault(s, []).append(t)
    color = {}
    for root in g.vertices:
        if color.get(root):
            continue
        color[root] = 1
        stack = [(root, iter(adj.get(root, ())))]
        while stack:
            v, it = stack[-1]
            for w in it:
                c = color.get(w, 0)
                if c == 1:
                    raise CycleDetected(f"cycle through {w}")
                if c == 0:
                    color[w] = 1
                    stack.append((w, iter(adj.get(w, ()))))
                    break
            else:
                color[v] = 2
                stack.pop()


def paths_from(g, a, reverse=False):
    """Every path out of ``a`` (into it, if reverse), grouped by endpoint."""
    check_acyclic(g)
    adj = {}
    for arr in _sorted_arrows(g):
        adj.setdefault(arr[2] if reverse else arr[1], []).append(arr)
    out = {a: [()]}
    work = [(a, ())]
    while work:
        v, p = work.pop(0)
        for arr in adj.get(v, ()):
            w = arr[1] if reverse else arr[2]
            np = ((arr,) + p) if reverse else (p + (arr,))
            out.setdefault(w, []).append(np)
            work.append((w, np))
    for v in out:
        out[v].sort(key=lambda p: (len(p), tuple(x[0] for x in p)))
    return out


def brute_paths(g, a, b):
    """Exhaustive list of paths a -> b, each a tuple of arrow triples."""
    return paths_from(g, a).get(b, []) if a in set(g.vertices) else []


def brute_reach_count(g, v, reverse=False):
    """How many vertices have a path from (or into, if reverse) ``v``."""
    adj = {}
    for _, s, t in g.arrows:
        if reverse:
            adj.setdefault(t, []).append(s)
        else:
            adj.setdefault(s, []).append(t)
    return len(_closure(adj, v))


def _closure(adj, v):
    """Every vertex with a path from ``v`` along the lists ``adj``, ``v``
    included."""
    seen = {v}
    work = [v]
    while work:
        for w in adj.get(work.pop(), ()):
            if w not in seen:
                seen.add(w)
                work.append(w)
    return seen


# ---------------------------------------------------------------------------
# representation builders and dense elimination


def brute_build_P(g, a):
    check_acyclic(g)
    paths = paths_from(g, a)
    dims = {v: len(ps) for v, ps in paths.items()}
    pos = {v: {p: k for k, p in enumerate(ps)} for v, ps in paths.items()}
    maps = {}
    for arr in g.arrows:
        label, s, t = arr
        mat = [
            [Fraction(0)] * dims.get(s, 0) for _ in range(dims.get(t, 0))
        ]
        for k, p in enumerate(paths.get(s, [])):
            mat[pos[t][p + (arr,)]][k] = Fraction(1)
        maps[label] = mat
    return {"dims": dims, "maps": maps, "basis": paths}


def brute_build_I(g, a):
    check_acyclic(g)
    paths = paths_from(g, a, reverse=True)
    dims = {v: len(ps) for v, ps in paths.items()}
    pos = {v: {p: k for k, p in enumerate(ps)} for v, ps in paths.items()}
    maps = {}
    for arr in g.arrows:
        label, s, t = arr
        mat = [
            [Fraction(0)] * dims.get(s, 0) for _ in range(dims.get(t, 0))
        ]
        for k, p in enumerate(paths.get(t, [])):
            col = pos.get(s, {}).get((arr,) + p)
            if col is not None:
                mat[k][col] = Fraction(1)
        maps[label] = mat
    return {"dims": dims, "maps": maps, "basis": paths}


def brute_rank(rows):
    """Row rank by textbook Gauss-Jordan over Fractions."""
    a = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        a[rank] = [x / pv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def brute_socle(m):
    """Per-vertex socle dimensions of a representation window."""
    out = {}
    for v in m.window.vertices:
        d = m.dim(v)
        if d == 0:
            continue
        rows = []
        for ar in m.window.arrows:
            if ar.source == v:
                rows.extend(m.matrix(ar))
        null = d - brute_rank(rows)
        if null:
            out[v] = null
    return out


def brute_radical(m):
    """Per-vertex radical dimensions of a representation window."""
    out = {}
    for v in m.window.vertices:
        if m.dim(v) == 0:
            continue
        cols = []
        for ar in m.window.arrows:
            if ar.target == v and m.dim(ar.source):
                mat = m.matrix(ar)
                for j in range(m.dim(ar.source)):
                    cols.append([mat[i][j] for i in range(len(mat))])
        r = brute_rank(cols)
        if r:
            out[v] = r
    return out


# ---------------------------------------------------------------------------
# convergence probes


def window_convergence_probe(q, query, radii):
    """Brute values of a symbolic query across growing windows.

    Returns the trace and raises OracleMismatch when it contradicts the
    symbolic answer: a Finite answer must hold exactly at every probed
    radius past the stabilization index (shifted by the query's own index
    offsets), and an Infinite answer must grow strictly along the trace.
    """
    radii = list(radii)
    if radii != sorted(set(radii)):
        raise ValueError("radii must be strictly increasing")
    eng = regions.engine_for(q)
    kind = query[0]
    if kind == "paths":
        _, a, b = query
        offsets = [abs(v.index) for v in (a, b) if v.kind == "ray"]
        symbolic = eng.path_count(a, b)
        expected = symbolic.count if symbolic.is_finite else None
        vals = []
        for r in radii:
            w = instantiate_window(q, r)
            if not (w.contains(a) and w.contains(b)):
                raise ValueError(f"radius {r} does not contain the query pair")
            vals.append(len(brute_paths(from_window(w), a, b)))
    elif kind in ("pred", "succ"):
        _, v = query
        offsets = [abs(v.index)] if v.kind == "ray" else []
        fn = regions.predecessors if kind == "pred" else regions.successors
        card = fn(q, v).cardinality(q)
        expected = card.count if isinstance(card, Finite) else None
        vals = []
        for r in radii:
            w = instantiate_window(q, r)
            if not w.contains(v):
                raise ValueError(f"radius {r} does not contain the query vertex")
            vals.append(
                brute_reach_count(from_window(w), v, reverse=kind == "pred")
            )
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    if any(x > y for x, y in zip(vals, vals[1:])):
        raise OracleMismatch(f"trace not monotone: {vals} at radii {radii}")
    threshold = eng.nstar + max(offsets, default=0)
    if expected is not None:
        for r, val in zip(radii, vals):
            if r >= threshold and val != expected:
                raise OracleMismatch(
                    f"finite answer {expected} but brute value {val} at "
                    f"radius {r} (stabilization threshold {threshold})"
                )
    else:
        if not all(y > x for x, y in zip(vals, vals[1:])):
            raise OracleMismatch(
                f"infinite answer but trace not strictly growing: {vals} "
                f"at radii {radii}"
            )
    return tuple(vals)


def brute_ia(q):
    """The I_a criterion, read off explicit windows alone.

    Returns ``{vertex: bool}`` for each core vertex and each ray point with
    |i| <= nstar, True where the injective is finitely presented.  Windows
    at radii 2·nstar + 4b + k·(b+1), k = 0, 1, 2, with b = (R+1)(s+1), are
    searched backwards from each vertex: a predecessor count that grows
    strictly across them is infinite, one that stays put is finite, and any
    other trace raises OracleMismatch.  A predecessor in the smallest window
    whose out-degree grows from the smallest window to the largest is a fan
    source, so it has infinite out-degree.
    """
    nstar = regions.stabilization_index(q)
    b = (len(q.rays) + 1) * (q.max_shift() + 1)
    windows = []
    for k in range(3):
        w = instantiate_window(q, 2 * nstar + 4 * b + k * (b + 1))
        into, outdeg = {}, {}
        for ar in w.arrows:
            into.setdefault(ar.target, []).append(ar.source)
            outdeg[ar.source] = outdeg.get(ar.source, 0) + 1
        windows.append((into, outdeg))
    points = [core(name) for name in q.core_vertices]
    for name, dom in q.rays:
        lo = 0 if dom == DOMAIN_NAT else -nstar
        points.extend(ray(name, i) for i in range(lo, nstar + 1))
    out = {}
    for v in points:
        preds = [_closure(into, v) for into, _ in windows]
        counts = [len(p) for p in preds]
        if counts[0] < counts[1] < counts[2]:
            out[v] = False
        elif counts[0] == counts[1] == counts[2]:
            first, last = windows[0][1], windows[-1][1]
            out[v] = all(first.get(p, 0) == last.get(p, 0) for p in preds[0])
        else:
            raise OracleMismatch(
                f"predecessor counts of {v.canonical_id()} neither fixed nor "
                f"strictly growing: {counts}"
            )
    return out


# ---------------------------------------------------------------------------
# random fragment descriptions for differential testing


def random_description(rng, name="rnd"):
    """A random small description in the fragment; always parses."""
    for _ in range(64):
        text = _random_text(rng, name)
        try:
            return parse(text)
        except Exception:
            continue
    raise RuntimeError("random generator kept producing invalid text")


def _random_text(rng, name):
    lines = [f"quiver {name}"]
    cores = [f"c{k}" for k in range(rng.randint(0, 1))]
    rays = [f"r{k}" for k in range(rng.randint(1, 2))]
    doms = {r: rng.choice(["nat", "int"]) for r in rays}
    for c in cores:
        lines.append(f"vertex {c}")
    for r in rays:
        lines.append(f"ray {r} domain {doms[r]}")
    for k in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.15 and cores:
            lines.append(
                f"family f{k}: {rng.choice(cores)} -> {rng.choice(rays)}[i] "
                f"for i >= {rng.randint(0, 1)}"
            )
        elif roll < 0.25 and cores:
            lines.append(
                f"family f{k}: {rng.choice(rays)}[i] -> {rng.choice(cores)} "
                f"for i >= {rng.randint(0, 1)}"
            )
        else:
            src, tgt = rng.choice(rays), rng.choice(rays)
            sh = rng.randint(-2, 2)
            t_ep = (
                f"{tgt}[i]"
                if sh == 0
                else f"{tgt}[i{'+' if sh > 0 else '-'}{abs(sh)}]"
            )
            if doms[src] == "int" and doms[tgt] == "int" and rng.random() < 0.4:
                guard = "for all i"
            else:
                guard = f"for i >= {rng.randint(0, 2)}"
            lines.append(f"family f{k}: {src}[i] -> {t_ep} {guard}")
    for k in range(rng.randint(0, 2)):
        ends = []
        for _ in range(2):
            if cores and rng.random() < 0.3:
                ends.append(rng.choice(cores))
            else:
                r = rng.choice(rays)
                lo = 0 if doms[r] == "nat" else -2
                ends.append(f"{r}[{rng.randint(lo, 2)}]")
        lines.append(f"arrow g{k}: {ends[0]} -> {ends[1]}")
    return "\n".join(lines)
