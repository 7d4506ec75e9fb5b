"""Eventually periodic integer sets and vertex-set descriptions.

Reachability along a ray always stabilizes into a periodic pattern, so every
vertex set the region analysis produces is, per ray, of the form

    finite part  +  upward tail {i >= t : i mod p in R}  +  downward tail.

:class:`IndexSet` stores that shape in a canonical form (structural equality
is semantic equality).  On the common stride-1 case the shape collapses to the
familiar predicates: empty, finite, {i >= k}, {i <= k}, cofinite.

Union, intersection and difference follow one pointwise rule: past the
outermost threshold or point of both operands each operand is its tail
pattern, so the result there is a tail of the lcm period with the residues
the operation keeps; the points in between are read one by one.  When the
result lies inside the operands' points (both finite, or an intersection
or difference inside a finite operand), only those points are read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


class InternalConsistencyError(Exception):
    """An analysis invariant failed; results would be unreliable."""


# ---------------------------------------------------------------------------
# index sets


def _reduce_pattern(p, residues):
    residues = frozenset(r % p for r in residues)
    for d in range(1, p + 1):
        if p % d:
            continue
        rd = frozenset(r % d for r in residues)
        if frozenset(r for r in range(p) if r % d in rd) == residues:
            return d, rd
    return p, residues


def _raw_contains(up, down, mid, i):
    if i in mid:
        return True
    if up is not None:
        t, p, rs = up
        if i >= t and i % p in rs:
            return True
    if down is not None:
        t, p, rs = down
        if i <= t and i % p in rs:
            return True
    return False


def _pattern_elem_at_least(p, rs, bound):
    i = bound
    while i % p not in rs:
        i += 1
    return i


def _pattern_elem_at_most(p, rs, bound):
    i = bound
    while i % p not in rs:
        i -= 1
    return i


def _flip(tail):
    """The mirror image {-i} of a tail (t, p, R): an up tail becomes a
    down tail and back; None stays None."""
    if tail is None:
        return None
    t, p, rs = tail
    return (-t, p, frozenset(-r % p for r in rs))


def _shift_tail(tail, k):
    if tail is None:
        return None
    t, p, rs = tail
    return (t + k, p, frozenset((r + k) % p for r in rs))


def _canonicalize(up, down, mid):
    mid = frozenset(mid)
    if up is not None:
        t, p, rs = up
        p2, rs2 = _reduce_pattern(p, rs)
        up = (t, p2, rs2) if rs2 else None
    if down is not None:
        t, p, rs = down
        p2, rs2 = _reduce_pattern(p, rs)
        down = (t, p2, rs2) if rs2 else None
    if up is None and down is None:
        return None, None, mid

    periods = [1]
    pts = [0]
    if up is not None:
        periods.append(up[1])
        pts.append(up[0])
    if down is not None:
        periods.append(down[1])
        pts.append(down[0])
    if mid:
        pts.extend((min(mid), max(mid)))
    big = math.lcm(*periods)
    lo_scan = min(pts) - 2 * big - 2
    hi_scan = max(pts) + 2 * big + 2

    def member(i):
        return _raw_contains(up, down, mid, i)

    new_up = None
    if up is not None:
        _, p, rs = up
        mismatch = None
        for i in range(hi_scan, lo_scan - 1, -1):
            if member(i) != (i % p in rs):
                mismatch = i
                break
        if mismatch is None:
            # the set is exactly the up pattern on all of Z
            t_star = _pattern_elem_at_least(p, rs, 0)
            t_dn = _pattern_elem_at_most(p, rs, t_star - 1)
            return (t_star, p, rs), (t_dn, p, rs), frozenset()
        new_up = (_pattern_elem_at_least(p, rs, mismatch + 1), p, rs)

    new_down = None
    if down is not None:
        _, p, rs = down
        # there is a mismatch: with an up tail an exact match returned above,
        # and without one the set is empty on (max(pts), hi_scan], whose
        # 2 * big + 2 points hold an element of the nonempty pattern
        mismatch = next(i for i in range(lo_scan, hi_scan + 1)
                        if member(i) != (i % p in rs))
        t_dn = _pattern_elem_at_most(p, rs, mismatch - 1)
        if new_up is not None and t_dn >= new_up[0]:
            t_dn = _pattern_elem_at_most(p, rs, new_up[0] - 1)
        new_down = (t_dn, p, rs)

    lo = new_down[0] + 1 if new_down is not None else lo_scan
    hi = new_up[0] - 1 if new_up is not None else hi_scan
    new_mid = frozenset(i for i in range(lo, hi + 1) if member(i))
    return new_up, new_down, new_mid


@dataclass(frozen=True)
class IndexSet:
    """Canonical eventually periodic subset of the integers."""

    up: tuple | None = None  # (threshold, period, residues): {i >= t, i%p in R}
    down: tuple | None = None
    mid: frozenset = frozenset()

    # --- constructors ----------------------------------------------------

    @staticmethod
    def make(up=None, down=None, mid=()):
        u, d, m = _canonicalize(up, down, mid)
        return IndexSet(u, d, m)

    @staticmethod
    def empty():
        return IndexSet()

    @staticmethod
    def of(points):
        return IndexSet.make(mid=points)

    @staticmethod
    def up_from(t, stride=1):
        return IndexSet.make(up=(t, stride, frozenset({t % stride})))

    @staticmethod
    def down_from(t, stride=1):
        return IndexSet.make(down=(t, stride, frozenset({t % stride})))

    @staticmethod
    def domain_set(domain):
        if domain == "nat":
            return IndexSet.up_from(0)
        return IndexSet.make(
            up=(0, 1, frozenset({0})), down=(-1, 1, frozenset({0}))
        )

    # --- queries ----------------------------------------------------------

    def contains(self, i):
        return _raw_contains(self.up, self.down, self.mid, i)

    __contains__ = contains

    @property
    def is_empty(self):
        return self.up is None and self.down is None and not self.mid

    @property
    def is_finite(self):
        return self.up is None and self.down is None

    def size(self):
        return len(self.mid) if self.is_finite else None

    def elements(self):
        if not self.is_finite:
            raise ValueError("infinite index set")
        return sorted(self.mid)

    def elements_in(self, lo, hi):
        return [i for i in range(lo, hi + 1) if self.contains(i)]

    # --- algebra -----------------------------------------------------------

    def shift(self, k):
        return IndexSet.make(
            up=_shift_tail(self.up, k),
            down=_shift_tail(self.down, k),
            mid=(i + k for i in self.mid),
        )

    def union(self, other):
        return _pointwise(self, other, operator.or_)

    def intersect(self, other):
        return _pointwise(self, other, operator.and_)

    def difference(self, other):
        return _pointwise(self, other, lambda x, y: x and not y)

    # --- reporting ----------------------------------------------------------

    def shape(self, domain_set=None):
        """Normalized predicate shape, optionally relative to a domain.

        ``domain_set`` may be an IndexSet or a domain name ("nat"/"int").
        """
        if isinstance(domain_set, str):
            domain_set = IndexSet.domain_set(domain_set)
        if self.is_empty:
            return "empty"
        if self.is_finite:
            return "finite"
        if domain_set is not None:
            if self == domain_set:
                return "all"
            rest = domain_set.difference(self)
            if rest.is_finite:
                return "cofinite"
        if (
            self.up is not None
            and self.down is None
            and not self.mid
            and self.up[1] == 1
        ):
            return "up"
        if (
            self.down is not None
            and self.up is None
            and not self.mid
            and self.down[1] == 1
        ):
            return "down"
        return "mixed"

    def display(self, domain_set=None):
        if isinstance(domain_set, str):
            domain_set = IndexSet.domain_set(domain_set)
        shape = self.shape(domain_set)
        if shape == "empty":
            return "empty"
        if shape == "all":
            return "all"
        if shape == "cofinite":
            missing = domain_set.difference(self).elements()
            return "all except {" + ", ".join(str(i) for i in missing) + "}"
        if shape == "finite":
            return "{" + ", ".join(str(i) for i in self.elements()) + "}"
        pieces = []
        if self.down is not None:
            pieces.append(_tail_text(self.down, "<="))
        if self.mid:
            pieces.append("{" + ", ".join(str(i) for i in sorted(self.mid)) + "}")
        if self.up is not None:
            pieces.append(_tail_text(self.up, ">="))
        return " | ".join(pieces)


def _tail_text(tail, relation):
    t, p, rs = tail
    if p == 1:
        return f"i {relation} {t}"
    rtxt = ",".join(str(r) for r in sorted(rs))
    return f"i {relation} {t} with i mod {p} in {{{rtxt}}}"


def _tail_op(a, b, op, t):
    """The tail from ``t`` whose residues satisfy ``op`` on membership in
    the patterns of tails ``a`` and ``b`` (None: the empty pattern)."""
    pa, ra = (a[1], a[2]) if a is not None else (1, frozenset())
    pb, rb = (b[1], b[2]) if b is not None else (1, frozenset())
    p = math.lcm(pa, pb)
    rs = frozenset(r for r in range(p) if op(r % pa in ra, r % pb in rb))
    return (t, p, rs)


def _pointwise(a, b, op):
    """The set {i : op(i in a, i in b)} for a boolean ``op``.

    Above every threshold and point of both operands, each is exactly its
    up-tail pattern (or empty), so the result there is the up tail of the
    lcm period; below all of them the same holds for the down tails.  The
    points in between are read one by one, and ``make`` moves the new
    thresholds inward.

    Off its points a finite operand holds nothing.  When ``op`` is false
    on every pair of memberships the operands allow off their points, the
    result lies inside those points, and only they are read.
    """
    off = [(False,) if s.is_finite else (False, True) for s in (a, b)]
    if not any(op(x, y) for x in off[0] for y in off[1]):
        return IndexSet.make(
            mid=(i for i in a.mid | b.mid if op(a.contains(i), b.contains(i)))
        )
    bounds = [i for s in (a, b) for i in s.mid]
    bounds += [t[0] for s in (a, b) for t in (s.up, s.down) if t is not None]
    lo, hi = min(bounds, default=0), max(bounds, default=0)
    return IndexSet.make(
        up=_tail_op(a.up, b.up, op, hi + 1),
        down=_tail_op(a.down, b.down, op, lo - 1),
        mid=(i for i in range(lo, hi + 1) if op(a.contains(i), b.contains(i))),
    )


# ---------------------------------------------------------------------------
# cardinalities and witnesses


@dataclass(frozen=True)
class Finite:
    count: int

    @property
    def is_finite(self):
        return True

    def __repr__(self):
        return f"Finite({self.count})"


@dataclass(frozen=True)
class Infinite:
    witness: object = None

    @property
    def is_finite(self):
        return False

    def __repr__(self):
        return "Infinite"


@dataclass(frozen=True)
class TailWitness:
    """An infinite vertex set: every instance of the progression belongs."""

    ray: str
    direction: str  # "+" or "-"
    start: int
    stride: int = 1

    def instances(self, count):
        from .qdl import ray

        step = self.stride if self.direction == "+" else -self.stride
        return tuple(ray(self.ray, self.start + k * step) for k in range(count))


# ---------------------------------------------------------------------------
# vertex-set descriptions


@dataclass(frozen=True)
class SupportDescription:
    """A (possibly infinite) vertex set: core names + per-ray index sets."""

    cores: frozenset
    ray_parts: tuple  # sorted (ray_name, IndexSet), empty parts omitted

    @staticmethod
    def build(cores=(), parts=None):
        parts = parts or {}
        packed = tuple(
            sorted((name, iset) for name, iset in parts.items() if not iset.is_empty)
        )
        return SupportDescription(frozenset(cores), packed)

    @staticmethod
    def everything(q):
        return SupportDescription.build(
            cores=q.core_vertices,
            parts={
                name: IndexSet.domain_set(dom) for name, dom in q.rays
            },
        )

    def __repr__(self):
        # the dataclass text with the core names sorted: a set of strings
        # iterates in an order that changes with the hash seed
        cores = ", ".join(map(repr, sorted(self.cores)))
        cores = f"frozenset({{{cores}}})" if cores else "frozenset()"
        return f"SupportDescription(cores={cores}, ray_parts={self.ray_parts!r})"

    def ray_part(self, name):
        for n, iset in self.ray_parts:
            if n == name:
                return iset
        return IndexSet.empty()

    def contains(self, vref):
        if vref.kind == "core":
            return vref.name in self.cores
        return self.ray_part(vref.name).contains(vref.index)

    @property
    def is_empty(self):
        return not self.cores and not self.ray_parts

    @property
    def is_finite(self):
        return all(iset.is_finite for _, iset in self.ray_parts)

    def count(self):
        if not self.is_finite:
            return None
        return len(self.cores) + sum(len(iset.mid) for _, iset in self.ray_parts)

    def cardinality(self, q):
        for name, _dom in q.rays:
            iset = self.ray_part(name)
            if iset.up is not None:
                t, p, rs = iset.up
                start = _pattern_elem_at_least(p, rs, t)
                return Infinite(TailWitness(name, "+", start, p))
            if iset.down is not None:
                t, p, rs = iset.down
                start = _pattern_elem_at_most(p, rs, t)
                return Infinite(TailWitness(name, "-", start, p))
        return Finite(self.count())

    def _per_ray(self, other, cores, op):
        names = {n for n, _ in self.ray_parts} | {n for n, _ in other.ray_parts}
        parts = {n: op(self.ray_part(n), other.ray_part(n)) for n in names}
        return SupportDescription.build(cores, parts)

    def union(self, other):
        return self._per_ray(other, self.cores | other.cores, IndexSet.union)

    def intersect(self, other):
        return self._per_ray(other, self.cores & other.cores, IndexSet.intersect)

    def difference(self, other):
        return self._per_ray(other, self.cores - other.cores, IndexSet.difference)

    def vertices(self, q):
        """All members in canonical order; the set must be finite."""
        from .qdl import core, ray

        if not self.is_finite:
            raise ValueError("infinite vertex set")
        out = [core(name) for name in q.core_vertices if name in self.cores]
        for name, _dom in q.rays:
            out.extend(ray(name, i) for i in self.ray_part(name).elements())
        return out

    def in_window(self, q, radius):
        """Members visible in Window(radius), as a set of VertexRefs."""
        from .qdl import core, ray

        out = set(core(name) for name in self.cores)
        for name, iset in self.ray_parts:
            lo = 0 if q.domain(name) == "nat" else -radius
            out.update(ray(name, i) for i in iset.elements_in(lo, radius))
        return out

    def summary(self, q):
        """One-line description, e.g. for query reports."""
        card = self.cardinality(q)
        if isinstance(card, Finite):
            ids = ", ".join(v.canonical_id() for v in self.vertices(q))
            return f"finite {{{ids}}}"
        pieces = []
        for name in sorted(self.cores):
            pieces.append(f"v:{name}")
        for name, dom in q.rays:
            iset = self.ray_part(name)
            if not iset.is_empty:
                pieces.append(f"ray {name}, {iset.display(IndexSet.domain_set(dom))}")
        return "infinite (" + "; ".join(pieces) + ")"
