"""Symbolic index sets and support descriptions."""

import math
import operator
import random

import pytest

from fpquiver.patterns import (
    Finite,
    IndexSet,
    Infinite,
    SupportDescription,
    TailWitness,
    _flip,
    _pattern_elem_at_least,
    _pointwise,
    _tail_op,
)
from fpquiver.qdl import core, ray


def test_finite_set_basics():
    s = IndexSet.of([3, 1, 3])
    assert s.display("int") == "{1, 3}"
    assert s.shape("int") == "finite"
    assert list(s.elements()) == [1, 3]
    assert s.size() == 2
    assert s.contains(3)
    assert not s.contains(2)


def test_empty_set():
    e = IndexSet.empty()
    assert e.is_empty
    assert e.shape("int") == "empty"
    assert e.size() == 0


def test_tails():
    u = IndexSet.up_from(4)
    assert u.display("int") == "i >= 4"
    assert u.shape("int") == "up"
    assert u.contains(4) and u.contains(100) and not u.contains(3)
    assert u.size() is None
    d = IndexSet.down_from(-1)
    assert d.display("int") == "i <= -1"
    assert d.shape("int") == "down"
    assert u.intersect(d).is_empty


def test_up_tail_is_cofinite_on_nat():
    u = IndexSet.up_from(4)
    assert u.shape("nat") == "cofinite"
    assert u.display("nat") == "all except {0, 1, 2, 3}"


def test_domain_sets():
    assert IndexSet.domain_set("nat").shape("nat") == "all"
    assert IndexSet.domain_set("int").display("int") == "all"


def test_union_difference():
    nat = IndexSet.domain_set("nat")
    cof = nat.difference(IndexSet.of([0, 2]))
    assert cof.shape("nat") == "cofinite"
    assert cof.display("nat") == "all except {0, 2}"
    assert not cof.contains(0)
    assert cof.contains(1)
    mix = IndexSet.of([0]).union(IndexSet.up_from(4))
    assert mix.display("int") == "{0} | i >= 4"
    assert mix.contains(0) and mix.contains(4) and not mix.contains(2)
    # two opposite tails leave a finite gap: cofinite
    both = IndexSet.up_from(5).union(IndexSet.down_from(-5))
    assert both.shape("int") == "cofinite"


def test_strided_tail():
    s = IndexSet.up_from(1, 2)
    assert s.contains(1) and s.contains(3)
    assert not s.contains(2)
    assert "mod 2" in s.display("int")


def test_shift():
    assert IndexSet.of([1, 2]).shift(3).display("int") == "{4, 5}"
    assert IndexSet.up_from(0).shift(-2).contains(-2)


def test_set_algebra_against_enumeration():
    window = range(-20, 21)
    a = IndexSet.of([-3, 0, 5]).union(IndexSet.up_from(7, 3))
    b = IndexSet.down_from(2)
    for s, t, op in (
        (a, b, "union"),
        (a, b, "intersect"),
        (a, b, "difference"),
        (b, a, "difference"),
    ):
        got = getattr(s, op)(t)
        for i in window:
            lhs = got.contains(i)
            if op == "union":
                rhs = s.contains(i) or t.contains(i)
            elif op == "intersect":
                rhs = s.contains(i) and t.contains(i)
            else:
                rhs = s.contains(i) and not t.contains(i)
            assert lhs == rhs, (op, i)


def test_support_description_finite(ex3):
    s = SupportDescription.build(
        cores=("v0",), parts={"b": IndexSet.of([0, 1])}
    )
    assert s.summary(ex3) == "finite {v:v0, r:b:0, r:b:1}"
    assert s.cardinality(ex3) == Finite(3)
    assert [v.canonical_id() for v in s.vertices(ex3)] == [
        "v:v0", "r:b:0", "r:b:1"]
    assert s.contains(core("v0"))
    assert not s.contains(ray("b", 2))


def test_support_description_infinite(ex2):
    s = SupportDescription.build(parts={"a": IndexSet.down_from(0)})
    assert s.summary(ex2) == "infinite (ray a, i <= 0)"
    card = s.cardinality(ex2)
    assert isinstance(card, Infinite)
    assert card.witness == TailWitness(ray="a", direction="-", start=0,
                                       stride=1)
    with pytest.raises(ValueError):
        s.vertices(ex2)


def test_support_description_everything(ex2):
    ev = SupportDescription.everything(ex2)
    assert ev.summary(ex2) == "infinite (ray a, all)"
    assert ev.contains(ray("a", -100))


def test_support_algebra(ex3):
    s = SupportDescription.build(cores=("v0",),
                                 parts={"b": IndexSet.of([0, 1])})
    t = SupportDescription.build(parts={"b": IndexSet.of([1, 2])})
    u = s.union(t)
    assert u.contains(ray("b", 2)) and u.contains(core("v0"))
    i = s.intersect(t)
    assert i.summary(ex3) == "finite {r:b:1}"
    d = s.difference(t)
    assert d.contains(ray("b", 0)) and not d.contains(ray("b", 1))


def test_cardinality_flags():
    assert Finite(2).is_finite
    assert not Infinite(None).is_finite
    assert Finite(0) == Finite(0)


# --- reference: the per-operation tail algebra the set operations used to
# run, kept verbatim so the pointwise rule can be checked against it


def _ref_tail_union(a, b, spill, upward):
    if a is None and b is None:
        return None
    if a is None or b is None:
        return a if b is None else b
    ta, pa, ra = a
    tb, pb, rb = b
    p = math.lcm(pa, pb)
    rs = frozenset(
        r for r in range(p) if (r % pa in ra) or (r % pb in rb)
    )
    t = max(ta, tb) if upward else min(ta, tb)
    for tt, pp, rr in (a, b):
        rng = range(tt, t) if upward else range(t + 1, tt + 1)
        for i in rng:
            if i % pp in rr:
                spill.add(i)
    return (t, p, rs)


def _ref_tail_intersect(a, b, upward):
    if a is None or b is None:
        return None
    ta, pa, ra = a
    tb, pb, rb = b
    p = math.lcm(pa, pb)
    rs = frozenset(r for r in range(p) if (r % pa in ra) and (r % pb in rb))
    if not rs:
        return None
    t = max(ta, tb) if upward else min(ta, tb)
    return (t, p, rs)


def _ref_tail_difference(a, b_up, b_mid, b_down):
    """The up tail of A minus B, from A's up tail ``a`` and B's parts."""
    if a is None:
        return None
    ta, pa, ra = a
    if b_up is None:
        p, rs = pa, ra
    else:
        _, pb, rb = b_up
        p = math.lcm(pa, pb)
        rs = frozenset(r for r in range(p) if r % pa in ra and r % pb not in rb)
    if not rs:
        return None
    floor = ta
    if b_up is not None:
        floor = max(floor, b_up[0])
    if b_mid:
        floor = max(floor, max(b_mid) + 1)
    if b_down is not None:
        floor = max(floor, b_down[0] + 1)
    return (_pattern_elem_at_least(p, rs, floor), p, rs)


def _ref_residual_band(a, b, up, down):
    """Bounded range holding every result element outside the new tails.

    Above ``max(bounds) + L`` each operand is exactly its up pattern (or
    absent), so pointwise results there agree with the tail already computed;
    likewise below.  A joint period of padding absorbs threshold alignment.
    """
    bounds = [0]
    periods = [1]
    for s in (a, b):
        bounds.extend(s.mid)
        for tail in (s.up, s.down):
            if tail is not None:
                bounds.append(tail[0])
                periods.append(tail[1])
    pad = math.lcm(*periods)
    hi = up[0] - 1 if up is not None else max(bounds) + pad
    lo = down[0] + 1 if down is not None else min(bounds) - pad
    return lo, hi


def _ref_union(self, other):
    spill = set(self.mid) | set(other.mid)
    up = _ref_tail_union(self.up, other.up, spill, upward=True)
    down = _ref_tail_union(self.down, other.down, spill, upward=False)
    return IndexSet.make(up=up, down=down, mid=spill)


def _ref_intersect(self, other):
    if self.is_empty or other.is_empty:
        return IndexSet.empty()
    up = _ref_tail_intersect(self.up, other.up, upward=True)
    down = _ref_tail_intersect(self.down, other.down, upward=False)
    lo, hi = _ref_residual_band(self, other, up, down)
    mid = {
        i
        for i in range(lo, hi + 1)
        if self.contains(i) and other.contains(i)
    }
    return IndexSet.make(up=up, down=down, mid=mid)


def _ref_difference(self, other):
    if self.is_empty:
        return IndexSet.empty()
    up = _ref_tail_difference(self.up, other.up, other.mid, other.down)
    # the down tail is the up tail of the mirror images
    down = _flip(
        _ref_tail_difference(
            _flip(self.down),
            _flip(other.down),
            [-i for i in other.mid],
            _flip(other.up),
        )
    )
    lo, hi = _ref_residual_band(self, other, up, down)
    mid = {
        i
        for i in range(lo, hi + 1)
        if self.contains(i) and not other.contains(i)
    }
    return IndexSet.make(up=up, down=down, mid=mid)


def _random_index_set(rng):
    """An operand for the reference check: empty, all of Z, or up to two
    tails of period 1-4 with random residues plus a few points; about 30%
    of them spread thresholds and points over +-1000."""
    roll = rng.random()
    if roll < 0.05:
        return IndexSet.empty()
    if roll < 0.1:
        return IndexSet.domain_set("int")
    span = 1000 if rng.random() < 0.3 else 12

    def tail():
        p = rng.randint(1, 4)
        rs = {r for r in range(p) if rng.random() < 0.5} or {rng.randrange(p)}
        return (rng.randint(-span, span), p, frozenset(rs))

    up = tail() if rng.random() < 0.6 else None
    down = tail() if rng.random() < 0.6 else None
    mid = {rng.randint(-span, span) for _ in range(rng.randint(0, 4))}
    return IndexSet.make(up=up, down=down, mid=mid)


def test_set_algebra_matches_tail_algebra_reference():
    rng = random.Random(15)
    cases = (
        ("union", _ref_union),
        ("intersect", _ref_intersect),
        ("difference", _ref_difference),
    )
    for k in range(1500):
        a, b = _random_index_set(rng), _random_index_set(rng)
        for op, ref in cases:
            got, want = getattr(a, op)(b), ref(a, b)
            assert got == want, (k, op, a, b)
            assert got.display("int") == want.display("int"), (k, op, a, b)


def test_finite_operands_read_only_their_points(monkeypatch):
    # an operation that cannot hold off the points of its operands reads
    # only those points, however far apart they lie
    cases = (
        (IndexSet.of([10**5]), "intersect", IndexSet.up_from(0),
         IndexSet.of([10**5])),
        (IndexSet.of([-10**5, 10**5]), "difference",
         IndexSet.domain_set("int"), IndexSet.empty()),
        (IndexSet.of([7]), "union", IndexSet.of([10**5]),
         IndexSet.of([7, 10**5])),
    )
    calls = []
    contains = IndexSet.contains

    def counted(self, i):
        calls.append(i)
        return contains(self, i)

    monkeypatch.setattr(IndexSet, "contains", counted)
    for a, op, b, want in cases:
        calls.clear()
        assert getattr(a, op)(b) == want
        assert len(calls) <= 4, (op, len(calls))


def _band_pointwise(a, b, op):
    """The pointwise rule that reads every index between the outermost
    thresholds and points of both operands."""
    bounds = [i for s in (a, b) for i in s.mid]
    bounds += [t[0] for s in (a, b) for t in (s.up, s.down) if t is not None]
    lo, hi = min(bounds, default=0), max(bounds, default=0)
    return IndexSet.make(
        up=_tail_op(a.up, b.up, op, hi + 1),
        down=_tail_op(a.down, b.down, op, lo - 1),
        mid=(i for i in range(lo, hi + 1) if op(a.contains(i), b.contains(i))),
    )


def _far_operand(rng):
    """Up to four points within +-5000, and about half the time a tail or
    two of period 1-3 from there too."""
    mid = {rng.randint(-5000, 5000) for _ in range(rng.randint(0, 4))}
    up = down = None
    if rng.random() < 0.5:
        p = rng.randint(1, 3)
        rs = frozenset({rng.randrange(p)})
        if rng.random() < 0.7:
            up = (rng.randint(-5000, 5000), p, rs)
        if rng.random() < 0.5:
            down = (rng.randint(-5000, 5000), p, rs)
    return IndexSet.make(up=up, down=down, mid=mid)


def test_pointwise_matches_the_full_band():
    rng = random.Random("far operands")
    ops = (operator.or_, operator.and_, lambda x, y: x and not y)
    for k in range(60):
        a, b = _far_operand(rng), _far_operand(rng)
        for op in ops:
            assert _pointwise(a, b, op) == _band_pointwise(a, b, op), (k, a, b)
