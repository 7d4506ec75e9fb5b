"""Exact reachability and finiteness analysis on interval finite quivers.

The engine works on a finite window whose radius comfortably exceeds the
stabilization index, then lifts what it sees to a description of the whole
infinite quiver:

* reach sets are computed by BFS in the window and fitted, per ray, to an
  eventually periodic :class:`~fpquiver.patterns.IndexSet`, justified by
  per-ray "infinity flags" (fan families firing, or pump configurations that
  reach a strictly shifted copy of themselves through translation arrows);
* Q(a, b) is infinite exactly when successors(a) and predecessors(b) share an
  infinite ray tail, so path counts reduce to one set intersection, and the
  finite case is an ordinary DP over the window;
* interval finiteness is decided union first: the successors of every
  config that may have an infinite successor set, met with the predecessors
  of every config that may have an infinite predecessor set.  Only when
  that meet is infinite are single configs and then pairs tried, to name a
  pair (a, b) with Q(a, b) infinite;
* oriented cycles are found either in the window or as a closed walk of
  translation families of gain 0.  Which rays lie on such a walk is decided
  on the translation template, the ray graph with integer gains: in a
  strongly connected piece with a cycle of each strict sign every ray does,
  since the gains of the closed walks through a ray add up.  A gain-bounded
  BFS over (ray, gain) states runs only from those rays, to spell the walk.

Any mismatch between a flag and the window data raises
:class:`~fpquiver.patterns.InternalConsistencyError` rather than guessing.
"""

from __future__ import annotations

from collections import deque, namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from types import MappingProxyType

from .patterns import (
    Finite,
    IndexSet,
    Infinite,
    InternalConsistencyError,
    SupportDescription,
    TailWitness,
    _flip,
)
from .qdl import (
    ArrowRef,
    DOMAIN_INT,
    DOMAIN_NAT,
    Path,
    VertexRef,
    _instance,
    core,
    instantiate_window,
    ray,
)


class PreconditionError(Exception):
    """An operation was invoked outside its stated preconditions."""


class NotIntervalFinite(Exception):
    """The quiver fails interval finiteness; carries a concrete witness."""

    def __init__(self, message, pair=None, witness=None):
        super().__init__(message)
        self.pair = pair
        self.witness = witness


def stabilization_index(q):
    """Window radius past which hom data between fixed vertices is stable.

    C + (R+1)*(s+1) + V + 1, for C the largest constant magnitude appearing
    in the description, R the number of rays, s the largest index shift and
    V the number of core vertices.
    """
    c_max = max((abs(c) for c in q.constants()), default=0)
    r = len(q.rays)
    s = q.max_shift()
    return c_max + (r + 1) * (s + 1) + len(q.core_vertices) + 1


# ---------------------------------------------------------------------------
# results carried by verdicts


@dataclass(frozen=True)
class PathGrowth:
    """Evidence for an infinite path count: the shared tail plus a probe
    showing window counts actually grow."""

    meet: SupportDescription
    tail: TailWitness
    radii: tuple
    counts: tuple


@dataclass(frozen=True)
class TailClass:
    """An equivalence class of right-infinite paths, spelled as a concrete
    start configuration plus the labels of its eventual pumping cycle."""

    ray: str
    direction: str  # "+" | "-"
    stride: int
    base_index: int
    start: VertexRef
    cycle: tuple

    def class_id(self):
        if self.stride == 1:
            return f"({self.ray},{self.direction})"
        return f"({self.ray},{self.direction},{self.base_index})"


@dataclass(frozen=True)
class InfiniteClassFamilyReport:
    """Branching among usable translation continuations: the class catalog
    is infinite, reported instead of enumerated."""

    regime: str
    ray: str
    labels: tuple


@dataclass(frozen=True)
class StageResult:
    ok: bool
    detail: object = None
    witness: object = None


# (arrow number, target) lists by vertex position, a topological order
# (None on a cycle), each vertex's level, |index| or 0 at a core vertex, and
# its ray name (None at a core vertex) and index.  Window(r) is the induced
# subgraph on level <= r, in the same vertex and arrow order, so a smaller
# radius is a level bound on a search, never a new graph.
_Graph = namedtuple(
    "_Graph", "window out_adj topo trans_out level rays_at index_at"
)


# ---------------------------------------------------------------------------
# the engine


_ENGINES = {}


def engine_for(q):
    """The engine of ``q``, kept until another description is looked up.

    Only the current description's engine is kept, with the opposite engine
    it owns, so memory holds one description's window graphs and caches.  A
    caller that switches between descriptions rebuilds their engines.  The
    opposite engine does not point back, so dropping the registered engine
    (here, or by ``_ENGINES.clear()``) frees both at once."""
    eng = _ENGINES.get(q)
    if eng is None:
        _ENGINES.clear()
        eng = _ENGINES[q] = RegionEngine(q)
    return eng


class RegionEngine:
    def __init__(self, q):
        self.q = q
        self.nstar = stabilization_index(q)
        self.bound = (len(q.rays) + 1) * (q.max_shift() + 1)
        # quadratic in the drift bound: long paths can be re-routed to stay
        # this far from the window edge, so data inside the setback is exact
        self.margin = 2 * self.bound * self.bound + 6 * self.bound + 10
        self.setback = self.margin // 2
        self.base_radius = self.nstar + self.margin
        self.c_max = max((abs(c) for c in q.constants()), default=0)
        # the guard zone: fixed endpoints and family guards lie within c_max
        # of 0 and endpoint shifts are under bound, so past +-guard_zone
        # every guard is settled and a vertex's translation arrows are the
        # template's, shifted: translation facts there are periodic
        self.guard_zone = self.c_max + self.bound + 2
        self._families = {f.label: f for f in q.families}
        # families from a templated ray index to one
        self.translation_families = [
            f for f in q.families if f.source.is_var and f.target.is_var
        ]
        # fans (a fixed source, a templated target) by resolved source, in
        # family order.  A fan hits every index of its target ray from some
        # point on, while any other arrow or family gives a vertex one
        # target, so these are exactly the vertices of infinite out-degree.
        self.fan_sources = {}
        for f in q.families:
            if not f.source.is_var and f.target.is_var:
                self.fan_sources.setdefault(f.source.resolve(), []).append(f)
        # the translation template as edges (label, src_ray, tgt_ray, gain),
        # and its unguarded part
        self.full_template = [
            (f.label, f.source.name, f.target.name, f.target.shift - f.source.shift)
            for f in self.translation_families
        ]
        self.u_template = [
            e
            for e, f in zip(self.full_template, self.translation_families)
            if f.lower is None
        ]
        names = q.ray_names()
        self.full_reach = _reach(names, self.full_template)
        self.u_reach = _reach(names, self.u_template)
        # rays of the unguarded components with a cycle of gain < 0, and
        # rays reaching one.  This runs before the cycle check: on a cyclic
        # template such a component can also hold cycles of gain >= 0, so
        # some of its rays need not lie on a negative cycle.  Its readers
        # (descent_rays, the down seeds of _succ_support) see only whole
        # components, whose rays share u_reach, so they are exact anyway.
        self.neg_cycle_rays = {
            r
            for rays, inner in _components(names, self.u_template)
            if _potentials(rays, inner, 1) is None
            for r in rays
        }
        self.descent_rays = {
            r for r in names if self.u_reach[r] & self.neg_cycle_rays
        }
        self._graph = None
        self._succ_cache = {}
        self._op_engine = None
        self._cycle_checked = False
        self._cycle = None

    # --- basic structure ---------------------------------------------------

    def op(self):
        """The opposite description's engine, owned by this one and freed
        with it; it holds no link back."""
        if self._op_engine is None:
            self._op_engine = RegionEngine(self.q.opposite())
        return self._op_engine

    def graph(self, radius):
        """The engine's one window graph, at least ``radius`` wide.

        A wider request rebuilds it at twice its radius, or at ``radius``
        when that is more, so upward radius sweeps rebuild it rarely."""
        g = self._graph
        if g is not None and g.window.radius >= radius:
            return g
        old = 0 if g is None else g.window.radius
        w = instantiate_window(self.q, max(radius, 2 * old))
        lay = w.layout
        n = lay.size
        rays_at = [None] * n
        index_at = [0] * n
        for name, (start, lo) in lay.blocks.items():
            stop = start + w.radius - lo + 1
            rays_at[start:stop] = [name] * (stop - start)
            index_at[start:stop] = range(lo, w.radius + 1)
        # arrows straight from the layout: a statement's arrows are numbered
        # consecutively, and a templated endpoint walks its ray block
        out_adj = [[] for _ in range(n)]
        trans_out = [[] for _ in range(n)]
        indeg = [0] * n
        for first, st, indices in lay.statements:
            translation = st.source.is_var and st.target.is_var
            for k, si, ti in zip(
                range(first, first + len(indices)),
                _end_positions(w, st.source, indices),
                _end_positions(w, st.target, indices),
            ):
                e = (k, ti)
                out_adj[si].append(e)
                if translation:
                    trans_out[si].append(e)
                indeg[ti] += 1
        queue = deque(vi for vi in range(n) if indeg[vi] == 0)
        topo = []
        while queue:
            vi = queue.popleft()
            topo.append(vi)
            for _, ti in out_adj[vi]:
                indeg[ti] -= 1
                if indeg[ti] == 0:
                    queue.append(ti)
        if len(topo) < n:
            topo = None
        level = [abs(i) for i in index_at]
        self._graph = _Graph(
            w, out_adj, topo, trans_out, level, rays_at, index_at
        )
        return self._graph

    # --- oriented cycles ---------------------------------------------------

    def cycle_witness(self):
        if not self._cycle_checked:
            self._cycle = _find_cycle(self)
            self._cycle_checked = True
        return self._cycle

    def ensure_acyclic(self):
        w = self.cycle_witness()
        if w is not None:
            raise NotIntervalFinite(
                f"oriented cycle at {w.source.canonical_id()}: "
                "path spaces compose with themselves",
                pair=(w.source, w.source),
                witness=w,
            )

    # --- pump configurations -----------------------------------------------

    def upset(self, radius):
        """Configs of Window(radius) that reach a strictly higher same-ray
        config through translation arrows only (hence pump upward forever)."""
        g = self.graph(radius)
        return {_vertex_at(g, vi) for vi in _pump_positions(g, radius)}

    @cached_property
    def pump_tails(self):
        """The pump set of each ray that has a pump, read-only.

        A pump is a config whose translation arrows lead to a higher index
        on its own ray.  Guards are lower bounds, so a pump path shifted up
        by one is one too: the set is closed upward, {i >= t} or the whole
        ray.  A pump path climbs less than ``bound`` (a simple template
        cycle visits each ray at most once), so Window(base_radius) holds
        the pumps with |i| <= rho = base_radius - bound - 2 exactly; t is
        the least of them, and they must be [t, rho].  A pump path from far
        below the guard zone uses unguarded families only, and shifts down,
        or climbs into the zone round a cycle of them, which one more turn
        lifts from one index lower: pumps down to -rho make the whole ray."""
        rho = self.base_radius - self.bound - 2
        data = {name: set() for name in self.q.ray_names()}
        for v in self.upset(self.base_radius):
            if abs(v.index) <= rho:
                data[v.name].add(v.index)
        tails = {}
        for name, pumps in data.items():
            if pumps:
                t = min(pumps)
                if len(pumps) != rho + 1 - t:
                    raise InternalConsistencyError(
                        f"the pumps on ray {name} are not closed upward")
                tails[name] = (IndexSet.domain_set(DOMAIN_INT) if t == -rho
                               else IndexSet.up_from(t))
        return MappingProxyType(tails)

    # --- symbolic reach sets -------------------------------------------------

    def _succ_support(self, seeds, radius, seed_tails=None):
        """Exact successor set of ``seeds`` as a SupportDescription.

        ``seed_tails`` declares the known off-window continuation of the
        seed set itself (per ray), for queries seeded by an infinite orbit;
        only the in-window orbit members go in ``seeds``.
        """
        g = self.graph(radius)
        seen = _reached(g, seeds, radius)
        cores = set()
        ray_data = {name: set() for name in self.q.ray_names()}
        for vi in compress(range(len(seen)), seen):
            name = g.rays_at[vi]
            if name is None:
                cores.add(self.q.core_vertices[vi])
            else:
                ray_data[name].add(g.index_at[vi])

        occupied = {name for name, data in ray_data.items() if data}
        # the pump sets are closed upward: a reach meets one iff its top does
        up_seeds = {name for name in occupied if name in self.pump_tails
                    and self.pump_tails[name].contains(max(ray_data[name]))}
        down_seeds = set()
        for src, fans in self.fan_sources.items():
            if seen[g.window.vertex_index(src)]:
                for f in fans:
                    up_seeds.add(f.target.name)
                    if f.lower is None:
                        down_seeds.add(f.target.name)
        if seed_tails:
            for name, iset in seed_tails.items():
                if iset.up is not None:
                    up_seeds.add(name)
                if iset.down is not None:
                    down_seeds.add(name)
        for r0 in occupied:
            for c in self.u_reach[r0] & self.neg_cycle_rays:
                down_seeds |= self.u_reach[c]

        up_flags = set().union(*(self.full_reach[r] for r in up_seeds))
        down_flags = set().union(*(self.u_reach[r] for r in down_seeds))

        parts = {}
        for name, dom in self.q.rays:
            fitted = self._fit_ray(
                name,
                ray_data[name],
                dom,
                radius,
                name in up_flags,
                name in down_flags,
            )
            if seed_tails and name in seed_tails:
                fitted = fitted.union(seed_tails[name])
            parts[name] = fitted
        return SupportDescription.build(cores, parts)

    def _fit_ray(self, name, data, dom, radius, up_flag, down_flag):
        top = radius - self.setback
        up = self._fit_tail(name, data, top, up_flag, descending=False)
        if down_flag and dom == DOMAIN_NAT:
            raise InternalConsistencyError(
                f"downward flag on nat-domain ray {name}"
            )
        # the down tail is the up tail of the mirror image {-i : i in data}
        down = _flip(
            self._fit_tail(
                name, {-i for i in data}, top, down_flag, descending=True
            )
        )
        mid = {
            i
            for i in data
            if (up is None or i < up[0]) and (down is None or i > down[0])
        }
        return IndexSet.make(up=up, down=down, mid=mid)

    def _fit_tail(self, name, data, top, flagged, descending):
        """The up tail (t, p, R) of ``data`` fitted on the band [t, top],
        t = top - 2 * bound - 4; None when the ray is not ``flagged``
        unbounded.  A ``descending`` call gets mirrored data and only words
        its messages for the original direction.

        ``IndexSet.make`` walks t down over the data below it.  The walk
        crosses the band of the opposite tail only where both patterns agree
        on its 2b + 5 points, and two patterns of periods <= b + 1 that agree
        on 2b + 1 consecutive points are one (Fine-Wilf), so it needs no
        floor."""
        side, edge = ("below", "bottom") if descending else ("above", "top")
        if not flagged:
            if data and max(data) > top:
                raise InternalConsistencyError(
                    f"reach on ray {name} touches the window {edge} without an "
                    "infinity certificate"
                )
            return None
        lo_band = top - 2 * self.bound - 4
        period = None
        for cand in range(1, self.bound + 2):
            if all(
                (i in data) == ((i + cand) in data)
                for i in range(lo_band, top - cand + 1)
            ):
                period = cand
                break
        if period is None:
            raise InternalConsistencyError(
                f"no period <= {self.bound + 1} fits the reach band on "
                f"ray {name}" + (" (descending)" if descending else "")
            )
        residues = frozenset(
            i % period for i in range(lo_band, top + 1) if i in data
        )
        if not residues:
            raise InternalConsistencyError(
                f"ray {name} flagged as unbounded {side} but the window "
                "band is empty"
            )
        for i in data:
            if i > top and i % period not in residues:
                raise InternalConsistencyError(
                    f"reach element {name}[{-i if descending else i}] {side} "
                    "the fit zone does not match the fitted tail"
                )
        return (lo_band, period, residues)

    # --- public reach queries -------------------------------------------------

    def _query_radius(self, *refs):
        extra = max(
            (abs(v.index) for v in refs if v.kind == "ray"), default=0
        )
        return self.base_radius + extra

    def successors(self, vref):
        """All vertices reachable from vref (vref included)."""
        cached = self._succ_cache.get(vref)
        if cached is not None:
            return cached
        self.ensure_acyclic()
        sd = self._succ_support([vref], self._query_radius(vref))
        self._succ_cache[vref] = sd
        return sd

    def predecessors(self, vref):
        return self.op().successors(vref)

    def out_neighbors(self, vref):
        """One-step targets as a set (parallel arrows collapse)."""
        if vref.kind == "core":
            return self.step_image(SupportDescription.build([vref.name]))
        part = {vref.name: IndexSet.of([vref.index])}
        return self.step_image(SupportDescription.build(parts=part))

    def in_neighbors(self, vref):
        return self.op().out_neighbors(vref)

    # --- path counting ----------------------------------------------------------

    def _window_count(self, radius, a, b):
        if not (
            self.q.vertex_in_window(a, radius)
            and self.q.vertex_in_window(b, radius)
        ):
            return 0
        g = self.graph(radius)
        return _ways(g, radius, b)[g.window.vertex_index(a)]

    def _count_into(self, radius, target):
        """Path counts from every Window(radius) vertex into ``target``."""
        g = self.graph(radius)
        ways = _ways(g, radius, target)
        return {_vertex_at(g, vi): c for vi, c in enumerate(ways) if c}

    def path_count(self, a, b):
        """Finite(n) or Infinite(PathGrowth) for the path space Q(a, b)."""
        self.ensure_acyclic()
        meet = self.successors(a).intersect(self.predecessors(b))
        card = meet.cardinality(self.q)
        base = self._query_radius(a, b)
        if isinstance(card, Infinite):
            radii = (base, base + self.margin, base + 2 * self.margin)
            counts = tuple(self._window_count(r, a, b) for r in radii)
            if not (counts[0] <= counts[1] <= counts[2] > counts[0]):
                raise InternalConsistencyError(
                    f"Q({a.canonical_id()}, {b.canonical_id()}) is "
                    "structurally infinite but window counts do not grow: "
                    f"{counts} at radii {radii}"
                )
            return Infinite(PathGrowth(meet, card.witness, radii, counts))
        n1 = self._window_count(base, a, b)
        n2 = self._window_count(base + self.margin, a, b)
        if n1 != n2:
            raise InternalConsistencyError(
                f"finite path count for Q({a.canonical_id()}, "
                f"{b.canonical_id()}) changed with the window: {n1} != {n2}"
            )
        return Finite(n1)

    # --- infinite paths -----------------------------------------------------------

    def has_right_infinite_path(self, vref):
        """Does the reach of ``vref`` meet a pump set or a descent ray?"""
        self.ensure_acyclic()
        reach = self._succ_support([vref], self._query_radius(vref))
        return any(
            not reach.ray_part(name).intersect(tail).is_empty
            for name, tail in self.pump_tails.items()
        ) or any(not reach.ray_part(name).is_empty for name in self.descent_rays)

    def has_left_infinite_path(self, vref):
        return self.op().has_right_infinite_path(vref)

    # --- interval finiteness --------------------------------------------------------

    def _infinity_sources(self):
        """Candidate configs whose successor set may be infinite: fan
        sources plus a stride-representative band of pump configs."""
        tails = self.pump_tails
        lo, hi = self.guard_zone, self.guard_zone + 2 * self.bound
        out = list(self.fan_sources)
        band = {}
        for name, dom in self.q.rays:
            band[name] = [ray(name, i) for i in range(lo, hi + 1)]
            if dom == DOMAIN_INT:
                band[name] += [ray(name, i) for i in range(-hi, -lo + 1)]
            if name in tails:
                out += [v for v in band[name] if tails[name].contains(v.index)]
        # descent rays are int rays: unguarded families never touch a nat ray
        for name in sorted(self.descent_rays):
            out += band[name]
        return list(dict.fromkeys(out))

    def interval_finite_witness(self):
        """(True, None, None) or (False, (a, b), evidence).

        A meet with a finite union of sets is infinite only when its meet
        with some member is, so one reach from all ``a`` candidates and one
        into all ``b`` candidates decide the verdict; pairs are scanned only
        for an ``a`` whose reach meets the ``b`` union infinitely."""
        w = self.cycle_witness()
        if w is not None:
            return (False, (w.source, w.source), w)
        a_cands = self._infinity_sources()
        op = self.op()
        b_cands = op._infinity_sources()
        reach_a = self._succ_support(a_cands, self._query_radius(*a_cands))
        if reach_a.is_finite:
            return (True, None, None)
        op.ensure_acyclic()
        reach_b = op._succ_support(b_cands, op._query_radius(*b_cands))
        if reach_a.intersect(reach_b).is_finite:
            return (True, None, None)
        for a in a_cands:
            sa = self.successors(a)
            if sa.is_finite or sa.intersect(reach_b).is_finite:
                continue
            for b in b_cands:
                meet = sa.intersect(self.predecessors(b))
                if not meet.is_finite:
                    verdict = self.path_count(a, b)
                    if not verdict.is_finite:
                        return (False, (a, b), verdict.witness)
                    raise InternalConsistencyError(
                        f"infinite meet for ({a.canonical_id()}, "
                        f"{b.canonical_id()}) but finite path count"
                    )
        raise InternalConsistencyError(
            "the reach unions meet infinitely but no candidate pair does"
        )

    def ensure_interval_finite(self):
        ok, pair, witness = self.interval_finite_witness()
        if not ok:
            a, b = pair
            raise NotIntervalFinite(
                f"Q({a.canonical_id()}, {b.canonical_id()}) is infinite",
                pair=pair,
                witness=witness,
            )

    # --- classification support sets ---------------------------------------------------

    def _trigger_bundle(self):
        """(seeds, seed_tails) covering every config whose successor set is
        infinite on its own: fan sources, pump configs, descent rays.  The
        seeds are the fan sources and the Window(base_radius) members of
        the tails, which hold every pump and descent-ray vertex there."""
        radius = self.base_radius
        tails = dict(self.pump_tails)
        for name in self.descent_rays:
            tails[name] = tails.get(name, IndexSet.empty()).union(
                IndexSet.domain_set(self.q.domain(name))
            )
        held = SupportDescription.build(parts=tails).in_window(self.q, radius)
        return set(self.fan_sources) | held, tails

    def ia_no_set(self):
        """The vertices whose injective is not finitely presented: those
        reached from a trigger of the opposite quiver (infinitely many
        predecessors) or from a fan source here (a predecessor of infinite
        out-degree).  Reach distributes over union, so one reach does."""
        self.ensure_acyclic()
        seeds, tails = self.op()._trigger_bundle()
        # every tail has a member in the window, so no seeds means no tails
        seeds = sorted(seeds | set(self.fan_sources), key=VertexRef.sort_key)
        if not seeds:
            return SupportDescription.build()
        return self._succ_support(seeds, self.base_radius, seed_tails=tails)

    # --- tail classes ------------------------------------------------------------------

    def tail_classes(self):
        """(classes, reports): the class catalog, or branching reports.

        A right-infinite tail that ends in the positive regime runs round
        cycles of gain > 0 of the translation template, and one in the
        negative regime round cycles of gain < 0 of its unguarded part, so
        each regime is decided per strongly connected component of its
        template.  Acyclicity leaves no cycle of gain 0 and no component
        with cycles of both signs (the two would make a closed walk of gain
        0, as in :func:`_zero_gain_rays`), so a component with inner edges
        has cycles of one sign, which Bellman-Ford tells.  Every ray and
        every inner edge of a strongly connected multigraph lies on a simple
        cycle, and it is exactly one cycle when it has as many inner edges
        as rays.  Then the cycle, walked from the least ray, gives one class
        per residue of its gain; with more inner edges, distinct cycles can
        be interleaved in infinitely many inequivalent ways, so the
        component is reported as an infinite family (its least ray and all
        its inner labels) instead of enumerated."""
        self.ensure_acyclic()
        classes = []
        reports = []
        gz = self.guard_zone
        for regime, sign, edges in (
            ("+", 1, self.full_template),
            ("-", -1, self.u_template),
        ):
            for rays, inner in _components(self.q.ray_names(), edges):
                if _potentials(rays, inner, -sign) is not None:
                    continue  # no cycle of the regime's sign
                r0 = rays[0]
                if len(inner) > len(rays):
                    reports.append(
                        InfiniteClassFamilyReport(
                            regime=regime,
                            ray=r0,
                            labels=tuple(sorted(e[0] for e in inner)),
                        )
                    )
                    continue
                step = {e[1]: e for e in inner}
                cycle = [step[r0]]
                while cycle[-1][2] != r0:
                    cycle.append(step[cycle[-1][2]])
                labels = tuple(e[0] for e in cycle)
                stride = abs(sum(e[3] for e in cycle))
                for base_off in range(stride):
                    s0 = sign * (gz + base_off)
                    classes.append(
                        TailClass(
                            ray=r0,
                            direction=regime,
                            stride=stride,
                            base_index=s0 % stride,
                            start=ray(r0, s0),
                            cycle=labels,
                        )
                    )
        classes.sort(key=lambda c: (c.ray, c.direction, c.base_index))
        return classes, reports

    def orbit_step(self, cls, at, k):
        """The cycle arrow leaving config ``at`` at orbit step ``k``, as
        (family label, family index, next config)."""
        f = self._families[cls.cycle[k % len(cls.cycle)]]
        i = at.index - f.source.shift
        return f.label, i, f.target.resolve(i)

    def spell_class(self, cls, steps):
        """The first ``steps`` configs of the class representative path."""
        out = [cls.start]
        for k in range(steps):
            out.append(self.orbit_step(cls, out[-1], k)[2])
        return out

    def classes_equivalent(self, c1, c2):
        """Do the two representatives define the same eventual tail?"""
        if c1.direction != c2.direction:
            return False
        n = 4 * (len(c1.cycle) + len(c2.cycle) + 2) * max(c1.stride, c2.stride, 1)
        s1 = self.spell_class(c1, 2 * n)
        s2 = self.spell_class(c2, 2 * n)
        # does the first half of one tail occur early in the other spelling?
        for a, b in ((s1, s2), (s2, s1)):
            head = a[n:][: (len(a) - n) // 2]
            if any(b[off : off + len(head)] == head for off in range(n + 1)):
                return True
        return False

    def class_tail_configs(self, cls, radius):
        """In-window configs visited by the class tail, on every cycle ray."""
        out = []
        at = cls.start
        while abs(at.index) <= radius:
            out.append(at)
            at = self.orbit_step(cls, at, len(out) - 1)[2]
        return out

    def class_support(self, cls):
        """Support of the associated limit representation: everything with a
        path into the tail."""
        radius = self.base_radius + abs(cls.start.index) + 2 * self.bound
        seeds = self.class_tail_configs(cls, radius)
        # per ray, the tail indices form stride-spaced progressions from the
        # configs of the first turn, which climbs less than 2 * bound
        tails = {}
        prog = IndexSet.up_from if cls.direction == "+" else IndexSet.down_from
        for at in seeds[: len(cls.cycle) + 1]:
            prev = tails.get(at.name, IndexSet.empty())
            tails[at.name] = prev.union(prog(at.index, cls.stride))
        return self.op()._succ_support(seeds, radius, seed_tails=tails)

    # --- classification stages ------------------------------------------------------------

    def step_image(self, supp):
        """One-step targets of arrows whose source lies in ``supp``.

        Each statement fires family indices: a templated source the support
        on its ray, shifted back and cut to the guard; a fixed source in
        ``supp`` every index from the guard.  The target gets them, shifted
        onto its ray when templated, or else is the one vertex."""
        cores = set()
        parts = {}
        for st in self.q.arrows + self.q.families:
            src, tgt = st.source, st.target
            if src.is_var:
                fired = supp.ray_part(src.name)
                if fired.is_empty:
                    continue
                fired = fired.shift(-src.shift)
                if st.lower is not None:
                    fired = fired.intersect(IndexSet.up_from(st.lower))
            elif not supp.contains(src.resolve()):
                continue
            elif st.lower is None:
                fired = IndexSet.domain_set(DOMAIN_INT)
            else:
                fired = IndexSet.up_from(st.lower)
            if fired.is_empty:
                continue
            if tgt.kind == "core":
                cores.add(tgt.name)
                continue
            image = fired.shift(tgt.shift) if tgt.is_var else IndexSet.of([tgt.shift])
            parts[tgt.name] = parts.get(tgt.name, IndexSet.empty()).union(image)
        for name, iset in parts.items():
            parts[name] = iset.intersect(IndexSet.domain_set(self.q.domain(name)))
        return SupportDescription.build(cores, parts)

    def top_finite_stage(self, supp):
        """Sources of the support must be finite and generate all of it."""
        image = self.step_image(supp)
        sources = supp.difference(image)
        card = sources.cardinality(self.q)
        if isinstance(card, Infinite):
            return StageResult(False, detail="infinitely many sources", witness=card.witness)
        gens = sources.vertices(self.q)
        self.ensure_acyclic()
        cover = self._succ_support(gens, self._query_radius(*gens))
        rest = supp.difference(cover)
        if not rest.is_empty:
            return StageResult(
                False,
                detail="not generated from its sources",
                witness=self._backward_chain(rest),
            )
        return StageResult(True, detail=tuple(gens))

    def _backward_chain(self, rest):
        """A concrete chain witnessing endless regression inside ``rest``."""
        card = rest.cardinality(self.q)
        if isinstance(card, Infinite):
            elem = card.witness.instances(1)[0]
        else:
            elem = rest.vertices(self.q)[0]
        radius = self.base_radius + abs(elem.index)
        # in-arrows are the opposite quiver's out-arrows, listed in the
        # window's label and index order
        g = self.op().graph(radius)
        arrows = []
        cur = elem
        for _ in range(2 * self.bound + 4):
            for k, ti in g.out_adj[g.window.vertex_index(cur)]:
                if g.level[ti] <= radius and rest.contains(_vertex_at(g, ti)):
                    break
            else:
                break
            a = g.window.arrow(k)
            arrows.append(ArrowRef(a.label, a.index, a.target, a.source))
            cur = a.target
        arrows.reverse()
        return Path(cur, tuple(arrows))

    def uniform_stage(self, cls, supp):
        """Path counts into far tail checkpoints must be stable."""
        radius = self.base_radius + abs(cls.start.index)
        stride = cls.stride
        start = cls.start.index
        sep = stride * ((self.bound + stride + 1) // stride)
        dirn = 1 if cls.direction == "+" else -1
        reachd = radius - self.setback - abs(start)
        j2 = start + dirn * stride * (reachd // stride)
        j1 = j2 - dirn * sep
        g = self.graph(radius)
        c1 = _ways(g, radius, ray(cls.ray, j1))
        c2 = _ways(g, radius, ray(cls.ray, j2))
        # the graph may be wider than ``radius``, but every vertex past
        # nstar < radius is skipped, so no level bound is needed
        for vi, lv in enumerate(g.level):
            if lv > self.nstar:
                continue
            a = c1[vi]
            b = c2[vi]
            if a == b:
                continue
            vref = _vertex_at(g, vi)
            if b > a:
                return StageResult(
                    False,
                    detail="path counts into the tail grow",
                    witness=(vref, (j1, a), (j2, b)),
                )
            raise InternalConsistencyError(
                f"count into the tail dropped from {a} to {b} at "
                f"{vref.canonical_id()}"
            )
        wlen = self.bound + 2
        z0 = self.guard_zone
        for name, dom in self.q.rays:
            zones = [range(z0, z0 + 3 * wlen)]
            if dom == DOMAIN_INT:
                zones.append(range(-z0 - 3 * wlen + 1, -z0 + 1))
            for zone in zones:
                # the zones lie inside Window(radius)
                seq = [c2[g.window.vertex_index(ray(name, i))] for i in zone]
                ok = any(
                    all(seq[k] == seq[k + p] for k in range(2 * wlen))
                    for p in range(1, wlen + 1)
                )
                if not ok:
                    thirds = [
                        sum(seq[:wlen]),
                        sum(seq[wlen : 2 * wlen]),
                        sum(seq[2 * wlen :]),
                    ]
                    if thirds[0] < thirds[1] < thirds[2]:
                        return StageResult(
                            False,
                            detail="path counts into the tail grow along the ray",
                            witness=(name, tuple(thirds)),
                        )
                    raise InternalConsistencyError(
                        f"aperiodic tail count profile on ray {name}: {seq}"
                    )
        best = max(
            (c for c, lv in zip(c2, g.level) if lv <= self.nstar), default=0
        )
        return StageResult(True, detail=best)

    def boundary_stage(self, supp):
        """One-step targets leaving the support; must be finite."""
        edge = self.step_image(supp).difference(supp)
        card = edge.cardinality(self.q)
        if isinstance(card, Infinite):
            return StageResult(False, detail=edge, witness=card.witness)
        return StageResult(True, detail=edge)


# ---------------------------------------------------------------------------
# helpers


def _reached(g, seeds, radius):
    """Per graph vertex, whether a path in Window(radius) leads to it from
    ``seeds``."""
    w = g.window
    seen = [False] * len(g.level)
    queue = deque()
    for s in seeds:
        vi = w.vertex_index(s)
        if not seen[vi]:
            seen[vi] = True
            queue.append(vi)
    while queue:
        vi = queue.popleft()
        for _, ti in g.out_adj[vi]:
            if not seen[ti] and g.level[ti] <= radius:
                seen[ti] = True
                queue.append(ti)
    return seen


def _pump_positions(g, radius):
    """Positions of the ray vertices of Window(radius) from which
    translation arrows in that window lead to a higher index on their own
    ray.  A DP in reverse topological order keeps, per vertex, the highest
    index it reaches on each ray."""
    if g.topo is None:
        raise PreconditionError("pump analysis requires an acyclic window")
    rays_at, index_at, level = g.rays_at, g.index_at, g.level
    # per vertex, {ray: highest index reached}; a dict is shared with a
    # target whenever the vertex adds nothing to it, and never mutated
    top = [None] * len(rays_at)
    out = []
    for vi in reversed(g.topo):
        if level[vi] > radius:
            continue
        name = rays_at[vi]
        if name is None:
            continue
        index = index_at[vi]
        high = None
        for _, ti in g.trans_out[vi]:
            reached = top[ti]
            if reached is None:
                continue
            if high is None:
                high = reached
                continue
            high = dict(high)
            for r, idx in reached.items():
                if high.get(r, idx) <= idx:
                    high[r] = idx
        if high is None:
            top[vi] = {name: index}
        elif high.get(name, index) > index:
            out.append(vi)
            top[vi] = high
        else:
            top[vi] = {**high, name: index}
    return out


def _ways(g, radius, target):
    """Path counts into ``target`` by vertex position, over Window(radius)
    (0 at every vertex past ``radius``)."""
    if g.topo is None:
        raise PreconditionError("path counting requires an acyclic window")
    ti = g.window.vertex_index(target)
    ways = [0] * len(g.level)
    ways[ti] = 1
    for vi in reversed(g.topo):
        if vi == ti or g.level[vi] > radius:
            continue
        total = 0
        for _, tj in g.out_adj[vi]:
            total += ways[tj]
        ways[vi] = total
    return ways


def _vertex_at(g, vi):
    """The vertex at position ``vi`` of the graph's window."""
    name = g.rays_at[vi]
    if name is None:
        return core(g.window.description.core_vertices[vi])
    return ray(name, g.index_at[vi])


def _end_positions(w, ep, indices):
    """Window positions of endpoint ``ep`` over the arrows of a statement
    with these family ``indices``: consecutive along the ray block for a
    templated index, else one fixed vertex."""
    if ep.is_var:
        start, lo = w.layout.blocks[ep.name]
        first = start + ep.shift + indices.start - lo
        return range(first, first + len(indices))
    return repeat(w.vertex_index(ep.resolve()), len(indices))


def _reach(nodes, edges):
    """Map node -> nodes reachable from it along template ``edges``
    (label, source, target, gain), itself included."""
    reach = {r: {r} for r in nodes}
    changed = True
    while changed:
        changed = False
        for _, u, v, _ in edges:
            add = reach[v] - reach[u]
            if add:
                reach[u] |= add
                changed = True
    return reach


def _scc_ids(nodes, edges):
    """Map node -> strongly connected component id (tiny graphs only)."""
    nodes = sorted(nodes)
    reach = _reach(nodes, edges)
    comp = {}
    reps = []
    for r in nodes:
        for rep in reps:
            if rep in reach[r] and r in reach[rep]:
                comp[r] = comp[rep]
                break
        else:
            comp[r] = len(reps)
            reps.append(r)
    return comp


def _components(nodes, edges):
    """The strongly connected components of template ``edges`` (label,
    source, target, gain) as (rays, inner edges) pairs, ordered by least
    ray, with rays sorted and edges in their given order."""
    comp = _scc_ids(nodes, edges)
    out = [([], []) for _ in range(len(set(comp.values())))]
    for r in sorted(nodes):
        out[comp[r]][0].append(r)
    for e in edges:
        if comp[e[1]] == comp[e[2]]:
            out[comp[e[1]]][1].append(e)
    return out


def _potentials(nodes, edges, sign):
    """Shortest distances under ``sign * gain`` along template ``edges``
    (label, source, target, gain) from a virtual source joined to every
    node at 0 (Bellman-Ford), or None when a cycle has ``sign * gain < 0``."""
    dist = dict.fromkeys(nodes, 0)
    for _ in range(len(dist) + 1):
        changed = False
        for _, u, v, gain in edges:
            if dist[u] + sign * gain < dist[v]:
                dist[v] = dist[u] + sign * gain
                changed = True
        if not changed:
            return dist
    return None


def _zero_gain_rays(nodes, edges):
    """The rays on a closed walk of gain 0 along template ``edges`` (label,
    source, target, gain).

    The gains of the closed walks through a ray form an additive semigroup:
    a walk of gain a > 0 taken |b| times and one of gain b < 0 taken a
    times make a walk of gain 0.  Within a strongly connected component, a
    cycle of gain < 0 anywhere gives every ray of it a closed walk of gain
    < 0 (go round that cycle often enough), and likewise for > 0; so when
    the component has a cycle of each strict sign, all its rays qualify.
    Otherwise, say no cycle has gain < 0.  The Bellman-Ford distances p
    make every reduced gain ``gain + p(u) - p(v)`` nonnegative and keep
    the gain of each closed walk, so a closed walk of gain 0 uses only
    edges of reduced gain 0: a ray qualifies exactly when it lies on a
    cycle of those.  With the signs swapped, likewise.  A component of
    cycles of gain 0 only is the case where every edge has reduced gain 0.

    This is the zero-cycle test of Iwano & Steiglitz, "Testing for cycles
    in infinite graphs with periodic structure" (STOC 1987), run on the
    one-dimensional quotient graph: a few Bellman-Ford passes per
    component, where listing simple cycles can take exponential time."""
    out = set()
    for rays, inner in _components(nodes, edges):
        up = _potentials(rays, inner, 1)
        down = _potentials(rays, inner, -1)
        if up is None and down is None:
            out.update(rays)
            continue
        sign, pot = (1, up) if up is not None else (-1, down)
        tight = [(None, u, v, 0) for _, u, v, gain in inner
                 if pot[u] + sign * gain == pot[v]]
        tcomp = _scc_ids(rays, tight)
        out.update(u for _, u, v, _ in tight if tcomp[u] == tcomp[v])
    return out


def _find_cycle(eng):
    """A cycle of the quiver as a Path, or None when it is acyclic.

    A cycle in Window(base_radius) is returned as the window search finds
    it.  When that window is acyclic, a cycle can only be a closed walk of
    translation families of gain 0: guards are lower bounds, so such a
    walk goes round at any base index high enough.  :func:`_zero_gain_rays`
    decides on the template which rays lie on one.  From the first of them
    in declaration order, a BFS over (ray, gain) states with |gain| <=
    l_max, along the template edges inside that ray's strongly connected
    component, spells the first walk that returns, and it is lifted at
    base index ``c_max + l_max + max_shift + 2``.  A BFS from an earlier
    ray would not return, and dropping the edges that leave the component
    changes neither the BFS order of the states that can return nor their
    parents, so the witness is the one a search from every ray over every
    edge finds.  When the BFS does not close the walk within l_max it
    raises InternalConsistencyError, so each side checks the other.  See
    Iwano & Steiglitz (STOC 1987) and Cohen & Megiddo, "Recognizing
    properties of periodic graphs" (1991).
    """
    q = eng.q
    radius = eng.base_radius
    g = eng.graph(radius)
    if g.topo is None:
        cyc = _window_cycle(g, radius)
        if cyc is not None:
            return cyc
    names = q.ray_names()
    rays = _zero_gain_rays(names, eng.full_template)
    if not rays:
        return None
    comp = _scc_ids(names, eng.full_template)
    edges = eng.translation_families
    e_t = len(edges)
    l_max = 4 * max(1, len(q.rays) * q.max_shift() * e_t) ** 2 + 8
    r0 = next(r for r in names if r in rays)
    trans = [
        (f, gn)
        for f, (_, u, v, gn) in zip(edges, eng.full_template)
        if comp[u] == comp[v] == comp[r0]
    ]
    start = (r0, 0)
    parent = {start: None}
    queue = deque([start])
    found = None
    while queue and found is None:
        state = queue.popleft()
        rname, gval = state
        for f, gn in trans:
            if f.source.name != rname:
                continue
            nxt = (f.target.name, gval + gn)
            if nxt == start:
                found = (state, f)
                break
            if abs(nxt[1]) > l_max or nxt in parent:
                continue
            parent[nxt] = (state, f)
            queue.append(nxt)
    if found is None:
        raise InternalConsistencyError(
            f"ray {r0} lies on a closed walk of gain 0 in the "
            f"translation template, but none with |gain| <= {l_max}"
        )
    fams = [found[1]]
    state = found[0]
    while parent[state] is not None:
        prev, f = parent[state]
        fams.append(f)
        state = prev
    fams.reverse()
    base = eng.c_max + l_max + q.max_shift() + 2
    cur = base
    arrows = []
    for f in fams:
        i = cur - f.source.shift
        arrows.append(_instance(f, i))
        cur = i + f.target.shift
    return Path(ray(r0, base), tuple(arrows))


def _window_cycle(g, radius):
    """A concrete cycle in Window(radius), or None when it has none.

    Depth-first search with an explicit stack, so a long path in the window
    needs no recursion; ``out_adj`` is visited in order.  Vertices past
    ``radius`` start out finished, so the search never enters them.
    """
    w = g.window
    color = [2 if lv > radius else 0 for lv in g.level]
    for root in range(len(color)):
        if color[root]:
            continue
        color[root] = 1
        # (vertex, its remaining out-arrows, arrow index that entered it)
        frames = [(root, iter(g.out_adj[root]), None)]
        while frames:
            vi, edges, _ = frames[-1]
            for k, ti in edges:
                if color[ti] == 0:
                    color[ti] = 1
                    frames.append((ti, iter(g.out_adj[ti]), k))
                    break
                if color[ti] == 1:
                    on_path = [f[0] for f in frames]
                    tree = [f[2] for f in frames[on_path.index(ti) + 1 :]]
                    cyc = [w.arrow(kk) for kk in tree + [k]]
                    return Path(cyc[0].source, tuple(cyc))
            else:
                color[vi] = 2
                frames.pop()
    return None


def oriented_cycle_witness(q):
    """A concrete cycle Path, or None when the quiver is acyclic."""
    return engine_for(q).cycle_witness()


# ---------------------------------------------------------------------------
# module-level conveniences


def successors(q, vref):
    return engine_for(q).successors(vref)


def predecessors(q, vref):
    return engine_for(q).predecessors(vref)


def out_neighbors(q, vref):
    return engine_for(q).out_neighbors(vref)


def in_neighbors(q, vref):
    return engine_for(q).in_neighbors(vref)


def path_count(q, a, b):
    return engine_for(q).path_count(a, b)


def is_interval_finite(q):
    return engine_for(q).interval_finite_witness()[0]


def has_right_infinite_path(q, vref):
    return engine_for(q).has_right_infinite_path(vref)


def has_left_infinite_path(q, vref):
    return engine_for(q).has_left_infinite_path(vref)


def enumerate_tail_classes(q):
    return engine_for(q).tail_classes()


def class_support(q, cls):
    return engine_for(q).class_support(cls)


def classes_equivalent(q, c1, c2):
    return engine_for(q).classes_equivalent(c1, c2)
