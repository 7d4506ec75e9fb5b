"""Finiteness criteria for indecomposable injectives, and the full catalog.

Two criteria drive everything: an injective at a vertex is finitely
presented iff the vertex has finitely many predecessors, each with a finite
one-step successor set; a tail-class limit is finitely presented iff its
support is top finite, uniformly interval finite, and has a finite one-step
boundary.  ``classify`` evaluates both over a whole description, reporting
per-ray verdicts symbolically.
"""

from dataclasses import dataclass

from . import regions
from .patterns import IndexSet, Infinite, InternalConsistencyError
from .qdl import core, ray


@dataclass(frozen=True)
class Verdict:
    """yes/no plus a replayable certificate.

    For a yes the certificate carries the finite data backing the criterion;
    for a no it carries the first failing condition's witness and ``reason``
    names that condition.
    """

    value: str
    reason: str = ""
    certificate: object = None

    @property
    def is_yes(self):
        return self.value == "yes"

    def render(self):
        return "yes" if self.is_yes else f"no ({self.reason})"


@dataclass(frozen=True)
class IaCertificate:
    """The finite predecessor set of a "yes" vertex.

    Each predecessor has finite out-degree because none is a fan source, so
    the certificate lists the predecessors alone."""

    predecessors: tuple


@dataclass(frozen=True)
class YpCertificate:
    generators: tuple
    uniform_bound: int
    boundary: tuple


@dataclass(frozen=True)
class RayVerdict:
    """Symbolic per-ray verdict: where along the ray the injective is fp."""

    ray: str
    domain: str
    yes_set: IndexSet
    no_set: IndexSet
    shape: str

    def verdict_at(self, i):
        return "yes" if self.yes_set.contains(i) else "no"


@dataclass(frozen=True)
class InjectiveCatalog:
    """Exhaustive classification of the indecomposable injectives of fp(Q):
    some vertex injectives, some tail-class limits, nothing else."""

    quiver: object
    ia_core: tuple  # (name, Verdict) in declaration order
    ia_rays: tuple  # RayVerdict in declaration order
    y_classes: tuple  # (TailClass, Verdict) in catalog order
    infinite_class_families: tuple

    def yes_objects(self):
        """Stable listing of the catalog's confirmed injectives."""
        out = []
        for name, v in self.ia_core:
            if v.is_yes:
                out.append(f"I[v:{name}]")
        for rv in self.ia_rays:
            if not rv.yes_set.is_empty:
                out.append(f"I[{rv.ray}] on {rv.yes_set.display(rv.domain)}")
        for cls, v in self.y_classes:
            if v.is_yes:
                out.append(f"Y{cls.class_id()}")
        return out


def ia_fp(q, a):
    """Is the injective at ``a`` finitely presented?

    Yes iff ``a`` has finitely many predecessors and every predecessor has a
    finite one-step successor set.  Only a fan source (a fixed vertex with a
    family into every index of a ray tail) has infinitely many one-step
    successors; any other arrow or family statement gives a vertex at most
    one.  So the first predecessor among the engine's ``fan_sources``
    decides a "no", witnessed by that predecessor and the tail of its
    out-neighbours, and a "yes" carries the predecessors.
    """
    eng = regions.engine_for(q)
    preds = eng.predecessors(a)
    card = preds.cardinality(q)
    if isinstance(card, Infinite):
        return Verdict("no", "infinite predecessors", card.witness)
    pred_list = tuple(preds.vertices(q))
    for b in pred_list:
        if b in eng.fan_sources:
            return Verdict(
                "no",
                f"predecessor {b.canonical_id()} has infinite out-degree",
                (b, eng.out_neighbors(b).cardinality(q).witness),
            )
    return Verdict("yes", "", IaCertificate(pred_list))


def yp_fp(q, c):
    """Is the limit representation of tail class ``c`` finitely presented?

    The support must be top finite, uniformly interval finite and have a
    finite one-step boundary, checked in that fixed order; the first failure
    is reported.
    """
    eng = regions.engine_for(q)
    supp = eng.class_support(c)
    top = eng.top_finite_stage(supp)
    if not top.ok:
        return Verdict("no", "not top finite", top.witness)
    uni = eng.uniform_stage(c, supp)
    if not uni.ok:
        return Verdict("no", "not uniformly interval finite", uni.witness)
    bnd = eng.boundary_stage(supp)
    if not bnd.ok:
        return Verdict("no", "boundary infinite", bnd.witness)
    boundary = tuple(bnd.detail.vertices(q))
    return Verdict(
        "yes", "", YpCertificate(tuple(top.detail), uni.detail, boundary)
    )


def _pointwise_ia(eng):
    """The vertex criterion at every ray point, from one pass: a function
    ``(ray name, index) -> bool``, True where the injective is finitely
    presented.

    A point fails when it has infinitely many predecessors or a predecessor
    of infinite out-degree.  Predecessors in Q are successors in the
    opposite quiver, so the pass walks the opposite engine's window graph
    at R = base_radius + nstar.  It flags four kinds of vertex with level
    <= R: the opposite quiver's fan sources, its pump positions, the
    vertices of its descent rays (whose unguarded template reaches a cycle
    of negative gain) and this quiver's own fan sources.  Then a vertex is
    flagged too when one of its targets is, in reverse topological order.

    ``ia_fp`` reads a point i at radius base_radius + |i| instead.  The one
    radius R, the widest of those, agrees with all of them:

    * every seed certifies an infinite set at any radius.  A pump path
      shifts upward because guards are lower bounds, a fan hits a whole
      ray tail, and an unguarded negative cycle descends forever, so each
      has infinitely many successors in the opposite quiver; this
      quiver's fan sources have infinite out-degree;
    * a wider window only adds paths.  A seed that the pass reaches from
      point i but Window(base_radius + |i|) does not lies past that
      window's setback, and the re-routing argument behind the margin of
      :class:`~fpquiver.regions.RegionEngine` puts a seed of the same kind
      inside it, so ``ia_fp`` says no at i as well;
    * ``classify`` compares this pass with the symbolic sets at every
      point and raises if either side is wrong.
    """
    op = eng.op()
    radius = eng.base_radius + eng.nstar
    g = op.graph(radius)
    w = g.window
    live = [lv <= radius for lv in g.level]
    flag = [
        ok and name in op.descent_rays for name, ok in zip(g.rays_at, live)
    ]
    for vi in regions._pump_positions(g, radius):
        flag[vi] = True
    for v in (*op.fan_sources, *eng.fan_sources):
        flag[w.vertex_index(v)] = True
    out_adj = g.out_adj
    for vi in reversed(g.topo):
        if live[vi] and not flag[vi]:
            flag[vi] = any(flag[ti] for _, ti in out_adj[vi])
    return lambda name, i: not flag[w.vertex_index(ray(name, i))]


def classify(q):
    """The injective catalog of fp(Q); requires interval finiteness."""
    eng = regions.engine_for(q)
    eng.ensure_interval_finite()
    ia_core = tuple((name, ia_fp(q, core(name))) for name in q.core_vertices)
    no_supp = eng.ia_no_set()
    # without rays there is no point to check, and no window to build
    pointwise = _pointwise_ia(eng) if q.rays else None
    ia_rays = []
    for name, dom in q.rays:
        domain = IndexSet.domain_set(dom)
        no_set = no_supp.ray_part(name).intersect(domain)
        yes_set = domain.difference(no_set)
        shape = no_set.shape(domain)
        if shape == "empty":
            text = "all yes"
        elif shape == "all":
            text = "all no"
        elif shape in ("finite", "cofinite"):
            text = f"yes exactly on {yes_set.display(domain)}"
        else:
            raise InternalConsistencyError(
                f"per-ray verdict for {name} has unsupported shape "
                f"{shape}: {no_set.display(domain)}"
            )
        lo = 0 if dom == "nat" else -eng.nstar
        for i in range(lo, eng.nstar + 1):
            if pointwise(name, i) != yes_set.contains(i):
                raise InternalConsistencyError(
                    f"symbolic verdict for {name}[{i}] disagrees with the "
                    "pointwise criterion"
                )
        ia_rays.append(RayVerdict(name, dom, yes_set, no_set, text))
    classes, reports = eng.tail_classes()
    y_classes = tuple((c, yp_fp(q, c)) for c in classes)
    return InjectiveCatalog(
        q, ia_core, tuple(ia_rays), y_classes, tuple(reports)
    )
