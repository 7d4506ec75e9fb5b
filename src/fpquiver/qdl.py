"""Description language for interval finite quivers.

A quiver is described by finitely many core vertices, integer-indexed rays
(domain ``nat`` or ``int``), single arrows between fixed vertices, and arrow
families indexed by a variable ``i`` whose endpoint templates shift the index
by a constant.  The instantiated quiver is usually infinite; its finite
windows come from :func:`instantiate_window`.  A :class:`Window` is a layout:
vertex positions and arrow numbers are arithmetic in the description (core
vertices, then one block per ray, then arrows by statement in label order),
and its ``vertices`` and ``arrows`` tuples are built only when read.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

DOMAIN_NAT = "nat"
DOMAIN_INT = "int"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class QdlError(Exception):
    """Base class for description-language errors."""


class QdlSyntaxError(QdlError):
    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UndeclaredIdentifierError(QdlSyntaxError):
    pass


class MalformedTemplateError(QdlSyntaxError):
    pass


class NatDomainError(QdlSyntaxError):
    """An index on a nat-domain ray would be negative."""


class UnknownIdError(Exception):
    """A canonical vertex/arrow/class id does not exist in the quiver."""


# ---------------------------------------------------------------------------
# core data types


@dataclass(frozen=True)
class VertexRef:
    kind: str  # "core" | "ray"
    name: str
    index: int = 0

    def canonical_id(self):
        if self.kind == "core":
            return f"v:{self.name}"
        return f"r:{self.name}:{self.index}"

    def sort_key(self):
        return (self.kind, self.name, self.index)

    def __repr__(self):
        return self.canonical_id()


def core(name):
    return VertexRef("core", name, 0)


def ray(name, index):
    return VertexRef("ray", name, index)


@dataclass(frozen=True)
class Endpoint:
    """One side of an arrow statement.

    kind is "core" (a core vertex), "ray-const" (fixed ray vertex, shift is
    the index) or "ray-var" (template ``name[i + shift]``).
    """

    kind: str
    name: str
    shift: int = 0

    @property
    def is_var(self):
        return self.kind == "ray-var"

    def resolve(self, i=None):
        """Concrete VertexRef; ``i`` is the family index for var endpoints."""
        if self.kind == "core":
            return core(self.name)
        if self.kind == "ray-const":
            return ray(self.name, self.shift)
        if i is None:
            raise ValueError("variable endpoint needs an index")
        return ray(self.name, i + self.shift)


@dataclass(frozen=True)
class SingleArrow:
    label: str
    source: Endpoint
    target: Endpoint

    lower = None  # not a dataclass field: a single arrow has no guard


@dataclass(frozen=True)
class ArrowFamily:
    label: str
    source: Endpoint
    target: Endpoint
    lower: int | None  # None means "for all i" (int rays only)

    def index_range_in(self, q, radius):
        """All family indices whose instantiation fits in Window(radius)."""
        lo, hi = None, None
        for ep in (self.source, self.target):
            if ep.kind == "ray-var":
                dom_lo = 0 if q.domain(ep.name) == DOMAIN_NAT else -radius
                ep_lo = dom_lo - ep.shift
                ep_hi = radius - ep.shift
                lo = ep_lo if lo is None else max(lo, ep_lo)
                hi = ep_hi if hi is None else min(hi, ep_hi)
            else:
                vref = ep.resolve()
                if not q.vertex_in_window(vref, radius):
                    return range(0)
        if self.lower is not None:
            lo = self.lower if lo is None else max(lo, self.lower)
        if lo is None or hi is None or lo > hi:
            return range(0)
        return range(lo, hi + 1)


@dataclass(frozen=True)
class ArrowRef:
    """A concrete instantiated arrow; ``index`` is None for single arrows."""

    label: str
    index: int | None
    source: VertexRef
    target: VertexRef

    def canonical_id(self):
        if self.index is None:
            return self.label
        return f"{self.label}@{self.index}"

    def __repr__(self):
        return self.canonical_id()


@dataclass(frozen=True)
class Path:
    """A path: source vertex plus arrows in order of application.

    The empty arrow tuple is the trivial path at ``source``.
    """

    source: VertexRef
    arrows: tuple = ()

    @property
    def target(self):
        return self.arrows[-1].target if self.arrows else self.source

    def __len__(self):
        return len(self.arrows)

    def is_composable(self):
        at = self.source
        for a in self.arrows:
            if a.source != at:
                return False
            at = a.target
        return True

    def sort_key(self):
        return (len(self.arrows), tuple(a.canonical_id() for a in self.arrows))

    def describe(self):
        return describe_path(
            self.source.canonical_id(), [a.canonical_id() for a in self.arrows]
        )

    def __repr__(self):
        return self.describe()


def describe_path(source_id, arrow_ids):
    """The text of ``Path.describe()`` from the source's and the arrows'
    canonical ids: ``<source|id.id...>``, or ``<source>`` when trivial."""
    if not arrow_ids:
        return f"<{source_id}>"
    return f"<{source_id}|{'.'.join(arrow_ids)}>"


@dataclass(frozen=True)
class QuiverDescription:
    name: str
    core_vertices: tuple
    rays: tuple  # of (name, domain) pairs, declaration order
    arrows: tuple  # of SingleArrow
    families: tuple  # of ArrowFamily

    # --- lookups ---------------------------------------------------------

    def domain(self, ray_name):
        for name, dom in self.rays:
            if name == ray_name:
                return dom
        raise KeyError(ray_name)

    def ray_names(self):
        return tuple(name for name, _ in self.rays)

    def is_ray(self, name):
        return any(name == n for n, _ in self.rays)

    def has_vertex(self, vref):
        if vref.kind == "core":
            return vref.name in self.core_vertices
        if not self.is_ray(vref.name):
            return False
        if self.domain(vref.name) == DOMAIN_NAT and vref.index < 0:
            return False
        return True

    def vertex_in_window(self, vref, radius):
        if not self.has_vertex(vref):
            return False
        if vref.kind == "core":
            return True
        return abs(vref.index) <= radius

    def constants(self):
        """All constant indices appearing in the description."""
        out = []
        for st in self.arrows + self.families:
            if st.lower is not None:
                out.append(st.lower)
            for ep in (st.source, st.target):
                if ep.kind == "ray-const":
                    out.append(ep.shift)
        return out

    def max_shift(self):
        """Largest |shift| over variable endpoints, and 1 as a floor."""
        shifts = [1]
        for f in self.families:
            for ep in (f.source, f.target):
                if ep.kind == "ray-var":
                    shifts.append(abs(ep.shift))
            if f.source.kind == "ray-var" and f.target.kind == "ray-var":
                shifts.append(abs(f.target.shift - f.source.shift))
        return max(shifts)

    # --- derived descriptions -------------------------------------------

    def opposite(self):
        """Reverse every arrow; the vertex data is unchanged."""
        return replace(
            self,
            arrows=tuple(
                replace(a, source=a.target, target=a.source)
                for a in self.arrows
            ),
            families=tuple(
                replace(f, source=f.target, target=f.source)
                for f in self.families
            ),
        )


# ---------------------------------------------------------------------------
# windows


# Positions and arrow numbers of a window, read off the description: the
# vertex count, each core vertex's position, each ray block's (first
# position, lowest index), and per arrow statement with arrows in the
# window (first arrow number, statement, its indices in the window), in
# label order.  A family's indices are a range, a single arrow's (None,).
WindowLayout = namedtuple("WindowLayout", "size cores blocks statements")


@dataclass(frozen=True)
class Window:
    """A finite truncation: all ray indices with |i| <= radius.

    A window is a layout, not a list of objects.  Core vertices come first
    in declaration order, then one block per ray, in declaration order and
    by ascending index.  Arrows are numbered by statement in label order (a
    family's arrows by ascending index), which is the sort by label then
    index, since labels are unique.  Positions, membership and single
    arrows (:meth:`arrow`) are computed from the layout; the ``vertices``
    and ``arrows`` tuples are built on first read, in that order.
    """

    description: QuiverDescription
    radius: int

    @cached_property
    def layout(self):
        q, radius = self.description, self.radius
        cores = {name: k for k, name in enumerate(q.core_vertices)}
        blocks = {}
        size = len(cores)
        for name, dom in q.rays:
            lo = 0 if dom == DOMAIN_NAT else -radius
            blocks[name] = (size, lo)
            size += radius - lo + 1
        statements = []
        first = 0
        for st in sorted(q.arrows + q.families, key=lambda st: st.label):
            if isinstance(st, ArrowFamily):
                indices = st.index_range_in(q, radius)
            elif q.vertex_in_window(
                st.source.resolve(), radius
            ) and q.vertex_in_window(st.target.resolve(), radius):
                indices = (None,)
            else:
                continue
            if indices:
                statements.append((first, st, indices))
                first += len(indices)
        return WindowLayout(size, cores, blocks, tuple(statements))

    @cached_property
    def vertices(self):
        lay = self.layout
        verts = [core(name) for name in lay.cores]
        for name, (_, lo) in lay.blocks.items():
            verts.extend(ray(name, i) for i in range(lo, self.radius + 1))
        return tuple(verts)

    @cached_property
    def arrows(self):
        return tuple(
            _instance(st, i)
            for _, st, indices in self.layout.statements
            for i in indices
        )

    def arrow(self, k):
        """Arrow number ``k``, built without the other arrows."""
        statements = self.layout.statements
        j = bisect_right(statements, k, key=lambda st: st[0]) - 1
        if k >= 0 and j >= 0:
            first, st, indices = statements[j]
            if k - first < len(indices):
                return _instance(st, indices[k - first])
        raise IndexError(f"no arrow {k} in Window({self.radius})")

    def _position(self, vref):
        """The position of ``vref``, or None outside the window."""
        lay = self.layout
        if vref.kind == "core":
            return lay.cores.get(vref.name) if vref.index == 0 else None
        if vref.kind == "ray":
            block = lay.blocks.get(vref.name)
            if block is not None and block[1] <= vref.index <= self.radius:
                return block[0] + vref.index - block[1]
        return None

    def vertex_index(self, vref):
        k = self._position(vref)
        if k is None:
            raise UnknownIdError(vref.canonical_id())
        return k

    def arrows_from(self, vref):
        return self._adj[0].get(vref, ())

    def arrows_into(self, vref):
        return self._adj[1].get(vref, ())

    @cached_property
    def _adj(self):
        out, inc = {}, {}
        for a in self.arrows:
            out.setdefault(a.source, []).append(a)
            inc.setdefault(a.target, []).append(a)
        return (
            {k: tuple(v) for k, v in out.items()},
            {k: tuple(v) for k, v in inc.items()},
        )

    @cached_property
    def _by_id(self):
        return {a.canonical_id(): a for a in self.arrows}

    def arrow_by_id(self, aid):
        """The arrow with canonical id ``aid``; KeyError if the window has
        none.  The id map is built on the first call."""
        return self._by_id[aid]

    def contains(self, vref):
        return self._position(vref) is not None


def _instance(st, i):
    """The arrow of statement ``st`` at family index ``i`` (None for a
    single arrow)."""
    return ArrowRef(st.label, i, st.source.resolve(i), st.target.resolve(i))


def instantiate_window(q, radius):
    """Window(radius) of ``q``; see :class:`Window` for its deterministic
    vertex and arrow order."""
    if radius < 0:
        raise ValueError("window radius must be >= 0")
    return Window(q, radius)


# ---------------------------------------------------------------------------
# canonical ids


def parse_vertex_id(q, text):
    """Resolve 'v:<name>' or 'r:<name>:<index>' against the description."""
    parts = text.split(":")
    vref = None
    if len(parts) == 2 and parts[0] == "v":
        vref = core(parts[1])
    elif len(parts) == 3 and parts[0] == "r":
        try:
            index = int(parts[2])
        except ValueError:
            index = None
        # only the canonical spelling: no sign, padding, underscores or
        # non-ASCII digits that int() would also accept
        if index is not None and str(index) == parts[2]:
            vref = ray(parts[1], index)
    if vref is None:
        raise UnknownIdError(f"malformed vertex id {text!r}")
    if not q.has_vertex(vref):
        raise UnknownIdError(f"no vertex {text!r} in quiver {q.name!r}")
    return vref


# ---------------------------------------------------------------------------
# parser


_ENDPOINT_RE = re.compile(
    r"""\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*
        (?:\[\s*(?P<body>[^\]]*?)\s*\])?\s*\Z""",
    re.VERBOSE,
)
_VAR_BODY_RE = re.compile(r"i\s*(?:(?P<sign>[+-])\s*(?P<off>\d+))?\Z")
_INT_BODY_RE = re.compile(r"-?\d+\Z")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.name = None
        self.cores = []
        self.rays = {}  # name -> domain, in declaration order
        self.arrows = []
        self.families = []
        self.seen_names = {}
        self.seen_labels = set()
        self.n_arrow_stmts = 0
        self.n_family_stmts = 0

    def err(self, cls, message, line, column=1):
        raise cls(message, line, column)

    def run(self):
        lines = self.text.splitlines()
        statements = []
        for lineno, raw in enumerate(lines, start=1):
            stripped = raw.split("#", 1)[0].rstrip()
            if stripped.strip():
                statements.append((lineno, stripped))
        if not statements:
            self.err(QdlSyntaxError, "empty description: expected 'quiver <name>'", 1)
        lineno, stmt = statements[0]
        words = stmt.split()
        if len(words) != 2 or words[0] != "quiver" or not _IDENT_RE.match(words[1]):
            self.err(
                QdlSyntaxError,
                "first statement must be 'quiver <name>'",
                lineno,
                _column(stmt, 0),
            )
        self.name = words[1]
        for lineno, stmt in statements[1:]:
            self.statement(lineno, stmt)
        return QuiverDescription(
            name=self.name,
            core_vertices=tuple(self.cores),
            rays=tuple(self.rays.items()),
            arrows=tuple(self.arrows),
            families=tuple(self.families),
        )

    def statement(self, lineno, stmt):
        head = stmt.split(None, 1)[0]
        rest = stmt[len(stmt) - len(stmt.lstrip()) :][len(head) :].strip()
        if head == "vertex":
            self.vertex_stmt(lineno, rest)
        elif head == "ray":
            self.ray_stmt(lineno, rest)
        elif head == "arrow":
            self.arrow_stmt(lineno, rest)
        elif head == "family":
            self.family_stmt(lineno, rest)
        elif head == "quiver":
            self.err(QdlSyntaxError, "duplicate 'quiver' statement", lineno)
        else:
            self.err(
                QdlSyntaxError,
                f"unknown statement '{head}'",
                lineno,
                _column(stmt, stmt.find(head)),
            )

    def declare(self, name, what, lineno):
        if not _IDENT_RE.match(name):
            self.err(QdlSyntaxError, f"invalid identifier '{name}'", lineno)
        if name in self.seen_names:
            self.err(
                QdlSyntaxError,
                f"'{name}' already declared as {self.seen_names[name]}",
                lineno,
            )
        self.seen_names[name] = what

    def vertex_stmt(self, lineno, rest):
        if not rest:
            self.err(QdlSyntaxError, "expected vertex name(s)", lineno)
        for chunk in rest.split(","):
            name = chunk.strip()
            self.declare(name, "a vertex", lineno)
            self.cores.append(name)

    def ray_stmt(self, lineno, rest):
        words = rest.split()
        if (len(words) != 3 or not _IDENT_RE.match(words[0])
                or words[1] != "domain" or words[2] not in (DOMAIN_NAT, DOMAIN_INT)):
            self.err(
                QdlSyntaxError,
                "expected 'ray <name> domain nat|int'",
                lineno,
            )
        name = words[0]
        self.declare(name, "a ray", lineno)
        self.rays[name] = words[2]

    def split_label(self, rest, lineno):
        """Peel an optional '<label> :' prefix off an arrow/family body."""
        arrow_pos = rest.find("->")
        colon_pos = rest.find(":")
        if 0 <= colon_pos < (arrow_pos if arrow_pos >= 0 else len(rest)):
            label = rest[:colon_pos].strip()
            if not _IDENT_RE.match(label):
                self.err(QdlSyntaxError, f"invalid label '{label}'", lineno)
            if label in self.seen_labels:
                self.err(QdlSyntaxError, f"duplicate label '{label}'", lineno)
            return label, rest[colon_pos + 1 :].strip()
        return None, rest

    def endpoint(self, text, lineno, allow_var):
        m = _ENDPOINT_RE.match(text)
        if not m:
            self.err(
                MalformedTemplateError, f"malformed endpoint '{text.strip()}'", lineno
            )
        name, body = m.group("name"), m.group("body")
        if name in self.seen_names and self.seen_names[name] == "a vertex":
            if body is not None:
                self.err(
                    MalformedTemplateError,
                    f"core vertex '{name}' does not take an index",
                    lineno,
                )
            return Endpoint("core", name)
        if name in self.seen_names and self.seen_names[name] == "a ray":
            if body is None:
                self.err(
                    MalformedTemplateError,
                    f"ray '{name}' needs an index template",
                    lineno,
                )
            if _INT_BODY_RE.match(body):
                return Endpoint("ray-const", name, int(body))
            mv = _VAR_BODY_RE.match(body)
            if mv:
                if not allow_var:
                    self.err(
                        MalformedTemplateError,
                        "index variable not allowed in a single arrow",
                        lineno,
                    )
                off = int(mv.group("off") or 0)
                if mv.group("sign") == "-":
                    off = -off
                return Endpoint("ray-var", name, off)
            self.err(
                MalformedTemplateError, f"malformed index template '[{body}]'", lineno
            )
        self.err(UndeclaredIdentifierError, f"undeclared identifier '{name}'", lineno)

    def check_const_domain(self, ep, lineno):
        if ep.kind == "ray-const" and self.rays[ep.name] == DOMAIN_NAT:
            if ep.shift < 0:
                self.err(
                    NatDomainError,
                    f"index {ep.shift} is negative on nat-domain ray '{ep.name}'",
                    lineno,
                )

    def arrow_stmt(self, lineno, rest):
        label, body = self.split_label(rest, lineno)
        if "->" not in body:
            self.err(QdlSyntaxError, "expected '<endpoint> -> <endpoint>'", lineno)
        left, right = body.split("->", 1)
        src = self.endpoint(left, lineno, allow_var=False)
        tgt = self.endpoint(right, lineno, allow_var=False)
        self.check_const_domain(src, lineno)
        self.check_const_domain(tgt, lineno)
        if label is None:
            label = f"arrow#{self.n_arrow_stmts}"
        self.seen_labels.add(label)
        self.n_arrow_stmts += 1
        self.arrows.append(SingleArrow(label, src, tgt))

    def family_stmt(self, lineno, rest):
        label, body = self.split_label(rest, lineno)
        guard = _family_guard(body)
        if guard is None:
            self.err(
                QdlSyntaxError,
                "expected 'for i >= <int>' or 'for all i'",
                lineno,
            )
        eps, lower = guard
        if "->" not in eps:
            self.err(QdlSyntaxError, "expected '<template> -> <template>'", lineno)
        left, right = eps.split("->", 1)
        src = self.endpoint(left, lineno, allow_var=True)
        tgt = self.endpoint(right, lineno, allow_var=True)
        self.check_const_domain(src, lineno)
        self.check_const_domain(tgt, lineno)
        if not (src.is_var or tgt.is_var):
            self.err(
                MalformedTemplateError,
                "at least one family endpoint must use the index variable",
                lineno,
            )
        if lower is None:  # for all i
            for ep in (src, tgt):
                if ep.is_var and self.rays[ep.name] == DOMAIN_NAT:
                    self.err(
                        NatDomainError,
                        f"'for all i' would give negative indices on nat-domain "
                        f"ray '{ep.name}'",
                        lineno,
                    )
        else:
            # clamp the lower bound so nat-domain indices never go negative
            for ep in (src, tgt):
                if ep.is_var and self.rays[ep.name] == DOMAIN_NAT:
                    lower = max(lower, -ep.shift)
        if label is None:
            label = f"family#{self.n_family_stmts}"
        self.seen_labels.add(label)
        self.n_family_stmts += 1
        self.families.append(ArrowFamily(label, src, tgt, lower))


def _family_guard(body):
    """Split a family body '<templates> for i >= <int>' or '<templates> for
    all i' into (templates, lower bound or None); None if the guard is
    malformed.  The guard holds no 'for', so it follows the last one."""
    head, _, tail = body.rpartition("for")
    if not (head[-1:].isspace() and tail[:1].isspace()):
        return None
    if tail.split() == ["all", "i"]:
        return head.rstrip(), None
    guard = tail.strip()
    if guard[:1] == "i" and guard[1:].lstrip()[:2] == ">=":
        low = guard[1:].lstrip()[2:].lstrip()
        if low.removeprefix("-").isdecimal():
            return head.rstrip(), int(low)
    return None


def _column(line, pos):
    return max(1, pos + 1)


def parse(text):
    """Parse a description; raises QdlSyntaxError subclasses on bad input."""
    return _Parser(text).run()
