"""Layer tracer: spans around the public functions of each fpquiver module.

The program has no counters of its own yet, so the benchmark wraps the
layer boundaries from outside.  ``from .x import name`` copies a function
into the importing module, so every module of the package is searched and
each binding of an original function is replaced, then put back by
``uninstall``.  Spans live in memory; self time is a span's duration minus
the durations of its direct children.
"""

import inspect
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (span name, module, owner class or None, attribute names); an empty
# attribute tuple means every public function the owner defines.
LAYERS = (
    ("qdl.parse", "qdl", None, ("parse",)),
    ("qdl.instantiate_window", "qdl", None, ("instantiate_window",)),
    ("regions.graph", "regions", "RegionEngine", ("graph",)),
    ("regions.upset", "regions", "RegionEngine", ("upset",)),
    ("regions.successors", "regions", "RegionEngine", ("successors",)),
    ("regions.path_count", "regions", "RegionEngine", ("path_count",)),
    ("regions.interval_finite_witness", "regions", "RegionEngine",
     ("interval_finite_witness",)),
    ("regions.tail_classes", "regions", "RegionEngine", ("tail_classes",)),
    ("regions.stages", "regions", "RegionEngine",
     ("top_finite_stage", "uniform_stage", "boundary_stage")),
    ("patterns.IndexSet", "patterns", "IndexSet", ()),
    ("patterns.SupportDescription", "patterns", "SupportDescription", ()),
    ("classify.classify", "classify", None, ("classify",)),
    ("classify.ia_fp", "classify", None, ("ia_fp",)),
    ("classify.yp_fp", "classify", None, ("yp_fp",)),
    ("linrep.build", "linrep", None, ("build_P", "build_I", "build_Y")),
    ("linrep.socle", "linrep", None, ("socle",)),
    ("linrep.radical", "linrep", None, ("radical",)),
    ("linrep.hom", "linrep", None,
     ("hom_from_projective", "hom_to_injective")),
    ("linrep.hom", "linrep", "HomSpace", ("realize", "extract")),
    ("linrep.dump_rep", "linrep", None, ("dump_rep",)),
    ("ratmat", "ratmat", None, ()),
    ("cli.main", "cli", None, ("main",)),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))

# The set algebra makes millions of calls per catalog-cold block and calls
# nothing outside itself; it is counted and timed but keeps no span records.
UNRECORDED = frozenset({"patterns.IndexSet", "patterns.SupportDescription"})


class _Frame:
    __slots__ = ("index", "name", "start", "child", "children")

    def __init__(self, index, name, start):
        self.index = index
        self.name = name
        self.start = start
        self.child = 0.0
        self.children = 0


class Tracer:
    """Records spans and per-layer counts while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, request id)
        self.stack = []
        self.request = None
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._patched = []
        self._graphs_seen = {}
        self._reps = []

    # --- spans -----------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1].index if self.stack else None
        if name in UNRECORDED:
            frame = _Frame(None, name, _clock())
        else:
            frame = _Frame(len(self.spans), name, _clock())
            self.spans.append(None)
        self.stack.append(frame)
        return frame, parent

    def _exit(self, frame, parent, failed):
        end = _clock()
        self.stack.pop()
        dur = end - frame.start
        name = frame.name
        if frame.index is not None:
            self.spans[frame.index] = (name, frame.start, end, parent,
                                       self.request)
        self.calls[name] += 1
        self.self_s[name] += dur - frame.child
        if failed:
            self.errors[name] += 1
        if self.stack:
            up = self.stack[-1]
            up.child += dur
            up.children += 1

    def _wrap(self, name, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            frame, parent = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, parent, True)
                raise
            tracer._exit(frame, parent, False)
            if after is not None:
                after(tracer, frame, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- install / uninstall ----------------------------------------------

    def install(self):
        """Wrap every layer function at every binding site in the package."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "fpquiver"
                                      or k.startswith("fpquiver."))]
        for name, modname, owner, attrs in LAYERS:
            home = sys.modules[f"fpquiver.{modname}"]
            after = _AFTER.get(name)
            if owner is None:
                picked = attrs or [
                    k for k, v in vars(home).items()
                    if inspect.isfunction(v) and not k.startswith("_")
                    and v.__module__ == home.__name__]
                for attr in picked:
                    orig = getattr(home, attr)
                    wrapped = self._wrap(name, orig, after)
                    for mod in mods:
                        for k, v in list(vars(mod).items()):
                            if v is orig:
                                self._patched.append((mod, k, v))
                                setattr(mod, k, wrapped)
            else:
                cls = getattr(home, owner)
                picked = attrs or [
                    k for k, v in vars(cls).items()
                    if not k.startswith("_") and callable(_unbox(v))]
                for attr in picked:
                    raw = vars(cls)[attr]
                    orig = _unbox(raw)
                    wrapped = self._wrap(name, orig, after)
                    for k, v in list(vars(cls).items()):
                        if _unbox(v) is orig:
                            self._patched.append((cls, k, v))
                            setattr(cls, k, type(v)(wrapped)
                                    if isinstance(v, (staticmethod,
                                                      classmethod))
                                    else wrapped)
        home = sys.modules["fpquiver.regions"]
        init = home.RegionEngine.__init__
        tracer = self

        def counted_init(eng, *args, **kwargs):
            tracer.counts["regions.engines.created"] += 1
            init(eng, *args, **kwargs)

        self._patched.append((home.RegionEngine, "__init__", init))
        home.RegionEngine.__init__ = counted_init
        return self

    def uninstall(self):
        """Put back every original binding, newest first."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # --- requests ----------------------------------------------------------

    def begin(self, request):
        self.request = request
        self._reps = []

    def end(self):
        """Close the request: count stored entries of the built reps."""
        for m in self._reps:
            for mat in m.maps.values():
                for row in mat:
                    self.counts["linrep.entries"] += len(row)
                    self.counts["linrep.nonzeros"] += sum(1 for c in row if c)
        self._reps = []
        self.request = None

    def totals(self):
        """Flat name -> number map of every count and self time."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.errors"] = self.errors[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        return out


COUNT_NAMES = (
    "regions.engines.created",
    "regions.graph.builds",
    "regions.successors.hits",
    "qdl.instantiate_window.vertices",
    "qdl.instantiate_window.arrows",
    "linrep.entries",
    "linrep.nonzeros",
    "ratmat.cells",
)


def _unbox(v):
    return v.__func__ if isinstance(v, (staticmethod, classmethod)) else v


def _after_window(tracer, frame, args, w):
    tracer.counts["qdl.instantiate_window.vertices"] += len(w.vertices)
    tracer.counts["qdl.instantiate_window.arrows"] += len(w.arrows)


def _after_graph(tracer, frame, args, g):
    # a build is a call returning a graph object not seen before; the
    # tracer keeps each one alive so its id cannot be reused
    if id(g) not in tracer._graphs_seen:
        tracer._graphs_seen[id(g)] = g
        tracer.counts["regions.graph.builds"] += 1


def _after_successors(tracer, frame, args, out):
    if frame.children == 0:
        tracer.counts["regions.successors.hits"] += 1


def _after_build(tracer, frame, args, m):
    tracer._reps.append(m)


def _after_ratmat(tracer, frame, args, out):
    # rows x cols of each matrix argument, for calls made from outside ratmat
    if any(f.name == "ratmat" for f in tracer.stack):
        return
    for a in args:
        if isinstance(a, list) and a and isinstance(a[0], (list, tuple)):
            tracer.counts["ratmat.cells"] += len(a) * len(a[0])


_AFTER = {
    "qdl.instantiate_window": _after_window,
    "regions.graph": _after_graph,
    "regions.successors": _after_successors,
    "linrep.build": _after_build,
    "ratmat": _after_ratmat,
}


def ratios(t):
    """The three waste ratios from totals; 0 where the base is 0."""
    def share(num, den):
        return t[num] / t[den] if t[den] else 0.0

    return {
        "regions.graph.build_ratio": share("regions.graph.builds",
                                           "regions.graph.calls"),
        "regions.successors.hit_ratio": share("regions.successors.hits",
                                              "regions.successors.calls"),
        "linrep.nonzero_ratio": share("linrep.nonzeros", "linrep.entries"),
    }
