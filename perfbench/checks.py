"""Answer checks against the brute-force oracle, run outside the timed loop.

Each check returns None when the answer holds and a one-line reason when it
does not.  Path counts are recounted on the oracle's explicit windows by a
dynamic program instead of ``oracle.brute_paths``: the benchmark's windows
hold far too many paths to enumerate, while the count itself is cheap.
"""

import re
import signal
import sys


class CheckTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CheckTimeout()


def guarded(check, timeout_s):
    """Run one check under a timer; any failure becomes a reason string."""
    from fpquiver.oracle import OracleMismatch

    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return check()
    except CheckTimeout:
        return "check guard: timeout"
    except MemoryError:
        return "check guard: memory"
    except OracleMismatch as exc:
        return f"oracle mismatch: {exc}"
    except Exception as exc:  # a broken answer must not stop the other checks
        return f"check error: {type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _fp():
    return sys.modules["fpquiver"]


def vertex(text):
    """A VertexRef from a canonical id ``v:name`` or ``r:name:index``."""
    fp = _fp()
    parts = text.split(":")
    if parts[0] == "v" and len(parts) == 2:
        return fp.core(parts[1])
    if parts[0] == "r" and len(parts) == 3:
        return fp.ray(parts[1], int(parts[2]))
    raise ValueError(f"not a vertex id: {text!r}")


def _offset(*vs):
    return max((abs(v.index) for v in vs if v.kind == "ray"), default=0)


def window_graph(q, radius):
    fp = _fp()
    return fp.oracle.from_window(fp.instantiate_window(q, radius))


def count_paths(g, a, b):
    """Number of paths a -> b in an explicit acyclic quiver."""
    _fp().oracle.check_acyclic(g)
    succ = {}
    indeg = {v: 0 for v in g.vertices}
    for _, s, t in g.arrows:
        succ.setdefault(s, []).append(t)
        indeg[t] += 1
    order = [v for v in g.vertices if indeg[v] == 0]
    for v in order:
        for t in succ.get(v, ()):
            indeg[t] -= 1
            if indeg[t] == 0:
                order.append(t)
    ways = {v: 0 for v in g.vertices}
    ways[a] = 1
    for v in order:
        if ways[v]:
            for t in succ.get(v, ()):
                ways[t] += ways[v]
    return ways[b]


def _radii(q, start, count):
    """``count`` radii from ``start``, spaced by twice the largest shift so
    that a set growing with that stride grows between any two of them."""
    step = 2 * max(1, q.max_shift())
    return range(start, start + count * step, step)


def path_count_trace(q, a, b):
    """Brute counts of Q(a, b) at three radii past the stabilization index."""
    fp = _fp()
    t = fp.stabilization_index(q) + _offset(a, b)
    return [count_paths(window_graph(q, r), a, b) for r in _radii(q, t, 3)]


def check_path_count(q, a, b, finite, count):
    trace = path_count_trace(q, a, b)
    if finite and any(c != count for c in trace):
        return f"path count {count} but brute counts {trace}"
    if not finite and not trace[0] < trace[1] < trace[2]:
        return f"infinite path count but brute counts {trace}"
    return None


def check_reach(q, kind, v, finite, count):
    """pred/succ through ``oracle.window_convergence_probe``."""
    fp = _fp()
    t = fp.stabilization_index(q) + _offset(v)
    trace = fp.oracle.window_convergence_probe(q, (kind, v),
                                               _radii(q, t, 4))
    if finite and any(c != count for c in trace):
        return f"{kind} has {count} vertices but brute counts {trace}"
    if not finite and not all(x < y for x, y in zip(trace, trace[1:])):
        return f"{kind} infinite but brute counts {trace}"
    return None


def check_not_interval_finite(q, lines):
    """Exit 3: the printed witness pair must have a growing path space
    (or, for a pair (v, v), an oriented cycle) in explicit windows."""
    fp = _fp()
    pair = [l for l in lines if l.startswith("witness pair: ")]
    if not pair:
        return "exit 3 without a witness pair"
    a, b = (vertex(x.strip()) for x in
            pair[0][len("witness pair: ("):-1].split(","))
    base = _offset(a, b) + 1
    if a == b:
        for r in range(base, base + 24):
            try:
                fp.oracle.check_acyclic(window_graph(q, r))
            except fp.oracle.CycleDetected:
                return None
        return f"no oriented cycle through {a.canonical_id()} in windows"
    trace = [count_paths(window_graph(q, r), a, b)
             for r in (base + 8, base + 16, base + 24)]
    if not trace[0] < trace[1] < trace[2]:
        return f"witness pair paths do not grow: {trace}"
    return None


# ---------------------------------------------------------------------------
# catalog-cold


_RESULT = re.compile(r"result: (finite|infinite)\s*(.*)")


def _result(lines):
    for line in lines:
        m = _RESULT.match(line)
        if m:
            return m.group(1) == "finite", m.group(2)
    raise ValueError("no result line")


def catalog_answer(req, res):
    name, text, _path, tail = req
    fp = _fp()
    q = fp.parse(text)
    lines = res["out"].splitlines()
    if res["exit"] == 3:
        return check_not_interval_finite(q, lines)
    if res["exit"] != 0:
        return None  # counted as a failed attempt already
    if lines[0] != f"quiver: {q.name}":
        return f"report starts with {lines[0]!r}"
    cmd = tail[0]
    if cmd == "validate":
        return _check_validate(text, lines)
    if cmd == "classify":
        return _check_classify(q, name, lines)
    kind, ids = tail[1], [vertex(x) for x in tail[2:]]
    finite, rest = _result(lines)
    if kind == "paths":
        count = int(rest) if finite else None
        return check_path_count(q, ids[0], ids[1], finite, count)
    count = len(rest.strip("{}").split(", ")) if rest != "{}" else 0
    return check_reach(q, kind, ids[0], finite, count)


def _check_validate(text, lines):
    stmts = [l.split()[0] for l in text.splitlines() if l.strip()]
    want = [
        f"core vertices: {stmts.count('vertex')}",
        f"rays: {stmts.count('ray')}",
        f"single arrows: {stmts.count('arrow')}",
        f"arrow families: {stmts.count('family')}",
        "interval finite: yes",
    ]
    missing = [w for w in want if w not in lines]
    return f"validate report lacks {missing}" if missing else None


def _check_classify(q, name, lines):
    from gen import FIXTURE_LINES

    if name.startswith("fixture-"):
        missing = [w for w in FIXTURE_LINES[name.split("-")[1]]
                   if w not in lines]
        if missing:
            return f"catalog lacks {missing}"
    heads = ["IA-CORE", "IA-RAYS", "Y-CLASSES", "INFINITE-FAMILIES"]
    if [l for l in lines if l in heads] != heads:
        return "catalog sections missing or out of order"
    rays = lines[lines.index("IA-RAYS") + 1:lines.index("Y-CLASSES")]
    if [l.split(":")[0] for l in rays] != [r for r, _ in q.rays]:
        return f"IA-RAYS lists {rays}"
    fp = _fp()
    for c in q.core_vertices:
        if f"{c}: yes" not in lines:
            continue
        pred = [l for l in lines if l.startswith(f"{c} predecessors: ")][0]
        body = pred.split(": ", 1)[1].strip("{}")
        count = len(body.split(", ")) if body else 0
        why = check_reach(q, "pred", fp.core(c), True, count)
        if why:
            return why
    return None


# ---------------------------------------------------------------------------
# reps


def build_rep(fp, q, build, where, n):
    """The request's representation and the vertex its operation uses."""
    if build == "Y":
        classes, _ = fp.enumerate_tail_classes(q)
        # the first ray has no incoming rungs, so its limit is finite
        first = q.rays[0][0]
        m = fp.build_Y(q, next(c for c in classes if c.ray == first), n)
        return m, max(m.support(), key=lambda v: (m.dim(v), v.sort_key()))
    at = fp.ray(*where)
    return (fp.build_P if build == "P" else fp.build_I)(q, at, n), at


def ids(d):
    return {v.canonical_id(): k for v, k in d.items() if k}


def reps_answer(req, res):
    fp = _fp()
    oracle = fp.oracle
    _name, q, build, where, n, op = req
    m, at = build_rep(fp, q, build, where, n)
    if build == "Y":
        want = ids(m.dims)
    else:
        brute = (oracle.brute_build_P if build == "P"
                 else oracle.brute_build_I)(oracle.from_window(m.window), at)
        want = ids(brute["dims"])
    if res["dims"] != want:
        return f"fiber dims differ from brute force at {at.canonical_id()}"
    if op == "socle" and res["socle"] != ids(oracle.brute_socle(m)):
        return "socle dims differ from brute_socle"
    if op == "radical" and res["radical"] != ids(oracle.brute_radical(m)):
        return "radical dims differ from brute_radical"
    if op == "hom":
        if not res["hom"]["roundtrip"]:
            return "hom realize/extract round trip failed"
        if res["hom"]["dim"] != want.get(at.canonical_id(), 0):
            return "hom space dimension differs from the fiber"
    if op == "dump_rep":
        dumped = {v: d for v, d in res["dump"].items() if d}
        if dumped != want:
            return "dump_rep dims differ from brute force"
    return None


# ---------------------------------------------------------------------------
# session-warm


def session_answer(fp, ctx, entry, ans):
    q = ctx["q"]
    kind, args = entry
    if kind == "class_support":
        return None  # no brute-force counterpart; repeats must agree
    vs = [fp.ray(*a) for a in args]
    if kind == "path_count":
        return check_path_count(q, vs[0], vs[1], ans.is_finite,
                                getattr(ans, "count", None))
    card = ans.cardinality(q)
    finite = card.is_finite
    count = card.count if finite else None
    if kind in ("predecessors", "successors"):
        probe = "pred" if kind == "predecessors" else "succ"
        return check_reach(q, probe, vs[0], finite, count)
    # one-step neighbours: read straight off an explicit window
    g = window_graph(q, _offset(vs[0]) + q.max_shift() + 1)
    if kind == "out_neighbors":
        want = {t for _, s, t in g.arrows if s == vs[0]}
    else:
        want = {s for _, s, t in g.arrows if t == vs[0]}
    got = set(ans.vertices(q)) if finite else None
    if got != want:
        return f"{kind} differs from the explicit window"
    return None
