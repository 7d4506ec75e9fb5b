"""Seeded inputs for the benchmark workloads.

Everything here is plain text and tuples built from a ``random.Random``,
so the program only ever sees the generated descriptions and ids (only
``label_corpus``, a maintenance step, imports fpquiver).  Each workload is
stratified: the seed draws the instances (names, constants, vertices,
random fragments, commands) but every seed gets the same number of
requests of each family, so the run-to-run spread measures the program,
not the luck of the draw.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The bundled examples; classify on each must print the catalog lines below.
FIXTURES = {
    "ex1": "quiver ex1\nray a domain nat\n"
           "family alpha: a[i] -> a[i+1] for i >= 0\n",
    "ex2": "quiver ex2\nray a domain int\n"
           "family alpha: a[i] -> a[i+1] for all i\n",
    "ex3": "quiver ex3\nvertex v0\nray b domain nat\n"
           "family alpha: v0 -> b[i] for i >= 0\n"
           "family beta: b[i] -> b[i+1] for i >= 0\n",
    "ex4": "quiver ex4\nray a domain nat\nray b domain nat\n"
           "family alpha: a[i] -> a[i+1] for i >= 0\n"
           "family beta: b[i] -> b[i+1] for i >= 0\n"
           "family gamma: a[i] -> b[i] for i >= 0\n",
    "ex5": "quiver ex5\nray a domain nat\nray b domain int\n"
           "family alpha: a[i] -> a[i+1] for i >= 0\n"
           "family beta: b[i] -> b[i+1] for all i\n"
           "arrow gamma0: a[0] -> b[0]\narrow gamma1: a[1] -> b[1]\n",
}

FIXTURE_LINES = {
    "ex1": ("a: all yes", "(a,+): yes"),
    "ex2": ("a: all no", "(a,+): no (not top finite)"),
    "ex3": ("b: all no", "v0: no (predecessor v:v0 has infinite out-degree)"),
    "ex4": ("a: all yes", "b: all yes", "(a,+): no (boundary infinite)",
            "(b,+): no (not uniformly interval finite)"),
    "ex5": ("a: all yes", "b: all no", "(a,+): yes",
            "(a,+) boundary: {r:b:0, r:b:1}", "(b,+): no (not top finite)"),
}

# (rays, shift, domain, command): R 2-4, s 1-2, nat and int, kept to shapes
# whose cold request stays under ~2 s on a 2-core x86 machine.
LADDER_SHAPES = (
    (2, 1, "nat", "classify"),
    (2, 1, "int", "validate"),
    (2, 1, "int", "classify"),
    (2, 2, "nat", "classify"),
    (3, 1, "nat", "classify"),
    (3, 1, "nat", "validate"),
    (2, 2, "int", "validate"),
    (4, 1, "nat", "validate"),
    (3, 1, "int", "query"),
)

# (C, command) for far constants ``arrow g: a[C] -> b[0]``.  C is fixed, not
# drawn: the C~145 classify sets peak_rss_mb and the C~30 one sits in the p90
# cluster, and both move with C.
FAR_CONSTANTS = ((30, "classify"), (35, "classify"), (60, "validate"),
                 (100, "query"), (145, "classify"))

HEAVY = tuple(("ladder",) + shape for shape in LADDER_SHAPES) + tuple(
    ("far",) + spec for spec in FAR_CONSTANTS)

FRAGMENT_COMMANDS = ("classify", "validate", "classify", "query")
# A block is 5 fixtures, 68 fragments and the 14 heavy requests.  The 60
# fast fragments (not interval finite) hold the median; with 42 of them it
# sat at their 79th percentile, where they thin out, and moved with the
# draw.  Ten percent of 87 is 8.7: about four heavy requests a block cost
# more than 0.6 s and seven cost 0.25-0.6 s, so p90 falls inside that
# cluster, not at its lower edge.  Each block holds exactly one fragment
# labelled ``d`` (the known defect), always with ``classify``, so every
# seed fails the same number of requests.
FRAGMENT_QUOTA = {"n": 60, "f": 7, "d": 1}
CORPUS_SEED = "fragment-corpus"
CORPUS_SIZE = 2000

# session-warm: one 3-ray int ladder; query indices fall in [-SPAN, SPAN].
SESSION_SHAPE = (3, 1, "int")
SESSION_SPAN = 40
SESSION_VERTICES = 48
SESSION_PAIRS = 48
SESSION_KINDS = ("path_count", "predecessors", "successors",
                 "out_neighbors", "in_neighbors", "class_support")
# Path counts are most of the stream, so the median is the path-count DP;
# the other kinds mostly hit the engine's caches.
SESSION_WEIGHTS = {"path_count": 6, "predecessors": 1, "successors": 1,
                   "out_neighbors": 1, "in_neighbors": 1, "class_support": 1}

# reps: (rays, domain, window radius n, build, operation).  The heaviest
# six of 33 are the 3-ray n=13-14 socle/radical requests (0.5-0.9 s on a
# 2-core x86 machine), so p90 sits in the middle of that cluster, not at
# its lower edge above the gap down to the n=11 ones (0.25 s).
REP_REQUESTS = (
    (2, "nat", 11, "P", "socle"), (2, "nat", 11, "I", "radical"),
    (2, "nat", 11, "Y", "hom"), (2, "nat", 11, "P", "dump_rep"),
    (2, "nat", 14, "I", "socle"), (2, "nat", 14, "P", "radical"),
    (2, "nat", 14, "Y", "dump_rep"), (2, "nat", 14, "I", "hom"),
    (2, "int", 8, "P", "socle"), (2, "int", 8, "I", "radical"),
    (2, "int", 8, "Y", "socle"), (2, "int", 8, "P", "hom"),
    (2, "int", 11, "I", "socle"), (2, "int", 11, "P", "dump_rep"),
    (2, "int", 11, "Y", "radical"), (2, "int", 11, "I", "hom"),
    (3, "nat", 8, "P", "radical"), (3, "nat", 8, "I", "socle"),
    (3, "nat", 8, "Y", "hom"), (3, "nat", 8, "I", "dump_rep"),
    (3, "nat", 11, "P", "socle"), (3, "nat", 11, "I", "radical"),
    (3, "nat", 11, "Y", "socle"), (3, "nat", 11, "P", "hom"),
    (3, "nat", 14, "P", "socle"), (3, "nat", 14, "P", "radical"),
    (3, "nat", 14, "I", "socle"), (3, "nat", 14, "I", "radical"),
    (3, "nat", 13, "P", "radical"), (3, "nat", 13, "I", "socle"),
    (3, "nat", 14, "Y", "radical"), (3, "nat", 14, "I", "hom"),
    (3, "nat", 14, "P", "dump_rep"),
)


def _names(rng, count, prefix):
    """``count`` distinct identifiers with a seeded suffix."""
    tags = rng.sample(range(100, 1000), count)
    return [f"{prefix}{t}" for t in tags]


def ladder_text(rng, rays, shift, domain, name):
    """R rays with a shift-s chain each, plus rungs r_k[i] -> r_{k+1}[i]."""
    ids = _names(rng, rays, "r")
    guard = "for all i" if domain == "int" else "for i >= 0"
    lines = [f"quiver {name}"]
    lines += [f"ray {r} domain {domain}" for r in ids]
    stmts = [f"family c{k}: {r}[i] -> {r}[i+{shift}] {guard}"
             for k, r in enumerate(ids)]
    stmts += [f"family u{k}: {ids[k]}[i] -> {ids[k + 1]}[i] {guard}"
              for k in range(rays - 1)]
    rng.shuffle(stmts)
    return "\n".join(lines + stmts) + "\n", ids


def far_text(rng, const, name):
    """Two nat chains joined by one arrow from a far constant index."""
    a, b = _names(rng, 2, "r")
    text = (f"quiver {name}\nray {a} domain nat\nray {b} domain nat\n"
            f"family fa: {a}[i] -> {a}[i+1] for i >= 0\n"
            f"family fb: {b}[i] -> {b}[i+1] for i >= 0\n"
            f"arrow g: {a}[{const}] -> {b}[0]\n")
    return text, (a, b)


def fragment_text(rng, name):
    """A small random description in the same fragment as the oracle's
    differential tests: 0-1 core vertices, 1-2 rays, 1-4 families with
    shifts in [-2, 2], 0-2 single arrows.  Always parses."""
    lines = [f"quiver {name}"]
    cores = [f"c{k}" for k in range(rng.randint(0, 1))]
    rays = [f"r{k}" for k in range(rng.randint(1, 2))]
    doms = {r: rng.choice(["nat", "int"]) for r in rays}
    lines += [f"vertex {c}" for c in cores]
    lines += [f"ray {r} domain {doms[r]}" for r in rays]
    for k in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.15 and cores:
            lines.append(f"family f{k}: {rng.choice(cores)} -> "
                         f"{rng.choice(rays)}[i] for i >= {rng.randint(0, 1)}")
        elif roll < 0.25 and cores:
            lines.append(f"family f{k}: {rng.choice(rays)}[i] -> "
                         f"{rng.choice(cores)} for i >= {rng.randint(0, 1)}")
        else:
            src, tgt = rng.choice(rays), rng.choice(rays)
            sh = rng.randint(-2, 2)
            ep = f"{tgt}[i]" if sh == 0 else \
                f"{tgt}[i{'+' if sh > 0 else '-'}{abs(sh)}]"
            if doms[src] == "int" and doms[tgt] == "int" and rng.random() < 0.4:
                guard = "for all i"
            else:
                # the guard keeps both endpoints on a nat ray nonnegative
                guard = f"for i >= {rng.randint(0, 2) + max(0, -sh)}"
            lines.append(f"family f{k}: {src}[i] -> {ep} {guard}")
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
    return "\n".join(lines) + "\n", [(r, doms[r]) for r in rays]


def _query_args(rng, rays, kind, hi):
    """Vertex ids for a query on the given (name, domain) rays."""
    def vid():
        name, dom = rng.choice(rays)
        lo = 0 if dom == "nat" else -hi
        return f"r:{name}:{rng.randint(lo, hi)}"

    if kind == "paths":
        return [vid(), vid()]
    return [vid()]


def fragment(j):
    """Fragment ``j`` of the fixed corpus random fragments are drawn from;
    each has its own seed, so a run generates only those it uses."""
    return fragment_text(random.Random(f"{CORPUS_SEED}-{j}"), f"frag{j}")


def corpus_labels():
    """The corpus labels: ``n`` where the description is not interval
    finite (every command exits 3 after a short search), ``f`` where it is
    (the full analysis runs), ``d`` where it is and ``classify`` meets the
    known defect.  The first two differ in cost by an order of magnitude,
    so each block takes a fixed number of each instead of leaving the mix
    to the draw."""
    with open(os.path.join(HERE, "corpus.json"), encoding="utf-8") as fh:
        return json.load(fh)["labels"]


def catalog_blocks(seed, count):
    """``count`` blocks of ``catalog-cold`` requests, each a shuffled list
    of (name, text, argv-tail).  Every block holds the five fixtures, every
    heavy shape once (ladders and far constants), and fragments by
    FRAGMENT_QUOTA, so a run of whole blocks always has the same mix."""
    rng = random.Random(f"catalog-{seed}")
    labels = corpus_labels()
    pools = {}
    for label, quota in FRAGMENT_QUOTA.items():
        idx = [j for j, x in enumerate(labels) if x == label]
        pools[label] = rng.sample(idx, quota * count)
    blocks = []
    for k in range(count):
        block = [(f"fixture-{fx}-{k}", FIXTURES[fx], ["classify"])
                 for fx in sorted(FIXTURES)]
        for label, quota in FRAGMENT_QUOTA.items():
            for _ in range(quota):
                j = pools[label].pop()
                block.append(_fragment_request(rng, j, label, *fragment(j)))
        block += [_heavy_request(rng, seed, k, spec) for spec in HEAVY]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _fragment_request(rng, j, label, text, rays):
    cmd = rng.choice(FRAGMENT_COMMANDS)
    if label == "d":
        cmd = "classify"
    tail = [cmd]
    if cmd == "query":
        kind = rng.choice(("paths", "pred", "succ"))
        tail += [kind] + _query_args(rng, rays, kind, 3)
    return (f"frag{j}-{cmd}", text, tail)


def _heavy_request(rng, seed, k, spec):
    if spec[0] == "ladder":
        _, rays, shift, dom, cmd = spec
        name = f"ladder{rays}{shift}{dom}{cmd}"
        text, ids = ladder_text(rng, rays, shift, dom, name)
        tail = [cmd]
        if cmd == "query":
            tail += ["paths", f"r:{ids[0]}:{rng.randint(-3, 3)}",
                     f"r:{ids[-1]}:{rng.randint(3, 6)}"]
    else:
        _, const, cmd = spec
        name = f"far{const}"
        text, (_a, b) = far_text(rng, const, name)
        tail = [cmd]
        if cmd == "query":
            tail += ["pred", f"r:{b}:{rng.randint(0, 4)}"]
    return (f"{name}-{seed}-{k}", text, tail)


def session_quiver(seed):
    """The one quiver a session-warm run explores, and its ray names."""
    rng = random.Random(f"session-{seed}")
    rays, shift, dom = SESSION_SHAPE
    return ladder_text(rng, rays, shift, dom, "session")


def session_pool(seed, ray_ids):
    """The distinct queries of a session: (kind, args) with vertex args as
    (ray, index) and class args as an index into the class list.  Indices
    are stratified over [-SPAN, SPAN] and rays taken in turn, with seeded
    jitter, so every seed touches the same window radii."""
    rng = random.Random(f"session-pool-{seed}")

    def index(k, count):
        width = (2 * SESSION_SPAN + 1) / count
        return -SESSION_SPAN + int((k + rng.random()) * width)

    nrays = len(ray_ids)
    pool = []
    for k in range(SESSION_VERTICES):
        v = (ray_ids[k % nrays], index(k, SESSION_VERTICES))
        pool += [(kind, (v,)) for kind in SESSION_KINDS
                 if kind not in ("path_count", "class_support")]
    pairs = [(x, y) for x in range(nrays) for y in range(x, nrays)]
    for k in range(SESSION_PAIRS):
        x, y = pairs[k % len(pairs)]
        ia = min(index(k, SESSION_PAIRS), SESSION_SPAN - 5)
        # b sits a few steps above a so Q(a, b) stays small enough to
        # recount by brute force
        b = (ray_ids[y], ia + rng.randint(0, 5))
        pool.append(("path_count", ((ray_ids[x], ia), b)))
    for k in range(nrays):
        pool.append(("class_support", (k,)))
    return pool


def session_stream(seed, pool):
    """Endless seeded stream of pool indices: one shuffled pass over the
    whole pool, so every run asks every distinct query, then kinds drawn
    by SESSION_WEIGHTS."""
    rng = random.Random(f"session-stream-{seed}")
    order = list(range(len(pool)))
    rng.shuffle(order)
    yield from order
    by_kind = {}
    for k, (kind, _) in enumerate(pool):
        by_kind.setdefault(kind, []).append(k)
    weights = [SESSION_WEIGHTS[kind] for kind in SESSION_KINDS]
    while True:
        kind = rng.choices(SESSION_KINDS, weights)[0]
        yield rng.choice(by_kind[kind])


def reps_pass(seed):
    """One pass of ``reps``: (name, ladder text, build, vertex, n, op)."""
    rng = random.Random(f"reps-{seed}")
    texts = {}
    reqs = []
    for rays, dom, n, build, op in REP_REQUESTS:
        if (rays, dom, n) not in texts:
            texts[rays, dom, n] = ladder_text(rng, rays, 1, dom,
                                              f"rep{rays}{dom}{n}")
        text, ids = texts[rays, dom, n]
        lo = 0 if dom == "nat" else -n
        # far vertices, so the fibers are large: P at the bottom of the
        # first ray, I at the top of the last
        where = {"P": (ids[0], lo), "I": (ids[-1], n), "Y": None}[build]
        reqs.append((f"rep{rays}{dom}{n}-{build}-{op}-{seed}", text, build,
                     where, n, op))
    return reqs


def label_corpus():
    """Recompute corpus.json with fpquiver; needed only when the fragment
    generator or CORPUS_SIZE changes.  Run: python3 perfbench/gen.py

    ``n``: not interval finite; ``f``: interval finite; ``d``: interval
    finite, and ``classify`` raises the known defect of baseline.json.
    """
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from fpquiver import classify, engine_for, parse, regions

    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        defects = json.load(fh)["known_defects"]
    labels = []
    for j in range(CORPUS_SIZE):
        text, _ = fragment(j)
        q = parse(text)
        ok, _, _ = engine_for(q).interval_finite_witness()
        label = "f" if ok else "n"
        if ok:
            try:
                classify(q)
            except Exception as exc:  # only the known defect is labelled
                if not any(d in str(exc) for d in defects):
                    raise
                label = "d"
        regions._ENGINES.clear()  # keep the labeller's memory flat
        labels.append(label)
    with open(os.path.join(HERE, "corpus.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": CORPUS_SEED, "labels": "".join(labels)}, fh)
        fh.write("\n")


if __name__ == "__main__":
    label_corpus()
