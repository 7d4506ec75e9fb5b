"""Command-line front end: validate descriptions, classify injectives,
answer region queries, dump representation windows, and cross-check the
symbolic layer against the brute-force oracle.

The command line is read against ``COMMANDS``, a table of each command's
handler, positionals, ``kind`` choices and options, without building a
parser per call.  Options go anywhere after the command, spelled out in
full, as ``--opt N`` or ``--opt=N``.  Reports are plain structured text,
one fact per line, and byte-identical across runs for identical inputs.
Exit codes: 0 success, 1 I/O or generic failure, 2 parse or usage error
(usage on stderr), 3 not interval finite, 4 unknown id, 5 infinite
dimension at a vertex.
"""

import random
import sys
from types import SimpleNamespace

from . import linrep, oracle
from .classify import classify
from .linrep import InfiniteDimensionAt, build_I, build_P, build_Y, dump_rep
from .patterns import Infinite, InternalConsistencyError
from .qdl import QdlError, UnknownIdError, instantiate_window, parse, parse_vertex_id
from .regions import NotIntervalFinite, PreconditionError, engine_for

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NOT_INTERVAL_FINITE = 3
EXIT_UNKNOWN_ID = 4
EXIT_INFINITE_DIMENSION = 5


def _read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load(path):
    return parse(_read(path))


def _describe(obj):
    """Best-effort deterministic rendering of witness payloads."""
    if obj is None:
        return "none"
    if hasattr(obj, "canonical_id"):
        return obj.canonical_id()
    if hasattr(obj, "describe"):
        return obj.describe()
    if isinstance(obj, tuple):
        return "(" + ", ".join(_describe(x) for x in obj) + ")"
    return str(obj)


def _class_arg(q, text):
    classes, _ = engine_for(q).tail_classes()
    for cls in classes:
        if cls.class_id() == text:
            return cls
    known = ", ".join(c.class_id() for c in classes) or "none"
    raise UnknownIdError(f"no tail class {text!r} (known: {known})")


def cmd_validate(args):
    q = _load(args.file)
    eng = engine_for(q)
    eng.ensure_interval_finite()
    lines = [
        f"quiver: {q.name}",
        f"core vertices: {len(q.core_vertices)}",
        f"rays: {len(q.rays)}",
        f"single arrows: {len(q.arrows)}",
        f"arrow families: {len(q.families)}",
        "interval finite: yes",
    ]
    print("\n".join(lines))
    return EXIT_OK


def cmd_classify(args):
    q = _load(args.file)
    cat = classify(q)
    lines = [f"quiver: {q.name}", "IA-CORE"]
    if not cat.ia_core:
        lines.append("(none)")
    for name, verdict in cat.ia_core:
        lines.append(f"{name}: {verdict.render()}")
        if verdict.is_yes:
            preds = ", ".join(
                v.canonical_id() for v in verdict.certificate.predecessors
            )
            lines.append(f"{name} predecessors: {{{preds}}}")
    lines.append("IA-RAYS")
    if not cat.ia_rays:
        lines.append("(none)")
    for rv in cat.ia_rays:
        lines.append(f"{rv.ray}: {rv.shape}")
    lines.append("Y-CLASSES")
    if not cat.y_classes:
        lines.append("(none)")
    for cls, verdict in cat.y_classes:
        cid = cls.class_id()
        lines.append(f"{cid}: {verdict.render()}")
        if verdict.is_yes:
            cert = verdict.certificate
            gens = ", ".join(v.canonical_id() for v in cert.generators)
            lines.append(f"{cid} generators: {{{gens}}}")
            lines.append(f"{cid} uniform bound: {cert.uniform_bound}")
            edge = ", ".join(v.canonical_id() for v in cert.boundary)
            lines.append(f"{cid} boundary: {{{edge}}}")
    lines.append("INFINITE-FAMILIES")
    if not cat.infinite_class_families:
        lines.append("(none)")
    for report in cat.infinite_class_families:
        cycle = ", ".join(report.labels)
        lines.append(
            f"ray {report.ray} ({report.regime}): infinitely many classes "
            f"(cycle {cycle})"
        )
    print("\n".join(lines))
    return EXIT_OK


def cmd_query(args):
    q = _load(args.file)
    eng = engine_for(q)
    eng.ensure_interval_finite()
    kind = args.kind
    rest = list(args.args)
    if kind in ("supp", "boundary") and rest and rest[0] == "class":
        rest = rest[1:]
    lines = [f"quiver: {q.name}", f"query: {kind} {' '.join(rest)}"]
    if kind == "paths":
        if len(rest) != 2:
            raise UnknownIdError("paths takes two vertex ids")
        a = parse_vertex_id(q, rest[0])
        b = parse_vertex_id(q, rest[1])
        card = eng.path_count(a, b)
        if isinstance(card, Infinite):
            w = card.witness
            lines.append("result: infinite")
            lines.append(
                f"growth: counts {w.counts} at radii {w.radii}"
            )
        else:
            lines.append(f"result: finite {card.count}")
    elif kind in ("pred", "succ", "out", "in"):
        if len(rest) != 1:
            raise UnknownIdError(f"{kind} takes one vertex id")
        v = parse_vertex_id(q, rest[0])
        supp = {
            "pred": eng.predecessors,
            "succ": eng.successors,
            "out": eng.out_neighbors,
            "in": eng.in_neighbors,
        }[kind](v)
        lines.append(f"result: {supp.summary(q)}")
    elif kind in ("supp", "boundary"):
        if len(rest) != 1:
            raise UnknownIdError(f"{kind} takes one class id")
        cls = _class_arg(q, rest[0])
        supp = eng.class_support(cls)
        if kind == "boundary":
            supp = eng.boundary_stage(supp).detail
        lines.append(f"result: {supp.summary(q)}")
    else:  # pragma: no cover - parse_argv restricts choices
        raise UnknownIdError(f"unknown query kind {kind!r}")
    print("\n".join(lines))
    return EXIT_OK


def _dot_lines(q, m):
    name = "".join(ch if ch.isalnum() else "_" for ch in q.name)
    lines = [f"digraph {name} {{"]
    for v in m.window.vertices:
        cid = v.canonical_id()
        lines.append(f'  "{cid}" [label="{cid} dim={m.dim(v)}"];')
    for ar in m.window.arrows:
        lines.append(
            f'  "{ar.source.canonical_id()}" -> '
            f'"{ar.target.canonical_id()}" [label="{ar.canonical_id()}"];'
        )
    lines.append("}")
    return lines


def cmd_rep(args):
    q = _load(args.file)
    eng = engine_for(q)
    eng.ensure_interval_finite()
    radius = args.window if args.window is not None else eng.nstar + 2
    if radius < 0:
        raise PreconditionError("--window must be nonnegative")
    if args.kind == "P":
        m = build_P(q, parse_vertex_id(q, args.id), radius)
    elif args.kind == "I":
        m = build_I(q, parse_vertex_id(q, args.id), radius)
    else:
        m = build_Y(q, _class_arg(q, args.id), radius)
    if args.dot:
        print("\n".join(_dot_lines(q, m)))
        return EXIT_OK
    lines = [f"quiver: {q.name}", f"rep: {args.kind} {args.id}"]
    dump = dump_rep(m).splitlines()
    if args.dump:
        lines.extend(dump)
    else:
        keep = ("window radius", "vertex ")
        lines.extend(l for l in dump if l.startswith(keep))
        lines.append(f"total dim: {m.total_dim()}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_oracle_compare(args):
    q = _load(args.file)
    eng = engine_for(q)
    eng.ensure_interval_finite()
    rng = random.Random(args.seed)
    lines = [f"quiver: {q.name}", f"seed: {args.seed}"]

    radius = min(4, eng.nstar + 2)
    window = instantiate_window(q, radius)
    g = oracle.from_window(window)
    verts = list(window.vertices)
    sources = verts if len(verts) <= 6 else rng.sample(verts, 6)
    sources.sort(key=lambda v: v.sort_key())
    checked = 0
    for a in sources:
        for reverse, kind, build in (
            (False, "P", build_P),
            (True, "I", build_I),
        ):
            groups = oracle.paths_from(g, a, reverse=reverse)
            m = build(q, a, radius)
            for b in verts:
                brute = len(groups.get(b, ()))
                if m.dim(b) != brute:
                    print("\n".join(lines))
                    print(
                        f"oracle-compare: mismatch at {kind}"
                        f"[{a.canonical_id()}]({b.canonical_id()}): "
                        f"{m.dim(b)} vs {brute}"
                    )
                    return EXIT_ERROR
                checked += 1
    lines.append(f"path laws: {checked} dimension checks ok")

    sample = verts if len(verts) <= 4 else rng.sample(verts, 4)
    sample.sort(key=lambda v: v.sort_key())
    probed = 0
    for v in sample:
        start = eng.nstar + abs(v.index) + 1
        radii = tuple(range(start, start + 4))
        for query in (("pred", v), ("succ", v)):
            oracle.window_convergence_probe(q, query, radii)
            probed += 1
    lines.append(f"convergence probes: {probed} ok")

    socle_checked = 0
    for v in sample[: 2]:
        m = build_I(q, v, radius)
        got = linrep.socle(m).dims_dict()
        want = oracle.brute_socle(m)
        if got != want:
            print("\n".join(lines))
            print(f"oracle-compare: socle mismatch at {v.canonical_id()}")
            return EXIT_ERROR
        socle_checked += 1
    lines.append(f"socle checks: {socle_checked} ok")

    lines.append("oracle-compare: ok")
    print("\n".join(lines))
    return EXIT_OK


# command -> (handler, positional names, choices of 'kind', options with
# their defaults); a False default marks a flag, any other an int option.
# A last positional named 'args' takes one or more words.
COMMANDS = {
    "validate": (cmd_validate, ("file",), (), {}),
    "classify": (cmd_classify, ("file",), (), {}),
    "query": (cmd_query, ("file", "kind", "args"),
              ("paths", "pred", "succ", "out", "in", "supp", "boundary"), {}),
    "rep": (cmd_rep, ("file", "kind", "id"), ("P", "I", "Y"),
            {"window": None, "dump": False, "dot": False}),
    "oracle-compare": (cmd_oracle_compare, ("file",), (), {"seed": 0}),
}

USAGE = """\
usage: fpquiver validate FILE
       fpquiver classify FILE
       fpquiver query FILE {paths,pred,succ,out,in,supp,boundary} ID [ID ...]
       fpquiver rep FILE {P,I,Y} ID [--window N] [--dump | --dot]
       fpquiver oracle-compare FILE [--seed S]
"""


def _usage_error(message):
    sys.stderr.write(f"{USAGE}fpquiver: error: {message}\n")
    raise SystemExit(EXIT_PARSE)


def parse_argv(argv):
    """The handler and argument fields of one command line.  Options may
    come anywhere after the command, as ``--opt N`` or ``--opt=N``."""
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in COMMANDS:
        _usage_error(f"expected a command: {', '.join(COMMANDS)}")
    func, names, kinds, options = COMMANDS[argv[0]]
    args, words, rest = SimpleNamespace(**options), [], iter(argv[1:])
    for word in rest:
        if not word.startswith("-") or word[1:].isdecimal():
            words.append(word)
            continue
        opt, eq, value = word.partition("=")
        key = opt[2:]
        if opt[:2] != "--" or key not in options or (eq and options[key] is False):
            _usage_error(f"unrecognized option {word!r}")
        if options[key] is False:
            setattr(args, key, True)
            continue
        value = value if eq else next(rest, "")
        try:
            setattr(args, key, int(value))
        except ValueError:
            _usage_error(f"{opt} expects an integer, not {value!r}")
    many = names[-1] == "args"
    if len(words) < len(names) or (len(words) > len(names) and not many):
        _usage_error(f"{argv[0]} takes {' '.join(names).upper()}")
    for name, word in zip(names, words):
        setattr(args, name, word)
    if many:
        args.args = words[len(names) - 1:]
    if kinds and args.kind not in kinds:
        _usage_error(f"kind must be one of {', '.join(kinds)}")
    if getattr(args, "dump", False) and args.dot:
        _usage_error("--dump and --dot exclude each other")
    return func, args


def main(argv=None):
    func, args = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        return func(args)
    except OSError as exc:
        print(f"error: {exc}")
        return EXIT_ERROR
    except UnknownIdError as exc:
        print(f"unknown id: {exc}")
        return EXIT_UNKNOWN_ID
    except QdlError as exc:
        print(f"parse error: {exc}")
        return EXIT_PARSE
    except NotIntervalFinite as exc:
        print(f"not interval finite: {exc}")
        if exc.pair is not None:
            print(f"witness pair: {_describe(exc.pair)}")
        if exc.witness is not None:
            print(f"witness: {_describe(exc.witness)}")
        return EXIT_NOT_INTERVAL_FINITE
    except InfiniteDimensionAt as exc:
        print(f"infinite dimension at {exc.vertex.canonical_id()}")
        return EXIT_INFINITE_DIMENSION
    except (PreconditionError, InternalConsistencyError,
            oracle.OracleMismatch) as exc:
        print(f"error: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
