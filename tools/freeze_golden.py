"""Recompute brute-force golden values and write tests/golden/derived.json.

Everything in the golden file comes from the oracle module (explicit window
graphs, exhaustive path enumeration, dense rank), never from the symbolic
layer, so the tests that read it are genuine cross-checks.

Run from the repository root:

    python3 tools/freeze_golden.py
"""

import json
import pathlib

from fpquiver import oracle
from fpquiver.qdl import core, instantiate_window, parse, ray

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / "tests" / "golden" / "derived.json"


def load(name):
    return parse((FIXTURES / f"{name}.quiver").read_text(encoding="utf-8"))


def dims_by_id(dims):
    items = sorted(dims.items(), key=lambda kv: kv[0].sort_key())
    return {v.canonical_id(): d for v, d in items if d}


def count_trace(q, a, b, radii):
    out = []
    for r in radii:
        g = oracle.from_window(instantiate_window(q, r))
        out.append(len(oracle.brute_paths(g, a, b)))
    return out


def pred_trace(q, v, radii):
    out = []
    for r in radii:
        g = oracle.from_window(instantiate_window(q, r))
        out.append(len(oracle.paths_from(g, v, reverse=True)))
    return out


def main():
    ex1 = load("ex1")
    ex2 = load("ex2")
    ex3 = load("ex3")
    ex4 = load("ex4")
    ex5 = load("ex5")
    golden = {}

    g3 = oracle.from_window(instantiate_window(ex3, 4))
    golden["ex3 paths v:v0 -> r:b:2"] = len(
        oracle.brute_paths(g3, core("v0"), ray("b", 2)))

    g4 = oracle.from_window(instantiate_window(ex4, 3))
    golden["ex4 I r:b:2 window 3 dims"] = dims_by_id(
        oracle.brute_build_I(g4, ray("b", 2))["dims"])
    golden["ex4 P r:a:0 window 3 dims"] = dims_by_id(
        oracle.brute_build_P(g4, ray("a", 0))["dims"])

    g5 = oracle.from_window(instantiate_window(ex5, 3))
    golden["ex5 P r:a:0 window 3 dims"] = dims_by_id(
        oracle.brute_build_P(g5, ray("a", 0))["dims"])
    golden["ex5 I r:b:0 window 3 dims"] = dims_by_id(
        oracle.brute_build_I(g5, ray("b", 0))["dims"])

    # The tail-class limit on ex1: injectives far out the ray stabilize on
    # a small window, and the stabilized dimensions are the class limit.
    g1 = oracle.from_window(instantiate_window(ex1, 10))
    tail = oracle.brute_build_I(g1, ray("a", 9))["dims"]
    golden["ex1 tail limit dims radius 4"] = {
        f"r:a:{i}": tail.get(ray("a", i), 0) for i in range(5)}

    golden["ex4 paths r:a:0 -> r:b:5 trace radii 5..9"] = count_trace(
        ex4, ray("a", 0), ray("b", 5), range(5, 10))
    golden["ex2 pred r:a:0 trace radii 2..6"] = pred_trace(
        ex2, ray("a", 0), range(2, 7))

    from fpquiver import linrep  # windows only; ranks are brute

    i1 = linrep.build_I(ex1, ray("a", 2), 4)
    golden["ex1 socle I r:a:2 window 4 dims"] = dims_by_id(
        oracle.brute_socle(i1))
    p1 = linrep.build_P(ex1, ray("a", 0), 3)
    golden["ex1 radical P r:a:0 window 3 dims"] = dims_by_id(
        oracle.brute_radical(p1))

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {OUT} ({len(golden)} entries)")


if __name__ == "__main__":
    main()
