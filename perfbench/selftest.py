"""Self-test of the layer tracer and of the traced runs.

    python3 perfbench/selftest.py

1. ``classify`` on ex5 under the tracer records ``qdl.instantiate_window``
   spans whose parent is a ``regions.graph`` span;
2. ``uninstall`` puts back every binding it replaced;
3. each workload's traced run, made twice with the default seed, gives the
   same counts (any count that differs is listed), and every span in the
   layer table has nonzero calls on at least one workload.

Exits 1 if any of these fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

WORKLOADS = ("catalog-cold", "session-warm", "reps")


def _bindings():
    """Every attribute of the package's modules and layer classes."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "fpquiver" or name.startswith("fpquiver."):
            for k, v in vars(mod).items():
                out[name, k] = v
                if isinstance(v, type) and v.__module__ == name:
                    for ck, cv in vars(v).items():
                        out[name, k, ck] = cv
    return out


def check_nesting():
    import fpquiver
    from fpquiver import cli  # noqa: F401

    before = _bindings()
    tracer = Tracer().install()
    tracer.begin(0)
    try:
        fpquiver.classify(fpquiver.parse(gen.FIXTURES["ex5"]))
    finally:
        tracer.uninstall()
        tracer.end()
    after = _bindings()
    problems = []
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed:
        problems.append(f"uninstall left {len(changed)} bindings changed, "
                        f"e.g. {changed[:3]}")
    nested = sum(
        1 for name, _s, _e, parent, _r in tracer.spans
        if name == "qdl.instantiate_window" and parent is not None
        and tracer.spans[parent][0] == "regions.graph")
    print(f"ex5 classify: {len(tracer.spans)} spans, {nested} "
          "qdl.instantiate_window spans nested under regions.graph")
    if not nested:
        problems.append("no qdl.instantiate_window span under regions.graph")
    return problems


def traced(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def check_runs(seed):
    problems = []
    seen = set()
    for wl in WORKLOADS:
        a, b = traced(wl, seed), traced(wl, seed)
        counts = [k for k, v in a.items() if v["unit"] == "count"
                  and k != "trace.requests"]
        differ = [k for k in counts if a[k]["value"] != b[k]["value"]]
        print(f"{wl}: {len(counts) - len(differ)} of {len(counts)} counts "
              "repeat exactly")
        for k in differ:
            print(f"  does not repeat: {k} {a[k]['value']} vs "
                  f"{b[k]['value']}")
        seen |= {s for s in SPAN_NAMES if a[f"{s}.calls"]["value"]}
    missing = [s for s in SPAN_NAMES if s not in seen]
    if missing:
        problems.append(f"spans with no calls on any workload: {missing}")
    return problems


def main():
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        seed = json.load(fh)["default_seed"]
    problems = check_nesting() + check_runs(seed)
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest: " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
