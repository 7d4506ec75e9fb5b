"""classify's vertex-injective verdicts against the window-only oracle.

``oracle.brute_ia`` reads nothing but explicit windows, so it shares no
code with the engine's reach sets, pump search or fan bookkeeping that
both the symbolic per-ray sets and their pointwise cross-check rest on.
"""

import random

import pytest

from conftest import load_gen, load_quiver
from fpquiver import oracle, regions
from fpquiver.classify import classify
from fpquiver.patterns import InternalConsistencyError
from fpquiver.qdl import core, parse

gen = load_gen()


def _inputs():
    out = [load_quiver(f"ex{k}") for k in range(1, 6)]
    labels = gen.corpus_labels()
    finite = [j for j, x in enumerate(labels) if x == "f"]
    for j in sorted(random.Random("ia-oracle").sample(finite, 40)):
        out.append(parse(gen.fragment(j)[0]))
    for rays, dom in ((2, "int"), (3, "nat")):
        name = f"ladder{rays}{dom}"
        out.append(parse(gen.ladder_text(random.Random(0), rays, 1, dom,
                                         name)[0]))
    for c in (0, 5, 30, 60):
        out.append(parse(gen.far_text(random.Random(0), c, f"far{c}")[0]))
    return out


def _verdicts(cat, points):
    """classify's verdict at each oracle point: ``ia_core`` at core
    vertices, ``yes_set`` membership on the rays."""
    yes_sets = {rv.ray: rv.yes_set for rv in cat.ia_rays}
    core_yes = {core(name): v.is_yes for name, v in cat.ia_core}
    return {
        v: core_yes[v] if v.kind == "core" else yes_sets[v.name].contains(
            v.index)
        for v in points
    }


@pytest.mark.parametrize("q", _inputs(), ids=lambda q: q.name)
def test_classify_matches_the_window_oracle(q):
    brute = oracle.brute_ia(q)
    assert _verdicts(classify(q), brute) == brute


def test_random_draws_match_the_window_oracle():
    rng = random.Random("ia-oracle-draws")
    compared = 0
    for k in range(200):
        q = oracle.random_description(rng, f"rnd{k}")
        if not regions.engine_for(q).interval_finite_witness()[0]:
            continue
        try:
            cat = classify(q)
        except InternalConsistencyError as err:
            # the known "unsupported shape" defect: a half-line no-set
            if "unsupported shape" in str(err):
                continue
            raise
        brute = oracle.brute_ia(q)
        assert _verdicts(cat, brute) == brute, q.name
        compared += 1
    assert compared >= 40
