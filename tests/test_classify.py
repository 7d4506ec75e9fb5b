"""Injective classification: pointwise criteria and full catalogs."""

import importlib
import random

import pytest

from conftest import load_gen, load_quiver
from fpquiver import oracle
from fpquiver.classify import Verdict, classify, ia_fp, yp_fp
from fpquiver.patterns import InternalConsistencyError, TailWitness
from fpquiver.qdl import core, parse, ray
from fpquiver.regions import NotIntervalFinite, engine_for

# the module, which the package's ``classify`` function shadows
classify_module = importlib.import_module("fpquiver.classify")


def classes_by_id(q):
    return {c.class_id(): c for c in engine_for(q).tail_classes()[0]}


def test_ia_pointwise(ex1, ex2, ex3):
    assert ia_fp(ex1, ray("a", 7)).value == "yes"
    v = ia_fp(ex2, ray("a", 0))
    assert (v.value, v.reason) == ("no", "infinite predecessors")
    v = ia_fp(ex3, ray("b", 4))
    assert (v.value, v.reason) == (
        "no", "predecessor v:v0 has infinite out-degree")
    assert ia_fp(ex3, core("v0")).value == "no"


def test_ia_certificate(ex1):
    cert = ia_fp(ex1, ray("a", 2)).certificate
    assert [p.canonical_id() for p in cert.predecessors] == [
        "r:a:0", "r:a:1", "r:a:2"]


def test_ia_fan_predecessor_verdict(ex3):
    # the whole "no" verdict: value, reason and the (predecessor, tail) witness
    assert ia_fp(ex3, ray("b", 4)) == Verdict(
        "no",
        "predecessor v:v0 has infinite out-degree",
        (core("v0"), TailWitness("b", "+", 0, 1)),
    )


def test_verdict_render(ex2):
    v = ia_fp(ex2, ray("a", 0))
    assert v.render() == "no (infinite predecessors)"
    assert not v.is_yes


def test_yp_yes_with_certificates(ex1, ex5):
    cls = classes_by_id(ex1)["(a,+)"]
    v = yp_fp(ex1, cls)
    assert v.is_yes
    assert [g.canonical_id() for g in v.certificate.generators] == ["r:a:0"]
    assert v.certificate.boundary == ()
    v5 = yp_fp(ex5, classes_by_id(ex5)["(a,+)"])
    assert v5.is_yes
    assert [b.canonical_id() for b in v5.certificate.boundary] == [
        "r:b:0", "r:b:1"]


def test_yp_failures(ex4, ex5):
    c4 = classes_by_id(ex4)
    v = yp_fp(ex4, c4["(a,+)"])
    assert (v.value, v.reason) == ("no", "boundary infinite")
    v = yp_fp(ex4, c4["(b,+)"])
    assert (v.value, v.reason) == ("no", "not uniformly interval finite")
    v = yp_fp(ex5, classes_by_id(ex5)["(b,+)"])
    assert (v.value, v.reason) == ("no", "not top finite")


def test_catalog_ex1(ex1):
    cat = classify(ex1)
    assert [(rv.ray, rv.shape) for rv in cat.ia_rays] == [("a", "all yes")]
    assert [(c.class_id(), v.value) for c, v in cat.y_classes] == [
        ("(a,+)", "yes")]
    assert cat.yes_objects() == ["I[a] on all", "Y(a,+)"]


def test_catalog_ex2(ex2):
    cat = classify(ex2)
    assert [(rv.ray, rv.shape) for rv in cat.ia_rays] == [("a", "all no")]
    assert [(c.class_id(), v.value) for c, v in cat.y_classes] == [
        ("(a,+)", "no")]
    assert cat.yes_objects() == []


def test_catalog_ex3(ex3):
    cat = classify(ex3)
    assert [(n, v.value) for n, v in cat.ia_core] == [("v0", "no")]
    assert [(rv.ray, rv.shape) for rv in cat.ia_rays] == [("b", "all no")]
    assert [(c.class_id(), v.value, v.reason) for c, v in cat.y_classes] == [
        ("(b,+)", "no", "not uniformly interval finite")]
    assert cat.yes_objects() == []


def test_catalog_ex4(ex4):
    cat = classify(ex4)
    assert [(rv.ray, rv.shape) for rv in cat.ia_rays] == [
        ("a", "all yes"), ("b", "all yes")]
    assert sorted((c.class_id(), v.value) for c, v in cat.y_classes) == [
        ("(a,+)", "no"), ("(b,+)", "no")]


def test_catalog_ex5(ex5):
    cat = classify(ex5)
    assert [(rv.ray, rv.shape) for rv in cat.ia_rays] == [
        ("a", "all yes"), ("b", "all no")]
    assert sorted((c.class_id(), v.value, v.reason)
                  for c, v in cat.y_classes) == [
        ("(a,+)", "yes", ""), ("(b,+)", "no", "not top finite")]
    assert cat.yes_objects() == ["I[a] on all", "Y(a,+)"]


def test_classify_requires_interval_finite():
    q = parse(
        "quiver nif\nvertex s\nvertex t\nray a domain nat\n"
        "family alpha: s -> a[i] for i >= 0\n"
        "family beta: a[i] -> t for i >= 0\n"
    )
    with pytest.raises(NotIntervalFinite) as err:
        classify(q)
    assert tuple(v.canonical_id() for v in err.value.pair) == ("v:s", "v:t")


def test_symbolic_matches_pointwise_out_to_double_horizon(corpus):
    for q in corpus.values():
        cat = classify(q)
        eng = engine_for(q)
        for rv in cat.ia_rays:
            lo = 0 if rv.domain == "nat" else -2 * eng.nstar
            for i in range(lo, 2 * eng.nstar + 1):
                pointwise = ia_fp(q, ray(rv.ray, i)).is_yes
                assert pointwise == rv.yes_set.contains(i), (q.name, rv.ray, i)


def test_ray_verdict_lookup(ex5):
    cat = classify(ex5)
    by_ray = {rv.ray: rv for rv in cat.ia_rays}
    assert by_ray["a"].verdict_at(3) == "yes"
    assert by_ray["b"].verdict_at(3) == "no"


def _pass_inputs():
    """Descriptions for the one-pass check: the fixtures, a corpus sample of
    interval-finite fragments, random draws, ladders, far constants and a
    dense template."""
    gen = load_gen()
    out = [load_quiver(f"ex{k}") for k in range(1, 6)]
    labels = gen.corpus_labels()
    finite = [j for j, x in enumerate(labels) if x in ("f", "d")]
    for j in sorted(random.Random("one-pass").sample(finite, 40)):
        out.append(parse(gen.fragment(j)[0]))
    rng = random.Random("one-pass-draws")
    draws = [oracle.random_description(rng, f"rnd{k}") for k in range(120)]
    out += [q for q in draws if engine_for(q).interval_finite_witness()[0]]
    for rays, shift, dom in ((2, 1, "int"), (3, 1, "nat"), (4, 1, "int"),
                             (2, 2, "nat")):
        out.append(parse(gen.ladder_text(random.Random(0), rays, shift, dom,
                                         f"ladder{rays}s{shift}{dom}")[0]))
    for c in (5, 30, 145, 300):
        out.append(parse(gen.far_text(random.Random(0), c, f"far{c}")[0]))
    # every a[i] into c, so b[2] and above have infinitely many predecessors
    out.append(parse(
        "quiver sinkfan\nvertex c\nray a domain nat\nray b domain nat\n"
        "family f: a[i] -> c for i >= 0\n"
        "family h: b[i] -> b[i+1] for i >= 0\narrow g: c -> b[2]\n"))
    # a dense template: six int rays, a family from each to every other
    dense = ["quiver dense6"] + [f"ray r{k} domain int" for k in range(6)]
    dense += [f"family f{k}_{j}: r{k}[i] -> r{j}[i+1] for all i"
              for k in range(6) for j in range(6) if k != j]
    out.append(parse("\n".join(dense) + "\n"))
    return out


@pytest.mark.parametrize("q", _pass_inputs(), ids=lambda q: q.name)
def test_one_pass_matches_ia_fp_at_every_point(q):
    eng = engine_for(q)
    eng.ensure_interval_finite()
    pointwise = classify_module._pointwise_ia(eng)
    for name, dom in q.rays:
        lo = 0 if dom == "nat" else -eng.nstar
        for i in range(lo, eng.nstar + 1):
            assert pointwise(name, i) == ia_fp(q, ray(name, i)).is_yes, (
                name, i)


def test_a_disagreeing_pointwise_verdict_raises(ex1, monkeypatch):
    one_pass = classify_module._pointwise_ia

    def flipped(eng):
        yes_at = one_pass(eng)
        return lambda name, i: yes_at(name, i) != (i == 3)

    monkeypatch.setattr(classify_module, "_pointwise_ia", flipped)
    with pytest.raises(InternalConsistencyError,
                       match=r"symbolic verdict for a\[3\] disagrees"):
        classify(ex1)
