"""Description language: parsing, references, windows."""

import functools
import pathlib
import random
import re

import pytest

from fpquiver import qdl
from fpquiver.qdl import (
    DOMAIN_INT,
    DOMAIN_NAT,
    NatDomainError,
    Path,
    QdlSyntaxError,
    UndeclaredIdentifierError,
    UnknownIdError,
    core,
    instantiate_window,
    parse,
    ray,
)


def test_refs_and_canonical_ids():
    assert core("v0").canonical_id() == "v:v0"
    assert ray("a", -2).canonical_id() == "r:a:-2"
    assert ray("a", 3).sort_key() == ("ray", "a", 3)
    assert core("v0") == core("v0")
    assert ray("a", 1) != ray("a", 2)


def test_parse_declarations(ex5):
    assert ex5.name == "ex5"
    assert ex5.ray_names() == ("a", "b")
    assert ex5.domain("a") == DOMAIN_NAT
    assert ex5.domain("b") == DOMAIN_INT
    assert len(ex5.arrows) == 2
    assert len(ex5.families) == 2


def test_has_vertex_respects_domains(ex5):
    assert ex5.has_vertex(ray("a", 0))
    assert not ex5.has_vertex(ray("a", -1))
    assert ex5.has_vertex(ray("b", -10))
    assert not ex5.has_vertex(core("nope"))


def test_nat_guard_is_clamped():
    q = parse(
        "quiver g\n"
        "ray a domain nat\n"
        "family f: a[i] -> a[i-2] for i >= 0\n"
    )
    fam = q.families[0]
    # i-2 must stay on the ray, so the usable guard starts at 2
    assert fam.lower == 2


def test_for_all_requires_int_rays():
    with pytest.raises(NatDomainError):
        parse(
            "quiver g\n"
            "ray a domain nat\n"
            "family f: a[i] -> a[i+1] for all i\n"
        )


def test_syntax_errors_carry_position():
    with pytest.raises(QdlSyntaxError) as err:
        parse("quiver g\nray a domain nat\nfamily f: a[i] -> a[i+1]\n")
    assert "line 3" in str(err.value)
    with pytest.raises(QdlSyntaxError):
        parse("ray a domain nat\n")
    with pytest.raises(UndeclaredIdentifierError):
        parse("quiver g\nray a domain nat\narrow f: a[0] -> b[0]\n")


def test_duplicate_labels_rejected():
    with pytest.raises(QdlSyntaxError):
        parse(
            "quiver g\n"
            "ray a domain nat\n"
            "family f: a[i] -> a[i+1] for i >= 0\n"
            "family f: a[i] -> a[i+2] for i >= 0\n"
        )


def test_window_enumeration_order(ex5):
    w = instantiate_window(ex5, 2)
    assert [v.canonical_id() for v in w.vertices] == [
        "r:a:0", "r:a:1", "r:a:2", "r:b:-2", "r:b:-1", "r:b:0", "r:b:1",
        "r:b:2",
    ]
    assert [a.canonical_id() for a in w.arrows] == [
        "alpha@0", "alpha@1", "beta@-2", "beta@-1", "beta@0", "beta@1",
        "gamma0", "gamma1",
    ]


def test_window_incidence(ex5):
    w = instantiate_window(ex5, 2)
    assert [a.canonical_id() for a in w.arrows_from(ray("a", 0))] == [
        "alpha@0", "gamma0"]
    assert [a.canonical_id() for a in w.arrows_into(ray("b", 1))] == [
        "beta@0", "gamma1"]
    assert w.contains(ray("b", -2))
    assert not w.contains(ray("b", -3))
    assert w.vertex_index(ray("a", 1)) == 1
    with pytest.raises(UnknownIdError):
        w.vertex_index(ray("a", 99))


def test_window_contains_core(ex3):
    w = instantiate_window(ex3, 1)
    assert w.contains(core("v0"))
    assert [v.canonical_id() for v in w.vertices][0] == "v:v0"


def test_opposite_reverses_arrows(ex5):
    op = ex5.opposite()
    w = instantiate_window(ex5, 2)
    wop = instantiate_window(op, 2)
    fwd = {a.canonical_id(): (a.source, a.target) for a in w.arrows}
    rev = {a.canonical_id(): (a.source, a.target) for a in wop.arrows}
    assert set(fwd) == set(rev)
    for aid, (s, t) in fwd.items():
        assert rev[aid] == (t, s)
    assert op.opposite() == ex5 or instantiate_window(op.opposite(), 2).arrows == w.arrows


def test_paths(ex1):
    w = instantiate_window(ex1, 3)
    a0 = w.arrows_from(ray("a", 0))[0]
    a1 = w.arrows_from(ray("a", 1))[0]
    p = Path(ray("a", 0), (a0, a1))
    assert p.target == ray("a", 2)
    assert p.describe() == "<r:a:0|alpha@0.alpha@1>"
    assert Path(core("z")).describe() == "<v:z>"
    assert Path(core("z")).target == core("z")


def test_path_composability(ex1):
    w = instantiate_window(ex1, 3)
    a0 = w.arrows_from(ray("a", 0))[0]
    a1 = w.arrows_from(ray("a", 1))[0]
    assert Path(ray("a", 0), (a0, a1)).is_composable()
    assert not Path(ray("a", 1), (a0,)).is_composable()
    assert not Path(ray("a", 0), (a1, a0)).is_composable()


def test_constants_and_max_shift(ex5):
    assert set(ex5.constants()) == {0, 1}
    assert ex5.max_shift() == 1


# ---------------------------------------------------------------------------
# statement keywords against the regular expressions the parser used to match
# them with


OLD_HEADER = re.compile(r"\s*quiver\s+([A-Za-z_][A-Za-z0-9_]*)\s*\Z")
OLD_RAY = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s+domain\s+(nat|int)\s*\Z")
OLD_FAMILY = re.compile(
    r"(?P<eps>.*?)\s+for\s+(?:(?:i\s*>=\s*(?P<low>-?\d+))|(?P<all>all\s+i))"
    r"\s*\Z")

# whitespace inside one statement: every \s character except the line breaks
# that str.splitlines cuts statements at
INLINE_SPACES = [c for c in map(chr, range(0x3001))
                 if c.isspace() and len(f"a{c}b".splitlines()) == 1]
# the family guard is also read on its own, where only "\n" stops the old
# pattern's "."
FAMILY_SPACES = INLINE_SPACES + ["\r", "\x0b", "\x0c", "\x1c", "\x85",
                                 "\u2028"]
NAMES = ["q", "q1", "_x", "fork", "for", "all", "i", "domain", "nat", "1q",
         "q-1", "\u00e4", "\u0663", "a[i]", ""]
FUZZ_BODIES = 100_000


def _space(rng, spaces):
    """Nothing, one whitespace character, or a run of two."""
    k = rng.randrange(6)
    if k == 0:
        return ""
    if k == 1:
        return "".join(rng.choice(spaces) for _ in range(2))
    return rng.choice((" ", " ", "\t", rng.choice(spaces)))


def _pick(rng, usual, odd):
    return rng.choice(usual) if rng.random() < 0.7 else rng.choice(odd)


def _soup(rng, words, spaces):
    """A few words and spaces run together in any order."""
    return "".join(rng.choice(words) if rng.random() < 0.6
                   else _space(rng, spaces)
                   for _ in range(rng.randrange(1, 9)))


def header_bodies(rng, n):
    words = ["quiver", "Quiver", "quiverq", "quive"] + NAMES
    sp = functools.partial(_space, rng, INLINE_SPACES)
    for _ in range(n):
        if rng.random() < 0.2:
            yield _soup(rng, words, INLINE_SPACES)
            continue
        yield (sp() + _pick(rng, ["quiver"], words) + _pick(rng, [" "], [sp()])
               + sp() + rng.choice(NAMES) + sp()
               + (rng.choice(words) if rng.random() < 0.1 else ""))


def ray_bodies(rng, n):
    words = ["domain", "Domain", "domainx", "nat", "int", "Int", "natint",
             "nat|int"] + NAMES
    sp = functools.partial(_space, rng, INLINE_SPACES)
    for _ in range(n):
        if rng.random() < 0.2:
            yield _soup(rng, words, INLINE_SPACES)
            continue
        yield (sp() + rng.choice(NAMES) + _pick(rng, [" "], [sp()]) + sp()
               + _pick(rng, ["domain"], words) + _pick(rng, [" "], [sp()])
               + sp() + _pick(rng, ["nat", "int"], words) + sp()
               + (rng.choice(words) if rng.random() < 0.1 else ""))


GUARDS = ["all i", "all  i", "alli", "all\ti", "all", "i", "i >= 0",
          "i>=-3", "i >=5", "i>= 12", "i > = 5", "i >= \u0663",
          "i >= -\u0663", "i >= \u00b2", "i >= - 3", "i >= 3 4",
          "i >= 1_0", "i >= +3", "i >=", "i >= -", "j >= 0", "i >= 2 all i",
          ""]
TEMPLATES = ["a[i] -> b[i+1]", "fork[i] -> a[i]", "for[i] -> a[i]",
             "a[i]->b[i]", "x", "a for b", "a[i] -> b for all i",
             "a -> b for i >= 1", "\u00e4 -> for", ""]


def family_bodies(rng, n):
    words = ["for", "fork", "for[i]", "For", "fo", "all", "i", ">=", ">",
             "=", "-3", "5", "\u0663", "->", "a[i]"] + GUARDS
    sp = functools.partial(_space, rng, FAMILY_SPACES)
    for _ in range(n):
        if rng.random() < 0.2:
            yield _soup(rng, words, FAMILY_SPACES)
            continue
        yield (sp() + rng.choice(TEMPLATES) + _pick(rng, [" "], [sp()])
               + sp() + _pick(rng, ["for"], words) + _pick(rng, [" "], [sp()])
               + sp() + rng.choice(GUARDS) + sp()
               + (rng.choice(words) if rng.random() < 0.1 else ""))


def test_header_matches_the_old_pattern():
    rng = random.Random(1)
    accepted = 0
    for body in header_bodies(rng, FUZZ_BODIES):
        if not body.strip():
            continue
        m = OLD_HEADER.match(body.rstrip())
        try:
            got = parse(body).name
        except QdlSyntaxError as exc:
            assert m is None, body
            assert str(exc) == (
                "line 1, column 1: first statement must be 'quiver <name>'")
        else:
            assert m is not None and got == m.group(1), body
            accepted += 1
    assert 0.1 * FUZZ_BODIES < accepted < 0.9 * FUZZ_BODIES


def test_ray_statement_matches_the_old_pattern():
    rng = random.Random(2)
    accepted = 0
    for body in ray_bodies(rng, FUZZ_BODIES):
        m = OLD_RAY.match(body.strip())
        try:
            got = parse("quiver q\nray " + body).rays
        except QdlSyntaxError as exc:
            assert m is None, body
            assert str(exc) == (
                "line 2, column 1: expected 'ray <name> domain nat|int'")
        else:
            assert m is not None and got == ((m.group(1), m.group(2)),), body
            accepted += 1
    assert 0.1 * FUZZ_BODIES < accepted < 0.9 * FUZZ_BODIES


def test_family_guard_matches_the_old_pattern():
    rng = random.Random(3)
    accepted = 0
    for body in family_bodies(rng, FUZZ_BODIES):
        m = OLD_FAMILY.match(body)
        got = qdl._family_guard(body)
        if m is None:
            assert got is None, body
            continue
        low = None if m.group("all") else int(m.group("low"))
        assert got == (m.group("eps"), low), body
        accepted += 1
    assert 0.1 * FUZZ_BODIES < accepted < 0.9 * FUZZ_BODIES


FIXTURES = sorted(
    (pathlib.Path(__file__).parent / "fixtures").glob("*.quiver"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_parse_compiles_no_pattern(monkeypatch, path):
    text = path.read_text(encoding="utf-8")
    want = None
    try:
        want = parse(text)
    except QdlSyntaxError as exc:
        want = str(exc)

    def refuse(*args, **kwargs):
        raise AssertionError("parse compiled a regular expression")

    for name in ("match", "compile", "fullmatch", "search"):
        monkeypatch.setattr(re, name, refuse)
    try:
        got = parse(text)
    except QdlSyntaxError as exc:
        got = str(exc)
    assert got == want
