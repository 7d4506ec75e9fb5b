"""Shared fixtures: the bundled example quivers, and the benchmark's
request generator."""

import importlib.util
import pathlib
import sys

import pytest

from fpquiver.qdl import instantiate_window, parse

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_quiver(name):
    """Parse one of the bundled .quiver description files."""
    text = (FIXTURE_DIR / f"{name}.quiver").read_text(encoding="utf-8")
    return parse(text)


def load_gen():
    """``perfbench/gen.py``, imported without writing bytecode next to it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "_perfbench_gen", ROOT / "perfbench" / "gen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    finally:
        sys.dont_write_bytecode = saved
    return gen


def window_targets(q, v, radius):
    """Targets of the arrows out of ``v`` in Window(radius) of ``q``.

    Read from the window's statement layout, the list its arrows are built
    from, so that a far vertex does not instantiate a wide window's arrows.
    """
    out = set()
    for _, st, indices in instantiate_window(q, radius).layout.statements:
        if st.source.is_var:
            i = v.index - st.source.shift
            on_ray = v.kind == "ray" and v.name == st.source.name
            picked = [i] if on_ray and i in indices else []
        else:
            picked = indices if st.source.resolve() == v else ()
        out.update(st.target.resolve(i) for i in picked)
    return out


@pytest.fixture(scope="session")
def ex1():
    """One nat ray a[0] -> a[1] -> ..."""
    return load_quiver("ex1")


@pytest.fixture(scope="session")
def ex2():
    """One int ray, arrows upward for all i."""
    return load_quiver("ex2")


@pytest.fixture(scope="session")
def ex3():
    """A core vertex fanning into every vertex of a nat ray."""
    return load_quiver("ex3")


@pytest.fixture(scope="session")
def ex4():
    """Two nat rays joined by a translation family (a ladder)."""
    return load_quiver("ex4")


@pytest.fixture(scope="session")
def ex5():
    """A nat ray and an int ray joined by two single arrows."""
    return load_quiver("ex5")


@pytest.fixture(scope="session")
def corpus(ex1, ex2, ex3, ex4, ex5):
    return {"ex1": ex1, "ex2": ex2, "ex3": ex3, "ex4": ex4, "ex5": ex5}
