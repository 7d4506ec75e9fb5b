"""Window layout: positions, membership and arrows against an eager
instantiation of the same window, the engine graph against the arrows it is
read from, and the vertex and arrow tuples left unbuilt where nothing reads
them."""

import random
from collections import deque

import pytest

from conftest import load_quiver
from fpquiver import cli, oracle, regions
from fpquiver.qdl import (
    DOMAIN_NAT,
    ArrowRef,
    UnknownIdError,
    VertexRef,
    core,
    instantiate_window,
    parse,
    ray,
)
from fpquiver.regions import RegionEngine
from test_regions import _narrow_radius_quivers


def _eager_window(q, radius):
    """(vertices, arrows) of Window(radius), one object per vertex and
    arrow endpoint, arrows sorted by label then index."""
    vertices = [core(name) for name in q.core_vertices]
    for name, dom in q.rays:
        lo = 0 if dom == DOMAIN_NAT else -radius
        vertices.extend(ray(name, i) for i in range(lo, radius + 1))
    arrows = []
    for a in q.arrows:
        s, t = a.source.resolve(), a.target.resolve()
        if q.vertex_in_window(s, radius) and q.vertex_in_window(t, radius):
            arrows.append(ArrowRef(a.label, None, s, t))
    for f in q.families:
        for i in f.index_range_in(q, radius):
            arrows.append(
                ArrowRef(f.label, i, f.source.resolve(i), f.target.resolve(i))
            )
    arrows.sort(key=lambda a: (a.label, 0 if a.index is None else a.index))
    return tuple(vertices), tuple(arrows)


# labels out of declaration order, constants outside the small windows, a
# fan, a family into a fixed ray vertex, one out of a fixed ray vertex
# outside the window at small radii, and single arrows that leave it
EDGES = (
    "quiver edges\nvertex c\nray a domain nat\nray b domain int\n"
    "family z: a[i] -> a[i+1] for i >= 0\n"
    "family y: b[i+2] -> b[i] for all i\n"
    "family x: c -> b[i-1] for i >= -4\n"
    "family w: a[i] -> b[7] for i >= 1\n"
    "family v: b[-5] -> a[i+2] for i >= 0\n"
    "arrow u: a[6] -> b[-6]\n"
    "arrow t: c -> a[0]\n"
    "arrow s: b[0] -> c\n"
)

# a far constant: two nat chains joined past every small window
FAR = (
    "quiver far40\nray a domain nat\nray b domain nat\n"
    "family fa: a[i] -> a[i+1] for i >= 0\n"
    "family fb: b[i] -> b[i+1] for i >= 0\n"
    "arrow g: a[40] -> b[0]\n"
)


def _layout_quivers():
    rng = random.Random(31)
    return (
        [load_quiver(f"ex{k}") for k in range(1, 6)]
        + _narrow_radius_quivers()
        + [parse(EDGES), parse(FAR)]
        + [oracle.random_description(rng, f"lay{k}") for k in range(32)]
    )


def _radii(q):
    return (0, 1, 3, RegionEngine(q).base_radius)


def _just_outside(q, radius):
    """Vertex refs that Window(radius) does not contain."""
    out = [core("nowhere"), ray("nowhere", 0)]
    for name, dom in q.rays:
        out += [ray(name, radius + 1), core(name)]
        out.append(ray(name, -1 if dom == DOMAIN_NAT else -radius - 1))
    for name in q.core_vertices:
        out += [ray(name, 0), VertexRef("core", name, 1)]
    return out


@pytest.mark.parametrize("q", _layout_quivers(), ids=lambda q: q.name)
def test_window_matches_an_eager_instantiation(q):
    for r in _radii(q):
        w = instantiate_window(q, r)
        vertices, arrows = _eager_window(q, r)
        assert w.vertices == vertices, r
        assert w.arrows == arrows, r
        for k, v in enumerate(vertices):
            assert w.vertex_index(v) == k
            assert w.contains(v)
        for v in _just_outside(q, r):
            assert not w.contains(v), (r, v)
            with pytest.raises(UnknownIdError):
                w.vertex_index(v)
        assert w == instantiate_window(q, r)
        assert hash(w) == hash(instantiate_window(q, r))


@pytest.mark.parametrize("q", _layout_quivers(), ids=lambda q: q.name)
def test_single_arrows_and_the_engine_graph_read_the_layout(q):
    for r in _radii(q):
        _, arrows = _eager_window(q, r)
        w = instantiate_window(q, r)
        # arrow(k) on a window whose arrow tuple is not built yet
        assert [w.arrow(k) for k in range(len(arrows))] == list(arrows)
        with pytest.raises(IndexError):
            w.arrow(len(arrows))
        assert all(w.arrow(k) == a for k, a in enumerate(w.arrows))
        # the engine graph against one derived from the materialized arrows
        g = RegionEngine(q).graph(r)
        gw = g.window
        assert gw.radius == r
        n = len(gw.vertices)
        translation = {
            f.label for f in q.families if f.source.is_var and f.target.is_var
        }
        out_adj = [[] for _ in range(n)]
        trans_out = [[] for _ in range(n)]
        for k, a in enumerate(gw.arrows):
            si, ti = gw.vertex_index(a.source), gw.vertex_index(a.target)
            out_adj[si].append((k, ti))
            if a.label in translation:
                trans_out[si].append((k, ti))
        assert g.out_adj == out_adj
        assert g.trans_out == trans_out
        assert g.topo == _kahn(out_adj)
        assert g.level == [
            abs(v.index) if v.kind == "ray" else 0 for v in gw.vertices
        ]
        assert g.rays_at == [
            v.name if v.kind == "ray" else None for v in gw.vertices
        ]
        assert g.index_at == [v.index for v in gw.vertices]


def _kahn(out_adj):
    """Kahn's topological order seeded in position order, or None."""
    indeg = [0] * len(out_adj)
    for edges in out_adj:
        for _, ti in edges:
            indeg[ti] += 1
    queue = deque(vi for vi, d in enumerate(indeg) if d == 0)
    order = []
    while queue:
        vi = queue.popleft()
        order.append(vi)
        for _, ti in out_adj[vi]:
            indeg[ti] -= 1
            if indeg[ti] == 0:
                queue.append(ti)
    return order if len(order) == len(out_adj) else None


def _tuples_built(w):
    return {"vertices", "arrows"} & set(vars(w))


FAR145 = (
    "quiver lazyfar\nray a domain nat\nray b domain nat\n"
    "family fa: a[i] -> a[i+1] for i >= 0\n"
    "family fb: b[i] -> b[i+1] for i >= 0\n"
    "arrow g: a[145] -> b[0]\n"
)

# a fragment whose window holds the cycle r0[-1] -> ... -> r0[2] -> r0[-1]
CYCLE = (
    "quiver lazycycle\nvertex c0\nray r0 domain int\n"
    "family f0: r0[i] -> r0[i+1] for all i\n"
    "arrow g0: r0[2] -> r0[-1]\n"
)


@pytest.mark.parametrize("text, code, witness", [
    (FAR145, 0, None),
    (CYCLE, 3, "witness: <r:r0:-1|f0@-1.f0@0.f0@1.g0>"),
])
def test_validate_builds_no_window_tuples(tmp_path, capsys, text, code,
                                          witness):
    q = parse(text)
    regions._ENGINES.pop(q, None)
    path = tmp_path / "q.quiver"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == code
    if witness is not None:
        assert witness in capsys.readouterr().out.splitlines()
    eng = regions.engine_for(q)
    # the far quiver is decided by a reach on each side, the cycle before any
    engines = [eng, eng._op_engine] if code == 0 else [eng]
    for e in engines:
        w = e._graph.window
        assert not _tuples_built(w), e.q.name
        assert w.vertices and w.arrows
        assert _tuples_built(w) == {"vertices", "arrows"}
