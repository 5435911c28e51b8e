import copy
import functools
import gc
import hashlib
import pickle
import struct
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import psc
from conftest import (add_chord_first_visit, add_edge_first_face_scan,
                      assert_mutations_match_build, assert_one_tuple_per_face,
                      assert_rows_shared, assert_same_graph, block_chains,
                      bowtie, bridge, build_oracle, cube,
                      degree2_cut_vertices, delete_by_build, double_pocket,
                      face_corners_scan, face_delta_scan, single_deletions,
                      small_graphs)
from psc import embedding as emb
from psc import generators as gen
from psc import errors as err


def test_build_k4():
    g = gen.named_graph("k4")
    assert g.n == 4 and g.m == 6
    assert g.degree(0) == 3
    assert g.adjacent(0, 1) and not g.adjacent(0, 0)


def test_build_one_vertex():
    # an edgeless graph has one face without corners
    g = emb.from_pg("n 1\n0:\n")
    assert (g.n, g.m) == (1, 0)
    assert g.faces == ((),) and g.face_at == [[]]


def test_delete_vertex_to_one_vertex():
    k2 = emb.build(2, [[1], [0]])
    for v in (0, 1):
        g2 = emb.mutate_delete_vertex(k2, v)
        assert_same_graph(g2, delete_by_build(k2, v))
        assert g2.vertices == (1 - v,) and g2.n == 1
        assert emb.to_pg(g2) == emb.to_pg(emb.from_pg("n 1\n0:\n"))


def test_delete_only_vertex():
    with pytest.raises(err.UnknownVertex):
        emb.mutate_delete_vertex(emb.from_pg("n 1\n0:\n"), 0)


def test_build_with_removed_ids():
    # a None row is a removed id: not a vertex, and no row may list it
    g = emb.build(4, [None, [2, 3], [3, 1], [1, 2]])
    assert g.vertices == (1, 2, 3) and g.n == 3 and g.m == 3
    assert 0 not in g and 1 in g and 4 not in g and -1 not in g
    assert g.faces == ((1, 2, 3), (1, 3, 2)) and g.face_at[0] is None
    assert emb.to_pg(g) == "n 3\n0: 1 2\n1: 2 0\n2: 0 1\n"
    with pytest.raises(err.UnknownVertex, match="not a vertex"):
        g.neighbors(0)
    with pytest.raises(err.UnknownVertex):
        emb.build(4, [None, [2, 3, 0], [3, 1], [1, 2]])
    with pytest.raises(err.UnknownVertex):
        emb.build(2, [None, None])


def test_build_rejects_asymmetry():
    with pytest.raises(err.AsymmetricAdjacency):
        emb.build(3, [[1], [0, 2], [0]])


def test_build_rejects_duplicates():
    with pytest.raises(err.DuplicateNeighbor):
        emb.build(2, [[1, 1], [0, 0]])


def test_build_rejects_self_loop():
    with pytest.raises(err.PscError):
        emb.build(2, [[0, 1], [0]])


def test_build_rejects_unknown_vertex():
    with pytest.raises(err.UnknownVertex):
        emb.build(2, [[1, 5], [0]])


def test_build_rejects_disconnected():
    with pytest.raises(err.Disconnected):
        emb.build(4, [[1], [0], [3], [2]])


def test_build_rejects_nonplanar_rotation():
    # K4 with one rotation reversed fails the Euler count
    with pytest.raises(err.NonPlanarEmbedding):
        emb.build(4, [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 1, 2]])


@pytest.mark.parametrize("rot, error, message", [
    (((1,), (0, 2), (0,)), err.AsymmetricAdjacency,
     "1 lists 2 but 2 does not list 1"),
    (((1, 5), (0,)), err.UnknownVertex, "vertex 0 lists unknown ids [5]"),
    (((1,), None), err.UnknownVertex, "vertex 0 lists unknown ids [1]"),
    (((1, 1), (0, 0)), err.DuplicateNeighbor,
     "vertex 0 lists a neighbor twice"),
    (((0, 1), (0,)), err.DuplicateNeighbor, "vertex 0 lists itself"),
], ids=["asymmetric", "unknown", "removed", "duplicate", "self-loop"])
def test_trace_faces_rejects_what_build_rejects(rot, error, message):
    # the public trace_faces raises build's error and message, not a
    # KeyError, IndexError or TypeError, and returns no faces
    for call in (psc.trace_faces, lambda rot: emb.build(len(rot), rot)):
        with pytest.raises(error) as info:
            call(rot)
        assert str(info.value) == message


def corrupt(rot, kind, v, at, pick):
    """One fault put into rot (lists, None for a removed id) in place, at
    the live id v: drop, repeat or self-list an entry of its row, list an
    id that is not live (negative, out of range or removed), remove v and
    every entry naming it, reverse its row, or add a second component.
    at and pick choose a position and an entry, modulo what there is."""
    r = rot[v]
    at %= len(r) + 1
    if kind == "drop" and r:
        del r[at % len(r)]
    elif kind == "repeat" and r:
        r.insert(at, r[pick % len(r)])
    elif kind == "self":
        r.insert(at, v)
    elif kind == "unknown":
        ids = [-1, len(rot), *(x for x, row in enumerate(rot) if row is None)]
        r.insert(at, ids[pick % len(ids)])
    elif kind == "remove":
        for row in rot:
            if row:
                row[:] = [y for y in row if y != v]
        rot[v] = None
    elif kind == "reverse":
        r.reverse()
    elif kind == "split":
        k = len(rot)
        rot += [[k + 1, k + 2], [k + 2, k], [k, k + 1]]


FAULTS = ("drop", "repeat", "self", "unknown", "remove", "reverse", "split")


def assert_build_matches_oracle(rot):
    """build and build_oracle on rot raise the same class with the same
    message, or return graphs equal field by field, adj included once it
    is read; returns the oracle's class or error class."""
    def outcome(make):
        try:
            return make(len(rot), rot)
        except err.PscError as e:
            return type(e), str(e)

    want, got = outcome(build_oracle), outcome(emb.build)
    if isinstance(want, tuple):
        assert got == want
        return want[0]
    assert_same_graph(got, want)
    return type(want)


@functools.cache
def _small():
    return small_graphs()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_matches_oracle(corpus_large, corpus_small, data):
    g = data.draw(st.sampled_from(corpus_large + corpus_small + _small()))
    rot = [None if r is None else list(r) for r in g.rotation]
    for _ in range(data.draw(st.integers(1, 2))):
        live = [v for v, r in enumerate(rot) if r is not None]
        kind = data.draw(st.sampled_from(FAULTS))
        v, at, pick = data.draw(st.tuples(st.sampled_from(live),
                                          st.integers(0, 20),
                                          st.integers(0, 20)))
        corrupt(rot, kind, v, at, pick)
    assert_build_matches_oracle(rot)


@pytest.mark.parametrize("faults, error", [
    ([("drop", 0, 1, 0)], err.AsymmetricAdjacency),
    ([("repeat", 3, 0, 2)], err.DuplicateNeighbor),
    ([("self", 5, 2, 0)], err.DuplicateNeighbor),
    ([("unknown", 2, 0, 0)], err.UnknownVertex),
    ([("unknown", 2, 4, 1)], err.UnknownVertex),
    ([("remove", 0, 0, 0)], emb.EmbeddedGraph),
    ([("remove", 0, 0, 0), ("unknown", 7, 1, 2)], err.UnknownVertex),
    ([("reverse", 4, 0, 0)], err.NonPlanarEmbedding),
    ([("split", 0, 0, 0)], err.Disconnected),
    ([("reverse", 4, 0, 0), ("drop", 9, 3, 0)], err.AsymmetricAdjacency),
], ids=["drop", "repeat", "self", "negative", "out-of-range", "remove",
        "removed", "reverse", "split", "reverse+drop"])
def test_build_matches_oracle_on_each_fault(faults, error):
    rot = [list(r) for r in gen.named_graph("icosahedron").rotation]
    for fault in faults:
        corrupt(rot, *fault)
    assert assert_build_matches_oracle(rot) is error


def test_adj_is_made_on_first_read():
    # adj and face_at are each made on first read, in either order, and
    # the graph becomes a plain EmbeddedGraph once both are made
    for first, second in (("adj", "face_at"), ("face_at", "adj")):
        for g in (gen.gen_stacked_triangulation(30, 7),
                  emb.build(4, [None, [2, 3], [3, 1], [1, 2]])):
            want = build_oracle(len(g.rotation), g.rotation)
            assert type(g) is not emb.EmbeddedGraph
            assert getattr(g, first) == getattr(want, first)
            assert type(g) is not emb.EmbeddedGraph
            assert getattr(g, second) == getattr(want, second)
            assert type(g) is emb.EmbeddedGraph and g._fa is None
            assert g.adj is g.adj and g.face_at is g.face_at
            assert_same_graph(g, want)
            with pytest.raises(AttributeError):
                g.not_a_field  # noqa: B018


@pytest.mark.parametrize("copier", [lambda g: pickle.loads(pickle.dumps(g)),
                                    copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_graph_whose_adj_was_never_read_copies(copier):
    # a copy makes both fields first, whichever of them was read
    for read in ((), ("adj",), ("face_at",)):
        g = gen.gen_stacked_triangulation(30, 7)
        for name in read:
            getattr(g, name)
        h = copier(g)
        assert type(g) is type(h) is emb.EmbeddedGraph
        assert_same_graph(h, g)
        assert_same_graph(h, build_oracle(len(g.rotation), g.rotation))


def test_mutations_before_adj_is_read():
    # a deletion and a chord on a built graph whose adj, face_at or both
    # were never read equal build's graph
    rot = gen.gen_stacked_triangulation(30, 7).rotation
    for read in ((), ("adj",), ("face_at",)):
        g = emb.build(len(rot), rot)
        for name in read:
            getattr(g, name)
        v = max(g.vertices, key=g.degree)
        h = emb.mutate_delete_vertex(g, v)
        assert_same_graph(h, delete_by_build(g, v))
        face = max(h.faces, key=len)
        u, w = next((a, b) for a in face for b in face
                    if a != b and not h.adjacent(a, b))
        fresh = emb.build(len(h.rotation), h.rotation)
        for name in read:
            getattr(fresh, name)
        assert type(fresh) is not emb.EmbeddedGraph
        k = emb.mutate_add_edge(fresh, u, w, emb.face_dart(face))
        assert_same_graph(k, emb.build(len(k.rotation), k.rotation))
        assert_same_graph(k, add_chord_first_visit(h, u, w,
                                                   emb.face_dart(face)))
        assert_same_graph(k, build_oracle(len(k.rotation), k.rotation))
    b = bridge()
    assert_same_graph(emb.add_bypass_chord(b, 0),
                      emb.add_bypass_chord(build_oracle(7, b.rotation), 0))


def _kept(make):
    """(make(), the bytes it keeps allocated, by tracemalloc)."""
    gc.collect()
    tracemalloc.start()
    try:
        out = make()
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current


def test_gen_corpus_holds_no_neighbour_sets():
    # eight 400-vertex graphs hold their rotations and faces; with a
    # frozenset per vertex as well they held 2.3 MB
    graphs, current = _kept(lambda: gen.gen_corpus(8, (400, 400), 9, 1))
    assert len(graphs) == 8 and current <= 1.6e6, current


def test_built_graph_holds_one_flat_face_index():
    # with a face_at list per vertex these held 2.00 and 2.50 MiB
    g, current = _kept(lambda: gen.gen_stacked_triangulation(5000, 7))
    assert current <= 1.6 * 2**20, current
    text = emb.to_pg(g)
    _, current = _kept(lambda: emb.from_pg(text))
    assert current <= 2.1 * 2**20, current


def test_faces_k4():
    g = gen.named_graph("k4")
    assert len(g.faces) == 4
    assert all(len(f) == 3 for f in g.faces)


def test_faces_octahedron():
    g = gen.named_graph("octahedron")
    assert len(g.faces) == 8
    assert all(len(f) == 3 for f in g.faces)


def test_faces_icosahedron():
    g = gen.named_graph("icosahedron")
    assert len(g.faces) == 20
    assert all(len(f) == 3 for f in g.faces)


def test_faces_cycle():
    g = gen.gen_cycle(5)
    assert sorted(len(f) for f in g.faces) == [5, 5]


def test_euler_formula_corpus(corpus_large, corpus_small):
    for g in corpus_large + corpus_small:
        f = len(g.faces)
        assert g.n - g.m + f == 2


def test_face_incidence_sum(corpus_small):
    for g in corpus_small:
        assert sum(len(f) for f in g.faces) == 2 * g.m


def _graphs_with_cut_vertices():
    small = small_graphs()[::4]  # both regimes
    return small + single_deletions(small)


def _walk_corners(face):
    """The corners (f[i] -> f[i+1]) of a face walk, read cyclically."""
    return list(zip(face, face[1:] + face[:1]))


def test_face_index_covers_every_corner_once():
    for g in _graphs_with_cut_vertices():
        faces = g.faces
        # build stores what the pure face walk returns for the rotation
        assert emb.trace_faces(g.rotation) == (faces, g.face_at)
        assert [_walk_corners(f) for f in faces] == face_corners_scan(g)
        walked = sorted(c for f in faces for c in _walk_corners(f))
        assert walked == sorted((u, v) for u in g.vertices
                                for v in g.rotation[u])
        for f in faces:
            assert all(g.face_at[u][g.rotation[u].index(v)] is f
                       for u, v in _walk_corners(f))


def test_add_edge_takes_first_visit_corner():
    """On a face that visits some vertex twice, the chord between any two
    non-adjacent vertices of the face goes in at each end's first corner in
    walk order."""
    checked = 0
    for g in _graphs_with_cut_vertices() + [bowtie(), bridge()]:
        for corners in face_corners_scan(g):
            walk = [a for a, _ in corners]
            if len(set(walk)) == len(walk):
                continue
            dart = list(corners[0])
            on_face = sorted(set(walk))
            for i, u in enumerate(on_face):
                for v in on_face[i + 1:]:
                    if not g.adjacent(u, v):
                        assert_same_graph(emb.mutate_add_edge(g, u, v, dart),
                                          add_chord_first_visit(g, u, v, dart))
                        checked += 1
    assert checked >= 2000


def test_add_edge_any_face_matches_scan():
    shared = 0
    for g in _graphs_with_cut_vertices():
        for u in g.vertices:
            for v in g.vertices:
                if v <= u or g.adjacent(u, v):
                    continue
                try:
                    want = add_edge_first_face_scan(g, u, v)
                except err.NotOnSameFace:
                    with pytest.raises(err.NotOnSameFace):
                        emb.add_edge_any_face(g, u, v)
                    continue
                assert_same_graph(emb.add_edge_any_face(g, u, v), want)
                shared += 1
    assert shared >= 1000


def test_square_c5_is_k5():
    g = gen.gen_cycle(5)
    sq = emb.square(g)
    assert all(len(sq.adj[v]) == 4 for v in range(5))


def test_dist2_neighborhood_path():
    g = emb.from_pg("n 4\n0: 1\n1: 0 2\n2: 1 3\n3: 2\n")
    assert emb.dist2_neighborhood(g, 0) == {1, 2}
    assert emb.dist2_neighborhood(g, 1) == {0, 2, 3}


def test_add_edge_in_face():
    g = gen.gen_cycle(4)
    faces = g.faces
    g2 = emb.mutate_add_edge(g, 0, 2, emb.face_dart(faces[0]))
    assert g2.adjacent(0, 2)
    assert g2.m == g.m + 1
    assert len(g2.faces) == len(faces) + 1
    assert_same_graph(emb.add_edge_any_face(g, 0, 2), g2)
    assert_same_graph(g2, emb.build(g.n, g2.rotation))


def test_add_edge_already_adjacent():
    g = gen.gen_cycle(4)
    with pytest.raises(err.AlreadyAdjacent):
        emb.add_edge_any_face(g, 0, 1)


def test_add_edge_not_on_same_face():
    g = gen.named_graph("octahedron")
    # every face is a triangle, so 0 and its antipode share no face
    v = next(x for x in range(1, 6) if not g.adjacent(0, x))
    with pytest.raises(err.NotOnSameFace):
        emb.add_edge_any_face(g, 0, v)


# the mutations take their faces from recipes, so a dart that names no
# face holding both ends is an error, never a lookup of another face or a
# bare IndexError.  On the cube, 0 and 2 share only the face (0, 3, 2, 1),
# named [0, 3]; the darts below are its other corners, a face without 2,
# two non-edges and unknown ids.
@pytest.mark.parametrize("dart", [
    pytest.param([3, 2], id="corner-3-2"), pytest.param([2, 1], id="corner-2-1"),
    pytest.param([1, 0], id="corner-1-0"), pytest.param([0, 1], id="without-2"),
    pytest.param([0, 2], id="non-edge-0-2"),
    pytest.param([0, 6], id="non-edge-0-6"),
    pytest.param([-1, 0], id="unknown-minus1"),
    pytest.param([0, 8], id="unknown-8"), pytest.param([99, 0], id="unknown-99")])
def test_add_edge_face_not_named(dart):
    g = cube()
    assert (emb.dart_face(g, dart) is None) == (dart != [0, 1])
    with pytest.raises(err.NotOnSameFace):
        emb.mutate_add_edge(g, 0, 2, dart)
    assert_same_graph(emb.mutate_add_edge(g, 0, 2, [0, 3]),
                      emb.add_edge_any_face(g, 0, 2))


@pytest.mark.parametrize("vertices", [[0, 1, 2, 3, 8], [-1, 0, 1, 2, 3]])
def test_induced_subgraph_unknown_vertex(vertices):
    with pytest.raises(err.UnknownVertex):
        emb.induced_subgraph(cube(), vertices)


def test_delete_vertex():
    g = gen.named_graph("k4")
    g2 = emb.mutate_delete_vertex(g, 0)
    assert g2.n == 3 and g2.m == 3
    # the survivors keep their ids; 0 is no longer a vertex
    assert g2.vertices == (1, 2, 3) and 0 not in g2 and 3 in g2
    assert g2.rotation[0] is None and g2.adj[0] is None
    assert g2.rotation[1:] == tuple(tuple(u for u in r if u != 0)
                                    for r in g.rotation[1:])
    assert_same_graph(g2, delete_by_build(g, 0))
    with pytest.raises(err.UnknownVertex):
        g2.degree(0)
    with pytest.raises(err.UnknownVertex):
        emb.mutate_delete_vertex(g2, 0)


def test_delete_would_disconnect():
    g = emb.from_pg("n 3\n0: 1\n1: 0 2\n2: 1\n")
    with pytest.raises(err.WouldDisconnect):
        emb.mutate_delete_vertex(g, 1)


def test_contract_edge_on_bridge():
    # two triangles joined through the cut vertex 0 (neighbors 1 and 2):
    # bypassing 0 and deleting it contracts the edge 0-1
    g = bridge()
    h = emb.add_bypass_chord(g, 0)
    assert_same_graph(h, emb.build(len(h.rotation), h.rotation))
    g2 = emb.mutate_delete_vertex(h, 0)
    assert g2.vertices == (1, 2, 3, 4, 5, 6)
    assert g2.rotation == (None, (3, 4, 2), (1, 5, 6), (4, 1), (1, 3), (6, 2),
                           (2, 5))


def bypass_by_build(g, v):
    """Oracle for add_bypass_chord then mutate_delete_vertex: the rotation
    of g without v's row, each neighbor of v taking the other in v's place,
    built from scratch."""
    u, w = g.rotation[v]
    other = {u: w, w: u}
    rot = [None if x == v or r is None
           else [other[x] if y == v else y for y in r]
           for x, r in enumerate(g.rotation)]
    return emb.build(len(rot), rot)


def test_bypass_matches_build():
    """At every degree-2 cut vertex of the bridge and of the block chains,
    the bypass chord equals its own rebuild and reaches only the rows it
    walks, and deleting v after it equals the build oracle."""
    checked = 0
    for g in [bridge()] + block_chains():
        for v in degree2_cut_vertices(g):
            h = emb.add_bypass_chord(g, v)
            assert_same_graph(h, emb.build(len(h.rotation), h.rotation))
            assert_rows_shared(g, h)
            g2 = emb.mutate_delete_vertex(h, v)
            assert_same_graph(g2, bypass_by_build(g, v))
            assert_rows_shared(h, g2)
            checked += 1
    assert checked >= 50


def test_bypass_rejects():
    g = bridge()
    for v in (-1, 7):
        with pytest.raises(err.UnknownVertex):
            emb.add_bypass_chord(g, v)
    # 3 has degree 2 but is no cut vertex; 1 is a cut vertex of degree 3
    for h, v in ((g, 3), (g, 1), (bowtie(), 0), (cube(), 0)):
        with pytest.raises(err.NotOnSameFace):
            emb.add_bypass_chord(h, v)


def test_induced_subgraph():
    g = gen.named_graph("octahedron")
    tri = sorted(g.faces[0])
    sub = emb.induced_subgraph(g, tri)
    assert sub.n == 3 and sub.m == 3
    assert sub.vertices == tuple(tri)
    assert all(sub.neighbors(v) == set(tri) - {v} for v in tri)


def test_pg_roundtrip_bit_exact(corpus_large, corpus_small):
    for g in corpus_large[:10] + corpus_small[:10]:
        text = emb.to_pg(g)
        assert emb.to_pg(emb.from_pg(text)) == text


def test_pg_comments_and_whitespace():
    g = emb.from_pg("# comment\nn 3\n\n0: 1 2\n1: 2 0\n2: 0 1\n")
    assert g.n == 3 and g.m == 3


K3 = "n 3\n0: 1 2\n1: 2 0\n2: 0 1\n"


@pytest.mark.parametrize("text, error", [
    (K3 + "9:\n", err.UnknownVertex),
    (K3 + "-1:\n", err.UnknownVertex),
    (K3 + "1: 2 0\n", err.DuplicateRow),
    (K3.replace("n 3", "n 3 9"), err.UnknownVertex),
    (K3 + "n 3\n", err.DuplicateRow),
    (K3.replace("n 3", "n 5"), err.UnknownVertex),
    (K3.replace("n 3", "n 1000000000000"), err.UnknownVertex),
    ("n 1\n", err.UnknownVertex),
    (K3.replace("n 3", "n +3"), err.UnknownVertex),
    (K3.replace("1: 2 0", "1: 2 0_0"), err.UnknownVertex),
    (K3.replace("2: 0 1", "\u0662: 0 1"), err.UnknownVertex),
    (K3 + "-0:\n", err.UnknownVertex),
])
def test_from_pg_rejects_bad_rows(text, error):
    with pytest.raises(error):
        emb.from_pg(text)


def test_digest_stable():
    g = gen.named_graph("k4")
    assert emb.graph_digest(g) == emb.graph_digest(gen.named_graph("k4"))
    assert emb.graph_digest(g) != emb.graph_digest(gen.gen_cycle(4))


def row_hash_spec(v, row):
    """The README's row hash: the 8-byte BLAKE2b digest of the ids v, r1,
    ..., rk, each packed as a little-endian signed 64-bit int, read as a
    little-endian unsigned integer."""
    data = b"".join(struct.pack("<q", x) for x in (v, *row))
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


def test_digest_matches_spec(corpus_large, corpus_small):
    removed = single_deletions(small_graphs()[:6])
    graphs = [*corpus_large, *corpus_small, *block_chains(), *removed]
    assert any(len(g.rotation) > g.n for g in graphs)
    for g in graphs:
        hashes = [row_hash_spec(v, g.rotation[v]) for v in g.vertices]
        assert [emb.row_hash(g, v) for v in g.vertices] == hashes
        assert emb.graph_digest(g) == sum(hashes) % 2**64


@pytest.mark.parametrize("g, digest", [
    (emb.from_pg("n 1\n0:\n"), "18cc49ca5bea08ca"),
    (gen.named_graph("k4"), "5752b530ce4ee378"),
    (gen.named_graph("icosahedron"), "1c84a692f2c919ac"),
], ids=["K1", "K4", "icosahedron"])
def test_digest_pinned(g, digest):
    # a slip in byte order or row layout changes these
    assert f"{emb.graph_digest(g):016x}" == digest


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_mutations_preserve_planarity(seed):
    g = gen.gen_stacked_triangulation(12, seed)
    g2 = emb.mutate_delete_vertex(g, g.n - 1)
    assert g2.n - g2.m + len(g2.faces) == 2
    assert_same_graph(g2, delete_by_build(g, g.n - 1))
    # a vertex of degree d >= 4 leaves a d-face with a non-adjacent pair
    # (else its link and it would form K5); add a chord there
    v = max(range(g.n), key=g.degree)
    g2 = emb.mutate_delete_vertex(g, v)
    face = max(g2.faces, key=len)
    u, v = next((a, b) for a in face for b in face
                if a != b and not g2.adjacent(a, b))
    g3 = emb.mutate_add_edge(g2, u, v, emb.face_dart(face))
    assert g3.n - g3.m + len(g3.faces) == 2
    assert_same_graph(g3, emb.build(len(g3.rotation), g3.rotation))


def test_mutations_match_build():
    count = 0
    for g in (small_graphs() + _graphs_with_cut_vertices()
              + [bowtie(), bridge(), double_pocket(),
                 emb.build(2, [[1], [0]])]):
        count += assert_mutations_match_build(g)
    assert count >= 10_000


def helper_mutations(graphs):
    """(kind, the graph mutated, the ids touched, the helper's (graph,
    made, destroyed)) for every connected deletion of the graphs, every
    bypass chord of a degree-2 cut vertex, and on each face the chord of
    its first non-adjacent pair by _add_edge and of its last by
    _add_edge_any_face."""
    for g in graphs:
        for v in g.vertices:
            try:
                yield "delete", g, (v, *g.adj[v]), emb._delete_vertex(g, v)
            except err.WouldDisconnect:
                if len(g.rotation[v]) == 2:
                    yield "bypass", g, g.rotation[v], emb._bypass_chord(g, v)
        for f in g.faces:
            pairs = [(u, v) for i, u in enumerate(f) for v in f[i + 1:]
                     if u != v and v not in g.adj[u]]
            if pairs:
                u, v = pairs[0]
                yield "chord", g, (u, v), emb._add_edge(g, u, v,
                                                        emb.face_dart(f))
                u, v = pairs[-1]
                yield "any face", g, (u, v), emb._add_edge_any_face(g, u, v)


def delta_graphs(corpus_large, corpus_small):
    k2 = emb.build(2, [[1], [0]])
    return (corpus_large + corpus_small + block_chains()
            + single_deletions(small_graphs()) + [k2, bowtie(), bridge()])


def test_mutation_helpers_return_their_face_delta(corpus_large,
                                                  corpus_small):
    """Each mutation helper's made and destroyed faces are those of the
    scan through the touched ids, each once, on the corpora, the block
    chains, the small graphs less a vertex and K2 - v."""
    kinds = Counter()
    for kind, g, touched, (h, made, destroyed) in helper_mutations(
            delta_graphs(corpus_large, corpus_small)):
        want_made, want_destroyed = face_delta_scan(g, h, touched)
        assert sorted(made) == sorted(want_made), (kind, touched)
        assert sorted(destroyed) == sorted(want_destroyed), (kind, touched)
        kinds[kind] += 1
        kinds["K2 - v"] += g.n == 2
    assert min(kinds.values()) >= 2 and kinds["bypass"] >= 50, kinds
    assert kinds["delete"] > 10_000 and kinds["any face"] > 5000, kinds


def test_every_corner_of_a_face_holds_one_tuple(corpus_large, corpus_small):
    # built graphs, and the graphs each mutation derives from them
    graphs = delta_graphs(corpus_large, corpus_small)
    for g in graphs:
        assert_one_tuple_per_face(g)
    for _, _, _, (h, _, _) in helper_mutations(graphs):
        assert_one_tuple_per_face(h)


def test_forced_intermediates_match_build(forced_intermediates):
    # the reducer's graphs are all derived by mutations; each equals its
    # rebuild and derives its own mutations correctly
    for g, _ in forced_intermediates:
        assert_same_graph(g, emb.build(len(g.rotation), g.rotation))
        assert_mutations_match_build(g)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([3, 9]))
def test_mutations_match_build_sampled(seed, delta_min):
    delta_max = 6 if delta_min == 3 else None
    g = gen.gen_corpus(1, (8, 40), delta_min, seed, delta_max=delta_max)[0]
    assert assert_mutations_match_build(g)


def test_would_disconnect_iff_build_disconnected(corpus_large, corpus_small):
    cut = 0
    for g in corpus_large + corpus_small + _graphs_with_cut_vertices():
        for v in g.vertices:
            try:
                delete_by_build(g, v)
            except err.Disconnected:
                with pytest.raises(err.WouldDisconnect):
                    emb.mutate_delete_vertex(g, v)
                cut += 1
            else:
                emb.mutate_delete_vertex(g, v)
    assert cut >= 50


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 40))
def test_cycle_faces(n):
    g = gen.gen_cycle(n)
    assert [len(f) for f in g.faces] == [n, n]
