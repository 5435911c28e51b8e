import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bowtie, bridge, cube, detect_scan, double_pocket,
                      find_edge_separator_scan, glue_pocket, single_deletions,
                      small_graphs)
from psc import catalog as cat
from psc import embedding as emb
from psc import generators as gen
from psc.budgets import LARGE, Budget
from psc.errors import DeltaTooLarge, NotOnSameFace


def test_c4_deg2_witnesses():
    ws = cat.detect_all(gen.gen_cycle(4))
    deg2 = [w for w in ws if w.kind == "Deg2"]
    assert len(deg2) == 4


def test_c5_deg2_and_chord():
    # every vertex has degree 2, below the small regime's cap 6, so each
    # face also offers a chord between two non-adjacent corners
    g = gen.gen_cycle(5)
    ws = cat.detect_all(g)
    assert {w.kind for w in ws} == {"Deg2", "FaceTwoSmall"}
    assert all(cat.check_witness(g, w) for w in ws)


def test_k4_small_catalog():
    ws = cat.detect_all(gen.named_graph("k4"))
    assert "W_Deg3Triangle" in {w.kind for w in ws}


def test_k4_audit_catalog_has_deg3smallnbr():
    kinds = {w.kind for w in cat.detect_for_audit(gen.named_graph("k4"))}
    assert "Deg3SmallNbr" in kinds


def test_k4_no_edge_separator():
    assert cat.find_edge_separator(gen.named_graph("k4")) is None


def test_bowtie_edge_separator():
    w = cat.find_edge_separator(bowtie())
    assert w is not None and w.kind == "EdgeSeparator"
    assert 0 in (w.recipe["u"], w.recipe["v"])


def test_glued_pocket_edge_separator():
    g = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    w = cat.find_edge_separator(g)
    assert w is not None
    comp = set(w.recipe["component"])
    assert comp and w.recipe["u"] not in comp and w.recipe["v"] not in comp


def test_edge_separator_witness_check():
    g = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    w = cat.find_edge_separator(g)
    assert cat.check_witness(g, w)
    u, v = w.actors
    comp = w.recipe["component"]
    for change in ({"component": [2, 3]},          # not closed in G - {u, v}
                   {"u": v, "v": u},               # ends differ from actors
                   {"component": []},
                   {"component": comp + [u]},
                   {"component": sorted(set(range(g.n)) - {u, v})},
                   {"op": "delete"}):
        bad = dataclasses.replace(w, recipe={**w.recipe, **change})
        assert not cat.check_witness(g, bad), change
    # two pockets on one edge: the component is a union of two components
    h = double_pocket()
    w = cat.find_edge_separator(h)
    assert w.recipe["component"] == [20, 21, 22, 23]
    assert cat.check_witness(h, w)


def test_edge_separator_matches_scan(corpus_large, corpus_small,
                                     forced_intermediates):
    pockets = [glue_pocket(gen.gen_stacked_triangulation(20, s), 0, 1)
               for s in range(3)]
    pockets += [double_pocket(), glue_pocket(gen.named_graph("k4"), 0, 1),
                glue_pocket(corpus_small[0], 0, corpus_small[0].rotation[0][0])]
    graphs = (corpus_large + corpus_small + pockets + [bowtie(), cube()]
              + [g for g, _ in forced_intermediates]
              + single_deletions(small_graphs()))
    hits = 0
    for g in graphs:
        w = cat.find_edge_separator(g)
        assert w == find_edge_separator_scan(g), emb.to_pg(g)
        hits += w is not None
    assert hits >= 50 and len(graphs) - hits >= 50


@st.composite
def pocketed_triangulations(draw):
    """A stacked triangulation with 1-3 K4 pockets glued on random edges."""
    g = gen.gen_stacked_triangulation(draw(st.integers(4, 30)),
                                      draw(st.integers(0, 10_000)))
    for _ in range(draw(st.integers(1, 3))):
        edges = sorted((u, v) for u in range(g.n) for v in g.neighbors(u)
                       if u < v)
        g = glue_pocket(g, *draw(st.sampled_from(edges)))
    return g


@settings(max_examples=40, deadline=None)
@given(pocketed_triangulations())
def test_edge_separator_matches_scan_pocketed(g):
    w = cat.find_edge_separator(g)
    assert w is not None and w == find_edge_separator_scan(g), emb.to_pg(g)


def _brute_cut_vertices(g):
    cut = {}
    for v in g.vertices:
        rest = [x for x in g.vertices if x != v]
        seen = {v, rest[0]}
        stack = rest[:1]
        while stack:
            for y in g.neighbors(stack.pop()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        cut[v] = len(seen) < g.n
    return cut


def test_face_walk_cut_vertices():
    """A vertex is visited twice by one face's corner walk exactly when it
    is a cut vertex."""
    graphs = [bowtie(), cube(), gen.gen_cycle(5), gen.named_graph("k4"),
              emb.build(2, [[1], [0]]), bridge()]
    small = small_graphs()
    graphs += small + single_deletions(small + graphs[:4])
    cuts = 0
    for g in graphs:
        at = cat._FaceSets(g)
        cut = {v: at.is_cut(v) for v in g.vertices}
        assert cut == _brute_cut_vertices(g), emb.to_pg(g)
        cuts += sum(cut.values())
    assert cuts >= 50


def test_c6_no_face_two_small():
    g = gen.gen_cycle(6)
    assert cat.find_face_two_small(g, g.max_degree()) is None


def test_face_two_small_square_face():
    # stacked triangulations have no 4+ faces at all
    g = gen.gen_stacked_triangulation(30, 2)
    assert cat.find_face_two_small(g, g.max_degree()) is None
    # a 4+ face with two non-adjacent degree-2 corners inside a Delta>=9 graph
    g = gen.gen_wegner(9)
    assert g.max_degree() >= 9
    w = cat.find_face_two_small(g, g.max_degree())
    assert w is not None and [g.degree(a) for a in w.actors] == [2, 2]
    assert len(emb.dart_face(g, w.faces[0])) >= 4
    assert cat.check_witness(g, w)


def test_face_two_small_reports_first_face():
    # the row reports the witness of the first face by least corner, not
    # the least witness: the other face's (0, 2) sorts lower
    g = gen.gen_cycle(6)
    w = cat.find_face_two_small(g, 6)
    assert (w.actors, w.faces) == ((0, 4), ([0, 5],))
    other = cat._two_small_at(g, 6)(emb.dart_face(g, [0, 1]))
    assert [x.actors for x in other] == [(0, 2)]
    assert cat._sort_key(other[0]) < cat._sort_key(w)


def test_first_match_detectors_find_none():
    g = gen.named_graph("k4")
    assert cat.find_edge_separator(g) is None
    assert cat.find_face_two_small(g, 9) is None
    assert cat.find_generic_deletable(g, 1) is None


def test_wegner_deg2_witnesses():
    g = gen.gen_wegner(11)
    ws = [w for w in cat.detect_all(g) if w.kind == "Deg2"]
    deg2_vertices = {v for v in range(g.n) if g.degree(v) == 2}
    assert {w.actors[0] for w in ws} == deg2_vertices


def test_icosahedron_all_tri5():
    g = gen.named_graph("icosahedron")
    ws = [w for w in cat.find_weak_configs_delta6(g) if w.kind == "W_Tri5"]
    assert {w.actors[0] for w in ws} == set(range(12))


def test_octahedron_deg4_three_triangles():
    g = gen.named_graph("octahedron")
    ws = cat.find_weak_configs_delta6(g)
    assert {w.kind for w in ws} == {"W_Deg4ThreeTriangles"}
    assert len(ws) == 6


def test_weak_configs_reject_large_delta():
    with pytest.raises(DeltaTooLarge):
        cat.find_weak_configs_delta6(gen.gen_stacked_triangulation(30, 0))


def test_stacked_nonempty():
    assert cat.detect_all(gen.gen_stacked_triangulation(50, 3))


def test_priority_order():
    ranks = [cat.KIND_RANK[k] for k in
             ("Deg1", "Deg2", "EdgeSeparator", "FaceTwoSmall", "Deg3SmallNbr",
              "Deg3TwoTriangles", "Deg3TriTwoSquares", "Deg4Tri5Tri",
              "GenericDeletable")]
    assert ranks == sorted(ranks)
    # find_first_witness relies on rows ordered by their lowest rank
    lowest = [min(kinds.values()) for _, kinds, *_ in cat.CATALOG]
    assert lowest == sorted(lowest)


def test_audit_lists_every_detect_witness(corpus_large, corpus_small):
    """The audit runs the rows of both regimes at the graph's own budget, so
    it lists every witness detect_all does, and each passes check_witness."""
    graphs = (corpus_large + corpus_small
              + gen.gen_corpus(40, (12, 80), 7, 47)
              + [cube(), bridge(), double_pocket()])
    for g in graphs:
        audit = cat.detect_for_audit(g)
        assert all(w in audit for w in cat.detect_all(g)), emb.to_pg(g)
        assert all(cat.check_witness(g, w) for w in audit), emb.to_pg(g)


def test_detect_all_sorted(corpus_large):
    for g in corpus_large[:10]:
        ws = cat.detect_all(g)
        keys = [cat._sort_key(w) for w in ws]
        assert keys == sorted(keys)


def test_detect_merges_rows_as_sorted(corpus_large, corpus_small):
    # detect_all and detect_for_audit merge the rows' sorted lists; in the
    # small regime the audit also runs the large regime's small-vertex row,
    # whose ranks 4-7 overlap the weak row's 4-6, so equal keys of two rows
    # meet, and the earlier row's witness must come first
    hubs = [gen.gen_hub_triple(*parts) for parts in
            ((1, 40, 300, False), (2, 7, 30, True), (25, 3, 1, True),
             (266, 266, 266, True))]
    ties = 0
    for g in corpus_large + corpus_small + hubs:
        b = Budget.for_graph(g)
        assert cat.detect_all(g, b) == detect_scan(g, b, {b.regime})
        ws = cat.detect_for_audit(g)
        assert ws == detect_scan(g, b, {LARGE, b.regime})
        ties += sum(cat._sort_key(v) == cat._sort_key(w) and v.kind != w.kind
                    for v, w in zip(ws, ws[1:]))
    assert ties


def test_first_witness_prefers_deg1():
    # a pendant vertex on a cycle
    g = emb.build(5, [[1, 3, 4], [2, 0], [3, 1], [0, 2], [0]])
    w = cat.find_first_witness(g, Budget.for_graph(g))
    assert w.kind == "Deg1"


def test_witness_soundness(corpus_large, corpus_small):
    for g in corpus_large[:12] + corpus_small[:12] + [cube()]:
        b = Budget.for_graph(g)
        for w in cat.detect_all(g, b):
            assert cat.check_witness(g, w, b), (w.kind, w.actors)


def test_first_witness_matches_detect_all(corpus_large, corpus_small,
                                          forced_intermediates):
    """The first-witness search returns the head of the full sorted scan,
    also on every intermediate graph of a forced reduction."""
    assert len(forced_intermediates) > 40
    pocket = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    graphs = corpus_large + corpus_small + [cube(), pocket]
    seen = forced_intermediates + [(g, Budget.for_graph(g)) for g in graphs]
    for g, b in seen:
        assert cat.find_first_witness(g, b) == (cat.detect_all(g, b)
                                                or [None])[0], emb.to_pg(g)


def _relabel_witness(w, ids):
    """w with every vertex i it names, face darts included, replaced by
    ids[i]."""
    r = dict(w.recipe)
    for key in ("v", "u", "anchor"):
        if key in r:
            r[key] = ids[r[key]]
    for key in ("edges", "component", "face"):
        if key in r:
            r[key] = _relabel_ids(r[key], ids)
    return dataclasses.replace(w, actors=tuple(ids[x] for x in w.actors),
                               faces=tuple(_relabel_ids(w.faces, ids)),
                               recipe=r)


def _relabel_ids(names, ids):
    """A list of ids, or of lists of ids, with each id i replaced by ids[i]."""
    return [_relabel_ids(x, ids) if isinstance(x, list) else ids[x]
            for x in names]


def test_first_witness_relabel_invariant(forced_intermediates):
    """On a graph with removed ids the catalog picks the witness it picks
    on the dense renumbering that to_pg writes, with the labels mapped
    back.  It scans vertices in increasing order, compares actor tuples and
    orders faces by least corner, and a monotone relabel keeps all three,
    so even the face darts agree once mapped."""
    gaps = 0
    for h, b in forced_intermediates:
        dense = emb.from_pg(emb.to_pg(h))
        w = cat.find_first_witness(dense, b)
        assert _relabel_witness(w, h.vertices) == cat.find_first_witness(h, b)
        gaps += h.n < len(h.rotation)
    assert gaps > 40


def test_deletable_vertex_check():
    g = gen.named_graph("k4")
    assert cat.deletable_vertex_check(g, 0, 21)
    assert not cat.deletable_vertex_check(g, 0, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_completeness_sampled(seed):
    g = gen.gen_corpus(1, (10, 60), 9, seed)[0]
    assert cat.detect_all(g), emb.to_pg(g)
    h = gen.gen_corpus(1, (10, 60), 3, seed, delta_max=6)[0]
    assert cat.detect_all(h), emb.to_pg(h)


def _unnamed_darts(g, dart):
    """Darts near `dart` that name no face: the second corner of its face,
    a non-edge at its tail (if there is one) and an unknown id."""
    f = emb.dart_face(g, dart)
    x = dart[0]
    out = [[f[1], f[2]], [len(g.rotation), dart[1]]]
    out += [[x, z] for z in g.vertices if z != x and z not in g.adj[x]][:1]
    return out


def _bad_darts(g, dart):
    """The unnamed darts near `dart` and the dart of another face."""
    f = emb.dart_face(g, dart)
    return _unnamed_darts(g, dart) + [
        next(emb.face_dart(h) for h in g.faces if h != f)]


def _forgeries(g, w):
    """Altered copies of w that no detector emits: each recipe field, the
    faces and the actors in turn."""
    r, a = w.recipe, w.actors
    vs = list(g.vertices)
    changes = [{"op": "delete_and_add" if r["op"] == "delete" else "delete"}]
    changes += [{key: vs[(vs.index(r[key]) + 1) % g.n]}
                for key in ("v", "anchor", "u") if key in r]
    if "face" in r:
        changes += [{"face": d} for d in _bad_darts(g, r["face"])]
    if "edges" in r:
        changes.append({"edges": [] if r["edges"] else [list(a[:2])]})
    out = [dataclasses.replace(w, recipe={**r, **c}) for c in changes]
    out.append(dataclasses.replace(
        w, faces=() if w.faces else (emb.face_dart(g.faces[0]),)))
    if w.faces:
        out += [dataclasses.replace(w, faces=(d,) + w.faces[1:])
                for d in _bad_darts(g, w.faces[0])]
    fill = [a[0]]
    if w.kind != "Deg4Tri5Tri":
        # any neighbour of degree 5 or below 12 may fill Deg4Tri5Tri's
        # places; every other kind fixes who stands where
        fill += [x for x in g.vertices if x not in a][:1]
        if len(a) >= 3 and a[1] != a[-1]:
            out.append(dataclasses.replace(
                w, actors=(a[0], a[-1]) + a[2:-1] + (a[1],)))
    out += [dataclasses.replace(w, actors=(a[0],) + (x,) * max(1, len(a) - 1))
            for x in fill]
    return out


def test_check_witness_rejects_forgeries(corpus_large, corpus_small,
                                         forced_intermediates):
    # gen_corpus(30, ..., seed 5) holds W_Deg3Triangle (11, 0, 9, 23), whose
    # forgeries include actors (11, 1, 1, 1) and recipe v = 12
    pendant = emb.build(5, [[1, 3, 4], [2, 0], [3, 1], [0, 2], [0]])
    seen = [(g, Budget.for_graph(g)) for g in corpus_large + corpus_small
            + gen.gen_corpus(30, (20, 40), 3, 5, delta_max=6) + [pendant]]
    seen += forced_intermediates
    kinds = set()
    for g, b in seen:
        found = [(w, b) for w in cat.detect_all(g, b)]
        found += [(w, Budget.for_graph(g)) for w in cat.detect_for_audit(g)]
        for w, wb in found:
            assert cat.check_witness(g, w, wb), (w.kind, w.actors)
            kinds.add(w.kind)
            for bad in _forgeries(g, w):
                assert not cat.check_witness(g, bad, wb), (w, bad)
            if w.kind == "FaceTwoSmall":
                for dart in _unnamed_darts(g, w.recipe["face"]):
                    with pytest.raises(NotOnSameFace):
                        emb.mutate_add_edge(g, *w.actors, dart)
    assert kinds == set(cat.KIND_RANK)


def test_check_witness_reads_json_witnesses(corpus_large, corpus_small):
    """Every detect --all witness passes check_witness when rebuilt from
    its JSON form, where a face is the list [x, y] of its least dart."""
    kinds = set()
    for g in corpus_large + corpus_small:
        for obj in json.loads(cat.report_json(cat.detect_all(g))):
            w = cat.ConfigWitness(kind=obj["kind"],
                                  actors=tuple(obj["actors"]),
                                  recipe=obj["recipe"],
                                  faces=tuple(obj["faces"]))
            assert cat.check_witness(g, w), obj
            if w.faces:
                kinds.add(w.kind)
    assert kinds == {"FaceTwoSmall", "Deg3TwoTriangles", "Deg3TriTwoSquares",
                     "W_Deg3Triangle"}
