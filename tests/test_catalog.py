from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cube, glue_pocket, stingy_dsatur
from psc import catalog as cat
from psc import coloring as col
from psc import embedding as emb
from psc import generators as gen
from psc import reducer as red
from psc.budgets import Budget
from psc.errors import DeltaTooLarge


def bowtie():
    # two triangles sharing vertex 0
    return emb.build(5, [[1, 2, 3, 4], [2, 0], [0, 1], [4, 0], [0, 3]])


def test_c4_deg2_witnesses():
    ws = cat.detect_all(gen.gen_cycle(4))
    deg2 = [w for w in ws if w.kind == "Deg2"]
    assert len(deg2) == 4


def test_c5_deg2_only():
    ws = cat.detect_all(gen.gen_cycle(5))
    assert ws and {w.kind for w in ws} == {"Deg2"}


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


def test_glued_pocket_edge_separator(corpus_large):
    g = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    w = cat.find_edge_separator(g)
    assert w is not None
    comp = set(w.recipe["component"])
    assert comp and w.recipe["u"] not in comp and w.recipe["v"] not in comp


def test_c6_no_face_two_small():
    assert cat.find_face_two_small(gen.gen_cycle(6)) is None


def test_face_two_small_square_face():
    # 4-face with two opposite low-degree corners inside a Delta>=9 graph
    g = gen.gen_stacked_triangulation(30, 2)
    # stacked triangulations have no 4+ faces at all
    assert cat.find_face_two_small(g) is None


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
    lowest = [min(kinds.values()) for _, kinds, _ in cat.CATALOG]
    assert lowest == sorted(lowest)


def test_detect_all_sorted(corpus_large):
    for g in corpus_large[:10]:
        ws = cat.detect_all(g)
        keys = [cat._sort_key(w) for w in ws]
        assert keys == sorted(keys)


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


def test_first_witness_matches_detect_all(corpus_large, corpus_small):
    """The first-witness search returns the head of the full sorted scan,
    also on every intermediate graph of a forced reduction."""
    seen = []
    real = cat.find_first_witness

    def recording(g, budget):
        seen.append((g, budget))
        return real(g, budget)

    for g in (gen.gen_stacked_triangulation(40, 5), corpus_small[0]):
        with mock.patch.object(col, "dsatur_color", stingy_dsatur(6)), \
                mock.patch.object(cat, "find_first_witness", recording):
            red.color_within_budget(g)
    assert len(seen) > 40
    pocket = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    graphs = corpus_large + corpus_small + [cube(), pocket]
    seen += [(g, Budget.for_graph(g)) for g in graphs]
    for g, b in seen:
        assert cat.find_first_witness(g, b) == (cat.detect_all(g, b)
                                                or [None])[0], emb.to_pg(g)


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
