import pytest
from hypothesis import given, settings, strategies as st

from psc import coloring as col
from psc import embedding as emb
from psc import generators as gen


def test_verify_c5_distinct():
    g = gen.gen_cycle(5)
    c = col.SquareColoring(5, {v: v + 1 for v in range(5)})
    assert col.verify(g, c) == (True, None)


def test_verify_p3_violation():
    g = emb.from_pg("n 3\n0: 1\n1: 0 2\n2: 1\n")
    c = col.SquareColoring(2, {0: 1, 1: 2, 2: 1})
    ok, pair = col.verify(g, c)
    assert not ok and set(pair) == {0, 2}


@pytest.mark.parametrize("colors, bad", [
    ({0: 0, 1: 2, 2: 3}, 0),             # color 0
    ({0: 1, 1: 2, 2: 4}, 2),             # color above the palette
    ({0: 1, 1: 2, 2: 3, 7: 1}, 7),       # key that is not a vertex
])
def test_verify_rejects_bad_colors(colors, bad):
    g = emb.from_pg("n 3\n0: 1\n1: 0 2\n2: 1\n")
    assert col.verify(g, col.SquareColoring(3, colors)) == (False, (bad, bad))


def test_verify_partial_fails_at_missing_vertex():
    g = gen.gen_cycle(4)
    c = col.SquareColoring(4, {0: 1, 1: 2, 2: 3})
    assert col.verify(g, c) == (False, (3, 3))


def test_greedy_k4():
    c = col.greedy_color(gen.named_graph("k4"))
    assert c.palette_size == 4


def test_greedy_bound(corpus_large, corpus_small):
    for g in corpus_large[:15] + corpus_small[:15]:
        c = col.greedy_color(g)
        assert col.verify(g, c)[0]
        assert c.palette_size <= 5 * g.max_degree() + 1


def test_dsatur_valid(corpus_small):
    for g in corpus_small[:15]:
        c = col.dsatur_color(emb.square(g))
        assert col.verify(g, c)[0]


def test_dsatur_budget_overflow():
    g = gen.gen_cycle(5)  # square is K5
    assert col.dsatur_color(emb.square(g), budget=4) is None
    assert col.dsatur_color(emb.square(g), budget=5) is not None


def test_exact_known_values():
    assert col.exact_chi2(gen.gen_cycle(5)).chi2 == 5  # square is K5
    assert col.exact_chi2(gen.named_graph("k4")).chi2 == 4
    assert col.exact_chi2(gen.named_graph("octahedron")).chi2 == 6


def test_exact_witness_valid():
    res = col.exact_chi2(gen.gen_wegner(5))
    assert res.exact
    assert res.witness.palette_size == res.chi2
    assert col.verify(gen.gen_wegner(5), res.witness)[0]


def test_exact_clique_lower_bound():
    g = gen.gen_wegner(7)
    res = col.exact_chi2(g)
    assert len(res.lower_bound_clique) <= res.chi2
    sq = emb.square(g)
    cl = res.lower_bound_clique
    assert all(b in sq.adj[a] for i, a in enumerate(cl) for b in cl[i + 1:])


def test_json_roundtrip():
    c = col.SquareColoring(3, {0: 1, 1: 2, 2: 3})
    assert col.SquareColoring.from_json(c.to_json()) == c


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 5000))
def test_exact_matches_naive_small(seed):
    g = gen.gen_corpus(1, (5, 8), 3, seed, delta_max=6)[0]
    assert col.exact_chi2(g).chi2 == col.naive_chi2(g)


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 8))
def test_exact_matches_naive_cycles(n):
    g = gen.gen_cycle(n)
    assert col.exact_chi2(g).chi2 == col.naive_chi2(g)
