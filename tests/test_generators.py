import pytest
from hypothesis import given, settings, strategies as st

from psc import embedding as emb
from psc import generators as gen
from psc.errors import BadDelta


def test_wegner_shape():
    for delta in (5, 7, 9, 11):
        g = gen.gen_wegner(delta)
        k = (delta - 1) // 2
        assert g.n == 3 * k + 3
        assert g.max_degree() == delta


def test_wegner_rejects_even_or_small():
    for delta in (2, 4, 8):
        with pytest.raises(BadDelta):
            gen.gen_wegner(delta)


def test_wegner_square_clique():
    # everything except one hub is pairwise within distance 2
    g = gen.gen_wegner(9)
    sq = emb.square(g)
    k = (9 - 1) // 2
    rest = [v for v in range(g.n) if v != 0]
    missing = [(a, b) for i, a in enumerate(rest) for b in rest[i + 1:]
               if b not in sq.adj[a]]
    assert not missing
    assert len(rest) == 3 * k + 2


def test_stacked_triangulation():
    g = gen.gen_stacked_triangulation(50, 7)
    assert g.n == 50 and g.m == 3 * 50 - 6
    assert all(len(f) == 3 for f in g.faces)


def test_stacked_deterministic():
    a = gen.gen_stacked_triangulation(30, 5)
    b = gen.gen_stacked_triangulation(30, 5)
    assert emb.to_pg(a) == emb.to_pg(b)
    c = gen.gen_stacked_triangulation(30, 6)
    assert emb.to_pg(a) != emb.to_pg(c)


def test_grid():
    g = gen.gen_grid(3, 4)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4  # rows*(cols-1) + (rows-1)*cols
    assert g.max_degree() == 4


def test_cycle():
    g = gen.gen_cycle(6)
    assert g.n == 6 and g.m == 6 and g.max_degree() == 2


def test_corpus_large_delta(corpus_large):
    assert len(corpus_large) == 60
    for g in corpus_large:
        assert g.max_degree() >= 9


def test_corpus_small_delta(corpus_small):
    assert len(corpus_small) == 40
    for g in corpus_small:
        assert g.max_degree() <= 6


def test_corpus_deterministic():
    a = gen.gen_corpus(5, (15, 40), 9, 11)
    b = gen.gen_corpus(5, (15, 40), 9, 11)
    assert [emb.to_pg(g) for g in a] == [emb.to_pg(g) for g in b]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_corpus_members_valid(seed):
    for g in gen.gen_corpus(2, (10, 40), 9, seed):
        # build() already validated; re-check Euler via faces
        assert g.n - g.m + len(g.faces) == 2
