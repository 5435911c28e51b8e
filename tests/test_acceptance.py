"""Acceptance suite: the eight contract-level checks, at their stated
scales and tolerances."""

import time

import pytest

from conftest import naive_chi2
from psc import catalog as cat
from psc import coloring as col
from psc import discharge as dis
from psc import embedding as emb
from psc import generators as gen
from psc import reducer as red
from psc.budgets import Budget
from psc import cli


@pytest.fixture(scope="module")
def corpus_1000():
    graphs = []
    graphs += gen.gen_corpus(400, (8, 30), 3, 101, delta_max=6)
    graphs += gen.gen_corpus(300, (12, 35), 7, 102)
    graphs += gen.gen_corpus(300, (14, 40), 9, 103)
    return graphs


@pytest.fixture(scope="module")
def corpus_delta9():
    graphs = []
    graphs += gen.gen_corpus(470, (20, 150), 9, 201)
    graphs += gen.gen_corpus(25, (200, 600), 9, 202)
    graphs += gen.gen_corpus(5, (1200, 2000), 9, 203)
    return graphs


@pytest.fixture(scope="module")
def corpus_delta6():
    return gen.gen_corpus(200, (10, 80), 3, 301, delta_max=6)


def test_1_euler_charge_identity(corpus_1000):
    assert len(corpus_1000) >= 1000
    start = time.monotonic()
    for g in corpus_1000:
        ledger, _ = dis.charges(g)
        assert ledger.total_initial() == -12
        assert ledger.total_final() == -12
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("delta,expected", [(5, 8), (7, 11), (9, 14), (11, 17)])
def test_2_wegner_lower_bound(delta, expected):
    g = gen.gen_wegner(delta)
    assert g.n <= 18
    start = time.monotonic()
    res = col.exact_chi2(g, time_limit=60.0)
    assert time.monotonic() - start < 60.0
    assert res.exact
    assert res.chi2 == expected == 3 * delta // 2 + 1
    assert col.verify(g, res.witness)[0]


def test_3_main_theorem_desk_scale(corpus_delta9):
    assert len(corpus_delta9) >= 500
    assert max(g.n for g in corpus_delta9) >= 1200
    start = time.monotonic()
    for g in corpus_delta9:
        delta = g.max_degree()
        assert delta >= 9
        coloring, _ = red.color_within_budget(g)
        ok, pair = col.verify(g, coloring)
        assert ok, (g.n, pair)
        assert coloring.palette_size <= 2 * delta + 7
    assert time.monotonic() - start < 300.0


def test_4_delta6_theorem(corpus_delta6):
    assert len(corpus_delta6) >= 200
    for g in corpus_delta6:
        assert g.max_degree() <= 6
        coloring, _ = red.color_within_budget(g)
        ok, pair = col.verify(g, coloring)
        assert ok, (g.n, pair)
        assert coloring.palette_size <= 21


def test_5_configuration_completeness(corpus_delta9, corpus_delta6):
    for g in corpus_delta9:
        assert cat.detect_all(g), "empty report:\n" + emb.to_pg(g)
    for g in corpus_delta6:
        assert cat.detect_all(g), "empty report:\n" + emb.to_pg(g)


def test_6_universal_charge_lemmas(corpus_1000, corpus_large, corpus_small):
    # cross-checks the lemmas vertex_rule's docstring proves
    for g in corpus_1000 + corpus_large + corpus_small:
        ledger, _ = dis.charges(g)
        assert dis.lemma_violations(ledger, g) == [], emb.to_pg(g)


def test_7_oracle_sanity(corpus_1000):
    small = [g for g in corpus_1000 if g.n <= 25][:40]
    small += [gen.gen_cycle(n) for n in range(3, 11)]
    small += [gen.named_graph(n) for n in ("k4", "octahedron", "icosahedron")]
    small += [gen.gen_wegner(5), gen.gen_wegner(7)]
    assert len(small) >= 40
    for g in small:
        delta = g.max_degree()
        greedy = col.greedy_color(g)
        assert col.verify(g, greedy)[0]
        res = col.exact_chi2(g, time_limit=60.0)
        assert res.exact
        assert delta + 1 <= res.chi2 <= greedy.palette_size <= 5 * delta + 1
        if g.n <= 8:
            assert res.chi2 == naive_chi2(g)
    tiny = [g for g in corpus_1000 if g.n <= 8]
    tiny += gen.gen_corpus(15, (5, 8), 3, 401, delta_max=6)
    assert len(tiny) >= 10
    for g in tiny:
        assert col.exact_chi2(g, time_limit=60.0).chi2 == naive_chi2(g)


def test_8_determinism(tmp_path):
    graph = tmp_path / "g.pg"
    assert cli.main(["gen", "--family", "stacked", "--n", "80", "--seed",
                     "17", "-o", str(graph)]) == 0
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        assert cli.main(["color", "--mode", "constructive", "--json",
                         str(graph), "-o", str(out)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
