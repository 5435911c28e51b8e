import json
import random
import sys
import tracemalloc
from unittest import mock

import pytest
from conftest import (dsatur_color_scan, exact_chi2_recursive, exact_gap_graph,
                      greedy_color_scan, naive_chi2, small_graphs,
                      smallest_last_order_scan, verify_scan)
from hypothesis import given, settings, strategies as st

from psc import cli
from psc import coloring as col
from psc import embedding as emb
from psc import generators as gen
from psc import reducer as red
from psc.errors import WouldDisconnect


def test_verify_c5_distinct():
    g = gen.gen_cycle(5)
    c = col.SquareColoring(5, {v: v + 1 for v in range(5)})
    assert col.verify(g, c) == (True, None)


def test_verify_p3_violation():
    g = emb.from_pg("n 3\n0: 1\n1: 0 2\n2: 1\n")
    c = col.SquareColoring(2, {0: 1, 1: 2, 2: 1})
    ok, pair = col.verify(g, c)
    assert not ok and set(pair) == {0, 2}


def test_verify_names_the_least_clashing_vertex():
    """On the path 0-4-1-2-3, 1 and 3 clash in N[2], and 0 and 1 in N[4].
    The scan in id order meets 0 first, though N[2] is the first closed
    neighbourhood that is not rainbow."""
    g = emb.from_pg("n 5\n0: 4\n1: 4 2\n2: 1 3\n3: 2\n4: 0 1\n")
    valid = {0: 1, 1: 3, 2: 1, 3: 2, 4: 2}
    assert col.verify(g, col.SquareColoring(3, valid)) == (True, None)
    one = col.SquareColoring(3, {**valid, 3: 3})
    two = col.SquareColoring(3, {**valid, 3: 3, 0: 3})
    assert col.verify(g, one) == verify_scan(g, one) == (False, (1, 3))
    assert col.verify(g, two) == verify_scan(g, two) == (False, (0, 1))


def test_verify_scans_one_ball_to_name_a_clash():
    """On the n = 3000 hub triple, whose square is nearly complete, verify
    names a clash after reading the distance-2 ball of one vertex only."""
    g = gen.gen_hub_triple(999, 999, 999, True)
    c = col.dsatur_color(emb.square(g))
    colors = dict(c.color_of)
    colors[2999] = colors[2998]
    bad = col.SquareColoring(c.palette_size, colors)
    with mock.patch.object(emb, "dist2_neighborhood",
                           wraps=emb.dist2_neighborhood) as ball:
        assert col.verify(g, bad) == (False, (2998, 2999))
    assert ball.call_count == 1


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


def test_verify_reads_adj_unchecked(corpus_large):
    """A valid coloring is verified without validating each vertex
    access: the ids come from g.vertices."""
    for g in corpus_large[:5]:
        c = col.greedy_color(g)
        with mock.patch.object(emb.EmbeddedGraph, "_check_vertex",
                               side_effect=AssertionError):
            assert col.verify(g, c) == (True, None)


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


def test_dsatur_tie_break_pinned():
    # the path 0-1-2-3-4: square degrees 2, 3, 4, 3, 2.  At equal saturation
    # 2 goes first on degree, 1 before 3 on id, then 3 (degree 3) before 0
    # (degree 2, lower id), then 0 before 4 on id
    g = emb.from_pg("n 5\n0: 1\n1: 0 2\n2: 1 3\n3: 2 4\n4: 3\n")
    c = col.dsatur_color(emb.square(g))
    assert list(c.color_of.items()) == [(2, 1), (1, 2), (3, 3), (0, 3), (4, 2)]


def _color_large_families(n=600, seed=7):
    """One graph per Delta >= 9 family of the color-large benchmark."""
    p = n // 3 - 1
    return [gen.gen_hub_triple(p, p, p, True),
            gen.gen_stacked_triangulation(n, seed),
            gen._gen_dense_mixed(n, seed).build(),
            gen._gen_grown_sparse(n, seed).build()]


def _planted_clashes(g, coloring):
    """Copies of the coloring in which a vertex v passes its color to one
    neighbour and to one vertex at distance exactly 2, for a spread of v,
    and one copy with all of these clashes at once."""
    out = []
    every = dict(coloring.color_of)
    for v in list(g.vertices)[::max(1, g.n // 6)]:
        near = g.neighbors(v)
        far = emb.dist2_neighborhood(g, v) - near
        for u in (min(near, default=None), min(far, default=None)):
            if u is not None:
                colors = dict(coloring.color_of)
                colors[u] = colors[v]
                out.append(col.SquareColoring(coloring.palette_size, colors))
                every[u] = every[v]
    if out:
        out.append(col.SquareColoring(coloring.palette_size, every))
    return out


def _in_order(c):
    """The palette and the (vertex, color) pairs in the order the coloring
    chose them, or None for a refused budget."""
    return c and (c.palette_size, list(c.color_of.items()))


def _assert_matches_scans(g):
    """The near-linear coloring functions give exactly the scan oracles'
    results: the same order, the same colors chosen in the same sequence
    by greedy and under every budget by DSATUR, and the same (ok, pair)
    from verify."""
    assert col.smallest_last_order(g) == smallest_last_order_scan(g)
    assert _in_order(col.greedy_color(g)) == _in_order(greedy_color_scan(g))
    sq = emb.square(g)
    for budget in (None, 2 * g.max_degree() + 7, 12, 5, 1):
        assert (_in_order(col.dsatur_color(sq, budget))
                == _in_order(dsatur_color_scan(sq, budget)))
    valid = [col.dsatur_color(sq), col.greedy_color(g)]
    for c in valid:
        assert col.verify(g, c) == verify_scan(g, c) == (True, None)
    for c in _planted_clashes(g, valid[0]):
        got = col.verify(g, c)
        assert not got[0] and got == verify_scan(g, c)


def test_coloring_matches_scans_corpora(corpus_large, corpus_small):
    for g in corpus_large + corpus_small:
        _assert_matches_scans(g)


def test_coloring_matches_scans_families():
    graphs = (_color_large_families()
              + [emb.from_pg("n 1\n0:\n"), emb.from_pg("n 2\n0: 1\n1: 0\n")]
              + [gen.gen_wegner(d) for d in range(3, 16, 2)]
              + [gen.gen_grid(r, c) for r, c in ((2, 2), (3, 5), (7, 7))]
              + [gen.gen_cycle(n) for n in (3, 4, 5, 9)])
    for g in graphs:
        _assert_matches_scans(g)


def _with_removed_ids(g):
    """g less the vertices among 0, n/3 and 2n/3 whose deletion keeps it
    connected: a graph whose ids are not 0..n-1, as the reducer makes."""
    for v in list(g.vertices)[::max(1, g.n // 3)]:
        try:
            g = emb.mutate_delete_vertex(g, v)
        except WouldDisconnect:
            pass
    return g


def test_coloring_matches_scans_removed_ids(corpus_large, corpus_small):
    triangle = emb.from_pg("n 3\n0: 1 2\n1: 2 0\n2: 0 1\n")
    k2 = emb.mutate_delete_vertex(triangle, 0)
    k1 = emb.mutate_delete_vertex(k2, 1)
    assert tuple(k2.vertices) == (1, 2) and tuple(k1.vertices) == (2,)
    graphs = [_with_removed_ids(g) for g in corpus_large + corpus_small]
    assert all(g.n < len(g.rotation) for g in graphs)
    for g in graphs + [k2, k1]:
        _assert_matches_scans(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_coloring_matches_scans_hypothesis(seed, large):
    g = gen.gen_corpus(1, (5, 150), 9 if large else 3, seed,
                       delta_max=None if large else 6)[0]
    _assert_matches_scans(g)


def _with_leaves(g, rng, count):
    """g with `count` pendant leaves hung on random vertices, each at a
    random place in its host's rotation, and every id then relabelled at
    random: leaves on one host are twins, and the ids, and so the ranks,
    of a twin class interleave with those of other vertices."""
    rot = [list(r) for r in g.rotation]
    for _ in range(count):
        host = rng.choice(g.vertices)
        rot[host].insert(rng.randrange(len(rot[host]) + 1), len(rot))
        rot.append([host])
    perm = list(range(len(rot)))
    rng.shuffle(perm)
    out = [None] * len(rot)
    for v, row in enumerate(rot):
        out[perm[v]] = [perm[u] for u in row]
    return emb.build(len(out), out)


def _star(k):
    return emb.build(k + 1, [list(range(1, k + 1))] + [[0]] * k)


def _assert_dsatur_matches_scan(g):
    """dsatur_color gives the scan oracle's colors in the oracle's order
    under no budget and under budgets spread up to the palette, each of
    which refuses partway through the coloring, inside a twin class or
    not."""
    sq = emb.square(g)
    p = dsatur_color_scan(sq).palette_size
    for budget in (None, *range(1, p, max(1, p // 12)), p - 1, p):
        assert (_in_order(col.dsatur_color(sq, budget))
                == _in_order(dsatur_color_scan(sq, budget))), budget


def _twin_class_graphs():
    """Graphs with twin classes: stars, unequal hub triples, C4 and the
    octahedron."""
    return ([_star(k) for k in (1, 2, 3, 7)]
            + [gen.gen_hub_triple(*p) for p in (
                (1, 40, 300, False), (2, 1, 7, True), (5, 5, 1, True),
                (3, 9, 4, False))]
            + [gen.gen_cycle(4), gen.named_graph("octahedron")])


def test_dsatur_matches_scan_on_twin_classes():
    for g in _twin_class_graphs():
        _assert_dsatur_matches_scan(g)


def test_coloring_matches_scans_on_twin_classes():
    for g in _twin_class_graphs():
        _assert_matches_scans(g)


def test_dsatur_refuses_inside_a_twin_class():
    """The leaves of K_{1,6} are one twin class.  DSATUR colors the
    center, then the leaves in id order, so budget 4 runs out at the
    fourth leaf, with three leaves colored."""
    sq = emb.square(_star(6))
    assert list(col.dsatur_color(sq).color_of.items()) == [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    assert col.dsatur_color(sq, 4) is None is dsatur_color_scan(sq, 4)
    assert col.dsatur_color(sq, 7) is not None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.integers(1, 40))
def test_dsatur_matches_scan_with_pendant_leaves(seed, large, leaves):
    g = gen.gen_corpus(1, (5, 60), 9 if large else 3, seed,
                       delta_max=None if large else 6)[0]
    _assert_dsatur_matches_scan(_with_leaves(g, random.Random(seed), leaves))


def test_dsatur_work_is_linear_in_twin_classes():
    """On the n = 3000 hub triple, whose square lacks only the pairs of
    the first hub and the third set, and whose 6 twin classes are the
    hubs and the three sets between them, DSATUR never reads a vertex's
    square row, and the class rows it reads hold at most as many entries
    as 2 square rows per twin class.  A DSATUR that reads each vertex's
    square row reads about 2 n^2 entries."""
    g = gen.gen_hub_triple(999, 999, 999, True)
    sizes = []
    class_row = col._class_row

    def counted(near, adj, v):
        row = class_row(near, adj, v)
        sizes.append(len(row))
        return row

    with mock.patch.object(emb, "dist2_neighborhood",
                           side_effect=AssertionError), \
            mock.patch.object(col, "_class_row", side_effect=counted):
        c = col.dsatur_color(emb.square(g))
    assert c.palette_size == g.n - 1 == 2999
    assert sum(sizes) <= 2 * 6 * g.n, sum(sizes)
    assert col.verify(g, c) == (True, None)


def test_exact_known_values():
    assert col.exact_chi2(gen.gen_cycle(5)).chi2 == 5  # square is K5
    assert col.exact_chi2(gen.named_graph("k4")).chi2 == 4
    assert col.exact_chi2(gen.named_graph("octahedron")).chi2 == 6


def test_exact_witness_valid():
    res = col.exact_chi2(gen.gen_wegner(5))
    assert res.exact
    assert res.witness.palette_size == res.chi2
    assert col.verify(gen.gen_wegner(5), res.witness)[0]


def test_exact_timeout_keeps_dsatur_bound():
    g = exact_gap_graph()
    assert g.n == 9
    res = col.exact_chi2(g, time_limit=1e-9)
    assert not res.exact and res.chi2 == 5
    assert res.witness.palette_size == 5 and col.verify(g, res.witness)[0]
    assert col.exact_chi2(g).exact


def test_exact_clique_lower_bound():
    g = gen.gen_wegner(7)
    res = col.exact_chi2(g)
    assert len(res.lower_bound_clique) <= res.chi2
    sq = emb.square(g)
    cl = res.lower_bound_clique
    assert all(b in sq.adj[a] for i, a in enumerate(cl) for b in cl[i + 1:])


def test_exact_matches_recursive_search():
    # the search's stack tries each position's colors in the order of the
    # recursive search, so bounds, verdict and witness are the same
    graphs = (small_graphs() + [gen.gen_cycle(n) for n in range(4, 30)]
              + [gen.gen_grid(4, 5)])
    for g in graphs:
        a, b = col.exact_chi2(g), exact_chi2_recursive(g)
        assert (a.chi2, a.exact, a.witness) == (b.chi2, b.exact, b.witness)


def test_exact_long_cycle_at_default_recursion_limit():
    # the recursive search needed a frame per vertex
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = col.exact_chi2(gen.gen_cycle(1501))
    finally:
        sys.setrecursionlimit(limit)
    assert (res.chi2, res.exact) == (4, True)
    assert col.verify(gen.gen_cycle(1501), res.witness)[0]


def test_json_roundtrip():
    c = col.SquareColoring(3, {0: 1, 1: 2, 2: 3})
    assert col.SquareColoring.from_json(c.to_json()) == c


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 5000))
def test_exact_matches_naive_small(seed):
    g = gen.gen_corpus(1, (5, 8), 3, seed, delta_max=6)[0]
    assert col.exact_chi2(g).chi2 == naive_chi2(g)


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 8))
def test_exact_matches_naive_cycles(n):
    g = gen.gen_cycle(n)
    assert col.exact_chi2(g).chi2 == naive_chi2(g)


def _traced_peak(run):
    """run()'s result and the tracemalloc peak while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def hub_801(tmp_path_factory):
    """A hub triple of 801 vertices and its .pg file.  Its square has
    about 320 000 edges, some 26 MB when stored."""
    g = gen.gen_hub_triple(266, 266, 266, True)
    path = tmp_path_factory.mktemp("hub") / "h.pg"
    path.write_text(emb.to_pg(g))
    return g, str(path)


def test_greedy_never_builds_square(hub_801, capsys):
    """Greedy keeps one color set per neighbourhood and never builds the
    square, in the library or through `psc color --mode greedy`.  On the
    hub triple its tracemalloc peak stays under 4 MB."""
    g, path = hub_801
    with mock.patch.object(emb, "square", side_effect=AssertionError):
        c, peak = _traced_peak(lambda: col.greedy_color(g))
        assert cli.main(["color", "--mode", "greedy", "--json", path]) == 0
    assert peak < 4e6, peak
    out = json.loads(capsys.readouterr().out)
    assert out["verified"] and out["palette"] == c.palette_size
    assert col.verify(g, c) == (True, None)


def test_square_colorings_never_store_the_square(hub_801, capsys):
    """DSATUR reads square rows on demand and stores none, in the library,
    in the reducer's base case and through `psc color` in the constructive
    and dsatur modes.  On the hub triple each tracemalloc peak stays under
    4 MB, and the palettes are those of the stored square, 800 colors."""
    g, path = hub_801
    ds, peak = _traced_peak(lambda: col.dsatur_color(emb.square(g)))
    assert peak < 4e6, peak
    (cw, _), peak = _traced_peak(lambda: red.color_within_budget(g))
    assert peak < 4e6, peak
    for c in (ds, cw):
        assert c.palette_size == 800 and col.verify(g, c) == (True, None)
    for mode in ("constructive", "dsatur"):
        code, peak = _traced_peak(lambda: cli.main(
            ["color", "--mode", mode, "--json", path]))
        assert code == 0 and peak < 4e6, (mode, peak)
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] and out["palette"] == 800, mode
