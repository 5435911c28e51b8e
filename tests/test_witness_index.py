"""The state the reducer carries across reduction steps, against the
whole-graph oracles: WitnessIndex against find_first_witness_scan and each
catalog row's detector."""

import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (block_chains, bowtie, bridge, cube, double_pocket,
                      find_first_witness_scan, glue_pocket, k4_chain,
                      small_graphs)
from psc import catalog as cat
from psc import embedding as emb
from psc import generators as gen
from psc import reducer as red
from psc.budgets import Budget
from psc.errors import DeltaTooLarge, WouldDisconnect

BASE_LIMITS = (1, 6, 12, None)


def assert_cut_flags(index):
    """The index's carried cut-vertex counts are nonzero exactly at the
    cut vertices of its graph, as _FaceSets finds them."""
    g = index.g
    at = cat._FaceSets(g)
    assert ([v for v in g.vertices if index.cut[v]]
            == [v for v in g.vertices if at.is_cut(v)]), emb.to_pg(g)


def checked_run(g, base_limit):
    """Color g with the reducer, checking at every witness search that the
    index returns what find_first_witness_scan returns on the same graph and
    carries the cut vertices of that graph, and that no connected part
    builds its index twice.  Returns (witness searches, bypass chords)."""
    counts = {"first": 0, "bypass": 0, "index": 0, "parts": 0}
    real_first = cat.WitnessIndex.first
    real_index = cat.WitnessIndex.__init__
    real_part = red._Reduction.__init__
    real_bypass = emb._bypass_chord

    def first(index):
        w = real_first(index)
        assert w == find_first_witness_scan(index.g, index.budget), (
            emb.to_pg(index.g))
        assert_cut_flags(index)
        counts["first"] += 1
        return w

    def counted(key, real):
        def call(*args):
            counts[key] += 1
            return real(*args)
        return call

    with mock.patch.object(cat.WitnessIndex, "first", first), \
            mock.patch.object(cat.WitnessIndex, "__init__",
                              counted("index", real_index)), \
            mock.patch.object(red._Reduction, "__init__",
                              counted("parts", real_part)), \
            mock.patch.object(emb, "_bypass_chord",
                              counted("bypass", real_bypass)):
        red.color_within_budget(g, base_limit=base_limit)
    assert counts["index"] <= counts["parts"]
    return counts["first"], counts["bypass"]


def test_carried_state_matches_oracles_on_corpora(corpus_large, corpus_small):
    # each graph with one of the base limits in turn
    searches = 0
    for i, g in enumerate(corpus_large + corpus_small):
        searches += checked_run(g, BASE_LIMITS[i % 4])[0]
    assert searches > 3000


@pytest.mark.parametrize("side, base_limit", [(12, 1), (12, 6), (20, 12)])
def test_carried_state_matches_oracles_on_grids(side, base_limit):
    searches, _ = checked_run(gen.gen_grid(side, side), base_limit)
    assert searches >= side * side - base_limit


@pytest.mark.parametrize("base_limit", BASE_LIMITS)
def test_carried_state_matches_oracles_on_split_and_contraction(base_limit):
    pocket = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    for g in (pocket, double_pocket(), cube()):
        checked_run(g, base_limit)
    # the bridge's cut vertex is bypassed by a chord before its deletion,
    # unless DSATUR colors its 7 vertices at once
    bypasses = checked_run(bridge(), base_limit)[1]
    assert (bypasses > 0) == (base_limit in (1, 6))


@pytest.mark.parametrize("base_limit", [1, 6])
def test_carried_state_matches_oracles_on_block_chains(base_limit):
    # the chains' degree-2 cut vertices are bypassed and deleted, each
    # mutation passed to the index
    bypasses = sum(checked_run(g, base_limit)[1] for g in block_chains())
    assert bypasses >= 50


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from(BASE_LIMITS))
def test_carried_state_matches_oracles_sampled(seed, large, base_limit):
    if large:
        g = gen.gen_corpus(1, (15, 60), 9, seed)[0]
    else:
        g = gen.gen_corpus(1, (15, 50), 3, seed, delta_max=6)[0]
    checked_run(g, base_limit)


def k4_with_pendant():
    """K4 on 0..3 with the pendant vertex 4 at 0 inside the face 0-2-3:
    the edge 0-1 separates 4 from the rest, and only 0 of its ends lies on
    the face that deleting 4 leaves."""
    return emb.build(5, [[1, 2, 4, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1], [0]])


def row_outcome(first):
    try:
        return first()
    except DeltaTooLarge as e:
        return ("DeltaTooLarge", str(e))


def random_mutation(g, rng):
    """A random chord of a face, or a random deletion that keeps the graph
    connected: (the new graph, the touched ids, the faces made, the faces
    destroyed), or None."""
    faces = [(emb.face_dart(f), sorted(set(f))) for f in g.faces]
    chords = [(dart, u, v) for dart, on in faces for u in on for v in on
              if u < v and v not in g.adj[u]]
    if chords and rng.random() < 0.5:
        dart, u, v = rng.choice(chords)
        h, made, destroyed = emb._add_edge(g, u, v, dart)
        return h, (u, v), made, destroyed
    for v in rng.sample(list(g.vertices), g.n):
        try:
            h, made, destroyed = emb._delete_vertex(g, v)
        except WouldDisconnect:
            continue
        return h, (v, *g.adj[v]), made, destroyed
    return None


@pytest.mark.parametrize("seed", range(4))
def test_rows_match_detectors_under_random_mutations(seed):
    """Every row of the index against its detector, after random deletions
    and chords that no reducer would choose (chords beside separating
    edges, deletions next to cut vertices), each row re-evaluated only at
    random times, so updates pile up between its flushes."""
    rng = random.Random(seed)
    graphs = small_graphs() + [bowtie(), bridge(), cube(), k4_with_pendant(),
                               double_pocket(), gen.gen_grid(5, 5)]
    checked = 0
    for g in graphs:
        budget = Budget.for_graph(g)
        index = cat.WitnessIndex(g, budget)
        rows = [(d, args(budget), index._rows[d][1])
                for d, _, regimes, args, *_ in cat.CATALOG
                if budget.regime in regimes]
        while g.n > 1:
            for detector, args, row in rows:
                if rng.random() < 0.5:
                    want = row_outcome(lambda: min(
                        cat._run_row(detector, g, args), key=cat._sort_key,
                        default=None))
                    assert row_outcome(lambda: row.first(g)) == want, (
                        detector, emb.to_pg(g))
                    checked += 1
            step = random_mutation(g, rng)
            if step is None:
                break
            g = step[0]
            index.update(*step)
            assert_cut_flags(index)
    assert checked > 1000


def test_separator_row_after_pendant_deletion():
    # 0-1 stops separating when the pendant 4 goes, and the deletion marks
    # no edge: the row re-lists its heap top 0-1 and drops it
    g = k4_with_pendant()
    index = cat.WitnessIndex(g, Budget.for_graph(g))
    row = index._rows["find_edge_separator"][1]
    assert row.first(g).actors == (0, 1)
    h, made, destroyed = emb._delete_vertex(g, 4)
    assert 1 not in h.face_at[0][h.rotation[0].index(3)]
    index.update(h, (4, 0), made, destroyed)
    assert row.first(h) is None is cat.find_edge_separator(h)


def chord_beside_cut_vertex():
    """The square 0-2-1-3 with the diagonal 0-1, the path 2-4-3 around 0
    and the pendant 5 at 2.  Deleting 4 makes the face 0 2 5 2 1 3, which
    visits the cut vertex 2 twice and has 0-1 as a chord: 0-1 comes to
    separate 2 from 3, and it sorts before every edge at 2."""
    return emb.build(6, [[2, 1, 3], [0, 2, 3], [5, 1, 0, 4], [4, 0, 1],
                         [2, 3], [2]])


def test_separator_row_after_deletion_beside_cut_vertex():
    # the chords of a made face that visits a cut vertex twice are
    # re-tested too, not only the edges at that vertex
    g = chord_beside_cut_vertex()
    index = cat.WitnessIndex(g, Budget.for_graph(g))
    row = index._rows["find_edge_separator"][1]
    assert row.first(g).actors == (0, 2)
    h, made, destroyed = emb._delete_vertex(g, 4)
    assert (0, 2, 5, 2, 1, 3) in h.faces
    index.update(h, (4, 2, 3), made, destroyed)
    assert row.first(h) == cat.find_edge_separator(h)
    assert row.first(h).actors == (0, 1)


def is_face_chord(g, u, v):
    """Whether u and v, each visited at most once by every face walk, lie
    on one face walk without being consecutive on it."""
    return any(u in f and v in f
               and (f.index(u) - f.index(v)) % len(f) not in (1, len(f) - 1)
               for f in g.faces)


def test_non_cut_edges_separate_exactly_at_face_chords(corpus_large,
                                                       corpus_small):
    """An edge uv whose ends are not cut vertices separates exactly when
    it is a face chord (catalog._separators_at), on the corpora, the block
    chains, pocket graphs and the graphs random_mutation reaches."""
    rng = random.Random(0)
    pocket = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    graphs = (corpus_large + corpus_small + block_chains()
              + [pocket, double_pocket(), chord_beside_cut_vertex()])
    for g in small_graphs() + [cube(), double_pocket(), gen.gen_grid(5, 5)]:
        while g.n > 1 and (step := random_mutation(g, rng)) is not None:
            g = step[0]
            graphs.append(g)
    edges = separating = 0
    for g in graphs:
        at = cat._FaceSets(g)
        for u, v in cat._edges(g):
            if at.is_cut(u) or at.is_cut(v):
                continue
            rest = [x for x in g.vertices if x != u and x != v]
            splits = bool(rest) and len(
                emb.component(g.adj, rest[0], (u, v))) < len(rest)
            assert splits == is_face_chord(g, u, v), ((u, v), emb.to_pg(g))
            edges += 1
            separating += splits
    assert separating > 1000 and edges > 2 * separating, (edges, separating)


def test_key_evaluations_per_step_do_not_grow_with_n():
    """Every row of the index re-keys a bounded number of elements per
    step: for each row, the mean per step of the key evaluations in
    _Row.first, marked elements and elements pulled from the row's `todo`,
    differs by less than 1.5x between two sizes of forced runs, grids of
    144 and 784 vertices (small regime) and stacked triangulations of 200
    and 800 vertices (large regime).  A step re-keys the faces at the ids it
    touches, so the stacked means creep up with their hubs' degrees."""
    detector_of = {track: d for d, *_, track in cat.CATALOG}
    real = cat._Row.first

    def means(g, base_limit):
        evaluated = Counter()
        counting = set()

        def pulled(todo, detector):
            for item in todo:
                evaluated[detector] += 1
                yield item

        def first(row, h):
            d = detector_of[row.track]
            if row not in counting:
                counting.add(row)
                row.todo = pulled(row.todo, d)
            evaluated[d] += len(row.dirty)
            return real(row, h)

        with mock.patch.object(cat._Row, "first", first):
            _, tr = red.color_within_budget(g, base_limit=base_limit)
        steps = sum("witness" in r for r in tr.records)
        return {d: k / steps for d, k in evaluated.items()}

    for graphs, base_limit in (
            ([gen.gen_grid(s, s) for s in (12, 28)], 12),
            ([gen.gen_stacked_triangulation(n, 3) for n in (200, 800)], 1)):
        at_lo_n, at_hi_n = (means(g, base_limit) for g in graphs)
        assert at_lo_n.keys() == at_hi_n.keys(), (at_lo_n, at_hi_n)
        for d in at_lo_n:
            lo, hi = sorted((at_lo_n[d], at_hi_n[d]))
            assert hi < 1.5 * lo, (d, at_lo_n[d], at_hi_n[d])


def one_shot_graphs():
    pocket = glue_pocket(gen.gen_stacked_triangulation(20, 1), 0, 1)
    return ([gen.gen_grid(k, k) for k in (2, 5, 12, 30)]
            + [k4_chain(k) for k in (1, 2, 7, 40)]
            + block_chains() + [pocket, double_pocket(), cube(), bowtie(),
                                bridge(), k4_with_pendant()])


def test_one_shot_search_matches_scan(corpus_large, corpus_small):
    """A fresh index's first witness is the scan's, and so is every fresh
    row's first witness, whether or not the search reaches it."""
    for g in corpus_large + corpus_small + one_shot_graphs():
        budget = Budget.for_graph(g)
        assert cat.find_first_witness(g, budget) == find_first_witness_scan(
            g, budget), emb.to_pg(g)
        for detector, _, regimes, args, track in cat.CATALOG:
            if budget.regime in regimes:
                row = cat._Row(g, track, args(budget))
                want = row_outcome(lambda: min(
                    cat._run_row(detector, g, args(budget)),
                    key=cat._sort_key, default=None))
                assert row_outcome(lambda: row.first(g)) == want, detector


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.integers(4, 90))
def test_one_shot_search_matches_scan_sampled(seed, large, n):
    if large:
        g = gen.gen_corpus(1, (n, n), 9, seed)[0]
    else:
        g = gen.gen_corpus(1, (n, n), 3, seed, delta_max=6)[0]
    budget = Budget.for_graph(g)
    assert cat.find_first_witness(g, budget) == find_first_witness_scan(
        g, budget)


def test_one_shot_search_on_grid_lists_no_edge():
    """A 60x60 grid's first witness is a corner's Deg2, which ranks before
    every EdgeSeparator: a fresh index neither pulls an edge nor runs the
    separator lister on one.  On a K4 chain the separator row lists the
    edges up to the first separating one, and pulls one more at most."""
    pulled, listed = [], []

    def elements(g):
        for e in cat._edges(g):
            pulled.append(e)
            yield e

    def at(g):
        of = cat._separators_at(g)
        return lambda e: listed.append(e) or of(e)

    catalog = tuple(
        (*row[:4], cat._SEPARATORS._replace(elements=elements, at=at))
        if row[4] is cat._SEPARATORS else row for row in cat.CATALOG)
    g, h = gen.gen_grid(60, 60), k4_chain(20)
    with mock.patch.object(cat, "CATALOG", catalog):
        assert cat.find_first_witness(g, Budget.for_graph(g)).kind == "Deg2"
        assert not pulled and not listed
        w = cat.find_first_witness(h, Budget.for_graph(h))
    edges = list(cat._edges(h))
    reached = edges[:edges.index(w.actors) + 1]
    assert w.kind == "EdgeSeparator" and set(listed) == set(reached)
    assert pulled[:len(reached)] == reached
    assert len(pulled) <= len(reached) + 1


@pytest.mark.parametrize("k", [50, 200])
def test_forced_k4_chain_tests_few_separators(k):
    """A forced run on a chain of k K4 blocks runs at most 6 BFS per block:
    deleting the pendant that a split leaves re-tests only the edges at
    its neighbour, not every edge at the cut vertices of the chain's outer
    face.  The separator row lists its winning edge once per search, so
    200 blocks take at most 592 BFS."""
    calls = 0
    real = emb.component

    def component(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    with mock.patch.object(emb, "component", component):
        red.color_within_budget(k4_chain(k), base_limit=12)
    assert calls <= 6 * k
    assert k != 200 or calls <= 592


def test_face_marks_cover_every_gain_and_moved_place(corpus_large,
                                                     corpus_small):
    """Every mutation of forced runs on the corpora and a 12x12 grid marks,
    in the face row, every face of the new graph that gains a FaceTwoSmall
    witness or, at length 4 or more, moves its least corner (a shorter
    face never has a witness)."""
    real = cat._Row.mark
    checked = Counter()

    def mark(row, m):
        if row.track is cat._FACES:
            marked = set(cat._face_marks(m))
            had, has = (cat._two_small_at(h, *row.args) for h in (m.old, m.new))
            for f in m.new.faces:
                gained = bool(has(f)) and not had(f)
                moved = (len(f) > 3 and emb.dart_face(m.old, f[:2]) == f
                         and (emb.least_corner(m.old, f)
                              != emb.least_corner(m.new, f)))
                assert f in marked or not (gained or moved), (
                    f, m.touched, emb.to_pg(m.old))
                checked["gained"] += gained
                checked["moved"] += moved
        return real(row, m)

    with mock.patch.object(cat._Row, "mark", mark):
        for g in corpus_large + corpus_small + [gen.gen_grid(12, 12)]:
            red.color_within_budget(g, base_limit=12)
    assert checked["gained"] > 500 and checked["moved"] > 500, checked
