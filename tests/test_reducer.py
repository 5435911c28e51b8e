import dataclasses
import inspect
import itertools
import json
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bowtie, bridge, cube, double_pocket, glue_pocket,
                      k4_chain, replay_trace)
from psc import catalog as cat
from psc import coloring as col
from psc import embedding as emb
from psc import generators as gen
from psc import reducer as red
from psc.budgets import SMALL, Budget
from psc.errors import (ExtensionStuck, MergeInfeasible, NoWitnessFound,
                        WouldDisconnect)


def applied_kinds(records):
    """The witness kinds of a trace's steps, split parts included."""
    return {r["witness"]["kind"] for r in records if "witness" in r}


def forced(g, base_limit):
    """Color g with DSATUR tried only on graphs of at most base_limit
    vertices.  Checks that g was reduced at least once, that the run ended
    at a base case, and that the coloring is valid within the budget;
    returns the trace."""
    c, tr = red.color_within_budget(g, base_limit=base_limit)
    assert col.verify(g, c)[0]
    assert c.palette_size <= Budget.for_graph(g).palette_size
    assert "witness" in tr.records[0]
    assert tr.records[-1]["terminal"]["n"] <= base_limit
    return tr


def test_base_case_named():
    for name in ("k4", "octahedron", "icosahedron"):
        g = gen.named_graph(name)
        c, tr = red.color_within_budget(g)
        assert col.verify(g, c)[0]
        assert len(tr.records) == 1  # the terminal: DSATUR already fits


def test_corpus_within_budget(corpus_large, corpus_small):
    for g in corpus_large + corpus_small:
        b = Budget.for_graph(g)
        c, _ = red.color_within_budget(g)
        assert col.verify(g, c)[0]
        assert c.palette_size <= b.palette_size


def test_forced_reduction_large(corpus_large):
    kinds = set()
    for g in corpus_large[:12]:
        kinds |= applied_kinds(forced(g, 6).records)
    assert {"Deg2", "Deg3SmallNbr", "Deg3TwoTriangles"} <= kinds


def test_forced_reduction_small(corpus_small):
    kinds = set()
    for g in corpus_small[:12]:
        kinds |= applied_kinds(forced(g, 4).records)
    assert kinds  # at least one catalog kind exercised


def test_forced_reduction_triangulations():
    kinds = set()
    for seed in range(6):
        g = gen.gen_stacked_triangulation(35 + seed, seed)
        kinds |= applied_kinds(forced(g, 5).records)
    assert "Deg3SmallNbr" in kinds


def test_split_and_merge():
    g = glue_pocket(gen.gen_stacked_triangulation(22, 3), 0, 1)
    records = forced(g, 5).records
    # the split step, then part 1's records, then part 2's, each ending
    # with the base case that colored it
    i = next(i for i, r in enumerate(records) if "witness" in r
             and r["witness"]["kind"] == "EdgeSeparator")
    ends = [j for j, r in enumerate(records) if "terminal" in r]
    assert [records[j]["terminal"]["n"] for j in ends] == [4, 5]
    assert i < ends[0] < ends[1] == len(records) - 1
    assert all("witness" in r for r in records[i + 1:ends[0]])
    assert all("witness" in r for r in records[ends[0] + 1:-1])
    assert "split_parts" not in json.dumps(records)


def test_small_split_and_merge():
    forced(glue_pocket(gen.named_graph("k4"), 0, 1), 3)


def minus_edge(g, u, v):
    """g without the edge uv, its rotation rebuilt."""
    return emb.build(g.n, [[y for y in r if {x, y} != {u, v}]
                           for x, r in enumerate(g.rotation)])


def test_every_kind_applied_but_one():
    """Each ranked kind is applied by a reduction with base_limit=1 on one
    pinned graph, except Deg3TriTwoSquares: no input measured reaches it
    (ROADMAP item 6)."""
    large = gen.gen_corpus(30, (12, 60), 9, 11)
    small = gen.gen_corpus(30, (12, 60), 3, 11, delta_max=6)
    pinned = [
        (large[0], {"Deg1", "Deg2"}),
        (large[1], {"Deg3SmallNbr", "Deg3TwoTriangles"}),
        (small[0], {"FaceTwoSmall", "W_Deg3Triangle",
                    "W_Deg4ThreeTriangles"}),
        (small[2], {"W_Tri5"}),
        (minus_edge(gen.gen_stacked_triangulation(8, 0), 0, 2),
         {"EdgeSeparator"}),
        (minus_edge(gen.gen_stacked_triangulation(9, 0), 1, 2),
         {"GenericDeletable"}),
        (minus_edge(gen.gen_stacked_triangulation(11, 1), 0, 2),
         {"Deg4Tri5Tri"}),
    ]
    for g, kinds in pinned:
        assert kinds <= applied_kinds(forced(g, 1).records), emb.to_pg(g)
    reached = set().union(*(kinds for _, kinds in pinned))
    assert set(cat.KIND_RANK) - reached == {"Deg3TriTwoSquares"}


def induction_graphs(corpus_large, corpus_small):
    k1 = emb.from_pg("n 1\n0:\n")
    k2 = emb.from_pg("n 2\n0: 1\n1: 0\n")
    triangle = emb.from_pg("n 3\n0: 1 2\n1: 2 0\n2: 0 1\n")
    return (corpus_large[:12] + corpus_small[:12]
            + [k1, k2, triangle, bridge(), cube(), double_pocket()])


def test_induction_without_dsatur(corpus_large, corpus_small):
    # with base_limit=1 DSATUR only ever colors K1: every other graph is
    # reduced, as in the paper's induction
    kinds = set()
    for g in induction_graphs(corpus_large, corpus_small):
        c, tr = red.color_within_budget(g, base_limit=1)
        assert tr.records[-1]["terminal"]["n"] == 1
        assert col.verify(g, c)[0]
        assert c.palette_size <= Budget.for_graph(g).palette_size
        kinds |= applied_kinds(tr.records)
    assert "Deg1" in kinds


def test_base_limit_at_n_is_default(corpus_large, corpus_small):
    for g in induction_graphs(corpus_large, corpus_small):
        c1, t1 = red.color_within_budget(g, base_limit=g.n)
        c2, t2 = red.color_within_budget(g)
        assert c1.to_json() == c2.to_json()
        assert t1.to_jsonl() == t2.to_jsonl()


def test_contraction_fallback_on_bridge():
    # vertex 0 bridges two triangles; deleting it alone would disconnect
    # the graph, so the reduction first joins its neighbors by a bypass
    # chord, which contracts the edge 0-1 once 0 is deleted
    g = bridge()
    assert min(g.degree(v) for v in range(g.n)) == 2
    assert forced(g, 2).records[0]["witness"]["actors"] == [0, 1, 2]


def test_deletion_of_other_cut_vertex_raises():
    # the rank argument of _deletion: no first witness deletes a cut vertex
    # of degree other than 2, so there is nothing to bypass it by
    with pytest.raises(WouldDisconnect):
        list(red._deletion(bowtie(), 0, []))


def test_avoiding_permutation_exhaustive():
    for k in range(2, 8):
        colors = range(1, k + 1)
        subsets = [set(c) for r in range(k + 1)
                   for c in itertools.combinations(colors, r)]
        for sources, blocked in itertools.product(subsets, subsets):
            moving = {c for c in sources & blocked if c > 2}
            free = set(range(3, k + 1)) - blocked - sources
            if len(free) < len(moving):
                with pytest.raises(MergeInfeasible):
                    red._avoiding_permutation(k, sorted(sources), blocked)
                continue
            sigma = red._avoiding_permutation(k, sorted(sources), blocked)
            assert sorted(sigma) == sorted(sigma.values()) == list(colors)
            assert sigma[1] == 1 and sigma[2] == 2
            for c in sources - blocked:
                assert sigma[c] == c
            assert all(sigma[c] not in blocked for c in moving)


def test_four_regular_quadrangulation():
    # no low-degree, triangle, or deletable-vertex witness: only the
    # face-with-two-small-vertices rule applies
    txt = ("n 21\n0: 6 5 2 1\n1: 2 13 7 0\n2: 1 0 4 3\n3: 8 14 2 4\n"
           "4: 2 5 8 3\n5: 0 6 9 4\n6: 0 7 10 5\n7: 1 12 11 6\n"
           "8: 3 4 9 15\n9: 5 10 16 8\n10: 6 11 17 9\n11: 7 12 18 10\n"
           "12: 7 13 18 11\n13: 1 14 20 12\n14: 19 13 3 15\n15: 8 16 19 14\n"
           "16: 9 17 19 15\n17: 10 18 20 16\n18: 11 12 20 17\n"
           "19: 16 20 14 15\n20: 17 18 13 19\n")
    g = emb.from_pg(txt)
    assert "FaceTwoSmall" in applied_kinds(forced(g, 4).records)


def test_trace_jsonl_format(corpus_large):
    tr = forced(corpus_large[0], 6)
    lines = tr.to_jsonl().splitlines()
    assert json.loads(lines[-1])["terminal"]["palette"] >= 1
    for line in lines[:-1]:
        obj = json.loads(line)
        if "witness" in obj:
            assert len(obj["before"]) == 16


def replay_digests(g, records):
    """Replay a trace from g and check each step's before and after digests
    and each terminal's against a full graph_digest.  Returns the witness
    kinds replayed."""
    kinds = set()
    after = None
    for h, r in replay_trace(g, records):
        digest = f"{emb.graph_digest(h):016x}"
        if after is not None:
            assert after == digest
        if "terminal" in r:
            assert r["terminal"]["digest"] == digest
            after = None
        else:
            kinds.add(r["witness"]["kind"])
            assert r["before"] == digest
            after = r["after"]
    return kinds


def test_step_digests_match_full_digest(corpus_large, corpus_small):
    # each step re-hashes only the rows it touches; the running digest
    # equals the digest of the whole graph after every step, through
    # deletions, chords, the bridge's bypass and the pockets' splits
    kinds = set()
    runs = [(g, 6) for g in corpus_large[:6] + corpus_small[:6]]
    runs += [(bridge(), 1), (double_pocket(), 1),
             (glue_pocket(gen.gen_stacked_triangulation(22, 3), 0, 1), 5)]
    for g, base_limit in runs:
        _, tr = red.color_within_budget(g, base_limit=base_limit)
        kinds |= replay_digests(g, tr.to_obj())
    assert {"Deg1", "Deg2", "EdgeSeparator", "Deg3SmallNbr"} <= kinds


def test_budget_below_max_degree_raises():
    # a step checks the degrees of the vertices it touches only, which
    # equals a check of the maximum degree only from Delta <= delta_context
    g = gen.gen_wegner(9)
    low = dataclasses.replace(Budget.for_graph(g),
                              delta_context=g.max_degree() - 1)
    with pytest.raises(ExtensionStuck, match="exceeds the budget"):
        red.color_within_budget(g, low, base_limit=1)


@pytest.mark.parametrize("g, w", [
    # a chord at vertex 0 of C6, whose degree 2 is the budget's cap
    (gen.gen_cycle(6), cat.ConfigWitness(
        kind="FaceTwoSmall", actors=(0, 2), faces=([0, 5],),
        recipe={"op": "add_edge", "u": 0, "v": 2, "face": [0, 5]})),
    # deleting a vertex of the cube and joining its neighbour 1 to the
    # two others raises the degree of 1 from 3 to 4
    (cube(), cat.ConfigWitness(
        kind="Deg3SmallNbr", actors=(0, 1, 3, 4),
        recipe={"op": "delete_and_add", "v": 0, "anchor": 1,
                "edges": [[1, 3], [1, 4]]})),
])
def test_step_past_delta_context_raises(g, w):
    budget = Budget(21, g.max_degree(), SMALL)
    with mock.patch.object(cat.WitnessIndex, "first", lambda self: w):
        with pytest.raises(ExtensionStuck, match="raised the maximum degree"):
            red.color_within_budget(g, budget, base_limit=1)


def test_no_witness_dump_parses():
    # the dump of a reduced graph renumbers its ids densely, so it parses
    # although ids were removed
    g = gen.gen_stacked_triangulation(30, 2)
    seen = []
    real = cat.WitnessIndex.first

    def third_fails(index):
        seen.append(index.g)
        return None if len(seen) == 3 else real(index)

    with mock.patch.object(cat.WitnessIndex, "first", third_fails):
        with pytest.raises(NoWitnessFound) as e:
            red.color_within_budget(g, base_limit=6)
    h = seen[2]
    assert h.n < len(h.rotation)  # some id was removed
    dumped = emb.from_pg(e.value.graph_text)
    assert dumped.n == h.n
    index = {v: i for i, v in enumerate(h.vertices)}
    assert dumped.rotation == tuple(tuple(index[u] for u in h.rotation[v])
                                    for v in h.vertices)


def test_trace_names_input_ids(corpus_large):
    # no deleted vertex reappears in a later step, and every id is the
    # input's
    g = corpus_large[3]
    _, tr = red.color_within_budget(g, base_limit=6)
    gone = set()
    for r in tr.records[:-1]:
        rec = r["witness"]["recipe"]
        named = {*r["witness"]["actors"], *(x for e in rec.get("edges", ())
                                            for x in e)}
        named |= {rec[k] for k in ("v", "u", "anchor") if k in rec}
        assert named <= set(range(g.n)) - gone
        if rec["op"] != "add_edge":
            gone.add(rec["v"])
    assert tr.records[-1]["terminal"]["n"] == g.n - len(gone)


def test_trace_digests_chain(corpus_large):
    tr = forced(corpus_large[1], 6)
    chain = [s for s in tr.records if s.get("after")]
    for a, b in zip(chain, chain[1:]):
        assert a["after"] == b["before"]


def test_deterministic(corpus_large, corpus_small):
    for g in (corpus_large[2], corpus_small[2]):
        c1, t1 = red.color_within_budget(g)
        c2, t2 = red.color_within_budget(g)
        assert c1.to_json() == c2.to_json()
        assert t1.to_jsonl() == t2.to_jsonl()


def test_wegner_within_budget():
    for delta in (9, 11, 13):
        g = gen.gen_wegner(delta)
        c, _ = red.color_within_budget(g)
        assert col.verify(g, c)[0]
        assert c.palette_size <= 2 * delta + 7


def test_delta_seven_eight_use_25():
    g = gen.gen_wegner(7)
    b = Budget.for_graph(g)
    assert b.palette_size == 25 and b.delta_context == 9
    c, _ = red.color_within_budget(g)
    assert c.palette_size <= 25


def test_small_regime_degree_bound_is_six():
    for delta in range(1, 7):
        b = Budget.for_delta(delta)
        assert (b.palette_size, b.delta_context, b.regime) == (21, 6, SMALL)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_forced_reduction_sampled(seed):
    forced(gen.gen_corpus(1, (15, 50), 3, seed, delta_max=6)[0], 4)


def test_forced_reduction_memory():
    # each deletion keeps only the deleted vertex's distance-2 ball for the
    # extension, not the graph it was deleted from.  On this grid, keeping
    # every intermediate graph peaked at about 4.3 MB and keeping the
    # balls at under 1 MB; 2 MB lies between the two.
    g = gen.gen_grid(10, 10)
    tracemalloc.start()
    try:
        red.color_within_budget(g, base_limit=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_forced_k4_chain_needs_no_stack_per_split():
    # a split pushes tasks rather than recursing: 99 splits fit in 100
    # frames above the caller's, where two frames per split did not
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        forced(k4_chain(100), 12)
    finally:
        sys.setrecursionlimit(limit)


def test_forced_k4_chain_memory():
    # a pending merge holds no graph, and a split drops its reduction, so
    # the 99 splits do not keep a graph each alive: recursing, the peak
    # was about 20 MB, and the task loop's is under 1 MB
    g = k4_chain(100)
    tracemalloc.start()
    try:
        red.color_within_budget(g, base_limit=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
