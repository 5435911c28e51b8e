import contextlib
import io
import itertools
import json
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from psc import catalog as cat
from psc import cli
from psc import discharge as dis
from psc import embedding as emb
from psc import generators as gen
from psc.errors import WeakHighDegree

from conftest import (applied_scan, audit_cross_refs_scan, audit_json_scan,
                      audit_scan, bowtie, bridge, double_pocket)


def test_k4_charges():
    g = gen.named_graph("k4")
    ledger, ws = dis.charges(g)
    assert ledger.total_final() == -12
    assert not ledger.transfers  # no rule applies to K4
    assert all(ledger.final[("v", v)] == -3 for v in range(4))
    assert all(ws[v] == dis.WEAK for v in range(4))


def test_c4_face_charges():
    g = gen.gen_cycle(4)
    ledger, _ = dis.charges(g)
    assert ledger.final[("f", 0)] == -2
    assert ledger.final[("f", 1)] == -2
    assert ledger.total_final() == -12


def test_k2_face_pays_nothing():
    # K2's one face is a walk of length 2; the face rule pays only from
    # faces of length 4 or more
    obj = json.loads(dis.audit(emb.build(2, [[1], [0]])).to_json())
    assert obj["transfers"] == []
    want = {"f0": "-2/1", "v0": "-5/1", "v1": "-5/1"}
    assert obj["initial"] == obj["final"] == want
    assert obj["sum_initial"] == obj["sum_final"] == "-12/1"


def test_icosahedron_charges():
    g = gen.named_graph("icosahedron")
    ledger, _ = dis.charges(g)
    finals = [ledger.final[("v", v)] for v in range(12)]
    assert all(c == -1 for c in finals)
    assert ledger.total_final() == -12


def test_vertex_rule_outflow_exhaustive():
    # every weak pattern around a vertex of degree <= 14: the outflow never
    # exceeds the starting charge d - 6, and reaches it for 7 <= d <= 12
    for d in range(1, 15):
        top = 0
        for weak in itertools.product((False, True), repeat=d):
            rows = dis.vertex_rule(d, weak)
            for _, i, amount, j in rows:
                assert weak[i] and amount > 0
                assert j is None or (not weak[j] and (j - i) % d in (1, d - 1))
            top = max(top, sum(row[2] for row in rows))
        assert top == (0 if d < 7 else min(d - 6, Fraction(d, 2))), d


def test_always_some_negative(corpus_small):
    for g in corpus_small:
        ledger, _ = dis.charges(g)
        assert any(c < 0 for c in ledger.final.values())


def test_fmt():
    assert dis.fmt(Fraction(-12)) == "-12/1"
    assert dis.fmt(Fraction(3, 7)) == "3/7"


def test_audit_k4():
    obj = json.loads(dis.audit(gen.named_graph("k4")).to_json())
    assert obj["sum_final"] == "-12/1"
    assert len(obj["negatives"]) == 4
    kinds = {obj["witnesses"][i]["kind"]
             for neg in obj["negatives"] for i in neg["witnesses"]}
    assert "Deg3SmallNbr" in kinds


def test_audit_icosahedron():
    report = dis.audit(gen.named_graph("icosahedron"))
    assert len(report.negatives) == 12
    kinds = {report.witnesses[i].kind
             for refs in report.cross_refs.values() for i in refs}
    assert "W_Tri5" in kinds


def test_audit_json_stable():
    a = dis.audit(gen.named_graph("octahedron")).to_json()
    b = dis.audit(gen.named_graph("octahedron")).to_json()
    assert a == b
    json.loads(a)  # well-formed


def test_audit_json_lists_each_witness_once(corpus_small):
    g = corpus_small[0]
    obj = json.loads(dis.audit(g).to_json())
    assert obj["witnesses"] == [w.to_obj() for w in cat.detect_for_audit(g)]
    cited = [i for neg in obj["negatives"] for i in neg["witnesses"]]
    assert cited and all(0 <= i < len(obj["witnesses"]) for i in cited)
    for neg in obj["negatives"]:
        assert neg["witnesses"] == sorted(set(neg["witnesses"]))


@pytest.mark.parametrize("parts, v, d", [((3, 3, 3, False), 0, 6),
                                         ((4, 5, 2, True), 2, 8)])
def test_classify_raises_on_weak_high_degree(parts, v, d):
    # a hand-built post-R1 ledger in which a vertex of degree >= 6 is
    # negative; R1 pays only degree <= 5, so charges never builds one
    g = gen.gen_hub_triple(*parts)
    led = dis.apply_R1(dis.initial_charges(g), g)
    assert len(g.rotation[v]) == d and led.final[("v", v)] == d - 6
    final = dict(led.final)
    final[("v", v)] = Fraction(-1, 7)
    with pytest.raises(WeakHighDegree,
                       match=f"vertex {v} weak with degree {d}"):
        dis.classify(dis.ChargeLedger(led.initial, final, led.transfers), g)
    final[("v", v)] = Fraction(0)
    assert dis.classify(dis.ChargeLedger(led.initial, final, led.transfers),
                        g)[v] == dis.STRONG


def test_transfer_serialization():
    t = dis.Transfer("R4", ("v", 1), ("v", 2), Fraction(1, 14), via=(3,))
    u = dis.Transfer("R1", ("f", 0), ("v", 1), Fraction(-2))
    charges = {("f", 0): Fraction(0), ("v", 1): Fraction(-1, 2)}
    report = dis.AuditReport(dis.ChargeLedger(charges, charges, [t, u]),
                             {1: dis.WEAK}, [(("v", 1), Fraction(-1, 2))],
                             [], {("v", 1): []})
    text = report.to_json()
    assert json.loads(text)["transfers"] == [
        {"rule": "R4", "from": ["v", 1], "to": ["v", 2], "amount": "1/14",
         "via": [3]},
        {"rule": "R1", "from": ["f", 0], "to": ["v", 1], "amount": "-2/1",
         "via": []}]
    assert text == audit_json_scan(report)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_conservation_sampled(seed):
    g = gen.gen_corpus(1, (8, 50), 3, seed)[0]
    ledger, _ = dis.charges(g)
    assert ledger.total_final() == -12


def _audit_graphs(corpus_large, corpus_small, forced_intermediates):
    return (corpus_large + corpus_small
            + [g for g, _ in forced_intermediates]
            + [emb.from_pg("n 1\n0:\n"), emb.build(2, [[1], [0]]),
               bowtie(), bridge(), double_pocket()])


# hub triples with unequal parts: the degree-2 vertices of one part have
# one neighbour set, so they share a citation list
_HUB_PARTS = ((1, 40, 300, False), (2, 7, 30, True), (25, 3, 1, True))


def test_audit_json_matches_scan(corpus_large, corpus_small,
                                 forced_intermediates):
    for g in (_audit_graphs(corpus_large, corpus_small, forced_intermediates)
              + [gen.gen_hub_triple(*parts) for parts in _HUB_PARTS]):
        report = dis.audit(g)
        assert report.to_json() == audit_json_scan(report)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_audit_json_matches_scan_sampled(seed, small):
    if small:
        g = gen.gen_corpus(1, (8, 60), 3, seed, delta_max=6)[0]
    else:
        g = gen.gen_corpus(1, (8, 60), 9, seed)[0]
    report = dis.audit(g)
    assert report.to_json() == audit_json_scan(report)


def test_audit_cross_refs_match_scan(corpus_large, corpus_small,
                                     forced_intermediates):
    # K1 has the empty face (), the bowtie and the bridge have cut
    # vertices and faces that visit a vertex twice
    for g in _audit_graphs(corpus_large, corpus_small, forced_intermediates):
        assert dis.audit(g).cross_refs == audit_cross_refs_scan(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_audit_cross_refs_match_scan_sampled(seed, small):
    if small:
        g = gen.gen_corpus(1, (8, 60), 3, seed, delta_max=6)[0]
    else:
        g = gen.gen_corpus(1, (8, 60), 9, seed)[0]
    assert dis.audit(g).cross_refs == audit_cross_refs_scan(g)


def test_audit_shares_citations_between_twins():
    # the negative vertices of the n = 801 hub triple have one of three
    # neighbour sets, so their 636k citations sit in three lists, and
    # to_json encodes each of them once
    g = gen.gen_hub_triple(266, 266, 266, True)
    report = dis.audit(g)
    assert sum(map(len, report.cross_refs.values())) == 635_994
    shared = {}
    for (kind, x), refs in report.cross_refs.items():
        if kind == "v":
            assert shared.setdefault(g.adj[x], refs) is refs
    assert len(shared) == 3
    faces = sum(kind == "f" for kind, _ in report.cross_refs)
    with mock.patch.object(dis, "_list_text",
                           wraps=dis._list_text) as encode:
        text = report.to_json()
    assert encode.call_count == 3 + faces
    assert text == audit_json_scan(report)


def _same_ledger(a, b):
    assert a.initial == b.initial
    assert a.final == b.final
    assert a.transfers == b.transfers


def test_applied_matches_scan(corpus_large, corpus_small,
                              forced_intermediates):
    for g in _audit_graphs(corpus_large, corpus_small, forced_intermediates):
        init = dis.initial_charges(g)
        r1 = dis.apply_R1(init, g)
        _same_ledger(r1, applied_scan(init, r1.transfers))
        ws = dis.classify(r1, g)
        r4 = dis.apply_R2_R3_R4(r1, g, ws)
        _same_ledger(r4, applied_scan(r1, r4.transfers[len(r1.transfers):]))
        for led in (init, r1, r4):
            assert led.total_initial() == sum(led.initial.values(), Fraction(0))
            assert led.total_final() == sum(led.final.values(), Fraction(0))


def test_applied_mixed_denominators():
    a, b, c = ("v", 0), ("v", 1), ("f", 0)
    led = dis.ChargeLedger({a: Fraction(1), b: Fraction(-2), c: Fraction(0)},
                           {a: Fraction(1), b: Fraction(-2), c: Fraction(0)})
    batch = [dis.Transfer("R", a, b, Fraction(1, 3)),
             dis.Transfer("R", b, c, Fraction(5, 7)),
             dis.Transfer("R", c, a, Fraction(13, 11))]
    out = led.applied(batch)
    _same_ledger(out, applied_scan(led, batch))
    assert out.final == {a: Fraction(1) - Fraction(1, 3) + Fraction(13, 11),
                         b: Fraction(-2) + Fraction(1, 3) - Fraction(5, 7),
                         c: Fraction(5, 7) - Fraction(13, 11)}
    assert out.total_final() == -1


_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60))


@settings(max_examples=60, deadline=None)
@given(st.lists(_fractions, min_size=1, max_size=8), st.data())
def test_applied_arbitrary_amounts(start, data):
    # amounts such as 1/3, 5/7 and 13/11, not only the rules' amounts, in
    # two batches applied one after the other
    keys = [("v", i) for i in range(len(start))]
    led = dis.ChargeLedger(dict(zip(keys, start)), dict(zip(keys, start)))
    ref = led
    for _ in range(2):
        batch = data.draw(st.lists(st.builds(
            dis.Transfer, st.just("R"), st.sampled_from(keys),
            st.sampled_from(keys), _fractions), max_size=12))
        led, ref = led.applied(batch), applied_scan(ref, batch)
        _same_ledger(led, ref)
        assert led.total_initial() == sum(start, Fraction(0))
        assert led.total_final() == sum(led.final.values(), Fraction(0))
        assert led.total_final() == led.total_initial()


def _audit_outputs(g):
    """`psc audit --json` and `psc audit` printed for g, one after the
    other."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = str(Path(tmp) / "g.pg")
        Path(path).write_text(emb.to_pg(g))
        assert cli.main(["audit", "--json", path]) == 0
        assert cli.main(["audit", path]) == 0
    return out.getvalue()


def _assert_pipeline_matches_scan(g):
    ledger, ws = dis.charges(g)
    want = audit_scan(g)
    _same_ledger(ledger, want.ledger)
    assert ws == want.weak_strong
    assert all(type(c) is Fraction for c in itertools.chain(
        ledger.initial.values(), ledger.final.values(),
        (t.amount for t in ledger.transfers)))
    assert dis.audit(g).to_json() == want.to_json()
    printed = _audit_outputs(g)  # the file may number g's vertices anew
    with mock.patch.object(dis, "audit", audit_scan):
        assert _audit_outputs(g) == printed


def test_pipeline_matches_scan(corpus_large, corpus_small,
                               forced_intermediates):
    for g in (_audit_graphs(corpus_large, corpus_small, forced_intermediates)
              + [gen.gen_hub_triple(*parts) for parts in _HUB_PARTS]):
        _assert_pipeline_matches_scan(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_pipeline_matches_scan_sampled(seed, small):
    if small:
        g = gen.gen_corpus(1, (8, 60), 3, seed, delta_max=6)[0]
    else:
        g = gen.gen_corpus(1, (8, 60), 9, seed)[0]
    _assert_pipeline_matches_scan(g)
