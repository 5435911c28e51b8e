import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from psc import discharge as dis
from psc import generators as gen


def run_pipeline(g):
    ledger = dis.initial_charges(g)
    ledger = dis.apply_R1(ledger, g)
    ws = dis.classify(ledger, g)
    return dis.apply_R2_R3_R4(ledger, g, ws), ws


def test_k4_charges():
    g = gen.named_graph("k4")
    ledger, ws = run_pipeline(g)
    assert ledger.total_final() == -12
    assert not ledger.transfers  # no rule applies to K4
    assert all(ledger.final[("v", v)] == -3 for v in range(4))
    assert all(ws[v] == dis.WEAK for v in range(4))


def test_c4_face_charges():
    g = gen.gen_cycle(4)
    ledger, _ = run_pipeline(g)
    assert ledger.final[("f", 0)] == -2
    assert ledger.final[("f", 1)] == -2
    assert ledger.total_final() == -12


def test_icosahedron_charges():
    g = gen.named_graph("icosahedron")
    ledger, _ = run_pipeline(g)
    finals = [ledger.final[("v", v)] for v in range(12)]
    assert all(c == -1 for c in finals)
    assert ledger.total_final() == -12


def test_conservation_corpus(corpus_large, corpus_small):
    for g in corpus_large + corpus_small:
        ledger, _ = run_pipeline(g)
        assert ledger.total_initial() == -12
        assert ledger.total_final() == -12


def test_degree_lemmas(corpus_large, corpus_small):
    for g in corpus_large + corpus_small:
        ledger, ws = run_pipeline(g)
        for v in range(g.n):
            d = g.degree(v)
            final = ledger.final[("v", v)]
            if d >= 7:
                assert final >= 0, (v, d, final)
            if d == 6:
                assert final == 0, (v, final)
            if ws[v] == dis.WEAK:
                assert d <= 5


def test_always_some_negative(corpus_small):
    for g in corpus_small:
        ledger, _ = run_pipeline(g)
        assert any(c < 0 for c in ledger.final.values())


def test_r4_outflow_cap(corpus_large):
    # degree 7-10 vertices never send more than w0/d per neighbor direction
    for g in corpus_large[:15]:
        ledger, _ = run_pipeline(g)
        for v in range(g.n):
            d = g.degree(v)
            if 7 <= d <= 10:
                out = sum(t.amount for t in ledger.transfers
                          if t.source == ("v", v))
                assert out <= Fraction(d - 6)


def test_fmt():
    assert dis.fmt(Fraction(-12)) == "-12/1"
    assert dis.fmt(Fraction(5, 11)) == "5/11"


def test_audit_k4():
    report = dis.audit(gen.named_graph("k4"))
    obj = report.to_obj()
    assert obj["sum_final"] == "-12/1"
    assert len(obj["negatives"]) == 4
    kinds = {w["kind"] for neg in obj["negatives"] for w in neg["witnesses"]}
    assert "Deg3SmallNbr" in kinds


def test_audit_icosahedron():
    report = dis.audit(gen.named_graph("icosahedron"))
    assert len(report.negatives) == 12
    kinds = {w.kind for ws in report.cross_refs.values() for w in ws}
    assert "W_Tri5" in kinds


def test_audit_json_stable():
    a = dis.audit(gen.named_graph("octahedron")).to_json()
    b = dis.audit(gen.named_graph("octahedron")).to_json()
    assert a == b
    json.loads(a)  # well-formed


def test_transfer_serialization():
    t = dis.Transfer("R2", ("v", 1), ("v", 2), Fraction(5, 11))
    assert t.to_obj() == {"rule": "R2", "from": ["v", 1], "to": ["v", 2],
                          "amount": "5/11", "via": []}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_conservation_sampled(seed):
    g = gen.gen_corpus(1, (8, 50), 3, seed)[0]
    ledger, _ = run_pipeline(g)
    assert ledger.total_final() == -12
