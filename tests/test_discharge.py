import itertools
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from psc import catalog as cat
from psc import discharge as dis
from psc import generators as gen


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
    report = dis.audit(gen.named_graph("k4"))
    obj = report.to_obj()
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


def test_transfer_serialization():
    t = dis.Transfer("R4", ("v", 1), ("v", 2), Fraction(1, 14), via=(3,))
    assert t.to_obj() == {"rule": "R4", "from": ["v", 1], "to": ["v", 2],
                          "amount": "1/14", "via": [3]}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_conservation_sampled(seed):
    g = gen.gen_corpus(1, (8, 50), 3, seed)[0]
    ledger, _ = dis.charges(g)
    assert ledger.total_final() == -12
