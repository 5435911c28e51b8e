"""Exact-rational discharging: initial charges deg-6 / 2deg-6, the face rule,
weak/strong classification, and the three vertex rules with transit bonuses.

Elements are keyed ("v", id) for vertices and ("f", index) for faces (face
indices follow the deterministic trace order).  All arithmetic is exact; the
total charge of a connected planar embedding is -12 throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as cat
from . import embedding as emb
from .errors import WeakHighDegree

WEAK = "weak"
STRONG = "strong"


def fmt(x):
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: tuple
    target: tuple
    amount: Fraction
    via: tuple = ()

    def to_obj(self):
        return {"rule": self.rule, "from": list(self.source),
                "to": list(self.target), "amount": fmt(self.amount),
                "via": list(self.via)}


@dataclass
class ChargeLedger:
    initial: dict
    final: dict
    transfers: list = field(default_factory=list)

    def total_initial(self):
        return sum(self.initial.values(), Fraction(0))

    def total_final(self):
        return sum(self.final.values(), Fraction(0))

    def applied(self, new_transfers):
        """New ledger with the given transfers applied on top of `final`."""
        charges = dict(self.final)
        for t in new_transfers:
            charges[t.source] -= t.amount
            charges[t.target] += t.amount
        return ChargeLedger(self.initial, charges,
                            self.transfers + list(new_transfers))


def initial_charges(g):
    charges = {}
    for v in range(g.n):
        charges[("v", v)] = Fraction(g.degree(v) - 6)
    for i, f in enumerate(emb.trace_faces(g)):
        charges[("f", i)] = Fraction(2 * f.degree - 6)
    return ChargeLedger(dict(charges), charges, [])


def apply_R1(ledger, g):
    """Each d-face pays d-3 to every incident vertex of degree at most 5,
    once per incidence."""
    transfers = []
    for i, f in enumerate(emb.trace_faces(g)):
        pay = Fraction(f.degree - 3)
        if pay == 0:
            continue
        for v, _ in f.corners:
            if g.degree(v) <= 5:
                transfers.append(Transfer("R1", ("f", i), ("v", v), pay))
    transfers.sort(key=lambda t: (t.source, t.target))
    return ledger.applied(transfers)


def classify(ledger_after_r1, g):
    """Weak vertices are those negative after the face rule."""
    out = {}
    for v in range(g.n):
        weak = ledger_after_r1.final[("v", v)] < 0
        if weak and g.degree(v) > 5:
            raise WeakHighDegree(f"vertex {v} weak with degree {g.degree(v)}")
        out[v] = WEAK if weak else STRONG
    return out


def apply_R2_R3_R4(ledger, g, ws):
    """Vertex rules, computed simultaneously from the post-face-rule state.

    Degree-11 vertices with all neighbors weak pay 5/11 each; other 11+
    vertices pay 1/2 per weak neighbor plus two transiting 1/4 bonuses when
    both flanking neighbors are strong; degree 7-10 vertices pay w0/d per
    weak neighbor plus w0/2d through each strong flank.
    """
    r2, r3, r4 = [], [], []
    for u in range(g.n):
        d = g.degree(u)
        if d < 7:
            continue
        weak_nbrs = [w for w in g.rotation[u] if ws[w] == WEAK]
        if d == 11 and len(weak_nbrs) == d:
            for w in weak_nbrs:
                r2.append(Transfer("R2", ("v", u), ("v", w), Fraction(5, 11)))
        elif d >= 11:
            for w in weak_nbrs:
                r3.append(Transfer("R3", ("v", u), ("v", w), Fraction(1, 2)))
                flanks = g.next_to(u, w)
                if len(flanks) == 2 and all(ws[s] == STRONG for s in flanks):
                    for s in flanks:
                        r3.append(Transfer("R3", ("v", u), ("v", w),
                                           Fraction(1, 4), via=(s,)))
        else:  # 7 <= d <= 10
            w0 = Fraction(d - 6)
            for w in weak_nbrs:
                r4.append(Transfer("R4", ("v", u), ("v", w), w0 / d))
                for s in g.next_to(u, w):
                    if ws[s] == STRONG:
                        r4.append(Transfer("R4", ("v", u), ("v", w),
                                           w0 / (2 * d), via=(s,)))
    transfers = []
    for group in (r2, r3, r4):
        group.sort(key=lambda t: (t.source, t.target, t.via))
        transfers.extend(group)
    return ledger.applied(transfers)


@dataclass
class AuditReport:
    ledger: ChargeLedger
    weak_strong: dict
    negatives: list          # (element, final charge)
    cross_refs: dict         # element -> list of ConfigWitness

    def to_obj(self):
        led = self.ledger
        return {
            "sum_initial": fmt(led.total_initial()),
            "sum_final": fmt(led.total_final()),
            "initial": {f"{k[0]}{k[1]}": fmt(c) for k, c in sorted(led.initial.items())},
            "final": {f"{k[0]}{k[1]}": fmt(c) for k, c in sorted(led.final.items())},
            "weak": sorted(v for v, s in self.weak_strong.items() if s == WEAK),
            "transfers": [t.to_obj() for t in led.transfers],
            "negatives": [
                {"element": list(el), "final": fmt(c),
                 "witnesses": [w.to_obj() for w in self.cross_refs[el]]}
                for el, c in self.negatives],
        }

    def to_json(self):
        return json.dumps(self.to_obj())


def audit(g):
    """Full discharging pipeline plus negative-element cross-referencing."""
    faces = emb.trace_faces(g)
    ledger = initial_charges(g)
    ledger = apply_R1(ledger, g)
    ws = classify(ledger, g)
    ledger = apply_R2_R3_R4(ledger, g, ws)
    negatives = sorted((el, c) for el, c in ledger.final.items() if c < 0)
    witnesses = cat.detect_for_audit(g)
    cross = {}
    for el, _ in negatives:
        if el[0] == "v":
            ball = emb.dist2_neighborhood(g, el[1]) | {el[1]}
        else:
            ball = set()
            for v in faces[el[1]].vertices():
                ball |= emb.dist2_neighborhood(g, v) | {v}
        cross[el] = [w for w in witnesses if ball.intersection(w.actors)]
    return AuditReport(ledger, ws, negatives, cross)
