"""Exact-rational discharging: initial charges deg-6 / 2deg-6, the face rule,
weak/strong classification, and the three vertex rules with transit bonuses.

Elements are keyed ("v", id) for vertices and ("f", index) for faces (a
face's index is its position in g.faces, which orders faces by their least
corner: vertex, then rotation position).  All arithmetic is exact; the
total charge of a connected planar embedding is -12 throughout.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from . import catalog as cat
from .errors import WeakHighDegree

WEAK = "weak"
STRONG = "strong"


def fmt(x):
    return f"{x.numerator}/{x.denominator}"


class Transfer(NamedTuple):
    rule: str
    source: tuple
    target: tuple
    amount: Fraction
    via: tuple = ()


@dataclass
class ChargeLedger:
    initial: dict
    final: dict
    transfers: list = field(default_factory=list)

    def total_initial(self):
        return _exact_sum(self.initial.values())

    def total_final(self):
        return _exact_sum(self.final.values())

    def applied(self, new_transfers):
        """New ledger with the given transfers applied on top of `final`.
        Each element's net flow is summed as an integer k over L, L the lcm
        of the batch's denominators, and its charge c becomes the one new
        Fraction (c.numerator * L + k * c.denominator) / (c.denominator * L);
        equal results share one object."""
        new_transfers = list(new_transfers)
        lcm = math.lcm(*{t.amount.denominator for t in new_transfers})
        net = {}
        for t in new_transfers:
            k = t.amount.numerator * (lcm // t.amount.denominator)
            net[t.source] = net.get(t.source, 0) - k
            net[t.target] = net.get(t.target, 0) + k
        charges = dict(self.final)
        frac = functools.cache(Fraction)
        for el, k in net.items():
            if k:
                c = charges[el]
                charges[el] = frac(c.numerator * lcm + k * c.denominator,
                                   c.denominator * lcm)
        return ChargeLedger(self.initial, charges,
                            self.transfers + new_transfers)


def _exact_sum(values):
    """The exact sum of Fractions: numerators summed per denominator, then
    one Fraction addition per distinct denominator."""
    by_den = {}
    for c in values:
        by_den[c.denominator] = by_den.get(c.denominator, 0) + c.numerator
    return sum((Fraction(k, d) for d, k in by_den.items()), Fraction(0))


def initial_charges(g):
    rot = g.rotation
    whole = functools.cache(Fraction)  # one object per charge value
    charges = {("v", v): whole(len(rot[v]) - 6) for v in g.vertices}
    for i, f in enumerate(g.faces):
        charges[("f", i)] = whole(2 * len(f) - 6)
    return ChargeLedger(dict(charges), charges, [])


def apply_R1(ledger, g):
    """Each d-face with d >= 4 pays d-3 to every incident vertex of degree
    at most 5, once per incidence, ordered by (source, target).  A 3-face
    pays 0, and K2's one face, a walk of length 2, pays nothing."""
    rot = g.rotation
    whole = functools.cache(Fraction)  # one object per face length
    transfers = []
    for i, f in enumerate(g.faces):
        if len(f) < 4:
            continue
        pay, source = whole(len(f) - 3), ("f", i)
        transfers += [Transfer("R1", source, ("v", v), pay)
                      for v in sorted(f) if len(rot[v]) <= 5]
    return ledger.applied(transfers)


def classify(ledger_after_r1, g):
    """Weak vertices are those negative after the face rule."""
    final, rot = ledger_after_r1.final, g.rotation
    out = {}
    for v in g.vertices:
        weak = final[("v", v)].numerator < 0
        if weak and len(rot[v]) > 5:
            raise WeakHighDegree(f"vertex {v} weak with degree {len(rot[v])}")
        out[v] = WEAK if weak else STRONG
    return out


# the amounts of vertex_rule, one object each
_R2_PAY = Fraction(5, 11)
_R3_PAYS = (Fraction(1, 2), Fraction(1, 4))
_R4_PAYS = {d: (Fraction(d - 6, d), Fraction(d - 6, 2 * d))
            for d in range(7, 11)}


def vertex_rule(d, weak):
    """The transfers R2-R4 make a vertex of degree d send.

    `weak` holds the weak flags of its neighbours in rotation order, read
    cyclically.  Each transfer is (rule, target, amount, flank): target and
    flank are positions in `weak`, and flank is None for a direct payment.

    - R2: a degree-11 vertex whose neighbours are all weak pays 5/11 to each.
    - R3: any other vertex of degree >= 11 pays 1/2 to each weak neighbour,
      plus 1/4 through each flank when both its flanks are strong.
    - R4: a vertex of degree 7..10 pays (d-6)/d to each weak neighbour, plus
      (d-6)/2d through each strong flank.

    The charge lemmas follow.  A vertex of degree d >= 6 starts at d - 6 >= 0
    and gets nothing from R1, which pays only degree <= 5, so it is never
    weak (`classify` raises `WeakHighDegree` otherwise) and receives nothing
    here.  At d = 6 it pays nothing either, so it ends at 0.  At d >= 7 it
    ends at d - 6 minus its outflow, and the outflow is at most d - 6:
    - for 7 <= d <= 14 by enumerating all 2^d patterns (the maximum is
      exactly d - 6 up to d = 12), in tests/test_discharge.py;
    - for d >= 12 in closed form.  Only R3 applies, so the outflow is W/2 +
      B/2 for W weak neighbours, B of them with both flanks strong.  Each of
      those B has a strong successor, distinct for distinct ones, so
      B <= d - W and the outflow is at most d/2 <= d - 6.
    """
    if d < 7:
        return []
    if d == 11 and all(weak):
        return [("R2", i, _R2_PAY, None) for i in range(d)]
    if d >= 11:
        rule, (pay, bonus) = "R3", _R3_PAYS
    else:
        rule, (pay, bonus) = "R4", _R4_PAYS[d]
    out = []
    for i in range(d):
        if weak[i]:
            out.append((rule, i, pay, None))
            strong = [j for j in ((i - 1) % d, (i + 1) % d) if not weak[j]]
            if rule == "R4" or len(strong) == 2:
                out += [(rule, i, bonus, j) for j in strong]
    return out


def apply_R2_R3_R4(ledger, g, ws):
    """The vertex rules of `vertex_rule`, computed simultaneously from the
    post-face-rule state and ordered by (rule, source, target, via).  Each
    weak pattern's rows are computed once per call."""
    weak_of = {v: s == WEAK for v, s in ws.items()}.__getitem__
    rows_of = {}
    transfers = []
    for u in g.vertices:
        rot = g.rotation[u]
        weak = tuple(map(weak_of, rot))
        rows = rows_of.get(weak)
        if rows is None:
            rows = rows_of[weak] = vertex_rule(len(rot), weak)
        source = ("v", u)
        transfers += [Transfer(rule, source, ("v", rot[i]), amount,
                               () if j is None else (rot[j],))
                      for rule, i, amount, j in rows]
    transfers.sort(key=attrgetter("rule", "source", "target", "via"))
    return ledger.applied(transfers)


def charges(g):
    """Initial charges, R1, the weak/strong split and R2-R4: the final
    ledger and the weak/strong map."""
    ledger = apply_R1(initial_charges(g), g)
    ws = classify(ledger, g)
    return apply_R2_R3_R4(ledger, g, ws), ws


def lemma_violations(ledger, g):
    """How a `charges` ledger breaks the discharging lemmas: a total other
    than -12 before or after, a vertex of degree >= 7 ending negative, or one
    of degree 6 ending nonzero.  Empty when they hold."""
    out = []
    for name, total in (("initial", ledger.total_initial()),
                        ("final", ledger.total_final())):
        if total != -12:
            out.append(f"{name} total {fmt(total)}")
    for v in g.vertices:
        d, c = g.degree(v), ledger.final[("v", v)]
        if (d >= 7 and c < 0) or (d == 6 and c != 0):
            out.append(f"vertex {v} of degree {d} ends at {fmt(c)}")
    return out


@dataclass
class AuditReport:
    ledger: ChargeLedger
    weak_strong: dict
    negatives: list          # (element, final charge)
    witnesses: list          # ConfigWitness, as detect_for_audit lists them
    cross_refs: dict         # element -> indices into witnesses

    def to_json(self):
        """The report as the text json.dumps gives for it with its default
        separators: sum_initial, sum_final, the initial and final charge
        maps, weak, transfers, witnesses and negatives, in that order.  All
        but the witnesses, one json.dumps of their objects, are written
        directly.  Every string written that way is an element tag ("v" or
        "f"), a rule name, a fixed key or a rational of digits, "-" and
        "/", so none needs escaping, and a list of ints is its repr.  Each
        distinct Fraction object's text is made once (the rules share their
        amounts, and a batch its equal results), and so is each distinct
        citation list's (twins share one)."""
        led = self.ledger
        # keyed by id: the report holds every object keyed for the whole call
        texts = {}

        def q(x):  # a ledger Fraction's text, once per object
            s = texts.get(id(x))
            if s is None:
                s = texts[id(x)] = f'"{x.numerator}/{x.denominator}"'
            return s

        def charge_map(charges):
            return ", ".join([f'"{k}{i}": {q(c)}'
                              for (k, i), c in sorted(charges.items())])

        lists = {}
        negatives = []
        for (k, i), c in self.negatives:
            refs = self.cross_refs[(k, i)]
            text = lists.get(id(refs))
            if text is None:
                text = lists[id(refs)] = _list_text(refs)
            negatives.append(f'{{"element": ["{k}", {i}], "final": {q(c)}, '
                             f'"witnesses": {text}}}')
        transfers = [
            f'{{"rule": "{t.rule}", "from": ["{t.source[0]}", {t.source[1]}], '
            f'"to": ["{t.target[0]}", {t.target[1]}], "amount": {q(t.amount)}, '
            f'"via": {list(t.via)}}}' for t in led.transfers]
        weak = sorted(v for v, s in self.weak_strong.items() if s == WEAK)
        witnesses = json.dumps([w.to_obj() for w in self.witnesses])
        return (f'{{"sum_initial": "{fmt(led.total_initial())}", '
                f'"sum_final": "{fmt(led.total_final())}", '
                f'"initial": {{{charge_map(led.initial)}}}, '
                f'"final": {{{charge_map(led.final)}}}, '
                f'"weak": {weak}, "transfers": [{", ".join(transfers)}], '
                f'"witnesses": {witnesses}, '
                f'"negatives": [{", ".join(negatives)}]}}')


def _list_text(ints):
    """A citation list's JSON text, its repr."""
    return repr(ints)


def audit(g):
    """Full discharging pipeline plus negative-element cross-referencing:
    each negative element cites, by index, the witnesses with an actor in
    its distance-2 ball.  The witnesses are listed per actor id once, and a
    ball and its citations are set unions of neighbour sets and of those
    lists, so the cost is linear in the balls and the citations, not
    negatives times witnesses.  Negative vertices with the same neighbours
    have the same ball and share one citation list."""
    ledger, ws = charges(g)
    negatives = sorted((el, c) for el, c in ledger.final.items()
                       if c.numerator < 0)
    witnesses = cat.detect_for_audit(g)
    cites = [[] for _ in g.rotation]
    for i, w in enumerate(witnesses):
        for x in w.actors:
            cites[x].append(i)
    adj = g.adj.__getitem__

    def citations(ball):
        return sorted(set().union(*map(cites.__getitem__, ball)))

    by_nbrs = {}
    cross = {}
    for el, _ in negatives:
        if el[0] == "f":
            face = g.faces[el[1]]
            near = set(face).union(*map(adj, face))
            cross[el] = citations(near.union(*map(adj, near)))
            continue
        # a vertex's ball is its neighbours' closed neighbourhoods, plus
        # itself for K1: vertices with one neighbour set share a list
        nbrs = g.adj[el[1]]
        if nbrs not in by_nbrs:
            by_nbrs[nbrs] = citations(
                set(nbrs).union({el[1]}, *map(adj, nbrs)))
        cross[el] = by_nbrs[nbrs]
    return AuditReport(ledger, ws, negatives, witnesses, cross)
