"""Coloring back-ends: validity check, greedy and DSATUR heuristics, and an
exact branch-and-bound chi_2 oracle for desk-scale graphs."""

from __future__ import annotations

import heapq
import json
import re
import time
from collections import Counter
from dataclasses import dataclass

from . import embedding as emb
from .errors import BadColoring


@dataclass(frozen=True)
class SquareColoring:
    palette_size: int
    color_of: dict  # vertex -> color in 1..palette_size

    def to_obj(self):
        return {"palette": self.palette_size,
                "colors": {str(v): c for v, c in sorted(self.color_of.items())}}

    def to_json(self):
        return json.dumps(self.to_obj())

    @staticmethod
    def from_json(text):
        """Parse {"palette": int, "colors": {vertex: int}}; other keys,
        such as the `verified` and `trace` of `psc color --json`, are
        ignored.  A vertex key must be an integer written as `str` writes
        it, and no key may repeat, so no two keys name the same vertex."""
        obj = json.loads(text, object_pairs_hook=_unique_keys)
        colors = obj.get("colors") if isinstance(obj, dict) else None
        if not isinstance(colors, dict) or not all(
                type(x) is int for x in (obj.get("palette"), *colors.values())):
            raise BadColoring(
                'expected {"palette": int, "colors": {vertex: int}}')
        for v in colors:
            if not re.fullmatch(r"0|-?[1-9][0-9]*", v):
                raise BadColoring(f"vertex key {v!r} is not a canonical integer")
        return SquareColoring(obj["palette"],
                              {int(v): c for v, c in colors.items()})


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise BadColoring("repeated key in coloring JSON")
    return obj


@dataclass(frozen=True)
class ExactResult:
    chi2: int
    witness: SquareColoring
    lower_bound_clique: tuple
    exact: bool = True


def verify(g, coloring):
    """True iff exactly the vertices of g are colored, all in 1..palette,
    and all distance-<=2 pairs differ; on failure also returns one
    violating pair, or (v, v) for a vertex v without a color, or a key v
    that is not a vertex of g or whose color is outside the palette.

    Two vertices are at distance <= 2 exactly when both lie in one closed
    neighborhood N[x], so the coloring is valid iff every N[x] is rainbow,
    a test in O(sum of degrees).  The violating pair named is the first
    (v, u), u > v, met by a scan over each vertex's distance-2 ball in id
    order.  That v has a same-colored u > v in some N[x], so it is the
    least member of any color class of two or more in any N[x]: one more
    pass over the N[x] that are not rainbow finds it, and only v's ball
    is scanned for u.  The ids come from g.vertices, so g.adj is read
    without validating each access."""
    col = coloring.color_of
    for v in g.vertices:
        if v not in col:
            return False, (v, v)
    for v, c in col.items():
        if not (v in g and 1 <= c <= coloring.palette_size):
            return False, (v, v)
    adj = g.adj
    clashes = [x for x in g.vertices
               if len({col[x], *map(col.__getitem__, adj[x])}) <= len(adj[x])]
    if not clashes:
        return True, None

    def least_shared(x):  # the least member of N[x] sharing its color
        ball = (x, *adj[x])
        count = Counter(map(col.__getitem__, ball))
        return min(y for y in ball if count[col[y]] > 1)

    v = min(map(least_shared, clashes))
    return False, next((v, u) for u in emb.dist2_neighborhood(g, v)
                       if u > v and col[u] == col[v])


def smallest_last_order(g):
    """Degeneracy (smallest-last) order of the base graph: reversed removal
    order by repeatedly deleting a vertex of minimum (degree, id).  A lazy
    min-heap gets one push per degree decrement, O(m log n).  Its keys are
    the ints degree * stride + id, stride = len(g.adj) > every id, which
    order as (degree, id) do.  Degrees only fall, so a vertex's first pop
    carries its current degree and its later, stale entries are skipped as
    removed.  The ids come from g.vertices, so g.adj is read without
    validating each access."""
    adj = g.adj
    stride = len(adj)
    key = [0] * stride
    for v in g.vertices:
        key[v] = len(adj[v]) * stride + v
    heap = [key[v] for v in g.vertices]
    heapq.heapify(heap)
    removed = [False] * stride
    order = []
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        v = pop(heap) % stride
        if removed[v]:
            continue
        removed[v] = True
        order.append(v)
        for u in adj[v]:
            if not removed[u]:
                key[u] -= stride
                push(heap, key[u])
    order.reverse()
    return order


def greedy_color(g):
    """Greedy coloring of the square in a smallest-last order of g: each
    vertex takes the least color no colored vertex within distance 2 has.

    The square is never built.  near[x] has bit c-1 set for each color c
    given so far to a neighbor of x.  The vertices within distance 2 of v,
    other than v, are the neighbors of the x in N[v], so v avoids the OR
    of those masks, and its color then joins near[x] for each neighbor x.
    A mask is one int per id, of at most palette bits, and each step is
    deg(v) + 1 C-speed int ORs, also at a hub whose mask holds Theta(n)
    colors: on gen_hub_triple(2999, 2999, 2999, True), n = 9000, greedy
    takes about 0.03 s where a union of color sets took 2.7-3.7 s
    (Python 3.11.7, 2 vCPUs)."""
    adj = g.adj
    near = [0] * len(adj)
    col = {}
    for v in smallest_last_order(g):
        used = near[v]
        for x in adj[v]:
            used |= near[x]
        c = (~used & (used + 1)).bit_length()  # the least color not in used
        col[v] = c
        bit = 1 << (c - 1)
        for x in adj[v]:
            near[x] |= bit
    return SquareColoring(max(col.values(), default=1), col)


def _class_row(near, adj, v):
    """The twin classes met by the closed distance-2 ball of v: those of
    N(v) and of each N(x), x in N(v).  v's own class is among them unless
    v has no neighbor."""
    return near[v].union(*[near[x] for x in adj[v]])


def dsatur_color(sq, budget=None):
    """DSATUR on the square graph; ties broken by higher square degree then
    lower id.  Returns None when the palette budget is exceeded.

    The square is that of sq.g, read through g's neighbor sets over its
    twin classes: the vertices with one and the same neighbor set S.  Twins
    have the same closed square ball, S and the neighbors of S, so they
    have one square degree and, while uncolored, one saturation; DSATUR
    only ever takes the uncolored member of least id.  A class is named by
    its least id, and near[x] holds the classes of N(x): N(x) itself when
    no neighbor of x has a twin, as on every x of a graph without twins.
    Every square row is a union of whole classes besides the row vertex's
    own, so _class_row reads the square at class level.

    Brelaz's bucket queue over the classes: the vertices are ranked once by
    (-square degree, id), so the tie-break is the lowest rank, and
    buckets[s] holds the rank of each class head, the uncolored member of
    least rank, of saturation s.  sat[k] has bit c-1 set for each color c
    seen by class k, and is -1, every bit set, once k is colored through.
    Coloring the head v with c hands the class on to its next member, one
    bucket higher, as c is new to all of the class, and moves each other
    class of v's row that had not seen c up one bucket: one pass over the
    class row of v.  On gen_hub_triple(999, 999, 999, True), n = 3000,
    whose square is nearly complete, the rows hold at most 6 classes, and
    DSATUR takes 0.02 s where a pass over every square edge took 2.7 s
    (Python 3.11.7, 2 vCPUs).  Without twins the classes are the vertices
    and each row is v's square row plus v.  The memory is O(n + m): the
    rows are dropped at once.  A bucket that empties is replaced by a
    fresh set, as a set never shrinks its table."""
    g = sq.g
    adj = g.adj
    vs = g.vertices
    rep = list(range(len(adj)))  # the class of each vertex
    nxt = [None] * len(adj)      # the next member of its class, by id
    near = adj
    first = dict(zip(map(adj.__getitem__, reversed(vs)), reversed(vs)))
    heads = first.values()
    twins = [v for v in vs if first[adj[v]] != v] if len(first) < g.n else ()
    extra = {}  # class -> its size less 1, for classes of two or more
    if twins:
        near = list(adj)
        last = {}
        for v in twins:
            k = rep[v] = first[adj[v]]
            nxt[last.get(k, k)] = v
            last[k] = v
            extra[k] = extra.get(k, 0) + 1
        for k in extra:
            for x in adj[k]:
                near[x] = {rep[u] for u in adj[x]}
    deg = [0] * len(adj)
    for v in heads:
        deg[v] = len(_class_row(near, adj, v)) - 1
    for k, e in extra.items():  # each class whose row holds k meets e more
        for h in _class_row(near, adj, k):
            deg[h] += e
    for v in twins:
        deg[v] = deg[rep[v]]
    # a stable sort keeps increasing ids among equal square degrees
    by_rank = sorted(vs, key=deg.__getitem__, reverse=True)
    rank = [0] * len(adj)  # of each vertex, then of each class's head
    for r, v in enumerate(by_rank):
        rank[v] = r
    sat = [0] * len(adj)
    buckets = [set(map(rank.__getitem__, heads))]  # one per saturation
    col = {}
    palette = top = 0
    for _ in range(g.n):
        while not buckets[top]:
            top -= 1
        b = buckets[top]
        r = min(b)
        b.discard(r)
        if not b:
            buckets[top] = set()
        v = by_rank[r]
        k = rep[v]
        m = sat[k]
        c = (~m & (m + 1)).bit_length()  # the least color not in m
        if budget is not None and c > budget:
            return None
        col[v] = c
        if c > palette:
            palette = c
            buckets.append(set())
        bit = 1 << (c - 1)
        h = nxt[v]
        if h is None:
            sat[k] = -1
        else:
            sat[k] = m | bit
            rank[k] = r = rank[h]
            top += 1
            buckets[top].add(r)
        for u in _class_row(near, adj, v):
            su = sat[u]
            if su & bit:  # colored through, or c already seen
                continue
            sat[u] = su | bit
            s = su.bit_count()
            r = rank[u]
            b = buckets[s]
            b.discard(r)
            if not b:
                buckets[s] = set()
            buckets[s + 1].add(r)
            if s >= top:
                top = s + 1
    return SquareColoring(palette, col)


def greedy_clique(sq):
    """Greedy clique in the square: grow from the highest-degree vertex."""
    adj = dict(sq.adj)
    if not adj:
        return ()
    start = max(adj, key=lambda v: (len(adj[v]), -v))
    clique = [start]
    cand = set(adj[start])
    while cand:
        v = max(cand, key=lambda x: (len(adj[x] & cand), -x))
        clique.append(v)
        cand &= adj[v]
    return tuple(sorted(clique))


class _Timeout(Exception):
    pass


def exact_chi2(g, time_limit=60.0):
    """Exact chi_2 by decreasing-k feasibility search on the square.

    Lower bound: greedy clique (plus Delta+1); upper bound: DSATUR.  The
    clique is precolored to break color symmetry; colors are explored in
    ascending order and capped at one above the current maximum.  On timeout
    the best bounds so far are returned with exact=False.
    """
    sq = emb.square(g)
    clique = greedy_clique(sq)
    lb = max(len(clique), g.max_degree() + 1)
    best = dsatur_color(sq)
    ub = best.palette_size
    deadline = time.monotonic() + time_limit
    adj = dict(sq.adj)
    order = sorted(g.vertices,
                   key=lambda v: (v not in clique, -len(adj[v]), v))
    pos = {v: i for i, v in enumerate(order)}
    nbr_pos = [sorted(pos[u] for u in adj[v]) for v in order]

    def feasible(k):
        colors = [0] * g.n  # by position in order
        for i, v in enumerate(order):
            if v in clique:
                colors[i] = clique.index(v) + 1
        # the clique holds positions 0..len-1, colored 1..len.  Depth-first
        # from there without recursion: untried holds, per open position,
        # the colors it has yet to try, ascending, and high[-1] is the
        # largest color used before position i
        i = len(clique)
        untried, high = [], [i]
        while True:
            if time.monotonic() > deadline:
                raise _Timeout
            if i == g.n:
                return {order[i]: colors[i] for i in range(g.n)}
            forbidden = {colors[j] for j in nbr_pos[i] if j < i}
            cap = min(k, high[-1] + 1)
            untried.append(iter([c for c in range(1, cap + 1)
                                 if c not in forbidden]))
            while (c := next(untried[-1], None)) is None:
                untried.pop()
                if not untried:
                    return None
                high.pop()
                i -= 1
            colors[i] = c
            high.append(max(high[-1], c))
            i += 1

    exact = True
    while ub > lb:
        try:
            sol = feasible(ub - 1)
        except _Timeout:
            exact = False
            break
        if sol is None:
            break
        best = SquareColoring(ub - 1, sol)
        ub -= 1
    return ExactResult(ub, best, clique, exact)
