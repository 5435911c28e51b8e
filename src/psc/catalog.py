"""Detectors for the reducible configurations of the square-coloring proof.

Each witness carries the vertices named as in the defining statement and a
reduction recipe that the reducer can apply through the embedding mutations.
Detection order inside reports is deterministic: kind rank, then actors.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Callable, NamedTuple

from . import embedding as emb
from .budgets import LARGE, SMALL, Budget
from .errors import DeltaTooLarge


@dataclass(frozen=True)
class ConfigWitness:
    kind: str
    actors: tuple
    recipe: dict
    faces: tuple = field(default=())

    def to_obj(self):
        return {"kind": self.kind, "actors": list(self.actors),
                "faces": list(self.faces), "recipe": self.recipe}


def report_json(witnesses):
    return json.dumps([w.to_obj() for w in witnesses])


def _sort_key(w):
    return (KIND_RANK[w.kind], w.actors)


# -- individual detectors ----------------------------------------------------
#
# Each kind is defined once, by a function of one vertex, edge or face that
# lists its witnesses there.  A CATALOG row's _Track names that function and
# the elements it runs over: the row's detector runs it over the whole
# graph (_scan), and a WitnessIndex row re-runs it only on the elements a
# mutation marked.  These functions take their ids from the graph itself,
# so they read g.adj and g.rotation without validating each access.  They
# list nothing at a removed id, whose rows are None: the vertex functions
# read its degree as 0.

class _FaceSets(dict):
    """Vertex -> the set of the faces on whose boundary it lies, computed
    on first use.  A face is held by its id(): one tuple object serves
    every corner of a face (emb.trace_faces, emb._derived), and hashing
    the ids costs O(1) per corner where hashing the walks costs their
    length."""

    def __init__(self, g):
        super().__init__()
        self.g = g

    def __missing__(self, v):
        s = self[v] = set(map(id, self.g.face_at[v]))
        return s

    def is_cut(self, v):
        """Whether one face's corner walk visits v twice; in a connected
        plane graph that happens exactly at the cut vertices."""
        return len(self[v]) < len(self.g.face_at[v])


def find_edge_separator(g):
    """The EdgeSeparator of the first edge uv, in _edges order, whose
    endpoint removal disconnects the graph, or None."""
    return _scan(_SEPARATORS, g)


def _separators_at(g, cut=None):
    """The witnesses at an edge (u, v), u < v, of g: its EdgeSeparator if
    G - {u, v} is disconnected, with the component of
    _smallest_component_without.  cut.get(x) is nonzero exactly at the cut
    vertices x of g: a WitnessIndex passes the counts it carries, and by
    default each vertex is tested on first use (_FaceSets.is_cut).

    Only candidate edges get a BFS: those with a cut-vertex end, and the
    face chords, whose ends lie on one face walk without being consecutive
    on it.  If neither end is a cut vertex, each face walk visits u and v
    once at most, so uv is a face chord exactly when they share a face
    other than the two on either side of uv, whose walks pass along uv;
    and uv separates exactly when it is a face chord.
    - If uv separates, every component of G - {u, v} holds a neighbour of
      u (else v would be a cut vertex).  Around u the neighbours other
      than v change component at least twice, at most once across v, so
      some x, y consecutive around u lie in different components.  The
      face at the corner x-u-y is not beside uv, and its walk from y back
      to x avoids u (a face walk visits a non-cut vertex once), so it
      passes through v, and u lies between x and y on it, not next to v.
    - If the walk of a face F is u P v Q u with P and Q non-empty, a curve
      through F from u to v closes with the edge uv into a Jordan curve
      that meets the graph in u, v and uv only.  At u it parts the edge to
      the last vertex of Q from the edge to the first vertex of P, the two
      that flank F's corner, so these two lie on opposite sides of it and
      in different components of G - {u, v}."""
    at, adj = _FaceSets(g), g.adj
    is_cut = at.is_cut if cut is None else cut.get

    def of(e):
        u, v = e
        if adj[u] is not None and v in adj[u] and (
                is_cut(u) or is_cut(v) or len(at[u] & at[v]) > 2):
            comp = _smallest_component_without(g, u, v)
            if comp is not None:
                return [ConfigWitness(
                    kind="EdgeSeparator", actors=(u, v),
                    recipe={"op": "split", "u": u, "v": v,
                            "component": sorted(comp)})]
        return []
    return of


def _smallest_component_without(g, u, v):
    """None if G minus {u, v} is connected.  Otherwise the BFS component of
    its first vertex or the union of all the other components, whichever
    is smaller (the first on a tie); with three or more components the
    union is not itself a component."""
    rest = [x for x in g.vertices if x != u and x != v]
    if not rest:
        return None
    comp = emb.component(g.adj, rest[0], (u, v))
    if len(comp) == len(rest):
        return None
    other = [x for x in rest if x not in comp]
    return comp if len(comp) <= len(other) else other


def _two_small_at(g, cap):
    """The witnesses at a face f of g: its FaceTwoSmall if f has length 4
    or more and carries non-adjacent vertices of degree below cap, for the
    first such pair in walk order, smaller id first, with the chord
    recipe.  _face_marks proves which faces the row re-keys after a
    mutation."""
    rot, adj = g.rotation, g.adj

    def of(f):
        if len(f) < 4 or emb.dart_face(g, emb.face_dart(f)) != f:
            return []
        small = [v for v in dict.fromkeys(f) if len(rot[v]) < cap]
        for i, u in enumerate(small):
            for v in small[i + 1:]:
                if v not in adj[u]:
                    a, b = _pair(u, v)
                    return [ConfigWitness(
                        kind="FaceTwoSmall", actors=(a, b),
                        faces=(emb.face_dart(f),),
                        recipe={"op": "add_edge", "u": a, "v": b,
                                "face": emb.face_dart(f)})]
        return []
    return of


def find_face_two_small(g, cap):
    """The FaceTwoSmall of the first face of g, by least corner, that
    carries one, or None."""
    return _scan(_FACES, g, cap)


def _is_triangulated(g, v):
    return all(len(f) == 3 for f in g.face_at[v])


def _triangle_corners(g, v):
    """The rotation positions i around v whose corner face, the one between
    neighbours i-1 and i, is a triangle."""
    return [i for i, f in enumerate(g.face_at[v]) if len(f) == 3]


def _low_degree(g, v):
    """The Deg1 or Deg2 witness of v, as a list."""
    r = g.rotation[v] or ()
    if len(r) == 1:
        return [ConfigWitness(
            kind="Deg1", actors=(v,), recipe={"op": "delete", "v": v})]
    if len(r) == 2:
        u, w = sorted(r)
        return [ConfigWitness(
            kind="Deg2", actors=(v, u, w),
            recipe={"op": "delete_and_add", "v": v, "anchor": u,
                    "edges": [[u, w]]})]
    return []


def _low_degree_configs(g):
    """A Deg1 or Deg2 witness for every vertex of degree 1 or 2."""
    return _scan(_LOW_DEGREE, g)


def _small_vertex(g, cap, v):
    """The degree-3 and degree-4 configurations at v for maximum degree
    cap."""
    d = len(g.rotation[v] or ())
    if d == 3:
        return _deg3_configs(g, v, cap)
    if d == 4:
        return _deg4_configs(g, v)
    return []


def find_small_vertex_configs(g, cap):
    """All matches of the degree-3 and degree-4 forbidden configurations
    for maximum degree cap (the degree-1/2 ones come from
    _low_degree_configs)."""
    return _scan(_SMALL_VERTEX, g, cap)


def _deg3_configs(g, v, cap):
    out = []
    rot = g.rotation
    nbrs = g.adj[v]
    small_nbrs = sorted(u for u in nbrs if len(rot[u]) <= 5)
    if small_nbrs:
        u = small_nbrs[0]
        v1, v2 = sorted(x for x in nbrs if x != u)
        out.append(ConfigWitness(
            kind="Deg3SmallNbr", actors=(v, u, v1, v2),
            recipe={"op": "delete_and_add", "v": v, "anchor": u,
                    "edges": [[u, v1], [u, v2]]}))
    around = g.face_at[v]
    tri = _triangle_corners(g, v)
    threshold = min(10, cap)
    if len(tri) >= 2 and any(len(rot[u]) <= threshold for u in nbrs):
        # two incident 3-faces always share a middle neighbor when deg(v)=3
        i, j = tri[0], tri[1]
        middle = rot[v][i] if (i + 1) % 3 == j or len(tri) == 3 else rot[v][j]
        others = sorted(x for x in nbrs if x != middle)
        out.append(ConfigWitness(
            kind="Deg3TwoTriangles", actors=(v, others[0], middle, others[1]),
            faces=(emb.face_dart(around[i]), emb.face_dart(around[j])),
            recipe={"op": "delete", "v": v}))
    if cap <= 10:
        if sorted(map(len, around)) == [3, 4, 4]:
            out.append(ConfigWitness(
                kind="Deg3TriTwoSquares", actors=(v,),
                faces=tuple(sorted(map(emb.face_dart, around))),
                recipe={"op": "delete", "v": v}))
    return out


def _deg4_configs(g, v):
    if not _is_triangulated(g, v):
        return []
    rot = g.rotation
    tri5 = sorted(u for u in g.adj[v]
                  if len(rot[u]) == 5 and _is_triangulated(g, u))
    low = sorted(u for u in g.adj[v] if len(rot[u]) < 12)
    if tri5 and low:
        return [ConfigWitness(
            kind="Deg4Tri5Tri", actors=(v, tri5[0], low[0]),
            recipe={"op": "delete", "v": v})]
    return []


def deletable_vertex_check(g, v, budget):
    """True when all neighbor pairs of v are at distance <= 2 in G-v and v
    has fewer than `budget` vertices at distance <= 2."""
    adj = g.adj
    nbrs = sorted(adj[v])
    if len(emb.dist2_neighborhood(g, v)) >= budget:
        return False
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b in adj[a]:
                continue
            if (adj[a] & adj[b]) - {v}:
                continue
            return False
    return True


def _deletable(g, budget, v):
    """The GenericDeletable witness of v, as a list."""
    if g.rotation[v] is not None and deletable_vertex_check(g, v, budget):
        return [ConfigWitness(kind="GenericDeletable", actors=(v,),
                              recipe={"op": "delete", "v": v})]
    return []


def find_generic_deletable(g, budget):
    """The GenericDeletable of the least vertex that passes
    deletable_vertex_check, or None."""
    return _scan(_DELETABLE, g, budget)


def _missing_edge(g, *pairs):
    """[[a, b]] for the first non-adjacent pair (a, b), else []."""
    for a, b in pairs:
        if b not in g.adj[a]:
            return [[a, b]]
    return []


def _weak(g, v):
    """The small-degree configurations at v for maximum degree at most 6;
    raises DeltaTooLarge if v's degree is above 6."""
    rot = g.rotation[v] or ()
    d = len(rot)
    if d > 6:
        raise DeltaTooLarge(f"Delta = {g.max_degree()} > 6")
    if d == 5 and _is_triangulated(g, v):
        return [ConfigWitness(
            kind="W_Tri5", actors=(v,), recipe={"op": "delete", "v": v})]
    if d == 4:
        tri = _triangle_corners(g, v)
        if len(tri) == 4:
            return [ConfigWitness(
                kind="W_Deg4ThreeTriangles", actors=(v,),
                recipe={"op": "delete", "v": v})]
        if len(tri) == 3:
            # face entry i sits between rotation neighbors i-1 and i;
            # the path ends flank the single non-triangle face
            gap = next(i for i in range(4) if i not in tri)
            a, dd = rot[gap - 1], rot[gap]
            edges = _missing_edge(g, (a, dd))
            return [ConfigWitness(
                kind="W_Deg4ThreeTriangles", actors=(v, a, dd),
                recipe={"op": "delete_and_add", "v": v, "anchor": a,
                        "edges": edges})]
    if d == 3:
        tri = _triangle_corners(g, v)
        if tri:
            i = tri[0]
            x, y = sorted((rot[i - 1], rot[i]))
            z = next(u for u in g.adj[v] if u != x and u != y)
            edges = _missing_edge(g, (x, z), (y, z))
            return [ConfigWitness(
                kind="W_Deg3Triangle", actors=(v, x, y, z),
                faces=(emb.face_dart(g.face_at[v][i]),),
                recipe={"op": "delete_and_add", "v": v, "anchor": z,
                        "edges": edges})]
    return []


def find_weak_configs_delta6(g):
    """Small-degree catalog for maximum degree at most 6; raises
    DeltaTooLarge on a graph of larger maximum degree."""
    return _scan(_WEAK, g)


# -- the catalog -------------------------------------------------------------

class _Track(NamedTuple):
    """A catalog row's definition, read by its detector and by its
    WitnessIndex row: elements(g), the row's vertices, edges u < v or faces
    of g, in the detector's order; at(g, *args), the function that lists
    the witnesses at an element e of g, empty when e has none or is not in
    g (made once per g, so that the elements share its work); first, None
    if the detector reports every witness, else first(g, e), e's place in
    elements(g), for a detector that reports the least witness at the
    first element that has one; marks(m), the elements whose witnesses the
    _Mutation m can have changed, where a first-match row may leave out
    those that can only have lost witnesses (see _Row)."""
    elements: Callable
    at: Callable
    first: Callable
    marks: Callable


def _scan(track, g, *args):
    """A row's detector on g: every witness, sorted, or the first one (see
    _Track.first) or None."""
    at = track.at(g, *args)
    if track.first is None:
        return sorted(chain.from_iterable(map(at, track.elements(g))),
                      key=_sort_key)
    found = next(filter(None, map(at, track.elements(g))), None)
    return found and _least(found)


def _least(witnesses):
    return min(witnesses, key=_sort_key)


def _itself(g, e):
    return e


def _per_vertex(fn, marks):
    """The _Track of a row that reports every witness fn(g, *args, v) lists
    at a vertex v, each with v as its first actor.  A vertex's witnesses
    change only when its row changes, or, unless they read its own row
    only, a neighbor's row or a face at it or at a neighbor changes: then
    it is touched, a neighbor of a touched id, or on or next to a face the
    mutation made (touched ids still present lie on such faces).  `marks`
    names the _Mutation field the row re-keys: "touched" if its witnesses
    read their own row only, else "near"."""

    def at(g, *args):
        return partial(fn, g, *args)
    return _Track(attrgetter("vertices"), at, None, attrgetter(marks))


def _edges(g):
    """The edges (u, v), u < v, of g in increasing order, the order of
    their places (_itself)."""
    adj = g.adj
    return ((u, v) for u in g.vertices
            for v in sorted(x for x in adj[u] if x > u))


def _pair(x, y):
    return (x, y) if x < y else (y, x)


def _chords(adj, f):
    """The pairs (x, y), x < y, of vertices of the face walk f that adj
    joins and that are not consecutive at a visit of x; a walk shorter
    than 4 has none.  A vertex visited once is joined to the two beside
    it, so only one joined to more of f can have such a pair."""
    k = len(f)
    if k < 4:
        return []
    on, found = set(f), []
    for i, near in enumerate(map(on.intersection, map(adj.__getitem__, f))):
        if len(near) > 2:
            x = f[i]
            found += [(x, y) for y in near
                      if x < y and y != f[i - 1] and y != f[i + 1 - k]]
    return found


def _separator_marks(m):
    """The edges find_edge_separator's row re-tests after m: those that
    can have come to separate.  After a chord, that is the chord itself,
    the pair of ids it touched.  After the deletion of a vertex of degree
    2 or more, they are the face chords (_chords) of the face it made and
    the edges at each vertex that face visits twice.  After the deletion
    of a vertex of degree 1, there are none.  An edge that stopped
    separating, or is gone, keeps its key until it reaches the heap top,
    where _Row.first drops it.

    Let xy be an edge of the graph after m, S = {x, y}, and K the graph
    before m.
    - After a chord ab other than xy, the graph minus S is K - S with at
      most the edge ab added, so it is connected if K - S is.
    - A deletion of w leaves K - S - w disconnected when K - S is
      connected only if w has neighbours p and q in different components
      of K - S - w, so never at degree 1.  Otherwise p and q lie on the
      merged face, and each of the two arcs of its walk between them
      meets S, else that arc would join them in K - S - w.  So the walk
      visits x or y twice, or it visits each once, on different arcs:
      then x and y are not consecutive on it, and xy is a face chord of
      it."""
    rot, adj = m.new.rotation, m.new.adj
    removed = [x for x in m.touched if rot[x] is None]
    if not removed:
        return [_pair(*m.touched)]
    if len(m.old.rotation[removed[0]]) == 1:
        return []
    out = []
    for f in m.made:
        out += _chords(adj, f)
        for x in _repeated(f):
            out += [_pair(x, y) for y in adj[x]]
    return out


def _face_marks(m):
    """The faces find_face_two_small's row re-keys after m: those that can
    have gained a witness or moved their place (emb.least_corner), less
    those shorter than 4, which never have one.  After the deletion of w
    they are the faces at w's neighbours, the merged face among them;
    after a chord, its two halves and the faces whose least corner is at
    a chord end.  A face that lost its witness, or is gone, keeps its key
    until it reaches the heap top, where _Row.first drops it.

    A face of the graph after m that m did not make is a face before m
    with the same walk.  Its place moves only if the rotation of its least
    corner's vertex changed, and that vertex is touched.  Its witness
    reads the degrees of its vertices and which of them are adjacent.
    - A chord ab only raises the degrees of a and b and joins them, so
      such a face keeps or loses its witness, and only its pair changes.
    - A deletion of w lowers only the degrees of w's neighbours and parts
      only pairs at w, which such a face does not visit, so it can gain a
      witness only if it passes through a neighbour of w."""
    rot, at = m.new.rotation, m.new.face_at
    kept = [x for x in m.touched if rot[x] is not None]
    if len(kept) < len(m.touched):  # a deletion: kept are w's neighbours
        faces = [f for x in kept for f in at[x]]
    else:
        faces = [*m.made, *(f for x in kept for f in at[x] if f[0] == x)]
    return [f for f in faces if len(f) > 3]


def _no_args(budget):
    return ()


# The rows' definitions; the separator, face and deletable rows report only
# their first match.
_LOW_DEGREE = _per_vertex(_low_degree, "touched")
_SEPARATORS = _Track(_edges, _separators_at, _itself, _separator_marks)
_FACES = _Track(attrgetter("faces"), _two_small_at, emb.least_corner,
                _face_marks)
_SMALL_VERTEX = _per_vertex(_small_vertex, "near")
_WEAK = _per_vertex(_weak, "near")
_DELETABLE = _per_vertex(_deletable, "near")._replace(first=_itself)

# The catalog: one row per detector, ordered by the lowest rank it emits.
# A row holds the detector's name (looked up in this module at call time),
# the kinds it emits with their reducer priority, the regimes it runs in,
# a function budget -> the detector's arguments after g, and the _Track
# that defines the row for its detector and for a WitnessIndex.
CATALOG = (
    ("_low_degree_configs", {"Deg1": 0, "Deg2": 1}, (LARGE, SMALL), _no_args,
     _LOW_DEGREE),
    ("find_edge_separator", {"EdgeSeparator": 2}, (LARGE, SMALL), _no_args,
     _SEPARATORS),
    ("find_face_two_small", {"FaceTwoSmall": 3}, (LARGE, SMALL),
     lambda b: (b.delta_context,), _FACES),
    ("find_small_vertex_configs",
     {"Deg3SmallNbr": 4, "Deg3TwoTriangles": 5, "Deg3TriTwoSquares": 6,
      "Deg4Tri5Tri": 7}, (LARGE,), lambda b: (b.delta_context,),
     _SMALL_VERTEX),
    ("find_weak_configs_delta6",
     {"W_Deg3Triangle": 4, "W_Deg4ThreeTriangles": 5, "W_Tri5": 6}, (SMALL,),
     _no_args, _WEAK),
    ("find_generic_deletable", {"GenericDeletable": 8}, (LARGE, SMALL),
     lambda b: (b.palette_size,), _DELETABLE),
)

KIND_RANK = {kind: rank for _, kinds, *_ in CATALOG
             for kind, rank in kinds.items()}


# -- aggregation -------------------------------------------------------------

def _run_row(detector, g, args):
    """A row's witnesses as a list."""
    out = globals()[detector](g, *args)
    if isinstance(out, list):
        return out
    return [] if out is None else [out]


def _detect(g, budget, regimes):
    """The witnesses of the rows run in the regimes, sorted.  Each row's
    list is sorted already and the rows come in rank order, so a row is
    appended as it is unless its first witness sorts before the last one
    so far.  That happens only where two rows' ranks overlap (the small
    regime's weak row, ranks 4-6, and the large regime's small-vertex row,
    ranks 4-7, both run for the audit): that row is merged in, the earlier
    row's witness first on a tie, as a stable sort would put it."""
    found = []
    for detector, _, in_regimes, args, _ in CATALOG:
        if regimes.isdisjoint(in_regimes):
            continue
        row = _run_row(detector, g, args(budget))
        if found and row and _sort_key(row[0]) < _sort_key(found[-1]):
            found = list(heapq.merge(found, row, key=_sort_key))
        else:
            found += row
    return found


def detect_all(g, budget=None):
    """All witnesses of the catalog rows of the budget's regime, sorted by
    reducer priority (kind rank, then smallest actors)."""
    if budget is None:
        budget = Budget.for_graph(g)
    return _detect(g, budget, {budget.regime})


def detect_for_audit(g):
    """All witnesses of the rows of the graph's regime and of the large
    regime, at the graph's own budget, for audit cross-referencing."""
    budget = Budget.for_graph(g)
    return _detect(g, budget, {LARGE, budget.regime})


def find_first_witness(g, budget):
    """The witness detect_all(g, budget) lists first, from a fresh
    WitnessIndex (`psc detect`; the reducer keeps its index across
    mutations)."""
    return WitnessIndex(g, budget).first()


# -- the first witness across a reduction -----------------------------------

class _Mutation(NamedTuple):
    """One deletion or chord from `old` to `new`, as the rows read it: the
    ids whose rows it changed, the faces it made, the vertices on those,
    and those with their neighbors plus the touched ids (`near`)."""
    old: emb.EmbeddedGraph
    new: emb.EmbeddedGraph
    touched: tuple
    made: list
    on_new: set
    near: set


def _repeated(f):
    """The vertices the walk of face f visits more than once; a walk
    shorter than 4 visits none twice, for a simple graph has no loop."""
    if len(f) < 4 or len(set(f)) == len(f):
        return ()
    return [x for x, k in Counter(f).items() if k > 1]


class WitnessIndex:
    """find_first_witness(g, budget), kept across the mutations of a
    reduction.  Each catalog row of the budget's regime is a _Row driven
    by the row's _Track: at every mutation each row marks the elements
    whose witnesses it can have changed (_Track.marks), and it re-keys
    them only when first() reaches it, so a row behind the winner lists
    nothing.

    cut[v] counts the faces of g whose walk visits v more than once, so v
    is a cut vertex exactly when it is nonzero (see _FaceSets.is_cut).  A
    mutation changes it only for the vertices of the faces it destroys and
    makes.  The separator row reads it in place of testing each vertex."""

    def __init__(self, g, budget):
        self.g = g
        self.budget = budget
        self.cut = Counter(x for f in g.faces for x in _repeated(f))
        self._rows = {
            detector: (min(kinds.values()), _Row(
                g, track, (self.cut,) if track is _SEPARATORS
                else args(budget)))
            for detector, kinds, regimes, args, track in CATALOG
            if budget.regime in regimes}

    def first(self):
        """The least, by (rank, actors), of the rows' first witnesses on
        self.g, the witness detect_all(self.g, self.budget) lists first.
        The rows come in rank order, and the search stops once no later
        row can emit a kind ranked below the best witness so far."""
        best = None
        for lowest, row in self._rows.values():
            if best is not None and KIND_RANK[best.kind] < lowest:
                break
            w = row.first(self.g)
            if w and (best is None or _sort_key(w) < _sort_key(best)):
                best = w
        return best

    def update(self, g, touched, made, destroyed):
        """Move to g, made from self.g by one deletion or one chord inside
        a face, as the helpers of emb.mutate_delete_vertex, mutate_add_edge,
        add_bypass_chord and add_edge_any_face return it: `touched` names
        the ids whose rotation rows it changed, the deleted vertex and its
        neighbors or the chord's two ends, `made` the faces of g that
        self.g lacks, and `destroyed` those of self.g that g lacks.  A
        destroyed face's vertices other than a removed id all lie on a
        face made in its place: the merged face of a deletion, or the two
        halves of a chord's face."""
        cut = self.cut
        on_new = set().union(*made)
        near = set(touched).union(on_new, *(g.adj[x] for x in on_new))
        for f in destroyed:
            for x in _repeated(f):
                cut[x] -= 1
        for f in made:
            for x in _repeated(f):
                cut[x] += 1
        m = _Mutation(self.g, g, touched, made, on_new, near)
        for _, row in self._rows.values():
            row.mark(m)
        self.g = g


class _Row:
    """A catalog row kept by a WitnessIndex: the key of each element that
    has witnesses, in a heap of (key, element) whose stale entries are
    skipped, the elements marked since first() last re-keyed them, and
    `todo`, an iterator over the elements of the index's first graph,
    `start`, in place order.  The key is the element's place
    (_Track.first) in a row whose detector reports its first witness, else
    the least (rank, actors) of its witnesses.

    A row that reports every witness reads all of `todo` the first time
    first() reaches it.  A first-match row pulls elements from it only
    while their place is at most the heap top's, and keeps the one it
    pulled past the top, so a fresh row stops at its first witness, as its
    detector does.  A pulled element's place is taken on `start`, which is
    exact for an element no mutation has marked: edges and vertices are
    their own places, and a face's place moves only when its least-corner
    vertex is touched, which marks the face unless it is too short to
    have a witness.  Marked elements are re-keyed on g before anything is
    pulled, and a pulled element that is keyed already is not listed
    again.  The heap top is listed too, unless its re-key made its list in
    the same call, and it leaves the heap when it has no witness; so the
    top is exact.  A place does not move when an element loses its
    witnesses, so a first-match row's marks can leave such an element
    out: it is dropped once it reaches the top.  A row with nothing
    marked, keyed or left in `todo` (None once read to its end) has no
    witness, and first() returns at once."""

    def __init__(self, g, track, args):
        self.track = track
        self.args = args
        self.key = {}
        self.heap = []
        self.dirty = set()
        self.start = g
        self.todo = iter(track.elements(g))
        self.pulled = None

    def mark(self, m):
        self.dirty.update(self.track.marks(m))

    def first(self, g):
        """The least, by (rank, actors), of the witnesses the row's
        detector reports on g."""
        place, key, heap = self.track.first, self.key, self.heap
        if not (self.dirty or heap or self.todo):
            return None
        at = self.track.at(g, *self.args)
        listed = {}  # element -> its witnesses, for those listed here
        if place is None and self.todo:
            self.dirty.update(self.todo)
            self.todo = None
        for e in self.dirty:
            found = at(e)
            if not found:
                key.pop(e, None)
                continue
            listed[e] = found
            k = min(map(_sort_key, found)) if place is None else place(g, e)
            if key.get(e) != k:
                key[e] = k
                heapq.heappush(heap, (k, e))
        self.dirty.clear()
        while heap:  # drop stale entries and a top without witnesses
            k, top = heap[0]
            if key.get(top) == k:
                if top not in listed:
                    listed[top] = at(top)
                if listed[top]:
                    break
                del key[top]
            heapq.heappop(heap)
        if place is not None and self.todo:
            e = next(self.todo, None) if self.pulled is None else self.pulled
            while e is not None and not (
                    heap and heap[0][0] < place(self.start, e)):
                if e not in key and (found := at(e)):
                    listed[e] = found
                    key[e] = k = place(self.start, e)
                    heapq.heappush(heap, (k, e))
                    e = None  # stopped after keying e, not at the end
                    break
                e = next(self.todo, None)
            else:
                if e is None:
                    self.todo = None
            self.pulled = e
        return _least(listed[heap[0][1]]) if heap else None


# -- independent predicate checkers (used by tests) --------------------------

def _delete(v):
    return {"op": "delete", "v": v}


def _delete_and_add(v, anchor, edges):
    return {"op": "delete_and_add", "v": v, "anchor": anchor, "edges": edges}


def check_witness(g, w, budget=None):
    """Re-evaluate the defining predicate of a witness kind on g.  The
    actors must name the vertices in the positions the detector gives them,
    and the recipe and faces must be the ones it derives from them.  A
    face is named by its least corner's dart (emb.face_dart), as in the
    witness's JSON form."""
    if budget is None:
        budget = Budget.for_graph(g)
    k, a, r = w.kind, w.actors, w.recipe
    if not a or not all(x in g for x in a):
        return False
    faces = [emb.dart_face(g, dart) for dart in w.faces]
    v = a[0]
    d = g.degree(v)
    if k == "Deg1":
        return a == (v,) and not w.faces and r == _delete(v) and d == 1
    if k == "Deg2":
        nb = tuple(sorted(g.neighbors(v)))
        return (d == 2 and a == (v, *nb) and not w.faces
                and r == _delete_and_add(v, nb[0], [list(nb)]))
    if k == "EdgeSeparator":
        # component: a non-empty proper union of components of G - {u, v}
        if len(a) != 2 or w.faces:
            return False
        u, v = a
        comp = set(r.get("component", ()))
        rest = set(g.vertices) - {u, v}
        return (r == {"op": "split", "u": u, "v": v,
                      "component": sorted(comp)}
                and g.adjacent(u, v)
                and bool(comp) and comp < rest
                and all(g.neighbors(x) <= comp | {u, v} for x in comp))
    if k == "FaceTwoSmall":
        if len(a) != 2 or len(faces) != 1 or faces[0] is None:
            return False
        u, v = a
        face = faces[0]
        cap = budget.delta_context
        return (u < v and r == {"op": "add_edge", "u": u, "v": v,
                                "face": emb.face_dart(face)}
                and len(face) >= 4 and u in face and v in face
                and g.degree(u) < cap and g.degree(v) < cap
                and not g.adjacent(u, v))
    if k == "Deg3SmallNbr":
        # the small neighbour u, then the other two in increasing order
        if len(a) != 4 or d != 3 or w.faces:
            return False
        u = a[1]
        rest = tuple(sorted(g.neighbors(v) - {u}))
        return (g.adjacent(v, u) and g.degree(u) <= 5 and a[2:] == rest
                and r == _delete_and_add(v, u, [[u, x] for x in rest]))
    if k == "Deg3TwoTriangles":
        # the two outer neighbours in increasing order flank the middle one,
        # which lies on both named triangles at v
        if len(a) != 4 or d != 3 or len(faces) != 2:
            return False
        _, x, mid, y = a
        thr = min(10, budget.delta_context)
        return (x < y and {x, mid, y} == g.neighbors(v) and r == _delete(v)
                and faces[0] != faces[1]
                and all(f in g.face_at[v] and len(f) == 3 and mid in f
                        for f in faces)
                and any(g.degree(u) <= thr for u in g.neighbors(v)))
    if k == "Deg3TriTwoSquares":
        around = g.face_at[v]
        return (a == (v,)
                and list(w.faces) == sorted(map(emb.face_dart, around))
                and r == _delete(v) and d == 3
                and sorted(map(len, around)) == [3, 4, 4]
                and budget.delta_context <= 10)
    if k == "Deg4Tri5Tri":
        if len(a) != 3 or w.faces or r != _delete(v):
            return False
        _, five, low = a
        return (d == 4 and _is_triangulated(g, v)
                and g.degree(five) == 5 and _is_triangulated(g, five)
                and g.adjacent(v, five)
                and g.adjacent(v, low) and g.degree(low) < 12)
    if k == "GenericDeletable":
        return (a == (v,) and not w.faces and r == _delete(v)
                and deletable_vertex_check(g, v, budget.palette_size))
    if k == "W_Tri5":
        return (a == (v,) and not w.faces and r == _delete(v) and d == 5
                and _is_triangulated(g, v))
    if k == "W_Deg4ThreeTriangles":
        if d != 4 or w.faces:
            return False
        tri = _triangle_corners(g, v)
        if len(tri) == 4:
            return a == (v,) and r == _delete(v)
        if len(tri) != 3:
            return False
        # the ends flank the single non-triangle face, as in the detector
        rot = g.rotation[v]
        gap = next(i for i in range(4) if i not in tri)
        x, y = rot[gap - 1], rot[gap]
        return (a == (v, x, y)
                and r == _delete_and_add(v, x, _missing_edge(g, (x, y))))
    if k == "W_Deg3Triangle":
        # x < y flank the named triangle at v, z is the third neighbour
        if len(a) != 4 or d != 3 or len(faces) != 1:
            return False
        _, x, y, z = a
        f = faces[0]
        return (x < y and {x, y, z} == g.neighbors(v)
                and f in g.face_at[v] and len(f) == 3 and x in f and y in f
                and r == _delete_and_add(
                    v, z, _missing_edge(g, (x, z), (y, z))))
    raise ValueError(f"unknown witness kind {k}")
