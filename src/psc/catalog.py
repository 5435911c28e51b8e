"""Detectors for the reducible configurations of the square-coloring proof.

Each witness carries the vertices named as in the defining statement and a
reduction recipe that the reducer can apply through the embedding mutations.
Detection order inside reports is deterministic: kind rank, then actors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import embedding as emb
from .budgets import LARGE, SMALL, Budget
from .errors import DeltaTooLarge


def _no_args(budget):
    return ()


# The catalog: one row per detector, ordered by the lowest rank it emits.
# A row holds the detector's name (looked up in this module at call time),
# the kinds it emits with their reducer priority, the regimes it runs in,
# and a function budget -> the detector's arguments after g.
CATALOG = (
    ("_low_degree_configs", {"Deg1": 0, "Deg2": 1}, (LARGE, SMALL), _no_args),
    ("find_edge_separator", {"EdgeSeparator": 2}, (LARGE, SMALL), _no_args),
    ("find_face_two_small", {"FaceTwoSmall": 3}, (LARGE, SMALL),
     lambda b: (b.delta_context,)),
    ("find_small_vertex_configs",
     {"Deg3SmallNbr": 4, "Deg3TwoTriangles": 5, "Deg3TriTwoSquares": 6,
      "Deg4Tri5Tri": 7}, (LARGE,), lambda b: (b.delta_context,)),
    ("find_weak_configs_delta6",
     {"W_Deg3Triangle": 4, "W_Deg4ThreeTriangles": 5, "W_Tri5": 6}, (SMALL,),
     _no_args),
    ("find_generic_deletable", {"GenericDeletable": 8}, (LARGE, SMALL),
     lambda b: (b.palette_size,)),
)

KIND_RANK = {kind: rank for _, kinds, _, _ in CATALOG
             for kind, rank in kinds.items()}


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

def find_edge_separator(g):
    """First edge uv (sorted) whose endpoint removal disconnects the graph.

    Only candidate edges get a BFS: those with a cut-vertex end, and those
    whose ends share a face other than the two on either side of uv.  Every
    separating edge is a candidate.  If neither end is a cut vertex, every
    component of G - {u, v} holds a neighbour of u (else v would be a cut
    vertex).  Around u the neighbours other than v change component at
    least twice, at most once across v, so some x, y consecutive around u
    lie in different components.  The face at the corner x-u-y is not
    beside uv, and its walk from y back to x avoids u (a face walk visits
    a non-cut vertex once), so it passes through v.  The first candidate
    that separates is therefore the first separating edge."""
    if g.n < 4:
        return None
    at, cut = _faces_at(g)
    for u in g.vertices:
        for v in sorted(x for x in g.neighbors(u) if x > u):
            # both faces beside uv hold u and v; when they are one face,
            # uv is a bridge and has a cut-vertex end
            if cut[u] or cut[v] or len(at[u] & at[v]) > 2:
                comp = _smallest_component_without(g, u, v)
                if comp is not None:
                    return ConfigWitness(
                        kind="EdgeSeparator", actors=(u, v),
                        recipe={"op": "split", "u": u, "v": v,
                                "component": sorted(comp)})
    return None


def _faces_at(g):
    """Per vertex (dicts), the set of faces on whose boundary it lies, and
    whether one face's corner walk visits it twice; in a connected plane
    graph that happens exactly at the cut vertices."""
    at = {v: set(g.face_at[v]) for v in g.vertices}
    return at, {v: len(s) < len(g.face_at[v]) for v, s in at.items()}


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


def find_face_two_small(g, cap):
    """A 4+ face carrying two non-adjacent vertices of degree below cap,
    with the chord recipe."""
    for fi, face in enumerate(g.faces):
        if len(face) < 4:
            continue
        small = [v for v in dict.fromkeys(face) if g.degree(v) < cap]
        if len(small) < 2:
            continue
        for i, u in enumerate(small):
            for v in small[i + 1:]:
                if not g.adjacent(u, v):
                    a, b = min(u, v), max(u, v)
                    return ConfigWitness(
                        kind="FaceTwoSmall", actors=(a, b), faces=(fi,),
                        recipe={"op": "add_edge", "u": a, "v": b, "face": fi})
    return None


def _is_triangulated(g, v):
    return all(len(g.faces[i]) == 3 for i in g.face_at[v])


def _triangle_corners(g, v):
    """The rotation positions i around v whose corner face, the one between
    neighbours i-1 and i, is a triangle."""
    return [i for i, fi in enumerate(g.face_at[v]) if len(g.faces[fi]) == 3]


def _low_degree_configs(g):
    """A Deg1 or Deg2 witness for every vertex of degree 1 or 2."""
    out = []
    for v in g.vertices:
        d = g.degree(v)
        if d == 1:
            out.append(ConfigWitness(
                kind="Deg1", actors=(v,), recipe={"op": "delete", "v": v}))
        elif d == 2:
            u, w = sorted(g.neighbors(v))
            out.append(ConfigWitness(
                kind="Deg2", actors=(v, u, w),
                recipe={"op": "delete_and_add", "v": v, "anchor": u,
                        "edges": [[u, w]]}))
    return out


def find_small_vertex_configs(g, cap):
    """All matches of the degree-3 and degree-4 forbidden configurations
    for maximum degree cap (the degree-1/2 ones come from
    _low_degree_configs)."""
    found = []
    for v in g.vertices:
        d = g.degree(v)
        if d == 3:
            found.extend(_deg3_configs(g, v, cap))
        elif d == 4:
            w4 = _deg4_config(g, v)
            if w4 is not None:
                found.append(w4)
    return sorted(found, key=_sort_key)


def _deg3_configs(g, v, cap):
    out = []
    small_nbrs = sorted(u for u in g.neighbors(v) if g.degree(u) <= 5)
    if small_nbrs:
        u = small_nbrs[0]
        v1, v2 = sorted(x for x in g.neighbors(v) if x != u)
        out.append(ConfigWitness(
            kind="Deg3SmallNbr", actors=(v, u, v1, v2),
            recipe={"op": "delete_and_add", "v": v, "anchor": u,
                    "edges": [[u, v1], [u, v2]]}))
    around = g.face_at[v]
    tri = _triangle_corners(g, v)
    threshold = min(10, cap)
    if len(tri) >= 2 and any(g.degree(u) <= threshold for u in g.neighbors(v)):
        # two incident 3-faces always share a middle neighbor when deg(v)=3
        rot = g.rotation[v]
        i, j = tri[0], tri[1]
        middle = rot[i] if (i + 1) % 3 == j or len(tri) == 3 else rot[j]
        others = sorted(x for x in g.neighbors(v) if x != middle)
        out.append(ConfigWitness(
            kind="Deg3TwoTriangles", actors=(v, others[0], middle, others[1]),
            faces=(around[i], around[j]),
            recipe={"op": "delete", "v": v}))
    if cap <= 10:
        degs = sorted(len(g.faces[fi]) for fi in around)
        if degs == [3, 4, 4]:
            out.append(ConfigWitness(
                kind="Deg3TriTwoSquares", actors=(v,), faces=tuple(sorted(around)),
                recipe={"op": "delete", "v": v}))
    return out


def _deg4_config(g, v):
    if not _is_triangulated(g, v):
        return None
    tri5 = sorted(u for u in g.neighbors(v)
                  if g.degree(u) == 5 and _is_triangulated(g, u))
    low = sorted(u for u in g.neighbors(v) if g.degree(u) < 12)
    if tri5 and low:
        return ConfigWitness(
            kind="Deg4Tri5Tri", actors=(v, tri5[0], low[0]),
            recipe={"op": "delete", "v": v})
    return None


def deletable_vertex_check(g, v, budget):
    """True when all neighbor pairs of v are at distance <= 2 in G-v and v
    has fewer than `budget` vertices at distance <= 2."""
    nbrs = sorted(g.neighbors(v))
    if len(emb.dist2_neighborhood(g, v)) >= budget:
        return False
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if g.adjacent(a, b):
                continue
            if (g.neighbors(a) & g.neighbors(b)) - {v}:
                continue
            return False
    return True


def find_generic_deletable(g, budget):
    for v in g.vertices:
        if deletable_vertex_check(g, v, budget):
            return ConfigWitness(kind="GenericDeletable", actors=(v,),
                                 recipe={"op": "delete", "v": v})
    return None


def _missing_edge(g, *pairs):
    """[[a, b]] for the first non-adjacent pair (a, b), else []."""
    for a, b in pairs:
        if not g.adjacent(a, b):
            return [[a, b]]
    return []


def find_weak_configs_delta6(g):
    """Small-degree catalog for maximum degree at most 6."""
    if g.max_degree() > 6:
        raise DeltaTooLarge(f"Delta = {g.max_degree()} > 6")
    found = []
    for v in g.vertices:
        d = g.degree(v)
        if d == 5 and _is_triangulated(g, v):
            found.append(ConfigWitness(
                kind="W_Tri5", actors=(v,), recipe={"op": "delete", "v": v}))
        elif d == 4:
            tri = _triangle_corners(g, v)
            if len(tri) == 4:
                found.append(ConfigWitness(
                    kind="W_Deg4ThreeTriangles", actors=(v,),
                    recipe={"op": "delete", "v": v}))
            elif len(tri) == 3:
                # face entry i sits between rotation neighbors i-1 and i;
                # the path ends flank the single non-triangle face
                rot = g.rotation[v]
                gap = next(i for i in range(4) if i not in tri)
                a, dd = rot[gap - 1], rot[gap]
                edges = _missing_edge(g, (a, dd))
                found.append(ConfigWitness(
                    kind="W_Deg4ThreeTriangles", actors=(v, a, dd),
                    recipe={"op": "delete_and_add", "v": v, "anchor": a,
                            "edges": edges}))
        elif d == 3:
            tri = _triangle_corners(g, v)
            if tri:
                i = tri[0]
                rot = g.rotation[v]
                x, y = sorted((rot[i - 1], rot[i]))
                z = next(u for u in g.neighbors(v) if u != x and u != y)
                edges = _missing_edge(g, (x, z), (y, z))
                found.append(ConfigWitness(
                    kind="W_Deg3Triangle", actors=(v, x, y, z),
                    faces=(g.face_at[v][i],),
                    recipe={"op": "delete_and_add", "v": v, "anchor": z,
                            "edges": edges}))
    return sorted(found, key=_sort_key)


# -- aggregation -------------------------------------------------------------

def _run_row(detector, g, args):
    """A row's witnesses as a list."""
    out = globals()[detector](g, *args)
    if isinstance(out, list):
        return out
    return [] if out is None else [out]


def _detect(g, budget, regimes):
    found = []
    for detector, _, in_regimes, args in CATALOG:
        if not regimes.isdisjoint(in_regimes):
            found += _run_row(detector, g, args(budget))
    return sorted(found, key=_sort_key)


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
    """The witness detect_all(g, budget) lists first (used by the reducer).
    Rows run in rank order and the search stops once no later row can emit
    a kind ranked below the best witness so far."""
    best = []
    for detector, kinds, regimes, args in CATALOG:
        if budget.regime not in regimes:
            continue
        if best and KIND_RANK[best[0].kind] < min(kinds.values()):
            break
        found = best + _run_row(detector, g, args(budget))
        best = [min(found, key=_sort_key)] if found else []
    return best[0] if best else None


# -- independent predicate checkers (used by tests) --------------------------

def _delete(v):
    return {"op": "delete", "v": v}


def _delete_and_add(v, anchor, edges):
    return {"op": "delete_and_add", "v": v, "anchor": anchor, "edges": edges}


def check_witness(g, w, budget=None):
    """Re-evaluate the defining predicate of a witness kind on g.  The
    actors must name the vertices in the positions the detector gives them,
    and the recipe and faces must be the ones it derives from them."""
    if budget is None:
        budget = Budget.for_graph(g)
    k, a, r = w.kind, w.actors, w.recipe
    if not a or not all(x in g for x in a):
        return False
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
        if len(a) != 2 or len(w.faces) != 1 or not 0 <= w.faces[0] < len(g.faces):
            return False
        u, v = a
        fi = w.faces[0]
        face = g.faces[fi]
        cap = budget.delta_context
        return (u < v and r == {"op": "add_edge", "u": u, "v": v, "face": fi}
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
        if len(a) != 4 or d != 3 or len(w.faces) != 2:
            return False
        _, x, mid, y = a
        thr = min(10, budget.delta_context)
        return (x < y and {x, mid, y} == g.neighbors(v) and r == _delete(v)
                and w.faces[0] != w.faces[1]
                and all(fi in g.face_at[v] and len(g.faces[fi]) == 3
                        and mid in g.faces[fi] for fi in w.faces)
                and any(g.degree(u) <= thr for u in g.neighbors(v)))
    if k == "Deg3TriTwoSquares":
        degs = sorted(len(g.faces[fi]) for fi in g.face_at[v])
        return (a == (v,) and w.faces == tuple(sorted(g.face_at[v]))
                and r == _delete(v) and d == 3 and degs == [3, 4, 4]
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
        if len(a) != 4 or d != 3 or len(w.faces) != 1:
            return False
        _, x, y, z = a
        fi = w.faces[0]
        return (x < y and {x, y, z} == g.neighbors(v)
                and fi in g.face_at[v] and len(g.faces[fi]) == 3
                and x in g.faces[fi] and y in g.faces[fi]
                and r == _delete_and_add(
                    v, z, _missing_edge(g, (x, z), (y, z))))
    raise ValueError(f"unknown witness kind {k}")
