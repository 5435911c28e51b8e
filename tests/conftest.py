import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from psc import catalog as cat
from psc import coloring as col
from psc import discharge as dis
from psc import embedding as emb
from psc import generators as gen
from psc import reducer as red
from psc.budgets import Budget
from psc.coloring import SquareColoring
from psc.errors import (AsymmetricAdjacency, Disconnected, DuplicateNeighbor,
                        NonPlanarEmbedding, NotOnSameFace, UnknownVertex,
                        WeakHighDegree, WouldDisconnect)


def glue_pocket(g, u, v):
    """Attach two new vertices forming a K4 with the edge uv, which makes uv
    an edge separator.  Tries insertion orders until the embedding builds."""
    n = g.n
    a, b = n, n + 1
    base = [list(r) for r in g.rotation]
    iu = base[u].index(v)
    iv = base[v].index(u)
    orders = list(itertools.permutations([a, b]))
    tris = list(itertools.permutations([u, v]))
    for ordu in orders:
        for ordv in orders:
            for pa in tris:
                for pb in tris:
                    rot = [list(r) for r in base]
                    rot[u] = rot[u][:iu] + list(ordu) + rot[u][iu:]
                    rot[v] = rot[v][:iv + 1] + list(ordv) + rot[v][iv + 1:]
                    rot.append(list(pa) + [b])
                    rot.append(list(pb) + [a])
                    try:
                        return emb.build(n + 2, rot)
                    except Exception:
                        pass
    raise RuntimeError("no embedding found for pocket")


def exact_gap_graph():
    """The first graph of a small seeded corpus on which DSATUR uses more
    colors than the exact search's lower bound (n = 9, bounds 4 and 5), so
    the search has work left to time out in."""
    for g in gen.gen_corpus(30, (8, 14), 3, 11, delta_max=6):
        sq = emb.square(g)
        lb = max(len(col.greedy_clique(sq)), g.max_degree() + 1)
        if col.dsatur_color(sq).palette_size > lb:
            return g
    raise RuntimeError("no graph with a gap between the bounds")


def double_pocket():
    """Two pockets glued on the edge 0-1 of a stacked triangulation: G minus
    {0, 1} has three components."""
    g = gen.gen_stacked_triangulation(20, 1)
    return glue_pocket(glue_pocket(g, 0, 1), 0, 1)


def cube():
    """The 3-cube: cubic, all faces 4-faces, no vertex of degree 1 or 2."""
    return emb.build(8, [[1, 3, 4], [2, 0, 5], [3, 1, 6], [0, 2, 7],
                         [7, 5, 0], [4, 6, 1], [5, 7, 2], [6, 4, 3]])


def find_edge_separator_scan(g):
    """Oracle for catalog.find_edge_separator: one BFS per edge, in sorted
    edge order, O(m (n + m))."""
    if g.n < 4:
        return None
    edges = sorted((u, v) for u in g.vertices for v in g.neighbors(u) if u < v)
    for u, v in edges:
        comp = cat._smallest_component_without(g, u, v)
        if comp is not None:
            return cat.ConfigWitness(
                kind="EdgeSeparator", actors=(u, v),
                recipe={"op": "split", "u": u, "v": v,
                        "component": sorted(comp)})
    return None


def verify_scan(g, coloring):
    """Oracle for coloring.verify: the distance-2 ball of every vertex is
    scanned, O(sum of squared degrees).  True iff exactly the vertices of g
    are colored, all in 1..palette, and all distance-<=2 pairs differ; on
    failure also returns one violating pair, or (v, v) for a vertex v
    without a color, or a key v that is not a vertex of g or whose color is
    outside the palette."""
    col = coloring.color_of
    for v in g.vertices:
        if v not in col:
            return False, (v, v)
    for v, c in col.items():
        if not (v in g and 1 <= c <= coloring.palette_size):
            return False, (v, v)
    for v in g.vertices:
        for u in emb.dist2_neighborhood(g, v):
            if u > v and col[u] == col[v]:
                return False, (v, u)
    return True, None


def smallest_last_order_scan(g):
    """Oracle for coloring.smallest_last_order: each removal scans every
    remaining vertex, O(n^2).  Degeneracy (smallest-last) order of the base
    graph: reversed removal order by repeatedly deleting a minimum-degree
    vertex."""
    deg = {v: g.degree(v) for v in g.vertices}
    removed = set()
    order = []
    for _ in range(g.n):
        v = min((x for x in g.vertices if x not in removed),
                key=lambda x: (deg[x], x))
        removed.add(v)
        order.append(v)
        for u in g.neighbors(v):
            if u not in removed:
                deg[u] -= 1
    order.reverse()
    return order


def greedy_color_scan(g):
    """Oracle for coloring.greedy_color: the square is built and each
    vertex reads its whole square row, O(sum of squared degrees) memory.
    Greedy coloring of the square in a smallest-last order of g."""
    rows = dict(emb.square(g).adj)
    color = {}
    for v in smallest_last_order_scan(g):
        used = {color[u] for u in rows[v] if u in color}
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return SquareColoring(max(color.values(), default=1), color)


def dsatur_color_scan(sq, budget=None):
    """Oracle for coloring.dsatur_color: each step scans every uncolored
    vertex, O(n^2).  DSATUR on the square graph; ties broken by higher
    square degree then lower id.  Returns None when the palette budget is
    exceeded."""
    rows = dict(sq.adj)
    col = {}
    sat = {v: set() for v in rows}
    uncolored = set(rows)
    palette = 0
    while uncolored:
        v = max(uncolored, key=lambda x: (len(sat[x]), len(rows[x]), -x))
        c = 1
        while c in sat[v]:
            c += 1
        if budget is not None and c > budget:
            return None
        col[v] = c
        palette = max(palette, c)
        uncolored.discard(v)
        for u in rows[v]:
            sat[u].add(c)
    return SquareColoring(palette, col)


def audit_cross_refs_scan(g):
    """Oracle for the cross-reference of discharge.audit: every negative
    element's distance-2 ball is tested against every witness,
    O(negatives x witnesses).  Element -> indices into detect_for_audit."""
    ledger, _ = charges_scan(g)
    witnesses = cat.detect_for_audit(g)
    cross = {}
    for el, c in sorted(ledger.final.items()):
        if c >= 0:
            continue
        if el[0] == "v":
            ball = emb.dist2_neighborhood(g, el[1]) | {el[1]}
        else:
            ball = set()
            for v in set(g.faces[el[1]]):
                ball |= emb.dist2_neighborhood(g, v) | {v}
        cross[el] = [i for i, w in enumerate(witnesses)
                     if ball.intersection(w.actors)]
    return cross


def applied_scan(ledger, new_transfers):
    """Oracle for discharge.ChargeLedger.applied: one Fraction subtraction
    and one addition per transfer."""
    charges = dict(ledger.final)
    for t in new_transfers:
        charges[t.source] -= t.amount
        charges[t.target] += t.amount
    return dis.ChargeLedger(ledger.initial, charges,
                            ledger.transfers + list(new_transfers))


def charges_scan(g):
    """Oracle for discharge.charges: a new Fraction for every element, face
    and transfer, each vertex's R2-R4 rows computed afresh by
    discharge.vertex_rule, and each batch applied by applied_scan.  The
    final ledger and the weak/strong map."""
    initial = {("v", v): Fraction(g.degree(v) - 6) for v in g.vertices}
    for i, f in enumerate(g.faces):
        initial[("f", i)] = Fraction(2 * len(f) - 6)
    ledger = dis.ChargeLedger(dict(initial), initial, [])
    r1 = []
    for i, f in enumerate(g.faces):
        pay = Fraction(len(f) - 3)
        if pay <= 0:
            continue
        for v in f:
            if g.degree(v) <= 5:
                r1.append(dis.Transfer("R1", ("f", i), ("v", v), pay))
    r1.sort(key=lambda t: (t.source, t.target))
    ledger = applied_scan(ledger, r1)
    ws = {}
    for v in g.vertices:
        weak = ledger.final[("v", v)] < 0
        if weak and g.degree(v) > 5:
            raise WeakHighDegree(f"vertex {v} weak with degree {g.degree(v)}")
        ws[v] = dis.WEAK if weak else dis.STRONG
    rest = []
    for u in g.vertices:
        rot = g.rotation[u]
        weak = tuple(ws[w] == dis.WEAK for w in rot)
        for rule, i, amount, j in dis.vertex_rule(len(rot), weak):
            via = () if j is None else (rot[j],)
            rest.append(dis.Transfer(rule, ("v", u), ("v", rot[i]),
                                     Fraction(amount), via))
    rest.sort(key=lambda t: (t.rule, t.source, t.target, t.via))
    return applied_scan(ledger, rest), ws


def audit_scan(g):
    """Oracle for discharge.audit: the ledger of charges_scan, and the
    citations of audit_cross_refs_scan."""
    ledger, ws = charges_scan(g)
    negatives = sorted((el, c) for el, c in ledger.final.items() if c < 0)
    return dis.AuditReport(ledger, ws, negatives, cat.detect_for_audit(g),
                           audit_cross_refs_scan(g))


def audit_json_scan(report):
    """Oracle for discharge.AuditReport.to_json: the report as one tree of
    dicts and lists, one dict per transfer, charge and negative, handed to
    json.dumps, which encodes a shared citation list again for every
    negative that cites it."""
    led, fmt = report.ledger, dis.fmt
    return json.dumps({
        "sum_initial": fmt(led.total_initial()),
        "sum_final": fmt(led.total_final()),
        "initial": {f"{k}{i}": fmt(c) for (k, i), c in sorted(led.initial.items())},
        "final": {f"{k}{i}": fmt(c) for (k, i), c in sorted(led.final.items())},
        "weak": sorted(v for v, s in report.weak_strong.items()
                       if s == dis.WEAK),
        "transfers": [{"rule": t.rule, "from": list(t.source),
                       "to": list(t.target), "amount": fmt(t.amount),
                       "via": list(t.via)} for t in led.transfers],
        "witnesses": [w.to_obj() for w in report.witnesses],
        "negatives": [{"element": list(el), "final": fmt(c),
                       "witnesses": report.cross_refs[el]}
                      for el, c in report.negatives],
    })


def detect_scan(g, budget, regimes):
    """Oracle for catalog._detect: the witnesses of the rows run in the
    regimes, concatenated in catalog order and sorted stably."""
    found = []
    for detector, _, in_regimes, args, _ in cat.CATALOG:
        if not regimes.isdisjoint(in_regimes):
            found += cat._run_row(detector, g, args(budget))
    return sorted(found, key=cat._sort_key)


def find_first_witness_scan(g, budget):
    """Oracle for catalog.find_first_witness: each row of the budget's
    regime run by its detector over the whole graph, in rank order, until
    no later row can emit a kind ranked below the best witness so far."""
    best = None
    for detector, kinds, regimes, args, _ in cat.CATALOG:
        if budget.regime not in regimes:
            continue
        if best is not None and cat.KIND_RANK[best.kind] < min(kinds.values()):
            break
        w = min(cat._run_row(detector, g, args(budget)), key=cat._sort_key,
                default=None)
        if w is not None and (best is None
                              or cat._sort_key(w) < cat._sort_key(best)):
            best = w
    return best


def k4_chain(k):
    """k copies of K4 joined by bridges (generators.gen_k4_chain)."""
    return gen.gen_k4_chain(k)


def bowtie():
    # two triangles sharing vertex 0
    return emb.build(5, [[1, 2, 3, 4], [2, 0], [0, 1], [4, 0], [0, 3]])


def bridge():
    # two triangles joined by the path 1-0-2 through the cut vertex 0
    return emb.from_pg("n 7\n0: 1 2\n1: 3 4 0\n2: 0 5 6\n3: 4 1\n"
                       "4: 1 3\n5: 6 2\n6: 2 5\n")


def block_chain(seed):
    """A seeded chain of 2 to 6 blocks, each a triangle, K4 or stacked
    triangulation on 5 to 8 vertices, joined to the next by a degree-2
    connector vertex or by a bridge, with pendant paths of 1 to 3 vertices
    hung on some vertices.  Every edge between blocks goes in at random
    corners.  Connectors and the inner vertices of pendant paths are cut
    vertices, of degree 2 unless a later path hangs on them."""
    rng = random.Random(seed)
    rot = []

    def block():
        kind = rng.randrange(3)
        g = (emb.build(3, [[1, 2], [2, 0], [0, 1]]) if kind == 0
             else gen.named_graph("k4") if kind == 1
             else gen.gen_stacked_triangulation(rng.randint(5, 8),
                                                rng.randrange(100)))
        base = len(rot)
        rot.extend([base + u for u in r] for r in g.rotation)
        return list(range(base, len(rot)))

    def join(a, b):
        for x, y in ((a, b), (b, a)):
            rot[x].insert(rng.randrange(len(rot[x]) + 1), y)

    def new_vertex():
        rot.append([])
        return len(rot) - 1

    prev = block()
    for _ in range(rng.randint(1, 5)):
        a = rng.choice(prev)
        prev = block()
        b = rng.choice(prev)
        if rng.random() < 0.6:
            join(a, c := new_vertex())
            join(c, b)
        else:
            join(a, b)
    for _ in range(rng.randint(0, 3)):
        x = rng.randrange(len(rot))
        for _ in range(rng.randint(1, 3)):
            join(x, x := new_vertex())
    return emb.build(len(rot), rot)


def block_chains():
    return [block_chain(seed) for seed in range(24)]


def degree2_cut_vertices(g):
    """The vertices of degree 2 whose deletion disconnects g, found by
    rebuilding g without each."""
    out = []
    for v in g.vertices:
        if len(g.rotation[v]) == 2:
            try:
                delete_by_build(g, v)
            except Disconnected:
                out.append(v)
    return out


def face_corners_scan(g):
    """Oracle for embedding.trace_faces: each face as the list of directed
    corners (a, b) its walk takes, in trace order.  A walk starts at the
    first corner, by vertex and then rotation position, that no earlier
    walk took, and goes from (a, b) to (b, c), c the successor of a around
    b."""
    seen = set()
    faces = []
    for v in g.vertices:
        for w in g.rotation[v]:
            corners = []
            a, b = v, w
            while (a, b) not in seen:
                seen.add((a, b))
                corners.append((a, b))
                r = g.rotation[b]
                a, b = b, r[(r.index(a) + 1) % len(r)]
            if corners:
                faces.append(corners)
    return faces


def add_chord_first_visit(g, u, v, dart):
    """Oracle for embedding.mutate_add_edge: each end x of uv takes the
    other end into its rotation just before y, where (x -> y) is the first
    corner at x in the walk of the face whose walk starts with the corner
    `dart`.  A face visits a cut vertex more than once, and the first visit
    in walk order need not be the first corner in x's rotation order."""
    corners = next(c for c in face_corners_scan(g) if list(c[0]) == dart)
    rot = [None if r is None else list(r) for r in g.rotation]
    for x, other in ((u, v), (v, u)):
        y = next(b for a, b in corners if a == x)
        rot[x].insert(rot[x].index(y), other)
    return emb.build(len(rot), rot)


def assert_same_graph(a, b):
    """Field-by-field equality of two embedded graphs: EmbeddedGraph's
    == compares the rotations only."""
    assert a.n == b.n
    assert tuple(a.vertices) == tuple(b.vertices)
    assert a.rotation == b.rotation
    assert a.adj == b.adj
    assert a.faces == b.faces
    assert a.face_at == b.face_at


def build_oracle(n, rotation):
    """Oracle for embedding.build's checks: a neighbour set per row, a
    separate symmetry loop over those sets, and a BFS over them, each done
    before the faces are traced.  Returns an EmbeddedGraph whose adj holds
    those sets."""
    if len(rotation) != n:
        raise UnknownVertex(f"expected {n} rotation lists, got {len(rotation)}")
    rot = tuple(None if r is None else tuple(r) for r in rotation)
    live = [v for v, r in enumerate(rot) if r is not None]
    if not live:
        raise UnknownVertex("vertex count must be positive")
    ids = frozenset(live)
    adj = [None] * n
    for v in live:
        r = rot[v]
        s = set(r)
        if len(s) != len(r):
            raise DuplicateNeighbor(f"vertex {v} lists a neighbor twice")
        if v in s:
            raise DuplicateNeighbor(f"vertex {v} lists itself")
        if not s <= ids:
            raise UnknownVertex(f"vertex {v} lists unknown ids {sorted(s - ids)}")
        adj[v] = frozenset(s)
    for v in live:
        for u in rot[v]:
            if v not in adj[u]:
                raise AsymmetricAdjacency(f"{v} lists {u} but {u} does not list {v}")
    reached = len(emb.component(adj, live[0], ()))
    if reached != len(live):
        raise Disconnected(
            f"only {reached} of {len(live)} vertices reachable from {live[0]}")
    vertices = range(n) if len(live) == n else tuple(live)
    g = emb.EmbeddedGraph(vertices, rot, tuple(adj), *emb.trace_faces(rot))
    nv, m, f = g.n, g.m, len(g.faces)
    if nv - m + f != 2:
        raise NonPlanarEmbedding(f"Euler count n-m+f = {nv}-{m}+{f} = {nv - m + f} != 2")
    return g


def delete_by_build(g, v):
    """Oracle for embedding.mutate_delete_vertex: G - v built from scratch,
    with v's row set to None and every other id kept.  Raises Disconnected
    when v is a cut vertex."""
    rot = [[u for u in g.rotation[x] if u != v] if x in g and x != v
           else None for x in range(len(g.rotation))]
    return emb.build(len(rot), rot)


def assert_rows_shared(g, h):
    """h, made from g by one deletion or chord, shares with g the face_at
    row of every id whose rotation it kept and that no face new in h
    passes through: the mutation did no work on those rows."""
    walked = set().union(*(set(h.faces) - set(g.faces)))
    for x in h.vertices:
        if x not in walked and h.rotation[x] == g.rotation[x]:
            assert h.face_at[x] is g.face_at[x], x


def face_delta_scan(old, new, touched):
    """Oracle for the (made, destroyed) of the mutation helpers: the faces
    through the touched ids after the mutation and not before, and those
    before and not after.  A walk through unchanged rows only is an old
    walk, so every face one graph has and the other lacks passes through
    a touched id."""
    before = {f for x in touched for f in old.face_at[x]}
    after = {f for x in touched if x in new for f in new.face_at[x]}
    return after - before, before - after


def assert_one_tuple_per_face(g):
    """Every corner of a face holds the one tuple object that g.faces
    holds for it, so the object's id() names the face (catalog._FaceSets)."""
    held = {f: f for f in g.faces}
    for x in g.vertices:
        for f in g.face_at[x]:
            assert held[f] is f, (x, f)


def assert_mutations_match_build(g):
    """Every single deletion and every chord of g equals its build oracle
    field by field and leaves the rows it does not reach alone, and a
    deletion raises WouldDisconnect exactly when the rebuilt graph is
    disconnected; returns the number of mutations."""
    count = 0
    for v in g.vertices:
        try:
            want = delete_by_build(g, v)
        except Disconnected:
            with pytest.raises(WouldDisconnect):
                emb.mutate_delete_vertex(g, v)
            continue
        h = emb.mutate_delete_vertex(g, v)
        assert_same_graph(h, want)
        assert_rows_shared(g, h)
        count += 1
    for face in g.faces:
        dart = emb.face_dart(face)
        on_face = sorted(set(face))
        for i, u in enumerate(on_face):
            for v in on_face[i + 1:]:
                if not g.adjacent(u, v):
                    h = emb.mutate_add_edge(g, u, v, dart)
                    assert_same_graph(h, add_chord_first_visit(g, u, v, dart))
                    assert_rows_shared(g, h)
                    count += 1
    return count


def naive_chi2(g):
    """Independent brute-force oracle for coloring.exact_chi2: enumerate
    set partitions of the vertices (restricted growth strings) and keep the
    smallest number of blocks that are all independent in the square.
    Exponential; n <= ~10."""
    rows = dict(emb.square(g).adj)
    best = g.n

    def rec(v, blocks):
        nonlocal best
        if len(blocks) >= best:
            return
        if v == g.n:
            best = len(blocks)
            return
        for b in blocks:
            if not (rows[v] & b):
                b.add(v)
                rec(v + 1, blocks)
                b.discard(v)
        blocks.append({v})
        rec(v + 1, blocks)
        blocks.pop()

    rec(0, [])
    return best


def exact_chi2_recursive(g, time_limit=60.0):
    """Oracle for coloring.exact_chi2: the same search with one recursive
    call per position, which tries each position's colors in the same
    order.  It needs a frame per vertex, so it is kept to small graphs."""
    sq = emb.square(g)
    clique = col.greedy_clique(sq)
    lb = max(len(clique), g.max_degree() + 1)
    best = col.dsatur_color(sq)
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

        def bt(i, max_used):
            if time.monotonic() > deadline:
                raise col._Timeout
            if i == g.n:
                return True
            forbidden = {colors[j] for j in nbr_pos[i] if j < i}
            cap = min(k, max_used + 1)
            for c in range(1, cap + 1):
                if c in forbidden:
                    continue
                colors[i] = c
                if bt(i + 1, max(max_used, c)):
                    return True
            colors[i] = 0
            return False

        # the clique holds positions 0..len-1, colored 1..len
        if bt(len(clique), len(clique)):
            return {order[i]: colors[i] for i in range(g.n)}
        return None

    exact = True
    while ub > lb:
        try:
            sol = feasible(ub - 1)
        except col._Timeout:
            exact = False
            break
        if sol is None:
            break
        best = SquareColoring(ub - 1, sol)
        ub -= 1
    return col.ExactResult(ub, best, clique, exact)


def add_edge_first_face_scan(g, u, v):
    """Oracle for embedding.add_edge_any_face: add uv inside the first face,
    in trace order, whose walk visits both endpoints, O(m)."""
    for f in g.faces:
        if u in f and v in f:
            return emb.mutate_add_edge(g, u, v, emb.face_dart(f))
    raise NotOnSameFace(f"{u} and {v} share no face")


def small_graphs():
    """Twenty small seeded graphs, ten per budget regime."""
    return (gen.gen_corpus(10, (8, 30), 3, 44, delta_max=6)
            + gen.gen_corpus(10, (8, 30), 9, 45))


def single_deletions(graphs):
    """Every connected single-vertex deletion of the graphs."""
    out = []
    for g in graphs:
        for v in g.vertices:
            try:
                out.append(emb.mutate_delete_vertex(g, v))
            except WouldDisconnect:
                pass
    return out


def replay_trace(g, records):
    """Replay a trace from g, in input ids, through the mutations its
    recipes name: yields (graph, record) for each step record, with the
    graph its witness was found on, and for each terminal record, with the
    base-case graph.  A split's step is followed by its parts' records,
    part 1's then part 2's, each replayed on its induced subgraph; a stack
    holds the parts not yet reached, so nothing recurses."""
    parts = []  # the next part to replay on top
    for r in records:
        yield g, r
        if "terminal" in r:
            if not parts:
                return
            g = parts.pop()
            continue
        rec = r["witness"]["recipe"]
        if rec["op"] == "split":
            comp = set(rec["component"])
            parts.append(emb.induced_subgraph(
                g, sorted(set(g.vertices) - comp)))
            g = emb.induced_subgraph(g, sorted(comp | {rec["u"], rec["v"]}))
        elif rec["op"] == "add_edge":
            g = emb.mutate_add_edge(g, rec["u"], rec["v"], rec["face"])
        else:
            *_, (g, *_) = red._deletion(g, rec["v"], rec.get("edges", []))
    raise AssertionError("trace without a terminal record")


@pytest.fixture(scope="session")
def forced_intermediates(corpus_small):
    """(graph, budget) for every graph the reducer searched for a witness
    in two forced reductions (base case of at most 6 vertices), replayed
    from the traces."""
    seen = []
    for g in (gen.gen_stacked_triangulation(40, 5), corpus_small[0]):
        _, tr = red.color_within_budget(g, base_limit=6)
        seen += [(h, Budget.for_graph(g))
                 for h, r in replay_trace(g, tr.to_obj()) if "witness" in r]
    return seen


@pytest.fixture(scope="session")
def corpus_large():
    return gen.gen_corpus(60, (20, 120), 9, 42)


@pytest.fixture(scope="session")
def corpus_small():
    return gen.gen_corpus(40, (12, 80), 3, 43, delta_max=6)
