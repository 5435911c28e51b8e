"""Embedded planar graphs given by rotation systems.

A graph is stored as, for every vertex, the cyclic clockwise order of its
neighbors.  Faces are traced with the fixed convention: from the directed
corner (u -> v) the next corner is (v -> w) where w is the successor of u in
the rotation around v.  A connected simple rotation system is a genus-zero
(planar) embedding exactly when n - m + f = 2.
"""

from __future__ import annotations

import bisect

from .errors import (
    AlreadyAdjacent,
    AsymmetricAdjacency,
    Disconnected,
    DuplicateNeighbor,
    DuplicateRow,
    NonPlanarEmbedding,
    NotAdjacent,
    NotOnSameFace,
    UnknownVertex,
    WouldDisconnect,
)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


class EmbeddedGraph:
    """Immutable simple connected planar graph with a fixed embedding:
    the rotation, the neighbor sets `adj`, and the `faces` and `face_at`
    that `trace_faces` returns for the rotation.  `build` makes one from
    a rotation; the deletion and chord mutations derive one from their
    parent, equal to what `build` would make."""

    __slots__ = ("n", "rotation", "adj", "faces", "face_at")

    def __init__(self, n, rotation, adj, faces, face_at):
        self.n = n
        self.rotation = rotation
        self.adj = adj
        self.faces = faces
        self.face_at = face_at

    # -- accessors -----------------------------------------------------------

    @property
    def m(self):
        return sum(len(r) for r in self.rotation) // 2

    def neighbors(self, v):
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v):
        self._check_vertex(v)
        return len(self.rotation[v])

    def max_degree(self):
        return max((len(r) for r in self.rotation), default=0)

    def adjacent(self, u, v):
        return v in self.adj[u]

    def _check_vertex(self, v):
        if not (0 <= v < self.n):
            raise UnknownVertex(f"vertex {v} not in 0..{self.n - 1}")

    def __eq__(self, other):
        return isinstance(other, EmbeddedGraph) and self.rotation == other.rotation

    def __hash__(self):
        return hash(self.rotation)

    def __repr__(self):
        return f"EmbeddedGraph(n={self.n}, m={self.m})"


def build(n, rotation):
    """Validate a rotation system and return the embedded graph.

    Raises AsymmetricAdjacency, DuplicateNeighbor, Disconnected or
    NonPlanarEmbedding when the input is not a simple connected genus-zero
    embedding.
    """
    if n <= 0:
        raise UnknownVertex("vertex count must be positive")
    if len(rotation) != n:
        raise UnknownVertex(f"expected {n} rotation lists, got {len(rotation)}")
    rot = tuple(tuple(r) for r in rotation)
    adj = []
    for v, r in enumerate(rot):
        s = set(r)
        if len(s) != len(r):
            raise DuplicateNeighbor(f"vertex {v} lists a neighbor twice")
        if v in s:
            raise DuplicateNeighbor(f"vertex {v} lists itself")
        for u in r:
            if not (0 <= u < n):
                raise UnknownVertex(f"vertex {v} lists out-of-range neighbor {u}")
        adj.append(frozenset(s))
    for v in range(n):
        for u in rot[v]:
            if v not in adj[u]:
                raise AsymmetricAdjacency(f"{v} lists {u} but {u} does not list {v}")
    reached = len(component(adj, 0, ()))
    if reached != n:
        raise Disconnected(f"only {reached} of {n} vertices reachable from 0")
    g = EmbeddedGraph(n, rot, tuple(adj), *trace_faces(rot))
    m, f = g.m, len(g.faces)
    if n - m + f != 2:
        raise NonPlanarEmbedding(f"Euler count n-m+f = {n}-{m}+{f} = {n - m + f} != 2")
    return g


def trace_faces(rot):
    """(faces, face_at): the faces of a rotation system, ordered by their
    least corner (vertex, then rotation position), and the per-corner
    face index, from one walk.

    A face is the tuple of vertices its corner walk visits: corner i is
    (f[i] -> f[i+1]), read cyclically, so a cut vertex appears once per
    visit.  Entry i of face_at[v] is the face holding the corner
    (v -> rot[v][i]).  A graph without edges has one face, ()."""
    pos = [{u: i for i, u in enumerate(r)} for r in rot]
    face_at = [[None] * len(r) for r in rot]
    faces = []
    for v in range(len(rot)):
        for i in range(len(rot[v])):
            if face_at[v][i] is not None:
                continue
            fi = len(faces)  # (v, i) is this face's least corner
            walk = []
            a, j = v, i
            while face_at[a][j] is None:
                b = rot[a][j]
                face_at[a][j] = fi
                walk.append(a)
                a, j = b, (pos[b][a] + 1) % len(rot[b])
            faces.append(tuple(walk))
    return tuple(faces) or ((),), face_at


def component(adj, start, removed):
    """Vertices reachable from start in the graph with neighbor sets adj
    once the vertices in `removed` are deleted (breadth-first)."""
    seen = {start, *removed}
    queue = [start]
    for x in queue:  # the list grows while it is read
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    seen.difference_update(removed)
    return seen


class SquareGraph:
    """The distance-<=2 adjacency over a base embedded graph."""

    __slots__ = ("adj",)

    def __init__(self, adj):
        self.adj = adj


def dist2_neighborhood(g, v):
    """All vertices u != v with dist(u, v) <= 2."""
    g._check_vertex(v)
    out = set()
    for u in g.adj[v]:
        out.add(u)
        out.update(g.adj[u])
    out.discard(v)
    return out


def square(g):
    adj = []
    for v in range(g.n):
        adj.append(frozenset(dist2_neighborhood(g, v)))
    return SquareGraph(tuple(adj))


def _walk_face(rot, a, j):
    """The corners (vertex, rotation position) of the face walk of rot
    through (a -> rot[a][j]), from its least corner on, which is where
    trace_faces starts the walk."""
    corners = []
    start = (a, j)
    while True:
        corners.append((a, j))
        b = rot[a][j]
        a, j = b, (rot[b].index(a) + 1) % len(rot[b])
        if (a, j) == start:
            break
    k = corners.index(min(corners))
    return corners[k:] + corners[:k]


def _derived(n, rot, adj, faces, rows, gone, starts):
    """The graph a mutation derives from its parent without a rebuild.

    faces are the parent's faces in the child's labels, and rows the
    parent's face_at rows at the child's rotation positions.  The faces
    whose indices are in `gone` were destroyed by the mutation, and an
    entry of rows for a new corner may hold any of them.  Every other face
    is kept, in order.  The faces through the corners in `starts` are
    walked and each is inserted at its least corner, so the result equals
    build(n, rot) field by field."""
    order = [i for i in range(len(faces)) if i not in gone]
    kept = [faces[i] for i in order]
    walks = sorted(_walk_face(rot, a, j) for a, j in starts)
    slots = []
    for corners in walks:  # ascending, so each lands after the one before
        i = bisect.bisect(kept, corners[0],
                          key=lambda f: (f[0], rot[f[0]].index(f[1])))
        kept.insert(i, tuple(a for a, _ in corners))
        order.insert(i, None)
        slots.append(i)
    fmap = dict.fromkeys(gone)  # parent face index -> child face index
    fmap.update(zip(order, range(len(order))))
    remap = fmap.__getitem__
    face_at = [list(map(remap, row)) for row in rows]
    for corners, i in zip(walks, slots):
        for a, j in corners:
            face_at[a][j] = i
    return EmbeddedGraph(n, rot, adj, tuple(kept) or ((),), face_at)


def mutate_add_edge(g, u, v, face_index):
    """Add the chord uv inside the given face; returns the new graph.

    The two faces the chord splits the face into are the only ones
    walked; every other face keeps its index order and its corners."""
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v or g.adjacent(u, v):
        raise AlreadyAdjacent(f"{u} and {v} are already adjacent")
    face = g.faces[face_index] if 0 <= face_index < len(g.faces) else ()
    if u not in face or v not in face:
        raise NotOnSameFace(f"{u} and {v} are not both on face {face_index}")
    rot, rows, starts = list(g.rotation), list(g.face_at), []
    # each end x takes the other just before y, where (x -> y) is the
    # first corner at x in the walk
    for x, other in ((u, v), (v, u)):
        y = face[(face.index(x) + 1) % len(face)]
        j = rot[x].index(y)
        rot[x] = rot[x][:j] + (other,) + rot[x][j:]
        rows[x] = rows[x][:j] + [face_index] + rows[x][j:]
        starts.append((x, j))
    adj = list(g.adj)
    adj[u], adj[v] = adj[u] | {v}, adj[v] | {u}
    return _derived(g.n, tuple(rot), tuple(adj), g.faces, rows,
                    {face_index}, starts)


def _relabel(rotation, vertices):
    """Restrict the rotation lists to `vertices`, renumber those densely in
    increasing order and build the result; returns (graph, old -> new)."""
    keep = sorted(set(vertices))
    id_map = {old: i for i, old in enumerate(keep)}
    rot = [[id_map[u] for u in rotation[old] if u in id_map] for old in keep]
    return build(len(keep), rot), id_map


def mutate_delete_vertex(g, v):
    """Remove v; returns (new graph, mapping old id -> new dense id).

    Each vertex u keeps its rotation and becomes u - (u > v).  The faces
    around v merge into one face, the only one walked; every other face
    keeps its index order and its corners.  v is a cut vertex, and deleting
    it raises WouldDisconnect, exactly when a face visits it twice."""
    g._check_vertex(v)
    if g.n == 1:
        raise UnknownVertex(f"deleting {v} leaves no vertex")
    gone = set(g.face_at[v])
    if len(gone) < len(g.face_at[v]):
        raise WouldDisconnect(f"removing {v} disconnects the graph")
    lab = [*range(v + 1), *range(v, g.n - 1)]  # u -> u - (u > v)
    relabel = lab.__getitem__
    old = g.rotation
    rot, rows = list(old), list(g.face_at)
    for x in old[v]:
        j = old[x].index(v)
        rot[x] = old[x][:j] + old[x][j + 1:]
        rows[x] = rows[x][:j] + rows[x][j + 1:]
    del rot[v], rows[v]
    rot = tuple([tuple(map(relabel, r)) for r in rot])
    faces = [tuple(map(relabel, f)) for f in g.faces]
    # the corner after (v -> x) is (x -> the successor of v around x); it
    # lies on the merged face, at v's old position in x's rotation
    x = old[v][0]
    j = old[x].index(v)
    x = lab[x]
    starts = [(x, j % len(rot[x]))] if rot[x] else []  # none for K2 - v
    out = _derived(g.n - 1, rot, tuple(map(frozenset, rot)), faces, rows,
                   gone, starts)
    id_map = dict(enumerate(lab))
    del id_map[v]
    return out, id_map


def mutate_contract_edge(g, v, anchor):
    """Contract the edge (anchor, v): v disappears and its neighbor anchor
    inherits v's other neighbors (duplicates dropped), preserving the
    embedding; returns (new graph, mapping old id -> new dense id).

    The result is G - v plus edges from the anchor to v's other neighbors,
    so any coloring of it restricts to a coloring of G - v.
    """
    g._check_vertex(anchor)
    if anchor not in g.neighbors(v):
        raise NotAdjacent(f"{v} and {anchor} are not adjacent")
    rot = list(g.rotation)
    rv, ra = rot[v], rot[anchor]
    i, j = rv.index(anchor), ra.index(v)
    inherited = rv[i + 1:] + rv[:i]  # v's neighbors after anchor, in order
    gained = tuple(x for x in inherited if x not in g.adj[anchor])
    rot[anchor] = ra[:j] + gained + ra[j + 1:]
    for x in gained:
        rot[x] = [anchor if y == v else y for y in rot[x]]
    return _relabel(rot, [u for u in range(g.n) if u != v])


def induced_subgraph(g, vertices):
    """Embedding induced on a vertex set; returns (graph, old->new map).

    The subgraph must be connected.
    """
    for v in vertices:
        g._check_vertex(v)
    return _relabel(g.rotation, vertices)


def add_edge_any_face(g, u, v):
    """Add uv inside the lowest-numbered face containing both endpoints."""
    g._check_vertex(u)
    g._check_vertex(v)
    shared = set(g.face_at[u]).intersection(g.face_at[v])
    if not shared:
        raise NotOnSameFace(f"{u} and {v} share no face")
    return mutate_add_edge(g, u, v, min(shared))


# -- text format -------------------------------------------------------------

def to_pg(g):
    """Canonical '.pg' text for a graph; bit-exact round-trip with from_pg."""
    lines = [f"n {g.n}"]
    for v in range(g.n):
        lines.append(f"{v}: " + " ".join(str(u) for u in g.rotation[v]))
    return "\n".join(lines) + "\n"


def from_pg(text):
    n = None
    rows = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n "):
            if n is not None:
                raise DuplicateRow("more than one 'n <count>' header line")
            parts = line.split()
            if len(parts) != 2:
                raise UnknownVertex(f"header must be 'n <count>', got {line!r}")
            n = int(parts[1])
            continue
        head, _, rest = line.partition(":")
        v = int(head)
        if v in rows:
            raise DuplicateRow(f"vertex {v} has more than one row")
        rows[v] = [int(t) for t in rest.split()]
    if n is None:
        raise UnknownVertex("missing 'n <count>' header line")
    for v in rows:
        if not (0 <= v < n):
            raise UnknownVertex(f"row for vertex {v} not in 0..{n - 1}")
    if len(rows) < n:  # checked before the n rotation lists are allocated
        v = next(v for v in range(n) if v not in rows)
        raise UnknownVertex(f"vertex {v} has no row")
    return build(n, [rows[v] for v in range(n)])


def graph_digest(g):
    """64-bit FNV-1a digest of the canonical serialization."""
    h = FNV_OFFSET
    for byte in to_pg(g).encode():
        h ^= byte
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h
