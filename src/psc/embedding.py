"""Embedded planar graphs given by rotation systems.

A graph is stored as, for every vertex, the cyclic clockwise order of its
neighbors.  Faces are traced with the fixed convention: from the directed
corner (u -> v) the next corner is (v -> w) where w is the successor of u in
the rotation around v.  A connected simple rotation system is a genus-zero
(planar) embedding exactly when n - m + f = 2.  Ids are stable: no vertex
is renumbered; a removed id keeps a None row in `rotation`, `adj`, `face_at`.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from hashlib import blake2b
from itertools import accumulate, chain

from .errors import (
    AlreadyAdjacent,
    AsymmetricAdjacency,
    Disconnected,
    DuplicateNeighbor,
    DuplicateRow,
    NonPlanarEmbedding,
    NotOnSameFace,
    UnknownVertex,
    WouldDisconnect,
)


class EmbeddedGraph:
    """Immutable simple connected planar graph with a fixed embedding: live
    ids `vertices` (increasing) and their count `n`, the rotation, neighbor
    sets `adj`, and the `faces` and `face_at` of `trace_faces`.  `build`
    makes one whose `adj` and `face_at` are made on first read (_LazyRows),
    `face_at` from the flat per-corner face index `_fa` that its walk
    leaves; deletions and chords derive one equal to what it makes, whose
    `faces` are read off `face_at` on first use."""

    __slots__ = ("vertices", "n", "rotation", "adj", "_faces", "face_at",
                 "_fa")

    def __init__(self, vertices, rotation, adj, faces, face_at):
        self.vertices = vertices
        self.n = len(vertices)
        self.rotation = rotation
        if adj is not None:  # else left unset for _LazyRows to make
            self.adj = adj
        self._faces = faces
        if face_at is not None:  # likewise
            self.face_at = face_at

    # -- accessors -----------------------------------------------------------

    @property
    def faces(self):
        """Every face once, ordered by its least corner: the corners where
        a face's walk starts, taken by vertex and then rotation position."""
        if self._faces is None:
            rot = self.rotation
            self._faces = tuple(
                f for v in self.vertices
                for y, f in zip(rot[v], self.face_at[v])
                if f[0] == v and f[1] == y) or ((),)
        return self._faces

    @property
    def m(self):
        return sum(map(len, filter(None, self.rotation))) // 2  # None: removed

    def neighbors(self, v):
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v):
        self._check_vertex(v)
        return len(self.rotation[v])

    def max_degree(self):
        return max(map(len, filter(None, self.rotation)), default=0)

    def adjacent(self, u, v):
        return v in self.adj[u]

    def __contains__(self, v):
        return 0 <= v < len(self.rotation) and self.rotation[v] is not None

    def _check_vertex(self, v):  # `v in self`, inlined: it runs per access
        if not (0 <= v < len(self.rotation) and self.rotation[v] is not None):
            raise UnknownVertex(f"vertex {v} is not a vertex of the graph")

    def __eq__(self, other):
        return isinstance(other, EmbeddedGraph) and self.rotation == other.rotation

    def __hash__(self):
        return hash(self.rotation)

    def __repr__(self):
        return f"EmbeddedGraph(n={self.n}, m={self.m})"


class _LazyRows(EmbeddedGraph):
    """What `build` returns: an EmbeddedGraph whose `adj` and `face_at`
    slots are unset until each is first read.  `adj` is then made from
    the rotation, and `face_at` from `faces` and `_fa`, the face index of
    every corner in rotation order, which is dropped.  The graph becomes a
    plain EmbeddedGraph once both are made: a class can be assigned only
    between equal slot layouts.  Only a missing attribute reaches
    __getattr__, so reads of set slots cost what they cost on the base."""

    __slots__ = ()

    def __getattr__(self, name):
        if name == "adj":
            value = self.adj = tuple(None if r is None else frozenset(r)
                                     for r in self.rotation)
            other = "face_at"
        elif name == "face_at":
            value = self.face_at = _face_rows(self.rotation, self._faces,
                                              self._fa)
            self._fa, other = None, "adj"
        else:
            raise AttributeError(name)
        try:  # object's own lookup never calls __getattr__
            object.__getattribute__(self, other)
        except AttributeError:
            return value
        self.__class__ = EmbeddedGraph
        return value

    def __reduce_ex__(self, protocol):
        """Pickle or copy the graph as a plain EmbeddedGraph: pickle reads
        the class before the slots, and making the rows changes it."""
        _ = self.adj, self.face_at
        return object.__reduce_ex__(self, protocol)


def build(n, rotation):
    """Validate a rotation system of n rows and return the embedded graph.
    A None row marks a removed id, which no row may list.

    Raises DuplicateNeighbor, UnknownVertex or AsymmetricAdjacency (from
    trace_faces), Disconnected or NonPlanarEmbedding when the input is not
    a simple connected genus-zero embedding.
    """
    if len(rotation) != n:
        raise UnknownVertex(f"expected {n} rotation lists, got {len(rotation)}")
    rot = tuple(None if r is None else tuple(r) for r in rotation)
    live = [v for v, r in enumerate(rot) if r is not None]
    if not live:
        raise UnknownVertex("vertex count must be positive")
    faces, fa = _trace(rot)
    reached = len(component(rot, live[0], ()))
    if reached != len(live):
        raise Disconnected(
            f"only {reached} of {len(live)} vertices reachable from {live[0]}")
    vertices = range(n) if len(live) == n else tuple(live)
    g = _LazyRows(vertices, rot, None, faces, None)
    g._fa = fa
    nv, m, f = g.n, g.m, len(g.faces)
    if nv - m + f != 2:
        raise NonPlanarEmbedding(f"Euler count n-m+f = {nv}-{m}+{f} = {nv - m + f} != 2")
    return g


def trace_faces(rot):
    """(faces, face_at): the faces of a rotation system, ordered by their
    least corner (vertex, then rotation position), and the per-corner
    face, from one walk.

    A face is the tuple of vertices its corner walk visits from its least
    corner: corner i is (f[i] -> f[i+1]), read cyclically, so a cut vertex
    appears once per visit.  Entry i of the list face_at[v] is the face
    holding the corner (v -> rot[v][i]).  A graph without edges has one
    face, ().

    A None row is a removed id.  Raises DuplicateNeighbor, UnknownVertex
    or AsymmetricAdjacency for the first bad row, or else the first pair
    (v, u) in vertex order where v lists u but u does not list v."""
    faces, fa = _trace(rot)
    return faces, _face_rows(rot, faces, fa)


def _trace(rot):
    """(faces, fa): trace_faces's faces, and fa the array of face indices
    of every corner, the rows of rot laid end to end."""
    ids = frozenset(v for v, r in enumerate(rot) if r is not None)
    # nxt[b][a]: the corner after (a -> b), (b -> the successor of a
    # around b), as an index into the laid-out rows
    nxt = [None] * len(rot)
    c = 0
    for v, r in enumerate(rot):
        if r is None:
            continue
        d = len(r)
        nxt[v] = p = dict(zip(r, range(c + 1, c + d + 1)))
        if len(p) != d:
            raise DuplicateNeighbor(f"vertex {v} lists a neighbor twice")
        if v in p:
            raise DuplicateNeighbor(f"vertex {v} lists itself")
        if not ids.issuperset(r):
            raise UnknownVertex(f"vertex {v} lists unknown ids {sorted(set(r) - ids)}")
        if d:
            p[r[-1]] = c
        c += d
    head = list(chain.from_iterable(filter(None, rot)))  # corner c: -> head[c]
    fa = [-1] * c
    faces = []
    end = 0
    for v, r in enumerate(rot):
        start, end = end, end + len(r or ())
        for c in range(start, end):
            if fa[c] >= 0:
                continue
            fi = len(faces)  # c is this face's least corner
            walk = []
            a, e = v, c
            while fa[e] < 0:
                fa[e] = fi
                walk.append(a)
                b = head[e]
                e = nxt[b].get(a)
                if e is None:  # name the first such pair, as a scan would
                    x, y = next((x, y) for x in sorted(ids) for y in rot[x]
                                if x not in nxt[y])
                    raise AsymmetricAdjacency(
                        f"{x} lists {y} but {y} does not list {x}")
                a = b
            faces.append(tuple(walk))
    return tuple(faces) or ((),), array("i", fa)


def _face_rows(rot, faces, fa):
    """The face_at rows of rot: fa's face indices read as faces, cut into
    a list per live row."""
    flat = list(map(faces.__getitem__, fa))
    ends = accumulate(len(r or ()) for r in rot)
    return [None if r is None else flat[e - len(r):e]
            for r, e in zip(rot, ends)]


def face_dart(f):
    """The name of the face f: its least corner, the dart [f[0], f[1]]."""
    return [f[0], f[1]]


def dart_face(g, dart):
    """The face of g named by the dart [x, y] (see face_dart), or None if
    xy is not an edge of g or (x -> y) is not its face's least corner."""
    x, y = dart
    if x in g and y in g.adj[x]:
        f = g.face_at[x][g.rotation[x].index(y)]
        if f[0] == x and f[1] == y:
            return f
    return None


def component(adj, start, removed):
    """Vertices reachable from start in the graph whose neighbours of x are
    adj[x] (a set, or a rotation row) once the vertices in `removed` are
    deleted (breadth-first)."""
    seen = {start, *removed}
    queue = [start]
    for x in queue:  # the list grows while it is read
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    seen.difference_update(removed)
    return seen


class SquareGraph(Mapping):
    """The square of g, as a read-only mapping from each vertex of g to its
    square row, the vertices within distance 2.  A row is computed by
    dist2_neighborhood each time it is read and never stored: a square can
    hold Theta(n^2) pairs where g holds O(n).  A reader that reads rows
    many times takes one snapshot, dict(sq.adj).  `adj` is the square."""

    __slots__ = ("g",)

    def __init__(self, g):
        self.g = g

    @property
    def adj(self):
        return self

    def __getitem__(self, v):
        return dist2_neighborhood(self.g, v)

    def __iter__(self):
        return iter(self.g.vertices)

    def __len__(self):
        return self.g.n

    def __contains__(self, v):  # Mapping's would compute the row
        return v in self.g


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
    return SquareGraph(g)


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


def _derived(vertices, rot, adj, rows, starts):
    """The graph a mutation derives from its parent without a rebuild, and
    the faces it walked.

    rows are the parent's face_at rows at the child's rotation positions
    (None for a removed id); an entry for a new corner may hold anything.
    The faces through the corners in `starts` are walked, and each is
    written into a copy of every row it reaches.  They hold every corner
    of the faces the mutation destroyed, and a row they do not reach stays
    the parent's list, so the result equals build(len(rot), rot) field by
    field, with one tuple object for every corner of a face."""
    copied, made = set(), []
    for a, j in starts:
        corners = _walk_face(rot, a, j)
        f = tuple(x for x, _ in corners)
        made.append(f)
        for x, i in corners:
            if x not in copied:
                copied.add(x)
                rows[x] = rows[x].copy()
            rows[x][i] = f
    return EmbeddedGraph(vertices, rot, adj, None, rows), made


# Each mutation below is a public function that returns the new graph,
# and a helper that returns (graph, made, destroyed): the faces of the new
# graph that the old one lacks, from the walk that made them, and the faces
# of the old graph that the new one lacks.  A WitnessIndex reads the delta.

def mutate_add_edge(g, u, v, dart):
    """Add the chord uv inside the face named by `dart` (see face_dart);
    returns the new graph.  Each end x takes the other just before y,
    where (x -> y) is the first corner at x in the face's walk."""
    return _add_edge(g, u, v, dart)[0]


def _add_edge(g, u, v, dart):
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v or g.adjacent(u, v):
        raise AlreadyAdjacent(f"{u} and {v} are already adjacent")
    face = dart_face(g, dart) or ()
    if u not in face or v not in face:
        raise NotOnSameFace(f"{u} and {v} are not both on face {dart}")
    yu, yv = (face[(face.index(x) + 1) % len(face)] for x in (u, v))
    return _insert_chord(g, u, v, yu, yv)


def add_bypass_chord(g, v):
    """Join the two neighbors u and w of the degree-2 cut vertex v; returns
    the new graph.  Each takes the other just before v, at its corner on
    the one face that visits v twice.  Deleting v then leaves G - v plus
    uw, the graph that contracting uv gives; raises NotOnSameFace when v
    is not a degree-2 cut vertex."""
    return _bypass_chord(g, v)[0]


def _bypass_chord(g, v):
    g._check_vertex(v)
    r, at = g.rotation[v], g.face_at[v]
    if len(r) != 2 or at[0] != at[1]:
        raise NotOnSameFace(f"{v} is not a cut vertex of degree 2")
    return _insert_chord(g, *r, v, v)


def _insert_chord(g, u, v, yu, yv):
    """(g plus the chord uv, the two faces it splits its face into, that
    face as a 1-tuple); u takes v just before yu and v takes u just before
    yv in their rotations, and the corners (u -> yu) and (v -> yv) lie on
    the split face.  Only the two new faces are walked; every other face
    keeps its corners."""
    rot, rows, starts = list(g.rotation), list(g.face_at), []
    for x, other, y in ((u, v, yu), (v, u, yv)):
        j = rot[x].index(y)
        rot[x] = rot[x][:j] + (other,) + rot[x][j:]
        rows[x] = rows[x][:j] + [None] + rows[x][j:]
        starts.append((x, j))
    adj = list(g.adj)
    adj[u], adj[v] = adj[u] | {v}, adj[v] | {u}
    split = g.face_at[u][starts[0][1]]  # at the corner (u -> yu) of g
    return (*_derived(g.vertices, tuple(rot), tuple(adj), rows, starts),
            (split,))


def mutate_delete_vertex(g, v):
    """Remove v; returns the new graph.

    Only the rows of v and its neighbors change.  The faces around v merge
    into one face, the only one walked; every other face keeps its
    corners.  v is a cut vertex, and deleting it raises WouldDisconnect,
    exactly when a face visits it twice."""
    return _delete_vertex(g, v)[0]


def _delete_vertex(g, v):
    """(G - v, [the merged face], the set of faces around v); K2 - v makes
    no face."""
    g._check_vertex(v)
    if g.n == 1:
        raise UnknownVertex(f"deleting {v} leaves no vertex")
    around = set(g.face_at[v])
    if len(around) < len(g.face_at[v]):
        raise WouldDisconnect(f"removing {v} disconnects the graph")
    old = g.rotation
    rot, adj, rows = list(old), list(g.adj), list(g.face_at)
    for x in old[v]:
        j = old[x].index(v)
        rot[x] = old[x][:j] + old[x][j + 1:]
        rows[x] = rows[x][:j] + rows[x][j + 1:]
        adj[x] = adj[x] - {v}
    rot[v] = adj[v] = rows[v] = None
    # the corner after (v -> x) is (x -> the successor of v around x); it
    # lies on the merged face, at v's old position in x's rotation
    x = old[v][0]
    j = old[x].index(v)
    starts = [(x, j % len(rot[x]))] if rot[x] else []  # none for K2 - v
    live = g.vertices  # increasing, a range or a tuple
    i = bisect_left(live, v)
    return (*_derived((*live[:i], *live[i + 1:]), tuple(rot), tuple(adj),
                      rows, starts), around)


def induced_subgraph(g, vertices):
    """Embedding induced on a vertex set, which keeps its ids; the
    subgraph must be connected.
    """
    keep = set(vertices)
    for v in keep:
        g._check_vertex(v)
    rot = g.rotation
    return build(len(rot), [[u for u in r if u in keep] if x in keep else None
                            for x, r in enumerate(rot)])


def least_corner(g, f):
    """The corner (vertex, rotation position) where the walk of the face f
    starts; faces are ordered by it."""
    return f[0], g.rotation[f[0]].index(f[1])


def add_edge_any_face(g, u, v):
    """Add uv inside the first face, by least corner, containing both
    endpoints."""
    return _add_edge_any_face(g, u, v)[0]


def _add_edge_any_face(g, u, v):
    g._check_vertex(u)
    g._check_vertex(v)
    shared = set(g.face_at[u]).intersection(g.face_at[v])
    if not shared:
        raise NotOnSameFace(f"{u} and {v} share no face")
    f = min(shared, key=lambda f: least_corner(g, f))
    return _add_edge(g, u, v, face_dart(f))


# -- text format -------------------------------------------------------------

def to_pg(g):
    """Canonical '.pg' text, the live ids renumbered 0..n-1 in increasing
    order; bit-exact round-trip with from_pg."""
    name = dict(zip(g.vertices, map(str, range(g.n))))
    lines = [f"n {g.n}"]
    for v in g.vertices:
        lines.append(f"{name[v]}: " + " ".join(map(name.get, g.rotation[v])))
    return "\n".join(lines) + "\n"


def from_pg(text):
    n = None
    rows = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        # int() also reads "+1", "0_1" and non-ASCII digits; "-" is no id
        if not line.isascii() or "_" in line or "+" in line or "-" in line:
            raise UnknownVertex(
                f"ids and counts are ASCII decimal digits, got {line!r}")
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
        rows[v] = tuple(map(int, rest.split()))  # build keeps a tuple
    if n is None:
        raise UnknownVertex("missing 'n <count>' header line")
    for v in rows:
        if not (0 <= v < n):
            raise UnknownVertex(f"row for vertex {v} not in 0..{n - 1}")
    if len(rows) < n:  # checked before the n rotation lists are allocated
        v = next(v for v in range(n) if v not in rows)
        raise UnknownVertex(f"vertex {v} has no row")
    return build(n, [rows[v] for v in range(n)])


def row_hash(g, v):
    """The hash of the row of the live id v with rotation r1 ... rk: the
    8-byte BLAKE2b digest of the ids v, r1, ..., rk, each packed as a
    little-endian signed 64-bit int, read as a little-endian integer."""
    row = g.rotation[v]
    data = struct.pack(f"<{len(row) + 1}q", v, *row)
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def graph_digest(g):
    """64-bit digest of the graph: the sum mod 2**64 of its BLAKE2b row
    hashes (row_hash), a multiset hash that a step updates per changed
    row; not forgery-proof."""
    return sum(row_hash(g, v) for v in g.vertices) % 2**64
