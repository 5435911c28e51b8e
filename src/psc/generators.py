"""Embedded planar test-graph generators.

All generators are deterministic functions of their parameters (and a seed
where randomness is involved) and always return graphs that pass the
embedding validation.  Random families aim at corpus diversity (degree
spread, face sizes), not at uniformity over planar graphs.
"""

from __future__ import annotations

import random

from . import embedding as emb
from .errors import BadDelta, ExhaustedAttempts

# Rotation systems of the two Platonic solids used in the small-degree
# catalog tests, oriented consistently (Euler-checked).
OCTAHEDRON_ROTATION = [
    [5, 2, 4, 3], [4, 2, 5, 3], [4, 0, 5, 1],
    [5, 0, 4, 1], [3, 0, 2, 1], [2, 0, 3, 1],
]
ICOSAHEDRON_ROTATION = [
    [6, 2, 1, 7, 5], [3, 7, 0, 2, 8], [8, 1, 0, 6, 4], [11, 7, 1, 8, 9],
    [9, 8, 2, 6, 10], [10, 6, 0, 7, 11], [4, 2, 0, 5, 10], [11, 5, 0, 1, 3],
    [9, 3, 1, 2, 4], [10, 11, 3, 8, 4], [11, 9, 4, 6, 5], [5, 7, 3, 9, 10],
]
K4_ROTATION = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]


def named_graph(name):
    table = {
        "k4": K4_ROTATION,
        "octahedron": OCTAHEDRON_ROTATION,
        "icosahedron": ICOSAHEDRON_ROTATION,
    }
    rot = table[name]
    return emb.build(len(rot), rot)


def gen_cycle(n):
    if n < 3:
        raise BadDelta("cycle needs n >= 3")
    return emb.build(n, [[(i - 1) % n, (i + 1) % n] for i in range(n)])


def gen_grid(rows, cols):
    """rows x cols grid with the usual axis-aligned embedding."""
    if rows < 2 or cols < 2:
        raise BadDelta("grid needs rows, cols >= 2")

    def vid(r, c):
        return r * cols + c

    rot = []
    for r in range(rows):
        for c in range(cols):
            # clockwise: up, right, down, left
            order = []
            if r > 0:
                order.append(vid(r - 1, c))
            if c < cols - 1:
                order.append(vid(r, c + 1))
            if r < rows - 1:
                order.append(vid(r + 1, c))
            if c > 0:
                order.append(vid(r, c - 1))
            rot.append(order)
    return emb.build(rows * cols, rot)


def gen_hub_triple(p, q, r, extra_edge):
    """Three hubs v1, v2, v3 joined pairwise by sets of degree-2 vertices.

    p vertices between v1 and v2, q between v1 and v3, r between v2 and v3;
    the optional direct edge v2-v3 is routed outside the r set.
    """
    if min(p, q, r) < 1:
        raise BadDelta("set sizes must be >= 1")
    v1, v2, v3 = 0, 1, 2
    a = list(range(3, 3 + p))
    b = list(range(3 + p, 3 + p + q))
    c = list(range(3 + p + q, 3 + p + q + r))
    n = 3 + p + q + r
    rot = [None] * n
    rot[v1] = list(reversed(b)) + a
    rot[v2] = list(reversed(a)) + c + ([v3] if extra_edge else [])
    rot[v3] = b + ([v2] if extra_edge else []) + list(reversed(c))
    for x in a:
        rot[x] = [v1, v2]
    for x in b:
        rot[x] = [v1, v3]
    for x in c:
        rot[x] = [v2, v3]
    return emb.build(n, rot)


def gen_wegner(delta):
    """Wegner's lower-bound construction for odd maximum degree."""
    if delta < 3 or delta % 2 == 0:
        raise BadDelta(f"delta must be odd and >= 3, got {delta}")
    k = (delta - 1) // 2
    return gen_hub_triple(k, k, k, True)


def gen_k4_chain(k):
    """k copies of K4, block i on 4i..4i+3, each joined to the next by the
    bridge from 4i+3 to 4i+4: no vertex has degree 1 or 2, and every edge
    at a bridge end separates."""
    if k < 1:
        raise BadDelta("k4chain needs k >= 1")
    rot = []
    for i in range(k):
        rot += [[4 * i + x for x in r] for r in K4_ROTATION]
        if i:
            rot[4 * i].insert(0, 4 * i - 1)
            rot[4 * i - 1].append(4 * i)
    return emb.build(len(rot), rot)


class _RotationBuilder:
    """Mutable rotation lists supporting fast local planar operations."""

    def __init__(self, rotation):
        self.rot = [list(r) for r in rotation]

    @property
    def n(self):
        return len(self.rot)

    def degree(self, v):
        return len(self.rot[v])

    def max_degree(self):
        return max(map(len, self.rot))

    def insert_in_triangle(self, a, b, c):
        """Insert a new vertex joined to the corners of oriented 3-face
        (a->b),(b->c),(c->a); returns the id and the three new faces."""
        w = len(self.rot)
        self.rot[a].insert(self.rot[a].index(b), w)
        self.rot[b].insert(self.rot[b].index(c), w)
        self.rot[c].insert(self.rot[c].index(a), w)
        self.rot.append([a, c, b])
        return w, [(a, b, w), (b, c, w), (c, a, w)]

    def attach_parallel(self, h, u):
        """Add a degree-2 vertex adjacent to h and u (an existing edge),
        placed in the face holding the corner (h->u)."""
        w = len(self.rot)
        self.rot[h].insert(self.rot[h].index(u), w)
        self.rot[u].insert(self.rot[u].index(h) + 1, w)
        self.rot.append([h, u])
        return w

    def boost_to(self, target_delta, rng):
        """Attach degree-2 vertices around a hub until its degree reaches
        the target."""
        hub = max(range(self.n), key=lambda v: (self.degree(v), -v))
        while self.degree(hub) < target_delta:
            u = rng.choice(self.rot[hub])
            self.attach_parallel(hub, u)

    def build(self):
        return emb.build(len(self.rot), self.rot)


def gen_stacked_triangulation(n, seed=0):
    """Stacked (Apollonian) triangulation grown from K4 by repeated
    insertion of a vertex in a random face."""
    if n < 4:
        raise BadDelta("stacked triangulation needs n >= 4")
    return _gen_stacked(n, seed).build()


def _gen_stacked(n, seed):
    """The _RotationBuilder of gen_stacked_triangulation(n, seed)."""
    rng = random.Random(seed)
    rb = _RotationBuilder(K4_ROTATION)
    faces = [(0, 1, 3), (0, 2, 1), (0, 3, 2), (1, 2, 3)]
    while rb.n < n:
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        _, new_faces = rb.insert_in_triangle(a, b, c)
        faces[i] = new_faces[0]
        faces.extend(new_faces[1:])
    return rb


def _gen_grown_sparse(n, seed, delta_max=None):
    """Cycle seeded graph grown by parallel degree-2 insertions; produces a
    mix of 3-faces and larger faces.  Returns its _RotationBuilder."""
    rng = random.Random(seed)
    base = max(3, min(n, 3 + rng.randrange(8)))
    rb = _RotationBuilder([[(i - 1) % base, (i + 1) % base] for i in range(base)])
    attempts = 0
    while rb.n < n and attempts < 20 * n:
        attempts += 1
        h = rng.randrange(rb.n)
        if not rb.rot[h]:
            continue
        u = rng.choice(rb.rot[h])
        if delta_max is not None and (rb.degree(h) >= delta_max or rb.degree(u) >= delta_max):
            continue
        rb.attach_parallel(h, u)
    return rb


def _gen_dense_mixed(n, seed):
    """Stacked triangulation with extra degree-2 insertions that break some
    triangles into larger faces.  Returns its _RotationBuilder."""
    rng = random.Random(seed)
    rb = _gen_stacked(max(4, (2 * n) // 3), seed)
    while rb.n < n:
        h = rng.randrange(rb.n)
        u = rng.choice(rb.rot[h])
        rb.attach_parallel(h, u)
    return rb


def gen_corpus(count, n_range, delta_min, seed, delta_max=None):
    """A reproducible mix of planar families filtered to delta_min <= Delta
    (<= delta_max when given).  Raises ExhaustedAttempts when the degree
    filter cannot be met.
    """
    if delta_min < 0:
        raise BadDelta("delta_min must be >= 0")
    lo, hi = n_range
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count + 50:
            raise ExhaustedAttempts(
                f"could not generate {count} graphs with Delta in "
                f"[{delta_min}, {delta_max}]")
        n = rng.randint(lo, hi)
        family = rng.randrange(4 if delta_max is None else 2)
        sub = rng.getrandbits(32)
        try:
            if delta_max is not None:
                if family == 0:
                    g = _gen_grown_sparse(n, sub, delta_max=delta_max)
                else:
                    cols = max(2, int(round(n ** 0.5)))
                    g = gen_grid(max(2, n // cols), cols)
            elif family == 0 or (n < 6 and family != 2):
                g = _gen_stacked(max(4, n), sub)
            elif family == 1:
                g = _gen_dense_mixed(n, sub)
            elif family == 2:
                g = _gen_grown_sparse(n, sub)
            else:
                p = max(1, n // 3 - 1)
                g = gen_hub_triple(p, max(1, p - rng.randrange(2)),
                                   max(1, p - rng.randrange(2)),
                                   rng.random() < 0.7)
        except BadDelta:
            continue
        if delta_min and g.max_degree() < delta_min:
            if delta_max is not None and delta_min > delta_max:
                continue
            if isinstance(g, emb.EmbeddedGraph):
                g = _RotationBuilder(g.rotation)
            g.boost_to(delta_min, rng)
        if delta_max is not None and g.max_degree() > delta_max:
            continue
        out.append(g if isinstance(g, emb.EmbeddedGraph) else g.build())
    return out
