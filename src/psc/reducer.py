"""Constructive square coloring by witness-driven reduction.

The graph is repeatedly reduced (vertex deletions, chord additions, or an
edge-separator split) following the first catalog witness in priority order,
until DSATUR on the square fits the palette budget; colorings are then
extended back step by step.  A base limit makes the base case explicit:
DSATUR is tried only on graphs of at most that many vertices, and larger
ones are always reduced, as in the paper's induction.  Every run is
deterministic and produces a replayable trace, in the input's vertex ids.
"""

from __future__ import annotations

import functools
import json

from . import catalog as cat
from . import coloring as col
from . import embedding as emb
from .budgets import Budget
from .errors import ExtensionStuck, MergeInfeasible, NoWitnessFound


class ReductionTrace:
    """The trace records in pre-order: each step, and after each base case
    its {"terminal": ...} record.  A split step is followed by part 1's
    records, then part 2's, each part ending with its own terminal record,
    so the last record is the final base case's."""

    def __init__(self, records):
        self.records = records

    def to_obj(self):
        return self.records

    def to_jsonl(self):
        return "".join(json.dumps(r) + "\n" for r in self.records)


def color_within_budget(g, budget=None, base_limit=None):
    """Verified square coloring within the proven palette budget, plus the
    reduction trace that produced it.  With a base_limit, DSATUR colors
    only graphs of at most base_limit vertices; the default tries it on
    every graph."""
    if budget is None:
        budget = Budget.for_graph(g)
    if g.max_degree() > budget.delta_context:
        raise ExtensionStuck("Delta exceeds the budget's delta_context")
    mapping, records = _solve(g, budget, base_limit)
    palette = max(mapping.values(), default=1)
    coloring = col.SquareColoring(palette, mapping)
    ok, pair = col.verify(g, coloring)
    if not ok:
        raise MergeInfeasible(f"final coloring invalid at pair {pair}")
    if palette > budget.palette_size:
        raise ExtensionStuck(
            f"palette {palette} exceeds budget {budget.palette_size}")
    return coloring, ReductionTrace(records)


class _Reduction:
    """A graph under reduction and what is carried from one mutation to the
    next: the digest (emb.graph_digest) with the BLAKE2b hash of each live
    row (emb.row_hash), and, built on first use, the witness index.  A
    mutation changes only the rotation rows of the ids it touches, so only
    those rows are re-hashed."""

    def __init__(self, g, budget):
        self.g = g
        self.budget = budget
        self.hashes = {v: emb.row_hash(g, v) for v in g.vertices}
        self.digest = sum(self.hashes.values()) % 2**64
        self._index = None

    def first_witness(self):
        if self._index is None:
            self._index = cat.WitnessIndex(self.g, self.budget)
        return self._index.first()

    def advance(self, g, touched, made, destroyed):
        """Move to g, made from the current graph by one mutation that
        changed the rows of `touched` only, made the faces `made` and
        destroyed the faces `destroyed`."""
        digest = self.digest
        for x in touched:
            digest -= self.hashes.pop(x)
            if x in g:
                self.hashes[x] = h = emb.row_hash(g, x)
                digest += h
        self.digest = digest % 2**64
        if self._index is not None:
            self._index.update(g, touched, made, destroyed)
        self.g = g


def _solve(g, budget, base_limit):
    """Color one connected graph within the budget; returns (vertex ->
    color, the trace records).

    One loop over a stack of tasks, with no recursion.  A task is a graph
    to reduce, the extension of a deleted vertex, or the merge of a
    split's two colorings, and the colorings solved so far are a stack as
    well: a base case pushes one, an extension colors its vertex in the
    top one, and a merge replaces the top two by one.  A split pushes its
    merge, part 2, then part 1, the smaller side, so that part 1 is solved
    first, and the records come in pre-order.  A graph's extensions are
    pushed below what its reduction ends in, so they unwind in reverse,
    onto the coloring of the graph it was reduced to.  Only one graph is
    under reduction at a time, and a merge holds no graph."""
    records, colorings, tasks = [], [], [g]
    while tasks:
        task = tasks.pop()
        if isinstance(task, emb.EmbeddedGraph):
            _reduce(task, budget, base_limit, records, tasks, colorings)
        else:
            task(colorings)
    return colorings.pop(), records


def _reduce(g, budget, base_limit, records, tasks, colorings):
    """Reduce g until a base case colors it, pushed onto colorings, or
    until an edge separator splits it into two tasks; each deletion pushes
    its extension task.

    A step changes only the rows of a chord's ends, or of the deleted
    vertex and its neighbors (recipe edges and a bypass chord join only
    those), and degree-checks them.  A recipe is applied one mutation at a
    time, each passed to the carried state, whose witness index is proved
    correct for one deletion or one chord.
    """
    run = _Reduction(g, budget)
    while True:
        current = run.g
        base = None
        if base_limit is None or current.n <= base_limit:
            base = col.dsatur_color(emb.square(current), budget.palette_size)
        if base is not None:
            records.append({"terminal": {
                "n": current.n, "palette": base.palette_size,
                "digest": f"{run.digest:016x}"}})
            colorings.append(dict(base.color_of))
            return
        w = run.first_witness()
        if w is None:
            raise NoWitnessFound(
                "no reducible configuration found (would contradict the "
                "structure theorem)", graph_text=emb.to_pg(current))
        step = {"witness": w.to_obj(), "before": f"{run.digest:016x}"}
        records.append(step)
        op = w.recipe["op"]
        if op == "split":
            step["after"] = None
            step["extension"] = "merge"
            u, v = w.recipe["u"], w.recipe["v"]
            comp = set(w.recipe["component"])
            near = set(current.neighbors(u)) | set(current.neighbors(v))
            part2 = sorted(set(current.vertices) - comp)
            tasks += [functools.partial(_merge, u, v, sorted(near & comp),
                                        sorted(near - comp - {u, v}), budget),
                      emb.induced_subgraph(current, part2),
                      emb.induced_subgraph(current, sorted(comp | {u, v}))]
            return
        if op == "add_edge":
            touched = (w.recipe["u"], w.recipe["v"])
            nxt, made, destroyed = emb._add_edge(current, *touched,
                                                 w.recipe["face"])
            run.advance(nxt, touched, made, destroyed)
        else:
            v = w.recipe["v"]
            touched = (v, *current.adj[v])
            edges = w.recipe.get("edges", []) if op == "delete_and_add" else []
            # the extension reads only v's ball, so the graph is not kept
            tasks.append(functools.partial(
                _extend, v, emb.dist2_neighborhood(current, v), budget, step))
            for mutation in _deletion(current, v, edges):
                run.advance(*mutation)
        if any(len(run.g.rotation[x]) > budget.delta_context
               for x in touched if x in run.g):
            raise ExtensionStuck("reduction raised the maximum degree past "
                                 f"{budget.delta_context}")
        step["after"] = f"{run.digest:016x}"
        step["extension"] = None


def _deletion(g, v, edges):
    """G - v plus the recipe's edges, one mutation at a time: yields each
    graph with the ids whose rows it changed and the faces it made and
    destroyed.

    Deleting a cut vertex v alone would disconnect the graph.  The only
    first witness that deletes one is of kind Deg2 (rank 1): a degree-1
    vertex is never a cut vertex, and each neighbor u of a cut vertex v
    is a Deg1 witness (rank 0) if it has degree 1, and otherwise makes uv
    an EdgeSeparator (rank 2), which ranks before every later kind.  So a
    cut vertex of degree 2 is first bypassed by the chord joining its two
    neighbors, its recipe's edge; any other cut vertex raises
    WouldDisconnect."""
    try:
        out, made, destroyed = emb._delete_vertex(g, v)
    except emb.WouldDisconnect:
        if len(g.rotation[v]) != 2:
            raise
        out, made, destroyed = emb._bypass_chord(g, v)
        yield out, g.rotation[v], made, destroyed
        out, made, destroyed = emb._delete_vertex(out, v)
    yield out, (v, *g.adj[v]), made, destroyed
    for a, b in edges:
        if not out.adjacent(a, b):
            out, made, destroyed = emb._add_edge_any_face(out, a, b)
            yield out, (a, b), made, destroyed


def _extend(v, ball, budget, step, colorings):
    """Color the deleted vertex v with the smallest color absent from its
    distance-2 ball `ball` in the pre-deletion graph, writing it into the
    top coloring, that of the reduced graph."""
    mapping = colorings[-1]
    forbidden = {mapping[u] for u in ball}
    for c in range(1, budget.palette_size + 1):
        if c not in forbidden:
            mapping[v] = c
            step["extension"] = c
            return
    raise ExtensionStuck(
        f"no free color for vertex {v}: {len(forbidden)} forbidden of "
        f"{budget.palette_size} (witness {step['witness']['kind']})")


def _merge(u, v, n1, n2, budget, colorings):
    """Replace the top two colorings, of a split's part 1 and part 2, by
    their merge.  Both are normalized to color u 1 and v 2, and part 2's
    colors are permuted so that its neighbors of u and v, n2, avoid the
    colors of part 1's, n1."""
    col2 = _normalize_uv(colorings.pop(), u, v)
    col1 = _normalize_uv(colorings[-1], u, v)
    sigma = _avoiding_permutation(
        budget.palette_size,
        sources=sorted({col2[x] for x in n2}),
        blocked={col1[x] for x in n1})
    if sigma[1] != 1 or sigma[2] != 2:  # u and v, in both parts
        raise MergeInfeasible("separator endpoints recolored by permutation")
    colorings[-1] = {**col1, **{x: sigma[c] for x, c in col2.items()}}


def _normalize_uv(mapping, u, v):
    """Swap color classes so that u gets color 1 and v color 2."""
    cu, cv = mapping[u], mapping[v]
    swap = {cu: 1, 1: cu}
    out = {x: swap.get(c, c) for x, c in mapping.items()}
    cv = out[v]
    swap = {cv: 2, 2: cv}
    return {x: swap.get(c, c) for x, c in out.items()}


def _avoiding_permutation(k, sources, blocked):
    """Bijection on 1..k fixing 1 and 2 that moves every source color out of
    the blocked set: in ascending order, each blocked source above 2 swaps
    with the smallest color >= 3 that is neither blocked nor a source."""
    moving = sorted(c for c in sources if c in blocked and c > 2)
    free = [t for t in range(3, k + 1) if t not in blocked and t not in sources]
    if len(free) < len(moving):
        raise MergeInfeasible("palette too small to separate cut sides")
    sigma = {c: c for c in range(1, k + 1)}
    for c, t in zip(moving, free):
        sigma[c], sigma[t] = t, c
    return sigma
