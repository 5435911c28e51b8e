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

import json

from . import catalog as cat
from . import coloring as col
from . import embedding as emb
from .budgets import Budget
from .errors import ExtensionStuck, MergeInfeasible, NoWitnessFound


class ReductionTrace:
    def __init__(self, steps, terminal):
        self.steps = steps
        self.terminal = terminal

    def to_obj(self):
        """The trace records: each step, then {"terminal": ...}.  Each part
        of a split ends with its own terminal record in the same way."""
        return [*self.steps, {"terminal": self.terminal}]

    def to_jsonl(self):
        return "".join(json.dumps(r) + "\n" for r in self.to_obj())


def color_within_budget(g, budget=None, base_limit=None):
    """Verified square coloring within the proven palette budget, plus the
    reduction trace that produced it.  With a base_limit, DSATUR colors
    only graphs of at most base_limit vertices; the default tries it on
    every graph."""
    if budget is None:
        budget = Budget.for_graph(g)
    if g.max_degree() > budget.delta_context:
        raise ExtensionStuck("Delta exceeds the budget's delta_context")
    mapping, steps, terminal = _solve(g, budget, base_limit)
    palette = max(mapping.values(), default=1)
    coloring = col.SquareColoring(palette, mapping)
    ok, pair = col.verify(g, coloring)
    if not ok:
        raise MergeInfeasible(f"final coloring invalid at pair {pair}")
    if palette > budget.palette_size:
        raise ExtensionStuck(
            f"palette {palette} exceeds budget {budget.palette_size}")
    return coloring, ReductionTrace(steps, terminal)


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

    def advance(self, g, touched):
        """Move to g, made from the current graph by one mutation that
        changed the rows of `touched` only."""
        digest = self.digest
        for x in touched:
            digest -= self.hashes.pop(x)
            if x in g:
                self.hashes[x] = h = emb.row_hash(g, x)
                digest += h
        self.digest = digest % 2**64
        if self._index is not None:
            self._index.update(g, touched)
        self.g = g


def _solve(g, budget, base_limit):
    """Color one connected graph within the budget; returns (vertex ->
    color, the trace steps, the terminal record of the last base case).

    Chain reductions (delete / add edge) are handled iteratively; only
    edge-separator splits recurse.  A step changes only the rows of a
    chord's ends, or of the deleted vertex and its neighbors (recipe edges
    and a bypass chord join only those), and degree-checks them.  A recipe
    is applied one mutation at a time, each passed to the carried state,
    whose witness index is proved correct for one deletion or one chord.
    """
    steps = []
    pending = []  # extension records, unwound in reverse
    run = _Reduction(g, budget)
    while True:
        current = run.g
        base = None
        if base_limit is None or current.n <= base_limit:
            base = col.dsatur_color(emb.square(current), budget.palette_size)
        if base is not None:
            terminal = {"n": current.n, "palette": base.palette_size,
                        "digest": f"{run.digest:016x}"}
            mapping = dict(base.color_of)
            break
        w = run.first_witness()
        if w is None:
            raise NoWitnessFound(
                "no reducible configuration found (would contradict the "
                "structure theorem)", graph_text=emb.to_pg(current))
        step = {"witness": w.to_obj(), "before": f"{run.digest:016x}"}
        op = w.recipe["op"]
        if op == "split":
            step["after"] = None
            step["extension"] = "merge"
            mapping, parts, terminal = _merge_separator(
                current, w, budget, base_limit)
            steps += [step, {"split_parts": parts}]
            break
        if op == "add_edge":
            touched = (w.recipe["u"], w.recipe["v"])
            run.advance(emb.mutate_add_edge(current, *touched,
                                            w.recipe["face"]), touched)
        else:
            v = w.recipe["v"]
            touched = (v, *current.adj[v])
            edges = w.recipe.get("edges", []) if op == "delete_and_add" else []
            # the extension reads only v's ball, so the graph is not kept
            pending.append((v, emb.dist2_neighborhood(current, v), step))
            for nxt, changed in _deletion(current, v, edges):
                run.advance(nxt, changed)
        if any(len(run.g.rotation[x]) > budget.delta_context
               for x in touched if x in run.g):
            raise ExtensionStuck("reduction raised the maximum degree past "
                                 f"{budget.delta_context}")
        step["after"] = f"{run.digest:016x}"
        step["extension"] = None
        steps.append(step)
    for v, ball, step in reversed(pending):
        _extend(v, ball, mapping, budget, step)
    return mapping, steps, terminal


def _deletion(g, v, edges):
    """G - v plus the recipe's edges, one mutation at a time: yields each
    graph with the ids whose rows it changed.

    Deleting a cut vertex v alone would disconnect the graph.  The only
    first witness that deletes one is of kind Deg2 (rank 1): a degree-1
    vertex is never a cut vertex, and each neighbor u of a cut vertex v
    is a Deg1 witness (rank 0) if it has degree 1, and otherwise makes uv
    an EdgeSeparator (rank 2), which ranks before every later kind.  So a
    cut vertex of degree 2 is first bypassed by the chord joining its two
    neighbors, its recipe's edge; any other cut vertex raises
    WouldDisconnect."""
    try:
        out = emb.mutate_delete_vertex(g, v)
    except emb.WouldDisconnect:
        if len(g.rotation[v]) != 2:
            raise
        out = emb.add_bypass_chord(g, v)
        yield out, g.rotation[v]
        out = emb.mutate_delete_vertex(out, v)
    yield out, (v, *g.adj[v])
    for a, b in edges:
        if not out.adjacent(a, b):
            out = emb.add_edge_any_face(out, a, b)
            yield out, (a, b)


def _extend(v, ball, mapping, budget, step):
    """Color the deleted vertex v with the smallest color absent from its
    distance-2 ball `ball` in the pre-deletion graph, writing it into
    mapping, which colors the reduced graph."""
    forbidden = {mapping[u] for u in ball}
    for c in range(1, budget.palette_size + 1):
        if c not in forbidden:
            mapping[v] = c
            step["extension"] = c
            return
    raise ExtensionStuck(
        f"no free color for vertex {v}: {len(forbidden)} forbidden of "
        f"{budget.palette_size} (witness {step['witness']['kind']})")


def _merge_separator(g, w, budget, base_limit):
    """Returns (merged coloring, each part's records, part 2's terminal)."""
    u, v = w.recipe["u"], w.recipe["v"]
    comp = w.recipe["component"]
    part1 = sorted(set(comp) | {u, v})
    part2 = sorted(set(g.vertices) - set(comp))
    m1, sub1, t1 = _solve(emb.induced_subgraph(g, part1), budget, base_limit)
    m2, sub2, t2 = _solve(emb.induced_subgraph(g, part2), budget, base_limit)
    parts = [[*sub1, {"terminal": t1}], [*sub2, {"terminal": t2}]]
    col1 = _normalize_uv(m1, u, v)
    col2 = _normalize_uv(m2, u, v)
    n1 = sorted((set(g.neighbors(u)) | set(g.neighbors(v))) & set(comp))
    n2 = sorted(((set(g.neighbors(u)) | set(g.neighbors(v))) - set(comp))
                - {u, v})
    sigma = _avoiding_permutation(
        budget.palette_size,
        sources=sorted({col2[x] for x in n2}),
        blocked={col1[x] for x in n1})
    merged = dict(col1)
    for x in part2:
        merged[x] = sigma[col2[x]]
    if merged[u] != col1[u] or merged[v] != col1[v]:
        raise MergeInfeasible("separator endpoints recolored by permutation")
    return merged, parts, t2


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
