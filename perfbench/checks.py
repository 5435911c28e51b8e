"""Output checks for the psc benchmark.

They run outside the timed region and do not rely on the code they check:
colorings are checked by the benchmark's own distance-2 test, not by
``psc.coloring.verify`` (which accepts color 0).  Each check returns None
when the output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import json


def coloring(g, text, max_palette):
    """A CLI ``color --json`` output: a distance-2 coloring of exactly g's
    vertices, with colors in 1..palette and palette <= max_palette."""
    try:
        obj = json.loads(text)
    except ValueError as e:
        return f"output is not JSON: {e}"
    palette, colors = obj.get("palette"), obj.get("colors")
    if not isinstance(palette, int) or not isinstance(colors, dict):
        return "output has no palette or no colors"
    if palette > max_palette:
        return f"palette {palette} exceeds the budget {max_palette}"
    if set(colors) != {str(v) for v in range(g.n)}:
        return "colored vertex set differs from the graph's vertex set"
    col = [colors[str(v)] for v in range(g.n)]
    for v, c in enumerate(col):
        if type(c) is not int or not 1 <= c <= palette:
            return f"vertex {v} has color {c!r} outside 1..{palette}"
    # two vertices are within distance 2 exactly when both lie in the closed
    # neighborhood of one vertex, so each closed neighborhood is rainbow
    for w, nbrs in enumerate(g.rotation):
        ball = [col[w]] + [col[u] for u in nbrs]
        if len(set(ball)) != len(ball):
            return f"two vertices within distance 2 of vertex {w} share a color"
    if obj.get("verified") is not True:
        return "psc did not report the coloring as verified"
    return None


def forced_trace(text, base_limit):
    """The reduction trace of a constructive run reduced the graph at least
    once and stopped at a base case of at most base_limit vertices."""
    trace = json.loads(text).get("trace") or []
    if not any("witness" in step for step in trace):
        return "the reduction trace has no reduction step"
    terminal = trace[-1].get("terminal")
    if not terminal or terminal.get("n", base_limit + 1) > base_limit:
        return f"terminal graph {terminal} is above the base case {base_limit}"
    return None


def audit(text):
    """A CLI ``audit --json`` output whose initial and final charge sums are
    both -12.  Only the two fields are decoded, so that checking a large
    report does not raise the benchmark's peak memory."""
    decoder = json.JSONDecoder()
    for key in ("sum_initial", "sum_final"):
        head = f'"{key}": '
        i = text.find(head)
        if i < 0:
            return f"audit output has no {key}"
        value, _ = decoder.raw_decode(text, i + len(head))
        if value != "-12/1":
            return f"{key} is {value!r}, not '-12/1'"
    return None


def detect(g, text, cat):
    """A CLI ``detect --all`` output: a non-empty list of witnesses that each
    pass ``psc.catalog.check_witness`` on g."""
    try:
        objs = json.loads(text)
    except ValueError as e:
        return f"output is not JSON: {e}"
    if not objs:
        return "detect --all reported no witness"
    for obj in objs:
        w = cat.ConfigWitness(kind=obj["kind"], actors=tuple(obj["actors"]),
                              recipe=obj["recipe"], faces=tuple(obj["faces"]))
        try:
            ok = cat.check_witness(g, w)
        except Exception as e:  # a forged actor can raise inside the check
            return f"witness {obj['kind']} {obj['actors']} raised {e!r}"
        if not ok:
            return f"witness {obj['kind']} {obj['actors']} fails check_witness"
    return None
