"""Command-line toolkit: generate graphs, color them, audit charges, detect
reducible configurations, verify colorings, and run corpus checks.

Exit codes: 0 success, 1 check failure, 2 usage/input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import catalog as cat
from . import coloring as col
from . import discharge as dis
from . import embedding as emb
from . import generators as gen
from . import reducer as red
from .budgets import Budget
from .errors import ExtensionStuck, MergeInfeasible, PscError

DEFAULT_SEED = 1729


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PSC_SEED")
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def positive_int(text):
    """argparse type for --budget (a palette needs at least one color) and
    --base-limit (a base case has at least one vertex)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_seconds(text):
    """argparse type for --timeout: a positive finite number of seconds.
    A nan deadline never passes, so it would disable the limit."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


def _budget(g, palette):
    b = Budget.for_graph(g)
    return b if palette is None else dataclasses.replace(b, palette_size=palette)


def _read_graph(path):
    with open(path) as fh:
        return emb.from_pg(fh.read())


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# gen family -> (builder of the parsed arguments, the flags it reads);
# every flag it reads but --seed is required
GEN_FAMILIES = {
    "wegner": (lambda a: gen.gen_wegner(a.delta), ("delta",)),
    "stacked": (lambda a: gen.gen_stacked_triangulation(a.n, _seed(a)),
                ("n", "seed")),
    "cycle": (lambda a: gen.gen_cycle(a.n), ("n",)),
    "grid": (lambda a: gen.gen_grid(a.n, a.n), ("n",)),
    "k4chain": (lambda a: gen.gen_k4_chain(a.n), ("n",)),
    **{name: (lambda a: gen.named_graph(a.family), ())
       for name in ("k4", "octahedron", "icosahedron")},
}


def cmd_gen(args):
    make, reads = GEN_FAMILIES[args.family]
    for flag in ("delta", "n", "seed"):
        given = getattr(args, flag) is not None
        if given and flag not in reads:
            raise PscError(f"--family {args.family} does not read --{flag}")
        if not given and flag in reads and flag != "seed":
            raise PscError(f"--family {args.family} requires --{flag}")
    _emit(emb.to_pg(make(args)), args.output)
    return 0


def cmd_color(args):
    if args.base_limit is not None and args.mode != "constructive":
        raise PscError("--base-limit needs --mode constructive")
    if args.timeout is not None and args.mode != "exact":
        raise PscError("--timeout needs --mode exact")
    g = _read_graph(args.input)
    budget = args.budget
    trace = None
    if args.mode == "constructive":
        b = _budget(g, budget)
        try:
            coloring, trace = red.color_within_budget(
                g, b, base_limit=args.base_limit)
        except (ExtensionStuck, MergeInfeasible) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        budget = b.palette_size
    elif args.mode == "exact":
        res = col.exact_chi2(g, time_limit=args.timeout or 60.0)
        coloring = res.witness
        if not res.exact:
            print(f"chi2 <= {res.chi2} (timeout, not exact)", file=sys.stderr)
    elif args.mode == "dsatur":
        coloring = col.dsatur_color(emb.square(g))
    else:  # greedy
        coloring = col.greedy_color(g)
    if budget is None and args.mode in ("dsatur", "greedy"):
        budget = 5 * g.max_degree() + 1
    if trace is not None:  # color_within_budget verified it, or raised
        ok, pair = True, None
    else:
        ok, pair = col.verify(g, coloring)
    if args.json:
        obj = {**coloring.to_obj(), "verified": ok}
        if trace is not None:
            obj["trace"] = trace.to_obj()
        _emit(json.dumps(obj) + "\n", args.output)
    else:
        lines = [f"palette={coloring.palette_size}",
                 f"verified={'yes' if ok else 'no (%s,%s)' % pair}"]
        if budget is not None:
            lines.append(f"budget={budget}")
        if trace is not None:
            lines.append("trace:")
            lines.append(trace.to_jsonl().rstrip("\n"))
        _emit("\n".join(lines) + "\n", args.output)
    if not ok or (budget is not None and coloring.palette_size > budget):
        return 1
    return 0


def cmd_audit(args):
    g = _read_graph(args.input)
    report = dis.audit(g)
    if args.json:
        _emit(report.to_json() + "\n", args.output)
    else:
        led = report.ledger
        lines = [f"sum={dis.fmt(led.total_final())}",
                 f"transfers={len(led.transfers)}",
                 f"weak={sorted(v for v, s in report.weak_strong.items() if s == dis.WEAK)}"]
        kinds_of = {}  # citation list id -> its kinds; twins share a list
        for el, c in report.negatives:
            refs = report.cross_refs[el]
            kinds = kinds_of.get(id(refs))
            if kinds is None:
                kinds = kinds_of[id(refs)] = sorted(
                    {report.witnesses[i].kind for i in refs})
            lines.append(f"negative {el[0]}{el[1]} {dis.fmt(c)} witnesses={kinds}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_detect(args):
    g = _read_graph(args.input)
    budget = _budget(g, args.budget)
    if args.all:
        ws = cat.detect_all(g, budget)
    else:
        w = cat.find_first_witness(g, budget)
        ws = [w] if w else []
    _emit(cat.report_json(ws) + "\n", args.output)
    return 0 if ws else 1


def cmd_verify(args):
    g = _read_graph(args.input)
    with open(args.coloring) as fh:
        coloring = col.SquareColoring.from_json(fh.read())
    ok, pair = col.verify(g, coloring)
    if ok:
        print("valid")
        return 0
    v, u = pair
    c = coloring.color_of.get(v)
    if c is None:
        print(f"invalid: vertex {v} has no color")
    elif v == u:
        print(f"invalid: vertex {v} has color {c}; colors must be in "
              f"1..{coloring.palette_size} on vertices 0..{g.n - 1}")
    else:
        print(f"invalid: vertices {v} and {u} share color {c}")
    return 1


def _corpus_member(task):
    """Worker: run all checks on one graph; returns a dict of pass flags."""
    text, mode = task
    g = emb.from_pg(text)
    out = {}
    if mode in ("charges", "all"):
        ledger, _ = dis.charges(g)
        out["charges"] = not dis.lemma_violations(ledger, g)
    if mode in ("detect", "all"):
        out["detect"] = bool(cat.detect_all(g))
    if mode in ("constructive", "all"):
        try:  # verifies its coloring within the graph's budget, or raises
            red.color_within_budget(g)
            out["constructive"] = True
        except PscError:
            out["constructive"] = False
    return out


def cmd_corpus(args):
    import concurrent.futures  # here, its one use: it imports logging too

    if args.n < 1:
        raise PscError("--n must be at least 1")
    delta_max = 6 if args.delta <= 6 else None
    graphs = gen.gen_corpus(args.n, (20, 200), args.delta, _seed(args),
                            delta_max=delta_max)
    tasks = [(emb.to_pg(g), args.mode) for g in graphs]
    workers = min(8, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_corpus_member, tasks))
    checks = sorted({k for r in results for k in r})
    failed = False
    rows = []
    for chk in checks:
        bad = sum(1 for r in results if not r.get(chk, True))
        rows.append({"check": chk, "graphs": len(results), "failures": bad,
                     "status": "PASS" if bad == 0 else "FAIL"})
        failed = failed or bad > 0
    if args.json:
        _emit(json.dumps(rows) + "\n", args.output)
    else:
        lines = [f"{r['check']:<14} {r['graphs']:>5} graphs  "
                 f"{r['failures']:>3} failures  {r['status']}" for r in rows]
        _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


@functools.cache
def make_parser():
    """The psc argument parser, built once per process: parse_args keeps
    no state between calls, and building it costs about 1 ms."""
    p = argparse.ArgumentParser(
        prog="psc", description="planar square coloring toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("gen", help="generate a graph")
    sp.add_argument("--family", required=True, choices=list(GEN_FAMILIES))
    sp.add_argument("--delta", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("color", help="color the square of a graph")
    sp.add_argument("--mode", default="constructive",
                    choices=["greedy", "dsatur", "constructive", "exact"])
    sp.add_argument("--budget", type=positive_int, default=None)
    sp.add_argument("--base-limit", type=positive_int, default=None,
                    help="try DSATUR only on graphs of at most this many "
                         "vertices; reduce larger ones (constructive only)")
    sp.add_argument("--timeout", type=positive_seconds, default=None,
                    help="seconds for the exact search (default 60; "
                         "exact only)")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("input", help="input .pg graph file")
    sp.set_defaults(fn=cmd_color)

    sp = sub.add_parser("audit", help="discharging audit")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("input", help="input .pg graph file")
    sp.set_defaults(fn=cmd_audit)

    sp = sub.add_parser("detect", help="find reducible configurations")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--budget", type=positive_int, default=None)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("input", help="input .pg graph file")
    sp.set_defaults(fn=cmd_detect)

    sp = sub.add_parser("verify", help="check a coloring JSON against a graph")
    sp.add_argument("input", help="input .pg graph file")
    sp.add_argument("coloring", help="coloring JSON file")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("corpus", help="generate a corpus and run checks")
    sp.add_argument("--mode", default="all",
                    choices=["charges", "detect", "constructive", "all"])
    sp.add_argument("--delta", type=int, default=9,
                    help="minimum Delta (<=6 selects the small regime)")
    sp.add_argument("--n", type=int, default=100, help="number of graphs")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(fn=cmd_corpus)
    return p


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (PscError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        if getattr(e, "graph_text", None):
            sys.stderr.write(e.graph_text)
        return 2


if __name__ == "__main__":
    sys.exit(main())
