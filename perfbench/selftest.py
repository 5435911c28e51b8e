"""Fast self-test of the psc benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that each
emits exactly the metrics BENCHMARK.json names, with their units.  Then it
checks that the output checkers reject planted faults: a coloring with
color 0, a coloring with a distance-2 clash, a forged witness, a wrong
charge sum and a constructive trace without reduction steps.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import checks
import run

HERE = Path(__file__).resolve().parent


def check_workloads(spec):
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False, timeout=170)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want[trace], (w["name"], trace, got.keys() ^ want[trace].keys())
            print(f"ok  {w['name']} trace={trace}: {len(got)} metrics")


def cli_json(psc, argv, g, tmp):
    path = tmp / "g.pg"
    path.write_text(psc.embedding.to_pg(g))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert psc.cli.main([*argv, str(path)]) == 0
    return buf.getvalue()


def check_checkers(psc):
    tmp = run.OUT / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    g = psc.generators.gen_stacked_triangulation(30, 5)
    budget = psc.budgets.Budget.for_graph(g).palette_size

    text = cli_json(psc, run.CONSTRUCTIVE, g, tmp)
    assert checks.coloring(g, text, budget) is None
    obj = json.loads(text)

    zero = dict(obj, colors=dict(obj["colors"], **{"0": 0}))
    assert checks.coloring(g, json.dumps(zero), budget) is not None
    # psc's own verify accepts color 0; the benchmark must not rely on it
    coloring = psc.coloring.SquareColoring(
        obj["palette"], {int(v): c for v, c in zero["colors"].items()})
    print("note: psc.coloring.verify accepts color 0:",
          psc.coloring.verify(g, coloring)[0])

    u = 0
    w = next(x for x in psc.embedding.dist2_neighborhood(g, u)
             if x not in g.neighbors(u))
    clash = dict(obj, colors=dict(obj["colors"], **{str(w): obj["colors"][str(u)]}))
    assert checks.coloring(g, json.dumps(clash), budget) is not None
    missing = dict(obj, colors={k: c for k, c in obj["colors"].items() if k != "0"})
    assert checks.coloring(g, json.dumps(missing), budget) is not None
    assert checks.coloring(g, text, obj["palette"] - 1) is not None
    print("ok  coloring checker rejects color 0, a distance-2 clash, a "
          "missing vertex and an over-budget palette")

    assert checks.forced_trace(text, run.BASE_LIMIT) is not None
    print("ok  forced-path guard rejects a trace without reduction steps")

    report = cli_json(psc, run.DETECT, g, tmp)
    assert checks.detect(g, report, psc.catalog) is None
    forged = json.loads(report)
    big = max(range(g.n), key=g.degree)
    forged.append({"kind": "Deg1", "actors": [big], "faces": [],
                   "recipe": {"op": "delete", "v": big}})
    assert checks.detect(g, json.dumps(forged), psc.catalog) is not None
    assert checks.detect(g, "[]", psc.catalog) is not None
    print("ok  detect checker rejects a forged witness and an empty report")

    audit = cli_json(psc, run.AUDIT, g, tmp)
    assert checks.audit(audit) is None
    bad = audit.replace('"sum_final": "-12/1"', '"sum_final": "-11/1"', 1)
    assert bad != audit and checks.audit(bad) is not None
    print("ok  audit checker rejects a wrong charge sum")


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    psc = run.import_psc()
    check_checkers(psc)
    check_workloads(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
