import dataclasses
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from conftest import exact_gap_graph

import psc
from psc import catalog as cat
from psc import cli
from psc import coloring as col
from psc import discharge as dis
from psc import embedding as emb
from psc import generators as gen
from psc import reducer as red
from psc.budgets import Budget


def run(argv):
    return cli.main(argv)


@pytest.fixture
def w11(tmp_path):
    path = tmp_path / "w11.pg"
    assert run(["gen", "--family", "wegner", "--delta", "11",
                "-o", str(path)]) == 0
    return path


@pytest.fixture
def tri(tmp_path):
    path = tmp_path / "t.pg"
    assert run(["gen", "--family", "stacked", "--n", "50", "--seed", "7",
                "-o", str(path)]) == 0
    return path


def test_gen_wegner(w11):
    g = emb.from_pg(w11.read_text())
    assert g.n == 18 and g.max_degree() == 11


def test_gen_stacked(tri):
    g = emb.from_pg(tri.read_text())
    assert g.n == 50 and g.m == 144


@pytest.mark.parametrize("family, n, size", [
    ("cycle", "5", (5, 5)), ("grid", "3", (9, 12))])
def test_gen_cycle_grid(family, n, size, tmp_path):
    path = tmp_path / "g.pg"
    assert run(["gen", "--family", family, "--n", n, "-o", str(path)]) == 0
    g = emb.from_pg(path.read_text())
    assert (g.n, g.m) == size


@pytest.mark.parametrize("k", [1, 2, 7])
def test_gen_k4chain(k, tmp_path):
    # reference: the chain built block by block, each block's first and
    # last vertex joined to its neighbours' by the bridges
    rot = []
    for i in range(k):
        rot += [[4 * i + x for x in r] for r in gen.K4_ROTATION]
        if i:
            rot[4 * i].insert(0, 4 * i - 1)
            rot[4 * i - 1].append(4 * i)
    path = tmp_path / "k4c.pg"
    assert run(["gen", "--family", "k4chain", "--n", str(k),
                "-o", str(path)]) == 0
    assert path.read_text() == emb.to_pg(emb.build(4 * k, rot))
    g = emb.from_pg(path.read_text())
    assert (g.n, g.m) == (4 * k, 7 * k - 1)


def test_gen_bad_delta(capsys):
    assert run(["gen", "--family", "wegner", "--delta", "8"]) == 2
    assert "delta" in capsys.readouterr().err


def test_gen_seed_env(tmp_path, monkeypatch):
    a = tmp_path / "a.pg"
    b = tmp_path / "b.pg"
    monkeypatch.setenv("PSC_SEED", "99")
    run(["gen", "--family", "stacked", "--n", "20", "-o", str(a)])
    monkeypatch.delenv("PSC_SEED")
    run(["gen", "--family", "stacked", "--n", "20", "--seed", "99",
         "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_color_exact_wegner(w11, capsys):
    assert run(["color", "--mode", "exact", str(w11)]) == 0
    assert "palette=17" in capsys.readouterr().out
    assert run(["color", "--mode", "exact", "--timeout", "30", str(w11)]) == 0
    assert "palette=17" in capsys.readouterr().out


def test_color_exact_timeout(tmp_path, capsys):
    path = tmp_path / "gap.pg"
    path.write_text(emb.to_pg(exact_gap_graph()))
    assert run(["color", "--mode", "exact", "--timeout", "1e-9",
                str(path)]) == 0
    out, err = capsys.readouterr()
    assert "palette=5" in out and "verified=yes" in out
    assert err == "chi2 <= 5 (timeout, not exact)\n"


def test_color_constructive(tri, capsys):
    assert run(["color", "--mode", "constructive", str(tri)]) == 0
    out = capsys.readouterr().out
    assert "verified=yes" in out


def test_color_constructive_json(tri, tmp_path):
    out = tmp_path / "c.json"
    assert run(["color", "--mode", "constructive", "--json", str(tri),
                "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["verified"] is True
    assert obj["palette"] <= 2 * 11 + 7 or obj["palette"] <= 2 * emb.from_pg(
        tri.read_text()).max_degree() + 7
    assert obj["trace"][-1]["terminal"]["palette"] >= 1


def test_color_constructive_verifies_once(tri, capsys):
    """color_within_budget verifies its coloring or raises, and
    `psc color` reports that verdict without verifying again."""
    with mock.patch.object(col, "verify", wraps=col.verify) as verify:
        assert run(["color", "--json", str(tri)]) == 0
    assert verify.call_count == 1
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_color_json_writes_a_flat_trace(tmp_path, capsys):
    """A forced run on a chain of k blocks splits k - 1 times, and its
    trace stays flat: each split step is followed by its parts' records in
    pre-order, each part ending with its own terminal.  `psc color` writes,
    and `psc verify` reads, a trace of 1500 splits, and neither changes
    the recursion limit."""
    path, out = tmp_path / "k4.pg", tmp_path / "c.json"
    path.write_text(emb.to_pg(gen.named_graph("k4")))
    coloring = col.SquareColoring(4, {v: v + 1 for v in range(4)})
    terminal = {"terminal": {"n": 4, "palette": 4, "digest": "0" * 16}}
    trace = red.ReductionTrace([{"witness": None}, terminal] * 1500
                               + [terminal])
    limit = sys.getrecursionlimit()
    with mock.patch.object(red, "color_within_budget",
                           lambda *args, **kwargs: (coloring, trace)):
        assert run(["color", "--json", "-o", str(out), str(path)]) == 0
        assert run(["color", str(path)]) == 0
    assert json.loads(out.read_text())["trace"] == trace.to_obj()
    assert capsys.readouterr().out.count("terminal") == 1501
    assert run(["verify", str(path), str(out)]) == 0
    assert sys.getrecursionlimit() == limit


def test_color_greedy(tri, capsys):
    assert run(["color", "--mode", "greedy", str(tri)]) == 0
    assert "verified=yes" in capsys.readouterr().out


def test_color_budget_failure(w11):
    assert run(["color", "--mode", "dsatur", "--budget", "3", str(w11)]) == 1


def test_audit_text(w11, capsys):
    assert run(["audit", str(w11)]) == 0
    assert "sum=-12/1" in capsys.readouterr().out


def test_audit_json(tmp_path, capsys):
    k4 = tmp_path / "k4.pg"
    run(["gen", "--family", "k4", "-o", str(k4)])
    assert run(["audit", "--json", str(k4)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sum_final"] == "-12/1"
    assert len(obj["negatives"]) == 4


def test_audit_and_detect_json_are_canonical(tmp_path, capsys):
    # psc audit --json writes its text directly; it must read back to the
    # very text json.dumps gives for it, as psc detect --all's does
    graphs = {"k2": emb.build(2, [[1], [0]]),
              "hub": gen.gen_hub_triple(2, 7, 30, True),
              "c6": gen.gen_cycle(6),
              "icosahedron": gen.named_graph("icosahedron")}
    graphs.update((f"s{i}", g) for i, g in enumerate(
        gen.gen_corpus(4, (20, 60), 9, 11)
        + gen.gen_corpus(4, (20, 60), 3, 11, delta_max=6)))
    for name, g in graphs.items():
        path = tmp_path / f"{name}.pg"
        path.write_text(emb.to_pg(g))
        for argv in (["audit", "--json"], ["detect", "--all"]):
            run([*argv, str(path)])
            text = capsys.readouterr().out
            assert text.endswith("\n")
            assert json.dumps(json.loads(text)) == text[:-1], (name, argv)


def test_detect(tmp_path, capsys):
    k4 = tmp_path / "k4.pg"
    run(["gen", "--family", "k4", "-o", str(k4)])
    assert run(["detect", "--all", str(k4)]) == 0
    ws = json.loads(capsys.readouterr().out)
    assert any(w["kind"] == "W_Deg3Triangle" for w in ws)


def test_detect_first(w11, capsys):
    assert run(["detect", str(w11)]) == 0
    ws = json.loads(capsys.readouterr().out)
    assert len(ws) == 1 and ws[0]["kind"] == "Deg2"


def test_verify_roundtrip(tri, tmp_path, capsys):
    cjson = tmp_path / "c.json"
    run(["color", "--mode", "constructive", "--json", str(tri),
         "-o", str(cjson)])
    obj = json.loads(cjson.read_text())
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(
        {"palette": obj["palette"], "colors": obj["colors"]}))
    assert run(["verify", str(tri), str(plain)]) == 0
    assert "valid" in capsys.readouterr().out


def test_verify_invalid(tmp_path, capsys):
    p3 = tmp_path / "p3.pg"
    p3.write_text("n 3\n0: 1\n1: 0 2\n2: 1\n")
    bad = tmp_path / "bad.json"
    bad.write_text('{"palette": 2, "colors": {"0": 1, "1": 2, "2": 1}}')
    assert run(["verify", str(p3), str(bad)]) == 1
    assert "share color" in capsys.readouterr().out


def test_verify_bad_color_exit_1(tmp_path, capsys):
    p3 = tmp_path / "p3.pg"
    p3.write_text("n 3\n0: 1\n1: 0 2\n2: 1\n")
    bad = tmp_path / "bad.json"
    bad.write_text('{"palette": 3, "colors": {"0": 1, "1": 2, "2": 0}}')
    assert run(["verify", str(p3), str(bad)]) == 1
    assert "vertex 2 has color 0" in capsys.readouterr().out


def test_verify_partial(tmp_path, capsys):
    # a coloring that misses a vertex is a failed check, not an input error
    p3 = tmp_path / "p3.pg"
    p3.write_text("n 3\n0: 1\n1: 0 2\n2: 1\n")
    part = tmp_path / "part.json"
    part.write_text('{"palette": 3, "colors": {"0": 1, "1": 2}}')
    assert run(["verify", str(p3), str(part)]) == 1
    assert capsys.readouterr().out == "invalid: vertex 2 has no color\n"


def test_one_vertex_graph(tmp_path, capsys):
    k1 = tmp_path / "k1.pg"
    k1.write_text("n 1\n0:\n")
    assert run(["color", str(k1)]) == 0
    assert capsys.readouterr().out.startswith("palette=1\nverified=yes\n")
    assert run(["audit", str(k1)]) == 0
    assert capsys.readouterr().out.startswith("sum=-12/1\n")


@pytest.mark.parametrize("text", [
    '{"palette": 3, "colors": {"0": "x", "1": 2, "2": 3}}',
    '{"colors": {"0": 1, "1": 2, "2": 3}}',
    '[1, 2, 3]',
    '{"palette": 3, "colors": {"0": true, "1": 2, "2": 3}}',
    '{"palette": 3, "colors": {"0": 1, "1": 2, "2": 3, "02": 1}}',
    '{"palette": 3, "colors": {"0": 1, "1": 2, "2": 3, "-0": 2}}',
    '{"palette": 3, "colors": {"0": 1, "1": 2, "2": 3, "0": 3}}',
])
def test_verify_malformed_coloring_exit_2(tmp_path, capsys, text):
    p3 = tmp_path / "p3.pg"
    p3.write_text("n 3\n0: 1\n1: 0 2\n2: 1\n")
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert run(["verify", str(p3), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_color_budget_not_met_exit_1(tmp_path, capsys):
    # the octahedron's square is K6, so palette 3 cannot be reached
    path = tmp_path / "oct.pg"
    path.write_text(emb.to_pg(gen.named_graph("octahedron")))
    assert run(["color", "--budget", "3", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_no_witness_dumps_graph(tri, capsys):
    with mock.patch.object(cat.WitnessIndex, "first", lambda self: None):
        assert run(["color", "--base-limit", "6", str(tri)]) == 2
    err = capsys.readouterr().err
    head, _, dump = err.partition("\n")
    assert head.startswith("error: no reducible configuration")
    assert emb.from_pg(dump) == emb.from_pg(tri.read_text())


def test_detect_budget_override(tri, capsys):
    g = emb.from_pg(tri.read_text())
    ws = cat.detect_all(
        g, dataclasses.replace(Budget.for_graph(g), palette_size=20))
    assert ws != cat.detect_all(g)  # the override changes the report
    assert run(["detect", "--all", "--budget", "20", str(tri)]) == 0
    assert capsys.readouterr().out == cat.report_json(ws) + "\n"


# flags a subcommand does not read (also --base-limit and --timeout with a
# mode that does not read them, and gen's --delta, --n and --seed with a
# family that does not read them), a gen family without the flag it needs,
# and values out of range (a budget or base limit below 1, a timeout that
# is not a positive finite number), are rejected, not ignored
@pytest.mark.parametrize("argv", [
    ["gen", "--family", "k4", "--json"],
    ["color", "--seed", "1", "{g}"],
    ["audit", "--seed", "1", "{g}"],
    ["detect", "--seed", "1", "{g}"],
    ["verify", "--seed", "1", "{g}", "{c}"],
    ["detect", "--json", "{g}"],
    ["verify", "--json", "{g}", "{c}"],
    ["verify", "-o", "{out}", "{g}", "{c}"],
    ["corpus", "--mode", "bogus", "--n", "1"],
    ["gen", "--family", "foo"],
    ["gen", "--family", "k4", "--n", "50", "--delta", "9", "--seed", "3"],
    ["gen", "--family", "k4", "--n", "5"],
    ["gen", "--family", "octahedron", "--seed", "3"],
    ["gen", "--family", "stacked", "--n", "6", "--delta", "11"],
    ["gen", "--family", "wegner", "--delta", "9", "--n", "5"],
    ["gen", "--family", "wegner", "--delta", "9", "--seed", "3"],
    ["gen", "--family", "cycle", "--n", "5", "--seed", "3"],
    ["gen", "--family", "grid", "--n", "3", "--delta", "9"],
    ["gen", "--family", "wegner"],
    ["gen", "--family", "grid", "-o", "{out}"],
    ["gen", "--family", "k4chain"],
    ["gen", "--family", "k4chain", "--n", "3", "--delta", "9"],
    ["gen", "--family", "k4chain", "--n", "3", "--seed", "3"],
    ["gen", "--family", "k4chain", "--n", "0"],
    ["corpus", "--n", "0"],
    ["corpus", "--n", "-3", "--json"],
    ["color", "--budget", "0", "{g}"],
    ["color", "--mode", "greedy", "--budget", "0", "{g}"],
    ["color", "--budget", "x", "{g}"],
    ["detect", "--budget", "-5", "{g}"],
    ["color", "--base-limit", "0", "{g}"],
    ["color", "--mode", "dsatur", "--base-limit", "3", "{g}"],
    ["color", "--mode", "exact", "--timeout", "nan", "{g}"],
    ["color", "--mode", "exact", "--timeout", "inf", "{g}"],
    ["color", "--mode", "exact", "--timeout", "0", "{g}"],
    ["color", "--mode", "exact", "--timeout", "-1", "{g}"],
    ["color", "--mode", "greedy", "--timeout", "5", "{g}"],
    ["color", "--timeout", "5", "{g}"],
], ids=" ".join)
def test_unsupported_flag_exit_2(tmp_path, argv):
    paths = {"{g}": tmp_path / "k4.pg", "{c}": tmp_path / "c.json",
             "{out}": tmp_path / "out.txt"}
    assert run(["gen", "--family", "k4", "-o", str(paths["{g}"])]) == 0
    assert run(["color", "--json", str(paths["{g}"]),
                "-o", str(paths["{c}"])]) == 0
    assert run([str(paths.get(a, a)) for a in argv]) == 2
    assert not paths["{out}"].exists()


def test_missing_input_exit_2(tmp_path):
    assert run(["color", str(tmp_path / "nope.pg")]) == 2


def test_bad_row_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.pg"
    bad.write_text("n 4\n0: 1 2 3\n1: 0 3 2\n2: 0 1 3\n3: 0 2 1\n9:\n")
    assert run(["detect", str(bad)]) == 2
    assert "row for vertex 9" in capsys.readouterr().err
    # int() reads each of these as the id 1
    for token in ("0_1", "+1", "\u0661"):
        bad.write_text(f"n 2\n0: {token}\n1: 0\n", encoding="utf-8")
        assert run(["color", str(bad)]) == 2
        assert ("ids and counts are ASCII decimal digits, got "
                f"'0: {token}'") in capsys.readouterr().err


def test_corpus(capsys):
    assert run(["corpus", "--n", "4", "--delta", "9", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("delta", ["9", "3"])
def test_corpus_all_modes_json(delta, capsys):
    assert run(["corpus", "--mode", "all", "--n", "4", "--delta", delta]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == ["charges", "constructive",
                                               "detect"]
    assert all(ln.endswith("0 failures  PASS") for ln in lines)
    assert run(["corpus", "--mode", "all", "--n", "4", "--delta", delta,
                "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [{"check": chk, "graphs": 4, "failures": 0,
                     "status": "PASS"}
                    for chk in ("charges", "constructive", "detect")]


def test_corpus_charges_fail_on_broken_rule():
    # the worker is called directly, so the patch holds in any start method
    task = (emb.to_pg(gen.gen_corpus(1, (20, 60), 9, 101)[0]), "charges")
    assert cli._corpus_member(task) == {"charges": True}
    rule = dis.vertex_rule

    def doubled(d, weak):
        return [(r, i, 2 * amount, j) for r, i, amount, j in rule(d, weak)]
    with mock.patch.object(dis, "vertex_rule", doubled):
        assert cli._corpus_member(task) == {"charges": False}


def test_corpus_constructive_verifies_once():
    """color_within_budget verifies its coloring within the budget or
    raises, so the corpus worker verifies each graph once."""
    graphs = (gen.gen_corpus(3, (20, 40), 9, 5)
              + gen.gen_corpus(3, (20, 40), 3, 6, delta_max=6))
    with mock.patch.object(col, "verify", wraps=col.verify) as verify:
        for g in graphs:
            task = (emb.to_pg(g), "constructive")
            assert cli._corpus_member(task) == {"constructive": True}
    assert verify.call_count == len(graphs)


def test_determinism_cli(tri, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(["color", "--mode", "constructive", str(tri), "-o", str(a)])
    run(["color", "--mode", "constructive", str(tri), "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_main_in_a_row_matches_fresh_processes(tri, capsys):
    """main builds its parser once per process.  Run several times in a
    row, a usage error among them, it prints and returns for each run what
    a fresh process does."""
    assert cli.make_parser() is cli.make_parser()
    argvs = [["color", "--json", str(tri)],
             ["color", "--mode", "bogus", str(tri)],
             ["audit", str(tri)],
             ["detect", str(tri)]]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(psc.__file__)))
    fresh = [subprocess.run([sys.executable, "-m", "psc.cli", *argv],
                            capture_output=True, text=True, env=env)
             for argv in argvs]
    assert [p.returncode for p in fresh] == [0, 2, 0, 0]
    for _ in range(2):
        for argv, p in zip(argvs, fresh):
            code = run(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == (p.returncode, p.stdout, p.stderr), argv


def test_import_leaves_process_pool_out():
    # only `psc corpus` runs a process pool, so only it imports one
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(psc.__file__)))
    code = ("import sys, psc.cli; "
            "assert 'concurrent.futures' not in sys.modules, 'imported'")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env)
    assert p.returncode == 0, p.stderr
