"""psc benchmark: whole CLI runs, checked, with per-layer tracing on request.

    python3 perfbench/run.py --workload color-large --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each workload runs in its own process.  Inputs come from psc.generators,
seeded by --seed, and are written as .pg files during set-up.  A job is one
input graph run through the workload's command list by calling
``psc.cli.main`` in-process, with stdout captured in memory.  Whole passes
over the job list run until --seconds would be exceeded; each timing is the
median over passes.  Outputs are checked after each job, outside the timed
region, and their sha256 must repeat in every pass.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of one traced pass, run after a
warm-up pass and an untraced pass of the same jobs (the difference between
the last two is the tracing overhead).  Results, digests and spans go to perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from calibration import Calibration  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CONSTRUCTIVE = ("color", "--mode", "constructive", "--json")
GREEDY = ("color", "--mode", "greedy", "--json")
AUDIT = ("audit", "--json")
DETECT = ("detect", "--all")

BASE_LIMIT = 12      # reduce-forced: DSATUR is refused above this many vertices
SETUP_REPEATS = 3    # setup_s is the median over this many input generations
TAIL_BEYOND = 10     # job_tail_s leaves at least this many samples beyond it

WITNESS_KINDS = (
    "Deg1", "Deg2", "EdgeSeparator", "FaceTwoSmall", "Deg3SmallNbr",
    "Deg3TwoTriangles", "Deg3TriTwoSquares", "Deg4Tri5Tri",
    "GenericDeletable", "W_Deg3Triangle", "W_Deg4ThreeTriangles", "W_Tri5",
    "W_GenericDeletable21")


@dataclass(frozen=True)
class Stratum:
    """One graph of each family at each size, drawn from
    ``gen_corpus(·, (n, n), delta_min, ·, delta_max)``.  Every seed gets the
    same family mix and the same evenly spaced sizes, so job times spread
    smoothly and only the graphs themselves change with the seed."""
    sizes: tuple
    delta_min: int
    delta_max: int | None
    families: tuple


@dataclass(frozen=True)
class Workload:
    commands: tuple
    strata: tuple
    forced: bool = False


def spaced(lo, hi, count):
    return tuple(round(lo + (hi - lo) * k / (count - 1)) for k in range(count))


LARGE = ("hub", "stacked", "dense", "sparse")  # gen_corpus families, Delta >= 9
SMALL = ("sparse", "grid")                     # gen_corpus families, Delta <= 6

WORKLOADS = {
    # unforced main-theorem path: parse/build, square, DSATUR,
    # smallest-last order, verify; the reducer takes 0 steps
    "color-large": Workload(
        (CONSTRUCTIVE, GREEDY),
        (Stratum(spaced(300, 800, 10), 9, None, LARGE),)),
    # the reduction path, reached by refusing DSATUR above BASE_LIMIT
    "reduce-forced": Workload(
        (CONSTRUCTIVE,),
        (Stratum(spaced(25, 85, 8), 3, 6, SMALL),
         Stratum(spaced(25, 85, 8), 9, None, LARGE)),
        forced=True),
    # catalog full scan, discharging audit and JSON serialisation
    "inspect": Workload(
        (AUDIT, DETECT),
        (Stratum(spaced(60, 380, 8), 3, 6, SMALL),
         Stratum(spaced(60, 380, 8), 9, None, LARGE))),
}

# toy sizes for the self-test; every workload keeps at least 11 graphs so
# that job_tail_s exists
TOY = {
    "color-large": Workload(
        (CONSTRUCTIVE, GREEDY),
        (Stratum(spaced(30, 40, 3), 9, None, LARGE),)),
    "reduce-forced": Workload(
        (CONSTRUCTIVE,),
        (Stratum(spaced(16, 24, 2), 3, 6, SMALL),
         Stratum(spaced(20, 30, 2), 9, None, LARGE)),
        forced=True),
    "inspect": Workload(
        (AUDIT, DETECT),
        (Stratum(spaced(20, 30, 2), 3, 6, SMALL),
         Stratum(spaced(20, 30, 2), 9, None, LARGE))),
}

END_TO_END = (("throughput_vps", "vertex/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = [("cli.main.calls", "count"), ("cli.main.self_s", "s"),
           ("cli.output_bytes", "B")]
    for name in tracing.SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [("coloring.dsatur_color.fit_ratio", "ratio"),
            ("catalog.find_edge_separator.hit_ratio", "ratio"),
            ("reducer.steps", "count"), ("reducer.base_refusals", "count")]
    out += [(f"reducer.steps.{k}", "count") for k in WITNESS_KINDS]
    out += [("tracing.overhead_s", "s"), ("tracing.unattributed_s", "s")]
    return out


# -- inputs ------------------------------------------------------------------

def family(g):
    """The gen_corpus family a graph comes from, read off its structure."""
    degs = [len(r) for r in g.rotation]
    if g.m == 3 * g.n - 6:
        return "stacked"
    if sum(d > 2 for d in degs) <= 3:
        return "hub"
    if max(degs) <= 4 and degs.count(2) == 4:
        return "grid"
    if g.m > 2 * g.n:
        return "dense"
    return "sparse"


def make_inputs(gen, workload, seed):
    """The workload's graphs for a seed, as (family, graph) pairs."""
    out = []
    for j, st in enumerate(workload.strata):
        for n in st.sizes:
            got = {}
            chunk = 0
            while len(got) < len(st.families):
                if chunk == 100:
                    raise RuntimeError(f"no {st.families} graphs at n={n}")
                sub = random.Random(f"{seed}/{j}/{n}/{chunk}").getrandbits(32)
                # four draws per family: nearly every size is filled by one
                # chunk, so generation work hardly varies with the seed
                for g in gen.gen_corpus(4 * len(st.families), (n, n),
                                        st.delta_min, sub,
                                        delta_max=st.delta_max):
                    got.setdefault(family(g), g)
                chunk += 1
            out += [(f, got[f]) for f in st.families]
    return out


# -- jobs --------------------------------------------------------------------

class StingyDsatur:
    """DSATUR that refuses squares above `limit` vertices, so the reducer
    must take its reduction path with the true palette budget."""

    def __init__(self, real, limit):
        self.real = real
        self.limit = limit
        self.refusals = 0

    def __call__(self, sq, budget=None):
        if len(sq.adj) > self.limit:
            self.refusals += 1
            return None
        return self.real(sq, budget)


@dataclass
class JobResult:
    seconds: float
    outputs: list
    error: object  # None, or a one-line reason


def run_job(cli, commands, path, tracer):
    """Run one input through the command list; only the CLI calls are timed."""
    bufs, codes, errs = [], [], []
    error = None
    t0 = time.perf_counter()
    try:
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            bufs.append(out)
            errs.append(err)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    codes.append(cli.main([*argv, path]))
                else:
                    codes.append(tracer.call("cli.main", cli.main, [*argv, path]))
    except Exception:  # a crash in psc fails this job; the others still run
        error = traceback.format_exc().strip().splitlines()[-1]
    seconds = time.perf_counter() - t0
    for argv, code, err in zip(commands, codes, errs):
        if error is None and code != 0:
            error = f"psc {' '.join(argv)} exited {code}: {err.getvalue().strip()}"
    return JobResult(seconds, [b.getvalue() for b in bufs], error)


def check_job(psc, workload, g, outputs):
    """Independent checks of one job's outputs; None when all pass."""
    delta = max(len(r) for r in g.rotation)
    for argv, text in zip(workload.commands, outputs):
        if argv == CONSTRUCTIVE:
            budget = psc.budgets.Budget.for_graph(g).palette_size
            reason = checks.coloring(g, text, budget)
            if reason is None and workload.forced:
                reason = checks.forced_trace(text, BASE_LIMIT)
        elif argv == GREEDY:
            reason = checks.coloring(g, text, 5 * delta + 1)
        elif argv == AUDIT:
            reason = checks.audit(text)
        else:
            reason = checks.detect(g, text, psc.catalog)
        if reason is not None:
            return f"{' '.join(argv)}: {reason}"
    return None


def digest(outputs):
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def reduction_steps(commands, outputs):
    """Witness kinds of every reduction step in the constructive traces."""
    kinds = []

    def walk(steps):
        for s in steps:
            if "witness" in s:
                kinds.append(s["witness"]["kind"])
            for part in s.get("split_parts", []):
                walk(part)

    for argv, text in zip(commands, outputs):
        if argv == CONSTRUCTIVE:
            walk(json.loads(text).get("trace") or [])
    return kinds


class Bench:
    def __init__(self, psc, import_s, name, workload, seed, seconds, trace):
        self.psc = psc
        self.import_s = import_s  # process start until psc was imported
        self.name = name
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cal = Calibration()
        self.tmp = None        # directory of the input .pg files
        self.inputs = []       # (family, graph, path)
        self.digests = []      # per job, from its first pass
        self.failed = []       # per job: reason or None
        self.attempted = 0
        self.failures = 0
        self.job_seconds = []  # per job, its scaled seconds in each pass
        self.notes = {}

    def run_pass(self, tracer=None):
        """One pass over every job; checks run on the first pass only.
        Returns the job times in reference seconds, the pass's scale
        factor, the reduction-step kinds (traced only) and output bytes."""
        times = []
        kinds = []
        out_bytes = 0
        first = not self.digests
        for i, (_fam, g, path) in enumerate(self.inputs):
            gc.collect()
            self.cal.measure(2)
            res = run_job(self.psc.cli, self.workload.commands, path, tracer)
            times.append(res.seconds)
            dig = digest(res.outputs)
            if first:
                reason = res.error or check_job(self.psc, self.workload, g,
                                                res.outputs)
                self.digests.append(dig)
                self.failed.append(reason)
            elif res.error:
                self.failed[i] = self.failed[i] or res.error
            elif dig != self.digests[i]:
                self.failed[i] = self.failed[i] or "output differs between passes"
            self.attempted += 1
            self.failures += self.failed[i] is not None
            out_bytes += sum(len(t.encode()) for t in res.outputs)
            if tracer is not None:
                kinds += reduction_steps(self.workload.commands, res.outputs)
            del res
        factor = self.cal.factor()
        return [t * factor for t in times], factor, kinds, out_bytes

    def setup(self):
        """Generate and write the inputs SETUP_REPEATS times; returns the
        median set-up time in reference seconds, import included."""
        prep = []
        graphs = None
        for _ in range(SETUP_REPEATS):
            self.cal.measure(3)
            t0 = time.perf_counter()
            graphs = make_inputs(self.psc.generators, self.workload, self.seed)
            for i, (_fam, g) in enumerate(graphs):
                (self.tmp / f"g{i:03d}.pg").write_text(self.psc.embedding.to_pg(g))
            prep.append(time.perf_counter() - t0)
            self.cal.measure(3)
        self.inputs = [(fam, g, str(self.tmp / f"g{i:03d}.pg"))
                       for i, (fam, g) in enumerate(graphs)]
        wall = self.import_s + statistics.median(prep)
        factor = self.cal.factor()
        self.notes["setup_wall_s"] = wall
        self.notes["setup_factor"] = factor
        return wall * factor

    def run(self):
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"inputs-{self.name}-", dir=OUT))
        try:
            setup_s = self.setup()
            stingy = None
            if self.workload.forced:
                stingy = StingyDsatur(self.psc.coloring.dsatur_color, BASE_LIMIT)
                self.psc.coloring.dsatur_color = stingy
            if self.trace:
                return self.traced(stingy)
            return self.untraced(setup_s)
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def untraced(self, setup_s):
        pass_times = []
        factors = []
        t_phase = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            times, factor, _, _ = self.run_pass()
            pass_times.append(times)
            factors.append(factor)
            now = time.perf_counter()
            if now - t_phase + (now - t_pass) > self.seconds:
                break
        vertices = sum(g.n for _, g, _ in self.inputs)
        self.job_seconds = [list(ts) for ts in zip(*pass_times)]
        per_job = [statistics.median(ts) for ts in self.job_seconds]
        tail_value, tail_pct = tail(per_job)
        self.notes.update({
            "passes": len(pass_times), "jobs": len(per_job),
            "vertices": vertices,
            "job_tail_s": f"p{tail_pct} of {len(per_job)} per-job medians",
            "pass_factors": [round(f, 4) for f in factors],
            "pass_wall_s": [round(sum(ts) / f, 4)
                            for ts, f in zip(pass_times, factors)],
            "family_p50_s": family_medians(self.inputs, per_job),
        })
        return {
            "throughput_vps": statistics.median(vertices / sum(ts)
                                                for ts in pass_times),
            "job_p50_s": statistics.median(per_job),
            "job_tail_s": tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def traced(self, stingy):
        psc = self.psc
        self.run_pass()  # warm-up, and the checks: the first pass runs slower
        untraced_times, _, _, _ = self.run_pass()
        tracer = tracing.Tracer()
        tracer.install({m: getattr(psc, m) for m in tracing.WRAPPED})
        try:
            tracer.phase = "setup"
            again = make_inputs(psc.generators, self.workload, self.seed)
            if [g for _, g in again] != [g for _, g, _ in self.inputs]:
                raise RuntimeError("input generation is not deterministic")
            del again
            tracer.phase = "jobs"
            if stingy is not None:
                stingy.refusals = 0
            traced_times, factor, kinds, out_bytes = self.run_pass(tracer)
        finally:
            tracer.uninstall()
        self.job_seconds = [list(ts) for ts in zip(untraced_times, traced_times)]
        jobs = tracer.summary("jobs")
        setup = tracer.summary("setup")
        root = jobs["cli.main"]
        metrics = {"cli.main.calls": root["calls"],
                   "cli.main.self_s": root["self_s"] * factor,
                   "cli.output_bytes": out_bytes}
        for name in tracing.SPAN_NAMES:
            agg = (setup if name == "generators.gen_corpus" else jobs)[name]
            metrics[f"{name}.calls"] = agg["calls"]
            metrics[f"{name}.self_s"] = agg["self_s"] * factor
        metrics["coloring.dsatur_color.fit_ratio"] = ratio(
            jobs["coloring.dsatur_color"])
        metrics["catalog.find_edge_separator.hit_ratio"] = ratio(
            jobs["catalog.find_edge_separator"])
        metrics["reducer.steps"] = len(kinds)
        metrics["reducer.base_refusals"] = stingy.refusals if stingy else 0
        for k in WITNESS_KINDS:
            metrics[f"reducer.steps.{k}"] = kinds.count(k)
        metrics["tracing.overhead_s"] = sum(traced_times) - sum(untraced_times)
        metrics["tracing.unattributed_s"] = (sum(traced_times)
                                             - root["total_s"] * factor)
        out = OUT / "spans"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{self.name}-seed{self.seed}.jsonl")
        self.notes.update({
            "passes": 3, "jobs": len(self.inputs),
            "untraced_s": sum(untraced_times), "traced_s": sum(traced_times),
            "unlisted_witness_kinds": sorted(set(kinds) - set(WITNESS_KINDS))})
        return metrics


def ratio(agg):
    return agg["hits"] / agg["calls"] if agg["calls"] else 0.0


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    s = sorted(samples)
    k = len(s) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"{len(s)} jobs leave no tail with {TAIL_BEYOND} beyond")
    return s[k], 100 * (k + 1) // len(s)


def family_medians(inputs, per_job):
    fams = {}
    for (fam, _, _), t in zip(inputs, per_job):
        fams.setdefault(fam, []).append(t)
    return {f: round(statistics.median(ts), 4) for f, ts in fams.items()}


# -- entry point -------------------------------------------------------------

def import_psc():
    """Import psc from the checkout's src/, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import psc.budgets
    import psc.catalog
    import psc.cli
    import psc.coloring
    import psc.discharge
    import psc.embedding
    import psc.generators
    import psc.reducer
    if not Path(psc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"psc imported from {psc.__file__}, not from {src}")
    return psc


def run_all(args):
    """Every workload, each in a fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy input sizes, for the self-test")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        psc = import_psc()
    except ImportError as e:
        print(f"error: cannot import psc from the checkout: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    workload = (TOY if args.toy else WORKLOADS)[args.workload]
    bench = Bench(psc, import_s, args.workload, workload, args.seed,
                  args.seconds, args.trace)
    metrics = bench.run()
    units = dict(per_layer_names() if args.trace else END_TO_END)
    if not args.trace:
        metrics["failed_frac"] = bench.failures / bench.attempted
        units["failed_frac"] = "fraction"
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for key, value in bench.notes.items():
        print(f"# {key}: {value}")
    for i, reason in enumerate(bench.failed):
        if reason is not None:
            print(f"# FAILED job {i}: {reason}")
    metrics.pop("failed_frac", None)
    result = {
        "correct": bench.failures == 0, "attempted": bench.attempted,
        "failed": bench.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = OUT / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "notes": bench.notes, "jobs": [
            {"family": fam, "n": g.n, "sha256": dig, "failed": reason,
             "seconds": secs}
            for (fam, g, _), dig, reason, secs in zip(
                bench.inputs, bench.digests, bench.failed,
                bench.job_seconds)]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
