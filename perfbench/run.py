"""chowcheck benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one caller in one process and one
thread: the next request is sent only when the previous one returned.
A run repeats whole passes until --seconds have elapsed (at least one).

Workloads, and why each was chosen:
  paper   one verify_paper() under the default convention (dmax 12) and its
          machine report per pass.  It is what users run, and its time is
          spread over every layer: the Gamma3pp gluing kernel, claim
          evaluation (mostly minimal_generators) and the sign sweep.
  sweep   convention_search over each `sweep:` group of the shipped claims,
          all 16 conventions, as verify_paper does.  Mostly stratum
          construction (invariants, subalgebra membership); no
          minimal_generators and no Gamma3pp gluing, so a change to those
          should show no effect here.
  adhoc   a seeded stream of distinct documents through chowcheck.cli.main
          (gb, member, nf, elim, kernel, colon, nzd, invpres, dims) over
          non-homogeneous katsura/cyclic systems under grevlex and lex,
          weighted-homogeneous maps and ideals under wgrevlex, the packaged
          stratum actions and small signed-permutation groups.  It feeds the
          Groebner layer input the pipeline never produces, and puts the
          parser and the CLI on the critical path.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
wraps chowcheck's public functions from the outside (tracer.py) and
reports per-layer metrics instead, writing the span tree under .perfbench/.
A "document" is one request: a verify_paper report, one convention_search
group, or one CLI call.  wall_s is the time a pass spends in its requests.

Every reported time is in reference-speed seconds (speed.py): the measured
wall time scaled by the machine's speed, sampled through the same interval
by a calibration kernel.  On a shared host the same work takes up to 1.5x
longer from one minute to the next; the scaling takes that out, so runs of
the same code agree.  The measured wall times are printed as well.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

# machine report of the seed commit under the default convention, dmax 12
PAPER_SHA256 = "1508d91a1ffbe92c6c42cd8be55bd251501d4c55efe3f9c0c8dba18cb11931b3"

# the published findings every paper pass must reproduce
PAPER_FINDINGS = {
    "claims": 84, "PASS": 60, "ASSUMED": 4, "FAIL": 20,
    "minimal_generator_count": 22, "reduced_basis_size": 37,
    "missing_from_displayed": 27, "corrected_theorem_rows": 2,
}
SWEEPS = {
    "incompatible-pair": {
        "best_pass_count": 1,
        "best_conventions": [
            "e1=+1,e2=+1,e3=+1,eg=+1", "e1=+1,e2=+1,e3=-1,eg=+1",
            "e1=+1,e2=-1,e3=+1,eg=+1", "e1=+1,e2=-1,e3=-1,eg=+1",
            "e1=-1,e2=+1,e3=+1,eg=+1", "e1=-1,e2=+1,e3=-1,eg=+1",
            "e1=-1,e2=-1,e3=+1,eg=+1", "e1=-1,e2=-1,e3=-1,eg=+1",
        ],
        "jointly_satisfiable": False,
    },
    "section-six-signs": {
        "best_pass_count": 3,
        "best_conventions": ["e1=-1,e2=+1,e3=-1,eg=+1"],
        "jointly_satisfiable": True,
    },
}

# set-up samples taken before each pass and after the last one, so that the
# median spans the run rather than one moment of the machine's load
SETUP_RUNS = 5
# the interpreter imports the speed probe only after the timed part, then
# samples the machine's speed right away and prints set-up at reference speed
SETUP_CODE = """\
from time import perf_counter
t0 = perf_counter()
import chowcheck
from chowcheck.chowpipeline import STRATUM_FILES, StratumSpec, load_base, load_claims
load_base()
for name in STRATUM_FILES:
    StratumSpec.load(name)
load_claims()
elapsed = perf_counter() - t0
import sys
sys.path.insert(0, sys.argv[1])
import speed
speed.kernel()
print(elapsed * speed.scale([speed.kernel() for _ in range(SETUP_KERNELS)]))
"""
SETUP_KERNELS = 12

# wall-clock guard per request; a request that runs past it counts as failed
GUARD_S = {"paper": 170, "sweep": 80, "adhoc": 20}

CLAIM_KINDS = (
    "assumption", "dimension", "evaluate", "free_ring", "generator_count",
    "ideal_equal", "identity", "lift_profile", "map_kernel_equal", "member",
    "minimal_relation_count", "nzd", "pair_display", "relation_row",
    "surjectivity", "zero_dim",
)
STAGES = ("Gamma1", "Gamma2", "Gamma3p", "Gamma3pp")
SUBCOMMANDS = ("gb", "member", "nf", "elim", "kernel", "colon", "nzd",
               "invpres", "dims")


class GuardExpired(Exception):
    pass


def _expire(signum, frame):
    raise GuardExpired("request ran past its wall-clock guard")


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter imports chowcheck and loads the data

def measure_setup(runs: int):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    times = []
    for _ in range(runs):
        code = SETUP_CODE.replace("SETUP_KERNELS", str(SETUP_KERNELS))
        done = subprocess.run([sys.executable, "-c", code, str(HERE)], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    return times


# ---------------------------------------------------------------------------
# workloads: next_pass() returns requests, each a (name, call, check)

class Paper:
    def next_pass(self):
        return [("paper", self.request, self.check)]

    def request(self):
        from chowcheck import chowpipeline
        report = chowpipeline.verify_paper(dmax=12)
        return report, chowpipeline.emit_report(report, "machine")

    @staticmethod
    def check(result):
        report, text = result
        if hashlib.sha256(text.encode()).hexdigest() != PAPER_SHA256:
            return False
        claims = report["claims"]
        statuses = [c["status"] for c in claims]
        analysis = report["final"]["relation_analysis"]
        corrected = [r for r in report["final"]["theorem_rows"]
                     if r["status"] != "PASS" and r.get("corrected_ok")]
        found = {
            "claims": len(claims),
            "PASS": statuses.count("PASS"),
            "ASSUMED": statuses.count("ASSUMED"),
            "FAIL": statuses.count("FAIL"),
            "minimal_generator_count": analysis["minimal_generator_count"],
            "reduced_basis_size": analysis["reduced_basis_size"],
            "missing_from_displayed": len(analysis["missing_from_displayed"]),
            "corrected_theorem_rows": len(corrected),
        }
        sweep = report["sign_search"]["incompatible-pair"]
        return (all(c["ok"] for c in claims) and found == PAPER_FINDINGS
                and sweep_matches(sweep, SWEEPS["incompatible-pair"]))


def sweep_matches(result, want) -> bool:
    return all(result[k] == v for k, v in want.items())


class Sweep:
    def __init__(self):
        from chowcheck import chowpipeline
        self.groups = {}
        for claim in chowpipeline.load_claims():
            tag = claim.get("sweep", None)
            if tag:
                self.groups.setdefault(tag, []).append(claim)
        if sorted(self.groups) != sorted(SWEEPS):
            raise SystemExit(f"unexpected sweep groups {sorted(self.groups)}")

    def next_pass(self):
        return [(tag, self._search(group), self._checker(tag))
                for tag, group in sorted(self.groups.items())]

    @staticmethod
    def _search(group):
        def call():
            from chowcheck import chowpipeline
            return chowpipeline.convention_search(group, dmax=12)
        return call

    @staticmethod
    def _checker(tag):
        return lambda result: sweep_matches(result, SWEEPS[tag])


class Adhoc:
    def __init__(self, seed):
        import adhoc
        self.stream = adhoc.Stream(seed, adhoc.load_refs())
        self.folder = WORK / f"docs-{seed}"

    def next_pass(self):
        from chowcheck import cli
        if self.folder.exists():
            shutil.rmtree(self.folder)
        self.folder.mkdir(parents=True)
        requests = []
        for doc in self.stream.next_pass():
            for name, text in doc.files.items():
                (self.folder / name).write_text(text)
            argv = doc.argv(self.folder)

            def call(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                return code, out.getvalue()

            def check(result, doc=doc, argv=argv):
                code, out = result
                if code == 0 and doc.check(out):
                    return True
                print(f"{doc.source}: {' '.join(argv)} exited {code}, printed "
                      f"{out[:200]!r}", file=sys.stderr)
                return False

            requests.append((doc.command, call, check))
        return requests

    def close(self):
        shutil.rmtree(self.folder, ignore_errors=True)


# ---------------------------------------------------------------------------
# tracing: wrap each layer's public functions from the outside

class LayerProbe:
    """Installs the tracer and turns its spans into per-layer metrics."""

    def __init__(self, clock):
        import tracer
        from chowcheck import (chowpipeline, groebner, invariants, polyarith,
                               ringpres)
        self.tracer = t = tracer.Tracer(clock)
        self.bb = {"gens_in": 0, "basis_out": 0, "basis_max": 0,
                   "repeats": 0, "calls": 0}
        self.seen = set()

        def bb_observe(args, kwargs, result):
            gens = args[0]
            order = args[1] if len(args) > 1 else kwargs.get("order", groebner.GREVLEX)
            gens = [g for g in gens if not g.is_zero()]
            context = gens[0].context if gens else None
            key = (None if context is None else (context.names, context.weights),
                   order.tag, frozenset(frozenset(g.terms.items()) for g in gens))
            stats = self.bb
            stats["calls"] += 1
            stats["gens_in"] += len(gens)
            stats["basis_out"] += len(result)
            stats["basis_max"] = max(stats["basis_max"], len(result))
            if key in self.seen:
                stats["repeats"] += 1
            self.seen.add(key)

        fn = t.wrap_function
        fn("chowcheck.groebner", "buchberger", "groebner.buchberger", observe=bb_observe)
        fn("chowcheck.groebner", "reduce_full", "groebner.reduce_full", fold=True)
        for attr in ("map_kernel", "intersect", "ideal_quotient", "subalgebra_member"):
            fn("chowcheck.groebner", attr, f"groebner.{attr}")
        fn("chowcheck.chowpipeline", "induction_step", "chowpipeline.induction_step",
           namer=lambda name, a, k: f"{name}.{a[1].label}")
        for attr in ("minimal_generators", "convention_search", "run_pipeline",
                     "verify_paper"):
            fn("chowcheck.chowpipeline", attr, f"chowpipeline.{attr}")
        t.wrap_method(chowpipeline.Stratum, "__init__", "chowpipeline.Stratum")
        t.wrap_method(chowpipeline.ClaimRunner, "run", "chowpipeline.claim",
                      namer=lambda name, a, k: f"{name}.{a[1].kind}")
        t.wrap_method(invariants.GroupAction, "__init__", "invariants.GroupAction")
        fn("chowcheck.invariants", "invariant_presentation",
           "invariants.invariant_presentation")
        t.wrap_method(ringpres.Morphism, "kernel", "ringpres.Morphism.kernel")
        t.wrap_method(ringpres.Presentation, "dim", "ringpres.Presentation.dim", fold=True)
        for attr in ("graded_surjectivity", "apply_quotient"):
            fn("chowcheck.ringpres", attr, f"ringpres.{attr}")
        for attr in ("sparse_rank", "solve_linear", "independent_rows"):
            fn("chowcheck.linalg", attr, f"linalg.{attr}", fold=True)
        t.wrap_method(polyarith.Polynomial, "__mul__", "polyarith.Polynomial.__mul__",
                      fold=True)
        t.wrap_method(polyarith.Polynomial, "substitute",
                      "polyarith.Polynomial.substitute", fold=True)
        fn("chowcheck.exprparser", "parse_document", "exprparser.parse_document")
        fn("chowcheck.exprparser", "parse_polynomial", "exprparser.parse_polynomial",
           fold=True)

    def new_pass(self):
        self.seen.clear()

    def metrics(self, wall_s, passes, factor):
        """Counts and times per pass: run totals divided by the passes run.

        Span times are scaled by `factor`, the run's speed factor, so they
        are in reference-speed seconds like wall_s.
        """
        t = self.tracer
        out = {}

        def put(name, value, unit, per_pass=True):
            if unit == "s":
                value *= factor
            out[name] = {"value": value / passes if per_pass else value,
                         "unit": unit}

        bb = self.bb
        put("groebner.buchberger.calls", bb["calls"], "count")
        put("groebner.buchberger.self_s", t.self_time("groebner.buchberger"), "s")
        put("groebner.buchberger.gens_in", bb["gens_in"], "count")
        put("groebner.buchberger.basis_out", bb["basis_out"], "count")
        put("groebner.buchberger.basis_max", bb["basis_max"], "count", per_pass=False)
        put("groebner.buchberger.repeat_frac",
            bb["repeats"] / bb["calls"] if bb["calls"] else 0.0, "frac",
            per_pass=False)
        put("groebner.reduce_full.calls", t.calls("groebner.reduce_full"), "count")
        put("groebner.reduce_full.self_s", t.self_time("groebner.reduce_full"), "s")
        for attr in ("map_kernel", "intersect", "ideal_quotient"):
            put(f"groebner.{attr}.s", t.inclusive(f"groebner.{attr}"), "s")
        put("groebner.subalgebra_member.calls", t.calls("groebner.subalgebra_member"), "count")
        put("groebner.subalgebra_member.s", t.inclusive("groebner.subalgebra_member"), "s")
        for stage in STAGES:
            name = f"chowpipeline.induction_step.{stage}"
            put(f"{name}.s", t.inclusive(name), "s")
        put("chowpipeline.Stratum.calls", t.calls("chowpipeline.Stratum"), "count")
        put("chowpipeline.Stratum.s", t.inclusive("chowpipeline.Stratum"), "s")
        for kind in CLAIM_KINDS:
            name = f"chowpipeline.claim.{kind}"
            put(f"{name}.s", t.inclusive(name), "s")
        put("chowpipeline.minimal_generators.s",
            t.inclusive("chowpipeline.minimal_generators"), "s")
        put("chowpipeline.convention_search.s",
            t.inclusive("chowpipeline.convention_search"), "s")
        put("chowpipeline.run_pipeline.calls", t.calls("chowpipeline.run_pipeline"), "count")
        put("chowpipeline.verify_paper.self_s", t.self_time("chowpipeline.verify_paper"), "s")
        for name in ("invariants.GroupAction", "invariants.invariant_presentation"):
            put(f"{name}.calls", t.calls(name), "count")
            put(f"{name}.s", t.inclusive(name), "s")
        for name in ("ringpres.Morphism.kernel", "ringpres.graded_surjectivity",
                     "ringpres.apply_quotient"):
            put(f"{name}.s", t.inclusive(name), "s")
        put("ringpres.Presentation.dim.calls", t.calls("ringpres.Presentation.dim"), "count")
        put("ringpres.Presentation.dim.s", t.inclusive("ringpres.Presentation.dim"), "s")
        for attr in ("sparse_rank", "solve_linear", "independent_rows"):
            put(f"linalg.{attr}.s", t.inclusive(f"linalg.{attr}"), "s")
        for name in ("polyarith.Polynomial.__mul__", "polyarith.Polynomial.substitute"):
            put(f"{name}.calls", t.calls(name), "count")
            put(f"{name}.s", t.inclusive(name), "s")
        put("exprparser.parse_document.s", t.inclusive("exprparser.parse_document"), "s")
        put("exprparser.parse_polynomial.calls", t.calls("exprparser.parse_polynomial"), "count")
        put("exprparser.parse_polynomial.s", t.inclusive("exprparser.parse_polynomial"), "s")
        for command in SUBCOMMANDS:
            put(f"cli.{command}.calls", t.calls(f"cli.{command}"), "count")
            put(f"cli.{command}.s", t.inclusive(f"cli.{command}"), "s")
        out["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        return out


# ---------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run(args) -> dict:
    if not args.trace:
        measure_setup(1)  # writes the bytecode caches; users start warm
    setup = []
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import chowcheck  # noqa: F401  (the workload's own import is not set-up time)
    import speed

    if args.workload == "paper":
        workload = Paper()
    elif args.workload == "sweep":
        workload = Sweep()
    else:
        workload = Adhoc(args.seed)
    probe = speed.Probe()
    layers = LayerProbe(probe.clock) if args.trace else None

    guard = GUARD_S[args.workload]
    signal.signal(signal.SIGALRM, _expire)
    passes, raw_passes, latencies, by_command, kernels = [], [], [], {}, []
    attempted = failed = 0
    started = perf_counter()
    while not passes or perf_counter() - started < args.seconds:
        if layers:
            layers.new_pass()
        else:
            setup += measure_setup(SETUP_RUNS)
        requests = workload.next_pass()
        timed = []  # (name, measured seconds, first sample, end sample)
        probe.start()
        probe.take()
        for name, call, check in requests:
            attempted += 1
            span = f"cli.{name}" if args.workload == "adhoc" else f"request.{name}"
            signal.setitimer(signal.ITIMER_REAL, guard)
            first = len(probe.samples)
            t0 = probe.clock()
            try:
                result = layers.tracer.span(span, call) if layers else call()
            except GuardExpired:
                result = None
            except Exception as exc:  # an errored verdict counts as failed
                print(f"request {name} raised {exc!r}", file=sys.stderr)
                result = None
            finally:
                elapsed = probe.clock() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            timed.append((name, elapsed, first, len(probe.samples)))
            if result is None or not check(result):
                failed += 1
                print(f"request {name} gave a wrong or no answer", file=sys.stderr)
        probe.stop()
        samples = probe.take()
        kernels += samples
        factors = speed.span_factors(samples, [t[2:] for t in timed])
        raw_passes.append(sum(t[1] for t in timed))
        scaled = [(t[0], t[1] * f) for t, f in zip(timed, factors)]
        passes.append(sum(e for _, e in scaled))
        for name, elapsed in scaled:
            latencies.append(elapsed)
            by_command.setdefault(name, []).append(elapsed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if isinstance(workload, Adhoc):
        workload.close()
    if not layers:
        setup += measure_setup(SETUP_RUNS)

    wall_s = statistics.median(passes)
    if layers:
        layers.tracer.restore()
        layers.tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
        metrics = layers.metrics(wall_s, len(passes), speed.scale(kernels))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "docs_per_s": {"value": len(latencies) / sum(passes), "unit": "1/s"},
            "verdict_p50_s": {"value": percentile(latencies, 50), "unit": "s"},
            "verdict_p90_s": {"value": percentile(latencies, 90), "unit": "s"},
        }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes, {attempted} documents")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"wall_s samples = {len(passes)}: {', '.join(f'{p:.3f}' for p in passes)}; "
          f"verdict samples = {len(latencies)}")
    print(f"measured wall time per pass: {', '.join(f'{p:.3f}' for p in raw_passes)} s; "
          f"speed kernel {len(kernels)} samples, mean "
          f"{statistics.fmean(kernels) * 1e3 if kernels else 0:.3f} ms "
          f"(reference {speed.REF_KERNEL_S * 1e3:.3f} ms)")
    for command, values in sorted(by_command.items()):
        print(f"  {command}: {len(values)} documents, median {statistics.median(values):.4g} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("paper", "sweep", "adhoc"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chowcheck" / "__init__.py").is_file():
        print(f"error: no chowcheck sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
