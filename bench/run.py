"""Layered benchmark of modalcoherence.

    python3 bench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Runs one workload (decide, prove, hom or soundness) as a closed loop of
library calls for about ``--seconds`` seconds of timed work (at most twice
that in wall time), a whole number of rounds, and checks every answer
against its known answer.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.
Earlier lines print each metric with its unit, the input properties and the
environment; a fuller report goes to ``bench/out/``.  The run exits 1 if any
answer differs from its known answer, and 2 if the package is missing.

The library is imported from ``src/`` next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import reference
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The cold-start query: a fresh interpreter imports the package and asks the
# command line for one verdict.  The pair is equal, so ``eq`` exits 0.
SETUP_PAIR = ("box(delta_db{e}) . delta_bd{b}", "delta_bb{e} . delta_db{e}")
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from modalcoherence import cli; "
              "sys.exit(cli.run(['eq', '--theory', 's5', sys.argv[2], sys.argv[3]]))")
SETUP_LAUNCHES = 11
# Rounds stop after this many times --seconds of wall time even if less was
# timed, so a run ends in time when generating and checking the inputs
# costs far more than answering them.
WALL_FACTOR = 2
HASH_SEED = "0"
LAYERS = ("terms", "theories", "diagram", "interp", "schemas", "rewrite",
          "quotient", "decide")


def pin_environment() -> None:
    """Re-execute this process (same pid, no child) with string hashing
    fixed, so set orders inside the library, and hence the traced counts,
    repeat from run to run, and without MODALCOHERENCE_DEPTH, so the proof
    search depth is the one passed explicitly."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED \
            and "MODALCOHERENCE_DEPTH" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("MODALCOHERENCE_DEPTH", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def load_library():
    if not (SRC / "modalcoherence" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'modalcoherence'}; run from a "
              "checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import importlib
    import types

    package = importlib.import_module("modalcoherence")
    if Path(package.__file__).resolve().parent != SRC / "modalcoherence":
        print(f"error: imported modalcoherence from {package.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"modalcoherence.{name}")
        for name in LAYERS})


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure_setup() -> list:
    env = dict(os.environ)
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *SETUP_PAIR],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.strip() != "equal":
            raise RuntimeError(f"cold-start eq gave {proc.returncode}: "
                               f"{proc.stdout.strip()} {proc.stderr.strip()}")
    return times


# ---------------------------------------------------------------------------
# Queries


def execute(lib, q):
    """One library call; the inputs were made before timing started."""
    if q.op == "decide":
        left, right = q.args
        return lib.interp.decide_equal(q.theory, lib.terms.parse_term(left),
                                       lib.terms.parse_term(right))
    if q.op == "normalize":
        return lib.rewrite.normalize(q.theory, lib.terms.parse_term(q.args[0]))
    if q.op == "prove":
        return lib.rewrite.prove_equal_bounded(
            q.theory, *q.args, depth=workloads.PROVE_DEPTH,
            size_slack=workloads.PROVE_SLACK)
    if q.op == "hom":
        return lib.decide.enum_hom(q.args[0])
    if q.op == "soundness":
        theory, variant = q.args
        return lib.interp.check_soundness(
            theory, variant, idx_bound=workloads.SOUNDNESS_IDX_BOUND,
            f_bound=workloads.SOUNDNESS_F_BOUND)
    raise ValueError(q.op)


# Numeric input properties whose distribution a run reports.
PROPERTIES = ("gens", "points", "width", "instances")


class Tally:
    """Outcomes and latencies of the queries of one pass.  Input properties
    are kept as counts, so the benchmark's own memory does not grow with the
    number of queries a run completes, which would tie ``peak_rss_mb`` to
    the library's speed."""

    def __init__(self):
        self.latencies = array("d")
        self.seconds = 0.0
        self.failed = 0
        self.wrong: list = []
        self.errors: dict = {}
        self.props: Counter = Counter()  # (property, value) -> queries
        self.answers: list = []  # (op, answer, expansions), traced pass only

    def run(self, lib, workload, queries, tracer=None) -> None:
        """Send the queries one after another, then check the answers."""
        results = []
        begin = perf_counter()
        for q in queries:
            expansions = tracer.expansions if tracer else 0
            start = perf_counter()
            try:
                if tracer:
                    answer = tracer.query(lambda: execute(lib, q))
                else:
                    answer = execute(lib, q)
                error = None
            except Exception as exc:  # a failed query is timed and counted
                answer, error = None, f"{type(exc).__name__}"
            elapsed = perf_counter() - start
            self.latencies.append(elapsed)
            results.append((q, answer, error))
            if tracer:
                self.answers.append((q.op, answer,
                                     tracer.expansions - expansions))
        elapsed = perf_counter() - begin
        self.seconds += elapsed
        for q, answer, error in results:
            self.props["kind", f"{q.op}/{q.props.get('kind', '-')}"] += 1
            self.props["theory", q.theory] += 1
            for key in PROPERTIES:
                if key in q.props:
                    self.props[key, q.props[key]] += 1
            status = "failed" if error else workload.check(q, answer)
            if status == "failed":
                self.failed += 1
                key = (f"{q.op}/{q.props.get('kind', '-')} {q.theory}: "
                       f"{error or 'no answer'}")
                self.errors[key] = self.errors.get(key, 0) + 1
            elif status == "wrong":
                self.wrong.append(f"{q.op} {q.theory} {q.args}"[:300])

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self) -> dict:
        """Throughput is all queries over all timed seconds, so each round
        counts by its length and the machine's slow changes of speed average
        out over the run; latencies are over all queries, which leaves at
        least ten beyond p90."""
        p90 = statistics.quantiles(self.latencies, n=10, method="inclusive")[8]
        return {
            "queries_per_s": (self.attempted / self.seconds, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(self.latencies), "ms"),
            "latency_p90_ms": (1e3 * p90, "ms"),
        }


def probe_defects(lib, workload) -> tuple:
    """Send each known defect once, apart from the measured queries, and
    say whether it is still there: {query: outcome}, and the wrong answers."""
    outcomes, wrong = {}, []
    for q in workload.defects():
        try:
            answer, error = execute(lib, q), None
        except Exception as exc:
            answer, error = None, type(exc).__name__
        status = "failed" if error else workload.check(q, answer)
        if status == "wrong":
            wrong.append(f"{q.op} {q.theory} {q.args}"[:300])
        outcomes[f"{q.op}/{q.props['kind']} {q.theory}"] = {
            "failed": error or "no answer", "ok": "fixed"}.get(status, status)
    return outcomes, wrong


def _at(counts: dict, position: int):
    """The value at ``position`` of the sorted values that ``counts`` counts."""
    for value in sorted(counts):
        position -= counts[value]
        if position < 0:
            return value
    raise IndexError(position)


def summarize_props(props: Counter) -> dict:
    """Distribution of the recorded input properties."""
    out: dict = {"by_kind": {}, "by_theory": {}}
    values: dict = {}
    for (key, value), n in props.items():
        if key == "kind":
            out["by_kind"][value] = n
        elif key == "theory":
            out["by_theory"][value] = n
        else:
            values.setdefault(key, {})[value] = n
    for key in PROPERTIES:
        if key in values:
            counts = values[key]
            total = sum(counts.values())
            median = (_at(counts, (total - 1) // 2) + _at(counts, total // 2)) / 2
            out[key] = {"min": min(counts), "median": median,
                        "max": max(counts), "n": total}
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["decide", "prove", "hom", "soundness"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    pin_environment()
    lib = load_library()
    reference.selftest()
    environment = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": args.seed, "commit": commit(), "workload": args.workload,
        "seconds": args.seconds, "trace": args.trace,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "recursion_limit": sys.getrecursionlimit(),
    }
    workload = workloads.WORKLOADS[args.workload](lib, args.seed)
    # The workload's tables (the prove sweep holds some 64,000 pairs) are
    # kept out of the collector's view, so the library's collections do not
    # traverse the benchmark's own objects.
    gc.collect()
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    metrics: dict = {}
    report: dict = {"environment": environment}

    if not args.trace:
        setup = measure_setup()
        metrics["setup_s"] = (statistics.median(setup), "s")
        report["setup_launches_s"] = setup
        tally = Tally()
        rounds = 0
        started = perf_counter()
        while (tally.seconds < args.seconds
               and perf_counter() - started < WALL_FACTOR * args.seconds):
            queries = workload.round(workloads.round_rng(args.seed, rounds))
            if rounds == 0:
                queries = workload.fixed() + queries
            tally.run(lib, workload, queries)
            rounds += 1
        metrics.update(tally.end_to_end())
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        passes = [tally]
    else:
        # A fixed number of rounds, so counts do not depend on time.  The
        # untraced pass repeats the same queries after the traced one, which
        # sees them first.
        queries = workload.fixed() + [
            q for r in range(workload.trace_rounds)
            for q in workload.round(workloads.round_rng(args.seed, r))]
        tracer = Tracer()
        tracer.install()
        traced = Tally()
        try:
            traced.run(lib, workload, queries, tracer)
        finally:
            tracer.uninstall()
        tally = Tally()
        tally.run(lib, workload, queries)
        metrics.update(tracer.metrics(traced.answers))
        traced_qps = traced.attempted / traced.seconds
        plain_qps = tally.attempted / tally.seconds
        metrics["trace.traced_qps"] = (traced_qps, "1/s")
        metrics["trace.untraced_qps"] = (plain_qps, "1/s")
        metrics["trace.overhead_qps"] = (traced_qps - plain_qps, "1/s")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        passes = [traced, tally]

    defects, defects_wrong = probe_defects(lib, workload)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong] + defects_wrong
    report.update(
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        samples=passes[0].attempted, attempted=attempted, failed=failed,
        wrong_verdicts=len(wrong), wrong_examples=wrong[:5],
        failures=passes[0].errors, known_defects=defects,
        inputs=summarize_props(passes[0].props))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={environment['python']} nproc={environment['nproc']} "
          f"commit={environment['commit'][:12]}")
    print(f"# samples={passes[0].attempted} failed={failed} "
          f"wrong_verdicts={len(wrong)} failures={passes[0].errors}")
    if defects:
        print(f"# known defects, sent once apart from the measured queries: "
              f"{defects}")
    print(f"# inputs {json.dumps(report['inputs'], sort_keys=True)}")
    shown = dict(metrics)
    if not args.trace:
        # Shown beside the benchmark's metrics, which must never read 0.
        shown["failed_share"] = (failed / attempted, "ratio")
        shown["wrong_verdicts"] = (len(wrong), "count")
    for name, (value, unit) in shown.items():
        print(f"{args.workload:10s} {name:36s} {value:14.6g} {unit}")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
