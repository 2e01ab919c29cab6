#!/usr/bin/env python3
"""Seeded end-to-end benchmark of sfast, with an optional traced run.

    python3 perfbench/run.py --workload planted_dp --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports sfast from ``src/``. The
load is a closed loop with one client in this one process: each instance's
text goes to ``sfast.parse_instance`` and then ``sfast.solve_report`` with
the default SolverConfig, and the next instance starts when the verdict is
back. Passes over the corpus repeat until ``--seconds`` have elapsed (the
first pass always completes; untraced, quick instances are solved several
times per pass); an instance's verdict time is the median over its
verdicts. Between verdicts a fixed reference routine is timed (see
reference.py), and the gated verdict times are in its units, so that a
host that speeds up or slows down moves them less. Every verdict is checked
afterwards (see check.py).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics from the traced
ones, and writes the spans to ``perfbench/out/``. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SETUP_REPEATS = 5
REPEAT_UNTIL_S = 0.25
MAX_REPEATS = 10
P75_MIN_CORPUS = 40

# Cap BLAS threads at the CPUs this process may use, before numpy loads.
_cpus = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(int(os.environ.get(_var) or _cpus), _cpus))

from reference import BURST, NOMINAL_S, Reference  # noqa: E402
from tracer import Timeout, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_corpus  # noqa: E402

END_TO_END_UNITS = {
    "verdict_ref.p50": "ref",
    "verdict_ref.geomean": "ref",
    "verdict_ref.mean": "ref",
    "verdict_s.p50": "s",
    "verdict_s.p75": "s",
    "verdicts_per_s": "1/s",
    "failed_share": "ratio",
    "certified_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "setup_wall_s": "s",
    "reference_ms": "ms",
}


def load_benchmark_json() -> dict:
    with open(CHECKOUT / "BENCHMARK.json") as f:
        return json.load(f)


def import_sfast():
    """sfast from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(CHECKOUT / "src"))
    try:
        import sfast
    except ImportError as exc:
        sys.exit(f"cannot import sfast from {CHECKOUT / 'src'}: {exc}")
    if Path(sfast.__file__).resolve().parent.parent != CHECKOUT / "src":
        sys.exit(f"sfast was imported from {sfast.__file__}, not from this checkout")
    return sfast


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import sfast and build the corpus:
    in seconds at the reference speed (see reference.py), and in seconds."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    reference = Reference()
    reference.sample(BURST)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(command, check=True, cwd=CHECKOUT, timeout=120)
        times.append((start, perf_counter() - start))
        reference.sample(BURST)
    at_reference_speed = [reference.units(*t) * NOMINAL_S for t in times]
    return statistics.median(at_reference_speed), statistics.median(s for _, s in times)


def _alarm(signum, frame):
    raise Timeout()


class Outcome:
    """What one verdict returned, reduced to what the checks and metrics need."""

    __slots__ = ("start", "seconds", "error", "solution", "certified", "trials", "steps",
                 "kernel_n", "trace_bytes")

    def __init__(self, start, seconds, error=None, report=None):
        self.start = start
        self.seconds = seconds
        self.error = error
        self.solution = self.certified = self.kernel_n = None
        self.trials = self.steps = self.trace_bytes = 0
        if report is not None:
            self.solution = report.solution
            self.certified = report.certified
            self.trials = report.trials
            kernel = report.kernel
            applied = [rec for rec in kernel.trace if rec.status == "applied"]
            self.steps = len(applied)
            self.kernel_n = None if kernel.kernel is None else kernel.kernel.n
            self.trace_bytes = sum(rec.next.n ** 2 for rec in applied if rec.next is not None)

    def verdict(self):
        return (self.error, self.solution, self.certified)


def solve_one(sfast, case, limit_s: int, tracer=None) -> Outcome:
    """One verdict from text, under a wall-clock limit; never raises."""

    def call():
        return sfast.solve_report(sfast.parse_instance(case.text))

    start = perf_counter()
    try:
        try:
            signal.alarm(limit_s)
            report = call() if tracer is None else tracer.verdict(case.id, call)
        finally:
            signal.alarm(0)
    except Timeout:
        return Outcome(start, perf_counter() - start, error=f"time limit of {limit_s} s")
    except Exception as exc:  # any failure of the program counts, none escapes
        return Outcome(start, perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    return Outcome(start, perf_counter() - start, report=report)


def run_pass(sfast, corpus, limit_s, results, reference, deadline=None, tracer=None) -> None:
    """Solve the corpus in order, stopping early only past ``deadline``.
    Untraced, an instance is solved again until its verdicts in this pass
    add up to ``REPEAT_UNTIL_S`` (at most ``MAX_REPEATS`` times), so that
    quick instances get enough verdicts to take a median of. Between
    verdicts, untimed: reference samples when due, and a garbage
    collection, so that no verdict pays for its predecessors'."""
    repeats = 1 if tracer is not None else MAX_REPEATS
    for case in corpus:
        spent = 0.0
        for _ in range(repeats):
            if deadline is not None and perf_counter() >= deadline:
                return
            reference.catch_up()
            gc.collect()
            outcome = solve_one(sfast, case, limit_s, tracer)
            results[case.id].append(outcome)
            spent += outcome.seconds
            if spent >= REPEAT_UNTIL_S:
                break


def check(checker, corpus, results) -> dict[int, str]:
    """Failed instance ids and why: errors, wrong verdicts, or verdicts that
    differ between passes. Never raises."""
    failures = {}
    for case in corpus:
        outcomes = results[case.id]
        first = outcomes[0]
        try:
            if first.error is not None:
                problem = first.error
            elif any(o.verdict() != first.verdict() for o in outcomes[1:]):
                problem = "verdicts differ between passes"
            else:
                problem = checker.problem(case, first.solution, first.certified)
        except Exception as exc:  # a checker crash is a failed instance too
            problem = f"checker raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures[case.id] = problem
    return failures


def end_to_end(corpus, results, failures, reference, setup, peak_rss_mb) -> dict[str, float]:
    """Corpus-level metrics. An instance's time is the median over its
    verdicts, in seconds and in reference calls; a failed instance counts +inf.
    The shares count each instance once: every pass returns the same
    verdict, and the last pass may cover only part of the corpus."""
    verdict_s, verdict_ref, wall_s = [], [], 0.0
    for case in corpus:
        outcomes = results[case.id]
        seconds = statistics.median(o.seconds for o in outcomes)
        ref = statistics.median(reference.units(o.start, o.seconds) for o in outcomes)
        failed = case.id in failures
        verdict_s.append(math.inf if failed else seconds)
        verdict_ref.append(math.inf if failed else ref)
        wall_s += seconds
    verdict_s.sort()
    size = len(corpus)
    metrics = {
        "verdict_ref.p50": statistics.median(verdict_ref),
        "verdict_ref.geomean": statistics.geometric_mean(verdict_ref) if not failures else math.inf,
        "verdict_ref.mean": statistics.fmean(verdict_ref),
        "verdict_s.p50": statistics.median(verdict_s),
        "verdicts_per_s": (size - len(failures)) / wall_s,
        "failed_share": len(failures) / size,
        "certified_share": sum(1 for c in corpus if results[c.id][0].certified) / size,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup[0],
        "setup_wall_s": setup[1],
        "reference_ms": reference.median_ms(),
    }
    if size >= P75_MIN_CORPUS:
        metrics["verdict_s.p75"] = verdict_s[math.ceil(0.75 * size) - 1]
    return metrics


def counts(corpus, results) -> dict[str, float]:
    """Per-layer figures read from the verdicts themselves (first pass)."""
    first = [results[case.id][0] for case in corpus]
    kernels = [o.kernel_n for o in first if o.kernel_n is not None]
    return {
        "kernel.steps": sum(o.steps for o in first),
        "kernel.kernel_n": statistics.mean(kernels) if kernels else 0.0,
        "kernel.trace_bytes": max(o.trace_bytes for o in first),
        "solver.trials": sum(o.trials for o in first),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sfast = import_sfast()
    if args.setup_only:
        build_corpus(sfast, workload, args.seed)
        return 0
    spec = load_benchmark_json()
    setup = measure_setup(args)
    corpus, generate_s = build_corpus(sfast, workload, args.seed)

    signal.signal(signal.SIGALRM, _alarm)
    warmup = sfast.generate_random(sfast.GeneratorSpec(10, 2, 0, k=2))
    sfast.solve_report(sfast.parse_instance(sfast.serialize_instance(warmup)))
    reference = Reference()
    reference.sample(BURST)

    results = {case.id: [] for case in corpus}
    limit_s = workload.time_limit_s
    deadline = perf_counter() + args.seconds
    tracer = None
    if args.trace:
        tracer = Tracer()
        traced = {case.id: [] for case in corpus}
        passes = 0
        while passes == 0 or perf_counter() < deadline:
            run_pass(sfast, corpus, limit_s, results, reference)
            tracer.install()
            try:
                run_pass(sfast, corpus, limit_s, traced, reference, tracer=tracer)
            finally:
                tracer.uninstall()
            passes += 1
    else:
        run_pass(sfast, corpus, limit_s, results, reference)
        while perf_counter() < deadline:
            run_pass(sfast, corpus, limit_s, results, reference, deadline)
    reference.sample(BURST)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from check import Checker

    checker = Checker(sfast)
    failures = check(checker, corpus, results)
    if tracer is not None:
        failures.update(check(checker, corpus, traced))
    e2e = end_to_end(corpus, results, failures, reference, setup, peak_rss_mb)
    attempted = sum(len(v) for v in results.values())
    failed = sum(len(results[i]) for i in failures)

    for case_id, problem in sorted(failures.items()):
        print(f"FAILED instance {case_id}: {problem}")
    print(f"{workload.name}: {len(corpus)} instances, {attempted} verdicts, "
          f"n={workload.n} terminals={workload.terminals} k={workload.k} seed={args.seed}")
    for name, value in e2e.items():
        print(f"  {name:<34} {value:>14.6g} {END_TO_END_UNITS[name]}")
    if len(corpus) < P75_MIN_CORPUS:
        print(f"  verdict_s.p75 not reported: {len(corpus)} instances, "
              f"it needs {P75_MIN_CORPUS}")

    if tracer is None:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": e2e[name], "unit": END_TO_END_UNITS[name]} for name in names}
    else:
        layer = layer_metrics(tracer.spans, passes)
        layer.update(counts(corpus, traced))
        layer["oracle.generate_s"] = generate_s
        traced_e2e = end_to_end(corpus, traced, failures, reference, setup, peak_rss_mb)
        layer["trace.overhead_verdicts_per_s"] = (
            e2e["verdicts_per_s"] - traced_e2e["verdicts_per_s"]
        )
        layer["trace.absent_bindings"] = len(tracer.absent)
        for name in tracer.absent:
            print(f"  traced binding absent: {name}")
        chains = {}
        for span in tracer.spans:  # spans are stored in the order they opened
            if span.timed_out:
                chains.setdefault(span.verdict, []).append(span.name)
        for verdict_id, chain in sorted(chains.items()):
            print(f"  instance {verdict_id} timed out in {' > '.join(chain)}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in sorted(layer.items()):
            print(f"  {name:<34} {value:>14.6g} {units.get(name, '')}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{workload.name}-{args.seed}.jsonl")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
