"""Benchmark of polyrad: time to a certified radius, split by mode and layer.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload jsr_nonneg --seed 0 --seconds 20 --trace 0

One process runs one workload, one problem at a time (a closed loop).  A
pass calls ``polyrad.run`` on every problem of the workload, then
serializes, parses and verifies every certificate the pass produced.  After
one untimed warm-up pass, passes repeat until ``--seconds`` are spent (at
least two).  Every outcome is checked against an engine-independent
reference; a problem fails if it raises, disagrees with its reference, or
its certificate is rejected.

Times are wall seconds scaled to a reference machine speed: a fixed kernel
(``speed.py``) is timed before and after every problem and certificate,
and each is scaled by the speed the kernel ran at around it, because the
speed of a shared host drifts by up to twice within seconds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, the tracing
overhead, and a self-test that the layers the workload stresses show work.
Human-readable lines come first; the last line of standard output is one
JSON object.  Full results, and the spans of a traced run, are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools must be pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Optional

# Sibling modules; the script's directory is first on sys.path.
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 9
# The verify phase is repeated within a pass until about this many seconds
# are measured, so that workloads whose certificates verify in a fraction
# of a second still get enough samples.
VERIFY_TARGET_S = 1.0
clock = time.perf_counter


def import_polyrad():
    """Import polyrad from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polyrad", "__init__.py")):
        raise SystemExit("bench: no polyrad package under %s" % src)
    sys.path.insert(0, src)
    import polyrad
    if not os.path.abspath(polyrad.__file__).startswith(src + os.sep):
        raise SystemExit("bench: polyrad was imported from %s" % polyrad.__file__)
    return polyrad


def measure_setup(workload: str, seed: int):
    """Seconds from spawning a fresh benchmark process until it has imported
    polyrad and built the workload's families, ready for its first problem.

    Each sample is scaled to the reference speed by speed probes the child
    times right after it is ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = clock()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = child.stdout.readline()
            elapsed = clock() - start
            probe = child.stdout.read()
            code = child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise SystemExit("bench: set-up probe failed with exit code %s" % code)
        samples.append(elapsed * speed.REFERENCE_S / float(probe))
    return samples


def load_spec():
    """The benchmark's ``BENCHMARK.json``: metric names, units, workloads."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def environment():
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


@dataclass
class Outcome:
    """What one problem produced in one pass, and whether it failed."""

    status: Optional[str] = None
    value: Optional[float] = None
    bounds: Optional[tuple] = None
    iterations: Optional[int] = None
    vertices: Optional[int] = None
    word: Optional[tuple] = None
    verdict: Optional[bool] = None
    failure: Optional[str] = None
    cert_bytes: int = 0
    solve_s: float = 0.0
    verify_s: float = 0.0

    def signature(self):
        """Everything a pass must reproduce exactly, traced or not."""
        return (self.status, repr(self.value), repr(self.bounds), self.iterations,
                self.vertices, self.word, self.verdict, self.failure)


@dataclass
class Pass:
    """One pass: its outcomes, and its solve phase and each verify phase as
    ``(wall seconds, speed scale)``; ``wall * scale`` is the phase's time at
    the reference speed of :mod:`speed`."""

    outcomes: list
    solve: tuple
    verify: list
    layers: Optional[dict] = None
    spans: Optional[list] = None

    @property
    def solve_s(self):
        return self.solve[0] * self.solve[1]


def _phase(times, speeds):
    """``(wall, scale)`` of a phase whose items took ``times`` seconds, with
    ``speeds`` sampled before each item and after the last.  Each item is
    scaled by the mean of the two samples around it, so that a long item is
    scaled by the speed while it ran, not by that of the short ones."""
    wall = sum(times)
    if not wall:
        return wall, 1.0
    scaled = sum(t * 2.0 * speed.REFERENCE_S / (speeds[i] + speeds[i + 1])
                 for i, t in enumerate(times))
    return wall, scaled / wall


def run_pass(problems, polyrad, tracer=None, verify_repeats=1):
    """One pass: solve every problem, then verify every certificate.

    The verify phase runs ``verify_repeats`` times; the first repeat's
    verdicts are kept.  Checking against the references happens after the
    timed phases.
    """
    call = tracer.span if tracer is not None else (lambda _name, fn, *a: fn(*a))
    outcomes = [Outcome() for _ in problems]
    runs = []
    speeds = []
    gc.collect()
    for p, o in zip(problems, outcomes):
        config = polyrad.RunConfig(**p.config)
        if tracer is not None:
            tracer.problem = p.pid
        speeds.append(speed.sample())
        start = clock()
        try:
            out = call("engine.run", polyrad.run, p.family, config)
        except Exception as exc:  # a raising problem is a counted failure
            out = None
            o.failure = "raised %s: %s" % (type(exc).__name__, exc)
        o.solve_s = clock() - start
        runs.append(out)
    speeds.append(speed.sample())
    solve = _phase([o.solve_s for o in outcomes], speeds)

    verify = []
    for repeat in range(verify_repeats):
        gc.collect()
        times = []
        speeds = []
        for p, o, out in zip(problems, outcomes, runs):
            if out is None or out.certificate is None:
                continue
            if tracer is not None:
                tracer.problem = p.pid
            speeds.append(speed.sample())
            start = clock()
            try:
                text = call("certificates.serialize", polyrad.serialize, out.certificate)
                cert = call("certificates.deserialize", polyrad.deserialize, text)
                report = call("certificates.verify", polyrad.verify, p.family, cert)
            except Exception as exc:
                report = None
                o.failure = "verify raised %s: %s" % (type(exc).__name__, exc)
            elapsed = clock() - start
            times.append(elapsed)
            if repeat or report is None:
                continue
            o.verify_s = elapsed
            o.verdict = bool(report.verdict)
            o.cert_bytes = len(text)
            if not report.verdict:
                o.failure = "verify rejected: %s" % "; ".join(report.failures[:2])
        speeds.append(speed.sample())
        verify.append(_phase(times, speeds))

    for p, o, out in zip(problems, outcomes, runs):
        if out is None:
            continue
        o.status = out.status
        o.value = out.value
        o.bounds = tuple(out.bounds) if out.bounds is not None else None
        o.iterations = out.iterations
        o.vertices = out.vertex_count
        o.word = tuple(out.candidate.word) if out.candidate is not None else None
        if o.failure is None:
            o.failure = p.reference.check(p.config["mode"], p.family.matrices,
                                          o.status, o.value, o.bounds, o.word)
    return Pass(outcomes, solve, verify)


def timing(samples, what):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it, as text."""
    n = len(samples)
    text = "median of %d %s" % (n, what)
    if n >= 11:
        pct = math.floor(100.0 * (n - 10) / n)
        value = sorted(samples)[math.ceil(pct / 100.0 * n) - 1]
        text += ", p%d=%.6g s" % (pct, value)
    else:
        text += ", no percentile has 10 samples beyond it"
    return statistics.median(samples), text


def measure(problems, polyrad, tracer, seconds, verify_repeats):
    """Timed passes until ``seconds`` are spent; every other pass is traced
    (it has ``layers``) when ``tracer`` is given."""
    passes = []
    start = clock()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(problems, polyrad, tracer)
            finally:
                tracer.uninstall()
            result.layers = tracer.layer_metrics(
                sum(o.cert_bytes for o in result.outcomes),
                sum(1 for o in result.outcomes if o.verdict is False))
            result.spans = tracer.spans
        else:
            result = run_pass(problems, polyrad, verify_repeats=verify_repeats)
        passes.append(result)
        n = len(passes)
        if n >= 2 and (clock() - start) * (n + 1) / n > seconds:
            return passes


def end_to_end(problems, baseline, untraced, setup_samples, peak_rss_mb):
    """Rows ``(name, value, unit, note)`` of every end-to-end metric."""
    n = len(problems)
    exact = sum(1 for o in baseline if o.status == "terminated" and o.verdict)
    failed = sum(1 for o in baseline if o.failure)
    gap = 0.0
    for o in baseline:
        if o.status == "iteration_capped":
            lo, hi = o.bounds
            gap += math.log(hi / lo) if lo > 0.0 else math.inf
    solve, solve_note = timing([p.solve_s for p in untraced], "passes")
    verify, verify_note = timing([t * k for p in untraced for t, k in p.verify],
                                 "verify phases")
    wall = statistics.median(p.solve[0] for p in untraced)
    _, per_problem = timing([o.solve_s for p in untraced for o in p.outcomes],
                            "problem runs")
    return [
        ("setup_s", statistics.median(setup_samples), "s",
         "median of %d fresh processes" % len(setup_samples)),
        ("solve_s", solve, "s", "%s; wall %.6g s before scaling to the reference "
         "speed; per problem (wall): %s" % (solve_note, wall, per_problem)),
        ("verify_s", verify, "s", verify_note),
        ("exact_frac", exact / n, "ratio", "%d of %d problems" % (exact, n)),
        ("failed_frac", failed / n, "ratio", "%d of %d problems" % (failed, n)),
        ("bound_gap", gap, "log", "sum of log(hi/lo) over capped problems"),
        ("peak_rss_mb", peak_rss_mb, "MB", "peak resident memory"),
    ]


def run_all(args, names):
    """Run every workload in a process of its own and relay its report; the
    last line combines their results, metrics keyed ``workload/metric``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                               check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            raise SystemExit("bench: workload %s exited with code %d"
                             % (name, child.returncode))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined))
    return 0


def report_layers(spec, workload, passes, build_s):
    """Print and return the per-layer metrics ``spec`` names for a traced
    run, and the workload's predictions."""
    traced = [p for p in passes if p.layers is not None]
    traced_solve = statistics.median(p.solve_s for p in traced)
    untraced_solve = statistics.median(p.solve_s for p in passes if p.layers is None)
    print("per-layer metrics per pass, median of %d traced passes; "
          "times are wall self times" % len(traced))
    metrics = {}
    for entry in spec["per_layer"]:
        name, unit = entry["name"], entry["unit"]
        if name == "datasets.build_s":
            value = build_s
        elif name == "trace.overhead_s":
            value = traced_solve - untraced_solve
        else:
            value = statistics.median(p.layers[name] for p in traced)
        note = "computed from LP shape" if unit == "MB-computed" else ""
        print("  %-28s %14.6g %-11s %s" % (name, value, unit, note))
        metrics[name] = {"value": value, "unit": unit}
    print("  solve_s traced %.6f s, untraced %.6f s" % (traced_solve, untraced_solve))
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]
    print("why and predictions: " + why)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args, workloads.NAMES)
    if args.workload not in workloads.NAMES:
        parser.error("unknown workload %r; choose from all, %s"
                     % (args.workload, ", ".join(workloads.NAMES)))

    spec = load_spec()
    polyrad = import_polyrad()
    if args.setup_probe:
        workloads.build(args.workload, args.seed, polyrad)
        print("ready", flush=True)
        print(speed.sample(5))
        return 0

    warnings.simplefilter("ignore", RuntimeWarning)
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
        tracer.problem = "setup"
    problems = workloads.build(args.workload, args.seed, polyrad)
    if tracer is not None:
        tracer.uninstall()
        build_s = tracer.self_times()["datasets.build"]
        setup_spans = tracer.spans
    workloads.resolve_references(problems)

    warm = run_pass(problems, polyrad)  # untimed warm-up
    baseline = warm.outcomes
    repeats = 1 if args.trace else min(
        10, max(1, math.ceil(VERIFY_TARGET_S / max(warm.verify[0][0], 1e-3))))
    passes = measure(problems, polyrad, tracer, args.seconds, repeats)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    signature = [o.signature() for o in baseline]
    consistent = all([o.signature() for o in p.outcomes] == signature for p in passes)
    untraced = [p for p in passes if p.layers is None]
    env = environment()

    print("polyrad benchmark  workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env  " + " ".join("%s=%s" % kv for kv in env.items()))
    print("problems, with wall seconds of the warm-up pass:")
    for p, o in zip(problems, baseline):
        if o.status == "terminated" and o.value is not None:
            shown = "value=%.12g" % o.value
        else:
            shown = "bounds=[%.12g, %.12g]" % o.bounds if o.bounds else ""
        print("  %-36s %-16s %6.3fs it=%-3s v=%-4s %-36s %s"
              % (p.pid, o.status, o.solve_s + o.verify_s, o.iterations, o.vertices,
                 shown, "FAILED " + o.failure if o.failure else "ok"))
    unexpected = [(p.pid, o.failure) for p, o in zip(problems, baseline)
                  if o.failure and not workloads.known_defect(p.pid, o.failure)]
    for pid, failure in unexpected:
        print("unexpected failure: %s: %s" % (pid, failure))

    metrics = {}
    selftest = []
    rows = []
    if not args.trace:
        # exact_frac, failed_frac and bound_gap are printed but are not
        # metrics of BENCHMARK.json: each is 0 on some workload or moves
        # with the drawn families from seed to seed.
        bounded = [entry["name"] for entry in spec["end_to_end"]]
        rows = end_to_end(problems, baseline, untraced, setup_samples, peak_rss_mb)
        for name, value, unit, note in rows:
            print("  %-12s %14.6g %-6s %s" % (name, value, unit, note))
            if name in bounded:
                metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = report_layers(spec, args.workload, passes, build_s)
        selftest = [name for name in workloads.STRESSED[args.workload]
                    if not metrics[name]["value"] > 0]
        print("self-test: " + ("zero counters " + ", ".join(selftest) if selftest
                               else "every counter this workload stresses is nonzero"))
    if not consistent:
        print("passes disagree on statuses, values, bounds or vertex counts")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-s%d-t%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed, "env": env,
            "setup_samples": setup_samples, "metrics": metrics,
            "end_to_end": [list(row) for row in rows],
            "passes": [{"traced": p.layers is not None, "solve": p.solve,
                        "verify": p.verify,
                        "problem_solve_s": [o.solve_s for o in p.outcomes]}
                       for p in passes],
            "problems": [[p.pid, o.status, o.value, o.bounds, o.iterations,
                          o.vertices, o.failure] for p, o in zip(problems, baseline)],
        }, handle, indent=1)
    if tracer is not None:
        tracing.dump([setup_spans] + [p.spans for p in passes if p.spans is not None],
                     stem + "-spans.jsonl")

    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(1 for p in passes for o in p.outcomes if o.failure)
    correct = consistent and not selftest and not unexpected
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
