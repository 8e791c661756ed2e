#!/usr/bin/env python3
"""The mcergo benchmark: one command for the scaling, exact and couple workloads.

Run from the repository root:

    python3 bench/run.py --workload {scaling,exact,couple} --seed N --seconds S --trace {0,1}

A run sets up the workload, runs one untimed warm-up pass, then repeats
timed passes until ``--seconds`` have elapsed and reports medians of the
pass times calibrated for the host's speed (``calibration.py``).  Every
operation of every pass goes through the correctness gate in
``workloads.check``.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the spans ``spans.Tracer`` records.

Outputs, a run record with provenance, and (traced runs) the spans of the
last traced pass go to ``.bench_out/<workload>/``.  The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference_seed0.json"
WORKLOAD_NAMES = ("scaling", "exact", "couple")  # workloads.WORKLOADS; that module loads numpy

# OpenBLAS would otherwise pick its own thread count; both sides of a
# comparison must use the same one, and no more than the machine has.  One
# thread: a second one gains ~6% on `exact` but spins on a core other
# tenants of a shared host also want, which makes timings much noisier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
SETUP_PROBE_TIMEOUT_S = 60
MAX_REPORTED_ERRORS = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the measured phase after the warm-up pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone and print it (used for the setup_s samples)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def git_commit():
    """HEAD of the checkout if it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def provenance(args, threads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def setup_probe(args):
    """Set-up times of a fresh interpreter, as measured by ``--setup-only``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Gate:
    """Counts operations and failures across the passes of one run."""

    def __init__(self, workloads, workload, reference):
        self.workloads = workloads
        self.workload = workload
        self.want = reference["workloads"].get(workload.name, {}) if reference else {}
        self.has_mc = reference is not None and workload.seed == reference["seed"]
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, label, results):
        failed = 0
        for op, result in results.items():
            errors = self.workloads.check(self.workload, op, result, self.want.get(op),
                                          self.has_mc, self.first.get(op))
            if not isinstance(result, BaseException):
                self.first.setdefault(op, result)
            self.attempted += 1
            if errors:
                failed += 1
                self.errors += [f"{label} {op}: {e}" for e in errors]
        self.failed += failed
        return failed


def timed_pass(workload):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    results = workload.run_pass()
    return results, time.perf_counter() - wall0, time.process_time() - cpu0


def measure(args, workload, gate, speed, setup_samples):
    """Untraced passes for ``--seconds``; returns per-pass time samples.

    ``speed`` (a ``calibration.Calibration``) times every operation and the
    kernel during and after it, and gives each pass's raw and calibrated
    wall and CPU time.

    Tops ``setup_samples`` up to SETUP_SAMPLES with one fresh-interpreter
    set-up after each pass, so the samples spread over the run instead of
    all landing in one stretch of machine load.
    """
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < args.seconds:
        results = workload.run_pass(speed.op)
        failed = gate.check(f"pass {len(samples) + 1}", results)
        samples.append(speed.take_pass())
        print(f"pass {len(samples)}: wall {samples[-1]['wall_s']:.4f} s "
              f"(raw {samples[-1]['raw_wall_s']:.4f} s), cpu {samples[-1]['cpu_s']:.4f} s, "
              f"{len(results)} ops, {failed} failed")
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(args))
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_probe(args))
    return samples


def measure_traced(args, workload, gate):
    """Alternate untraced and traced passes for ``--seconds``."""
    import spans

    tracer = spans.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        results, wall, cpu = timed_pass(workload)
        gate.check(f"untraced pass {len(untraced) + 1}", results)
        untraced.append({"wall_s": wall, "cpu_s": cpu})
        tracer.reset()
        tracer.install()
        try:
            results, wall, cpu = timed_pass(workload)
        finally:
            tracer.uninstall()
        failed = gate.check(f"traced pass {len(traced) + 1}", results)
        traced.append(tracer.layer_metrics(wall, dir_bytes(workload.result_dir)))
        print(f"pass {len(traced)}: untraced wall {untraced[-1]['wall_s']:.4f} s, "
              f"traced wall {wall:.4f} s, {len(results)} ops, {failed} failed")
    metrics = {}
    for name, (_, unit) in traced[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in traced), unit)
    metrics["trace_overhead_s"] = (
        metrics["traced.wall_s"][0] - statistics.median(s["wall_s"] for s in untraced), "s")
    return metrics, untraced, tracer.dump()


def prepare():
    """Fix the BLAS thread count and import mcergo from this checkout's sources.

    Must run before numpy is imported.  Returns the BLAS thread count, or
    None when the checkout has no mcergo sources.
    """
    if not (SRC / "mcergo" / "__init__.py").is_file():
        print(f"error: mcergo sources not found under {SRC}", file=sys.stderr)
        return None
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    return threads


def main(argv=None):
    args = parse_args(argv)
    threads = prepare()
    if threads is None:
        return 2
    out_dir = OUT_ROOT / args.workload

    # set-up: imports, corpus and config construction, before the first timed call
    t0 = time.perf_counter()
    import workloads

    workload = workloads.build(args.workload, args.seed, str(out_dir))
    setup = {"raw_setup_s": time.perf_counter() - t0}
    if not Path(workloads.mcergo.__file__).resolve().is_relative_to(SRC):
        print(f"error: mcergo imported from {workloads.mcergo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import calibration

    setup["setup_s"] = calibration.after(setup["raw_setup_s"])
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    record = {"provenance": provenance(args, threads)}
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else None
    gate = Gate(workloads, workload, reference)

    gate.check("warm-up", workload.run_pass())
    if args.trace:
        metrics, record["untraced_samples"], trace_dump = measure_traced(args, workload, gate)
        with open(out_dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump({"metrics": {k: v for k, (v, _) in metrics.items()}, **trace_dump}, fh)
    else:
        speed = calibration.Calibration()
        setup_samples = [setup]
        samples = measure(args, workload, gate, speed, setup_samples)
        record["samples"] = samples
        record["setup_samples"] = setup_samples
        record["calibration"] = {"reference_s": calibration.REFERENCE_S,
                                 "kernel_wall_s": speed.kernel_wall,
                                 "kernel_cpu_s": speed.kernel_cpu}
        metrics = {
            "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
            "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setup_samples), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    for line in gate.errors[:MAX_REPORTED_ERRORS]:
        print(f"FAILED {line}", file=sys.stderr)
    # failed_frac is reported here and as failed/attempted in the JSON result
    shown = dict(metrics, failed_frac=(gate.failed / gate.attempted, "1"))
    for name, (value, unit) in shown.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    record["errors"] = gate.errors
    with open(out_dir / f"run_record_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
