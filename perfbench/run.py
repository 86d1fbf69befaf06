"""Benchmark of codegb: Graver ladder, prime-field universal bases, decoding.

Run from the repository root:

    python3 perfbench/run.py --workload graver-ladder --seed 1 --seconds 36 --trace 0

The program is imported from ``src/`` next to this directory.  With
``--trace 0`` the run reports end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds on the same inputs and reports per-layer
self times and counts per traced round, plus the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3  # set-up slots before the first round; each round adds one
SETUP_SLOT_S = 0.25  # a slot repeats a shorter set-up until this has passed


class Recorder:
    """Timed writes and reads, attempts and failures of one run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.writes = defaultdict(list)
        self.reads = defaultdict(list)  # read latencies by read group
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.notes = []  # the first few failures, for the report

    @contextlib.contextmanager
    def _timed(self, span, samples):
        self.attempted += 1
        rec = None
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span) as rec:
                yield
        finally:  # an operation that raised is timed too
            # traced, the root span's own clock readings are the sample, so
            # the self times of a traced round add up to its timed wall time
            dt = rec[2] - rec[1] if rec else time.perf_counter() - t0
            samples.append(dt)
            self.timed_s += dt

    def timed_write(self, code):
        return self._timed("bench.write", self.writes[code])

    def timed_read(self, group):
        return self._timed("bench.read", self.reads[group])

    def untimed(self):
        return self.tracer.paused()

    def fail(self, what):
        """Count a failed gate or a raised error; the run goes on."""
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(what)


def import_codegb():
    for name in [m for m in sys.modules if m == "codegb" or m.startswith("codegb.")]:
        del sys.modules[name]
    codegb = importlib.import_module("codegb")
    importlib.import_module("codegb.cli")
    return codegb


class SetUp:
    """The program and a workload's inputs, set up afresh and timed in slots
    through a run; only the newest set of inputs is kept alive.  The median
    set-up is reported: spread through the run, and repeated within a slot
    when it is short, it averages over the machine's changes in speed and
    over the noise of a single import, as the timed work does."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.codegb = self.workload = None
        self.times = []

    def again(self):
        """One slot: set up at least once, and again until SETUP_SLOT_S has
        passed."""
        start = time.perf_counter()
        self.once()
        while time.perf_counter() - start < SETUP_SLOT_S:
            self.once()

    def once(self):
        self.codegb = self.workload = None
        gc.unfreeze()
        gc.collect()
        t0 = time.perf_counter()
        codegb = import_codegb()
        workload = workloads.WORKLOADS[self.name]()
        workload.setup(codegb, self.seed, self.workdir)
        self.times.append(time.perf_counter() - t0)
        # the inputs live for the next rounds; keep them out of the
        # collections that happen during timed calls
        gc.collect()
        gc.freeze()
        self.codegb, self.workload = codegb, workload


def visit(workload, spec, variant, rec):
    try:
        workload.visit(spec, variant, rec)
    except Exception as e:  # counted as a failure; the run goes on
        traceback.print_exc(file=sys.stderr)
        rec.fail(f"{spec.name}: {type(e).__name__}: {e}")


def one_round(workload, k, rec):
    for spec in workload.specs:
        visit(workload, spec, k % workload.variants, rec)


def run_plain(setup, rec, seconds):
    """Rounds until the time is up, each followed by a fresh set-up; the
    first round always completes."""
    start = time.perf_counter()
    k = 0
    while True:
        for spec in setup.workload.specs:
            if k and time.perf_counter() - start >= seconds:
                return k
            visit(setup.workload, spec, k % setup.workload.variants, rec)
        k += 1
        setup.again()


def run_traced(workload, rec, seconds, codegb):
    """Pairs of an untraced and a traced round on the same inputs; a pair
    starts only if one more fits in the time, and the first always runs."""
    tracer = rec.tracer
    start = time.perf_counter()
    overheads = []
    traced_s = 0.0
    k = 0
    while True:
        t0 = rec.timed_s
        one_round(workload, k, rec)
        plain = rec.timed_s - t0
        spans.install(tracer, codegb)
        tracer.active = True
        try:
            t0 = rec.timed_s
            one_round(workload, k, rec)
            traced = rec.timed_s - t0
        finally:
            tracer.active = False
            tracer.uninstall()
        overheads.append(traced - plain)
        traced_s += traced
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            return k, traced_s, statistics.median(overheads)


def geomean(values):
    # 0 for no values or a 0 among them, which only a run with failures has
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples, q):
    """The q-th percentile of samples, or None for fewer than two."""
    return statistics.quantiles(samples, n=100)[q - 1] if len(samples) > 1 else None


def median(values):
    # 0 for no values: only a run whose every write failed has no reads, and
    # those failures are counted
    return statistics.median(values) if values else 0.0


def read_figures(reads):
    """Median, 95th and 99th percentile latency and rate of each read group,
    each over the whole run.

    Groups are read separately because their latencies differ: a quantile
    of the decode codes pooled falls between one code's latencies and
    another's, and moves with the mix.  Quantiles are taken over the whole
    run, not per round: the machine's speed switches between levels for
    some seconds at a time, and a quantile over the run moves smoothly with
    the share of time at each level, where a median over rounds jumps from
    one level to the other.
    """
    return [(median(r), tail(r, 95) or 0.0, tail(r, 99) or 0.0, len(r) / sum(r))
            for r in reads.values()]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def plain_metrics(workload, rec, setup_s):
    # Means, not medians, of the few writes per code: the machine's speed
    # drifts by about 15% over periods of some seconds, and a mean over a
    # run's writes averages over those periods where a median picks one.
    writes = {spec.name: statistics.fmean(rec.writes[spec.name])
              for spec in workload.specs if rec.writes[spec.name]}
    # Read figures too are geometric means over the read groups.
    figures = read_figures(rec.reads)
    p50, p95, p99, rate = (geomean(f) for f in zip(*figures)) if figures else (0.0,) * 4
    metrics = {
        "write_s": (geomean(writes.values()), "s"),
        "read_p50_ms": (p50 * 1e3, "ms"),
        "read_p95_ms": (p95 * 1e3, "ms"),
        "reads_per_s": (rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {f"{workload.label}_s.{code}": (t, "s") for code, t in writes.items()}
    detail["read_p99_ms"] = (p99 * 1e3, "ms")
    detail["read_samples"] = (sum(map(len, rec.reads.values())), "count")
    return metrics, detail


def traced_metrics(tracer, rounds, traced_s, overhead_s):
    per_round = {name: t / rounds for name, t in tracer.self_times().items()}
    self_sum = sum(per_round.values())
    metrics = {name: (t, "s") for name, t in per_round.items()}
    for name in spans.COUNT_METRICS:
        n = tracer.counts[name]
        metrics[name] = (n if name in spans.MAX_COUNTS else n / rounds, "count")
    wall = traced_s / rounds
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    # every traced second lies in exactly one span's self time
    consistent = abs(self_sum - wall) <= max(abs(overhead_s), 1e-6)
    return metrics, consistent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "codegb", "__init__.py")):
        print(f"error: no codegb sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    base = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)  # left by a killed run
    os.makedirs(workdir)
    try:
        setup = SetUp(args.workload, args.seed, workdir)
        for _ in range(SETUPS):
            setup.again()
        setup_rss_mb = peak_rss_mb()  # the benchmark's inputs, and set-up's peak
        rec = Recorder(spans.Tracer())
        t0 = time.perf_counter()
        if args.trace:
            rounds, traced_s, overhead_s = run_traced(setup.workload, rec, args.seconds, setup.codegb)
            metrics, consistent = traced_metrics(rec.tracer, rounds, traced_s, overhead_s)
            if not consistent:
                rec.fail("traced self times do not add up to the traced wall time")
            rec.tracer.dump(os.path.join(base, f"spans-{args.workload}-{args.seed}.json"))
            top = max(spans.TIME_METRICS, key=lambda name: metrics[name][0])
            detail = {f"largest_share.{top}": (metrics[top][0] / metrics["trace.wall_s"][0], "ratio")}
        else:
            rounds = run_plain(setup, rec, args.seconds)
            metrics, detail = plain_metrics(setup.workload, rec, statistics.median(setup.times))
            detail["setups"] = (len(setup.times), "count")
        wall_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = rec.failed
    detail["setup_rss_mb"] = (setup_rss_mb, "MB")
    detail["wall_s"] = (wall_s, "s")
    detail["rounds"] = (rounds, "count")
    detail["failed_frac"] = (failed / rec.attempted, "ratio")
    for note in rec.notes:
        print(f"FAILED {note}")
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"{args.workload:14s} {name:36s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": rec.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
