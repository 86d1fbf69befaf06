"""Checks of the benchmark itself.

Run from the repository root:

    python3 perfbench/selfcheck.py

- A doctored result trips the gates: a graver or ugb payload with one element
  dropped, or with one element altered, and a decode normal form with one
  exponent altered, each count as failures of the run.
- A program that raises does not end the run: with ``cli.render`` raising on
  every ugb job, or ``groebner.buchberger`` on every decode write, each job
  counts as a failure and the run still reports every end-to-end metric.
- On each workload, the traced self times sum to the traced wall time within
  the overhead the run reports.

Exits 1 if any check fails.  Takes a few minutes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run
import spans


class DoctoredSetUp(run.SetUp):
    """Set-up as a run on seed 1 does it, with the program doctored after
    each set-up."""

    def __init__(self, name, workdir, doctor=None):
        super().__init__(name, 1, workdir)
        self.doctor = doctor

    def again(self):
        super().again()
        if self.doctor:
            self.doctor(self.codegb)
            self.workload.reads = 2  # the cached reads are not what is checked


@contextlib.contextmanager
def set_up(name, doctor=None):
    """The program and a workload set up as a run on seed 1 does."""
    workdir = os.path.join(run.ROOT, ".perfbench", f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup = DoctoredSetUp(name, workdir, doctor)
        setup.again()
        yield setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["end_to_end"]}


def doctored_round(name, doctor):
    """Failures of a one-round run of a workload with the program doctored,
    the number of its jobs, and whether the run reports every end-to-end
    metric."""
    with set_up(name, doctor) as setup:
        rec = run.Recorder(spans.Tracer())
        run.run_plain(setup, rec, 0)
        metrics, _ = run.plain_metrics(setup.workload, rec, 0.0)
        return rec.failed, len(setup.workload.specs), set(metrics) == end_to_end_names()


def drop_element(codegb):
    payload = codegb.cli._elements_payload
    codegb.cli._elements_payload = lambda binomials: payload(binomials)[:-1]


def alter_element(codegb):
    payload = codegb.cli._elements_payload

    def altered(binomials):
        out = payload(binomials)
        lhs, rhs = out[-1]
        out[-1] = [[e + 1 for e in lhs], rhs]
        return out

    codegb.cli._elements_payload = altered


def alter_normal_form(codegb):
    reduce = codegb.groebner.reduce
    done = []

    def altered(b, basis):
        out = reduce(b, basis)
        if out is not None and not done:
            done.append(b)
            nf = list(out.lhs)
            nf[0] += 1
            out = codegb.binomials.Binomial(nf, out.rhs)
        return out

    codegb.groebner.reduce = altered


def raise_in_render(codegb):
    def render(job, result):
        raise RuntimeError("doctored render")

    codegb.cli.render = render


def raise_in_buchberger(codegb):
    def buchberger(gens, order):
        raise RuntimeError("doctored buchberger")

    codegb.groebner.buchberger = buchberger


def traced_consistent(name):
    with set_up(name) as setup:
        rec = run.Recorder(spans.Tracer())
        rounds, traced_s, overhead_s = run.run_traced(setup.workload, rec, 0, setup.codegb)
        metrics, consistent = run.traced_metrics(rec.tracer, rounds, traced_s, overhead_s)
        return consistent and rec.failed == 0, metrics


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    ok = True

    def report(passed, what):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {what}", flush=True)

    for name, doctor in (("ugb-prime", drop_element), ("ugb-prime", alter_element),
                         ("ugb-prime", raise_in_render), ("decode", raise_in_buchberger)):
        failed, jobs, reported = doctored_round(name, doctor)
        report(failed == jobs and reported, (
            f"{name}, {doctor.__name__}: {failed} of {jobs} jobs failed, "
            f"{'all' if reported else 'not all'} metrics reported"
        ))
    failed, _, reported = doctored_round("decode", alter_normal_form)
    report(failed == 1 and reported, f"decode, alter_normal_form: {failed} word(s) failed")
    for name in sorted(run.workloads.WORKLOADS):
        consistent, m = traced_consistent(name)
        report(consistent, (
            f"{name}: self times sum to {m['trace.self_sum_s'][0]:.4f} s, traced wall "
            f"{m['trace.wall_s'][0]:.4f} s, overhead {m['trace.overhead_s'][0]:.4f} s"
        ))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
