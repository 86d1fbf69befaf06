"""Spans and counts recorded from outside the program.

Wrappers are installed in the namespace of the module that makes the call
(``codegb.graver.buchberger``, not only ``codegb.groebner.buchberger``), so
every call is seen with the span that caused it.  Spans live in memory as
[name, start, end, parent] records and are written out when the run ends.
Self time is a span's duration minus the time its direct children cover; in
one thread the children of a span are disjoint, so that is the sum of their
durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

# Buchberger runs are attributed to whatever called them.
_BUCHBERGER_PARENT = {
    "groebner.saturate": "groebner.buchberger_s.saturate",
    "graver.pipeline": "groebner.buchberger_s.lawrence",
    "bench.write": "groebner.buchberger_s.rgb",
}
_BUCHBERGER_OTHER = "groebner.buchberger_s.other"  # any other caller, or none

# span name -> per-layer metric that receives its self time
_SELF_METRIC = {
    "bench.write": "bench.self_s",
    "bench.read": "bench.self_s",
    "cli.main": "cli.main_self_s",
    "cli.parse": "cli.parse_s",
    "cli.compute": "cli.compute_s",
    "cli.render": "cli.render_s",
    "cli.cache_read": "cli.cache_read_s",
    "cli.cache_write": "cli.cache_write_s",
    "matrices.build": "matrices.build_s",
    "toric.kernel": "toric.kernel_s",
    "toric.ideal": "toric.ideal_self_s",
    "groebner.saturate": "groebner.saturate_s",
    "groebner.reduce": "groebner.reduce_s",
    "binomials.substitute": "binomials.substitute_s",
    "binomials.generators": "binomials.generators_s",
    "graver.pipeline": "graver.pipeline_self_s",
    "universal.sieve": "universal.sieve_s",
    "universal.prune": "universal.prune_s",
    "universal.cone_rows": "universal.cone_rows_s",
    "universal.cone": "universal.cone_s",
    "lp.feasible": "lp.feasible_s",
}

TIME_METRICS = sorted({*_SELF_METRIC.values(), *_BUCHBERGER_PARENT.values(), _BUCHBERGER_OTHER})

COUNT_METRICS = (
    "toric.kernel_gens",
    "groebner.saturations",
    "groebner.saturations_changed",
    "groebner.saturate_peak_gens",
    "groebner.buchberger_calls",
    "groebner.buchberger_out",
    "groebner.reduce_calls",
    "groebner.reduce_fixed",
    "graver.elements",
    "universal.pruned",
    "universal.kept",
    "universal.empty_cones",
    "universal.hint_hits",
    "universal.relax_hits",
    "universal.lp_calls",
    "lp.calls",
    "lp.infeasible",
    "lp.rows_max",
)

# counts that keep their largest value instead of a sum
MAX_COUNTS = {"groebner.saturate_peak_gens", "lp.rows_max"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own, yielding its record; records nothing
        and yields None while inactive."""
        if not self.active:
            yield None
            return
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def paused(self):
        """Run untraced, e.g. for gate checks outside the timed region."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, name, n=1):
        if name in MAX_COUNTS:
            self.counts[name] = max(self.counts[name], n)
        else:
            self.counts[name] += n

    def wrap(self, module, attr, name, after=None):
        """Replace module.attr by a recording wrapper; after(tracer, args,
        kwargs, result) updates counts once the span has closed."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for i, (name, start, end, parent) in enumerate(spans):
            if name == "groebner.buchberger":
                caller = spans[parent][0] if parent >= 0 else None
                metric = _BUCHBERGER_PARENT.get(caller, _BUCHBERGER_OTHER)
            else:
                metric = _SELF_METRIC[name]
            out[metric] += end - start - covered[i]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer, codegb) -> None:
    """Wrap the public functions each codegb module calls into."""
    cli, graver, groebner = codegb.cli, codegb.graver, codegb.groebner
    toric, universal, binomials = codegb.toric, codegb.universal, codegb.binomials

    def n_out(metric):
        return lambda t, a, k, out: t.count(metric, len(out))

    def saturated(t, args, kwargs, out):
        t.count("groebner.saturations")
        t.count("groebner.saturations_changed", int(out != args[0]))
        t.count("groebner.saturate_peak_gens", len(out))

    def buchberger_done(t, args, kwargs, out):
        t.count("groebner.buchberger_calls")
        t.count("groebner.buchberger_out", len(out))

    def reduced(t, args, kwargs, out):
        t.count("groebner.reduce_calls")
        t.count("groebner.reduce_fixed", int(out == args[0]))

    def pruned(t, args, kwargs, out):
        t.count("universal.pruned", int(out))

    def feasible(t, args, kwargs, out):
        t.count("lp.calls")
        t.count("lp.infeasible", int(out is None))
        t.count("lp.rows_max", len(args[0]))

    def cone_decided(t, args, kwargs, out):
        empty, witness = out
        if empty:
            t.count("universal.empty_cones")
        # feasible_point is the only wrapped call inside cone_is_empty, so the
        # newest span is the LP's exactly when this decision called it
        if t.spans[-1][0] == "lp.feasible":
            t.count("universal.lp_calls")
        elif not empty:
            hints = kwargs.get("hints", args[1] if len(args) > 1 else ())
            hit = witness in {tuple(h) for h in hints}
            t.count("universal.hint_hits" if hit else "universal.relax_hits")

    for mod in (cli, graver):
        for attr in ("build_He", "build_Hplus_e"):
            tracer.wrap(mod, attr, "matrices.build")
    tracer.wrap(graver, "lawrence_lift", "matrices.build")

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_input", "cli.parse")
    tracer.wrap(cli, "_compute", "cli.compute")
    tracer.wrap(cli, "render", "cli.render")
    tracer.wrap(cli, "_cache_read", "cli.cache_read")
    tracer.wrap(cli, "_cache_write", "cli.cache_write")
    tracer.wrap(cli, "graver_ordinary", "graver.pipeline", n_out("graver.elements"))
    tracer.wrap(cli, "graver_generalized", "graver.pipeline", n_out("graver.elements"))
    tracer.wrap(cli, "universal_basis", "universal.sieve", n_out("universal.kept"))

    tracer.wrap(graver, "toric_ideal", "toric.ideal")
    tracer.wrap(graver, "substitute_ones", "binomials.substitute")
    tracer.wrap(graver, "buchberger", "groebner.buchberger", buchberger_done)
    tracer.wrap(toric, "kernel_basis", "toric.kernel", n_out("toric.kernel_gens"))

    # saturate_all looks saturate_variable up in groebner, which looks up
    # buchberger there too; the benchmark's own reduced-basis and normal-form
    # calls go through the same module attributes
    tracer.wrap(groebner, "saturate_variable", "groebner.saturate", saturated)
    tracer.wrap(groebner, "buchberger", "groebner.buchberger", buchberger_done)
    tracer.wrap(groebner, "reduce", "groebner.reduce", reduced)
    for attr in ("build_ordinary_generators", "build_generalized_generators"):
        tracer.wrap(binomials, attr, "binomials.generators")

    tracer.wrap(universal, "prune_by_lemma", "universal.prune", pruned)
    tracer.wrap(universal, "cone_rows", "universal.cone_rows")
    tracer.wrap(universal, "feasible_point", "lp.feasible", feasible)

    tracer.wrap(universal, "cone_is_empty", "universal.cone", cone_decided)
