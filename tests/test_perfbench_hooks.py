"""The traced benchmark wraps codegb functions by name; keep those names."""

import importlib.util
import pathlib

import codegb
import codegb.cli

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_install_wraps_and_uninstall_restores(tmp_path):
    spans = load_spans()
    before = codegb.cli.main, codegb.cli._compute, codegb.groebner.reduce
    tracer = spans.Tracer()
    try:
        spans.install(tracer, codegb)  # raises AttributeError on a missing name
        assert codegb.cli.main is not before[0]
        doc = tmp_path / "f3.txt"
        doc.write_text("field p=3 r=1 modulus=0,1\nparity 1 2 1\n")
        argv = ["graver", str(doc), "--cache-dir", str(tmp_path / "cache")]
        tracer.active = True
        assert codegb.cli.main(argv) == 0  # cold: computed and cached
        assert codegb.cli.main(argv) == 0  # warm: read from the cache
        # the job computes its Graver basis by bricks; the toric and
        # saturation wrappers are passed by the Lawrence route, kept as oracle
        code = codegb.cli.parse_input(doc.read_text()).build_code()
        codegb.graver.graver_lawrence(code, "ordinary")
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (codegb.cli.main, codegb.cli._compute, codegb.groebner.reduce) == before
    names = {rec[0] for rec in tracer.spans}
    assert names >= {
        "cli.main", "cli.parse", "cli.compute", "cli.render", "cli.cache_read",
        "cli.cache_write", "matrices.build", "graver.pipeline", "toric.ideal",
        "groebner.saturate", "groebner.buchberger",
    }
    assert sum(tracer.self_times().values()) > 0


def test_spans_of_a_cold_ugb_job_cover_the_sieve(tmp_path):
    # parity 1 7 3 over GF(19) keeps most of its 28 elements through the LP
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, codegb)
        doc = tmp_path / "p19.txt"
        doc.write_text("field p=19 r=1 modulus=0,1\nparity 1 7 3\n")
        tracer.active = True
        assert codegb.cli.main(["ugb", str(doc), "--cache-dir", str(tmp_path / "cache")]) == 0
        tracer.active = False
    finally:
        tracer.uninstall()
    names = {rec[0] for rec in tracer.spans}
    assert names >= {"universal.sieve", "universal.prune", "universal.cone_rows", "universal.cone", "lp.feasible"}
    assert tracer.counts["universal.kept"] == 28 and tracer.counts["lp.calls"] > 0
