"""End-to-end CLI behaviour: parsing, rendering, caching, exit codes."""

import json

import pytest

from codegb.cli import (
    BadElementTokenError,
    InconsistentDimensionsError,
    ParseError,
    main,
    parse_input,
)

F3_DOC = "field p=3 r=1 modulus=0,1\nparity 1 2 1\n"
F4_DOC = "field p=2 r=2 modulus=1,1,1 basis=a,1\nparity a 1 a^2\n"

F3_GRAVER_LINES = [
    "x[1,1] - x[3,1]",
    "x[3,1]^2 - x[2,1]",
    "x[2,1]*x[3,1] - 1",
    "x[2,1]^2 - x[3,1]",
    "x[2,1]^2 - x[1,1]",
    "x[1,1]*x[3,1] - x[2,1]",
    "x[1,1]*x[2,1] - 1",
    "x[1,1]^2 - x[2,1]",
    "x[3,1]^3 - 1",
    "x[2,1]^3 - 1",
    "x[1,1]*x[3,1]^2 - 1",
    "x[1,1]^2*x[3,1] - 1",
    "x[1,1]^3 - 1",
]


@pytest.fixture
def f3_path(tmp_path):
    p = tmp_path / "f3.txt"
    p.write_text(F3_DOC)
    return str(p)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_accepts_comments_and_blank_lines():
    job = parse_input("# header\n\nfield p=3 r=1 modulus=0,1\nparity 1 2 1 # trailing\n")
    assert job.p == 3 and job.role == "parity"
    assert [e.k for e in job.matrix[0]] == [job.ff.one().k, job.ff.from_int(2).k, job.ff.one().k]


@pytest.mark.parametrize(
    "doc,exc",
    [
        ("field p=3 r=1 modulus=0,1\nparity 1 a^0 1\n", BadElementTokenError),
        ("field p=3 r=1 modulus=0,1\nparity 1 a^9 1\n", BadElementTokenError),
        ("field p=3 r=1 modulus=0,1\nparity 1 b 1\n", BadElementTokenError),
        ("field p=3 r=1 modulus=0,1\nparity 1 2 1\nparity 1 2\n", InconsistentDimensionsError),
        ("field p=3 r=1 modulus=0,1\nrows 1 2 1\n", ParseError),
        ("parity 1 2 1\n", ParseError),
        ("field p=3 r=1 modulus=0,1\n", ParseError),
        ("field p=3 r=1 modulus=0,1\nfield p=2 r=1 modulus=0,1\nparity 1\n", ParseError),
        ("field p=3 r=1 modulus=0,1\nparity 1 2 1\ngenerator 1 0 0\n", ParseError),
        ("field p=3 r=1 modulus=0,1\nparity\n", ParseError),
        ("field p=3 r=1\nparity 1\n", ParseError),
        ("field p=3 r=1 modulus=0,1 modulus=0,1\nparity 1\n", ParseError),
        ("field p=3 r=1 modulus=0,1 extra=1\nparity 1\n", ParseError),
        ("field p=4 r=1 modulus=0,1\nparity 1\n", ParseError),  # nonprime p
    ],
)
def test_parse_rejects_malformed_documents(doc, exc):
    with pytest.raises(exc):
        parse_input(doc)


def test_parse_errors_carry_the_line_number():
    with pytest.raises(ParseError) as ei:
        parse_input("field p=3 r=1 modulus=0,1\nparity 1 a^0 1\n")
    assert "line 2" in str(ei.value)


def test_parse_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("field p=3 r=1 modulus=0,1\nparity 1 a^0 1\n")
    rc, out, err = run_cli(capsys, "graver", str(bad), "--no-cache")
    assert rc == 2 and out == "" and "a^0" in err


def test_unreadable_input_exits_2(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "graver", str(tmp_path / "nope.txt"), "--no-cache")
    assert rc == 2 and "cannot read input" in err


# --------------------------------------------------------------- rendering


def test_graver_text_output_is_the_golden_listing(capsys, f3_path):
    rc, out, err = run_cli(capsys, "graver", f3_path, "--no-cache")
    assert rc == 0 and err == ""
    assert out.splitlines() == F3_GRAVER_LINES


def test_ugb_text_output_drops_three_lines(capsys, f3_path):
    rc, out, _ = run_cli(capsys, "ugb", f3_path, "--no-cache")
    assert rc == 0
    kept = set(F3_GRAVER_LINES) - {
        "x[1,1]*x[3,1] - x[2,1]",
        "x[1,1]*x[3,1]^2 - 1",
        "x[1,1]^2*x[3,1] - 1",
    }
    assert set(out.splitlines()) == kept and len(out.splitlines()) == 10


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(F3_DOC))
    rc, out, _ = run_cli(capsys, "graver", "-", "--no-cache")
    assert rc == 0 and out.splitlines() == F3_GRAVER_LINES


def test_matrix_text_sections(capsys, f3_path):
    rc, out, _ = run_cli(capsys, "matrix", f3_path, "--no-cache")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "He:" and lines[1] == "1 2 1"
    assert "H(q):" in lines and "1 2 1 3" in lines
    assert "Lawrence:" in lines
    assert lines[lines.index("Lawrence:") + 1] == "1 2 1 0 0 0 3"


def test_json_format_round_trips(capsys, f3_path):
    rc, out, _ = run_cli(capsys, "graver", f3_path, "--no-cache", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 13 and len(doc["elements"]) == 13
    assert doc["field"] == {"p": 3, "r": 1, "modulus": [0, 1], "basis": None}
    assert doc["variables"] == ["x[1,1]", "x[2,1]", "x[3,1]"]
    assert [[1, 0, 0], [0, 0, 1]] in doc["elements"]


def test_rgb_prints_the_leading_side_first(capsys, f3_path):
    from codegb.orders import lex

    rc, out, _ = run_cli(capsys, "rgb", f3_path, "--no-cache", "--order", "lex", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    order = lex(3)
    for lhs, rhs in doc["elements"]:
        assert order.compare(lhs, rhs) > 0


def test_generalized_kind_is_respected(capsys, tmp_path):
    p = tmp_path / "f4.txt"
    p.write_text(F4_DOC)
    rc, out, _ = run_cli(
        capsys, "rgb", str(p), "--no-cache", "--kind", "generalized", "--format", "json"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "generalized"
    assert doc["variables"][:4] == ["x[1,1]", "x[1,2]", "x[1,3]", "x[2,1]"]


def test_runs_are_deterministic(capsys, f3_path):
    _, first, _ = run_cli(capsys, "ugb", f3_path, "--no-cache")
    _, second, _ = run_cli(capsys, "ugb", f3_path, "--no-cache")
    assert first == second


# ------------------------------------------------------------------ caching


def test_cache_hit_reproduces_bytes(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    rc1, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entries = list(cache.glob("*.json"))
    assert rc1 == 0 and len(entries) == 1
    before = entries[0].read_bytes()
    rc2, second, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc2 == 0 and second == first and err == ""
    assert entries[0].read_bytes() == before


def test_cache_key_ignores_format(capsys, f3_path, tmp_path):
    # the cached payload is presentation-free, so text and json share an entry
    cache = tmp_path / "cache"
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    rc, out, _ = run_cli(
        capsys, "graver", f3_path, "--cache-dir", str(cache), "--format", "json"
    )
    assert rc == 0 and json.loads(out)["count"] == 13
    assert len(list(cache.glob("*.json"))) == 1


def test_cache_key_separates_commands_and_orders(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    run_cli(capsys, "ugb", f3_path, "--cache-dir", str(cache))
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache), "--order", "lex")
    assert len(list(cache.glob("*.json"))) == 3


def test_corrupt_cache_is_reported_and_recomputed(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    entry.write_text("{not json")
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first
    assert "corrupt cache" in err
    # the entry was rewritten and is trusted again
    json.loads(entry.read_text())
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first and err == ""


@pytest.mark.parametrize("part", ["entry", "result"])
def test_cache_entry_that_is_not_an_object_is_recomputed(capsys, f3_path, tmp_path, part):
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    if part == "entry":
        entry.write_text("[]")  # valid JSON, but no payload
    else:
        payload = json.loads(entry.read_text())
        payload["result"] = []  # schema and key match, the result is no object
        entry.write_text(json.dumps(payload))
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first
    assert "corrupt cache" in err and "not a JSON object" in err
    assert isinstance(json.loads(entry.read_text())["result"], dict)


@pytest.mark.parametrize(
    "corrupt,why",
    [
        (lambda result: {}, "header"),
        (lambda result: {"command": "graver"}, "header"),
        (lambda result: {**result, "elements": [[1]]}, "does not render: ValueError"),
    ],
    ids=["empty", "command-only", "element-not-a-pair"],
)
def test_cache_result_that_is_no_payload_is_recomputed(capsys, f3_path, tmp_path, corrupt, why):
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    payload = json.loads(entry.read_text())
    written = payload["result"]
    payload["result"] = corrupt(written)  # schema and key match
    entry.write_text(json.dumps(payload))
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first
    assert "corrupt cache" in err and why in err
    assert json.loads(entry.read_text())["result"] == written


def test_mismatched_cache_key_is_rejected(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    payload = json.loads(entry.read_text())
    payload["key"]["order"] = "lex"
    entry.write_text(json.dumps(payload))
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and "corrupt cache" in err
    assert out.splitlines() == F3_GRAVER_LINES


def test_no_cache_leaves_no_files(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    rc, _, _ = run_cli(capsys, "graver", f3_path, "--no-cache", "--cache-dir", str(cache))
    assert rc == 0 and not cache.exists()


# --------------------------------------------------------------- exit codes


def test_verify_agreement_exits_0(capsys, f3_path):
    rc, out, _ = run_cli(capsys, "verify", f3_path, "--no-cache")
    assert rc == 0
    assert out.splitlines()[:2] == ["agree: true", "count: 13"]


@pytest.mark.parametrize(
    "doc,count",
    [
        # bases whose multiply-by-a matrices are not symmetric: H_e must put
        # the s-th coordinate of b_t*h_ij at row (i,s), column (j,t)
        ("field p=2 r=3 modulus=1,1,0,1\nparity a 1\n", 18),
        ("field p=3 r=2 modulus=2,1,1 basis=a,a^3\nparity a 1\n", 32),
    ],
)
def test_verify_agrees_for_asymmetric_bases(capsys, tmp_path, doc, count):
    p = tmp_path / "doc.txt"
    p.write_text(doc)
    rc, out, err = run_cli(capsys, "verify", str(p), "--no-cache")
    assert (rc, err) == (0, "")
    assert out.splitlines() == ["agree: true", f"count: {count}"]


def test_warm_verify_reproduces_the_cold_run(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    cold = run_cli(capsys, "verify", f3_path, "--cache-dir", str(cache))
    warm = run_cli(capsys, "verify", f3_path, "--cache-dir", str(cache))
    assert cold[0] == 0 and len(list(cache.glob("*.json"))) == 1
    assert warm == cold


def test_compute_failure_exits_3(capsys, tmp_path):
    # the brute-force oracle of verify refuses a search over 5^12 vectors
    p = tmp_path / "rep12.txt"
    p.write_text("field p=2 r=1 modulus=0,1\nparity" + " 1" * 12 + "\n")
    rc, out, err = run_cli(capsys, "verify", str(p), "--no-cache")
    assert rc == 3 and out == ""
    assert err.startswith("error: brute-force sweep of size") and "exceeds" in err


def test_error_without_a_message_names_its_type(capsys, f3_path, monkeypatch):
    def fail(doc, args):
        raise AssertionError()

    monkeypatch.setattr("codegb.cli._compute", fail)
    rc, out, err = run_cli(capsys, "graver", f3_path, "--no-cache")
    assert (rc, out, err) == (3, "", "error: AssertionError\n")


def test_one_parser_serves_every_call_and_keeps_no_state(capsys, f3_path, monkeypatch):
    run_cli(capsys, "graver", f3_path, "--no-cache")

    def rebuilt():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr("codegb.cli.build_parser", rebuilt)
    rc, out, _ = run_cli(capsys, "ugb", f3_path, "--no-cache", "--kind", "generalized", "--format", "json")
    assert rc == 0 and json.loads(out)["kind"] == "generalized"
    # neither the kind nor the format of the previous call carries over
    rc, out, err = run_cli(capsys, "ugb", f3_path, "--no-cache")
    assert rc == 0 and err == "" and len(out.splitlines()) == 10
