"""End-to-end CLI behaviour: parsing, rendering, caching, exit codes."""

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from codegb.cli import (
    CACHE_SCHEMA,
    BadElementTokenError,
    InconsistentDimensionsError,
    ParseError,
    build_parser,
    main,
    parse_input,
    render,
    run,
)

F3_DOC = "field p=3 r=1 modulus=0,1\nparity 1 2 1\n"
F4_DOC = "field p=2 r=2 modulus=1,1,1 basis=a,1\nparity a 1 a^2\n"
ZERO_DOC = "field p=2 r=1 modulus=0,1\nparity 1\n"  # the zero code {0} of length 1

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


@pytest.mark.parametrize(
    "field",
    [
        "field p=1000000000000000003 r=1 modulus=0,1",
        # a modulus that is not primitive, met only after 2^24 table steps
        "field p=2 r=24 modulus=1" + ",0" * 23 + ",1",
    ],
    ids=["prime-p", "GF2^24"],
)
def test_field_past_the_limit_exits_2_at_once(capsys, tmp_path, field):
    doc = tmp_path / "doc.txt"
    doc.write_text(field + "\nparity 1\n")
    t0 = time.monotonic()
    rc, out, err = run_cli(capsys, "graver", str(doc), "--no-cache")
    assert time.monotonic() - t0 < 1.0
    assert (rc, out) == (2, "") and err.startswith("error: line 1: invalid field: ")
    assert "exceeds 1048576" in err


def test_unreadable_input_exits_2(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "graver", str(tmp_path / "nope.txt"), "--no-cache")
    assert rc == 2 and "cannot read input" in err


NOT_UTF8 = b"field p=3 r=1 modulus=0,1\nparity 1 2 \xff\n"


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path, monkeypatch):
    import io

    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    rc, out, err = run_cli(capsys, "graver", str(bad), "--no-cache")
    assert (rc, out) == (2, "") and err.startswith("error: cannot read input: ") and "0xff" in err
    # as Python sets stdin up in its UTF-8 mode and under the C locale
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    rc, out, err = run_cli(capsys, "graver", "-", "--no-cache")
    assert (rc, out) == (2, "") and err.startswith("error: cannot read input: ") and "0xff" in err


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


def test_ugb_text_output_of_p19n3_is_the_golden_listing(capsys, tmp_path):
    # 19 of its cones reach the exact LP; CI diffs the installed console
    # script's output against the same file
    path = tmp_path / "p19n3.txt"
    path.write_text("field p=19 r=1 modulus=0,1\nparity 1 7 3\n")
    rc, out, err = run_cli(capsys, "ugb", str(path), "--no-cache")
    assert (rc, err) == (0, "")
    assert out == (Path(__file__).parent / "golden" / "ugb-p19n3.txt").read_text()


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(F3_DOC.encode("utf-8"))))
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


# A toric ideal has many generating sets; the one printed depends on the
# kernel basis that the saturation starts from.
TORIC_LINES = {
    ("f3", "ordinary"): [
        "x[1,1] - x[3,1]",
        "x[3,1]^2 - x[2,1]",
        "x[3,1]^3 - y[1]",
    ],
    ("f4-basis", "ordinary"): [
        "x[2,2] - x[3,1]",
        "x[1,2] - x[2,1]",
        "x[1,1] - x[3,2]",
        "x[3,2]^2 - y[1]*y[2]",
        "x[3,1]*x[3,2] - x[2,1]*y[2]",
        "x[3,1]^2 - y[2]",
        "x[2,1]*x[3,2] - x[3,1]*y[1]",
        "x[2,1]*x[3,1] - x[3,2]",
        "x[2,1]^2 - y[1]",
    ],
    # criterion 3's crossed ideal
    ("f4-basis", "generalized"): [
        "x[2,3] - x[3,1]",
        "x[2,2] - x[3,3]",
        "x[2,1] - x[3,2]",
        "x[1,3] - x[3,2]",
        "x[1,2] - x[3,1]",
        "x[1,1] - x[3,3]",
        "x[3,3]^2 - y[1]*y[2]",
        "x[3,2]*x[3,3] - x[3,1]*y[1]",
        "x[3,2]^2 - y[1]",
        "x[3,1]*x[3,3] - x[3,2]*y[2]",
        "x[3,1]*x[3,2] - x[3,3]",
        "x[3,1]^2 - y[2]",
    ],
}


@pytest.mark.parametrize("doc,kind", list(TORIC_LINES))
def test_toric_text_output_is_the_golden_listing(capsys, tmp_path, doc, kind):
    path = tmp_path / "doc.txt"
    path.write_text(DOCS[doc])
    rc, out, err = run_cli(capsys, "toric", str(path), "--kind", kind, "--no-cache")
    assert (rc, err) == (0, "")
    assert out == "".join(line + "\n" for line in TORIC_LINES[doc, kind])


def test_json_format_round_trips(capsys, f3_path):
    rc, out, _ = run_cli(capsys, "graver", f3_path, "--no-cache", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["count"] == 13 and len(doc["elements"]) == 13
    assert doc["field"] == {"p": 3, "r": 1, "modulus": [0, 1], "basis": None}
    assert doc["variables"] == ["x[1,1]", "x[2,1]", "x[3,1]"]
    assert [[1, 0, 0], [0, 0, 1]] in doc["elements"]


def indented_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# F3_DOC has a null basis, F4_DOC a basis list
DOCS = {"f3": F3_DOC, "f4-basis": F4_DOC, "zero-code": ZERO_DOC}


@pytest.mark.parametrize(
    "doc,command,kind",
    [
        (doc, command, kind)
        for doc in DOCS
        for command in ("matrix", "toric", "rgb", "graver", "ugb", "verify")
        for kind in ("ordinary", "generalized")
        # the oracle of a generalized F4 verify takes seconds
        if (doc, command, kind) != ("f4-basis", "verify", "generalized")
    ],
)
def test_json_output_is_json_dumps_indented(doc, command, kind):
    args = build_parser().parse_args([command, "-", "--kind", kind, "--format", "json", "--no-cache"])
    payload, text = run(parse_input(DOCS[doc]), args)
    assert text == render("json", payload) == indented_json(payload)


def test_json_rendering_of_empty_and_filled_lists():
    args = build_parser().parse_args(["verify", "-", "--format", "json", "--no-cache"])
    payload, _ = run(parse_input(F3_DOC), args)
    assert payload["only_pipeline"] == payload["only_oracle"] == []
    pair = [[1, 0, 2], [0, 1, 0]]
    disagreeing = {**payload, "agree": False, "only_pipeline": [pair], "only_oracle": [pair, pair[::-1]]}
    graver, _ = run(parse_input(F3_DOC), build_parser().parse_args(["graver", "-", "--no-cache"]))
    no_elements = {**graver, "count": 0, "elements": []}
    for p in (disagreeing, no_elements):
        assert render("json", p) == indented_json(p)


def random_json(rng, depth=0):
    """A random JSON tree: nested dicts, lists and tuples (which json writes
    as lists), empty containers, lists of plain ints, booleans, None, large
    and negative ints, and strings json has to escape."""
    strings = ["", "x[1,1]", 'say "hi"', "back\\slash", "tab\tnew\nline", "é∑ \u2028", "\x00\x1f", "🙂"]
    pick = rng.randrange(9 if depth < 4 else 5)
    if pick == 0:
        return rng.choice([True, False, None])
    if pick == 1:
        return rng.choice([0, 1, -1, 2 ** 64, -(2 ** 70) - 3, rng.randrange(-10 ** 6, 10 ** 6)])
    if pick == 2:
        return rng.choice(strings)
    if pick == 3:
        return [rng.randrange(-3, 2 ** 65) for _ in range(rng.randrange(0, 6))]
    if pick == 4:
        return rng.choice([[], {}, (), [True, 1], [1, False, 0], [None]])
    items = [random_json(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    if pick == 5:
        return items
    if pick == 6:
        return tuple(items)
    return {rng.choice(strings) + str(i % 3): item for i, item in enumerate(items)}


def test_json_rendering_of_random_trees():
    rng = random.Random(19)
    for _ in range(500):
        tree = random_json(rng)
        assert render("json", tree) == indented_json(tree)
    tree = {"z": [(1, 2), ()], "a": {"b": [True, 1], "": None}}
    assert render("json", tree) == indented_json(tree)


def test_rgb_prints_the_leading_side_first(capsys, f3_path):
    from codegb.orders import lex

    rc, out, _ = run_cli(capsys, "rgb", f3_path, "--no-cache", "--order", "lex", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    order = lex(3)
    for lhs, rhs in doc["elements"]:
        assert order.key(lhs) > order.key(rhs)


def cyclic_doc(p, n, poly):
    """The document of the cyclic code of length n over GF(p) generated by
    `poly` (coefficients, constant term first): its shifts are the rows."""
    k = n - len(poly) + 1
    rows = [[0] * i + poly + [0] * (k - 1 - i) for i in range(k)]
    return f"field p={p} r=1 modulus=0,1\n" + "".join(
        "generator " + " ".join(map(str, row)) + "\n" for row in rows
    )


@pytest.mark.parametrize(
    "p,n,poly,degrevlex_count,budget",
    [
        # binary Golay [23,12], 1 + x + x^5 + x^6 + x^7 + x^9 + x^11: 2^11
        # standard monomials; no result in 10 min by Buchberger
        (2, 23, [1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1], 8878, 5.0),
        # ternary Golay [11,6], 2 + x^2 + 2x^3 + x^4 + x^5: 3^5 standard
        # monomials; 6-11 s by Buchberger
        (3, 11, [2, 0, 1, 2, 1, 1], 352, 1.0),
    ],
    ids=["golay23", "tgolay"],
)
def test_rgb_of_the_golay_codes(capsys, tmp_path, p, n, poly, degrevlex_count, budget):
    path = tmp_path / "golay.txt"
    path.write_text(cyclic_doc(p, n, poly))
    t0 = time.monotonic()
    rc, out, _ = run_cli(capsys, "rgb", str(path), "--no-cache", "--format", "json")
    elapsed = time.monotonic() - t0
    assert rc == 0 and json.loads(out)["count"] == degrevlex_count
    assert elapsed < budget
    # under lex the first k variables lead x_i - x^w, and the other n - k lead x_i^p - 1
    rc, out, _ = run_cli(capsys, "rgb", str(path), "--no-cache", "--order", "lex", "--format", "json")
    assert rc == 0 and json.loads(out)["count"] == n


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
    # a compact, key-sorted JSON header line, then the json output
    head, _, body = before.partition(b"\n")
    assert head == compact_json(json.loads(head)).encode("utf-8")
    assert sorted(json.loads(head)) == ["key", "schema", "sha256"]
    _, uncached, _ = run_cli(capsys, "graver", f3_path, "--no-cache", "--format", "json")
    assert body == uncached.encode("utf-8")
    # and json output of a generalized job with a basis, cold and cached
    f4 = tmp_path / "f4.txt"
    f4.write_text(F4_DOC)
    argv = ["graver", str(f4), "--kind", "generalized", "--format", "json", "--cache-dir", str(cache)]
    rc1, first, _ = run_cli(capsys, *argv)
    rc2, second, err = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0 and second == first and err == ""
    assert first == indented_json(json.loads(first))


def test_cache_key_ignores_format(capsys, f3_path, tmp_path):
    # the key is presentation-free: text and json share one entry, which
    # stores the json text
    cache = tmp_path / "cache"
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    rc, out, _ = run_cli(
        capsys, "graver", f3_path, "--cache-dir", str(cache), "--format", "json"
    )
    assert rc == 0 and json.loads(out)["count"] == 13
    assert len(list(cache.glob("*.json"))) == 1


def sha256_hex(text) -> str:
    return hashlib.sha256(text.encode("utf-8") if isinstance(text, str) else text).hexdigest()


def compact_json(x) -> str:
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def read_entry(path):
    """The header of the cache entry file `path`, parsed, and its body, the
    stored `--format json` text."""
    head, sep, body = path.read_bytes().partition(b"\n")
    assert sep == b"\n"
    return json.loads(head), body.decode("utf-8")


def write_entry(path, header, body):
    """Write a cache entry laid out as the program lays it out: the header
    as one compact JSON line, then `body` (text, or bytes as they are)."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    path.write_bytes(compact_json(header).encode("utf-8") + b"\n" + body)


@pytest.mark.parametrize(
    "doc,command,kind",
    [
        (doc, command, kind)
        for doc in ("f3", "f4-basis")
        for command in ("matrix", "toric", "rgb", "graver", "ugb", "verify")
        for kind in ("ordinary", "generalized")
        # the oracle of a generalized F4 verify takes seconds
        if (doc, command, kind) != ("f4-basis", "verify", "generalized")
    ],
)
def test_cache_entry_stores_the_json_output(capsys, tmp_path, doc, command, kind):
    path = tmp_path / "doc.txt"
    path.write_text(DOCS[doc])
    job = [command, str(path), "--kind", kind]
    uncached = {fmt: run_cli(capsys, *job, "--no-cache", "--format", fmt) for fmt in ("text", "json")}
    assert uncached["json"][0] == 0 and uncached["json"][2] == ""
    for first, then in (("text", "json"), ("json", "text")):
        cache = tmp_path / f"cache-{first}"
        argv = [*job, "--cache-dir", str(cache), "--format"]
        assert run_cli(capsys, *argv, first) == uncached[first]
        entry = next(cache.glob("*.json"))
        written = entry.read_bytes()
        header, body = read_entry(entry)
        assert body == uncached["json"][1]
        # the body is the json output's bytes, under their digest
        assert written.partition(b"\n")[2] == uncached["json"][1].encode("utf-8")
        assert header["sha256"] == sha256_hex(uncached["json"][1])
        assert run_cli(capsys, *argv, then) == uncached[then]
        # entries in the layouts of schemas 2 and 3, one JSON document that
        # holds the result's compact or indented JSON text under its digest,
        # are a silent miss and are overwritten
        for schema, text in ((2, json.dumps(json.loads(body), sort_keys=True)), (3, body)):
            old = {**header, "schema": schema, "result": text, "sha256": sha256_hex(text)}
            entry.write_text(json.dumps(old, sort_keys=True))
            assert run_cli(capsys, *argv, then) == uncached[then]
            assert entry.read_bytes() == written


def test_json_hit_is_the_stored_text_and_renders_nothing(capsys, f3_path, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    argv = ["graver", f3_path, "--cache-dir", str(cache), "--format", "json"]
    cold = run_cli(capsys, *argv)

    def refuse(*args):
        raise AssertionError("rendered")

    monkeypatch.setattr("codegb.cli._json", refuse)
    monkeypatch.setattr("codegb.cli.render", refuse)
    assert run_cli(capsys, *argv) == cold
    # a job without a cache that prints text renders no json
    rc, out, err = run_cli(capsys, "graver", f3_path, "--no-cache")
    assert (rc, err) == (0, "") and out.splitlines() == F3_GRAVER_LINES
    # the digest guards the stored text, which is served as written
    entry = next(cache.glob("*.json"))
    header, stored = read_entry(entry)
    body = json.dumps(json.loads(stored)) + "\n"
    write_entry(entry, {**header, "sha256": sha256_hex(body)}, body)
    assert run_cli(capsys, *argv) == (0, body, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda result: {k: v for k, v in result.items() if k != "agree"},
        lambda result: {**result, "agree": 1},
        lambda result: {**result, "agree": "true"},
        lambda result: {**result, "agree": None},
    ],
    ids=["missing", "int", "string", "null"],
)
def test_cached_verify_without_a_bool_agree_is_recomputed(capsys, f3_path, tmp_path, corrupt, fmt):
    # main reads the verdict, so a digest-matching entry without it is corrupt
    cache = tmp_path / "cache"
    argv = ["verify", f3_path, "--cache-dir", str(cache), "--format", fmt]
    first = run_cli(capsys, *argv)
    entry = next(cache.glob("*.json"))
    header, stored = read_entry(entry)
    body = indented_json(corrupt(json.loads(stored)))
    write_entry(entry, {**header, "sha256": sha256_hex(body)}, body)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (0, first[1])
    assert "corrupt cache" in err and "verify result has no bool agree" in err
    assert run_cli(capsys, *argv) == first


def test_cache_key_separates_commands_and_orders(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    run_cli(capsys, "ugb", f3_path, "--cache-dir", str(cache))
    run_cli(capsys, "rgb", f3_path, "--cache-dir", str(cache))
    run_cli(capsys, "rgb", f3_path, "--cache-dir", str(cache), "--order", "lex")
    assert len(list(cache.glob("*.json"))) == 4


@pytest.mark.parametrize("command", ["matrix", "toric", "graver", "ugb", "verify"])
def test_order_is_an_rgb_option_only(capsys, f3_path, tmp_path, command):
    # no other result depends on an order, so none is keyed or computed twice by it
    with pytest.raises(SystemExit) as ei:
        main([command, f3_path, "--no-cache", "--order", "lex"])
    assert ei.value.code == 2 and "--order" in capsys.readouterr().err
    rc, out, _ = run_cli(capsys, command, f3_path, "--no-cache", "--format", "json")
    assert rc == 0 and "order" not in json.loads(out)


def corrupt_result(entry, corrupt):
    """Rewrite the result text stored in the cache entry file `entry` as
    corrupt(result), leaving the schema, key and digest as written."""
    header, body = read_entry(entry)
    write_entry(entry, header, json.dumps(corrupt(json.loads(body)), sort_keys=True))


def test_corrupt_cache_is_reported_and_recomputed(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    entry.write_text("{not json")
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first
    assert "corrupt cache" in err
    # the entry was rewritten and is trusted again
    read_entry(entry)
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first and err == ""


@pytest.mark.parametrize("part", ["entry", "header", "result", "nested-entry"])
def test_cache_entry_that_is_not_an_object_is_recomputed(capsys, f3_path, tmp_path, part):
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    if part == "entry":
        entry.write_text("[]")  # valid JSON, but no payload
        why = "not a JSON object"
    elif part == "header":
        # a header line that is a JSON array, before the body as written
        entry.write_bytes(b"[]\n" + entry.read_bytes().partition(b"\n")[2])
        why = "not a JSON object"
    elif part == "nested-entry":
        entry.write_text("[" * 100_000 + "]" * 100_000)  # valid JSON, too deep to decode
        why = "recursion depth"
    else:
        corrupt_result(entry, lambda result: [])  # schema and key match, the result is no object
        why = "does not match its sha256"
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first
    assert "corrupt cache" in err and why in err
    assert isinstance(json.loads(read_entry(entry)[1]), dict)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda result: {},
        lambda result: {"command": "graver"},
        lambda result: {**result, "elements": [[1]]},
        lambda result: {**result, "elements": [[["a"] * 3, [0] * 3]] + result["elements"][1:]},
    ],
    ids=["empty", "command-only", "element-not-a-pair", "exponent-not-a-number"],
)
def test_cache_result_that_is_no_payload_is_recomputed(capsys, f3_path, tmp_path, corrupt):
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    written = read_entry(entry)[1]
    corrupt_result(entry, corrupt)  # schema, key and digest as written
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out == first
    assert "corrupt cache" in err and "does not match its sha256" in err
    assert read_entry(entry)[1] == written


def first_side_cut_short(result):
    first, *rest = result["elements"]
    return {**result, "elements": [[first[0][:-1], first[1]], *rest]}


def first_exponent(value):
    """The result with the first exponent of its first element set to value."""
    def corrupt(result):
        (lhs, rhs), *rest = result["elements"]
        return {**result, "elements": [[[value, *lhs[1:]], rhs], *rest]}
    return corrupt


def first_base_entry(value):
    def corrupt(result):
        first, *rest = result["matrices"]["base"]
        return {**result, "matrices": {**result["matrices"], "base": [[value, *first[1:]], *rest]}}
    return corrupt


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "command,corrupt",
    [
        ("graver", lambda result: {**result, "elements": [[1]]}),
        ("graver", lambda result: {**result, "elements": result["elements"][1:]}),
        ("graver", lambda result: {**result, "count": 12}),
        ("graver", first_side_cut_short),
        ("ugb", lambda result: {**result, "elements": None}),
        ("verify", lambda result: {**result, "only_oracle": [[[1, 0, 0]]]}),
        ("verify", lambda result: {**result, "only_pipeline": {}}),
        ("graver", first_exponent("a")),
        ("graver", first_exponent(-7)),
        ("graver", first_exponent(True)),
        ("graver", first_exponent(1.5)),
        ("matrix", lambda result: {**result, "matrices": {**result["matrices"], "base": "x"}}),
        ("matrix", first_base_entry("1")),
        # in shape: the same exponent raised from 1 to 2, and a flipped verdict
        ("graver", first_exponent(2)),
        ("verify", lambda result: {**result, "agree": False}),
    ],
    ids=["not-a-pair", "element-dropped", "count-off", "short-side", "ugb-elements", "verify-pair",
         "verify-list", "exponent-a", "exponent-negative", "exponent-true", "exponent-float",
         "matrix-not-rows", "matrix-entry-not-an-int", "exponent-raised", "verify-disagrees"],
)
def test_cache_result_of_the_wrong_shape_is_recomputed(
    capsys, f3_path, tmp_path, command, corrupt, fmt
):
    # JSON renders any body, and a changed exponent renders in either
    # format, so the read path checks the stored text against its digest
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, command, f3_path, "--cache-dir", str(cache), "--format", fmt)
    entry = next(cache.glob("*.json"))
    corrupt_result(entry, corrupt)  # schema, key and digest as written
    rc, out, err = run_cli(capsys, command, f3_path, "--cache-dir", str(cache), "--format", fmt)
    assert rc == 0 and out == first
    assert "corrupt cache" in err and "does not match its sha256" in err


def test_cache_entry_that_cannot_be_read_is_not_called_corrupt(capsys, f3_path, tmp_path):
    # a cache directory that is a regular file holds no entry to open
    cache = tmp_path / "cache"
    cache.write_text("")
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out.splitlines() == F3_GRAVER_LINES
    assert "could not read cache entry" in err and "corrupt" not in err
    # an entry path that is a directory
    cache = tmp_path / "cache-2"
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    entry.unlink()
    entry.mkdir()
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and out.splitlines() == F3_GRAVER_LINES
    assert "could not read cache entry" in err and "corrupt" not in err


def test_cache_entry_that_vanishes_is_a_silent_miss(capsys, f3_path, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert (rc, err) == (0, "") and out.splitlines() == F3_GRAVER_LINES
    entry = next(cache.glob("*.json"))

    def open_after_removal(path, *args, **kwargs):
        # the entry is removed between the lookup and the read
        if path == str(entry):
            raise FileNotFoundError(2, "No such file or directory", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr("codegb.cli.open", open_after_removal, raising=False)
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert (rc, err) == (0, "") and out.splitlines() == F3_GRAVER_LINES


def test_mismatched_cache_key_is_rejected(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    header, body = read_entry(entry)
    header["key"]["order"] = "lex"
    write_entry(entry, header, body)
    rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    assert rc == 0 and "corrupt cache" in err
    assert out.splitlines() == F3_GRAVER_LINES


@pytest.mark.parametrize("command", ["verify", "graver"])
def test_cache_result_that_is_no_object_under_its_digest_is_recomputed(
    capsys, f3_path, tmp_path, command
):
    # valid JSON whose digest matches, but no payload: verify read
    # result["agree"] from it, and graver rendered it as []
    cache = tmp_path / "cache"
    argv = [command, f3_path, "--cache-dir", str(cache), "--format", "json"]
    _, first, _ = run_cli(capsys, *argv)
    entry = next(cache.glob("*.json"))
    header, _ = read_entry(entry)
    write_entry(entry, {**header, "sha256": sha256_hex("[]")}, "[]")
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and out == first
    assert "corrupt cache" in err and "result is not a JSON object" in err
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (0, first, "")


def test_cache_entry_of_an_earlier_schema_is_a_silent_miss(capsys, f3_path, tmp_path):
    cache = tmp_path / "cache"
    _, first, _ = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
    entry = next(cache.glob("*.json"))
    written = entry.read_bytes()
    header, body = read_entry(entry)
    olds = [
        # as schema 1 wrote it: the result object itself, no digest
        {"schema": 1, "key": header["key"], "result": json.loads(body)},
        # as schema 3 wrote it: one JSON line holding the json output under its digest
        {"schema": 3, "key": header["key"], "result": body, "sha256": sha256_hex(body)},
    ]
    for old in olds:
        entry.write_text(json.dumps(old, sort_keys=True))
        assert len(entry.read_text().splitlines()) == 1
        rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
        assert (rc, out, err) == (0, first, "")
        assert entry.read_bytes() == written  # overwritten as a missing entry is
    # a later or malformed schema is no earlier one, and is reported
    for schema in (CACHE_SCHEMA + 1, "1", None):
        write_entry(entry, {**header, "schema": schema}, body)
        rc, out, err = run_cli(capsys, "graver", f3_path, "--cache-dir", str(cache))
        assert rc == 0 and out == first
        assert "corrupt cache" in err and "schema or key mismatch" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("digest", ["as-written", "of-nothing"])
def test_cache_header_without_a_newline_is_corrupt(capsys, f3_path, tmp_path, digest, fmt):
    # the header line alone, with the body's digest or that of an empty body
    cache = tmp_path / "cache"
    argv = ["graver", f3_path, "--cache-dir", str(cache), "--format", fmt]
    first = run_cli(capsys, *argv)
    entry = next(cache.glob("*.json"))
    header, _ = read_entry(entry)
    if digest == "of-nothing":
        header["sha256"] = sha256_hex(b"")
    entry.write_text(compact_json(header))
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (0, first[1])
    assert "corrupt cache" in err and "does not match its sha256" in err
    assert run_cli(capsys, *argv) == first


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cache_body_that_is_not_utf8_under_its_digest_is_corrupt(capsys, f3_path, tmp_path, fmt):
    cache = tmp_path / "cache"
    argv = ["graver", f3_path, "--cache-dir", str(cache), "--format", fmt]
    first = run_cli(capsys, *argv)
    entry = next(cache.glob("*.json"))
    header, body = read_entry(entry)
    bad = body.encode("utf-8").replace(b'"graver"', b'"grav\xffer"')
    write_entry(entry, {**header, "sha256": sha256_hex(bad)}, bad)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (0, first[1])
    assert "corrupt cache" in err and "utf-8" in err and "0xff" in err
    assert read_entry(entry)[1] == body
    assert run_cli(capsys, *argv) == first


def test_json_hit_parses_the_header_and_the_body_once_each(capsys, f3_path, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    argv = ["graver", f3_path, "--cache-dir", str(cache), "--format", "json"]
    cold = run_cli(capsys, *argv)
    head, _, body = next(cache.glob("*.json")).read_bytes().partition(b"\n")
    calls = []
    loads = json.loads

    def counted(s, *args, **kwargs):
        calls.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    assert run_cli(capsys, *argv) == cold
    assert calls == [head, body.decode("utf-8")]


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
