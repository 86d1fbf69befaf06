"""Linear codes: one elimination of the given rows builds both matrices."""

import random
from itertools import product

import pytest

from codegb import codes
from codegb.cli import main
from codegb.codes import LinearCode
from codegb.fields import FiniteField
from conftest import rank

FIELDS = {
    "GF2": (2, 1, (0, 1)),
    "GF3": (3, 1, (0, 1)),
    "GF4": (2, 2, (1, 1, 1)),
    "GF5": (5, 1, (0, 1)),
    "GF9": (3, 2, (2, 1, 1)),
}


def span_size(ff, rows):
    """The number of distinct combinations of `rows`, by enumeration: q^len(rows)
    exactly when the rows are independent.  No elimination is involved."""
    if not rows:
        return 1
    n = len(rows[0])
    words = set()
    for coeffs in product(ff.elements(), repeat=len(rows)):
        w = [ff.zero()] * n
        for c, row in zip(coeffs, rows):
            w = [a + c * b for a, b in zip(w, row)]
        words.add(tuple(w))
    return len(words)


def random_full_rank(ff, rng, m, n):
    while True:
        rows = [tuple(rng.choice(ff.elements()) for _ in range(n)) for _ in range(m)]
        if span_size(ff, rows) == ff.q**m:
            return rows


def same_row_space(ff, a, b):
    return rank(ff, a) == rank(ff, b) == rank(ff, list(a) + list(b))


@pytest.mark.parametrize("field", list(FIELDS))
def test_random_codes_have_full_rank_orthogonal_matrices(field):
    ff = FiniteField(*FIELDS[field])
    rng = random.Random(f"codes:{field}")
    for _ in range(12):
        n = rng.randint(1, 4 if ff.q == 9 else 5)
        given = rng.randint(1, n)
        rows = random_full_rank(ff, rng, given, n)
        for role in ("parity", "generator"):
            code = LinearCode(ff, rows, role)
            assert (code.H if role == "parity" else code.G) == tuple(rows)
            assert (code.m, code.k) == ((given, n - given) if role == "parity" else (n - given, given))
            assert len(code.H) == code.m and len(code.G) == code.k
            assert all(len(row) == n for row in code.H + code.G)
            for g in code.G:
                for h in code.H:
                    acc = ff.zero()
                    for x, y in zip(g, h):
                        acc = acc + x * y
                    assert not acc, (field, rows, role)
            assert rank(ff, code.G) == code.k and span_size(ff, code.G) == ff.q**code.k
            assert rank(ff, code.H) == code.m and span_size(ff, code.H) == ff.q**code.m
            if code.k:  # the round trip through the derived G gives back H's row space
                assert same_row_space(ff, LinearCode.from_generator(ff, code.G).H, code.H)


def test_each_construction_eliminates_once(monkeypatch, ff9):
    calls = []
    rref = codes._rref

    def counted(ff, rows):
        calls.append(len(rows))
        return rref(ff, rows)

    monkeypatch.setattr(codes, "_rref", counted)
    a, z = ff9.alpha(), ff9.zero()
    rows = [[a * a, a, z], [z, z, a**6]]
    LinearCode.from_parity(ff9, rows)
    assert calls == [2]
    LinearCode.from_generator(ff9, rows)
    assert calls == [2, 2]


@pytest.mark.parametrize("role", ["parity", "generator"])
def test_bad_rows_are_rejected_with_a_message(ff3, role):
    build = LinearCode.from_parity if role == "parity" else LinearCode.from_generator
    one, two, z = ff3.one(), ff3.from_int(2), ff3.zero()
    with pytest.raises(ValueError, match=f"^at least one {role} row required$"):
        build(ff3, [])
    # a short row first or last: no elimination runs on ragged rows
    for rows in ([(one, z, one), (one, z)], [(one, z), (one, z, one)]):
        with pytest.raises(ValueError, match=f"^{role} rows must have length n$"):
            build(ff3, rows)
    dependent = "parity rows are dependent; pass a full-rank matrix" if role == "parity" else "generator rows are dependent"
    for rows in ([(one, z, one), (two, z, two)], [(z, z)], [()]):
        with pytest.raises(ValueError, match=f"^{dependent}$"):
            build(ff3, rows)


def test_role_must_be_parity_or_generator(ff3):
    with pytest.raises(ValueError, match="role"):
        LinearCode(ff3, [(ff3.one(),)], "check")


DOCS = {
    "zero": "field p=3 r=1 modulus=0,1\nparity 1 0\nparity 0 1\n",
    # no parity rows at all: H is empty
    "full": "field p=3 r=1 modulus=0,1\ngenerator 1 0\ngenerator 0 1\n",
}
ZERO_MATRIX = ["He:", "1 0", "0 1", "", "H(q):", "1 0 3 0", "0 1 0 3", "", "Lawrence:",
               "1 0 0 0 3 0", "0 1 0 0 0 3", "1 0 1 0 0 0", "0 1 0 1 0 0"]
FULL_MATRIX = ["He:", "", "H(q):", "", "Lawrence:", "1 0 1 0", "0 1 0 1"]
EXPECTED = {
    ("zero", "matrix"): ZERO_MATRIX,
    ("zero", "toric"): ["x[2,1]^3 - y[2]", "x[1,1]^3 - y[1]"],
    ("full", "matrix"): FULL_MATRIX,
    ("full", "toric"): ["x[2,1] - 1", "x[1,1] - 1"],
}
for command in ("rgb", "graver", "ugb"):
    EXPECTED["zero", command] = ["x[2,1]^3 - 1", "x[1,1]^3 - 1"]
    EXPECTED["full", command] = ["x[2,1] - 1", "x[1,1] - 1"]
for code in DOCS:
    EXPECTED[code, "verify"] = ["agree: true", "count: 2"]


@pytest.mark.parametrize("code,command", sorted(EXPECTED))
def test_zero_and_full_codes_through_the_cli(capsys, tmp_path, code, command):
    path = tmp_path / "doc.txt"
    path.write_text(DOCS[code])
    rc = main([command, str(path), "--no-cache"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert out.splitlines() == EXPECTED[code, command]
