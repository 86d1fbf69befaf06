"""Graver bases by completion, cross-checked by the Lawrence route and by brute force."""

import itertools
import os
import random
import subprocess
import sys
import time

import pytest

import codegb
from codegb.binomials import GENERALIZED, ORDINARY, Binomial, slot_elements, word_of_binomial
from codegb.cli import parse_input
from codegb.codes import LinearCode, rank
from codegb.fields import DependentBasisError, FiniteField, NonPrimitiveModulusError
from codegb.graver import (
    GraverBasis,
    SearchSpaceTooLargeError,
    graver_bruteforce,
    graver_generalized,
    graver_lawrence,
    graver_ordinary,
)


def pairs(basis):
    return {(b.lhs, b.rhs) for b in basis.elements}


def test_f3_ternary_code_has_the_thirteen_known_elements(code_f3):
    g = graver_ordinary(code_f3)
    assert pairs(g) == {
        ((0, 0, 3), (0, 0, 0)),
        ((0, 3, 0), (0, 0, 0)),
        ((3, 0, 0), (0, 0, 0)),
        ((0, 1, 1), (0, 0, 0)),
        ((1, 1, 0), (0, 0, 0)),
        ((1, 0, 2), (0, 0, 0)),
        ((2, 0, 1), (0, 0, 0)),
        ((1, 0, 0), (0, 0, 1)),
        ((2, 0, 0), (0, 1, 0)),
        ((0, 2, 0), (1, 0, 0)),
        ((0, 2, 0), (0, 0, 1)),
        ((0, 0, 2), (0, 1, 0)),
        ((1, 0, 1), (0, 1, 0)),
    }


def test_binary_repetition_code():
    ff = FiniteField(2, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.one(), ff.one()]])
    g = graver_ordinary(code)
    assert pairs(g) == {
        ((1, 0), (0, 1)),
        ((1, 1), (0, 0)),
        ((2, 0), (0, 0)),
        ((0, 2), (0, 0)),
    }


@pytest.mark.parametrize("p,expected", [(2, ((2,), (0,))), (3, ((3,), (0,)))])
def test_zero_code_single_position(p, expected):
    ff = FiniteField(p, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.one()]])
    g = graver_ordinary(code)
    assert pairs(g) == {expected}


def test_full_code_has_no_parity_rows():
    # k = n leaves an empty parity matrix; the lift must still make sense
    ff = FiniteField(2, 1, (0, 1))
    code = LinearCode.from_generator(ff, [[ff.one()]])
    assert code.m == 0
    g = graver_ordinary(code)
    assert pairs(g) == {((1,), (0,))}
    assert g == graver_bruteforce(code, ORDINARY)


@pytest.mark.parametrize("kind", [ORDINARY, GENERALIZED])
def test_f3_pipeline_agrees_with_bruteforce(code_f3, kind):
    run = graver_ordinary if kind == ORDINARY else graver_generalized
    assert run(code_f3) == graver_bruteforce(code_f3, kind)


def test_repetition_code_generalized_agrees_with_bruteforce():
    ff = FiniteField(2, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.one(), ff.one()]])
    assert graver_generalized(code) == graver_bruteforce(code, GENERALIZED)


def test_elements_are_pure_and_come_from_codewords(code_f4):
    g = graver_generalized(code_f4)
    assert len(g) == 135
    for b in g:
        assert b.is_pure
        word = word_of_binomial(code_f4, b, GENERALIZED)
        assert word is not None and code_f4.contains(word)


def test_order_choice_does_not_change_the_result(code_f3):
    from codegb.orders import lex

    # the Graver set is order-free even though the Lawrence route runs Buchberger
    assert graver_lawrence(code_f3, ORDINARY) == graver_lawrence(code_f3, ORDINARY, lex(6))


def test_bruteforce_refuses_oversized_sweeps():
    ff = FiniteField(2, 1, (0, 1))
    one = ff.one()
    code = LinearCode.from_parity(ff, [[one] * 12])
    with pytest.raises(SearchSpaceTooLargeError):
        graver_bruteforce(code, ORDINARY)


@pytest.mark.parametrize(
    "call",
    [
        lambda code, kind: word_of_binomial(code, Binomial((1, 0, 0), (0, 0, 1)), kind),
        graver_bruteforce,
        graver_lawrence,
    ],
    ids=["word_of_binomial", "graver_bruteforce", "graver_lawrence"],
)
def test_an_unknown_kind_is_named(code_f3, call):
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        call(code_f3, "bogus")


def test_basis_equality_is_kind_aware(code_f3):
    a = graver_ordinary(code_f3)
    b = graver_bruteforce(code_f3, ORDINARY)
    assert a == b and len(a) == 13
    assert a != GraverBasis(b.elements, GENERALIZED, code_f3)
    assert "13 elements" in repr(a)


def code_of(text):
    return parse_input(text).build_code()


def run(code, kind):
    return graver_ordinary(code) if kind == ORDINARY else graver_generalized(code)


# graver-ladder documents of the benchmark, as written there; the third,
# f4-gen, is code_f4 of the generalized kind
LADDER = {
    "f3-n6": ("field p=3 r=1 modulus=0,1\nparity 1 1 1 0 0 0\nparity 0 0 1 1 2 1\n", ORDINARY),
    "ham7": (
        "field p=2 r=1 modulus=0,1\n"
        "parity 1 0 0 1 1 0 1\nparity 0 1 0 1 0 1 1\nparity 0 0 1 0 1 1 1\n",
        ORDINARY,
    ),
}


# code_f9 of the generalized kind (24 variables) finishes on neither route in minutes
@pytest.mark.parametrize(
    "name,kind",
    [
        ("code_f3", ORDINARY),
        ("code_f3", GENERALIZED),
        ("code_f4", ORDINARY),
        ("code_f4", GENERALIZED),
        ("code_f9", ORDINARY),
    ],
)
def test_completion_agrees_with_the_lawrence_route(request, name, kind):
    code = request.getfixturevalue(name)
    assert run(code, kind) == graver_lawrence(code, kind)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_completion_agrees_with_the_lawrence_route_on_the_ladder(name):
    text, kind = LADDER[name]
    code = code_of(text)
    assert run(code, kind) == graver_lawrence(code, kind)


# GF(2), GF(3), GF(4), GF(5), GF(7), GF(8) and GF(9) as (p, r)
CROSS_CHECK_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
SWEEP_CAP = 2 * 10 ** 4  # the oracle takes up to about 0.3 s per code under it


def primitive_moduli(p, r):
    """Every monic modulus of degree r over F_p that makes alpha primitive."""
    out = []
    for low in itertools.product(range(p), repeat=r):
        try:
            FiniteField(p, r, low + (1,))
        except NonPrimitiveModulusError:
            continue
        out.append(low + (1,))
    return out


def positions_under_cap(p, width):
    """The most positions n for which (2p+1)^(n*width) stays within the cap."""
    n = 0
    while (2 * p + 1) ** ((n + 1) * width) <= SWEEP_CAP:
        n += 1
    return n


def random_code(rng, moduli):
    """(kind, code) for a random full-rank parity matrix over one of the
    fields, under a random primitive modulus and half the time a random
    basis, or None when the draw gives no code under the cap."""
    p, r = rng.choice(CROSS_CHECK_FIELDS)
    ff = FiniteField(p, r, rng.choice(moduli[p, r]))
    if rng.random() < 0.5:
        try:
            ff = ff.with_basis([ff.from_power(rng.randrange(1, ff.q)) for _ in range(r)])
        except DependentBasisError:
            return None
    kind = rng.choice([ORDINARY, GENERALIZED])
    most = positions_under_cap(p, len(slot_elements(ff, kind)))
    if not most:
        return None
    n = rng.randint(1, most)
    m = rng.randint(1, n)
    rows = [[rng.choice(ff.elements()) for _ in range(n)] for _ in range(m)]
    if rank(ff, rows) < m:
        return None
    return kind, LinearCode.from_parity(ff, rows)


def test_completion_equals_bruteforce_on_random_codes():
    # 200 seeded codes; about 4 s on a 2-core x86 VM (budget: 15 s)
    moduli = {f: primitive_moduli(*f) for f in CROSS_CHECK_FIELDS}
    rng = random.Random(7)
    seen, rebased = set(), set()
    t0 = time.monotonic()
    checked = 0
    while checked < 200:
        drawn = random_code(rng, moduli)
        if drawn is None:
            continue
        kind, code = drawn
        ff = code.ff
        assert run(code, kind) == graver_bruteforce(code, kind), (kind, ff.modulus, ff.basis, code.H)
        checked += 1
        seen.add((ff.q, kind))
        if ff.basis != FiniteField(ff.p, ff.r, ff.modulus).basis:
            rebased.add(ff.q)
    assert time.monotonic() - t0 < 15.0
    # every slot list is run, and every basis but GF(2)'s only one is varied;
    # the generalized ideals of GF(7), GF(8) and GF(9) have no code under the
    # cap (their smallest sweeps are 15^6, 5^7 and 7^8)
    fields = {p ** r for p, r in CROSS_CHECK_FIELDS}
    assert {(q, kind) for q in fields for kind in (ORDINARY, GENERALIZED)} - seen == {
        (7, GENERALIZED), (8, GENERALIZED), (9, GENERALIZED)
    }
    assert rebased == fields - {2}


def timed(code, kind):
    t0 = time.monotonic()
    g = run(code, kind)
    return g, time.monotonic() - t0


def permuted_back(g, src):
    """The elements of g with column i of its code moved to column src[i]."""

    def back(u):
        w = len(u) // len(src)
        out = [0] * len(u)
        for i, j in enumerate(src):
            out[j * w:(j + 1) * w] = u[i * w:(i + 1) * w]
        return tuple(out)

    return {Binomial(back(b.lhs), back(b.rhs)).canonical() for b in g.elements}


def test_permuted_hamming_code_is_the_permuted_basis():
    # took 44.5 s on the Lawrence route against 2.6 s as written
    written = code_of(LADDER["ham7"][0])
    permuted = code_of(
        "field p=2 r=1 modulus=0,1\n"
        "parity 1 1 1 0 0 1 0\nparity 0 1 1 1 1 0 0\nparity 1 0 1 1 0 0 1\n"
    )
    g, elapsed = timed(permuted, ORDINARY)
    assert elapsed < 2.0
    # Hamming columns are distinct, so matching them recovers the permutation
    cols = [tuple(row[j] for row in written.H) for j in range(7)]
    src = [cols.index(tuple(row[j] for row in permuted.H)) for j in range(7)]
    assert permuted_back(g, src) == {b.canonical() for b in graver_ordinary(written).elements}


@pytest.mark.parametrize("row", ["16 15 23", "22 17 28"])
def test_scaled_rows_give_the_same_basis(row):
    # the p29n3 row 1 7 12 scaled by 23 (by 28), positions rotated: 6.3 s
    # (7.8 s) on the Lawrence route against 0.2 s for other factors
    written = graver_ordinary(code_of("field p=29 r=1 modulus=0,1\nparity 1 7 12\n"))
    g, elapsed = timed(code_of(f"field p=29 r=1 modulus=0,1\nparity {row}\n"), ORDINARY)
    assert elapsed < 2.0
    assert len(g) == 54
    assert permuted_back(g, (1, 2, 0)) == {b.canonical() for b in written.elements}


def test_generalized_quaternary_code_of_length_four():
    # 43 s on the Lawrence route; the target is 10 s
    code = code_of("field p=2 r=2 modulus=1,1,1\nparity 1 a a^2 1\n")
    g, elapsed = timed(code, GENERALIZED)
    assert len(g) == 304 and elapsed < 10.0
    assert all(word_of_binomial(code, b, GENERALIZED) is not None for b in g)


def test_invariant_checks_still_fire_under_python_O():
    script = "\n".join([
        "import codegb.graver as graver",
        "from codegb import FiniteField, InvariantError, LinearCode",
        "assert False, 'python -O strips this'",
        "graver.word_of_binomial = lambda code, b, kind: None  # no element is a codeword",
        "ff = FiniteField(3, 1, (0, 1))",
        "code = LinearCode.from_parity(ff, [[ff.from_int(1), ff.from_int(2), ff.from_int(1)]])",
        "try:",
        "    graver.graver_ordinary(code)",
        "except InvariantError as e:",
        "    print(e.stage)",
        "    print(e)",
    ])
    src = os.path.dirname(os.path.dirname(codegb.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    stage, message = out.stdout.splitlines()
    assert stage == "graver completion (ordinary)"
    assert message.startswith(stage + ": element encodes no codeword: Binomial(")


def test_completion_widens_its_fields_past_the_generators_entries():
    # ker (8 4 2 1) is spanned by vectors with entries up to 2, yet holds the
    # primitive (1, 0, 0, -8).  Whatever is conformal to a vector of a box lies
    # in the box, so the ⊑-minimal kernel vectors of [-8, 8]^4 are exactly the
    # primitive vectors inside it
    from codegb.graver import _primitive_vectors

    got = {max(v, tuple(-e for e in v)) for v in _primitive_vectors(
        [(1, -2, 0, 0), (0, 1, -2, 0), (0, 0, 1, -2)], 4)}
    box = range(-8, 9)
    kernel = [
        (a, b, c, -(8 * a + 4 * b + 2 * c)) for a in box for b in box for c in box
        if any((a, b, c)) and abs(8 * a + 4 * b + 2 * c) <= 8
    ]

    def conforms(u, v):
        return all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(u, v))

    primitive = {max(v, tuple(-e for e in v)) for v in kernel
                 if not any(u != v and conforms(u, v) for u in kernel)}
    assert (1, 0, 0, -8) in got
    assert got == primitive
