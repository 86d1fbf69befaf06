"""GF(p^r) arithmetic, projections and the crossing maps."""

import time

import pytest

from codegb.binomials import GENERALIZED, slot_elements
from codegb.fields import (
    FIELD_LIMIT,
    DependentBasisError,
    FieldTooLargeError,
    FiniteField,
    NonPrimeError,
    NonPrimitiveModulusError,
)


def test_log_table_is_a_bijection(ff9):
    powers = [ff9.from_power(k) for k in range(1, ff9.q)]
    assert len(set(powers)) == ff9.q - 1
    assert ff9.from_power(ff9.q - 1) == ff9.one()
    for k, el in enumerate(powers, start=1):
        assert el == ff9.alpha() ** k


def test_from_int_builds_the_prime_subfield(ff3):
    assert ff3.from_int(0) == ff3.zero()
    assert ff3.from_int(1) == ff3.one()
    assert ff3.from_int(2) + ff3.from_int(1) == ff3.zero()
    assert ff3.from_int(-1) == ff3.from_int(2)


@pytest.mark.parametrize(
    "p,r,modulus",
    [(2, 1, (0, 1)), (3, 1, (0, 1)), (2, 2, (1, 1, 1)), (3, 2, (2, 1, 1)), (29, 1, (0, 1)), (1009, 1, (0, 1))],
    ids=["GF2", "GF3", "GF4", "GF9", "GF29", "GF1009"],
)
def test_from_int_is_m_times_one(p, r, modulus):
    ff = FiniteField(p, r, modulus)
    for m in range(-2 * p, 2 * p + 1):
        # the polynomial coordinates (m mod p, 0, ..., 0)
        expected = ff.from_poly_coords(tuple((m % p) if i == 0 else 0 for i in range(r)))
        assert ff.from_int(m) == expected and ff.from_int(m).k == expected.k


# Table of pi_1 and pi_2 over GF(9) with basis {1, a}, indexed by a^1 .. a^8.
GF9_PI = [
    (1, (0, 1)),
    (2, (1, 2)),
    (3, (2, 2)),
    (4, (2, 0)),
    (5, (0, 2)),
    (6, (2, 1)),
    (7, (1, 1)),
    (8, (1, 0)),
]


@pytest.mark.parametrize("k,expected", GF9_PI)
def test_gf9_projection_table(ff9, k, expected):
    el = ff9.from_power(k)
    assert ff9.coords(el) == expected


def test_coords_are_linear(ff9):
    for a in ff9.elements():
        for b in ff9.elements():
            ca, cb, cs = ff9.coords(a), ff9.coords(b), ff9.coords(a + b)
            assert all((x + y) % ff9.p == z for x, y, z in zip(ca, cb, cs))


def test_coords_respect_a_nonstandard_basis(ff4):
    # basis {a, 1}: a has coordinates (1, 0) and 1 has (0, 1)
    assert ff4.coords(ff4.alpha()) == (1, 0)
    assert ff4.coords(ff4.one()) == (0, 1)
    a2 = ff4.alpha() * ff4.alpha()  # a^2 = a + 1
    assert ff4.coords(a2) == (1, 1)


def test_cross_up_gf4(ff4):
    word = (ff4.alpha(), ff4.one())
    assert ff4.cross_up(word) == (1, 0, 0, 0, 0, 1)


def test_combining_over_the_powers_left_inverts_cross_up(ff9):
    # word_of_binomial reads a generalized exponent vector this way
    powers = slot_elements(ff9, GENERALIZED)
    words = [
        (ff9.zero(), ff9.one()),
        (ff9.from_power(5), ff9.from_power(2)),
        (ff9.alpha(), ff9.zero()),
    ]
    for w in words:
        assert ff9.combine(ff9.cross_up(w), powers) == w


def test_pow_and_inverse(ff4):
    a = ff4.alpha()
    assert a ** 3 == ff4.one()
    assert a * a.inverse() == ff4.one()
    with pytest.raises(ZeroDivisionError):
        ff4.zero().inverse()


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeError):
        FiniteField(4, 1, (0, 1))


@pytest.mark.parametrize(
    "p,r",
    [
        (10 ** 18 + 3, 1),  # prime: trial division alone would take hours
        (2, 24),
        (1031, 2),  # 1031^2 = 1062961, just past 2^20
        (1048583, 1),  # the least prime past 2^20
        (10 ** 18, 1),  # too large is found before not prime
    ],
)
def test_field_past_the_limit_is_refused_at_once(p, r):
    t0 = time.monotonic()
    with pytest.raises(FieldTooLargeError) as ei:
        FiniteField(p, r, (1,) + (0,) * (r - 1) + (1,))
    assert time.monotonic() - t0 < 1.0
    assert f"{p}^{r}" in str(ei.value) and str(FIELD_LIMIT) in str(ei.value)
    assert isinstance(ei.value, ValueError)


def test_field_limit_leaves_the_other_checks_in_place():
    # the modulus length is checked first, and p is still checked for primality
    with pytest.raises(NonPrimitiveModulusError):
        FiniteField(10 ** 18 + 3, 2, (0, 1))
    with pytest.raises(NonPrimeError):
        FiniteField(1000, 2, (1, 0, 1))
    assert FiniteField(1009, 1, (0, 1)).q == 1009


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2)
    with pytest.raises(NonPrimitiveModulusError):
        FiniteField(2, 2, (1, 0, 1))


def test_nonprimitive_modulus_rejected():
    # x^2 + 1 is irreducible over GF(3) but its root has order 4, not 8
    with pytest.raises(NonPrimitiveModulusError):
        FiniteField(3, 2, (1, 0, 1))


def test_dependent_basis_rejected(ff4):
    with pytest.raises(DependentBasisError):
        ff4.with_basis([ff4.one(), ff4.one()])


def test_r1_trivial_modulus_picks_a_primitive_root():
    ff = FiniteField(5, 1, (0, 1))
    assert ff.alpha() == ff.from_int(2)
    seen = {ff.from_power(k) for k in range(1, 5)}
    assert len(seen) == 4
