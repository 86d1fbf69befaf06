import random
from fractions import Fraction
from math import gcd

import pytest

from codegb.binomials import InvariantError
from codegb.lp import feasible_point


def check(rows, dim):
    x = feasible_point(rows, dim)
    if x is not None:
        assert type(x) is tuple and len(x) == dim
        assert all(type(v) is int and v >= 0 for v in x)
        assert gcd(*x) == (1 if rows else 0)
        for r in rows:
            assert sum(a * v for a, v in zip(r, x)) >= 1
    return x


def fourier_motzkin_feasible(rows, rhs, dim):
    """Independent oracle: eliminate the unknowns of {x >= 0 : Ax >= b} one
    by one; the system is feasible iff no row 0 >= c with c > 0 is left."""
    system = {}

    def add(coeffs, c):
        g = 0
        for a in coeffs:
            g = gcd(g, a)
        if g == 0:
            return c <= 0
        key = tuple(a // g for a in coeffs)
        c = Fraction(c) / g
        if key not in system or system[key] < c:  # keep the tightest rhs
            system[key] = c
        return True

    rows = list(rows) + [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    rhs = list(rhs) + [0] * dim
    if not all(add(r, c) for r, c in zip(rows, rhs)):
        return False
    for j in range(dim):
        pos = [(r, c) for r, c in system.items() if r[j] > 0]
        neg = [(r, c) for r, c in system.items() if r[j] < 0]
        rest = [(r, c) for r, c in system.items() if r[j] == 0]
        system = {}
        for r, c in rest:
            add(r, c)
        for rp, cp in pos:
            for rn, cn in neg:
                s, t = -rn[j], rp[j]
                combo = tuple(s * a + t * b for a, b in zip(rp, rn))
                if not add(combo, s * cp + t * cn):
                    return False
    return True


def test_empty_system_returns_origin():
    assert check([], 3) == (0, 0, 0)


def test_single_inequality():
    assert check([(1, -1)], 2) is not None


def test_opposed_strict_rows_are_infeasible():
    assert check([(1, -1), (-1, 1)], 2) is None


def test_mixed_system():
    rows = [(2, -1, 0), (-1, 2, 0), (0, 0, 1)]
    assert check(rows, 3) is not None


def test_infeasible_three_cycle():
    rows = [(1, -1, 0), (0, 1, -1), (-1, 0, 1)]
    assert check(rows, 3) is None


def test_result_is_exact():
    # the dual optimum is (1/3, 0), returned as its primitive integer multiple
    assert check([(3, -7)], 2) == (1, 0)


def test_seeded_sweep_agrees_with_fourier_motzkin():
    rng = random.Random(20141)
    decided = {True: 0, False: 0}
    for _ in range(2000):
        dim = rng.randint(1, 4)
        m = rng.randint(0, 9)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(m)]
        x = check(rows, dim)
        feasible = fourier_motzkin_feasible(rows, [1] * m, dim)
        assert (x is not None) == feasible, rows
        decided[feasible] += 1
    # both answers are exercised in earnest
    assert min(decided.values()) > 500


def test_large_coefficient_sweep_agrees_with_fourier_motzkin():
    # entries up to 10^4 in size make the tableau's minors outgrow 64 bits,
    # so the exact divisions of integer pivoting run on big ints; about 1 s
    # on a 2-core x86 VM, nearly all of it in the oracle.  At most 7 rows,
    # so that more than a third of the cones are open
    rng = random.Random(104)
    decided = {True: 0, False: 0}
    for _ in range(300):
        dim = rng.randint(1, 4)
        m = rng.randint(0, 7)
        rows = [tuple(rng.randint(-(10**4), 10**4) for _ in range(dim)) for _ in range(m)]
        x = check(rows, dim)
        feasible = fourier_motzkin_feasible(rows, [1] * m, dim)
        assert (x is not None) == feasible, rows
        decided[feasible] += 1
    assert min(decided.values()) > 100


def test_systems_built_around_a_farkas_vector_are_infeasible():
    # y = (1, 2, 1) gives A^T y = (0, 0, -1) <= 0 and 1^T y = 4 > 0
    rows = [(2, -1, 0), (-1, 1, -1), (0, -1, 1)]
    assert fourier_motzkin_feasible(rows, [1, 1, 1], 3) is False
    assert check(rows, 3) is None
    rng = random.Random(7)
    for _ in range(200):
        dim, m = rng.randint(1, 4), rng.randint(2, 9)
        y = [rng.randint(1, 3) for _ in range(m)]
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(m - 1)]
        # the last row drives every column of A^T y to zero or below, and
        # 1^T y > 0 since y > 0
        last = []
        for i in range(dim):
            col = sum(r[i] * w for r, w in zip(rows, y))
            last.append(-(col + rng.randint(0, 2) * y[-1]) // y[-1])
        rows.append(last)
        assert all(sum(r[i] * w for r, w in zip(rows, y)) <= 0 for i in range(dim))
        assert check(rows, dim) is None


def test_pivot_limit_is_a_typed_error(monkeypatch):
    monkeypatch.setattr("codegb.lp._MAX_PIVOTS", 0)
    with pytest.raises(InvariantError, match="lp: pivot limit"):
        feasible_point([(1, -1)], 2)


@pytest.mark.parametrize("g", [-1, 10**9], ids=["negated-point", "zeroed-point"])
def test_a_point_is_checked_against_every_row(monkeypatch, g):
    # a wrong divisor stands in for a solver fault: -1 leaves the orthant,
    # and a huge one floors the point to 0, which satisfies no row
    monkeypatch.setattr("codegb.lp.gcd", lambda *x: g)
    with pytest.raises(InvariantError, match="lp: point fails its exact check"):
        feasible_point([(1, -1), (0, 1)], 2)


def test_row_length_is_checked():
    with pytest.raises(ValueError):
        feasible_point([(1, 2, 3)], 2)


@pytest.mark.parametrize(
    "rows",
    [[(1, Fraction(2))], [(1, 0.5)], [(True, 1)]],
    ids=["fraction-row-entry", "float-row-entry", "bool-row-entry"],
)
def test_non_integral_entries_are_rejected(rows):
    # the solver takes ints only: no truncation, and no silent conversion
    with pytest.raises(ValueError, match="must be integers"):
        feasible_point(rows, 2)
