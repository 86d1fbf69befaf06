import random
from fractions import Fraction
from math import gcd

import pytest

from codegb import universal
from codegb.binomials import InvariantError
from codegb.cli import parse_input
from codegb.graver import graver_generalized, graver_ordinary
from codegb.lp import feasible_point


def dense_feasible_point(rows, dim):
    """Oracle: the dense-tableau form of `feasible_point`, which pivots on
    all d + 1 rows of the m + d + 2 columns of the D-scaled dual tableau.
    The revised solver keeps only its slack block, so the two must take the
    same pivots and return the same point or None."""
    m, n = len(rows), dim
    # row i < n: (A^T y)_i + s_i = 0; row n: 1^T y + s_n = 1; columns y, s, rhs
    T = [[r[i] for r in rows] + [0] * (n + 2) for i in range(n)]
    T.append([1] * m + [0] * (n + 1) + [1])
    for i in range(n + 1):
        T[i][m + i] = 1
    basis = list(range(m, m + n + 1))
    obj = [-1] * m + [0] * (n + 2)  # reduced costs; obj[-1] = 1^T y
    D = 1
    while True:
        enter = next((j for j in range(m + n + 1) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(n + 1):
            a = T[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # T[i][-1] / a against T[leave][-1] / T[leave][enter]
                c = T[i][-1] * T[leave][enter] - T[leave][-1] * a
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise InvariantError("lp", "dual objective unbounded despite 1^T y <= 1", enter)
        prow = T[leave]
        p = prow[enter]
        for i in range(n + 1):
            if i != leave:
                f = T[i][enter]
                if f:
                    T[i] = [(p * v - f * w) // D for v, w in zip(T[i], prow)]
                elif p != D:
                    T[i] = [p * v // D for v in T[i]]
        f = obj[enter]
        obj = [(p * v - f * w) // D for v, w in zip(obj, prow)]
        D = p
        basis[leave] = enter
    if obj[-1] == 0:
        x = obj[m : m + n]
        g = gcd(*x) or 1
        return tuple(v // g for v in x)
    return None


def check(rows, dim):
    x = feasible_point(rows, dim)
    assert x == dense_feasible_point(rows, dim), rows
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


def test_revised_solver_equals_the_dense_tableau_on_500_more_systems():
    # check() compares every answer with the dense oracle.  Three families:
    # random rows (mostly feasible), rows closed by a Farkas vector y > 0
    # (infeasible), and degenerate rows: sparse, repeated, scaled and zero
    # rows, so the ratio test ties and Bland's index tie-break decides
    rng = random.Random(2310)
    decided = {True: 0, False: 0}
    for k in range(500):
        dim = rng.randint(1, 7)
        family = k % 3
        if family == 0:
            rows = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(rng.randint(1, 12))]
        elif family == 1:
            m = rng.randint(2, 12)
            y = [rng.randint(1, 4) for _ in range(m)]
            rows = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(m - 1)]
            cols = [sum(r[i] * w for r, w in zip(rows, y)) for i in range(dim)]
            rows = [tuple(r) for r in rows] + [tuple(-(c + rng.randint(0, 2) * y[-1]) // y[-1] for c in cols)]
        else:
            pool = [tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
            rows = [tuple(rng.randint(1, 3) * v for v in rng.choice(pool)) for _ in range(rng.randint(1, 14))]
        x = check(rows, dim)
        if family == 1:
            assert x is None, rows
        decided[x is not None] += 1
    assert min(decided.values()) > 100


SIEVE_CODES = {
    "gf5-gen-1-2": ("field p=5 r=1 modulus=0,1\nparity 1 2\n", graver_generalized),
    "p19n3": ("field p=19 r=1 modulus=0,1\nparity 1 7 3\n", graver_ordinary),
    "p29n3": ("field p=29 r=1 modulus=0,1\nparity 1 7 12\n", graver_ordinary),
}


@pytest.mark.parametrize("name", list(SIEVE_CODES))
def test_revised_solver_equals_the_dense_tableau_on_every_sieve_cone(name, monkeypatch):
    # every cone the sieve builds, also those that a hint decides and that
    # never reach the LP
    doc, graver = SIEVE_CODES[name]
    cone_rows, cones = universal.cone_rows, []

    def recorded(g, basis):
        cones.append(cone_rows(g, basis))
        return cones[-1]

    monkeypatch.setattr(universal, "cone_rows", recorded)
    universal.universal_basis(graver(parse_input(doc).build_code()))
    assert len(cones) > 20
    for rows in cones:
        assert feasible_point(rows, len(rows[0])) == dense_feasible_point(rows, len(rows[0])), rows


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


@pytest.mark.parametrize("rows", [[], [()]], ids=["no-rows", "empty-row"])
def test_a_negative_dim_is_rejected(rows):
    with pytest.raises(ValueError, match="dim must be >= 0"):
        feasible_point(rows, -1)


@pytest.mark.parametrize(
    "rows",
    [[(1, Fraction(2))], [(1, 0.5)], [(True, 1)]],
    ids=["fraction-row-entry", "float-row-entry", "bool-row-entry"],
)
def test_non_integral_entries_are_rejected(rows):
    # the solver takes ints only: no truncation, and no silent conversion
    with pytest.raises(ValueError, match="must be integers"):
        feasible_point(rows, 2)
