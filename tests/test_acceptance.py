"""Acceptance checklist for the whole package, one test per criterion.

Every criterion is checked exactly (no tolerances) and reports a PASS or FAIL
line through the `acceptance` recorder; the collected lines are printed after
the run.  Wall-clock budgets are asserted where a criterion carries one.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from codegb.binomials import (
    GENERALIZED,
    ORDINARY,
    Block,
    VariableSpace,
    build_generalized_generators,
    build_ordinary_generators,
    split_pos_neg,
    substitute_ones,
)
from codegb.codes import LinearCode
from codegb.fields import FiniteField
from codegb.graver import graver_bruteforce, graver_generalized, graver_ordinary
from codegb.groebner import buchberger
from codegb.matrices import (
    IntMatrix,
    build_He,
    build_Hplus_e,
    extend_with_pI,
    lawrence_lift,
)
from codegb.orders import GradedRevlexOrder, WeightOrder, degrevlex, lex
from codegb.toric import kernel_basis, toric_ideal
from codegb.universal import (
    cone_is_empty,
    cone_sieve,
    universal_basis,
)


@contextmanager
def checklist(record, name):
    try:
        yield
    except BaseException as e:
        record(name, False, type(e).__name__)
        raise
    record(name, True)


def pairs(binomials):
    return {(b.lhs, b.rhs) for b in binomials}


def rows_of(m):
    return [list(m.row(i)) for i in range(m.nrows)]


def _mono(dim, *terms):
    u = [0] * dim
    for idx, e in terms:
        u[idx] = e
    return tuple(u)


# ------------------------------------------------------------- shared results


@pytest.fixture(scope="module")
def f3_graver(code_f3):
    t0 = time.monotonic()
    g = graver_ordinary(code_f3)
    return g, time.monotonic() - t0


@pytest.fixture(scope="module")
def f4_graver(code_f4):
    t0 = time.monotonic()
    g = graver_generalized(code_f4)
    return g, time.monotonic() - t0


F3_GRAVER = {
    ((1, 0, 0), (0, 0, 1)),
    ((0, 0, 2), (0, 1, 0)),
    ((0, 1, 1), (0, 0, 0)),
    ((0, 2, 0), (0, 0, 1)),
    ((0, 2, 0), (1, 0, 0)),
    ((1, 0, 1), (0, 1, 0)),
    ((1, 1, 0), (0, 0, 0)),
    ((2, 0, 0), (0, 1, 0)),
    ((0, 0, 3), (0, 0, 0)),
    ((0, 3, 0), (0, 0, 0)),
    ((1, 0, 2), (0, 0, 0)),
    ((2, 0, 1), (0, 0, 0)),
    ((3, 0, 0), (0, 0, 0)),
}

# x1*x3 - x2, x1*x3^2 - 1 and x1^2*x3 - 1: Graver elements that no reduced
# basis keeps (see criterion 2)
F3_NEVER_REDUCED = {
    ((1, 0, 1), (0, 1, 0)),
    ((1, 0, 2), (0, 0, 0)),
    ((2, 0, 1), (0, 0, 0)),
}


# --------------------------------------------------------------- criteria 1-4


def test_criterion_01_ternary_graver(acceptance, f3_graver):
    with checklist(
        acceptance, "1. ternary [3,2] code: Graver basis is exactly the known 13 elements, < 5s"
    ):
        g, elapsed = f3_graver
        assert pairs(g.elements) == F3_GRAVER
        assert len(g) == 13
        assert elapsed < 5.0


def test_criterion_02_ternary_universal(acceptance, f3_graver):
    with checklist(
        acceptance,
        "2. ternary [3,2] code: universal basis = Graver minus x1*x3 - x2, x1*x3^2 - 1, "
        "x1^2*x3 - 1 (10 elements), < 5s",
    ):
        # The paper's example keeps 12 elements, dropping only x1*x3 - x2;
        # that count is contradicted.  x1 - x3 is in the ideal, so under any
        # order its leading monomial (x1 or x3) leads an element of the
        # reduced basis.  Each element of F3_NEVER_REDUCED has a term that
        # both x1 and x3 divide, and no term of a reduced basis element is
        # divisible by the leading monomial of another, so none of the three
        # is in any reduced basis.  A sweep over lex and degrevlex under all
        # 6 precedences plus 2000 random weight orders finds exactly 5
        # distinct reduced bases, whose union is the remaining 10 elements.
        x1_minus_x3 = ((1, 0, 0), (0, 0, 1))
        assert x1_minus_x3 in F3_GRAVER
        for lhs, _ in F3_NEVER_REDUCED:
            assert all(all(a <= b for a, b in zip(side, lhs)) for side in x1_minus_x3)

        g, t_graver = f3_graver
        t0 = time.monotonic()
        u = universal_basis(g)
        elapsed = t_graver + (time.monotonic() - t0)
        assert pairs(u.elements) == F3_GRAVER - F3_NEVER_REDUCED
        assert len(u) == 10
        assert elapsed < 5.0


# LEX with the default precedence x11 > x12 > ... > x33 > y1 > y2;
# variable indices: x[i,j] -> 3*(i-1) + (j-1), y1 -> 9, y2 -> 10
F4_TORIC_GB_LEX = {
    (_mono(11, (0, 1)), _mono(11, (8, 1))),
    (_mono(11, (1, 1)), _mono(11, (6, 1))),
    (_mono(11, (2, 1)), _mono(11, (7, 1))),
    (_mono(11, (3, 1)), _mono(11, (7, 1))),
    (_mono(11, (4, 1)), _mono(11, (8, 1))),
    (_mono(11, (5, 1)), _mono(11, (6, 1))),
    (_mono(11, (6, 2)), _mono(11, (10, 1))),
    (_mono(11, (6, 1), (7, 1)), _mono(11, (8, 1))),
    (_mono(11, (6, 1), (8, 1)), _mono(11, (7, 1), (10, 1))),
    (_mono(11, (6, 1), (9, 1)), _mono(11, (7, 1), (8, 1))),
    (_mono(11, (7, 2)), _mono(11, (9, 1))),
    (_mono(11, (8, 2)), _mono(11, (9, 1), (10, 1))),
}

F4_SUBSTITUTED_GB_LEX = {
    (_mono(9, (0, 1)), _mono(9, (8, 1))),
    (_mono(9, (1, 1)), _mono(9, (7, 1), (8, 1))),
    (_mono(9, (2, 1)), _mono(9, (7, 1))),
    (_mono(9, (3, 1)), _mono(9, (7, 1))),
    (_mono(9, (4, 1)), _mono(9, (8, 1))),
    (_mono(9, (5, 1)), _mono(9, (7, 1), (8, 1))),
    (_mono(9, (6, 1)), _mono(9, (7, 1), (8, 1))),
    (_mono(9, (7, 2)), _mono(9)),
    (_mono(9, (8, 2)), _mono(9)),
}


def test_criterion_03_quaternary_lex_toric_basis(acceptance, code_f4):
    with checklist(
        acceptance,
        "3. quaternary code: LEX basis of the extended crossed toric ideal (12 elements), 9 after y -> 1",
    ):
        space = VariableSpace(Block("x", (3, 3)), Block("y", 2))
        gens = toric_ideal(extend_with_pI(build_Hplus_e(code_f4), 2), space)
        gb = buchberger(gens, lex(space.dim))
        assert pairs(gb) == F4_TORIC_GB_LEX
        dropped = substitute_ones(gb.binomials, "y")
        gb9 = buchberger(dropped, lex(dropped.space.dim))
        assert pairs(gb9) == F4_SUBSTITUTED_GB_LEX


def test_criterion_04_quaternary_graver_and_universal(acceptance, f4_graver):
    with checklist(
        acceptance,
        "4. quaternary code: 135 Graver elements, 99 universal, closed form equals the sieve, < 60s",
    ):
        g, t_graver = f4_graver
        t0 = time.monotonic()
        u = universal_basis(g)
        u2 = cone_sieve(g)
        elapsed = t_graver + (time.monotonic() - t0)
        assert len(g) == 135
        assert len(u) == 99
        assert u.elements == u2.elements
        assert elapsed < 60.0


# ----------------------------------------------------------------- criterion 5

# canonical coordinates of alpha^1 .. alpha^8 in GF(9) with a^2 + a + 2 = 0
GF9_PROJECTIONS = {
    1: (0, 1),
    2: (1, 2),
    3: (2, 2),
    4: (2, 0),
    5: (0, 2),
    6: (2, 1),
    7: (1, 1),
    8: (1, 0),
}


def test_criterion_05_matrix_goldens(acceptance, code_f3, code_f4, code_f9, ff9):
    with checklist(
        acceptance, "5. worked-example matrices and the GF(9) projection table match bit for bit"
    ):
        # the [4,2] example lives over GF(4) with the default basis {1, a}
        gf4 = FiniteField(2, 2, (1, 1, 1))
        a, z, o = gf4.alpha(), gf4.zero(), gf4.one()
        four = LinearCode.from_parity(gf4, [[a, z, o, z], [a * a, a, z, o]])
        assert rows_of(extend_with_pI(build_He(four), 2)) == [
            [0, 1, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0],
            [1, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0],
            [1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 2, 0],
            [1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 2],
        ]
        assert rows_of(extend_with_pI(build_Hplus_e(code_f4), 2)) == [
            [1, 0, 1, 1, 1, 0, 0, 1, 1, 2, 0],
            [1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 2],
        ]
        got = rows_of(build_Hplus_e(code_f9))
        block = lambda j, i: got[i][8 * j : 8 * (j + 1)]
        assert block(0, 0) == [2, 2, 0, 2, 1, 1, 0, 1]
        assert block(0, 1) == [2, 0, 2, 1, 1, 0, 1, 2]
        assert block(0, 2) == [0] * 8 and block(0, 3) == [0] * 8
        assert block(1, 0) == [1, 2, 2, 0, 2, 1, 1, 0]
        assert block(1, 1) == [2, 2, 0, 2, 1, 1, 0, 1]
        assert block(2, 0) == [0] * 8 and block(2, 1) == [0] * 8
        assert block(2, 2) == [1, 1, 0, 1, 2, 2, 0, 2]
        assert block(2, 3) == [1, 0, 1, 2, 2, 0, 2, 1]
        assert rows_of(lawrence_lift(build_He(code_f3), 3)) == [
            [1, 2, 1, 0, 0, 0, 3],
            [1, 0, 0, 1, 0, 0, 0],
            [0, 1, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 1, 0],
        ]
        for k, expected in GF9_PROJECTIONS.items():
            el = ff9.from_power(k)
            assert (ff9.projection(el, 1), ff9.projection(el, 2)) == expected


# ------------------------------------------------------------- criteria 6 & 7


def _codeword_key(code):
    return frozenset(tuple(e.k for e in w) for w in code.codewords())


def all_linear_codes(ff, n):
    """Every subspace of GF(q)^n exactly once, keyed by its codeword set."""
    eye = [[ff.one() if i == j else ff.zero() for j in range(n)] for i in range(n)]
    zero = LinearCode.from_parity(ff, eye)
    seen = {_codeword_key(zero): zero}
    words = list(itertools.product(ff.elements(), repeat=n))
    for k in range(1, n + 1):
        for rows in itertools.combinations(words, k):
            try:
                code = LinearCode.from_generator(ff, list(rows))
            except ValueError:
                continue  # dependent rows
            seen.setdefault(_codeword_key(code), code)
    return list(seen.values())


@pytest.fixture(scope="module")
def small_code_sample(ff2, ff3):
    sample = [c for n in (1, 2, 3) for c in all_linear_codes(ff2, n)]
    assert len(sample) == 23  # 2 + 5 + 16 subspaces
    ternary = [c for n in (1, 2) for c in all_linear_codes(ff3, n)]
    assert len(ternary) == 8  # 2 + 6 subspaces
    return sample + ternary


def test_criterion_06_oracle_equivalence(acceptance, small_code_sample, code_f4, f4_graver):
    with checklist(
        acceptance,
        "6. the Graver route (a zero-sum walk or the codewords, per component) agrees with the "
        "exhaustive oracle on all 31 small codes plus the quaternary crossed ideal, < 10min",
    ):
        t0 = time.monotonic()
        for code in small_code_sample:
            assert graver_ordinary(code) == graver_bruteforce(code, ORDINARY)
        g4, t_graver = f4_graver
        assert g4 == graver_bruteforce(code_f4, GENERALIZED)
        assert t_graver + (time.monotonic() - t0) < 600.0


def _order_for(name, dim):
    return lex(dim) if name == "lex" else degrevlex(dim)


def _toric_route(code, kind, order_name):
    generalized = kind == GENERALIZED
    base = build_Hplus_e(code) if generalized else build_He(code)
    shape = (code.n, code.ff.q - 1) if generalized else (code.n, code.ff.r)
    space = VariableSpace(Block("x", shape), Block("y", base.nrows))
    gens = substitute_ones(toric_ideal(extend_with_pI(base, code.ff.p), space), "y")
    return buchberger(gens, _order_for(order_name, gens.space.dim))


def _generator_route(code, kind, order_name):
    build = build_generalized_generators if kind == GENERALIZED else build_ordinary_generators
    gens = build(code)
    return buchberger(gens, _order_for(order_name, gens.space.dim))


def test_criterion_07_route_equivalence(acceptance, small_code_sample, code_f4):
    with checklist(
        acceptance,
        "7. generator-relation route and toric route yield identical reduced bases (LEX and DEGREVLEX)",
    ):
        jobs = [(code, ORDINARY) for code in small_code_sample]
        jobs.append((code_f4, GENERALIZED))
        for code, kind in jobs:
            for order_name in ("lex", "degrevlex"):
                via_toric = _toric_route(code, kind, order_name)
                via_gens = _generator_route(code, kind, order_name)
                assert pairs(via_toric) == pairs(via_gens)


# ----------------------------------------------------------------- criterion 8


def _lawrence_ideal(code, kind):
    generalized = kind == GENERALIZED
    base = build_Hplus_e(code) if generalized else build_He(code)
    shape = (code.n, code.ff.q - 1) if generalized else (code.n, code.ff.r)
    lifted = lawrence_lift(base, code.ff.p)
    space = VariableSpace(Block("x", shape), Block("y", shape), Block("z", base.nrows))
    return substitute_ones(toric_ideal(lifted, space), "z")


def test_criterion_08_lawrence_ideal_is_order_free(acceptance, code_f3, code_f4):
    with checklist(
        acceptance,
        "8. doubled (Lawrence) ideals: reduced bases under LEX and DEGREVLEX coincide",
    ):
        for code, kind in ((code_f3, ORDINARY), (code_f4, GENERALIZED)):
            s = _lawrence_ideal(code, kind)
            dim = s.space.dim
            via_lex = buchberger(s, lex(dim))
            via_drl = buchberger(s, degrevlex(dim))
            assert via_lex.binomials == via_drl.binomials


# ----------------------------------------------------------------- criterion 9


def test_criterion_09_witnesses_reproduce_their_bases(acceptance, code_f3, f3_graver):
    with checklist(
        acceptance,
        "9. each cone witness yields a weight order whose reduced basis contains its element, "
        "led by the asserted side",
    ):
        g, _ = f3_graver
        u = universal_basis(g)
        assert set(u.witnesses) == {b.canonical() for b in u.elements}
        gens = build_ordinary_generators(code_f3)
        for b, w in u.witnesses.items():
            lw = sum(a * c for a, c in zip(w, b.lhs))
            rw = sum(a * c for a, c in zip(w, b.rhs))
            assert lw != rw  # the witness came from a strict system
            gb = buchberger(gens, WeightOrder(w, degrevlex(len(w))))
            stored = {e.canonical(): e for e in gb}
            assert b in stored
            assert stored[b].lhs == (b.lhs if lw > rw else b.rhs)


# ---------------------------------------------------------------- criterion 10


def _rational_rank(rows, ncols):
    m = [[Fraction(e) for e in r] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c]
        m[rank] = [e / inv for e in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _det(rows):
    m = [[Fraction(e) for e in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(det)


def _random_order(rng, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    pick = rng.randrange(4)
    if pick == 0:
        return lex(dim, precedence=perm)
    if pick == 1:
        return degrevlex(dim, precedence=perm)
    if pick == 2:
        weights = [rng.randrange(1, 5) for _ in range(dim)]
        return GradedRevlexOrder(dim, precedence=perm, weights=weights)
    weights = [rng.randrange(0, 5) for _ in range(dim)]
    return WeightOrder(weights, degrevlex(dim, precedence=perm))


def _grid_witness(rows, dim):
    for w in itertools.product(range(7), repeat=dim):
        if all(sum(a * b for a, b in zip(r, w)) > 0 for r in rows):
            return w
    return None


def test_criterion_10_randomized_properties(acceptance, ff4, ff9):
    with checklist(
        acceptance,
        "10. randomized checks (1000 each): order axioms, sign split, crossing round-trip, "
        "integer kernels, cone emptiness vs grid oracle",
    ):
        rng = random.Random(0xC0DE)

        for _ in range(1000):
            dim = rng.randrange(1, 5)
            order = _random_order(rng, dim)
            u, v, t = (tuple(rng.randrange(0, 6) for _ in range(dim)) for _ in range(3))
            zero = (0,) * dim
            cuv = order.compare(u, v)
            assert cuv in (-1, 0, 1)
            assert order.compare(u, u) == 0
            assert (cuv == 0) == (u == v)  # totality
            assert order.compare(v, u) == -cuv  # antisymmetry
            shifted = order.compare(
                tuple(a + b for a, b in zip(u, t)), tuple(a + b for a, b in zip(v, t))
            )
            assert shifted == cuv  # multiplicativity
            if u != zero:
                assert order.compare(u, zero) == 1  # 1 is the global minimum
            if cuv >= 0 and order.compare(v, t) >= 0:
                assert order.compare(u, t) >= 0  # transitivity

        for _ in range(1000):
            n = rng.randrange(1, 8)
            vec = tuple(rng.randrange(-5, 6) for _ in range(n))
            pos, neg = split_pos_neg(vec)
            assert all(e >= 0 for e in pos) and all(e >= 0 for e in neg)
            assert all(a == 0 or b == 0 for a, b in zip(pos, neg))
            assert tuple(a - b for a, b in zip(pos, neg)) == vec

        for ff in (ff4, ff9):
            els = ff.elements()
            for _ in range(500):
                word = tuple(rng.choice(els) for _ in range(rng.randrange(1, 5)))
                back = ff.cross_down(ff.cross_up(word))
                assert tuple(e.k for e in back) == tuple(e.k for e in word)

        for _ in range(1000):
            nr, nc = rng.randrange(1, 4), rng.randrange(1, 5)
            rows = [[rng.randrange(-4, 5) for _ in range(nc)] for _ in range(nr)]
            kb = kernel_basis(IntMatrix(rows, ncols=nc))
            assert len(kb) == nc - _rational_rank(rows, nc)
            for v in kb:
                assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
            # the basis spans ker_Z(A) itself, no sublattice of finite index:
            # the gcd of its maximal minors is 1
            if kb:
                minors = [_det([[v[j] for j in cols] for v in kb])
                          for cols in itertools.combinations(range(nc), len(kb))]
                assert math.gcd(*minors) == 1

        for _ in range(1000):
            dim = rng.randrange(1, 4)
            nrows = rng.randrange(1, 5)
            rows = []
            while len(rows) < nrows:
                r = tuple(rng.randrange(-3, 4) for _ in range(dim))
                if any(r):
                    rows.append(r)
            empty, w = cone_is_empty(rows)
            grid = _grid_witness(rows, dim)
            if empty:
                assert w is None and grid is None
            else:
                assert all(sum(a * b for a, b in zip(r, w)) > 0 for r in rows)
