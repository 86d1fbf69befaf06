"""Universal Groebner bases: the cone sieve, and the closed form at p = 2."""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from codegb.binomials import (
    GENERALIZED,
    ORDINARY,
    Binomial,
    InvariantError,
    build_ordinary_generators,
)
from codegb.codes import LinearCode, rank
from codegb.fields import DependentBasisError, FiniteField
from codegb.graver import graver_generalized, graver_ordinary
from codegb.groebner import buchberger
from codegb.lp import feasible_point
from codegb.orders import WeightOrder, degrevlex
from codegb.universal import (
    cone_is_empty,
    cone_rows,
    cone_sieve,
    prune_by_lemma,
    universal_basis,
)
from test_lp import dense_feasible_point


@pytest.fixture(scope="module")
def rep2():
    ff = FiniteField(2, 1, (0, 1))
    return LinearCode.from_parity(ff, [[ff.one(), ff.one()]])


def pairs(basis):
    return {(b.lhs, b.rhs) for b in basis.elements}


def test_ragged_cone_rows_are_rejected_before_any_hint(lp_calls):
    # zip would cut (1, 0, -1) to (1, 0), which the hint (1, 1) satisfies
    for rows in ([(1, 0), (1, 0, -1)], [(1, 0, -1), (1, 0)]):
        with pytest.raises(ValueError, match="differ in length"):
            cone_is_empty(rows, hints=[(1, 1)])
    assert lp_calls == []


def test_a_cone_without_rows_is_rejected(lp_calls):
    with pytest.raises(ValueError, match="at least one row"):
        cone_is_empty([], hints=[(1, 1)])
    with pytest.raises(ValueError, match="at least one row"):
        cone_is_empty(())
    assert lp_calls == []


def test_a_zero_row_is_an_empty_cone_the_lp_proves(lp_calls):
    # no hint satisfies 0 > 0; the LP's Farkas vector is the zero row's unit
    # vector, and it is checked before None goes out
    assert cone_is_empty([(1, 1), (0, 0)], hints=[(1, 1)]) == (True, None)
    assert len(lp_calls) == 1


def test_cone_emptiness_shortcuts_and_lp_path(lp_calls):
    # sign patterns that close a cone are left to the LP, like any other:
    # a row with no positive entry can never go strictly positive on w >= 0
    assert cone_is_empty([(0, -1), (1, 1)]) == (True, None)
    # opposite rows contradict each other
    assert cone_is_empty([(1, -1), (-1, 1)]) == (True, None)
    # adding the rows gives -w1 - w2 > 0
    empty, w = cone_is_empty([(1, -2), (-2, 1)])
    assert empty and w is None
    assert len(lp_calls) == 3


def test_cone_witnesses_are_checked_strictly():
    rows = [(1, -1, 0), (0, 1, -1), (0, 0, 1)]
    empty, w = cone_is_empty(rows)
    assert not empty
    assert all(sum(a * b for a, b in zip(r, w)) > 0 for r in rows)


def test_cone_hint_short_circuits_when_valid():
    rows = [(1, -1), (0, 1)]
    empty, w = cone_is_empty(rows, hints=[(5, 1)])
    assert not empty and w == (5, 1)
    # an invalid hint is ignored, not returned
    empty, w = cone_is_empty(rows, hints=[(0, 1)])
    assert not empty and w != (0, 1)


def test_a_negative_hint_is_never_a_witness():
    # (1, -5) satisfies w1 > 0 but leaves the orthant the cone lives in
    empty, w = cone_is_empty([(1, 0)], hints=[(1, -5)])
    assert not empty and w != (1, -5) and min(w) >= 0
    # it satisfies both rows here too, where no w >= 0 has -w2 > 0
    assert cone_is_empty([(1, -1), (0, -1)], hints=[(1, -5)]) == (True, None)


def is_primitive_int_tuple(w):
    return type(w) is tuple and all(type(e) is int for e in w) and gcd(*w) == 1


def test_lp_witnesses_are_primitive_integer_vectors():
    # the LP points are (4/5, 3/5), (1/3, 0) and (12/31, 53/93, 43/93, 0)
    cones = {
        ((2, -1), (-1, 3)): (4, 3),
        ((3, -1),): (1, 0),
        ((7, -3, 0, 1), (0, 5, -4, 0), (-1, 0, 3, 0)): (36, 53, 43, 0),
    }
    for rows, scaled in cones.items():
        empty, w = cone_is_empty(rows)
        assert not empty and w == scaled and is_primitive_int_tuple(w)


@pytest.fixture
def lp_calls(monkeypatch):
    """The argument tuples of every LP call the sieve makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return feasible_point(*args)

    monkeypatch.setattr("codegb.universal.feasible_point", counted)
    return calls


def test_sieve_witnesses_are_primitive_integer_vectors(lp_calls):
    # parity 1 7 3 over GF(19): most of its 28 kept elements come from the LP
    u = universal_basis(graver_ordinary(parity_code(19, 1, (0, 1), "1 7 3")))
    assert len(u) == 28 and len(lp_calls) > 10
    assert all(is_primitive_int_tuple(w) for w in u.witnesses.values())


@pytest.fixture
def certified(monkeypatch):
    """Counts of the empty cone decisions and of the LP calls that returned
    None; each empty answer must come straight from such a call."""
    counts = {"empty": 0, "lp_none": 0}

    def lp(*args):
        x = feasible_point(*args)
        counts["lp_none"] += x is None
        return x

    def decide(rows, hints=()):
        before = counts["lp_none"]
        empty, w = cone_is_empty(rows, hints)
        if empty:
            assert counts["lp_none"] == before + 1, rows
            counts["empty"] += 1
        return empty, w

    monkeypatch.setattr("codegb.universal.feasible_point", lp)
    monkeypatch.setattr("codegb.universal.cone_is_empty", decide)
    return counts


def test_a_valid_hint_skips_the_lp(lp_calls):
    rows = [(1, -1, 0), (0, 1, -1), (0, 0, 1)]
    assert cone_is_empty(rows, hints=[(1, 1, 1), (3, 2, 1)]) == (False, (3, 2, 1))
    assert lp_calls == []
    empty, w = cone_is_empty(rows, hints=[(1, 1, 1)])
    assert not empty and len(lp_calls) == 1


def test_prune_lemma_on_the_repetition_code(rep2):
    graver = graver_ordinary(rep2)
    # x1*x2 - 1 is rewritten by x1 - x2 whichever side of the latter leads
    assert prune_by_lemma(Binomial((1, 1), (0, 0)), graver)
    assert not prune_by_lemma(Binomial((1, 0), (0, 1)), graver)
    assert not prune_by_lemma(Binomial((2, 0), (0, 0)), graver)


def test_cone_rows_contain_the_strictness_row(code_f3):
    graver = graver_ordinary(code_f3)
    rows = cone_rows(Binomial((1, 0, 0), (0, 0, 1)), graver)
    assert all(len(r) == 3 for r in rows)
    # the element itself divides its own second target and demands w.u > w.u'
    assert (1, 0, -1) in rows


def test_cone_rows_reject_an_element_with_both_sides_dividing_one_target(rep2):
    # x1 - x2 has both sides dividing the target (1, 1) of x1*x2^2 - 1, which
    # the lemma prunes; the check is a raise, so it holds under python -O
    with pytest.raises(InvariantError, match="cone rows: both sides divide one target"):
        cone_rows(Binomial((1, 2), (0, 0)), graver_ordinary(rep2))


def test_cone_rows_of_a_pruned_element_may_hold_opposite_rows(rep2):
    # x1*x2 - 1 is pruned by the lemma; its targets (0, 1) and (1, 0) are
    # each divided by one side of x1 - x2, whose two rows close the cone
    # whatever their order
    graver = graver_ordinary(rep2)
    rows = cone_rows(Binomial((1, 1), (0, 0)), graver)
    assert {(1, -1), (-1, 1)} <= set(rows)
    assert set(rows) == set(oracle_rows(Binomial((1, 1), (0, 0)), graver))
    assert cone_is_empty(rows) == (True, None)


def vector(b):
    return tuple(x - y for x, y in zip(b.lhs, b.rhs))


def neg(r):
    return tuple(-x for x in r)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def oracle_prune(g, graver):
    """The lemma, tested tuple by tuple on both sides of every other element."""
    gc = g.canonical()
    return any(
        _divides(e.lhs, side) and _divides(e.rhs, side)
        for e in graver.elements
        if e != gc
        for side in (g.lhs, g.rhs)
    )


def oracle_rows(g, graver):
    """The distinct cone rows of g, each side of each element tested against
    every target u - e_j with j in supp(u), then u'; a side that divides
    several targets gives its row once."""
    u, up = g.lhs, g.rhs
    targets = [tuple(e - (t == j) for t, e in enumerate(u)) for j in range(len(u)) if u[j]] + [up]
    rows = []
    for e in graver.elements:
        v, vp = e.lhs, e.rhs
        for t in targets:
            if _divides(v, t):
                if _divides(vp, t):
                    raise InvariantError("oracle rows", "both sides divide a target", e)
                rows.append(tuple(b - a for a, b in zip(v, vp)))
            elif _divides(vp, t):
                rows.append(tuple(a - b for a, b in zip(v, vp)))
    return tuple(dict.fromkeys(rows))


def oracle_sieve(graver, monkeypatch):
    """cone_sieve with the lemma and the cone rows of the oracle."""
    with monkeypatch.context() as m:
        m.setattr("codegb.universal.prune_by_lemma", oracle_prune)
        m.setattr("codegb.universal.cone_rows", oracle_rows)
        return cone_sieve(graver)


SWEEP = {
    "p19n3": ((19, 1, (0, 1)), "1 7 3", ORDINARY, None),
    "p29n3": ((29, 1, (0, 1)), "1 7 12", ORDINARY, None),
    "tgen5": ((3, 1, (0, 1)), "1 2 1 1 2", GENERALIZED, None),
    # exponents up to 131 and 257: the packing widens past 8-bit fields
    "gf131": ((131, 1, (0, 1)), "1 5 17", ORDINARY, (183, 34)),
    "gf257": ((257, 1, (0, 1)), "1 3", ORDINARY, (90, 5)),
    # GF(9) with a^2 + a + 2 = 0: two variables per position
    "f9n3": ((3, 2, (2, 1, 1)), "a 1 a^2", ORDINARY, (128, 70)),
}


@pytest.mark.parametrize("name", ["rep2", "f3"] + list(SWEEP))
def test_packed_lemma_and_cone_rows_agree_with_the_tuple_oracle(name, rep2, code_f3, monkeypatch):
    if name in SWEEP:
        field, tokens, kind, sizes = SWEEP[name]
        code = parity_code(*field, tokens)
        graver = graver_generalized(code) if kind == GENERALIZED else graver_ordinary(code)
    else:
        sizes, graver = None, graver_ordinary(rep2 if name == "rep2" else code_f3)
    # each element by its lattice vector, taken up to sign
    element_of = {max(v, neg(v)): e for e in graver.elements for v in [vector(e)]}
    survivors = 0
    for b in graver.elements:
        for g in (b, b.swapped()):
            pruned = oracle_prune(g, graver)
            assert prune_by_lemma(g, graver) == pruned, g
            if pruned:
                continue
            survivors += 1
            try:
                rows = oracle_rows(g, graver)
            except InvariantError:
                # only 1 - x^u': g itself has both sides dividing the target u'
                assert not any(g.lhs)
                with pytest.raises(InvariantError, match="both sides divide one target"):
                    cone_rows(g, graver)
                continue
            assert cone_rows(g, graver) == rows, g
            # the proof in cone_rows: g's own row u - u' is there, every row
            # is nonzero and comes from a distinct element, and there is no
            # row <= 0 and no pair r, -r, so only the LP can close a cone of
            # the sieve
            assert vector(g) in rows, g
            assert all(any(r) for r in rows) and len(set(rows)) == len(rows), g
            sources = [element_of[max(r, neg(r))] for r in rows]
            assert len(set(sources)) == len(sources), g
            assert not any(max(r) <= 0 or neg(r) in rows for r in rows), g
    assert survivors > 0
    u = cone_sieve(graver)
    assert u.witnesses == oracle_sieve(graver, monkeypatch).witnesses
    if sizes:
        assert (len(graver), len(u)) == sizes


@pytest.mark.parametrize(
    "field,tokens,kind,kept",
    [((3, 1, (0, 1)), "1 2 1 1 2", GENERALIZED, 105), ((19, 1, (0, 1)), "1 7 3", ORDINARY, 28)],
    ids=["tgen5", "p19n3"],
)
def test_sieve_witnesses_are_those_of_the_dense_tableau(field, tokens, kind, kept, monkeypatch):
    # the revised simplex takes the dense tableau's pivots, so every witness
    # the sieve records, and every hint it passes on, is the same
    code = parity_code(*field, tokens)
    graver = graver_generalized(code) if kind == GENERALIZED else graver_ordinary(code)
    u = universal_basis(graver)
    with monkeypatch.context() as m:
        m.setattr("codegb.universal.feasible_point", dense_feasible_point)
        dense = universal_basis(graver)
    assert len(u) == kept and u.witnesses == dense.witnesses


def test_packed_lemma_widens_for_a_large_exponent_off_the_basis(rep2):
    # x1^2 - 1 rewrites x1^200*x2 and x2^2 - 1 rewrites x2^300; x1 - x2 is
    # kept, also once the packing has widened past 8-bit fields
    graver = graver_ordinary(rep2)
    x1_x2, wide1, wide2 = Binomial((1, 0), (0, 1)), Binomial((200, 1), (0, 0)), Binomial((1, 0), (0, 300))
    for g, pruned in ((x1_x2, False), (wide1, True), (wide2, True), (x1_x2, False)):
        assert prune_by_lemma(g, graver) == oracle_prune(g, graver) == pruned, g


def test_repetition_code_universal_basis(rep2):
    u = universal_basis(graver_ordinary(rep2))
    assert pairs(u) == {((1, 0), (0, 1)), ((2, 0), (0, 0)), ((0, 2), (0, 0))}


def test_zero_code_keeps_its_single_relation():
    ff = FiniteField(2, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.one()]])
    u = universal_basis(graver_ordinary(code))
    assert pairs(u) == {((2,), (0,))}


def test_f3_universal_basis_drops_exactly_the_rewritable_three(code_f3):
    # x1*x3 - x2, x1*x3^2 - 1 and x1^2*x3 - 1 all contain a side that
    # x1 - x3 rewrites under every order, so no reduced basis keeps them
    graver = graver_ordinary(code_f3)
    u = universal_basis(graver)
    dropped = {((1, 0, 1), (0, 1, 0)), ((1, 0, 2), (0, 0, 0)), ((2, 0, 1), (0, 0, 0))}
    assert pairs(graver) - pairs(u) == dropped
    assert len(u) == 10


def test_f3_witnesses_cover_every_kept_element(code_f3):
    u = universal_basis(graver_ordinary(code_f3))
    assert set(u.witnesses) == {b.canonical() for b in u.elements}
    for w in u.witnesses.values():
        assert len(w) == 3 and all(e >= 0 for e in w)


def test_two_sided_cones_are_orientation_symmetric(code_f3):
    graver = graver_ordinary(code_f3)
    checked = 0
    for b in graver.elements:
        # cone_rows presumes the lemma filter already ran; respect that here
        if not (any(b.lhs) and any(b.rhs)) or prune_by_lemma(b, graver):
            continue
        fwd, _ = cone_is_empty(cone_rows(b, graver))
        bwd, _ = cone_is_empty(cone_rows(b.swapped(), graver))
        assert fwd == bwd
        checked += 1
    assert checked == 5


def test_char2_shortcut_matches_the_cone_route(rep2):
    graver = graver_generalized(rep2)
    assert pairs(universal_basis(graver)) == pairs(cone_sieve(graver))


def text(b, names):
    """A binomial as the CLI prints it, larger side first."""

    def mono(u):
        parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, u) if e]
        return "*".join(parts) or "1"

    b = b.canonical()
    return f"{mono(b.lhs)} - {mono(b.rhs)}"


def parity_code(p, r, modulus, tokens):
    ff = FiniteField(p, r, modulus)
    row = [ff.alpha() ** int(t[2:] or 1) if t[0] == "a" else ff.from_int(int(t)) for t in tokens.split()]
    return LinearCode.from_parity(ff, [row])


@pytest.mark.parametrize(
    "field,tokens,kind,count",
    [
        ((2, 2, (1, 1, 1)), "1 0 a", GENERALIZED, 36),
        ((2, 2, (1, 1, 1)), "1 0 a", ORDINARY, 13),
        ((2, 1, (0, 1)), "1 0", GENERALIZED, 2),
        ((2, 1, (0, 1)), "1 0", ORDINARY, 2),
    ],
)
def test_char2_closed_form_keeps_the_loops_of_zero_columns(field, tokens, kind, count):
    # column 2 of the parity row is zero, so x[2,t] - 1 is in the ideal and
    # x[2,t] leads under every order: each such element is in every reduced
    # basis, as the sieve finds
    code = parity_code(*field, tokens)
    graver = graver_generalized(code) if kind == GENERALIZED else graver_ordinary(code)
    u = universal_basis(graver)
    assert u.elements == cone_sieve(graver).elements
    assert len(u) == count
    names = graver.elements.space.names()
    kept = {text(b, names) for b in u.elements}
    loops = {f"{n} - 1" for n in names if n.startswith("x[2,")}
    assert loops and loops <= kept
    if field[0:2] == (2, 1):
        assert kept == {"x[1,1]^2 - 1", "x[2,1] - 1"}


# GF(2), GF(4) and GF(8) under both primitive moduli of degree 3
SWEEP_FIELDS = [(2, 1, (0, 1)), (2, 2, (1, 1, 1)), (2, 3, (1, 1, 0, 1)), (2, 3, (1, 0, 1, 1))]


def _random_code(rng, max_vars):
    """(kind, code) for a random full-rank parity matrix over GF(2), GF(4) or
    GF(8), half the time under a random basis, with at most `max_vars`
    variables in that kind.  Zero entries, and so zero columns, are drawn
    like any other element."""
    while True:
        ff = FiniteField(*rng.choice(SWEEP_FIELDS))
        if ff.r > 1 and rng.random() < 0.5:
            basis = [ff.from_power(rng.randrange(1, ff.q)) for _ in range(ff.r)]
            try:
                ff = ff.with_basis(basis)
            except DependentBasisError:
                continue
        kind = rng.choice([ORDINARY, GENERALIZED])
        per_position = ff.r if kind == ORDINARY else ff.q - 1
        if per_position > max_vars:
            continue
        n = rng.randint(1, max_vars // per_position)
        m = rng.randint(1, n)
        elements = ff.elements()
        rows = [[rng.choice(elements) for _ in range(n)] for _ in range(m)]
        if rank(ff, rows) == m:
            return kind, LinearCode.from_parity(ff, rows)


def test_char2_closed_form_equals_the_sieve_on_random_codes(certified):
    # 150 seeded codes with at most 8 variables; about 8 s on a 2-core x86
    # VM: the sieve 7.6 s, the Graver step 0.3 s (5.7 s by completion), the
    # closed form 0.03 s (budget: 15 s)
    rng = random.Random(6)
    zero_columns = 0
    t0 = time.monotonic()
    for _ in range(150):
        kind, code = _random_code(rng, 8)
        graver = graver_generalized(code) if kind == GENERALIZED else graver_ordinary(code)
        assert universal_basis(graver).elements == cone_sieve(graver).elements, (kind, code.H)
        zero_columns += any(not any(col) for col in zip(*code.H))
    assert time.monotonic() - t0 < 15.0
    assert zero_columns > 0
    # the closed form drops only elements the lemma prunes, so no cone is
    # empty here, and no LP call returns None
    assert certified == {"empty": 0, "lp_none": 0}


@pytest.mark.parametrize(
    "p,rows",
    [(3, [[1, 1, 1, 0, 0, 0], [0, 0, 1, 1, 2, 1]]), (5, [[1, 2, 3, 4]])],
    ids=["f3-n6", "f5-n4"],
)
def test_reduced_bases_under_random_weights_lie_in_the_universal_basis(p, rows):
    # An oracle with no cones: the universal basis is the union of all
    # reduced bases, so every one of them is a subset of it, however few
    # are sampled.  50 seeded weight orders, degrevlex breaking ties; they
    # reach 47 of 48 elements on f3-n6 and 33 of 34 on f5-n4
    ff = FiniteField(p, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.from_int(e) for e in row] for row in rows])
    ugb = universal_basis(graver_ordinary(code)).elements
    gens = build_ordinary_generators(code)
    dim = gens.space.dim
    rng = random.Random(3)
    union = set()
    for _ in range(50):
        weights = [Fraction(rng.randrange(13), rng.randint(1, 6)) for _ in range(dim)]
        for b in buchberger(gens, WeightOrder(weights, degrevlex(dim))).elements:
            assert b in ugb, (weights, b)
            union.add(b.canonical())
    assert len(union) > len(buchberger(gens, degrevlex(dim)))  # the orders differ


def test_t7_drops_two_elements_on_farkas_certificates(certified):
    # the first code on which the LP proves cones empty: 211 Graver elements,
    # 97 pruned by the lemma, 112 kept and two dropped on Farkas vectors
    ff = FiniteField(3, 1, (0, 1))
    rows = [[ff.from_int(c) for c in row] for row in ((1, 1, 1, 0, 0, 0, 1), (0, 0, 1, 1, 2, 1, 2))]
    graver = graver_ordinary(LinearCode.from_parity(ff, rows))
    u = universal_basis(graver)
    assert (len(graver), len(u)) == (211, 112)
    assert certified == {"empty": 2, "lp_none": 2}
    names = graver.elements.space.names()
    dropped = {
        text(b, names)
        for b in graver.elements
        if b not in u.elements and not prune_by_lemma(b, graver)
    }
    assert dropped == {"x[2,1]*x[3,1]*x[7,1] - 1", "x[1,1]*x[3,1]*x[7,1] - 1"}


# `codegb ugb` of "field p=13 r=1 modulus=0,1" / "parity 1 2 3 4", as stored
P13N4_UNIVERSAL = {
    ((0, 0, 2, 0), (0, 1, 0, 1)),
    ((0, 1, 1, 0), (1, 0, 0, 1)),
    ((0, 2, 0, 0), (0, 0, 0, 1)),
    ((0, 2, 0, 0), (1, 0, 1, 0)),
    ((1, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 1, 0, 0), (0, 0, 1, 0)),
    ((2, 0, 0, 0), (0, 1, 0, 0)),
    ((0, 0, 3, 0), (1, 0, 0, 2)),
    ((0, 1, 2, 0), (0, 0, 0, 2)),
    ((0, 3, 0, 0), (0, 0, 2, 0)),
    ((2, 0, 0, 1), (0, 0, 2, 0)),
    ((3, 0, 0, 0), (0, 0, 1, 0)),
    ((0, 0, 0, 4), (0, 0, 1, 0)),
    ((0, 0, 0, 4), (1, 1, 0, 0)),
    ((0, 0, 0, 4), (3, 0, 0, 0)),
    ((0, 0, 1, 3), (0, 1, 0, 0)),
    ((0, 0, 1, 3), (2, 0, 0, 0)),
    ((0, 0, 2, 2), (1, 0, 0, 0)),
    ((0, 0, 3, 1), (0, 0, 0, 0)),
    ((0, 0, 4, 0), (0, 0, 0, 3)),
    ((0, 1, 0, 3), (1, 0, 0, 0)),
    ((0, 1, 1, 2), (0, 0, 0, 0)),
    ((1, 0, 0, 3), (0, 0, 0, 0)),
    ((4, 0, 0, 0), (0, 0, 0, 1)),
    ((0, 0, 5, 0), (0, 1, 0, 0)),
    ((0, 0, 5, 0), (2, 0, 0, 0)),
    ((0, 1, 4, 0), (1, 0, 0, 0)),
    ((0, 2, 3, 0), (0, 0, 0, 0)),
    ((1, 0, 4, 0), (0, 0, 0, 0)),
    ((0, 0, 6, 0), (1, 0, 0, 1)),
    ((0, 5, 1, 0), (0, 0, 0, 0)),
    ((0, 0, 0, 7), (0, 1, 0, 0)),
    ((0, 0, 0, 7), (2, 0, 0, 0)),
    ((0, 0, 7, 0), (0, 0, 0, 2)),
    ((0, 1, 0, 6), (0, 0, 0, 0)),
    ((0, 7, 0, 0), (1, 0, 0, 0)),
    ((1, 6, 0, 0), (0, 0, 0, 0)),
    ((0, 8, 0, 0), (0, 0, 1, 0)),
    ((0, 0, 9, 0), (1, 0, 0, 0)),
    ((0, 0, 0, 10), (1, 0, 0, 0)),
    ((0, 0, 10, 0), (0, 0, 0, 1)),
    ((0, 0, 0, 13), (0, 0, 0, 0)),
    ((0, 0, 13, 0), (0, 0, 0, 0)),
    ((0, 13, 0, 0), (0, 0, 0, 0)),
    ((13, 0, 0, 0), (0, 0, 0, 0)),
}


def test_p13_universal_basis_is_fast_and_every_witness_reproduces_it():
    ff = FiniteField(13, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.from_int(c) for c in (1, 2, 3, 4)]])
    start = time.perf_counter()
    u = universal_basis(graver_ordinary(code))
    elapsed = time.perf_counter() - start
    assert pairs(u) == P13N4_UNIVERSAL
    # about 0.09 s on a 2-core x86 VM by integer pivoting, 0.27 s with the
    # LP over Fraction behind a float relaxation, and 16.8 s with a
    # phase-one LP with one artificial per cone row
    assert elapsed < 5.0
    # each witness weight orders a reduced basis that holds its element, led
    # by the side the witness makes heavier
    assert set(u.witnesses) == {b.canonical() for b in u.elements}
    gens = build_ordinary_generators(code)
    for b, w in u.witnesses.items():
        lw = sum(a * c for a, c in zip(w, b.lhs))
        rw = sum(a * c for a, c in zip(w, b.rhs))
        assert lw != rw
        stored = {e.canonical(): e for e in buchberger(gens, WeightOrder(w, degrevlex(len(w))))}
        assert b in stored
        assert stored[b].lhs == (b.lhs if lw > rw else b.rhs)


def test_p31_universal_basis_holds_every_sampled_reduced_basis():
    # parity 1 5 9 17 over GF(31), past the bundled examples: 187 Graver
    # elements, 90 kept.  The sieve takes about 0.3 s on a 2-core x86 VM
    # (1.1 s with the LP over Fraction behind a float relaxation).  The 30
    # seeded weight orders reach 61 of the 90
    code = parity_code(31, 1, (0, 1), "1 5 9 17")
    graver = graver_ordinary(code)
    start = time.perf_counter()
    u = universal_basis(graver)
    elapsed = time.perf_counter() - start
    assert (len(graver), len(u)) == (187, 90)
    assert elapsed < 5.0
    gens = build_ordinary_generators(code)
    rng = random.Random(31)
    for _ in range(30):
        weights = [Fraction(rng.randrange(13), rng.randint(1, 6)) for _ in range(4)]
        for b in buchberger(gens, WeightOrder(weights, degrevlex(4))).elements:
            assert b in u.elements, (weights, b)
