"""Buchberger engine: reduction, reduced bases, saturation."""

import random

import pytest

from codegb.binomials import (
    GENERALIZED,
    ORDINARY,
    Binomial,
    BinomialSet,
    Block,
    VariableSpace,
    build_generalized_generators,
    build_ordinary_generators,
    word_of_binomial,
)
from codegb.groebner import GroebnerBasis, buchberger, reduce, saturate_all, saturate_variable
from codegb.orders import LexOrder, degrevlex, lex


def space(n):
    return VariableSpace(Block("x", (n, 1)))


def bset(n, pairs):
    return BinomialSet(space(n), [Binomial(l, r) for l, r in pairs])


def canon(binomials):
    return {b.canonical() for b in binomials}


def test_reduce_rewrites_by_the_leading_side():
    gb = buchberger(bset(3, [((1, 0, 0), (0, 0, 1))]), degrevlex(3))
    out = reduce(Binomial((1, 0, 1), (0, 1, 0)), gb)
    assert out == Binomial((0, 0, 2), (0, 1, 0)).canonical()


def test_reduce_to_zero_returns_none():
    gb = buchberger(bset(2, [((1, 0), (0, 1))]), degrevlex(2))
    assert reduce(Binomial((2, 0), (0, 2)), gb) is None


def test_reduce_widens_past_the_packed_field():
    # 200 does not fit the narrowest packed field, so reduce must retry wider
    gb = buchberger(bset(2, [((1, 0), (0, 1))]), lex(2))
    assert reduce(Binomial((200, 0), (0, 0)), gb) == Binomial((0, 200), (0, 0))


@pytest.mark.parametrize(
    "code_name,kind,build",
    [
        ("code_f9", ORDINARY, build_ordinary_generators),
        ("code_f4", GENERALIZED, build_generalized_generators),
    ],
)
def test_normal_forms_of_random_words(request, code_name, kind, build):
    code = request.getfixturevalue(code_name)
    gens = build(code)
    gb = buchberger(gens, degrevlex(gens.space.dim))
    leads = [b.lhs for b in gb.elements]
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))
    zero = (0,) * gens.space.dim
    rng = random.Random(11)
    for _ in range(200):
        w = tuple(rng.randrange(4) for _ in zero)
        if w == zero:
            continue
        out = reduce(Binomial(w, zero), gb)
        nf = zero if out is None else out.lhs
        if out is not None:
            assert out.rhs == zero
            for side in (out.lhs, out.rhs):
                assert not any(divides(l, side) for l in leads)
        if nf != w:
            # x^w and its normal form differ by a codeword
            assert word_of_binomial(code, Binomial(w, nf), kind) is not None


def test_principal_ideal_is_its_own_basis():
    g = bset(2, [((2, 0), (0, 1))])
    gb = buchberger(g, lex(2))
    assert canon(gb.binomials) == canon(g)


def test_f4_lex_basis_matches_the_published_listing(code_f4):
    from codegb.matrices import build_Hplus_e, extend_with_pI
    from codegb.toric import toric_ideal

    sp = VariableSpace(Block("x", (3, 3)), Block("y", 2))
    gens = toric_ideal(extend_with_pI(build_Hplus_e(code_f4), 2), sp)
    gb = buchberger(gens, LexOrder(sp.dim))
    e = [0] * 11

    def mono(*pairs):
        v = list(e)
        for i, c in pairs:
            v[i] = c
        return tuple(v)

    want = {
        Binomial(mono((0, 1)), mono((8, 1))),   # x11 - x33
        Binomial(mono((1, 1)), mono((6, 1))),   # x12 - x31
        Binomial(mono((2, 1)), mono((7, 1))),   # x13 - x32
        Binomial(mono((3, 1)), mono((7, 1))),   # x21 - x32
        Binomial(mono((4, 1)), mono((8, 1))),   # x22 - x33
        Binomial(mono((5, 1)), mono((6, 1))),   # x23 - x31
        Binomial(mono((6, 2)), mono((10, 1))),  # x31^2 - y2
        Binomial(mono((6, 1), (7, 1)), mono((8, 1))),  # x31 x32 - x33
        Binomial(mono((6, 1), (8, 1)), mono((7, 1), (10, 1))),  # x31 x33 - x32 y2
        Binomial(mono((6, 1), (9, 1)), mono((7, 1), (8, 1))),   # x31 y1 - x32 x33
        Binomial(mono((7, 2)), mono((9, 1))),   # x32^2 - y1
        Binomial(mono((8, 2)), mono((9, 1), (10, 1))),  # x33^2 - y1 y2
    }
    assert canon(gb.binomials) == canon(want)


def test_reduced_basis_is_unique_under_generator_shuffles(code_f3):
    gens = build_ordinary_generators(code_f3)
    base = buchberger(gens, degrevlex(3))
    rng = random.Random(7)
    items = list(gens)
    for _ in range(5):
        rng.shuffle(items)
        again = buchberger(BinomialSet(gens.space, items), degrevlex(3))
        assert canon(again.binomials) == canon(base.binomials)


def test_leading_sides_are_stored_first(code_f3):
    gens = build_ordinary_generators(code_f3)
    for order in (lex(3), degrevlex(3)):
        gb = buchberger(gens, order)
        for b in gb.elements:
            assert order.compare(b.lhs, b.rhs) == 1


def test_basis_is_autoreduced(code_f3):
    gens = build_ordinary_generators(code_f3)
    gb = buchberger(gens, lex(3))
    leads = [b.lhs for b in gb.elements]
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))
    for i, b in enumerate(gb.elements):
        for j, l in enumerate(leads):
            if i != j:
                assert not divides(l, b.lhs)
            assert not divides(l, b.rhs)


def test_wide_exponents_trigger_width_escalation():
    # exponents past 127 force the packed representation onto wider words
    g = bset(2, [((300, 0), (0, 1))])
    gb = buchberger(g, lex(2))
    assert canon(gb.binomials) == canon(g)


@pytest.mark.parametrize(
    "gens,var,want",
    [
        ([((1, 1, 0), (0, 2, 0))], 1, [((1, 0, 0), (0, 1, 0))]),
        ([((2, 0, 1), (0, 1, 1))], 2, [((2, 0, 0), (0, 1, 0))]),
    ],
)
def test_saturate_variable(gens, var, want):
    out = saturate_variable(bset(3, gens), var)
    assert canon(out) == canon(bset(3, want))


def test_saturate_all():
    out = saturate_all(bset(3, [((1, 1, 0), (0, 1, 1))]))
    assert canon(out) == canon(bset(3, [((1, 0, 0), (0, 0, 1))]))


def test_saturation_accepts_a_positive_grading():
    s = bset(3, [((1, 1, 0), (0, 2, 0))])
    out = saturate_variable(s, 1, grading=(2, 1, 1))
    assert canon(out) == canon(bset(3, [((1, 0, 0), (0, 1, 0))]))
