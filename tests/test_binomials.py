"""Exponent-pair binomials, variable spaces and the generator builders."""

from fractions import Fraction

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
    field_relations_Iq,
    generalized_space,
    ordinary_space,
    slot_elements,
    split_pos_neg,
    substitute_ones,
    word_of_binomial,
)
from codegb.orders import degrevlex, lex


def test_variable_space_indexing():
    sp = VariableSpace(Block("x", (2, 3)), Block("y", 2))
    assert sp.dim == 8
    names = sp.names()
    assert names.index("x[1,1]") == 0
    assert names.index("x[2,3]") == 5
    assert names.index("y[2]") == 7
    assert names[4] == "x[2,2]"
    assert names[6] == "y[1]"
    assert list(sp.block_range("y")) == [6, 7]


def test_block_rejects_more_than_two_dimensions():
    with pytest.raises(ValueError, match="bad block shape"):
        Block("x", (2, 2, 2))
    with pytest.raises(ValueError, match="bad block shape"):
        Block("x", ())


def test_split_pos_neg():
    pos, neg = split_pos_neg((2, -1, 0, 3, -4))
    assert pos == (2, 0, 0, 3, 0)
    assert neg == (0, 1, 0, 0, 4)
    assert all(p == 0 or n == 0 for p, n in zip(pos, neg))


def test_binomial_rejects_equal_sides():
    with pytest.raises(ValueError):
        Binomial((1, 0), (1, 0))


@pytest.mark.parametrize("bad", [1.5, 1.0, Fraction(3, 2), Fraction(2, 1), "1"])
def test_binomial_takes_integral_exponents_only(bad):
    # int() would truncate 1.5 and Fraction(3, 2) to 1 and parse "1"
    with pytest.raises(TypeError):
        Binomial((bad, 0), (0, 1))
    with pytest.raises(TypeError):
        Binomial((0, 1), (0, bad))
    b = Binomial((True, 0), (0, 2))  # int subclasses pass, as ints
    assert b.lhs == (1, 0) and type(b.lhs[0]) is int


def test_canonical_orientation_and_dedup():
    a = Binomial((1, 0, 0), (0, 0, 1))
    b = Binomial((0, 0, 1), (1, 0, 0))
    assert a.canonical() == b.canonical()
    sp = VariableSpace(Block("x", (3, 1)))
    s = BinomialSet(sp, [a, b])
    assert len(s) == 1
    assert a in s and b in s


def test_listing_is_sorted_once_and_handed_out_as_a_copy():
    sp = VariableSpace(Block("x", (3, 1)))
    s = BinomialSet(sp, [Binomial((0, 0, 2), (1, 0, 0)), Binomial((1, 0, 0), (0, 1, 0))])
    listing = s.sorted()
    assert listing == sorted(listing, key=lambda b: (sum(b.lhs), b.lhs, b.rhs))
    listing.clear()  # the caller's list is its own
    assert list(s) == list(s) == s.sorted() and len(s.sorted()) == 2


def test_purity():
    g = Binomial((2, 1, 0), (0, 1, 1))
    assert not g.is_pure
    assert Binomial((1, 0), (0, 1)).is_pure


def test_substitute_ones_drops_collapsing_binomials():
    sp = VariableSpace(Block("x", (2, 1)), Block("y", (2, 1)))
    s = BinomialSet(
        sp,
        [
            Binomial((1, 0, 0, 1), (0, 1, 1, 0)),
            Binomial((1, 0, 1, 0), (1, 0, 0, 1)),  # differs only in y
        ],
    )
    t = substitute_ones(s, "y")
    assert t.space.dim == 2
    assert set(t) == {Binomial((1, 0), (0, 1)).canonical()}


def test_sorted_listing_is_deterministic():
    sp = VariableSpace(Block("x", (3, 1)))
    bs = [Binomial((0, 2, 0), (1, 0, 0)), Binomial((1, 0, 0), (0, 0, 1)), Binomial((0, 1, 1), (0, 0, 0))]
    s = BinomialSet(sp, bs)
    degs = [sum(b.lhs) for b in s.sorted()]
    assert degs == sorted(degs)


def test_field_relations_gf3(ff3):
    rels = field_relations_Iq(ff3, 2)
    sp = generalized_space(2, 3)
    want = set()
    for i in (0, 1):
        o = 2 * i
        e = lambda *ix: tuple(sum(1 for j in ix if j == k) for k in range(4))
        # x_i1^2 - x_i2, x_i1 x_i2 - 1, x_i2^2 - x_i1
        want.add(Binomial(e(o, o), e(o + 1)).canonical())
        want.add(Binomial(e(o, o + 1), e()).canonical())
        want.add(Binomial(e(o + 1, o + 1), e(o)).canonical())
    assert set(rels) == want
    assert rels.space == sp


def test_field_relations_gf4(ff4):
    rels = field_relations_Iq(ff4, 1)
    e = lambda *ix: tuple(sum(1 for j in ix if j == k) for k in range(3))
    want = {
        Binomial(e(0, 0), e()).canonical(),
        Binomial(e(1, 1), e()).canonical(),
        Binomial(e(2, 2), e()).canonical(),
        Binomial(e(0, 1), e(2)).canonical(),
        Binomial(e(0, 2), e(1)).canonical(),
        Binomial(e(1, 2), e(0)).canonical(),
    }
    assert set(rels) == want


def test_ordinary_generators_cover_generators_and_pth_powers(code_f3):
    gens = build_ordinary_generators(code_f3)
    assert gens.space == ordinary_space(3, 1)
    exps = {b.canonical() for b in gens}
    for i in range(3):
        cube = [0, 0, 0]
        cube[i] = 3
        assert Binomial(tuple(cube), (0, 0, 0)).canonical() in exps
    # every one-sided generator encodes a codeword
    for b in gens:
        w = word_of_binomial(code_f3, b, ORDINARY)
        assert w is not None and code_f3.contains(w)


def test_generalized_generators_encode_codewords(code_f4):
    gens = build_generalized_generators(code_f4)
    for b in gens:
        w = word_of_binomial(code_f4, b, GENERALIZED)
        assert w is not None and code_f4.contains(w)


def test_word_of_binomial_rejects_noncode_differences(code_f3):
    g = Binomial((1, 0, 0), (0, 0, 0))  # x1 - 1, word (1,0,0) is not in the code
    assert word_of_binomial(code_f3, g, ORDINARY) is None


def test_slot_elements_are_the_basis_or_the_powers(ff4, ff9):
    assert slot_elements(ff4, ORDINARY) == (ff4.alpha(), ff4.one())
    assert slot_elements(ff9, ORDINARY) == (ff9.one(), ff9.alpha())
    assert slot_elements(ff9, GENERALIZED) == tuple(ff9.from_power(t) for t in range(1, 9))
