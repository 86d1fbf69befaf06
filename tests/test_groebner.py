"""Reduced bases (the standard-monomial walk and the S-pair loop),
reduction and saturation."""

import os
import random
import subprocess
import sys
import time

import pytest

import codegb
from codegb.binomials import (
    GENERALIZED,
    ORDINARY,
    Binomial,
    BinomialSet,
    Block,
    DimensionMismatchError,
    InvariantError,
    VariableSpace,
    build_generalized_generators,
    build_ordinary_generators,
    word_of_binomial,
)
from codegb.codes import LinearCode
from codegb.fields import FiniteField
from codegb.groebner import (
    GroebnerBasis,
    _blocks,
    _Overflow,
    _Packed,
    _run,
    _unit_lattice,
    _widening,
    buchberger,
    reduce,
    saturate_all,
    saturate_variable,
)
from codegb.orders import GradedRevlexOrder, LexOrder, WeightOrder, degrevlex, lex
from test_graver import primitive_moduli, random_code


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
    "gens",
    [
        [((2, 0), (0, 0)), ((0, 3), (0, 0))],  # x0^2 - 1, x1^3 - 1: the walk's route
        [((1, 0), (0, 1))],  # x0 - x1: the S-pair loop's
    ],
    ids=["walk", "s-pair-loop"],
)
@pytest.mark.parametrize("u", [(1, 1, 5), (1,)], ids=["too-long", "too-short"])
def test_reduce_rejects_a_binomial_of_the_wrong_length(gens, u):
    # a side one variable too long was cut to the basis's length, and one
    # too short ran off its end
    gb = buchberger(bset(2, gens), degrevlex(2))
    with pytest.raises(DimensionMismatchError, match=f"length {len(u)} .* 2 variables"):
        reduce(Binomial(u, (0,) * len(u)), gb)


def test_reduce_takes_one_path_per_basis(monkeypatch):
    walked = buchberger(bset(2, [((2, 0), (0, 0)), ((0, 3), (0, 0))]), degrevlex(2))
    looped = buchberger(bset(2, [((1, 0), (0, 1))]), degrevlex(2))
    assert walked._tables is not None and looped._tables is None
    assert reduce(Binomial((1, 1), (0, 0)), looped) == Binomial((0, 2), (0, 0))
    # 1 is the least monomial, so a side that is 1 trails on either route
    assert reduce(Binomial((0, 0), (1, 1)), looped) == Binomial((0, 2), (0, 0))
    assert looped._packed is not None

    def no_packing(*args):
        raise AssertionError("a walked basis was packed")

    monkeypatch.setattr(codegb.groebner._Packed, "__init__", no_packing)
    # x0^5 * x1^7 is x0 * x1 modulo x0^2 - 1 and x1^3 - 1
    assert reduce(Binomial((5, 7), (0, 0)), walked) == Binomial((1, 1), (0, 0))
    assert reduce(Binomial((2, 3), (0, 0)), walked) is None
    # x0^2 * x1^3 falls to 1, so the sides swap
    assert reduce(Binomial((2, 3), (1, 0)), walked) == Binomial((1, 0), (0, 0))
    assert reduce(Binomial((0, 0), (5, 7)), walked) == Binomial((1, 1), (0, 0))
    assert walked._packed is None


def test_reduce_raises_on_a_class_missing_from_the_table():
    # two blocks, x0 and x1; the class of x1 loses its standard monomial
    gb = buchberger(bset(2, [((2, 0), (0, 0)), ((0, 3), (0, 0))]), degrevlex(2))
    classes, std = gb._tables[1]
    del std[classes.key((0, 1))]
    assert reduce(Binomial((3, 0), (0, 0)), gb) == Binomial((1, 0), (0, 0))
    for b in (Binomial((0, 4), (0, 0)), Binomial((0, 0), (1, 1))):
        with pytest.raises(InvariantError, match="class key has no standard monomial") as e:
            reduce(b, gb)
        assert e.value.stage == "class lookup"


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


def test_overflow_inside_a_normal_form_triggers_width_escalation():
    # every exponent of the generators fits 8-bit fields, but the S-pair of
    # x0^2 - 1 and x0 - x1^100 has x0 * x1^100 rewritten to x1^200 inside the
    # normal form, past the field's cap of 127, so the run at width 8 must
    # stop and buchberger retry wider
    g = bset(2, [((2, 0), (0, 0)), ((1, 0), (0, 100))])
    with pytest.raises(_Overflow):
        _run(g.sorted(), lex(2), g.space, 8)
    gb = buchberger(g, lex(2))
    assert set(gb.elements) == {Binomial((1, 0), (0, 100)), Binomial((0, 200), (0, 0))}


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


def s_pair_loop(gens, order):
    """The reduced basis by Buchberger's S-pair loop, whatever the input."""
    binoms = gens.sorted()
    return _widening(lambda width: _run(binoms, order, gens.space, width))


WALK_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


def positions_for_the_walk(p, width):
    """The most positions n with at most 12 variables and p^(n*width) <= 3^8,
    which bounds the number of standard monomials."""
    n = 0
    while (n + 1) * width <= 12 and p ** ((n + 1) * width) <= 3 ** 8:
        n += 1
    return n


def test_walk_equals_the_s_pair_loop_on_random_codes():
    # 150 seeded codes over GF(2), GF(3), GF(4), GF(5) and GF(9), both kinds,
    # under random primitive moduli and, half the time, a random basis; each
    # under lex or degrevlex with a random precedence, and every tenth under
    # a weight order on top.  The walk's element tuple, order included, must
    # be the S-pair loop's.  About 3 s on a 2-core x86 VM (budget: 15 s)
    moduli = {f: primitive_moduli(*f) for f in WALK_FIELDS}
    rng = random.Random(9)
    seen, rebased, kinds_of_order, split = set(), set(), set(), set()
    t0 = time.monotonic()
    checked = 0
    while checked < 150:
        drawn = random_code(rng, moduli, positions_for_the_walk)
        if drawn is None:
            continue
        kind, code = drawn
        ff = code.ff
        gens = build_ordinary_generators(code) if kind == ORDINARY else build_generalized_generators(code)
        dim = gens.space.dim
        hnf = _unit_lattice(gens.sorted(), dim)
        assert hnf is not None  # the walk's route
        split.add(len(_blocks(hnf, dim)) > 1)
        precedence = rng.sample(range(dim), dim)
        order = rng.choice([LexOrder, GradedRevlexOrder])(dim, precedence)
        if checked % 10 == 0:
            order = WeightOrder([rng.randrange(4) for _ in range(dim)], order)
        got = buchberger(gens, order).elements
        assert got == s_pair_loop(gens, order).elements, (kind, ff.modulus, ff.basis, code.H, order)
        checked += 1
        seen.add((ff.q, kind))
        kinds_of_order.add(type(order))
        if ff.basis != FiniteField(ff.p, ff.r, ff.modulus).basis:
            rebased.add(ff.q)
    assert time.monotonic() - t0 < 15.0
    assert seen == {(p ** r, kind) for p, r in WALK_FIELDS for kind in (ORDINARY, GENERALIZED)}
    assert rebased == {3, 4, 5, 9}  # GF(2) has one basis
    assert kinds_of_order == {LexOrder, GradedRevlexOrder, WeightOrder}
    assert split == {False, True}  # one block, and several walked apart


def test_walk_equals_the_s_pair_loop_on_random_lattices():
    # Code lattices contain pZ^N, so their class groups have exponent p and
    # a class key never carries into a later column.  These do: 200 seeded
    # ideals of 1-4 variables generated by x_i^c - 1 and random x^u - 1 and
    # x^u - x^v, under lex or degrevlex with a random precedence
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(1, 4)
        zero = (0,) * dim
        pairs = [(tuple(rng.randint(1, 6) * (i == j) for i in range(dim)), zero) for j in range(dim)]
        for _ in range(rng.randint(1, 3)):
            u = tuple(rng.randrange(4) for _ in range(dim))
            v = zero if rng.random() < 0.5 else tuple(rng.randrange(3) for _ in range(dim))
            if u != v:
                pairs.append((u, v))
        gens = bset(dim, pairs)
        assert _unit_lattice(gens.sorted(), dim) is not None
        order = rng.choice([LexOrder, GradedRevlexOrder])(dim, rng.sample(range(dim), dim))
        assert buchberger(gens, order).elements == s_pair_loop(gens, order).elements, (pairs, order)


@pytest.mark.parametrize(
    "rows,count",
    [
        # x1 + x2, x3 + x4 and x_i for i = 5..30: rank 28, 28 blocks
        (
            [[1, 1] + [0] * 28, [0, 0, 1, 1] + [0] * 26]
            + [[int(j == i) for j in range(30)] for i in range(4, 30)],
            30,
        ),
        # 20 copies of the [2,1] repetition code: rank 20, 20 blocks
        ([[int(j // 2 == i) for j in range(40)] for i in range(20)], 40),
    ],
    ids=["rank28-dim2", "20-repetition-codes"],
)
def test_walk_runs_per_block_of_the_lattice(rows, count):
    # 2^28 and 2^20 standard monomials in all, two in each block
    ff = FiniteField(2, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.from_int(e) for e in row] for row in rows])
    for gens in (build_ordinary_generators(code), build_generalized_generators(code)):
        dim = gens.space.dim
        for order in (lex(dim), degrevlex(dim)):
            t0 = time.monotonic()
            got = buchberger(gens, order)
            assert time.monotonic() - t0 < 1.0
            assert len(got) == count
            assert got.elements == s_pair_loop(gens, order).elements


@pytest.mark.parametrize(
    "gens,want",
    [
        ([((1, 0), (0, 1))], [((1, 0), (0, 1))]),  # x1 - x2: no variable is a unit
        ([((1, 1), (0, 0))], [((1, 1), (0, 0))]),  # x1*x2 - 1: a lattice of rank 1 in Z^2
    ],
    ids=["no-unit", "rank-1-of-2"],
)
@pytest.mark.parametrize("order", [lex, degrevlex])
def test_ideals_without_a_finite_quotient_take_the_s_pair_loop(monkeypatch, gens, want, order):
    s = bset(2, gens)
    assert _unit_lattice(s.sorted(), 2) is None

    def no_walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(codegb.groebner, "_walk", no_walk)
    assert [(b.lhs, b.rhs) for b in buchberger(s, order(2)).elements] == want


def assert_tables_give_the_packed_normal_forms(gb, pairs):
    """reduce on the walked basis gb agrees on every pair (u, v) with the
    packed normal form over gb's elements, and leaves gb unpacked."""
    assert gb._tables is not None

    def oracle(width):
        pk = _Packed(gb.space.dim, width, gb.elements)
        return [(pk.normal_form(u), pk.normal_form(v)) for u, v in pairs]

    for (u, v), (nu, nv) in zip(pairs, _widening(oracle)):
        out = reduce(Binomial(u, v), gb)
        if nu == nv:
            assert out is None, (u, v, gb.elements)
        else:
            assert {out.lhs, out.rhs} == {nu, nv}, (u, v, gb.elements)
            assert gb.order.compare(out.lhs, out.rhs) == 1
    assert gb._packed is None


def random_pairs(rng, dim, top, count):
    """`count` pairs of distinct exponent vectors with entries below `top`,
    the first side 0 a quarter of the time and the second side 0 half the
    time (never both)."""
    zero = (0,) * dim
    pairs = []
    while len(pairs) < count:
        r = rng.random()
        u = zero if r < 0.25 else tuple(rng.randrange(top) for _ in range(dim))
        v = zero if r >= 0.5 else tuple(rng.randrange(top) for _ in range(dim))
        if u != v:
            pairs.append((u, v))
    return pairs


def test_table_normal_forms_equal_the_packed_normal_forms_on_random_codes():
    # 150 seeded codes as in the walk's sweep above, 20 binomials each with
    # exponents below 2p + 1.  About 0.6 s on a 2-core x86 VM (budget: 15 s)
    moduli = {f: primitive_moduli(*f) for f in WALK_FIELDS}
    rng = random.Random(10)
    seen = set()
    t0 = time.monotonic()
    checked = 0
    while checked < 150:
        drawn = random_code(rng, moduli, positions_for_the_walk)
        if drawn is None:
            continue
        kind, code = drawn
        gens = build_ordinary_generators(code) if kind == ORDINARY else build_generalized_generators(code)
        dim = gens.space.dim
        order = rng.choice([LexOrder, GradedRevlexOrder])(dim, rng.sample(range(dim), dim))
        if checked % 10 == 0:
            order = WeightOrder([rng.randrange(4) for _ in range(dim)], order)
        gb = buchberger(gens, order)
        assert_tables_give_the_packed_normal_forms(gb, random_pairs(rng, dim, 2 * code.ff.p + 1, 20))
        checked += 1
        seen.add((code.ff.q, kind))
    assert time.monotonic() - t0 < 15.0
    assert seen == {(p ** r, kind) for p, r in WALK_FIELDS for kind in (ORDINARY, GENERALIZED)}


def test_table_normal_forms_equal_the_packed_normal_forms_on_random_lattices():
    # the lattices of the walk's sweep above, whose class keys carry into
    # later columns, with exponents up to 3 times the largest generator's
    rng = random.Random(12)
    carried = 0
    for _ in range(200):
        dim = rng.randint(1, 4)
        zero = (0,) * dim
        pairs = [(tuple(rng.randint(1, 6) * (i == j) for i in range(dim)), zero) for j in range(dim)]
        for _ in range(rng.randint(1, 3)):
            u = tuple(rng.randrange(4) for _ in range(dim))
            v = zero if rng.random() < 0.5 else tuple(rng.randrange(3) for _ in range(dim))
            if u != v:
                pairs.append((u, v))
        gens = bset(dim, pairs)
        order = rng.choice([LexOrder, GradedRevlexOrder])(dim, rng.sample(range(dim), dim))
        gb = buchberger(gens, order)
        carried += any(tail for classes, _ in gb._tables for tail in classes.tails)
        assert_tables_give_the_packed_normal_forms(gb, random_pairs(rng, dim, 19, 20))
    assert carried > 0  # some key reductions carry into a later column


GOLAY23_POLY = [1, 1, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1]  # 1 + x + x^5 + x^6 + x^7 + x^9 + x^11


def test_golay23_decodes_to_coset_leaders():
    # The binary Golay [23,12] code is perfect and corrects 3 errors: every
    # coset holds one word of weight <= 3, and degrevlex makes it the
    # standard monomial.  So the normal form of a random word has weight
    # <= 3 and differs from it by a codeword, and a word of weight <= 3 is
    # its own normal form.  The packed normal form takes about 1.2 ms a word
    # on the 8878-element basis; the class lookup about 0.015 ms on a 2-core
    # x86 VM (budget: 1 ms)
    ff = FiniteField(2, 1, (0, 1))
    rows = [[0] * i + GOLAY23_POLY + [0] * (11 - i) for i in range(12)]
    code = LinearCode.from_generator(ff, [[ff.from_int(e) for e in row] for row in rows])
    gens = build_ordinary_generators(code)
    gb = buchberger(gens, degrevlex(23))
    assert len(gb) == 8878
    zero = (0,) * 23
    rng = random.Random(23)
    words = [tuple(rng.randrange(2) for _ in range(23)) for _ in range(1000)]
    words = [w for w in words if any(w)]
    t0 = time.monotonic()
    outs = [reduce(Binomial(w, zero), gb) for w in words]
    assert (time.monotonic() - t0) / len(words) < 1e-3
    for w, out in zip(words, outs):
        nf = zero if out is None else out.lhs
        assert out is None or out.rhs == zero
        assert sum(nf) <= 3
        assert word_of_binomial(code, Binomial(w, nf), ORDINARY) is not None
    for _ in range(300):
        support = rng.sample(range(23), rng.randint(1, 3))
        w = tuple(int(i in support) for i in range(23))
        assert reduce(Binomial(w, zero), gb) == Binomial(w, zero)
    assert gb._packed is None


def failure_under_python_O(patch, call="groebner.buchberger(gens, degrevlex(3))"):
    """The stage and message of the InvariantError that `call` raises under
    python -O on the ternary [3,2] code ideal `gens` after `patch` runs."""
    script = "\n".join([
        "import heapq",
        "import types",
        "import codegb.groebner as groebner",
        "from codegb import FiniteField, InvariantError, LinearCode",
        "from codegb.binomials import Binomial, build_ordinary_generators",
        "from codegb.orders import degrevlex",
        "assert False, 'python -O strips this'",
        patch,
        "ff = FiniteField(3, 1, (0, 1))",
        "code = LinearCode.from_parity(ff, [[ff.from_int(e) for e in (1, 2, 1)]])",
        "gens = build_ordinary_generators(code)",
        "try:",
        f"    {call}",
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
    return out.stdout.splitlines()


@pytest.mark.parametrize(
    "patch,problem",
    [
        (
            "groebner._Classes.step = lambda self, key, j: key  # every monomial in the class of 1",
            "number of standard monomials is not the lattice index 3: 1",
        ),
        (
            "groebner.heapq = types.SimpleNamespace(heappop=heapq.heappop, heappush=lambda h, e: "
            "[heapq.heappush(h, e) for _ in 'ab'])  # every border monomial is popped twice",
            "trail equals its leading monomial: (",
        ),
    ],
    ids=["count", "trail"],
)
def test_walk_invariants_still_fire_under_python_O(patch, problem):
    stage, message = failure_under_python_O(patch)
    assert stage == "standard-monomial walk"
    assert message.startswith(f"{stage}: {problem}")


def test_class_lookup_invariant_still_fires_under_python_O():
    # the walked basis loses the class of x0, whose normal form is then unknown
    patch = "\n".join([
        "def lose_a_class(gb):",
        "    classes, std = gb._tables[0]",
        "    del std[classes.key((1, 0, 0))]",
        "    return gb",
    ])
    call = "groebner.reduce(Binomial((1, 0, 0), (0, 0, 0)), lose_a_class(groebner.buchberger(gens, degrevlex(3))))"
    stage, message = failure_under_python_O(patch, call)
    assert stage == "class lookup"
    assert message.startswith(f"{stage}: class key has no standard monomial")
