"""Graver bases by the zero-sum walk or the codewords, per component of the
code, cross-checked by the completion, by the Lawrence route and by brute
force."""

import heapq
import itertools
import os
import random
import subprocess
import sys
import time
from typing import Sequence

import pytest

import codegb
from codegb.binomials import (
    GENERALIZED,
    ORDINARY,
    Binomial,
    BinomialSet,
    Block,
    InvariantError,
    VariableSpace,
    build_generalized_generators,
    build_ordinary_generators,
    slot_elements,
    split_pos_neg,
    word_of_binomial,
)
from codegb.cli import parse_input
from codegb.codes import LinearCode, rank
from codegb.fields import DependentBasisError, FiniteField, NonPrimitiveModulusError
from codegb.graver import (
    GraverBasis,
    SearchSpaceTooLargeError,
    _code_components,
    _codeword_test,
    _codeword_vectors,
    _group,
    _position_bricks,
    _walk_bound,
    _walk_vectors,
    graver_bruteforce,
    graver_generalized,
    graver_lawrence,
    graver_ordinary,
)
from codegb.groebner import _Packed, _widening
from codegb.matrices import build_He, build_Hplus_e, extend_with_pI
from codegb.toric import kernel_basis
from codegb.universal import universal_basis


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


@pytest.fixture
def routes(monkeypatch):
    """The enumeration that each component of a Graver run takes, in order:
    "walk" or "codewords"."""
    taken = []
    for name, attr in (("walk", "_walk_vectors"), ("codewords", "_codeword_vectors")):
        f = getattr(codegb.graver, attr)
        monkeypatch.setattr(codegb.graver, attr, lambda *a, f=f, name=name: taken.append(name) or f(*a))
    return taken


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


# code_f9 of the generalized kind (24 variables) takes the Lawrence route
# more than minutes; test_code_f9_generalized_basis_is_primitive checks it
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


def random_code(rng, moduli, most_positions):
    """(kind, code) for a random full-rank parity matrix over one of the
    fields that `moduli` maps to their primitive moduli, under a random one
    of them and half the time a random basis, with at most
    most_positions(p, variables per position) positions; None when the draw
    gives no code."""
    p, r = rng.choice(list(moduli))
    ff = FiniteField(p, r, rng.choice(moduli[p, r]))
    if rng.random() < 0.5:
        try:
            ff = ff.with_basis([ff.from_power(rng.randrange(1, ff.q)) for _ in range(r)])
        except DependentBasisError:
            return None
    kind = rng.choice([ORDINARY, GENERALIZED])
    most = most_positions(p, len(slot_elements(ff, kind)))
    if not most:
        return None
    n = rng.randint(1, most)
    m = rng.randint(1, n)
    rows = [[rng.choice(ff.elements()) for _ in range(n)] for _ in range(m)]
    if rank(ff, rows) < m:
        return None
    return kind, LinearCode.from_parity(ff, rows)


def test_completion_equals_bruteforce_on_random_codes():
    # 200 seeded codes: the Graver route (the walk or the codewords, per
    # component) against the exhaustive oracle; about 2 s on a 2-core x86 VM
    # (budget: 15 s)
    moduli = {f: primitive_moduli(*f) for f in CROSS_CHECK_FIELDS}
    rng = random.Random(7)
    seen, rebased = set(), set()
    t0 = time.monotonic()
    checked = 0
    while checked < 200:
        drawn = random_code(rng, moduli, positions_under_cap)
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


# ------------------------------------------------ the completion oracle
# The completion procedure of Pottier ("The Euclidean algorithm in dimension
# n", ISSAC 1996) and Hemmecke ("On the positive sum property and the
# computation of Graver test sets", Math. Prog. 96, 2002): the primitive
# vectors of a lattice from any basis of it, against which the tests check
# both Graver enumerations of codegb.graver.


def _primitive_vectors(gens: Sequence[Sequence[int]], dim: int) -> list:
    """One of each pair +-v of the primitive vectors of the lattice that gens
    span over Z.

    Completion: every generator, and every sum f + g of two elements found so
    far, is reduced conformally by the elements found so far, and a nonzero
    remainder becomes a new element.  When no sum is left, every lattice
    vector is a conformal sum of elements (the positive sum property), so the
    ⊑-minimal elements are the primitive vectors.  Sums are taken smallest
    1-norm first (the normal strategy).  A sum f + g with f_i g_i >= 0 for
    every i is skipped: f ⊑ f + g, and reducing by f leaves g, which reduces
    to zero.  Elements are stored up to sign, so the pairs are the sums of f
    with g and with -g.

    The reduction is the normal form of a groebner._Packed, the one that
    Buchberger's loop uses, in doubled variables x, y: u ⊑ v exactly when
    x^(u+) y^(u-) divides x^(v+) y^(v-) (the Lawrence lifting; Sturmfels,
    "Gröbner Bases and Convex Polytopes", 1996, Ch. 7).  So v is
    x^(v+) y^(v-), each element u gives the rules x^(u+) y^(u-) -> 1 and
    x^(u-) y^(u+) -> 1 (_add_rules), and the rule of +-u applies exactly
    when +-u ⊑ v, leaving v -+ u.  The support mask of
    x^(u+) y^(u-) marks the positive entries of u in its x half and the
    negative ones in its y half, so f + g cancels somewhere exactly when the
    masks of f and -g meet.  A sum with an entry past the fields' cap starts
    the completion over on fields twice as wide.
    """

    def attempt(width: int) -> list:
        found = _Packed(2 * dim, width)
        masks = found.lead_sm  # of u and -u, at 2k and 2k + 1 for the k-th element u
        vectors, pairs = [], []

        def insert_remainder(v) -> None:
            m = found.normalize(found.pack(_doubled(v)))
            if not m:
                return
            r = found.unpack(m)
            f = tuple(a - b for a, b in zip(r[:dim], r[dim:]))
            k = len(vectors)
            vectors.append(f)
            _add_rules(found, f)
            mask = masks[2 * k]
            for j in range(k):
                g = vectors[j]
                if mask & masks[2 * j + 1]:  # f + g cancels somewhere
                    heapq.heappush(pairs, (sum(abs(a + b) for a, b in zip(f, g)), k, j, 1))
                if mask & masks[2 * j]:  # f - g cancels somewhere
                    heapq.heappush(pairs, (sum(abs(a - b) for a, b in zip(f, g)), k, j, -1))

        for g in gens:
            insert_remainder(g)
        while pairs:
            _, k, j, sign = heapq.heappop(pairs)
            insert_remainder([a + sign * b for a, b in zip(vectors[k], vectors[j])])

        # an element is kept unless a kept one of smaller norm is conformal to it
        minimal = _Packed(2 * dim, width)
        kept = []
        for v in sorted(vectors, key=lambda v: sum(map(abs, v))):
            m = minimal.pack(_doubled(v))
            if minimal.normalize(m) == m:
                kept.append(v)
                _add_rules(minimal, v)
        return kept

    # start with fields that hold the sum of two generators
    bound = max((abs(e) for v in gens for e in v), default=1)
    return _widening(attempt, (2 * bound).bit_length() + 1)


def _doubled(v) -> list:
    """The exponents of x^(v+) y^(v-), for the x variables followed by the y."""
    return [e if e > 0 else 0 for e in v] + [-e if e < 0 else 0 for e in v]


def _add_rules(pk: _Packed, u) -> None:
    """The rules x^(u+) y^(u-) -> 1 and x^(u-) y^(u+) -> 1."""
    pk.add(pk.pack(_doubled(u)), 0)
    pk.add(pk.pack(_doubled([-e for e in u])), 0)


def lattice_matrix(code, kind):
    return build_Hplus_e(code) if kind == GENERALIZED else build_He(code)


def lattice_generators(code, kind):
    """A basis of L: (d, z) is in the kernel of (M | pI) exactly when
    M d = -p z, so the first N coordinates of a kernel basis span L."""
    mat = lattice_matrix(code, kind)
    return [v[:mat.ncols] for v in kernel_basis(extend_with_pI(mat, code.ff.p))]


def completion(code, kind):
    """The primitive vectors of L by completion, as binomials."""
    space = VariableSpace(Block("x", (code.n, len(slot_elements(code.ff, kind)))))
    vectors = _primitive_vectors(lattice_generators(code, kind), space.dim)
    return BinomialSet(space, [Binomial(*split_pos_neg(v)) for v in vectors])


# GF(3), GF(5), GF(7) and GF(9); the completion's time grows steeply and
# unevenly with p and the number of variables (a [6,3] code over GF(7) took
# more than two minutes), so the variables per code are capped by p
ODD_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2)]
ODD_VARIABLES = {3: 6, 5: 4, 7: 4}


def test_brick_route_equals_the_completion_on_random_codes():
    # 144 seeded codes over GF(3), GF(5), GF(7) and GF(9), both kinds, with at
    # most ODD_VARIABLES[p] variables, then four generalized codes over GF(7)
    # and GF(9) (6 and 8 variables per position), which the exhaustive sweep
    # cannot reach.  The completion finishes on those only when the code
    # splits into single positions: every codeword has weight at most one.
    # About 9 s on a 2-core x86 VM, nearly all of it the completion; the
    # brick route takes about 0.1 s (budget: 30 s)
    moduli = {f: primitive_moduli(*f) for f in ODD_FIELDS}
    rng = random.Random(19)
    seen, rebased = set(), set()
    zero_columns = 0
    t0 = time.monotonic()

    def check(drawn):
        nonlocal zero_columns
        kind, code = drawn
        ff = code.ff
        assert run(code, kind).elements == completion(code, kind), (kind, ff.modulus, ff.basis, code.H)
        seen.add((ff.q, kind))
        zero_columns += any(not any(col) for col in zip(*code.H))
        if ff.basis != FiniteField(ff.p, ff.r, ff.modulus).basis:
            rebased.add(ff.q)

    checked = 0
    while checked < 144:
        drawn = random_code(rng, moduli, lambda p, width: ODD_VARIABLES[p] // width)
        if drawn is not None:
            check(drawn)
            checked += 1
    for field in [(7, 1)] * 3 + [(3, 2)]:
        while True:
            drawn = random_code(rng, {field: moduli[field]}, lambda p, width: 2 * (width > 2))
            if drawn is not None and all(sum(map(bool, w)) <= 1 for w in drawn[1].codewords()):
                break
        check(drawn)
    assert time.monotonic() - t0 < 30.0
    fields = {p ** r for p, r in ODD_FIELDS}
    assert seen == {(q, kind) for q in fields for kind in (ORDINARY, GENERALIZED)}
    assert rebased == fields and zero_columns > 0


def test_ternary_code_with_no_parity_rows():
    # k = n: the code is everything, every column of H is zero, and the
    # Graver basis is the units, one per variable
    ff = FiniteField(3, 1, (0, 1))
    code = LinearCode.from_generator(ff, [[ff.one(), ff.zero()], [ff.zero(), ff.one()]])
    assert code.m == 0
    for kind in (ORDINARY, GENERALIZED):
        g = run(code, kind)
        assert g == graver_bruteforce(code, kind)
        assert len(g) == code.n * len(slot_elements(ff, kind))


GOLAY_GENERATOR = (2, 0, 1, 2, 1, 1)  # x^5 + x^4 + 2x^3 + x^2 + 2, constant first


def ternary_golay_code():
    """The cyclic ternary Golay [11,6] code."""
    ff = FiniteField(3, 1, (0, 1))
    g = [ff.from_int(c) for c in GOLAY_GENERATOR]
    rows = [[g[j - i] if 0 <= j - i < len(g) else ff.zero() for j in range(11)] for i in range(6)]
    return LinearCode.from_generator(ff, rows)


@pytest.mark.parametrize(
    "name,count,budget",
    [
        # 46-51 s by completion
        ("f5gen3", 1458, 1.0),
        # 496 s by completion
        ("f7gen2", 2974, 2.0),
        # the completion gave no result in 4 min on f9gen2, and was not run
        # on the others
        ("f9gen2", 7080, 3.0),
        ("f7gen3", 16623, 6.0),
        ("tgolay", 15675, 6.0),
        # 3.6 s by the codewords, 3^11 of them; 7 ms by the walk
        ("t1-12", 430, 1.0),
    ],
)
def test_odd_codes_past_the_completion(name, count, budget):
    # about 0.05, 0.1, 0.3, 0.7, 0.6 and 0.01 s on a 2-core x86 VM
    documents = {
        "f5gen3": ("field p=5 r=1 modulus=0,1\nparity 1 2 3\n", GENERALIZED),
        "f7gen2": ("field p=7 r=1 modulus=0,1\nparity 1 3\n", GENERALIZED),
        "f9gen2": ("field p=3 r=2 modulus=2,1,1\nparity a 1\n", GENERALIZED),
        "f7gen3": ("field p=7 r=1 modulus=0,1\nparity 1 2 3\n", GENERALIZED),
        "t1-12": ("field p=3 r=1 modulus=0,1\nparity" + " 1" * 12 + "\n", ORDINARY),
    }
    if name == "tgolay":
        code, kind = ternary_golay_code(), ORDINARY
        assert code.m == 5 and min(sum(map(bool, w)) for w in code.codewords() if any(w)) == 5
    else:
        text, kind = documents[name]
        code = code_of(text)
    g, elapsed = timed(code, kind)
    assert len(g) == count and elapsed < budget


def test_code_f9_generalized_basis_is_primitive(code_f9):
    # no oracle finishes on code_f9 of the generalized kind (24 variables),
    # so the set is checked by its defining properties: every element
    # encodes a codeword; no element is conformal to another; and the
    # lattice generators, and 300 seeded sums f +- g of elements, reduce to
    # zero over the set, so the set generates L conformally on them
    t0 = time.monotonic()
    g = graver_generalized(code_f9)
    elapsed = time.monotonic() - t0
    assert len(g) == 7492 and elapsed < 3.0
    vectors = [tuple(a - b for a, b in zip(e.lhs, e.rhs)) for e in g]
    encodes = _codeword_test(build_Hplus_e(code_f9), 3, max(max(sum(e.lhs), sum(e.rhs)) for e in g))
    assert all(encodes(e) for e in g)
    # both signs of every element; within[i][a] holds the elements u with
    # u_i between 0 and a, so the elements conformal to v are the AND of
    # within[i][v_i] over i, which must be v alone
    signed = vectors + [tuple(-a for a in v) for v in vectors]
    within = []
    for i in range(len(signed[0])):
        exact = {}
        for k, v in enumerate(signed):
            exact[v[i]] = exact.get(v[i], 0) | 1 << k
        within.append({a: sum(bits for b, bits in exact.items() if b * a >= 0 and abs(b) <= abs(a))
                       for a in exact})
    for k, v in enumerate(signed):
        below = -1
        for i, a in enumerate(v):
            below &= within[i][a]
        assert below == 1 << k, v
    # the conformal normal form: x^(v+) y^(v-) by the rules x^(u+) y^(u-) -> 1
    # and x^(u-) y^(u+) -> 1 of every element u
    found = _Packed(2 * len(vectors[0]), 8)
    for v in vectors:
        _add_rules(found, v)
    rng = random.Random(23)
    sums = [tuple(a + s * b for a, b in zip(rng.choice(vectors), rng.choice(vectors)))
            for s in (1, -1) for _ in range(150)]
    for v in lattice_generators(code_f9, GENERALIZED) + sums:
        assert found.normalize(found.pack(_doubled(v))) == 0, v


def test_copies_of_a_ternary_code_are_split_into_components():
    # 12 copies of the ternary [2,1] code of parity 1 1: 3^12 codewords in
    # all, but three per component
    def copies(k):
        return code_of("field p=3 r=1 modulus=0,1\n" + "".join(
            "parity " + " ".join("1" if j // 2 == i else "0" for j in range(2 * k)) + "\n"
            for i in range(k)))

    one = len(run(copies(1), ORDINARY))
    g, elapsed = timed(copies(12), ORDINARY)
    assert len(g) == 12 * one and elapsed < 0.5


# GF(2), GF(4) and GF(8); 9 variables keep the completion under a second
BINARY_FIELDS = [(2, 1), (2, 2), (2, 3)]
COMPLETION_VARIABLES = 9


def test_circuit_lifts_equal_the_completion_on_random_codes():
    # 150 seeded binary codes, reaching the generalized GF(8) ideals that the
    # exhaustive sweep cannot: the Graver route, whose elements are the sign
    # lifts of circuits (the p = 2 corollary), against the completion run on
    # generators of the lattice; about 3 s on a 2-core x86 VM (budget: 20 s)
    moduli = {f: primitive_moduli(*f) for f in BINARY_FIELDS}
    rng = random.Random(8)
    seen, rebased = set(), set()
    zero_columns = 0
    t0 = time.monotonic()
    checked = 0
    while checked < 150:
        drawn = random_code(rng, moduli, lambda p, width: COMPLETION_VARIABLES // width)
        if drawn is None:
            continue
        kind, code = drawn
        ff = code.ff
        assert run(code, kind).elements == completion(code, kind), (kind, ff.modulus, ff.basis, code.H)
        checked += 1
        seen.add((ff.q, kind))
        zero_columns += any(not any(col) for col in zip(*lattice_matrix(code, kind)))
        if ff.basis != FiniteField(ff.p, ff.r, ff.modulus).basis:
            rebased.add(ff.q)
    assert time.monotonic() - t0 < 20.0
    assert seen == {(q, kind) for q in (2, 4, 8) for kind in (ORDINARY, GENERALIZED)}
    assert rebased == {4, 8} and zero_columns > 0


def circuit_sizes(g):
    """{|S|: number of circuits S} read off the +-1 elements of a binary
    Graver basis, which has 2^(|S|-1) of them per circuit."""
    lifts = {}
    for b in g.elements:
        if max(b.lhs + b.rhs) == 1:
            size = sum(b.lhs + b.rhs)
            lifts[size] = lifts.get(size, 0) + 1
    return {size: count // 2 ** (size - 1) for size, count in lifts.items()}


@pytest.mark.parametrize(
    "text,kind,count,budget",
    [
        # bin11: 4.5 s by completion
        (
            "field p=2 r=1 modulus=0,1\n"
            "parity 1 0 0 0 1 1 0 1 1 0 1\nparity 0 1 0 0 1 0 1 1 1 1 0\n"
            "parity 0 0 1 0 0 1 1 1 0 1 1\nparity 0 0 0 1 1 1 1 0 1 1 1\n",
            ORDINARY, 377, 1.0,
        ),
        # f8-n2: 56-69 s by completion
        ("field p=2 r=3 modulus=1,1,0,1\nparity a 1\n", GENERALIZED, 1148, 1.0),
    ],
    ids=["bin11", "f8-n2"],
)
def test_binary_codes_past_the_completion(text, kind, count, budget):
    g, elapsed = timed(code_of(text), kind)
    assert len(g) == count and elapsed < budget


def test_f8_n3_graver_and_universal_bases():
    # no Graver basis in 10 min by completion; 21 squares x_i^2 - 1 and the
    # sign lifts of 777 circuits, and the universal basis drops the 777
    # one-sided x^S - 1
    code = code_of("field p=2 r=3 modulus=1,1,0,1\nparity 1 a a^3\n")
    t0 = time.monotonic()
    g = graver_generalized(code)
    u = universal_basis(g)
    elapsed = time.monotonic() - t0
    assert len(g) == 5355 and len(u) == 4578 and elapsed < 5.0
    assert circuit_sizes(g) == {2: 21, 3: 189, 4: 567}
    assert sum(1 for b in g.elements if max(b.lhs + b.rhs) == 2) == 21


def test_circuits_of_a_connected_matroid_of_high_rank_and_small_dimension(routes):
    # the graphic matroid of a theta graph, paths of 6, 6 and 7 edges between
    # two vertices, one vertex row dropped for full rank: 19 positions, rank
    # 17, dimension 2 and three circuits, of 12, 13 and 13 edges.  The
    # codewords are 4 against more than 2^18 zero-sum-free vectors
    rows, vertex = [], 2
    for length in (6, 6, 7):
        path = [0] + list(range(vertex, vertex + length - 1)) + [1]
        vertex += length - 1
        rows += [(a, b) for a, b in zip(path, path[1:])]
    incidence = [[int(v in edge) for edge in rows] for v in range(1, vertex)]
    code = code_of(parity_document(incidence))
    assert (code.n, code.m, code.k) == (19, 17, 2)
    g, elapsed = timed(code, ORDINARY)
    assert routes == ["codewords"]
    assert elapsed < 2.0
    assert len(g) == 10259 and circuit_sizes(g) == {12: 1, 13: 2}


def parity_document(rows):
    return "field p=2 r=1 modulus=0,1\n" + "".join(
        "parity " + " ".join(map(str, row)) + "\n" for row in rows
    )


@pytest.mark.parametrize(
    "rows,count",
    [
        # x1 + x2, x3 + x4 and x_i for i = 5..30: rank 28, dimension 2, 26
        # coloops; 30 squares and two lifts each of {1,2} and {3,4}
        (
            [[1, 1] + [0] * 28, [0, 0, 1, 1] + [0] * 26]
            + [[int(j == i) for j in range(30)] for i in range(4, 30)],
            34,
        ),
        # 20 copies of the [2,1] repetition code: rank 20, dimension 20, 20
        # components
        ([[int(j // 2 == i) for j in range(40)] for i in range(20)], 80),
        # parity 1...1 of length 17: one component of rank 1 and dimension
        # 16; 17 squares and two lifts of each of the 136 pairs
        ([[1] * 17], 289),
    ],
    ids=["rank28-dim2", "20-repetition-codes", "parity-17"],
)
def test_binary_codes_of_high_rank_or_many_components(rows, count):
    # about 5 ms each (0.11 s and 0.27 s while the codeword check ran on
    # field elements); without the split into components, 2^20 codewords
    # would be enumerated on the second code, and 2^16 on the third
    g, elapsed = timed(code_of(parity_document(rows)), ORDINARY)
    assert len(g) == count and elapsed < 2.0


@pytest.mark.parametrize(
    "name,kind,route",
    [
        ("ham7", ORDINARY, "walk"),
        ("f4-gen", GENERALIZED, "walk"),  # W = 46 against 4^2 * 3 = 48
        ("t1-12", ORDINARY, "walk"),
        ("f3-n6", ORDINARY, "codewords"),
        ("p19n3", ORDINARY, "codewords"),
        ("p29n3", ORDINARY, "codewords"),
        ("tgolay", ORDINARY, "codewords"),
    ],
)
def test_each_code_takes_its_route(routes, code_f4, name, kind, route):
    # every one of these codes is one component
    documents = {
        "p19n3": "field p=19 r=1 modulus=0,1\nparity 1 7 3\n",
        "p29n3": "field p=29 r=1 modulus=0,1\nparity 1 7 12\n",
        "t1-12": "field p=3 r=1 modulus=0,1\nparity" + " 1" * 12 + "\n",
    }
    if name == "tgolay":
        code = ternary_golay_code()
    elif name == "f4-gen":
        code = code_f4
    else:
        code = code_of(documents[name] if name in documents else LADDER[name][0])
    run(code, kind)
    assert routes == [route]


# GF(2), GF(3), GF(4), GF(5), GF(8) and GF(9) as (p, r)
CROSS_ROUTE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
CROSS_ROUTE_CAP = 4000  # on both the walk's bound W and the q^k n codewords


def up_to_sign(vectors):
    return sorted(max(d, tuple(-e for e in d)) for d in vectors)


def test_the_walk_and_the_codewords_agree_on_every_component():
    # seeded random codes, both kinds, until 150 components of two or more
    # positions are checked; on every component whose two sizes are under
    # the cap, the walk and the codeword enumeration list the same vectors,
    # up to sign (nonnegative ones at p = 2, on both sides); about 1 s on a
    # 2-core x86 VM (budget: 20 s)
    moduli = {f: primitive_moduli(*f) for f in CROSS_ROUTE_FIELDS}
    rng = random.Random(29)
    seen, cheaper = set(), set()
    t0 = time.monotonic()
    linked = 0
    while linked < 150:
        drawn = random_code(rng, moduli, lambda p, width: max(1, 8 // width))
        if drawn is None:
            continue
        kind, code = drawn
        ff = code.ff
        slots = slot_elements(ff, kind)
        for P, parity, generator in _code_components(code):
            n = len(P)
            walk, words = _walk_bound(n * len(slots), ff.r * len(parity), ff.p), ff.q ** len(generator) * n
            if max(walk, words) > CROSS_ROUTE_CAP:
                continue
            by_walk = up_to_sign(_walk_vectors(ff, slots, parity, n))
            by_words = up_to_sign(_codeword_vectors(ff, slots, generator, n, _position_bricks(ff, slots)))
            assert by_walk == by_words, (kind, ff.modulus, ff.basis, code.H, P)
            linked += n > 1
            seen.add((ff.q, kind))
            cheaper.add(walk < words)
    assert time.monotonic() - t0 < 20.0
    assert seen == {(p ** r, kind) for p, r in CROSS_ROUTE_FIELDS for kind in (ORDINARY, GENERALIZED)}
    assert cheaper == {True, False}


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4), (3, 2), (5, 3), (1009, 1)])
def test_group_shift_moves_every_label_as_the_add_table_does(p, e):
    rng = random.Random(p ** e)
    size = p ** e
    add, neg, shift = _group(p, e, rng.sample(range(size), min(size, 5)))
    for v, row in add.items():
        assert sorted(row) == list(range(size)) and row[neg[v]] == 0
        for mask in [0, (1 << size) - 1, 1] + [rng.getrandbits(size) for _ in range(20)]:
            assert shift(v)(mask) == sum(1 << row[x] for x in range(size) if mask >> x & 1)


def test_a_prime_field_past_the_recursion_limit():
    # a zero-sum-free brick over GF(1009) holds up to 1008 units, and the
    # walk that lists them once recursed once per unit
    code = code_of("field p=1009 r=1 modulus=0,1\nparity 1 1\n")
    g = graver_ordinary(code)
    assert len(g) == 1011 and len(universal_basis(g)) == 3


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


def invariant_failure_under_python_O(p, row):
    """The stage and message of the InvariantError that graver_ordinary raises
    under python -O on the code with parity `row` over GF(p), when no element
    passes for a codeword."""
    script = "\n".join([
        "import codegb.graver as graver",
        "from codegb import FiniteField, InvariantError, LinearCode",
        "assert False, 'python -O strips this'",
        "graver._codeword_test = lambda mat, p, degree: lambda b: False  # no element is a codeword",
        f"ff = FiniteField({p}, 1, (0, 1))",
        f"code = LinearCode.from_parity(ff, [[ff.from_int(e) for e in {row!r}]])",
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
    return out.stdout.splitlines()


def test_invariant_checks_still_fire_under_python_O():
    stage, message = invariant_failure_under_python_O(3, [1, 2, 1])
    assert stage == "graver bricks (ordinary)"
    assert message.startswith(stage + ": element encodes no codeword: Binomial(")


def test_invariant_checks_still_fire_under_python_O_on_the_circuit_route():
    # p = 2, where the walk's nonnegative vectors are sign-expanded: the
    # binary codes once took a route of their own through the circuits, and
    # now take the same stage as every other p
    stage, message = invariant_failure_under_python_O(2, [1, 1, 0])
    assert stage == "graver bricks (ordinary)"
    assert message.startswith(stage + ": element encodes no codeword: Binomial(")


def test_packed_codeword_test_agrees_with_word_of_binomial():
    # 60 seeded codes over GF(2), GF(3), GF(4), GF(5), GF(7), GF(8) and
    # GF(9), both kinds; on each, 40 random differences and 40 sums of two
    # code-ideal generators and p times a random vector (codewords, with
    # exponents past p)
    moduli = {f: primitive_moduli(*f) for f in CROSS_CHECK_FIELDS}
    rng = random.Random(17)
    outcomes = set()
    checked = 0
    while checked < 60:
        drawn = random_code(rng, moduli, lambda p, width: max(1, 6 // width))
        if drawn is None:
            continue
        kind, code = drawn
        p = code.ff.p
        gens = (build_ordinary_generators if kind == ORDINARY else build_generalized_generators)(code).sorted()
        N = len(gens[0].lhs)
        vectors = [[rng.randint(-p, p) for _ in range(N)] for _ in range(40)]
        for _ in range(40):
            g, h = rng.choice(gens), rng.choice(gens)
            vectors.append([a - b + c - d + p * rng.randint(-2, 2)
                            for a, b, c, d in zip(g.lhs, g.rhs, h.lhs, h.rhs)])
        binomials = [Binomial(*split_pos_neg(v)) for v in vectors if any(v)]
        encodes = _codeword_test(lattice_matrix(code, kind), p, max(max(sum(b.lhs), sum(b.rhs)) for b in binomials))
        for b in binomials:
            want = word_of_binomial(code, b, kind) is not None
            assert encodes(b) == want, (kind, code.ff.modulus, code.ff.basis, code.H, b)
            outcomes.add(want)
        checked += 1
    assert outcomes == {True, False}


def check_brick_route_minimality(monkeypatch, p):
    # p e_1 + p e_2 lies in L and encodes the zero word, but p e_1 is conformal
    # to it
    bricks = codegb.graver._brick_vectors
    extra = (p, p, 0)
    monkeypatch.setattr(codegb.graver, "_brick_vectors", lambda code, kind: bricks(code, kind) + [extra])
    ff = FiniteField(p, 1, (0, 1))
    code = LinearCode.from_parity(ff, [[ff.one(), ff.one(), ff.zero()]])
    with pytest.raises(InvariantError, match="not ⊑-minimal") as e:
        graver_ordinary(code)
    assert e.value.stage == "graver bricks (ordinary)"


def test_brick_route_checks_minimality(monkeypatch):
    check_brick_route_minimality(monkeypatch, 3)


def test_circuit_route_checks_minimality(monkeypatch):
    # p = 2, where the walk's vectors are sign-expanded before the check: the
    # binary codes once took a route of their own through the circuits, and
    # the check must hold for them on the shared route
    check_brick_route_minimality(monkeypatch, 2)


def test_completion_widens_its_fields_past_the_generators_entries():
    # ker (8 4 2 1) is spanned by vectors with entries up to 2, yet holds the
    # primitive (1, 0, 0, -8).  Whatever is conformal to a vector of a box lies
    # in the box, so the ⊑-minimal kernel vectors of [-8, 8]^4 are exactly the
    # primitive vectors inside it
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
