"""Cone sieve for universal Groebner bases, plus the characteristic-2 shortcut."""

import time

import pytest

from codegb.binomials import (
    GENERALIZED,
    ORDINARY,
    Binomial,
    InvariantError,
    build_ordinary_generators,
)
from codegb.codes import LinearCode
from codegb.fields import FiniteField
from codegb.graver import graver_generalized, graver_ordinary
from codegb.groebner import buchberger
from codegb.orders import WeightOrder, degrevlex
from codegb.universal import (
    ConeSystem,
    WrongKindOrCharacteristicError,
    cone_is_empty,
    cone_rows,
    prune_by_lemma,
    universal_basis,
    universal_basis_char2,
)


@pytest.fixture(scope="module")
def rep2():
    ff = FiniteField(2, 1, (0, 1))
    return LinearCode.from_parity(ff, [[ff.one(), ff.one()]])


def pairs(basis):
    return {(b.lhs, b.rhs) for b in basis.elements}


def test_cone_system_dedups_and_rejects_bad_rows():
    c = ConeSystem(2, [(1, 0), (1, 0), (0, -1)])
    assert c.rows == ((1, 0), (0, -1))
    with pytest.raises(ValueError):
        ConeSystem(3, [(1, 0)])
    with pytest.raises(InvariantError, match="cone system: zero cone row"):
        ConeSystem(2, [(0, 0)])


def test_cone_emptiness_shortcuts_and_lp_path():
    # a row with no positive entry can never go strictly positive on w >= 0
    assert cone_is_empty(ConeSystem(2, [(0, -1), (1, 1)])) == (True, None)
    # opposite rows contradict each other
    assert cone_is_empty(ConeSystem(2, [(1, -1), (-1, 1)])) == (True, None)
    # infeasible but only visible to the solver: adding the rows gives -w1-w2 > 0
    empty, w = cone_is_empty(ConeSystem(2, [(1, -2), (-2, 1)]))
    assert empty and w is None


def test_cone_witnesses_are_checked_strictly():
    rows = [(1, -1, 0), (0, 1, -1), (0, 0, 1)]
    empty, w = cone_is_empty(ConeSystem(3, rows))
    assert not empty
    assert all(sum(a * b for a, b in zip(r, w)) > 0 for r in rows)


def test_cone_hint_short_circuits_when_valid():
    rows = [(1, -1), (0, 1)]
    empty, w = cone_is_empty(ConeSystem(2, rows), hints=[(5, 1)])
    assert not empty and w == (5, 1)
    # an invalid hint is ignored, not returned
    empty, w = cone_is_empty(ConeSystem(2, rows), hints=[(0, 1)])
    assert not empty and w != (0, 1)


def test_prune_lemma_on_the_repetition_code(rep2):
    graver = graver_ordinary(rep2)
    # x1*x2 - 1 is rewritten by x1 - x2 whichever side of the latter leads
    assert prune_by_lemma(Binomial((1, 1), (0, 0)), graver)
    assert not prune_by_lemma(Binomial((1, 0), (0, 1)), graver)
    assert not prune_by_lemma(Binomial((2, 0), (0, 0)), graver)


def test_cone_rows_contain_the_strictness_row(code_f3):
    graver = graver_ordinary(code_f3)
    cone = cone_rows(Binomial((1, 0, 0), (0, 0, 1)), graver)
    assert cone.dim == 3
    # the element itself divides its own second target and demands w.u > w.u'
    assert (1, 0, -1) in cone.rows


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
    assert pairs(universal_basis_char2(graver)) == pairs(universal_basis(graver))


def test_char2_shortcut_rejects_wrong_inputs(code_f3, code_f4):
    with pytest.raises(WrongKindOrCharacteristicError):
        universal_basis_char2(graver_ordinary(code_f4))  # right p, wrong kind
    with pytest.raises(WrongKindOrCharacteristicError):
        universal_basis_char2(graver_generalized(code_f3))  # right kind, wrong p


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
    # about 0.5 s on a 2-core x86 VM, where a phase-one LP with one
    # artificial per cone row took 16.8 s
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
