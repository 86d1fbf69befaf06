"""Universal Groebner bases as subsets of a Graver basis.

The universal basis is the union of all reduced Groebner bases, and it lies
inside the Graver basis (Sturmfels, Groebner Bases and Convex Polytopes, 1996,
Ch. 7).  `universal_basis` picks the route from the characteristic: p = 2
takes the closed form below, every other p the cone sieve.

Cone sieve (`cone_sieve`).  Every Graver element is either discarded by the
two-sided divisibility lemma, or gets an open polyhedral cone of weight
vectors; the element belongs to some reduced basis iff that cone is
non-empty.  Both steps ask only whether one monomial divides another, and
answer it on monomials packed into integers with guard bits, as
`groebner._Packed` does: the Graver basis is packed once, on first use, and
widened when an exponent needs it.  Both sides of an element e divide s
exactly when lcm(e), their componentwise maximum, divides s, so the lemma
costs two tests per element (`prune_by_lemma`).  The cone of x^u - x^u'
tests the sides of each element against the targets u - e_j, j in supp(u),
and u'; dividing some u - e_j is the same as properly dividing u, so two
tests per side replace |supp u| + 1 (`cone_rows`, with the proof).  A cone
is decided by an earlier nonnegative witness that satisfies it, else by the
exact LP solver (`lp`, integer pivoting), and by nothing else: every
positive answer carries a nonnegative integer weight-vector witness that
has been substituted into every strict inequality, and every negative one
rests on a Farkas vector; `feasible_point` checks both of its answers
exactly before returning either.  No sign pattern of the rows could decide
a cone sooner: `cone_rows` proves that no row <= 0 and no pair of rows
r, -r reaches a cone of the sieve.

Closed form at p = 2.  Both code ideals are lattice ideals of
L = {d in Z^N : M d = 0 mod 2}, with M = H_e or H_{+,e}, and by the p = 2
corollary of the `graver` module docstring (Claims 1-3) every
Graver element is x_i^2 - 1 for a nonzero column i of M mod 2, or x^S - 1 or
x^u - x^v with u + v = 1_S for a circuit S of the column matroid of M mod 2
(a zero column is a circuit of size one).  The universal basis keeps exactly:

- x_i - 1 (column i zero).  x_i leads under every term order, and 1 is
  standard, so x_i - 1 is in every reduced basis.
- x_i^2 - 1 (column i nonzero).  Weigh x_i 1 and every other variable 2.
  The only monomial below x_i is 1, and x_i - 1 is not in the ideal, so x_i
  is standard and x_i^2 - 1 is in the reduced basis of every refinement.
- x^u - x^v with u, v both nonzero.  Weigh every variable off S with K,
  every one of supp(u) with a and every one of supp(v) with b, where
  a, b > 0 satisfy 0 < |u|a - |v|b < 2a (b = 1 and a = |v|/(|u| - 1) if
  |u| >= 2, else a = |v| + 1), and K exceeds the weight of x^S.  A monomial
  lighter than K lives on S, and the only codewords supported in S are 0 and
  1_S, so its congruence class there holds two 0/1 monomials, y and 1_S - y,
  and everything else in it is heavier by at least 2 min(a, b).  The
  standard monomial of the class is the lighter of the two.  Hence x^v is
  standard (lighter than x^u), and so is every x^(u - e_j) with j in
  supp(u), since it is lighter than x^(v + e_j) by 2a - (|u|a - |v|b) > 0.
  So x^u is a minimal generator of the initial ideal with normal form x^v,
  and x^u - x^v is in the reduced basis of every refinement.

and drops x^S - 1 with |S| >= 2: for i in S the element x_i - x^(S - i)
has both sides dividing x^S, so whichever side leads, it rewrites x^S (the
lemma of the sieve).  The rule reads only the shape of each element, for
both kinds; it carries no witnesses.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from .binomials import Binomial, BinomialSet, InvariantError
from .graver import GraverBasis
from .groebner import _Packed, _widening
from .lp import feasible_point


class UniversalBasis:
    """Union of all reduced Groebner bases, one canonical orientation each."""

    __slots__ = ("elements", "kind", "code", "witnesses")

    def __init__(self, elements: BinomialSet, kind, code, witnesses=None):
        self.elements = elements
        self.kind = kind
        self.code = code
        self.witnesses = dict(witnesses or {})

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def cone_is_empty(rows: Sequence[Sequence[int]], hints: Iterable[Sequence] = ()):
    """(True, None) when the open cone {w >= 0 : r . w > 0 for every row r}
    is empty, else (False, witness).

    The cone lives in dimension len(rows[0]); no rows, or rows of different
    lengths, raise ValueError.  Hints (earlier witnesses) are tried first
    and returned as given when they are nonnegative and satisfy every strict
    inequality; otherwise the exact LP decides, and `feasible_point` checks
    either answer before it leaves: its point against every row, its Farkas
    vector before None.  A zero row needs no case of its own: no hint
    satisfies it, and the LP proves the cone empty.
    """
    if not rows:
        raise ValueError("a cone needs at least one row")
    dim = len(rows[0])
    if any(len(r) != dim for r in rows):
        raise ValueError("cone rows differ in length")
    for w in hints:
        if len(w) == dim and min(w, default=0) >= 0 and all(sum(map(mul, r, w)) > 0 for r in rows):
            return False, tuple(w)
    w = feasible_point(rows, dim)
    return w is None, w


def _packed(g: Binomial, graver: GraverBasis):
    """(_Packed, entries, u, u') at the narrowest width that holds the Graver
    basis and g, with u, u' the packed sides of g and one entry (lhs, rhs,
    lcm, rhs - lhs, lhs - rhs) per element, its monomials packed.  The
    entries are cached on the basis and packed again only to widen."""

    def attempt(width):
        cached = graver._packed
        if cached is None or cached[0].width != width:
            pk = _Packed(graver.elements.space.dim, width)
            entries = []
            for e in graver.elements:
                r = tuple(b - a for a, b in zip(e.lhs, e.rhs))
                lcm_e = tuple(map(max, e.lhs, e.rhs))
                entries.append((pk.pack(e.lhs), pk.pack(e.rhs), pk.pack(lcm_e), r, tuple(-x for x in r)))
            cached = graver._packed = (pk, entries)
        return cached + (cached[0].pack(g.lhs), cached[0].pack(g.rhs))

    return _widening(attempt, graver._packed[0].width if graver._packed else 8)


def prune_by_lemma(g: Binomial, graver: GraverBasis) -> bool:
    """True when another Graver element has both sides dividing one side of g.

    Such an element can never appear in a reduced basis: whichever of its
    sides leads, it rewrites that side of g.  Both sides of e divide s
    exactly when lcm(e), their componentwise maximum, divides s, so each
    element costs two guard-bit tests on packed monomials.  The element g
    itself, in either orientation, is recognised by its packed sides.
    """
    pk, entries, u, up = _packed(g, graver)
    guard = pk.guard
    ug, upg = u | guard, up | guard
    for v, vp, c, _, _ in entries:
        if ((ug - c) & guard == guard or (upg - c) & guard == guard) and (v, vp) not in ((u, up), (up, u)):
            return True
    return False


def cone_rows(g: Binomial, graver: GraverBasis) -> tuple:
    """Rows of the cone of g with designated sides (u, u') = (g.lhs, g.rhs),
    a tuple of int tuples of length len(u).

    Targets are u minus one variable, for each variable in the support of u,
    plus u' itself.  For each Graver element, whichever side divides a target
    must be the cheaper side under the sought weight vector.  The element g
    itself contributes the row u - u' through the u' target.

    A monomial v divides some u - e_j with j in supp(u) exactly when v
    properly divides u (v <= u and v != u): if v <= u - e_j then v != u, and
    if v <= u and v != u then v_j < u_j for some j, so u_j >= 1.  So each
    side of an element is tested against two targets, "properly divides u"
    and "divides u'", and by the same argument both sides divide one target
    exactly when lcm(e) properly divides u or divides u', which the lemma
    rules out.  An element whose two sides divide different targets gives
    both rows r and -r, and the cone is empty whatever their order; for a
    lemma survivor g of the Graver basis this does not happen, since one side
    a of e would divide u' and the other, b, properly divide u, so b - a
    would be conformal to u - u' and smaller, and g not primitive.  So each
    element gives at most one row, in the order of the targets.

    Hence no row <= 0 and, for a lemma survivor, no pair r, -r leaves here,
    and no cone of the sieve is closed by the signs of its rows alone.  The
    sides of a Graver element have disjoint supports, so a row v' - v <= 0,
    made because v divides a target, has v' = 0: it comes from x^v - 1, whose
    side 1 divides every target, so both sides divide the target that v
    divides, which raises the error above.  A row of e is +-(v' - v), the
    lattice vector of e up to sign, and distinct Graver elements are
    distinct up to sign, so two elements never give rows r and -r, and one
    element gives at most one row.  So the rows of a lemma survivor are
    distinct and nonzero, one per element at most, and u - u' is among them.
    """
    pk, entries, u, up = _packed(g, graver)
    guard = pk.guard
    ug, upg = u | guard, up | guard
    rows = []
    for v, vp, c, r, nr in entries:
        hv = (ug - v) & guard == guard and v != u or (upg - v) & guard == guard
        hvp = (ug - vp) & guard == guard and vp != u or (upg - vp) & guard == guard
        if hv and hvp and ((ug - c) & guard == guard and c != u or (upg - c) & guard == guard):
            e = Binomial(pk.unpack(v), pk.unpack(vp))
            raise InvariantError("cone rows", "both sides divide one target despite pruning", e)
        if hv:
            rows.append(r)
        if hvp:
            rows.append(nr)
    return tuple(rows)


def _oriented(g: Binomial) -> Binomial:
    """Orientation rule: nonzero side first for one-sided elements, else the
    side with the smaller support first."""
    lhs, rhs = g.lhs, g.rhs
    if not any(rhs):
        return g
    if not any(lhs):
        return g.swapped()
    if sum(1 for e in lhs if e) > sum(1 for e in rhs if e):
        return g.swapped()
    return g


def cone_sieve(graver: GraverBasis) -> UniversalBasis:
    """Union of all reduced Groebner bases, computed by the cone sieve."""
    kept = []
    witnesses = {}
    pool: list = []
    for g in graver.elements:
        og = _oriented(g)
        if prune_by_lemma(og, graver):
            continue
        empty, w = cone_is_empty(cone_rows(og, graver), hints=pool)
        if empty:
            continue
        kept.append(g)
        witnesses[g.canonical()] = w
        # most-recently-useful witness first; elements of one reduced basis
        # tend to arrive in runs, so this keeps the hit rate high
        if w in pool:
            pool.remove(w)
        pool.insert(0, w)
        if len(pool) > 64:
            pool.pop()
    out = BinomialSet(graver.elements.space, kept)
    return UniversalBasis(out, graver.kind, graver.code, witnesses)


def _closed_form_char2(graver: GraverBasis) -> UniversalBasis:
    """The closed form at p = 2: drop exactly the one-sided elements whose
    side has two or more variables (proof in the module docstring)."""
    kept = [
        g
        for g in graver.elements
        if (any(g.lhs) and any(g.rhs)) or sum(1 for e in g.lhs + g.rhs if e) == 1
    ]
    out = BinomialSet(graver.elements.space, kept)
    return UniversalBasis(out, graver.kind, graver.code)


def universal_basis(graver: GraverBasis) -> UniversalBasis:
    """Union of all reduced Groebner bases: the closed form when p = 2, the
    cone sieve otherwise."""
    if graver.code.ff.p == 2:
        return _closed_form_char2(graver)
    return cone_sieve(graver)
