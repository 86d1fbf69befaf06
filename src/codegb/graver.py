"""Graver bases of code ideals, one connected component of the code at a time.

A binomial x^u - x^v lies in the ordinary (generalized) code ideal exactly
when u - v lies in the lattice L = {d in Z^N : M d = 0 mod p}, with M the
coordinate matrix H_e (the crossed matrix H_{+,e}), and the Graver basis of
the ideal is the set of primitive vectors of L: the nonzero vectors to which
no other nonzero lattice vector is conformal (u is conformal to d, u ⊑ d,
when u_i d_i >= 0 and |u_i| <= |d_i| for every i).

Position j has S variables, one per slot element s_1..s_S
(`slot_elements`).  The unit syndrome of the variable x[j,t] is H times its
unit vector, s_t times column j of H, an element of GF(q)^m, which as an
additive group is (Z/p)^e with e = rm.  Write phi(d) = sum_v d_v g_v for
the unit syndromes g_v; then d lies in L exactly when phi(d) = 0.  So the
primitive vectors of L are the minimal zero-sum vectors over the list of
unit syndromes: phi(d) = 0, and phi(u) != 0 for every nonzero u ⊑ d other
than d.  For any list of group elements, `_bricks` lists these by a
depth-first walk (its docstring holds the proof), and a zero-sum-free
vector on the way, one with phi(u) != 0 for every nonzero u ⊑ it, has at
most L = e(p - 1) units: one less than the Davenport constant of (Z/p)^e
(Olson, "A combinatorial problem on finite abelian groups I", J. Number
Theory 1, 1969).

Components.  C is the direct sum of the codes of the connected components
of its matroid, L the direct sum of their lattices, and the primitive
vectors of a direct sum are those of its parts, since a vector with nonzero
parts d_1 and d_2 has d_1 ⊑ d in the lattice.  `_code_components` finds
the components and a parity and a generator matrix of each, and every
component takes one of two enumerations:

- Zero-sum walk (`_walk_vectors`): `_bricks` on the component's unit
  syndromes.  Its minimal vectors are the component's primitive vectors.
  With N = n S variables and the bound on the units, it visits at most
  W = sum_{j <= min(N, L)} C(N, j) s^j min(C(L, j), (p - 1)^j) vectors: j
  nonzero entries, each of s = 2 signs (s = 1 at p = 2, see the corollary)
  and at most p - 1 in absolute value (p g = 0), together at most L.
- Codewords (`_codeword_vectors`): q^k codewords for dimension k, each
  tested at the n positions, about q^k n steps, by Claims A-C below.

`_brick_vectors` takes the walk when W < q^k n, else the codewords.  A code
that is many copies of a small one thus costs the copies, not their
product.

Codewords.  A vector d in Z^N splits into bricks d_j in Z^S, one per
position; phi of a brick is the field element phi(t) = sum_k t_k s_k, and d
lies in L exactly when its word (phi(d_1), ..., phi(d_n)) is a codeword of
C (this is `word_of_binomial`).  For a brick t, Sub(t) = {phi(u) : u ⊑ t};
zero-sum-free and minimal zero-sum bricks are as above, over the slot
elements.  A brick padded with zeros to position j is a vector of Z^N, and
u ⊑ d exactly when u_j ⊑ d_j at every j.

- Claim A: a primitive d with word 0 is one minimal zero-sum brick at a
  position j whose column of H is nonzero, and each such is primitive.
  Each brick of d has value 0, so each padded brick lies in L and is
  conformal to d: there is only one, d_j, and it is minimal zero-sum.  Were
  column j zero, every vector on position j would lie in L, among them a
  unit ±e_(j,k) ⊑ d_j, which is not d_j since phi(±e_(j,k)) = ±s_k != 0.
  Conversely, a lattice vector u ⊑ d_j lies on position j, and as s e_j is a
  codeword only for s = 0 when column j is nonzero, phi(u) = 0, so u is 0
  or d_j by minimality.
- Claim B: a primitive d with word c != 0 has zero-sum-free bricks, and the
  nonzero ones sit exactly on supp(c).  A nonzero u_j ⊑ d_j with value 0,
  padded, lies in L and is conformal to d; it is not d, whose word is not 0.
  A nonzero zero-sum-free brick has a nonzero value.
- Claim C: a vector d with word c != 0 whose bricks are zero-sum-free is
  primitive exactly when no codeword c' other than 0 and c has c'_j in
  Sub(d_j) at every position j (Sub of the zero brick is {0}).  A lattice
  vector u ⊑ d gives the codeword c' = (phi(u_j)), with c'_j in Sub(d_j);
  c' = 0 forces every u_j = 0, and c' = c forces every d_j - u_j, a brick
  ⊑ d_j of value 0, to vanish, both by zero-sum-freeness.  Conversely, such
  a c' gives u ⊑ d by picking u_j ⊑ d_j of value c'_j, and u lies in L and
  is neither 0 nor d.

So the codewords give the minimal zero-sum bricks of Claim A together with,
for every codeword c != 0, up to +-, each choice of one zero-sum-free brick
of value c_j per position of supp(c) that passes Claim C.  The bricks
depend only on the field and the kind: `_bricks` on the slot elements, at
most r(p - 1) units each.  Claim C is decided for every codeword at once
with bitsets.  Let B[j][v] be the set of codewords whose entry j is v, and
F(j, t) the union of B[j][v] over v in Sub(t).  For a codeword c, a
depth-first search picks one brick per position of supp(c), and prunes a
partial choice as soon as the intersection of the chosen F's, of
B[j][0] ∪ B[j][c_j] at the support positions not yet chosen, and of B[j][0]
off the support holds a codeword other than 0 and c.  Choosing a brick only
grows the sets (Sub(t) holds 0 and c_j), so a pruned choice has no
primitive completion, and every leaf is primitive by Claim C: no sort and
no conformal filter.  Building primitive vectors from per-block pieces
follows the decomposition of test sets of Hemmecke and Schultz
("Decomposition of test sets in stochastic integer programming", Math.
Prog. 94, 2003).

The p = 2 corollary.  At p = 2, -g = g for every group element, so a sign
flip of any entries maps L onto itself and keeps conformality: the
primitive vectors are the sign patterns of the nonnegative ones, and both
enumerations list only those (one sign).  Each is expanded into its
2^(s-1) sign patterns for s nonzero entries, the first entry +1.  Let D be
the binary code ker(M mod 2), and a circuit of the column matroid of
M mod 2 a minimal nonempty set S of columns that sum to zero (a zero column
is a circuit of size one).

- Claim 1: a primitive d != +-2e_i has entries in {-1, 0, 1}.  Otherwise
  some |d_i| >= 2, and the lattice vector sign(d_i) 2e_i is conformal to d.
  And 2e_i is primitive exactly when column i is nonzero: the only smaller
  vector conformal to it is e_i, which lies in L when column i is zero.
- Claim 2: a primitive d with entries in {-1, 0, 1} has a circuit S as its
  support.  d mod 2 is the word 1_S of D; were 1_S' in D for a nonempty
  S' inside S, d cut down to S' would be a lattice vector conformal to d.
- Claim 3: every +-1 lift d of a circuit S is primitive.  A nonzero lattice
  vector u ⊑ d has entries in {-1, 0, 1} and 1_supp(u) in D, so
  supp(u) = S by minimality, and u = d.

So the Graver basis at p = 2 is {x_i^2 - 1 : column i nonzero} together
with the 2^(|S|-1) sign patterns, up to +-, of every circuit S: the
nonnegative minimal vectors are 2e_i and the 0/1 vectors 1_S.

The completion procedure of Pottier ("The Euclidean algorithm in dimension
n", ISSAC 1996) and Hemmecke ("On the positive sum property and the
computation of Graver test sets", Math. Prog. 96, 2002) computes primitive
vectors in Z^N from any lattice basis; tests/test_graver.py holds it as the
oracle of both enumerations.

The paper's route, the toric ideal of the p-Lawrence lifting over the doubled
x/y space with y set to 1 at the end, is kept as `graver_lawrence`, and an
exhaustive search over bounded difference vectors, a sweep of their
residues mod p under the defining matrix, as `graver_bruteforce`; both
serve as independent cross-checks.  The brick route and the Lawrence route
pass their elements through one check (`_check_elements`): M d = 0 mod p
with the packed columns of M, and no exponent of p or more outside
x_i^p - 1.  No command runs `graver_lawrence`; it stays on purpose, as the
paper's own algorithm, and because the traced benchmark
(`perfbench/spans.py`) wraps `lawrence_lift`, `toric_ideal`,
`substitute_ones` and `buchberger` in this module's namespace, where only
this route uses them, and fails on a missing name.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .binomials import (
    GENERALIZED,
    ORDINARY,
    Binomial,
    BinomialSet,
    Block,
    InvariantError,
    VariableSpace,
    slot_elements,
    split_pos_neg,
    substitute_ones,
)
from .codes import LinearCode, _rref, nullspace
from .groebner import _blocks, buchberger
from .matrices import build_He, build_Hplus_e, expansion, lawrence_lift
from .orders import MonomialOrder, degrevlex
from .toric import toric_ideal

SEARCH_LIMIT = 10 ** 8


class SearchSpaceTooLargeError(ValueError):
    pass


class GraverBasis:
    """Primitive binomials of a code ideal."""

    __slots__ = ("elements", "kind", "code", "_packed")

    def __init__(self, elements: BinomialSet, kind: str, code: LinearCode):
        self.elements = elements
        self.kind = kind
        self.code = code
        self._packed = None  # the elements packed by the cone sieve, on first use

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, GraverBasis)
            and self.kind == other.kind
            and self.elements == other.elements
        )

    def __repr__(self):
        return f"GraverBasis({self.kind}, {len(self.elements)} elements)"


def _labels(ff) -> list:
    """label[k]: the element with power index k as a label of (Z/p)^r, its
    F_p-coordinates read as base-p digits."""
    powers = [ff.p ** i for i in range(ff.r)]
    return [sum(c * w for c, w in zip(ff.poly_coords(x), powers)) for x in ff.elements()]


def _group(p: int, e: int, elements) -> tuple:
    """(add, neg, shift) on (Z/p)^e, labelled 0..p^e - 1 by base-p digits:
    neg[x] is -x for every label x, add[v][x] is x + v for every v among
    `elements` and their negatives, and shift(v) is the function that
    translates a bitmask over the labels by any label v.  Adding v turns
    each digit of x by a rotation of 0..p-1, so both are built one digit at
    a time: with d the digit of v at weight w = p^i, a label whose digit
    stays below p moves up by d w and any other down by (p - d) w; the
    first are the low (p - d) w bits of every block of p w bits."""
    rotations = [[*range(d, p), *range(d)] for d in range(p)]
    size = p ** e
    neg, w = [0], 1
    for _ in range(e):
        neg = [w * (-d % p) + x for d in range(p) for x in neg]
        w *= p

    def row(v: int) -> list:
        out, w = [0], 1
        for _ in range(e):
            v, d = divmod(v, p)
            out = [w * c + x for c in rotations[d] for x in out]
            w *= p
        return out

    def shift(v: int):
        moves, w = [], 1
        for _ in range(e):
            v, d = divmod(v, p)
            if d:
                low = ((1 << (p - d) * w) - 1) * ((1 << size) - 1) // ((1 << p * w) - 1)
                moves.append((low, d * w, (p - d) * w))
            w *= p

        def translate(mask: int) -> int:
            for low, up, down in moves:
                mask = (mask & low) << up | (mask & ~low) >> down
            return mask

        return translate

    return {v: row(v) for v in {*elements, *(neg[v] for v in elements)}}, neg, shift


def _bricks(elements: list, add, neg, shift, signs: tuple) -> tuple:
    """(free, minimal) for a list of group elements g_1..g_s, given by label,
    on the group that `_group` describes.

    A vector t in Z^s has the value phi(t) = sum_k t_k g_k and the set
    Sub(t) = {phi(u) : u ⊑ t}, which holds 0 and phi(t); t is zero-sum-free
    when phi(u) != 0 for every nonzero u ⊑ t.  free[v] lists (t, Sub(t)) for
    every zero-sum-free t with phi(t) = v, Sub(t) as a bitmask over labels;
    minimal lists the minimal zero-sum vectors (phi(t) = 0, every proper
    nonzero u ⊑ t zero-sum-free), one of each pair +-t.  Entries take the
    given signs: both, or + alone where -g = g for every g (p = 2); then a
    sign flip of a (minimal) zero-sum vector is one, and the caller expands.

    A depth-first walk adds signed units in a fixed order, never one element
    with both signs: t + s is zero-sum-free exactly when t is and -phi(s) is
    not in Sub(t), and then Sub(t + s) is Sub(t) together with its translate
    by phi(s).  A zero-sum-free t with phi(t + s) = 0 makes t + s a minimal
    zero-sum vector, since a u + s ⊑ t + s with u ⊑ t and value 0 has
    phi(t - u) = 0, so u = t; and every minimal zero-sum vector is so found,
    once, from the vector it leaves without its last signed unit.  The walk
    keeps its own stack: it goes as deep as a zero-sum-free vector is long,
    up to e(p - 1) units on (Z/p)^e, past Python's recursion limit at
    p > 1000.
    """
    signed = [(k, sign, v if sign > 0 else neg[v]) for k, v in enumerate(elements) for sign in signs]
    translate = {v: shift(v) for _, _, v in signed}
    free = [[] for _ in neg]
    minimal = []
    stack = [((0,) * len(elements), 0, 1, 0)]  # (t, phi(t), Sub(t), first signed unit to add)
    while stack:
        t, value, sub, start = stack.pop()
        for i in range(start, len(signed)):
            k, sign, v = signed[i]
            if t[k] * sign < 0:
                continue
            u = t[:k] + (t[k] + sign,) + t[k + 1:]
            row = add[v]
            if sub >> neg[v] & 1:
                if row[value] == 0 and next(e for e in u if e) > 0:
                    minimal.append(u)
                continue
            grown = sub | translate[v](sub)
            free[row[value]].append((u, grown))
            stack.append((u, row[value], grown, i))
    return free, minimal


def _signs(p: int) -> tuple:
    """The signs that `_bricks` gives entries: + alone at p = 2, where -g = g."""
    return (1,) if p == 2 else (1, -1)


def _code_components(code: LinearCode) -> list:
    """(positions, parity rows, generator rows) of each connected component
    of the code, the rows restricted to its positions.

    One elimination, of H or of G, whichever has fewer rows.  Its reduced
    rows are the fundamental circuits of one basis of the matroid of the
    other matrix, and these link exactly the positions of each component.
    `nullspace` of the reduced form gives the other matrix, and each of its
    rows lies in one component: the row of free column f lives on f and on
    the pivots of the reduced rows through f.
    """
    ff = code.ff
    by_parity = code.m <= code.k
    red, pivots = _rref(ff, code.H if by_parity else code.G)
    other = nullspace(ff, red, pivots, code.n)
    parts = [(P, [], []) for P in _blocks(red, code.n)]  # positions, parity rows, generator rows
    part_of = {j: part for part in parts for j in part[0]}
    H, G = (red, other) if by_parity else (other, red)
    for which, rows in ((1, H), (2, G)):
        for row in rows:
            part_of[next(j for j, e in enumerate(row) if e)][which].append(row)
    return [(P, [[row[j] for j in P] for row in h], [[row[j] for j in P] for row in g])
            for P, h, g in parts]


def _walk_bound(N: int, e: int, p: int) -> int:
    """A bound on the zero-sum-free vectors over N elements of (Z/p)^e: at
    most L = e(p - 1) units (Olson), each entry at most p - 1 in absolute
    value, so j nonzero entries take at most min(C(L, j), (p - 1)^j) values
    and a sign each."""
    L = e * (p - 1)
    s = len(_signs(p))
    return sum(math.comb(N, j) * s ** j * min(math.comb(L, j), (p - 1) ** j) for j in range(min(N, L) + 1))


def _walk_vectors(ff, slots, parity: list, n: int) -> list:
    """One of each pair +-d of the primitive vectors of a component of n
    positions with the parity rows `parity`: the minimal zero-sum vectors
    over its unit syndromes, slot element t times column j of the rows, each
    a label of (Z/p)^e with e = r * len(parity)."""
    label, q = _labels(ff), ff.q
    units = [sum(label[(b * row[j]).k] * q ** i for i, row in enumerate(parity))
             for j in range(n) for b in slots]
    return _bricks(units, *_group(ff.p, ff.r * len(parity), units), _signs(ff.p))[1]


def _position_bricks(ff, slots) -> tuple:
    """(label, add, neg, free, minimal): the labels and the group (Z/p)^r of
    GF(q), and the bricks of one position (`_bricks` on the slot elements)."""
    label = _labels(ff)
    add, neg, shift = _group(ff.p, ff.r, range(ff.q))
    return (label, add, neg) + _bricks([label[s.k] for s in slots], add, neg, shift, _signs(ff.p))


def _codewords(rows: list, n: int, elements: list, label: list, add) -> tuple:
    """(cols, B) for the code of length n that `rows` span: codeword i has
    the base-q digits of i, read as `elements`, as its coefficients on the
    rows; cols[j][i] is its entry j, and B[j][v] the bitmask of the codewords
    whose entry j is v.  Both grow by one row at a time, by integer
    additions."""
    cols = [[0] for _ in range(n)]
    B = [{0: 1} for _ in range(n)]
    for row in rows:
        Q = len(cols[0])
        for j, col in enumerate(cols):
            base, grown = col[:], {}
            for m, c in enumerate(elements):
                s = label[(c * row[j]).k]
                if m:
                    col += map(add[s].__getitem__, base)
                for v, bits in B[j].items():
                    w = add[v][s]
                    grown[w] = grown.get(w, 0) | bits << (m * Q)
            B[j] = grown
    return cols, B


def _codeword_vectors(ff, slots, generator: list, n: int, bricks: tuple) -> list:
    """One of each pair +-d of the primitive vectors of a component of n
    positions whose code the rows `generator` span, given the bricks of a
    position (`_position_bricks`): the minimal zero-sum bricks at every
    position, unless the code is all of GF(q) and so the one column of H is
    zero (Claim A), and for each codeword c, one of each pair +-c, the
    choices of one zero-sum-free brick of value c_j per position j of
    supp(c) that pass the test of Claim C."""
    label, add, neg, free, minimal = bricks
    S = len(slots)
    N = n * S
    out = [(0,) * (j * S) + z + (0,) * (N - (j + 1) * S)
           for j in range(n) if len(generator) < n for z in minimal]
    cols, B = _codewords(generator, n, ff.elements(), label, add)
    F = {}  # (j, Sub(t)) -> F(j, t)

    def extend(l: int, mask: int, chosen: list) -> None:
        # mask: the codewords other than 0 and c that fit the bricks chosen
        # so far, at their positions
        j = supp[l]
        for t, sub in free[c[j]]:
            f = F.get((j, sub))
            if f is None:
                # B[j] at the members of Sub(t), the 1 digits of its bitmask
                f = F[j, sub] = sum([B[j].get(v, 0) for v, bit in enumerate(bin(sub)[:1:-1]) if bit == "1"])
            if mask & f & suffix[l + 1]:
                continue
            if l + 1 < len(supp):
                extend(l + 1, mask & f, chosen + [t])
                continue
            d = [0] * N
            for i, brick in zip(supp, chosen + [t]):
                d[i * S:i * S + S] = brick
            out.append(tuple(d))

    for i in range(1, len(cols[0])):
        c = [col[i] for col in cols]
        supp = [j for j, v in enumerate(c) if v]
        if neg[c[supp[0]]] < c[supp[0]]:
            continue  # -c is taken instead
        # suffix[l]: the codewords other than 0 and c with entry 0 or c_j at
        # the positions supp[l:], and 0 off the support
        others = (1 << len(cols[0])) - 1 ^ (1 | 1 << i)
        suffix = [others]
        for j, v in enumerate(c):
            if not v:
                suffix[0] &= B[j][0]
        for j in reversed(supp):
            suffix.append(suffix[-1] & (B[j][0] | B[j][c[j]]))
        suffix.reverse()
        if not suffix[0]:
            extend(0, others, [])
    return out


def _sign_patterns(d: tuple):
    """The vectors with the absolute values of d and the sign of its first
    nonzero entry, 2^(s-1) of them for s nonzero entries."""
    first = next(i for i, e in enumerate(d) if e)
    return itertools.product(*[(e, -e) if e and i > first else (e,) for i, e in enumerate(d)])


def _brick_vectors(code: LinearCode, kind: str) -> list:
    """One of each pair +-d of the primitive vectors of L, component by
    component (`_code_components`): by the zero-sum walk when its bound W
    is below q^k n, the codewords times the positions that the codeword
    enumeration goes through, else by that enumeration.  At p = 2 both list
    nonnegative vectors, which stand for their sign patterns."""
    ff = code.ff
    slots = slot_elements(ff, kind)
    S = len(slots)
    bricks = None  # of one position, on the first component that needs them
    out = []
    for P, parity, generator in _code_components(code):
        n = len(P)
        if _walk_bound(n * S, ff.r * len(parity), ff.p) < ff.q ** len(generator) * n:
            found = _walk_vectors(ff, slots, parity, n)
        else:
            bricks = bricks or _position_bricks(ff, slots)
            found = _codeword_vectors(ff, slots, generator, n, bricks)
        if n == code.n:  # P is every position, in order
            out += found
            continue
        for d in found:
            v = [0] * (code.n * S)
            for j, i in enumerate(P):
                v[i * S:i * S + S] = d[j * S:j * S + S]
            out.append(tuple(v))
    if ff.p == 2:
        out = [v for d in out for v in _sign_patterns(d)]
    return out


def _codeword_test(mat, p: int, degree: int):
    """A test of whether x^u - x^v, both sides of degree at most `degree`,
    lies in the lattice ideal of the integer matrix `mat` mod p: whether
    mat (u - v) = 0 mod p.  Each column, the unit syndrome of one variable
    in F_p-coordinates, is packed into one integer, a bit field per row; a
    side's syndrome is the sum of the packed columns times its exponents,
    and the fields of the two sides must agree mod p."""
    width = ((p - 1) * degree).bit_length() + 1
    mask = (1 << width) - 1
    packed = [sum(c << (width * i) for i, c in enumerate(mat.column(j))) for j in range(mat.ncols)]

    def syndrome(side):
        acc = 0
        for e, unit in zip(side, packed):
            if e:
                acc += e * unit
        return acc

    def encodes(b) -> bool:
        a, c = syndrome(b.lhs), syndrome(b.rhs)
        for _ in range(mat.nrows):
            if ((a & mask) - (c & mask)) % p:
                return False
            a >>= width
            c >>= width
        return True

    return encodes


def _check_elements(out: BinomialSet, mat, p: int, stage: str) -> None:
    """Raise InvariantError unless every element of `out` lies in the lattice
    ideal of the defining matrix `mat` mod p and has no exponent of p or more
    outside x_i^p - 1."""
    encodes = _codeword_test(mat, p, max((max(sum(b.lhs), sum(b.rhs)) for b in out), default=0))
    for b in out:
        if not encodes(b):
            raise InvariantError(stage, "element encodes no codeword", b)
        # p*e_i lies in L and is conformal to every d != +-p*e_i with |d_i| >= p
        if max(b.lhs + b.rhs) >= p and sum(b.lhs + b.rhs) != p:
            raise InvariantError(stage, "element is not ⊑-minimal", b)


def _graver(code: LinearCode, kind: str, build) -> GraverBasis:
    """The Graver basis of L for `kind` (`_brick_vectors`), every element
    checked against the matrix that `build` makes from the code."""
    space = VariableSpace(Block("x", (code.n, len(slot_elements(code.ff, kind)))))
    out = BinomialSet(space, [Binomial(*split_pos_neg(v)) for v in _brick_vectors(code, kind)])
    _check_elements(out, build(code), code.ff.p, f"graver bricks ({kind})")
    return GraverBasis(out, kind, code)


def graver_ordinary(code: LinearCode) -> GraverBasis:
    """Graver basis of the code ideal (one variable per coordinate slot)."""
    return _graver(code, ORDINARY, build_He)


def graver_generalized(code: LinearCode) -> GraverBasis:
    """Graver basis of the generalized code ideal (one variable per nonzero element)."""
    return _graver(code, GENERALIZED, build_Hplus_e)


def graver_lawrence(code: LinearCode, kind: str, order: Optional[MonomialOrder] = None) -> GraverBasis:
    """Graver basis through the p-Lawrence lifting, the paper's route.

    Lift the defining integer matrix, take the toric ideal, kill the pI-block
    variables, run Buchberger over the doubled x/y space, and set y to 1.  The
    intermediate basis consists of mirrored binomials x^u y^v - x^v y^u, which
    is what makes the last substitution lossless.  `order` is a monomial order
    on the x/y space, degrevlex by default; the result does not depend on it.
    """
    ff = code.ff
    slots = slot_elements(ff, kind)
    mat, xshape = expansion(code, slots), (code.n, len(slots))
    stage = f"graver via Lawrence lifting ({kind})"
    lifted = lawrence_lift(mat, ff.p)
    space = VariableSpace(Block("x", xshape), Block("y", xshape), Block("z", mat.nrows))
    if lifted.ncols != space.dim:
        raise InvariantError(stage, "lifted matrix does not fit the x/y/z space", lifted)
    gens = toric_ideal(lifted, space)
    s = substitute_ones(gens, "z")
    if order is None:
        order = degrevlex(s.space.dim)
    gb = buchberger(s, order)
    nx = s.space.block("x").size
    for b in gb:
        if not (b.lhs[:nx] == b.rhs[nx:] and b.lhs[nx:] == b.rhs[:nx]):
            raise InvariantError(stage, "element is not of the form x^u y^v - x^v y^u", b)
    out = substitute_ones(gb.binomials, "y")
    for b in out:
        if not b.is_pure:
            raise InvariantError(stage, "element is not pure", b)
    _check_elements(out, mat, ff.p, stage)
    return GraverBasis(out, kind, code)


def graver_bruteforce(code: LinearCode, kind: str) -> GraverBasis:
    """Exhaustive oracle: enumerate difference vectors, keep primitive members.

    A binomial pair (u, v) with disjoint supports and entries in [0, p] is the
    same datum as d = u - v in [-p, p]^N, so the sweep runs over d, and d lies
    in L exactly when M d = 0 mod p for the defining matrix M (`expansion`).
    Membership is linear in d: the residues of M d accumulate down the
    recursion, and the last coordinate is read off a table from the residues
    of the others to the coefficients that cancel them.
    """
    p = code.ff.p
    slots = slot_elements(code.ff, kind)
    space = VariableSpace(Block("x", (code.n, len(slots))))
    N = space.dim
    if (2 * p + 1) ** N > SEARCH_LIMIT:
        raise SearchSpaceTooLargeError(
            f"brute-force sweep of size (2p+1)^N = {(2 * p + 1) ** N} exceeds {SEARCH_LIMIT}"
        )
    mat = expansion(code, slots)
    coefficients = range(-p, p + 1)
    # the residues of c times each column but the last, for every coefficient c
    scaled = [{c: tuple(c * x % p for x in mat.column(j)) for c in coefficients} for j in range(N - 1)]
    last = {}  # residues -> the coefficients of the last column that cancel them
    for c in coefficients:
        last.setdefault(tuple(-c * x % p for x in mat.column(N - 1)), []).append(c)

    members = []
    d = [0] * N

    def sweep(i, residues):
        if i == N - 1:
            for c in last.get(residues, ()):
                d[i] = c
                if any(d):
                    members.append(tuple(d))
        else:
            for c, column in scaled[i].items():
                d[i] = c
                sweep(i + 1, tuple((a + b) % p for a, b in zip(residues, column)) if c else residues)
        d[i] = 0

    sweep(0, (0,) * mat.nrows)

    # primitivity: keep members with no conformally smaller member, sweeping
    # by ascending L1 norm so every dropped vector has a kept witness
    members.sort(key=lambda v: sum(abs(e) for e in v))
    kept = []

    def conforms(small, big):
        for a, b in zip(small, big):
            if a * b < 0 or abs(a) > abs(b):
                return False
        return True

    for v in members:
        if not any(w != v and conforms(w, v) for w in kept):
            kept.append(v)

    out = BinomialSet(space, [Binomial(*split_pos_neg(v)) for v in kept])
    return GraverBasis(out, kind, code)
