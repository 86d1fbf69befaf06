"""Graver bases of code ideals: circuits at p = 2, codewords and bricks at odd p.

A binomial x^u - x^v lies in the ordinary (generalized) code ideal exactly
when u - v lies in the lattice L = {d in Z^N : M d = 0 mod p}, with M the
coordinate matrix H_e (the crossed matrix H_{+,e}), and the Graver basis of
the ideal is the set of primitive vectors of L: the nonzero vectors to which
no other nonzero lattice vector is conformal (u is conformal to d, u ⊑ d,
when u_i d_i >= 0 and |u_i| <= |d_i| for every i).  The characteristic picks
how they are found.

At p = 2 they have a closed form.  Let D = ker(M mod 2), the binary code
that L lifts; a circuit of the column matroid of M mod 2 is a minimal
nonempty set S of columns that sum to zero, i.e. the support of a
minimal-support word of D (a zero column is a circuit of size one).

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

So the Graver basis is {x_i^2 - 1 : column i nonzero} together with the
2^(|S|-1) sign patterns, up to +-, of every circuit S, and `_circuit_lifts`
lists them with no lattice basis and no completion.  The circuits are listed
per connected component of the matroid (`_circuits`); a component of rank r
and n columns takes at most min(2^(n-r), sum_{i <= r} C(n, i)) steps, which
is not bounded by the number of circuits in general.

At odd p the primitive vectors are built position by position from the
codewords of C.  Position j has S variables, one per slot element s_1..s_S
(`slot_elements`), and a vector d in Z^N splits into bricks d_j in Z^S.
Write phi(t) = sum_k t_k s_k in GF(q) for a brick t; then d lies in L
exactly when its word (phi(d_1), ..., phi(d_n)) is a codeword of C (this is
`word_of_binomial`).  For a brick t, Sub(t) = {phi(u) : u ⊑ t}, a set that
holds 0 and phi(t); t is zero-sum-free when phi(u) != 0 for every nonzero
u ⊑ t, and a minimal zero-sum brick when phi(t) = 0 and every proper
nonzero u ⊑ t is zero-sum-free.  A brick padded with zeros to position j is
a vector of Z^N, and u ⊑ d exactly when u_j ⊑ d_j at every j.

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

So the Graver basis is the minimal zero-sum bricks of Claim A together with,
for every codeword c != 0, up to +-, each choice of one zero-sum-free brick
of value c_j per position of supp(c) that passes Claim C; at p = 2, r = 1
this reduces to Claims 1-3.  The bricks depend only on the field and the
kind, and `_bricks` lists them by a depth-first walk that adds one signed
slot at a time: t + ±e_k is zero-sum-free exactly when t is and -phi(±e_k)
is not in Sub(t), and then Sub(t ± e_k) = Sub(t) ∪ (Sub(t) ± s_k).  Each step
grows Sub, so the walk ends; in fact a zero-sum-free brick has at most
r(p - 1) signed units, one less than the Davenport constant of (Z/p)^r, the
additive group of GF(q) (Olson, "A combinatorial problem on finite abelian
groups I", J. Number Theory 1, 1969).

`_brick_vectors` decides Claim C for every codeword at once with bitsets.
Let B[j][v] be the set of codewords whose entry j is v, and F(j, t) the
union of B[j][v] over v in Sub(t).  For a codeword c, a depth-first search
picks one brick per position of supp(c), and prunes a partial choice as soon
as the intersection of the chosen F's, of B[j][0] ∪ B[j][c_j] at the
support positions not yet chosen, and of B[j][0] off the support holds a
codeword other than 0 and c.  Choosing a brick only grows the sets (Sub(t)
holds 0 and c_j), so a pruned choice has no primitive completion, and every
leaf is primitive by Claim C: no sort and no conformal filter.  The
codewords are enumerated per connected component of the column matroid of
a generator matrix (`_code_components`): C is the direct sum of the
components' codes, L the direct sum of their lattices, and the primitive
vectors of a direct sum are those of its parts, since a vector with nonzero
parts d_1 and d_2 has d_1 ⊑ d in the lattice.  A code that is many copies
of a small one thus costs the copies' codewords, not their product; but a
component of dimension k costs q^k codewords, each tested on sets of q^k
bits, whatever the size of its Graver basis.
Building primitive vectors from per-block pieces follows the decomposition
of test sets of Hemmecke and Schultz ("Decomposition of test sets in
stochastic integer programming", Math. Prog. 94, 2003).

The completion procedure of Pottier ("The Euclidean algorithm in dimension
n", ISSAC 1996) and Hemmecke ("On the positive sum property and the
computation of Graver test sets", Math. Prog. 96, 2002), `_primitive_vectors`,
computes primitive vectors in Z^N from any lattice basis; it serves the
tests as the oracle of both routes.  Its conformal reduction is the normal
form of groebner._Packed, the one that Buchberger's loop uses, in doubled
variables x, y: u ⊑ v exactly when x^(u+) y^(u-) divides x^(v+) y^(v-) (the
Lawrence lifting; Sturmfels, "Gröbner Bases and Convex Polytopes", 1996,
Ch. 7), so each element u becomes the rules x^(u+) y^(u-) -> 1 and
x^(u-) y^(u+) -> 1.

The paper's route, the toric ideal of the p-Lawrence lifting over the doubled
x/y space with y set to 1 at the end, is kept as `graver_lawrence`, and an
exhaustive search over bounded difference vectors as `graver_bruteforce`;
both serve as independent cross-checks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional, Sequence

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
    word_of_binomial,
)
from .codes import LinearCode, _rref
from .groebner import _Packed, _widening, buchberger
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

    The reduction is the normal form of a groebner._Packed in the doubled
    variables of the module docstring: v is x^(v+) y^(v-), and the rule of
    +-u applies exactly when +-u ⊑ v, leaving v -+ u.  The support mask of
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


def _support(w: int) -> list:
    return [i for i in range(w.bit_length()) if w >> i & 1]


def _components(cols: list) -> list:
    """(columns, fundamental circuits) of each connected component of the
    binary matroid whose columns are packed as the ints `cols`, coloops left
    out, both as bitmasks over column indices.

    One elimination gives the fundamental circuit of every column that the
    earlier ones span.  They form a basis of the code of the matroid, and the
    elements of a component are linked through them.
    """
    basis, components = [], []  # basis: (reduced column, the columns it sums)
    for j, c in enumerate(cols):
        used = 1 << j
        for b, bused in basis:  # descending, distinct leading bits
            if c ^ b < c:
                c ^= b
                used ^= bused
        if c:
            basis = sorted(basis + [(c, used)], reverse=True)
            continue
        mask, inside, rest = used, [used], []
        for comp in components:
            if comp[0] & used:
                mask |= comp[0]
                inside += comp[1]
            else:
                rest.append(comp)
        components = rest + [(mask, inside)]
    return components


def _independent(cols: list, idx: list) -> bool:
    span = []  # reduced echelon: descending, distinct leading bits
    for i in idx:
        c = cols[i]
        for b in span:
            c = min(c, c ^ b)
        if not c:
            return False
        span = sorted(span + [c], reverse=True)
    return True


def _circuits_by_words(cols: list, words: list, r: int) -> list:
    """The circuits of a component of rank r whose code the `words` span:
    every word, in Gray-code order, whose support S has at most r + 1
    elements and whose columns but one are independent (rank |S| - 1)."""
    out, w = [], 0
    for g in range(1, 2 ** len(words)):
        w ^= words[(g & -g).bit_length() - 1]
        S = _support(w)
        if len(S) <= r + 1 and _independent(cols, S[:-1]):
            out.append(S)
    return out


def _circuits_by_walk(cols: list, idx: list) -> list:
    """The circuits among the columns `idx`, by a depth-first walk over the
    independent index sets T in increasing order: a later column j equal to
    the sum of T closes the circuit T + [j], which is so found exactly once,
    from its largest index."""
    out = []

    def walk(T: list, xor: int, span: list, start: int) -> None:
        # `span` is a reduced echelon basis of the span of T, `xor` its sum
        for pos in range(start, len(idx)):
            j = idx[pos]
            c = cols[j]
            if c == xor:
                out.append(T + [j])
                continue
            for b in span:
                c = min(c, c ^ b)
            if c:
                walk(T + [j], xor ^ cols[j], sorted(span + [c], reverse=True), pos + 1)

    walk([], 0, [], 0)
    return out


def _circuits(cols: list) -> list:
    """The circuits, as ascending index lists, of the binary matroid whose
    columns are packed as the ints `cols`.

    Every circuit lies inside a connected component.  A component of n
    columns and rank r spans a code of dimension k = n - r: its 2^k words, or
    its independent sets, at most sum_{i <= r} C(n, i) of them, are walked,
    whichever bound is smaller.
    """
    out = []
    for mask, words in _components(cols):
        idx = _support(mask)
        r = len(idx) - len(words)
        if 2 ** len(words) <= sum(math.comb(len(idx), i) for i in range(r + 1)):
            out += _circuits_by_words(cols, words, r)
        else:
            out += _circuits_by_walk(cols, idx)
    return out


def _circuit_lifts(mat) -> list:
    """One of each pair +-d of the primitive vectors of L at p = 2: 2e_i for
    every nonzero column i of M mod 2, and the +-1 lifts of every circuit,
    with the sign of its smallest index fixed at +1."""
    N = mat.ncols
    cols = [sum((row[j] & 1) << i for i, row in enumerate(mat)) for j in range(N)]
    out = [tuple(2 if k == i else 0 for k in range(N)) for i in range(N) if cols[i]]
    for S in _circuits(cols):
        for signs in itertools.product((1, -1), repeat=len(S) - 1):
            d = [0] * N
            for i, s in zip(S, (1,) + signs):
                d[i] = s
            out.append(tuple(d))
    return out


def _additive(ff) -> tuple:
    """(label, add, neg): label[k] is the label of the element with power
    index k, its F_p-coordinates read as base-p digits, so that the labels
    0..q-1 form the group (Z/p)^r, with its addition table and negation."""
    p, q = ff.p, ff.q
    powers = [p ** i for i in range(ff.r)]
    add = [[sum((x // w + y // w) % p * w for w in powers) for y in range(q)] for x in range(q)]
    neg = [sum(-(x // w) % p * w for w in powers) for x in range(q)]
    label = [sum(c * w for c, w in zip(ff.poly_coords(e), powers)) for e in ff.elements()]
    return label, add, neg


def _bricks(slots: list, add: list, neg: list) -> tuple:
    """(free, minimal) for the slot elements of one position, given by label.

    free[v] lists (t, sub) for every zero-sum-free brick t with phi(t) = v,
    where sub is Sub(t) as a bitmask over labels; minimal lists the minimal
    zero-sum bricks, one of each pair +-t.  A depth-first walk adds signed
    slots in a fixed order, never one slot with both signs: t + s is
    zero-sum-free exactly when t is and -phi(s) is not in Sub(t), and then
    Sub(t + s) is Sub(t) together with its translate by phi(s).  A
    zero-sum-free t with phi(t + s) = 0 makes t + s a minimal zero-sum
    brick, since a sub-brick u + s with u ⊑ t and value 0 has
    phi(t - u) = 0, so u = t; and every minimal zero-sum brick is so found,
    from the brick it leaves without its last signed slot.
    """
    q, S = len(add), len(slots)
    signed = [(k, sign, v if sign > 0 else neg[v]) for k, v in enumerate(slots) for sign in (1, -1)]
    free = [[] for _ in range(q)]
    minimal = []

    def walk(t: list, value: int, sub: int, start: int) -> None:
        for i in range(start, len(signed)):
            k, sign, v = signed[i]
            if t[k] * sign < 0:
                continue
            t[k] += sign
            row = add[v]
            if sub >> neg[v] & 1:
                if row[value] == 0 and next(e for e in t if e) > 0:
                    minimal.append(tuple(t))
            else:
                grown = sub
                for x in range(q):
                    if sub >> x & 1:
                        grown |= 1 << row[x]
                free[row[value]].append((tuple(t), grown))
                walk(t, row[value], grown, i)
            t[k] -= sign

    walk([0] * S, 0, 1, 0)
    return free, minimal


def _code_components(code: LinearCode) -> list:
    """(positions, generator rows on them) of each connected component of the
    column matroid of a generator matrix of the code, a zero column being a
    component with no rows.  Rows of the reduced row echelon form whose
    supports meet are merged: the code is the direct sum of the codes that
    the merged rows span, and the supports are the fundamental circuits of
    the pivot basis, which link exactly the elements of a component."""
    ff = code.ff
    rows, _ = _rref(ff, code.G)
    comp = {j: {j} for j in range(code.n)}
    for row in rows:
        merged = set().union(*(comp[j] for j, e in enumerate(row) if e))
        for j in merged:
            comp[j] = merged
    out = []
    for j in range(code.n):
        if min(comp[j]) == j:
            P = sorted(comp[j])
            out.append((P, [[row[i] for i in P] for row in rows if any(row[i] for i in P)]))
    return out


def _codewords(rows: list, n: int, elements: list, label: list, add: list) -> tuple:
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


def _brick_vectors(code: LinearCode, kind: str) -> list:
    """One of each pair +-d of the primitive vectors of L at odd p: the
    minimal zero-sum bricks at every position with a nonzero column of H
    (Claim A), and per component of the code, for each codeword c, one of
    each pair +-c, the choices of one zero-sum-free brick of value c_j per
    position j of supp(c) that pass the test of Claim C."""
    ff = code.ff
    label, add, neg = _additive(ff)
    slots = [label[s.k] for s in slot_elements(ff, kind)]
    free, minimal = _bricks(slots, add, neg)
    S = len(slots)
    N = code.n * S
    out = [(0,) * (j * S) + z + (0,) * (N - (j + 1) * S)
           for j in range(code.n) if any(row[j] for row in code.H) for z in minimal]
    for P, rows in _code_components(code):
        cols, B = _codewords(rows, len(P), ff.elements(), label, add)
        F = {}  # (j, Sub(t)) -> F(j, t)

        def extend(l: int, mask: int, chosen: list) -> None:
            # mask: the codewords other than 0 and c that fit the bricks
            # chosen so far, at their positions
            j = supp[l]
            for t, sub in free[c[j]]:
                f = F.get((j, sub))
                if f is None:
                    f = F[j, sub] = sum(bits for v, bits in B[j].items() if sub >> v & 1)
                if mask & f & suffix[l + 1]:
                    continue
                if l + 1 < len(supp):
                    extend(l + 1, mask & f, chosen + [t])
                    continue
                d = [0] * N
                for i, brick in zip(supp, chosen + [t]):
                    d[P[i] * S:P[i] * S + S] = brick
                out.append(tuple(d))

        for i in range(1, len(cols[0])):
            c = [col[i] for col in cols]
            supp = [j for j, v in enumerate(c) if v]
            if neg[c[supp[0]]] < c[supp[0]]:
                continue  # -c is taken instead
            # suffix[l]: the codewords other than 0 and c with entry 0 or c_j
            # at the positions supp[l:], and 0 off the support
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


def _unit_syndromes(code: LinearCode, slots) -> list:
    """The syndrome of the unit vector of each variable x[j,t]: the slot
    element t times column j of H."""
    return [tuple(row[j] * b for row in code.H) for j in range(code.n) for b in slots]


def _codeword_test(code: LinearCode, kind: str, degree: int):
    """A test of whether x^u - x^v, both sides of degree at most `degree`,
    encodes a codeword.  The syndrome of a side is packed into one integer,
    a bit field per F_p-coordinate of its entries, as the sum of the packed
    unit syndromes times the exponents; the word is a codeword when the
    fields of the two sides agree mod p."""
    ff = code.ff
    p = ff.p
    units = [[c for e in s for c in ff.poly_coords(e)] for s in _unit_syndromes(code, slot_elements(ff, kind))]
    nfields = code.m * ff.r
    width = ((p - 1) * degree).bit_length() + 1
    mask = (1 << width) - 1
    packed = [sum(c << (width * k) for k, c in enumerate(u)) for u in units]

    def syndrome(side):
        acc = 0
        for e, unit in zip(side, packed):
            if e:
                acc += e * unit
        return acc

    def encodes(b) -> bool:
        a, c = syndrome(b.lhs), syndrome(b.rhs)
        for _ in range(nfields):
            if ((a & mask) - (c & mask)) % p:
                return False
            a >>= width
            c >>= width
        return True

    return encodes


def _graver(code: LinearCode, kind: str, build) -> GraverBasis:
    """The Graver basis of L for `kind`: by circuit lifts of the matrix that
    `build` makes from the code at p = 2, by codewords and bricks otherwise;
    every element is checked either way."""
    p = code.ff.p
    space = VariableSpace(Block("x", (code.n, len(slot_elements(code.ff, kind)))))
    if p == 2:
        stage = f"graver circuit lifts ({kind})"
        vectors = _circuit_lifts(build(code))
    else:
        stage = f"graver bricks ({kind})"
        vectors = _brick_vectors(code, kind)
    out = BinomialSet(space, [Binomial(*split_pos_neg(v)) for v in vectors])
    encodes = _codeword_test(code, kind, max((max(sum(b.lhs), sum(b.rhs)) for b in out), default=0))
    for b in out:
        if not encodes(b):
            raise InvariantError(stage, "element encodes no codeword", b)
        # p*e_i lies in L and is conformal to every d != +-p*e_i with |d_i| >= p
        if max(b.lhs + b.rhs) >= p and sum(b.lhs + b.rhs) != p:
            raise InvariantError(stage, "element is not ⊑-minimal", b)
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
        if word_of_binomial(code, b, kind) is None:
            raise InvariantError(stage, "element encodes no codeword", b)
    return GraverBasis(out, kind, code)


def graver_bruteforce(code: LinearCode, kind: str) -> GraverBasis:
    """Exhaustive oracle: enumerate difference vectors, keep primitive members.

    A binomial pair (u, v) with disjoint supports and entries in [0, p] is the
    same datum as d = u - v in [-p, p]^N, so the sweep runs over d.  Membership
    is linear in d, which allows one field-syndrome table per coordinate and an
    incremental accumulation down the recursion.
    """
    ff = code.ff
    p = ff.p
    slots = slot_elements(ff, kind)
    space = VariableSpace(Block("x", (code.n, len(slots))))
    N = space.dim
    if (2 * p + 1) ** N > SEARCH_LIMIT:
        raise SearchSpaceTooLargeError(
            f"brute-force sweep of size (2p+1)^N = {(2 * p + 1) ** N} exceeds {SEARCH_LIMIT}"
        )

    # syndrome of the unit difference vector of each variable: the slot element
    # times column j of H
    m = code.m
    idx2elt = ff.elements()
    add = [[(a + b).k for b in idx2elt] for a in idx2elt]
    unit_syndromes = [tuple(e.k for e in s) for s in _unit_syndromes(code, slots)]

    # scaled copies for every coefficient in [-p, p]
    scaled = []
    for s in unit_syndromes:
        per_c = {}
        for c in range(-p, p + 1):
            per_c[c] = tuple(idx2elt[k].times(c).k for k in s)
        scaled.append(per_c)

    members = []
    d = [0] * N
    zero_synd = (0,) * m

    def sweep(i, synd):
        if i == N:
            if synd == zero_synd and any(d):
                members.append(tuple(d))
            return
        per_c = scaled[i]
        for c in range(-p, p + 1):
            d[i] = c
            if c == 0:
                sweep(i + 1, synd)
            else:
                delta = per_c[c]
                sweep(i + 1, tuple(add[a][b] for a, b in zip(synd, delta)))
        d[i] = 0

    sweep(0, zero_synd)

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
