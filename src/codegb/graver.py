"""Graver bases of code ideals by completion on the code lattice.

A binomial x^u - x^v lies in the ordinary (generalized) code ideal exactly
when u - v lies in the lattice L = {d in Z^N : M d = 0 mod p}, with M the
coordinate matrix H_e (the crossed matrix H_{+,e}), and the Graver basis of
the ideal is the set of primitive vectors of L: the nonzero vectors to which
no other nonzero lattice vector is conformal (u is conformal to d, u ⊑ d,
when u_i d_i >= 0 and |u_i| <= |d_i| for every i).  They are computed in Z^N
by the completion procedure of Pottier ("The Euclidean algorithm in dimension
n", ISSAC 1996) and Hemmecke ("On the positive sum property and the
computation of Graver test sets", Math. Prog. 96, 2002).

The paper's route, the toric ideal of the p-Lawrence lifting over the doubled
x/y space with y set to 1 at the end, is kept as `graver_lawrence`, and an
exhaustive search over bounded difference vectors as `graver_bruteforce`;
both serve as independent cross-checks.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from .binomials import (
    GENERALIZED,
    ORDINARY,
    Binomial,
    BinomialSet,
    Block,
    InvariantError,
    VariableSpace,
    generalized_space,
    ordinary_space,
    split_pos_neg,
    substitute_ones,
    word_of_binomial,
)
from .codes import LinearCode
from .groebner import buchberger
from .matrices import build_He, build_Hplus_e, extend_with_pI, lawrence_lift
from .orders import MonomialOrder, degrevlex
from .toric import kernel_basis, toric_ideal

SEARCH_LIMIT = 10 ** 8


class SearchSpaceTooLargeError(ValueError):
    pass


class GraverBasis:
    """Primitive binomials of a code ideal."""

    __slots__ = ("elements", "kind", "code")

    def __init__(self, elements: BinomialSet, kind: str, code: LinearCode):
        self.elements = elements
        self.kind = kind
        self.code = code

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


class _ConformalSet:
    """Lattice vectors, one of each pair +-v, packed for conformal reduction.

    |v| is packed `width` bits per coordinate with a guard bit on top of each
    field, as groebner._Packed packs monomials.  The sign pattern is a mask:
    the guard bit of coordinate i marks v_i > 0, the same bit `top` places
    higher marks v_i < 0.  Then u ⊑ v iff u's mask lies inside v's and
    (|v| | guard) - |u| keeps every guard bit.  Every stored entry is at most
    cap // 2, so the sum of two stored vectors fits; `add` widens the fields
    when a vector would break that.
    """

    def __init__(self, dim: int, width: int):
        self.dim = dim
        self.vectors = []  # one of each pair +-v, in insertion order
        self._repack(width)

    def _repack(self, width: int) -> None:
        dim = self.dim
        self.width = width
        self.cap = (1 << (width - 1)) - 1
        self.top = width * dim
        self.guard = sum(1 << (width * i + width - 1) for i in range(dim))
        # per field cap, so that (a + low) & guard marks the nonzero fields
        self.low = self.guard - sum(1 << (width * i) for i in range(dim))
        self.masks = []  # sign mask of each vector
        self.reducers = []  # (sign mask, packed |v|) of v and of -v
        for v in self.vectors:
            self._index(v)

    def pack(self, v):
        """(sign mask, packed |v|) of v."""
        W, top = self.width, self.top
        mask = a = 0
        for i, e in enumerate(v):
            if e:
                shift = W * i
                if e > 0:
                    a |= e << shift
                    mask |= 1 << (shift + W - 1)
                else:
                    a |= -e << shift
                    mask |= 1 << (shift + W - 1 + top)
        return mask, a

    def unpack(self, mask: int, a: int) -> tuple:
        W, top = self.width, self.top
        field = (1 << W) - 1
        out = []
        for i in range(self.dim):
            e = (a >> (W * i)) & field
            out.append(-e if mask >> (W * i + W - 1 + top) & 1 else e)
        return tuple(out)

    def negated(self, mask: int) -> int:
        """The sign mask of -v from that of v."""
        top = self.top
        return (mask >> top) | ((mask & ((1 << top) - 1)) << top)

    def _index(self, v) -> None:
        mask, a = self.pack(v)
        self.masks.append(mask)
        self.reducers.append((mask, a))
        self.reducers.append((self.negated(mask), a))

    def add(self, v: tuple) -> None:
        self.vectors.append(v)
        big = max(map(abs, v))
        if 2 * big > self.cap:
            self._repack((4 * big).bit_length() + 1)
        else:
            self._index(v)

    def _reducer(self, mask: int, a: int) -> Optional[int]:
        """Packed |u| of a stored +-u conformal to the packed vector, or None."""
        outside = ~mask
        guard = self.guard
        ag = a | guard
        for rmask, ra in self.reducers:
            if not rmask & outside and (ag - ra) & guard == guard:
                return ra
        return None

    def normal_form(self, v) -> Optional[tuple]:
        """v minus stored vectors conformal to what is left, until none is;
        None when that reaches zero."""
        mask, a = self.pack(v)
        guard, low, top = self.guard, self.low, self.top
        while a:
            ra = self._reducer(mask, a)
            if ra is None:
                return self.unpack(mask, a)
            # a conformal step only lowers magnitudes; coordinates that reach
            # zero leave the sign mask
            a -= ra
            nz = (a + low) & guard
            mask &= nz | (nz << top)
        return None

    def reducible(self, v) -> bool:
        return self._reducer(*self.pack(v)) is not None


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
    """
    bound = max((abs(e) for v in gens for e in v), default=1)
    found = _ConformalSet(dim, (4 * bound).bit_length() + 1)
    pairs = []

    def insert(f: tuple) -> None:
        k = len(found.vectors)
        found.add(f)
        vectors, masks = found.vectors, found.masks
        mask = masks[k]
        neg = found.negated(mask)
        for j in range(k):
            g, gmask = vectors[j], masks[j]
            if gmask & neg:  # f + g cancels somewhere
                heapq.heappush(pairs, (sum(abs(a + b) for a, b in zip(f, g)), k, j, 1))
            if gmask & mask:  # f - g cancels somewhere
                heapq.heappush(pairs, (sum(abs(a - b) for a, b in zip(f, g)), k, j, -1))

    for g in gens:
        r = found.normal_form(g)
        if r is not None:
            insert(r)
    while pairs:
        _, k, j, sign = heapq.heappop(pairs)
        f, g = found.vectors[k], found.vectors[j]
        r = found.normal_form([a + sign * b for a, b in zip(f, g)])
        if r is not None:
            insert(r)

    # an element is kept unless a kept one of smaller norm is conformal to it
    minimal = _ConformalSet(dim, found.width)
    for v in sorted(found.vectors, key=lambda v: sum(map(abs, v))):
        if not minimal.reducible(v):
            minimal.add(v)
    return minimal.vectors


def _completion(code: LinearCode, mat, space: VariableSpace, kind: str) -> GraverBasis:
    p = code.ff.p
    N = mat.ncols
    # (d, z) is in the kernel of (M | pI) exactly when M d = -p z, so the
    # first N coordinates of a kernel basis form a basis of L
    gens = [v[:N] for v in kernel_basis(extend_with_pI(mat, p))]
    out = BinomialSet(space, [Binomial(*split_pos_neg(v)) for v in _primitive_vectors(gens, N)])
    stage = f"graver completion ({kind})"
    for b in out:
        if word_of_binomial(code, b, kind) is None:
            raise InvariantError(stage, "element encodes no codeword", b)
        # p*e_i lies in L and is conformal to every d != +-p*e_i with |d_i| >= p
        if max(b.lhs + b.rhs) >= p and sum(b.lhs + b.rhs) != p:
            raise InvariantError(stage, "element is not ⊑-minimal", b)
    return GraverBasis(out, kind, code)


def graver_ordinary(code: LinearCode) -> GraverBasis:
    """Graver basis of the code ideal (one variable per coordinate slot)."""
    return _completion(code, build_He(code), ordinary_space(code.n, code.ff.r), ORDINARY)


def graver_generalized(code: LinearCode) -> GraverBasis:
    """Graver basis of the generalized code ideal (one variable per nonzero element)."""
    return _completion(code, build_Hplus_e(code), generalized_space(code.n, code.ff.q), GENERALIZED)


def graver_lawrence(code: LinearCode, kind: str, order: Optional[MonomialOrder] = None) -> GraverBasis:
    """Graver basis through the p-Lawrence lifting, the paper's route.

    Lift the defining integer matrix, take the toric ideal, kill the pI-block
    variables, run Buchberger over the doubled x/y space, and set y to 1.  The
    intermediate basis consists of mirrored binomials x^u y^v - x^v y^u, which
    is what makes the last substitution lossless.  `order` is a monomial order
    on the x/y space, degrevlex by default; the result does not depend on it.
    """
    ff = code.ff
    if kind == ORDINARY:
        mat, xshape = build_He(code), (code.n, ff.r)
    elif kind == GENERALIZED:
        mat, xshape = build_Hplus_e(code), (code.n, ff.q - 1)
    else:
        raise ValueError(f"unknown kind {kind!r}")
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
    p, q = ff.p, ff.q
    if kind == ORDINARY:
        space = ordinary_space(code.n, ff.r)
        per_slot = list(ff.basis)
    elif kind == GENERALIZED:
        space = generalized_space(code.n, q)
        per_slot = [ff.from_power(t) for t in range(1, q)]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    N = space.dim
    if (2 * p + 1) ** N > SEARCH_LIMIT:
        raise SearchSpaceTooLargeError(
            f"brute-force sweep of size (2p+1)^N = {(2 * p + 1) ** N} exceeds {SEARCH_LIMIT}"
        )

    # syndrome of the unit difference vector for each variable slot
    m = code.m
    idx2elt = [ff.zero()] + [ff.from_power(k) for k in range(1, q)]
    add = [[(a + b).k for b in idx2elt] for a in idx2elt]
    width = len(per_slot)
    unit_syndromes = []
    for j in range(code.n):
        for t in range(width):
            word = [ff.zero()] * code.n
            word[j] = per_slot[t]
            unit_syndromes.append(tuple(e.k for e in code._syndrome(word)))

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
