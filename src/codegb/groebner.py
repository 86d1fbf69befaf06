"""Buchberger's algorithm specialized to pure-difference binomials.

Reducing a difference of monomials by differences of monomials again yields a
difference (or zero), so the whole computation stays inside exponent-vector
pairs.  Monomials are packed into single integers (one bit field per variable,
with a guard bit) so divisibility, lcm and the reduction step are a handful of
big-integer operations; the field width grows automatically if an exponent
overflows.  One packed normal form serves Buchberger's reductions, the final
autoreduction and `reduce`, which packs a basis once, on first use.  Pair
selection follows the normal strategy (smallest lcm first, insertion index as
tie-break) with the coprimality and chain criteria.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from .binomials import Binomial, BinomialSet, InvariantError, VariableSpace
from .orders import GradedRevlexOrder, MonomialOrder


class GroebnerBasis:
    """A reduced basis; each element is stored with its leading side first."""

    __slots__ = ("space", "order", "elements", "_packed")

    def __init__(self, space: VariableSpace, order: MonomialOrder, elements: Sequence[Binomial]):
        self.space = space
        self.order = order
        self.elements = tuple(elements)
        self._packed = None  # _Packed of the elements, made by the first reduce

    @property
    def binomials(self) -> BinomialSet:
        return BinomialSet(self.space, self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.space == other.space
            and set(self.elements) == set(other.elements)
        )

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements)"


class _Overflow(Exception):
    pass


class _Packed:
    """Monomials packed into integers, `width` bits per variable, and lead-first
    binomials held as parallel arrays of packed sides.

    The top bit of each field is a guard: with every field of m at most `cap`,
    lead divides m iff (m | guard) - lead keeps all guard bits set.  An
    exponent past `cap` raises _Overflow, and the caller retries wider.
    """

    def __init__(self, dim: int, width: int, elements: Sequence[Binomial] = ()):
        self.dim = dim
        self.width = width
        self.cap = (1 << (width - 1)) - 1
        self.fieldmask = (1 << width) - 1
        self.guard = sum(1 << (width * i + width - 1) for i in range(dim))
        self.lead_p, self.trail_p = [], []
        self.lead_sm, self.lead_dg, self.trail_dg = [], [], []
        for b in elements:
            self.add(self.pack(b.lhs), sum(b.lhs), self.pack(b.rhs), sum(b.rhs))

    def pack(self, u) -> int:
        W, cap = self.width, self.cap
        m = 0
        for i in range(self.dim - 1, -1, -1):
            e = u[i]
            if e > cap:
                raise _Overflow
            m = (m << W) | e
        return m

    def unpack(self, m: int) -> tuple:
        W, fieldmask = self.width, self.fieldmask
        out = []
        for _ in range(self.dim):
            out.append(m & fieldmask)
            m >>= W
        return tuple(out)

    def smask(self, m: int) -> int:
        """Bit i set iff variable i occurs in m."""
        W, fieldmask, cap = self.width, self.fieldmask, self.cap
        s = 0
        i = 0
        while m:
            f = m & fieldmask
            if f:
                if f > cap:
                    raise _Overflow
                s |= 1 << i
            m >>= W
            i += 1
        return s

    def add(self, a_p: int, a_dg: int, b_p: int, b_dg: int) -> None:
        """Append the binomial with packed leading side a_p and trail b_p."""
        self.lead_p.append(a_p)
        self.trail_p.append(b_p)
        self.lead_sm.append(self.smask(a_p))
        self.lead_dg.append(a_dg)
        self.trail_dg.append(b_dg)

    def normalize(self, m_p: int, m_dg: int):
        """Normal form of packed monomial m_p of degree m_dg, and its degree."""
        lead_p, trail_p = self.lead_p, self.trail_p
        lead_sm, lead_dg, trail_dg = self.lead_sm, self.lead_dg, self.trail_dg
        smask, guard = self.smask, self.guard
        changed = True
        while changed:
            changed = False
            msk = smask(m_p)
            mg = m_p | guard
            for g in range(len(lead_p)):
                if lead_dg[g] <= m_dg and not (lead_sm[g] & ~msk):
                    lp = lead_p[g]
                    if (mg - lp) & guard == guard:
                        m_p = m_p - lp + trail_p[g]
                        m_dg = m_dg - lead_dg[g] + trail_dg[g]
                        changed = True
                        break
        return m_p, m_dg

    def normal_form(self, u) -> tuple:
        return self.unpack(self.normalize(self.pack(u), sum(u))[0])


def _widening(attempt, width: int = 8):
    """attempt(width) at the narrowest width from `width` up that holds every exponent."""
    while width <= 64:
        try:
            return attempt(width)
        except _Overflow:
            width *= 2
    raise OverflowError("exponent does not fit 63 bits")


def reduce(binom: Binomial, basis: GroebnerBasis) -> Optional[Binomial]:
    """Normal form of a binomial; None when both sides collapse together."""

    def sides(width):
        pk = basis._packed
        if pk is None or pk.width != width:
            pk = basis._packed = _Packed(basis.space.dim, width, basis.elements)
        return pk.normal_form(binom.lhs), pk.normal_form(binom.rhs)

    lhs, rhs = _widening(sides, basis._packed.width if basis._packed else 8)
    if lhs == rhs:
        return None
    if basis.order.compare(lhs, rhs) < 0:
        lhs, rhs = rhs, lhs
    return Binomial(lhs, rhs)


def buchberger(gens: BinomialSet, order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by pure-difference binomials."""
    space = gens.space
    if order.dim != space.dim:
        raise ValueError("order dimension disagrees with the variable space")
    binoms = gens.sorted()
    return _widening(lambda width: _run(binoms, order, space, width))


def _run(binoms, order: MonomialOrder, space: VariableSpace, width: int) -> GroebnerBasis:
    okey = order.key
    pk = _Packed(space.dim, width)
    pack, unpack, normalize, guard = pk.pack, pk.unpack, pk.normalize, pk.guard
    lead_p, trail_p, lead_sm, lead_dg, trail_dg = pk.lead_p, pk.trail_p, pk.lead_sm, pk.lead_dg, pk.trail_dg
    lead_t = []  # unpacked leading sides, for the order key of each lcm

    heap: list = []
    pending = set()
    counter = 0

    def push_pairs(t):
        nonlocal counter
        lt = lead_t[t]
        sm_t = lead_sm[t]
        for i in range(t):
            if not (lead_sm[i] & sm_t):
                continue  # coprime leading monomials: S-pair reduces to zero
            li = lead_t[i]
            lcm = tuple(a if a > b else b for a, b in zip(li, lt))
            entry = (okey(lcm), counter, i, t, pack(lcm), sum(lcm), lead_sm[i] | sm_t)
            counter += 1
            heapq.heappush(heap, entry)
            pending.add((i, t))

    def add_element(a_p, a_dg, b_p, b_dg):
        if a_p == b_p:
            return
        a_t, b_t = unpack(a_p), unpack(b_p)
        if okey(a_t) < okey(b_t):
            a_p, a_dg, a_t, b_p, b_dg = b_p, b_dg, b_t, a_p, a_dg
        pk.add(a_p, a_dg, b_p, b_dg)
        lead_t.append(a_t)
        push_pairs(len(lead_p) - 1)

    for b in binoms:
        add_element(*normalize(pack(b.lhs), sum(b.lhs)), *normalize(pack(b.rhs), sum(b.rhs)))

    while heap:
        _, _, i, j, L_p, L_dg, L_sm = heapq.heappop(heap)
        pending.discard((i, j))
        # chain criterion: a third lead divides the lcm and both mixed pairs
        # are no longer waiting
        skip = False
        Lg = L_p | guard
        for g in range(len(lead_p)):
            if g == i or g == j:
                continue
            if lead_dg[g] <= L_dg and not (lead_sm[g] & ~L_sm) and (Lg - lead_p[g]) & guard == guard:
                a = (i, g) if i < g else (g, i)
                if a in pending:
                    continue
                b = (j, g) if j < g else (g, j)
                if b in pending:
                    continue
                skip = True
                break
        if skip:
            continue
        add_element(
            *normalize(L_p - lead_p[i] + trail_p[i], L_dg - lead_dg[i] + trail_dg[i]),
            *normalize(L_p - lead_p[j] + trail_p[j], L_dg - lead_dg[j] + trail_dg[j]),
        )

    # autoreduction: keep minimal leading monomials, then normalize the trails
    # against the kept leads (a lead never divides anything below itself, so
    # an element's own lead never rewrites its trail)
    idx = sorted(range(len(lead_p)), key=lambda g: okey(lead_t[g]))
    kept = []
    for g in idx:
        mg = lead_p[g] | guard
        if not any(
            lead_dg[h] <= lead_dg[g] and not (lead_sm[h] & ~lead_sm[g]) and (mg - lead_p[h]) & guard == guard
            for h in kept
        ):
            kept.append(g)

    red = _Packed(space.dim, width)
    for g in kept:
        red.add(lead_p[g], lead_dg[g], trail_p[g], trail_dg[g])
    final = []
    for g in kept:
        trail, _ = red.normalize(trail_p[g], trail_dg[g])
        if trail == lead_p[g]:
            raise InvariantError("autoreduction", "trail reduces to its leading monomial", lead_t[g])
        final.append(Binomial(lead_t[g], unpack(trail)))
    return GroebnerBasis(space, order, final)


def saturate_variable(s: BinomialSet, v: int, grading: Sequence[int] | None = None) -> BinomialSet:
    """Generators of (ideal : x_v^infinity).

    Computes a basis for a graded-revlex order with x_v cheapest and divides
    each element by the largest x_v power dividing it.  The divide-out step is
    valid when the ideal is homogeneous w.r.t. a positive grading; pass one as
    `grading` when the standard total degree does not work.
    """
    dim = s.space.dim
    if not 0 <= v < dim:
        raise IndexError(f"variable index {v} outside 0..{dim - 1}")
    prec = [i for i in range(dim) if i != v] + [v]
    order = GradedRevlexOrder(dim, precedence=prec, weights=grading)
    gb = buchberger(s, order)
    out = []
    for b in gb.elements:
        m = min(b.lhs[v], b.rhs[v])
        if m:
            lhs = list(b.lhs)
            rhs = list(b.rhs)
            lhs[v] -= m
            rhs[v] -= m
            out.append(Binomial(lhs, rhs))
        else:
            out.append(b)
    return BinomialSet(s.space, out)


def saturate_all(s: BinomialSet, grading: Sequence[int] | None = None) -> BinomialSet:
    """Saturate w.r.t. the product of all variables, one variable at a time."""
    for v in range(s.space.dim):
        s = saturate_variable(s, v, grading)
    return s
