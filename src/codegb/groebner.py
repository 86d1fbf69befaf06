"""Reduced Groebner bases of ideals generated by pure-difference binomials,
and normal forms modulo them.

When every variable is a unit modulo the ideal and the exponent differences
u - v of the generators x^u - x^v span a lattice L of full rank, the quotient
ring is finite and `buchberger` runs no S-pairs.  A unit variable makes the
ideal equal to its saturation, which is the lattice ideal I_L (Eisenbud &
Sturmfels, "Binomial ideals", Duke Math. J. 84, 1996), so x^u = x^v modulo
the ideal exactly when u - v lies in L, and there is one standard monomial
per class of Z^N/L.  Both code ideals qualify: their generators contain
x_ij^p - 1, or the field relations x_iu*x_iv - 1.  The reduced basis then
comes from walking the standard monomials in increasing order, as FGLM does
(Faugere, Gianni, Lazard & Mora, JSC 16, 1993; for codes, Borges-Quintana,
Borges-Trenard & Martinez-Moro, LNCS 3857, 2006): a monomial t whose every
t/x_i is standard is either the first of its class, and standard, or the
leading monomial of the element t - std(class).  The class of a monomial is
its exponent vector reduced by the Hermite normal form of L, and when that
form splits into blocks over disjoint variables each block is walked alone.
The basis keeps each block's table of standard monomials, so `reduce` finds
the normal form of x^u, the standard monomial of u's class, by computing the
class key of u and looking it up (Groebner decoding by coset leaders), at a
cost that does not depend on the number of basis elements.  Two facts make
that one key per block for each side that is not 1, and no order key when a
side's normal form is 1.  Every generator vanishes at the all-ones point, so
the ideal is proper and 1 is standard: the walk's table maps the origin to
1, and the walk checks that it finds one standard monomial per class.  And
1 is the least monomial under every term order (acceptance criterion 10
checks it on random orders), so a side that is 1 trails.

Otherwise (toric and Lawrence ideals, saturation) Buchberger's algorithm
runs.  Reducing a difference of monomials by differences of monomials again
yields a difference (or zero), so the whole computation stays inside
exponent-vector pairs.  Monomials are packed into single integers (one bit
field per variable, with a guard bit) so divisibility, lcm and the reduction
step are a handful of big-integer operations; the field width grows
automatically if an exponent overflows.  One packed normal form serves
Buchberger's reductions, the final autoreduction, `reduce` on the bases
that this loop makes, which `reduce` packs once, on first use, and the
conformal reduction of the completion that the tests run as their Graver
oracle.  Pair
selection follows the normal strategy (smallest lcm first, insertion index
as tie-break) with the coprimality and chain criteria.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Optional, Sequence

from .binomials import Binomial, BinomialSet, DimensionMismatchError, InvariantError, VariableSpace
from .matrices import _echelon
from .orders import GradedRevlexOrder, MonomialOrder


class GroebnerBasis:
    """A reduced basis; each element is stored with its leading side first.

    A basis from the standard-monomial walk carries the walk's tables, one
    (_Classes, class key -> standard monomial) pair per block; `reduce` reads
    normal forms from them.  A basis from the S-pair loop carries none."""

    __slots__ = ("space", "order", "elements", "_tables", "_packed")

    def __init__(self, space: VariableSpace, order: MonomialOrder, elements: Sequence[Binomial], tables=None):
        self.space = space
        self.order = order
        self.elements = tuple(elements)
        self._tables = tables
        self._packed = None  # _Packed of the elements, made by the first reduce without tables

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
    binomials held as parallel arrays of packed sides and leading supports.

    The top bit of each field is a guard: with every field of m at most `cap`,
    lead divides m iff (m | guard) - lead keeps all guard bits set, and
    (m + low) & guard, with `cap` in every field of `low`, marks the fields
    of m that are nonzero.  An exponent past `cap` raises _Overflow, and the
    caller retries wider.
    """

    def __init__(self, dim: int, width: int, elements: Sequence[Binomial] = ()):
        self.dim = dim
        self.width = width
        self.cap = (1 << (width - 1)) - 1
        self.fieldmask = (1 << width) - 1
        self.guard = sum(1 << (width * i + width - 1) for i in range(dim))
        self.low = self.guard - sum(1 << (width * i) for i in range(dim))
        self.lead_p, self.trail_p, self.lead_sm = [], [], []
        for b in elements:
            self.add(self.pack(b.lhs), self.pack(b.rhs))

    def pack(self, u) -> int:
        W, cap = self.width, self.cap
        m = 0
        for i, e in enumerate(u):
            if e:
                if e > cap:
                    raise _Overflow
                m |= e << (W * i)
        return m

    def unpack(self, m: int) -> tuple:
        W, fieldmask = self.width, self.fieldmask
        out = []
        for _ in range(self.dim):
            out.append(m & fieldmask)
            m >>= W
        return tuple(out)

    def smask(self, m: int) -> int:
        """The guard bit of variable i set iff variable i occurs in m."""
        if m & self.guard:
            raise _Overflow
        return (m + self.low) & self.guard

    def add(self, a_p: int, b_p: int) -> None:
        """Append the binomial with packed leading side a_p and trail b_p."""
        self.lead_p.append(a_p)
        self.trail_p.append(b_p)
        self.lead_sm.append(self.smask(a_p))

    def normalize(self, m_p: int) -> int:
        """Normal form of packed monomial m_p."""
        lead_p, trail_p, lead_sm = self.lead_p, self.trail_p, self.lead_sm
        smask, guard = self.smask, self.guard
        while m_p:  # no lead divides 1
            outside = guard ^ smask(m_p)  # the variables that m lacks
            mg = m_p | guard
            for g in range(len(lead_p)):
                if not lead_sm[g] & outside and (mg - lead_p[g]) & guard == guard:
                    m_p = m_p - lead_p[g] + trail_p[g]
                    break
            else:
                break
        return m_p

    def normal_form(self, u) -> tuple:
        return self.unpack(self.normalize(self.pack(u)))


def _widening(attempt, width: int = 8):
    """attempt(width) at the narrowest width from `width` up that holds every exponent."""
    while width <= 64:
        try:
            return attempt(width)
        except _Overflow:
            width *= 2
    raise OverflowError("exponent does not fit 63 bits")


def reduce(binom: Binomial, basis: GroebnerBasis) -> Optional[Binomial]:
    """Normal form of a binomial; None when both sides collapse together.

    1 is the least monomial under every term order (acceptance criterion 10
    checks it on random orders), so when one side's normal form is 1 the
    other side leads, and only two sides that are both not 1 compare their
    order keys.  On a walked basis each side costs one class key per block
    (`_standard`), and a side that is 1 costs none."""
    dim = basis.space.dim
    if len(binom.lhs) != dim:
        raise DimensionMismatchError(
            f"binomial of length {len(binom.lhs)} reduced by a basis in {dim} variables"
        )
    if basis._tables is not None:
        lhs, rhs = _standard(binom.lhs, basis._tables), _standard(binom.rhs, basis._tables)
    else:

        def sides(width):
            pk = basis._packed
            if pk is None or pk.width != width:
                pk = basis._packed = _Packed(dim, width, basis.elements)
            return pk.normal_form(binom.lhs), pk.normal_form(binom.rhs)

        lhs, rhs = _widening(sides, basis._packed.width if basis._packed else 8)
    if lhs == rhs:
        return None
    if not any(lhs) or (any(rhs) and basis.order.key(lhs) < basis.order.key(rhs)):
        lhs, rhs = rhs, lhs
    return Binomial(lhs, rhs)


def _standard(u, tables) -> tuple:
    """The standard monomial of the class of x^u: the sum of each block's,
    looked up by the block's class key, and so a block's own when there is
    one block.  Every generator vanishes at the all-ones point, so the ideal
    is proper and 1 is standard: the walk's table maps the origin to 1, and
    the walk checks that it finds one standard monomial per class.  So x^0
    is its own normal form and needs no key."""
    if not any(u):
        return u
    found = []
    for classes, std in tables:
        key = classes.key(u)
        s = std.get(key)
        if s is None:
            raise InvariantError("class lookup", "class key has no standard monomial", key)
        found.append(s)
    return found[0] if len(found) == 1 else tuple(map(sum, zip(*found)))


def buchberger(gens: BinomialSet, order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by pure-difference binomials."""
    space = gens.space
    if order.dim != space.dim:
        raise ValueError("order dimension disagrees with the variable space")
    binoms = gens.sorted()
    hnf = _unit_lattice(binoms, space.dim)
    if hnf is None:
        return _widening(lambda width: _run(binoms, order, space, width))
    # L is the direct sum of the lattices of its blocks, so the basis is the
    # union of the blocks' bases, and each block has its own standard monomials
    okey = order.key
    tables, elements = [], []
    for cols in _blocks(hnf, space.dim):
        classes = _Classes(hnf, cols)
        found, std = _walk(classes, okey, space.dim)
        elements += found
        tables.append((classes, std))
    elements.sort(key=lambda b: okey(b.lhs))
    return GroebnerBasis(space, order, elements, tables)


def _unit_lattice(binoms, dim: int) -> Optional[list]:
    """The Hermite normal form of the lattice spanned by the differences u - v
    of the generators x^u - x^v, as upper triangular rows with positive
    diagonal and the entries above each diagonal entry d in [0, d); None
    unless every variable occurs in a generator whose other side is 1 and
    the lattice has full rank.  The pivot rows of the differences' echelon
    form (matrices._echelon) span the lattice; a sign per row and a
    reduction above the diagonal make that basis the unique HNF."""
    zero = (0,) * dim
    units = set()
    for b in binoms:
        for side, other in ((b.lhs, b.rhs), (b.rhs, b.lhs)):
            if other == zero:
                units.update(i for i, e in enumerate(side) if e)
    if len(units) < dim:
        return None
    H, _ = _echelon([[a - c for a, c in zip(b.lhs, b.rhs)] for b in binoms], dim)
    if len(H) < dim:
        return None
    for j in range(dim):
        if H[j][j] < 0:
            H[j] = [-x for x in H[j]]
        d = H[j][j]
        for i in range(j):
            q = H[i][j] // d
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[j])]
    return H


def _blocks(rows: list, n: int) -> list:
    """The column sets of the blocks of `rows`, the classes of the columns
    0..n-1 linked by the nonzero entries of a row: each in increasing order,
    the classes in the order of their first column.  A Hermite normal form
    is unique, so when L is a direct sum over a partition of the variables,
    its rows keep to the parts."""
    linked = {j: {j} for j in range(n)}
    for row in rows:
        merged = set().union(*(linked[j] for j, e in enumerate(row) if e))
        for j in merged:
            linked[j] = merged
    blocks: dict = {}
    for j in range(n):
        blocks.setdefault(min(linked[j]), []).append(j)
    return list(blocks.values())


class _Classes:
    """The classes of Z^cols modulo the lattice spanned by the rows `cols` of
    a Hermite normal form H of full rank, whose other columns they leave 0.
    A class is keyed by its reduced vector (entry j in [0, H[j][j])) at the
    columns whose diagonal entry exceeds 1; every other column reduces to 0,
    and so do the entries of H in it."""

    def __init__(self, H: list, cols: list):
        self.cols = cols
        free = [j for j in cols if H[j][j] > 1]
        self.diag = [H[j][j] for j in free]
        # the nonzero entries (t, H[j][f]) of each row right of its diagonal,
        # at the t-th free column f
        self.tails = [[(t, H[j][f]) for t, f in enumerate(free) if f > j and H[j][f]] for j in free]
        self.index = math.prod(self.diag)
        self.origin = (0,) * len(free)
        self.starts = {j: sum(1 for f in free if f < j) for j in cols}
        self.images = {}  # the key of x_j
        for j in cols:
            r = [0] * len(H)
            r[j] = 1
            for k in cols:  # r stays 0 before column j
                q = r[k] // H[k][k]
                if q:
                    r = [x - q * y for x, y in zip(r, H[k])]
            self.images[j] = tuple(r[f] for f in free)
        # entry t of the key of x_j, for every variable j: 0 off the block
        self.columns = list(zip(*(self.images.get(j, self.origin) for j in range(len(H)))))

    def key(self, u) -> tuple:
        """The key of x^u: the sum of the keys of its variables, reduced."""
        return self._reduced([sum(map(operator.mul, c, u)) for c in self.columns], 0)

    def step(self, key: tuple, j: int) -> tuple:
        """The key of x^u * x_j from the key of x^u: add the key of x_j and
        reduce from column j on."""
        return self._reduced([a + b for a, b in zip(key, self.images[j])], self.starts[j])

    def _reduced(self, r: list, start: int) -> tuple:
        """r reduced by the rows from free column `start` on, to entries in
        [0, diag); the entries before `start` must be reduced already."""
        diag, tails = self.diag, self.tails
        for t in range(start, len(r)):
            q, r[t] = divmod(r[t], diag[t])
            if q:
                for s, h in tails[t]:
                    r[s] -= q * h
        return tuple(r)


def _walk(classes: _Classes, okey, dim: int):
    """The reduced basis of the lattice ideal in the variables `classes.cols`
    whose classes are `classes`, by walking its standard monomials in
    increasing order of the key `okey`; with it, the table that maps each
    class key to its standard monomial."""
    stage = "standard-monomial walk"
    cols, step = classes.cols, classes.step
    zero = (0,) * dim
    std = {classes.origin: zero}  # class key -> its standard monomial
    # border monomial t -> how many standard t/x_i have been popped; when t
    # is popped every smaller monomial has been, so t/x_i is standard for
    # every i in the support of t exactly when the count is the support size
    found = {}
    heap: list = []

    def push(s, key, support):
        for j in cols:
            t = s[:j] + (s[j] + 1,) + s[j + 1:]
            c = found.get(t)
            if c is None:
                found[t] = 1
                heapq.heappush(heap, (okey(t), t, key, j, support + (not s[j])))
            else:
                found[t] = c + 1

    push(zero, classes.origin, 0)
    elements = []
    while heap:
        _, t, key, j, support = heapq.heappop(heap)
        if found[t] != support:
            continue  # a proper divisor of t leads an element
        key = step(key, j)
        s = std.get(key)
        if s is None:
            std[key] = t
            push(t, key, support)
        elif s == t:
            raise InvariantError(stage, "trail equals its leading monomial", t)
        else:
            elements.append(Binomial(t, s))
    if len(std) != classes.index:
        raise InvariantError(
            stage, f"number of standard monomials is not the lattice index {classes.index}", len(std)
        )
    return elements, std


def _run(binoms, order: MonomialOrder, space: VariableSpace, width: int) -> GroebnerBasis:
    okey = order.key
    pk = _Packed(space.dim, width)
    pack, unpack, normalize, guard = pk.pack, pk.unpack, pk.normalize, pk.guard
    lead_p, trail_p, lead_sm = pk.lead_p, pk.trail_p, pk.lead_sm
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
            entry = (okey(lcm), counter, i, t, pack(lcm), lead_sm[i] | sm_t)
            counter += 1
            heapq.heappush(heap, entry)
            pending.add((i, t))

    def add_element(a_p, b_p):
        if a_p == b_p:
            return
        a_t, b_t = unpack(a_p), unpack(b_p)
        if okey(a_t) < okey(b_t):
            a_p, a_t, b_p = b_p, b_t, a_p
        pk.add(a_p, b_p)
        lead_t.append(a_t)
        push_pairs(len(lead_p) - 1)

    for b in binoms:
        add_element(normalize(pack(b.lhs)), normalize(pack(b.rhs)))

    while heap:
        _, _, i, j, L_p, L_sm = heapq.heappop(heap)
        pending.discard((i, j))
        # chain criterion: a third lead divides the lcm and both mixed pairs
        # are no longer waiting
        skip = False
        Lg, outside = L_p | guard, guard ^ L_sm
        for g in range(len(lead_p)):
            if g == i or g == j:
                continue
            if not lead_sm[g] & outside and (Lg - lead_p[g]) & guard == guard:
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
            normalize(L_p - lead_p[i] + trail_p[i]),
            normalize(L_p - lead_p[j] + trail_p[j]),
        )

    # autoreduction: keep minimal leading monomials, then normalize the trails
    # against the kept leads (a lead never divides anything below itself, so
    # an element's own lead never rewrites its trail)
    idx = sorted(range(len(lead_p)), key=lambda g: okey(lead_t[g]))
    kept = []
    for g in idx:
        mg, outside = lead_p[g] | guard, guard ^ lead_sm[g]
        if not any(not lead_sm[h] & outside and (mg - lead_p[h]) & guard == guard for h in kept):
            kept.append(g)

    red = _Packed(space.dim, width)
    for g in kept:
        red.add(lead_p[g], trail_p[g])
    final = []
    for g in kept:
        trail = red.normalize(trail_p[g])
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
