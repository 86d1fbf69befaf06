"""Pure-difference binomials x^u - x^v over named variable blocks, and the
binomial generating sets attached to a linear code.

Coefficients are implicitly +1/-1, so a binomial is just an ordered pair of
exponent vectors.  Sets deduplicate up to orientation via a fixed canonical
form (the degrevlex-larger side first).
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Sequence

from .fields import FiniteField

ORDINARY = "ordinary"
GENERALIZED = "generalized"


class DimensionMismatchError(ValueError):
    """Exponent vector length disagrees with the variable space."""


class InvariantError(RuntimeError):
    """An internal check failed: a bug in the computation, not bad input.

    Raised instead of asserting, so the checks also run under ``python -O``;
    the message names the stage that failed and the offending element.
    """

    def __init__(self, stage: str, problem: str, element):
        self.stage = stage
        self.element = element
        super().__init__(f"{stage}: {problem}: {element!r}")


class Block:
    """A named block of variables: a (n, r) grid or a flat (m,) run."""

    __slots__ = ("name", "shape")

    def __init__(self, name: str, shape):
        self.name = name
        if isinstance(shape, int):
            shape = (shape,)
        self.shape = tuple(int(d) for d in shape)
        if not 1 <= len(self.shape) <= 2 or any(d < 0 for d in self.shape):
            raise ValueError(f"bad block shape {shape}")

    @property
    def size(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    def __eq__(self, other):
        return isinstance(other, Block) and (self.name, self.shape) == (other.name, other.shape)

    def __hash__(self):
        return hash((self.name, self.shape))

    def __repr__(self):
        return f"Block({self.name!r}, {self.shape})"


class VariableSpace:
    """Ordered variable blocks; variables are flattened row-major per block."""

    __slots__ = ("blocks", "dim", "_offsets", "_names")

    def __init__(self, *blocks):
        built = []
        for b in blocks:
            built.append(b if isinstance(b, Block) else Block(*b))
        if len({b.name for b in built}) != len(built):
            raise ValueError("block names must be distinct")
        self.blocks = tuple(built)
        offsets = {}
        pos = 0
        for b in self.blocks:
            offsets[b.name] = pos
            pos += b.size
        self.dim = pos
        self._offsets = offsets
        names = []
        for b in self.blocks:
            if len(b.shape) == 1:
                names.extend(f"{b.name}[{i}]" for i in range(1, b.shape[0] + 1))
            else:
                n, r = b.shape
                names.extend(
                    f"{b.name}[{i},{j}]" for i in range(1, n + 1) for j in range(1, r + 1)
                )
        self._names = tuple(names)

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

    def block_range(self, name: str) -> range:
        off = self._offsets[name]
        return range(off, off + self.block(name).size)

    def names(self) -> tuple:
        return self._names

    def drop_block(self, name: str) -> "VariableSpace":
        kept = [b for b in self.blocks if b.name != name]
        if len(kept) == len(self.blocks):
            raise KeyError(name)
        return VariableSpace(*kept)

    def __eq__(self, other):
        return isinstance(other, VariableSpace) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "VariableSpace(" + ", ".join(f"{b.name}{b.shape}" for b in self.blocks) + ")"


def ordinary_space(n: int, r: int) -> VariableSpace:
    return VariableSpace(("x", (n, r)))


def generalized_space(n: int, q: int) -> VariableSpace:
    return VariableSpace(("x", (n, q - 1)))


def slot_elements(ff: FiniteField, kind: str) -> tuple:
    """The field elements that the variables x[j,1], x[j,2], ... of a position
    stand for: the F_p-basis b_1..b_r in the ordinary code ideal (coordinate
    projections), the powers alpha^1..alpha^(q-1) in the generalized one (the
    crossing map).  Everything else that depends on the kind is built from
    this list."""
    if kind == ORDINARY:
        return ff.basis
    if kind == GENERALIZED:
        return tuple(ff.from_power(t) for t in range(1, ff.q))
    raise ValueError(f"unknown kind {kind!r}")


def _drl_key(u):
    return (sum(u), tuple(-e for e in reversed(u)))


class Binomial:
    """The difference x^lhs - x^rhs of two distinct monomials."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Sequence[int], rhs: Sequence[int]):
        # index() passes ints and int-likes and raises TypeError on a float,
        # a Fraction or a string, where int() would truncate or parse it
        lhs = tuple(map(index, lhs))
        rhs = tuple(map(index, rhs))
        if len(lhs) != len(rhs):
            raise DimensionMismatchError("sides live in different spaces")
        if any(e < 0 for e in lhs) or any(e < 0 for e in rhs):
            raise ValueError("negative exponent")
        if lhs == rhs:
            raise ValueError("degenerate binomial (both sides equal)")
        self.lhs = lhs
        self.rhs = rhs

    def canonical(self) -> "Binomial":
        """Orientation-normal form: the degrevlex-larger side first."""
        if _drl_key(self.lhs) < _drl_key(self.rhs):
            return Binomial(self.rhs, self.lhs)
        return self

    @property
    def is_pure(self) -> bool:
        """True when the two monomials share no variable."""
        return all(a == 0 or b == 0 for a, b in zip(self.lhs, self.rhs))

    def swapped(self) -> "Binomial":
        return Binomial(self.rhs, self.lhs)

    def __eq__(self, other):
        return isinstance(other, Binomial) and (self.lhs, self.rhs) == (other.lhs, other.rhs)

    def __hash__(self):
        return hash((self.lhs, self.rhs))

    def __repr__(self):
        return f"Binomial({self.lhs}, {self.rhs})"


def split_pos_neg(v: Sequence[int]):
    """v = pos - neg with pos, neg nonnegative of disjoint support."""
    pos = tuple(e if e > 0 else 0 for e in v)
    neg = tuple(-e if e < 0 else 0 for e in v)
    return pos, neg


class BinomialSet:
    """Binomials over a common space, deduplicated up to orientation swap."""

    __slots__ = ("space", "_elems", "_listing")

    def __init__(self, space: VariableSpace, binomials: Iterable[Binomial] = ()):
        elems = set()
        for b in binomials:
            if len(b.lhs) != space.dim:
                raise DimensionMismatchError(
                    f"binomial of length {len(b.lhs)} in a {space.dim}-dim space"
                )
            elems.add(b.canonical())
        self.space = space
        self._elems = frozenset(elems)
        # the set is immutable, so it is sorted once
        self._listing = tuple(sorted(self._elems, key=lambda b: (sum(b.lhs), b.lhs, b.rhs)))

    def __iter__(self):
        return iter(self._listing)

    def __len__(self):
        return len(self._elems)

    def __contains__(self, b: Binomial):
        return b.canonical() in self._elems

    def __eq__(self, other):
        return (
            isinstance(other, BinomialSet)
            and self.space == other.space
            and self._elems == other._elems
        )

    def __hash__(self):
        return hash((self.space, self._elems))

    def sorted(self) -> list:
        """Deterministic listing: leading-side degree, then exponents."""
        return list(self._listing)

    def union(self, other: "BinomialSet") -> "BinomialSet":
        if self.space != other.space:
            raise DimensionMismatchError("union across different spaces")
        return BinomialSet(self.space, list(self._elems) + list(other._elems))

    def __repr__(self):
        return f"BinomialSet({len(self._elems)} over {self.space!r})"


def substitute_ones(s: BinomialSet, block: str) -> BinomialSet:
    """Set every variable of the named block to 1 (delete its exponents);
    binomials whose sides collapse together are dropped."""
    drop = set(s.space.block_range(block))
    keep = [i for i in range(s.space.dim) if i not in drop]
    out = []
    for b in s._elems:
        lhs = tuple(b.lhs[i] for i in keep)
        rhs = tuple(b.rhs[i] for i in keep)
        if lhs != rhs:
            out.append(Binomial(lhs, rhs))
    return BinomialSet(s.space.drop_block(block), out)


def word_of_binomial(code, binom: Binomial, kind: str):
    """The codeword encoded by lhs - rhs, or None when it is not in the code:
    position j is sum_t (lhs - rhs)_(j,t) * slot_t over the slot elements."""
    slots = slot_elements(code.ff, kind)
    if len(binom.lhs) != code.n * len(slots):
        raise DimensionMismatchError(f"expected {code.n} x {len(slots)} exponents")
    word = code.ff.combine([a - b for a, b in zip(binom.lhs, binom.rhs)], slots)
    return word if code.contains(word) else None


def field_relations_Iq(ff: FiniteField, n: int) -> BinomialSet:
    """Additive relations per position: x_iu * x_iv - x_iw when
    alpha^u + alpha^v = alpha^w, and x_iu * x_iv - 1 when the sum is zero."""
    space = generalized_space(n, ff.q)
    qm1 = ff.q - 1
    dim = space.dim
    rels = []
    for i in range(n):
        off = i * qm1
        for u in range(1, qm1 + 1):
            for v in range(u, qm1 + 1):
                s = ff.from_power(u) + ff.from_power(v)
                lhs = [0] * dim
                lhs[off + u - 1] += 1
                lhs[off + v - 1] += 1
                rhs = [0] * dim
                if s.k:
                    rhs[off + s.k - 1] = 1
                rels.append(Binomial(lhs, rhs))
    return BinomialSet(space, rels)


def build_ordinary_generators(code) -> BinomialSet:
    """x^coords(b_s g_i) - 1 for every generator row and basis element,
    plus the p-th power relations x_ij^p - 1."""
    ff = code.ff
    space = ordinary_space(code.n, ff.r)
    dim = space.dim
    gens = []
    for g in code.generator_rows():
        for b in ff.basis:
            w = tuple(b * v for v in g)
            exp = tuple(c for v in w for c in ff.coords(v))
            gens.append(Binomial(exp, (0,) * dim))
    zero = (0,) * dim
    for i in range(dim):
        e = [0] * dim
        e[i] = ff.p
        gens.append(Binomial(tuple(e), zero))
    return BinomialSet(space, gens)


def build_generalized_generators(code) -> BinomialSet:
    """Crossed scalar multiples of the generator rows plus the field relations."""
    ff = code.ff
    space = generalized_space(code.n, ff.q)
    dim = space.dim
    gens = []
    for g in code.generator_rows():
        for s in range(1, ff.q):
            a = ff.from_power(s)
            w = tuple(a * v for v in g)
            gens.append(Binomial(ff.cross_up(w), (0,) * dim))
    return BinomialSet(space, gens).union(field_relations_Iq(ff, code.n))
