"""Exact arithmetic in GF(p^r): discrete logs, basis projections, crossing maps.

Nonzero elements are indexed as powers alpha^1, ..., alpha^(q-1) of a fixed
primitive element alpha, with the unit written alpha^(q-1).  Coordinates are
taken w.r.t. a configurable ordered F_p-basis; the default is the polynomial
basis 1, alpha, ..., alpha^(r-1).
"""

from __future__ import annotations

from typing import Iterable, Sequence

# The largest field order q = p^r accepted: the log table has q - 1 entries,
# and checking p for primality is trial division up to sqrt(p).
FIELD_LIMIT = 2 ** 20


class NonPrimeError(ValueError):
    """The requested characteristic is not a prime number."""


class NonPrimitiveModulusError(ValueError):
    """The modulus does not make alpha generate the multiplicative group."""


class FieldTooLargeError(ValueError):
    """The field order q = p^r exceeds FIELD_LIMIT."""


class DependentBasisError(ValueError):
    """The supplied basis is not an F_p-basis of GF(p^r)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    order = p - 1
    factors = []
    m, d = order, 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, order // f, p) != 1 for f in factors):
            return g
    raise NonPrimitiveModulusError(f"no primitive root mod {p}")


class FieldElement:
    """Element of GF(p^r): zero (k=0) or the power alpha^k, 1 <= k <= q-1."""

    __slots__ = ("field", "k")

    def __init__(self, field: "FiniteField", k: int):
        self.field = field
        self.k = k

    def __bool__(self) -> bool:
        return self.k != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field._arith_key == other.field._arith_key
            and self.k == other.k
        )

    def __hash__(self):
        return hash((self.field._arith_key, self.k))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        f._compat(other)
        p = f.p
        c = tuple((a + b) % p for a, b in zip(f.poly_coords(self), f.poly_coords(other)))
        return f.from_poly_coords(c)

    def __neg__(self) -> "FieldElement":
        f = self.field
        p = f.p
        return f.from_poly_coords(tuple((-a) % p for a in f.poly_coords(self)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        f._compat(other)
        if self.k == 0 or other.k == 0:
            return f.zero()
        qm1 = f.q - 1
        return FieldElement(f, (self.k + other.k - 1) % qm1 + 1)

    def inverse(self) -> "FieldElement":
        if self.k == 0:
            raise ZeroDivisionError("inverse of zero")
        qm1 = self.field.q - 1
        return FieldElement(self.field, (qm1 - self.k) % qm1 or qm1)

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if self.k == 0:
            if e == 0:
                return f.one()
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return f.zero()
        qm1 = f.q - 1
        return FieldElement(f, (self.k * e - 1) % qm1 + 1)

    def times(self, m: int) -> "FieldElement":
        """Integer scalar multiple m*a (m may be negative; wraps mod p)."""
        f = self.field
        p = f.p
        m %= p
        return f.from_poly_coords(tuple((m * a) % p for a in f.poly_coords(self)))

    def __repr__(self) -> str:
        if self.k == 0:
            return "0"
        if self.k == self.field.q - 1:
            return "1"
        if self.k == 1:
            return "a"
        return f"a^{self.k}"


Word = tuple  # a word is a tuple of FieldElement


class FiniteField:
    """GF(p^r) with primitive element alpha and projection basis.

    The log/antilog tables are built by iterating multiplication by alpha and
    checking that the q-1 powers are distinct, nonzero and close with
    alpha^(q-1) = 1; this single bijection check certifies both that the
    modulus is irreducible and that alpha is primitive.
    """

    def __init__(self, p: int, r: int, modulus: Sequence[int], basis=None):
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != r + 1:
            raise NonPrimitiveModulusError(
                f"modulus must be monic of degree {r} over F_{p}, got {modulus}"
            )
        # with p >= 2, r past the limit's bit length already makes q too large
        if p >= 2 and (r >= FIELD_LIMIT.bit_length() or p ** r > FIELD_LIMIT):
            raise FieldTooLargeError(f"field order q = {p}^{r} exceeds {FIELD_LIMIT}")
        if not _is_prime(p):
            raise NonPrimeError(f"p = {p} is not prime")
        modulus = tuple(c % p for c in modulus)
        if modulus[-1] != 1:
            raise NonPrimitiveModulusError(
                f"modulus must be monic of degree {r} over F_{p}, got {modulus}"
            )
        self.p = p
        self.r = r
        self.q = q = p**r
        self.modulus = modulus
        self._arith_key = (p, r, modulus)

        if r == 1:
            a0 = (-modulus[0]) % p
            if a0 == 0:
                # trivial modulus x: pick the smallest primitive root mod p
                a0 = _smallest_primitive_root(p)
            alpha = (a0,)

            def step(c):
                return ((c[0] * a0) % p,)

        else:
            neg = tuple((-c) % p for c in modulus[:r])
            alpha = tuple(1 if i == 1 else 0 for i in range(r))

            def step(c):
                top = c[r - 1]
                out = [(top * neg[0]) % p]
                for i in range(1, r):
                    out.append((c[i - 1] + top * neg[i]) % p)
                return tuple(out)

        pow_coords: list = [None] * q
        log = {}
        c = alpha
        for k in range(1, q):
            if not any(c) or c in log:
                raise NonPrimitiveModulusError(
                    f"modulus {modulus} does not define a primitive element mod {p}"
                )
            pow_coords[k] = c
            log[c] = k
            c = step(c)
        one = tuple(1 if i == 0 else 0 for i in range(r))
        if pow_coords[q - 1] != one:
            raise NonPrimitiveModulusError(
                f"alpha^(q-1) != 1 for modulus {modulus}; alpha is not primitive"
            )
        self._pow_coords = tuple(pow_coords)
        self._log = log

        if basis is None:
            elems = [self.one()] + [self.from_power(j) for j in range(1, r)]
        else:
            elems = [self._adopt(b) for b in basis]
        if len(elems) != r:
            raise DependentBasisError(f"basis must have {r} elements, got {len(elems)}")
        self.basis = tuple(elems)
        # columns of mat are the polynomial coordinates of the basis elements
        mat = [[self.poly_coords(b)[i] for b in elems] for i in range(r)]
        self._basis_inv = _invert_mod(mat, p)

    # -- construction helpers ------------------------------------------------

    def _adopt(self, b: FieldElement) -> FieldElement:
        self._compat(b)
        return FieldElement(self, b.k)

    def _compat(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement) or other.field._arith_key != self._arith_key:
            raise ValueError("elements belong to different fields")

    def with_basis(self, basis: Iterable[FieldElement]) -> "FiniteField":
        """Same field, different ordered projection basis."""
        return FiniteField(self.p, self.r, self.modulus, basis=list(basis))

    # -- element constructors ------------------------------------------------

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, self.q - 1)

    def alpha(self) -> FieldElement:
        return FieldElement(self, 1)

    def from_power(self, k: int) -> FieldElement:
        if not 1 <= k <= self.q - 1:
            raise IndexError(f"power index {k} outside 1..{self.q - 1}")
        return FieldElement(self, k)

    def from_int(self, m: int) -> FieldElement:
        """The prime-subfield element m*1."""
        m %= self.p
        return FieldElement(self, self._log[(m,) + (0,) * (self.r - 1)] if m else 0)

    def from_poly_coords(self, coords: Sequence[int]) -> FieldElement:
        c = tuple(int(v) % self.p for v in coords)
        if len(c) != self.r:
            raise ValueError(f"expected {self.r} coordinates, got {len(c)}")
        if not any(c):
            return FieldElement(self, 0)
        return FieldElement(self, self._log[c])

    def elements(self) -> list:
        return [self.zero()] + [FieldElement(self, k) for k in range(1, self.q)]

    # -- coordinates and projections ------------------------------------------

    def poly_coords(self, a: FieldElement) -> tuple:
        """Coordinates w.r.t. the polynomial basis 1, alpha, ..., alpha^(r-1)."""
        self._compat(a)
        if a.k == 0:
            return (0,) * self.r
        return self._pow_coords[a.k]

    def coords(self, a: FieldElement) -> tuple:
        """Canonical coordinates w.r.t. the configured basis."""
        v = self.poly_coords(a)
        p = self.p
        return tuple(sum(row[j] * v[j] for j in range(self.r)) % p for row in self._basis_inv)

    def projection(self, a: FieldElement, i: int) -> int:
        """The i-th canonical coordinate (1-based)."""
        if not 1 <= i <= self.r:
            raise IndexError(f"projection index {i} outside 1..{self.r}")
        return self.coords(a)[i - 1]

    # -- crossing maps ---------------------------------------------------------

    def cross_up(self, word: Sequence[FieldElement]) -> tuple:
        """Map a word to a 0/1 vector of length n(q-1); block j marks the log of w_j."""
        out = []
        qm1 = self.q - 1
        for w in word:
            self._compat(w)
            block = [0] * qm1
            if w.k:
                block[w.k - 1] = 1
            out.extend(block)
        return tuple(out)

    def cross_down(self, vec: Sequence[int]) -> tuple:
        """Map an integer vector of length n(q-1) to the word with positions
        sum_i v_{j,i} * alpha^i; entries may be negative, sums wrap mod p."""
        return self.combine(vec, [FieldElement(self, k) for k in range(1, self.q)])

    def combine(self, vec: Sequence[int], elements: Sequence[FieldElement]) -> tuple:
        """The word whose position j is sum_t v_{j,t} * elements[t], reading vec
        in blocks of len(elements); entries may be negative, sums wrap mod p."""
        w = len(elements)
        if len(vec) % w:
            raise ValueError(f"vector length {len(vec)} is not a multiple of {w}")
        coords = [self.poly_coords(e) for e in elements]
        word = []
        for j in range(0, len(vec), w):
            acc = [0] * self.r
            for m, pc in zip(vec[j:j + w], coords):
                if m:
                    acc = [a + m * c for a, c in zip(acc, pc)]
            word.append(self.from_poly_coords(acc))
        return tuple(word)

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and self._arith_key == other._arith_key
            and tuple(b.k for b in self.basis) == tuple(b.k for b in other.basis)
        )

    def __hash__(self):
        return hash((self._arith_key, tuple(b.k for b in self.basis)))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _invert_mod(mat, p: int):
    """Invert a square matrix mod p; raises DependentBasisError if singular."""
    n = len(mat)
    aug = [[mat[i][j] % p for j in range(n)] + [1 if k == i else 0 for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] % p), None)
        if piv is None:
            raise DependentBasisError("basis elements are linearly dependent over F_p")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(a - f * b) % p for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
