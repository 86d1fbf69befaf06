"""Linear codes over GF(p^r) described by parity-check and generator matrices."""

from __future__ import annotations

from itertools import product

from .fields import FiniteField


def _rref(ff: FiniteField, rows):
    """Reduced row echelon form over GF(q); returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    n = len(rows[0])
    pivots = []
    rr = 0
    for col in range(n):
        piv = next((i for i in range(rr, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rr], rows[piv] = rows[piv], rows[rr]
        inv = rows[rr][col].inverse()
        rows[rr] = [v * inv for v in rows[rr]]
        for i in range(len(rows)):
            if i != rr and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rr])]
        pivots.append(col)
        rr += 1
        if rr == len(rows):
            break
    return rows[:rr], pivots


def rank(ff: FiniteField, rows) -> int:
    return len(_rref(ff, rows)[1])


def nullspace(ff: FiniteField, red, pivots, n: int) -> tuple:
    """Basis of {x in GF(q)^n : red . x = 0} for a reduced form (red, pivots)
    of `_rref`, one vector per free column, in column order."""
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        vec = [ff.zero()] * n
        vec[f] = ff.one()
        for i, pc in enumerate(pivots):
            if red[i][f]:
                vec[pc] = -red[i][f]
        basis.append(tuple(vec))
    return tuple(basis)


class LinearCode:
    """An [n, k] code: H is (n-k) x n and G is k x n, both of full rank,
    and G . H^T = 0.

    A code is built from the rows of one matrix and their role, parity or
    generator.  One elimination, `_rref`, checks the given rows and derives
    the other matrix: its rows are `nullspace` of the reduced form.  Nothing
    is checked again, because the reduced form proves what a check would:

    - the given rows are independent when each has a pivot;
    - for a free column f, the derived vector v_f has 1 at f, 0 at the other
      free columns and -red[i][f] at the pivot column of red[i].  So the v_f
      are independent, and there are n - rank of them;
    - red[i] is 1 at its own pivot column and 0 at the others, so
      red[i] . v_f = red[i][f] - red[i][f] = 0.  Every reduced row annihilates
      every v_f, and so does their row space, which is that of the given rows.

    Words are tuples of FieldElement; membership means H . w^T = 0.
    """

    def __init__(self, ff: FiniteField, rows, role: str):
        if role not in ("parity", "generator"):
            raise ValueError(f"role must be 'parity' or 'generator', not {role!r}")
        rows = tuple(tuple(r) for r in rows)
        if not rows:
            raise ValueError(f"at least one {role} row required")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ValueError(f"{role} rows must have length n")
        red, pivots = _rref(ff, rows)
        if len(pivots) != len(rows):
            raise ValueError(
                "parity rows are dependent; pass a full-rank matrix"
                if role == "parity" else "generator rows are dependent"
            )
        other = nullspace(ff, red, pivots, n)
        self.ff = ff
        self.n = n
        self.H, self.G = (rows, other) if role == "parity" else (other, rows)
        self.m = len(self.H)
        self.k = n - self.m

    @classmethod
    def from_parity(cls, ff: FiniteField, rows) -> "LinearCode":
        return cls(ff, rows, "parity")

    @classmethod
    def from_generator(cls, ff: FiniteField, rows) -> "LinearCode":
        return cls(ff, rows, "generator")

    def contains(self, word) -> bool:
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n = {self.n}")
        z = self.ff.zero()
        for row in self.H:
            acc = z
            for h, w in zip(row, word):
                acc = acc + h * w
            if acc:
                return False
        return True

    def generator_rows(self):
        return self.G

    def codewords(self):
        """All q^k codewords, enumerated from G."""
        ff = self.ff
        for coeffs in product(ff.elements(), repeat=self.k):
            w = [ff.zero()] * self.n
            for c, row in zip(coeffs, self.G):
                if c:
                    w = [acc + c * v for acc, v in zip(w, row)]
            yield tuple(w)

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k}, q={self.ff.q})"
