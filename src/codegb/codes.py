"""Linear codes over GF(p^r) described by parity-check and generator matrices."""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .fields import FieldElement, FiniteField


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


def nullspace(ff: FiniteField, rows, n: int):
    """Basis of {x in GF(q)^n : rows . x = 0}, one vector per free column."""
    red, pivots = _rref(ff, rows)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        vec = [ff.zero()] * n
        vec[f] = ff.one()
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][f]
        basis.append(tuple(vec))
    return basis


class LinearCode:
    """An [n, k] code: H is (n-k) x n of full rank, G is k x n.

    Words are tuples of FieldElement; membership means H . w^T = 0.
    """

    def __init__(self, ff: FiniteField, n: int, parity_rows, generator_rows):
        self.ff = ff
        self.n = n
        H = tuple(tuple(row) for row in parity_rows)
        if any(len(row) != n for row in H):
            raise ValueError("parity rows must have length n")
        if rank(ff, H) != len(H):
            raise ValueError("parity rows are dependent; pass a full-rank matrix")
        self.H = H
        self.m = len(H)
        self.k = n - self.m
        G = tuple(tuple(row) for row in generator_rows)
        if len(G) != self.k or any(len(row) != n for row in G):
            raise ValueError(f"generator matrix must be {self.k} x {n}")
        if rank(ff, G) != self.k:
            raise ValueError("generator rows are dependent")
        for g in G:
            if any(self._syndrome(g)):
                raise ValueError("generator row is not annihilated by the parity matrix")
        self.G = G

    @classmethod
    def from_parity(cls, ff: FiniteField, rows) -> "LinearCode":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("at least one parity row required")
        n = len(rows[0])
        return cls(ff, n, rows, generator_rows=nullspace(ff, rows, n))

    @classmethod
    def from_generator(cls, ff: FiniteField, rows) -> "LinearCode":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("at least one generator row required")
        n = len(rows[0])
        if rank(ff, rows) != len(rows):
            raise ValueError("generator rows are dependent")
        return cls(ff, n, nullspace(ff, rows, n), generator_rows=rows)

    def _syndrome(self, word) -> tuple:
        z = self.ff.zero()
        out = []
        for row in self.H:
            acc = z
            for h, w in zip(row, word):
                acc = acc + h * w
            out.append(acc)
        return tuple(out)

    def contains(self, word) -> bool:
        if len(word) != self.n:
            raise ValueError(f"word length {len(word)} != n = {self.n}")
        return not any(self._syndrome(word))

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
