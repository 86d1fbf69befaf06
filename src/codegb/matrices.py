"""Exact integer matrices and the code-to-lattice constructions.

Expansions of a parity-check matrix over GF(p^r) into integer matrices over
[0, p), their extension with p*I, and the p-Lawrence lifting.
"""

from __future__ import annotations

from typing import Sequence


class IntMatrix:
    """Immutable integer matrix with exact (arbitrary precision) entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, rows: Sequence[Sequence[int]], ncols: int | None = None):
        entries = tuple(tuple(int(v) for v in row) for row in rows)
        if entries:
            ncols = len(entries[0]) if ncols is None else ncols
            if any(len(row) != ncols for row in entries):
                raise ValueError("ragged rows")
        elif ncols is None:
            raise ValueError("ncols required for a matrix with no rows")
        self.nrows = len(entries)
        self.ncols = ncols
        self.entries = entries

    @classmethod
    def identity(cls, n: int, scale: int = 1) -> "IntMatrix":
        return cls([[scale if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)], ncols=n)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ncols, self.entries))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols})"


def hstack(*mats: IntMatrix) -> IntMatrix:
    rows = mats[0].nrows
    if any(m.nrows != rows for m in mats):
        raise ValueError("row count mismatch")
    ncols = sum(m.ncols for m in mats)
    return IntMatrix(
        [[v for m in mats for v in m.entries[i]] for i in range(rows)], ncols=ncols
    )


def vstack(*mats: IntMatrix) -> IntMatrix:
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("column count mismatch")
    return IntMatrix([row for m in mats for row in m.entries], ncols=ncols)


def build_He(code) -> IntMatrix:
    """The mr x nr expansion: row (i,s), column (j,t) holds the s-th coordinate
    of b_t * h_ij."""
    ff = code.ff
    rows = []
    for i in range(code.m):
        cols = [ff.coords(b * h) for h in code.H[i] for b in ff.basis]
        rows.extend([c[s] for c in cols] for s in range(ff.r))
    return IntMatrix(rows, ncols=code.n * ff.r)


def build_Hplus_e(code) -> IntMatrix:
    """The mr x n(q-1) expansion: row (i,s), column (j,t) holds the s-th
    coordinate of alpha^t * h_ij."""
    ff = code.ff
    qm1 = ff.q - 1
    rows = []
    for i in range(code.m):
        for s in range(1, ff.r + 1):
            out = []
            for j in range(code.n):
                h = code.H[i][j]
                for t in range(1, qm1 + 1):
                    out.append(ff.projection(ff.from_power(t) * h, s))
            rows.append(out)
    return IntMatrix(rows, ncols=code.n * qm1)


def extend_with_pI(M: IntMatrix, p: int) -> IntMatrix:
    """(M | p*I) with as many extra columns as M has rows."""
    return hstack(M, IntMatrix.identity(M.nrows, scale=p))


def lawrence_lift(M: IntMatrix, p: int) -> IntMatrix:
    """The p-Lawrence lifting [[M, 0, p*I], [I, I, 0]] of shape (m+N) x (2N+m)."""
    m, n = M.nrows, M.ncols
    top = hstack(M, IntMatrix.zeros(m, n), IntMatrix.identity(m, scale=p))
    bottom = hstack(IntMatrix.identity(n), IntMatrix.identity(n), IntMatrix.zeros(n, m))
    return vstack(top, bottom)
