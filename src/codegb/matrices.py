"""Exact integer matrices and the code-to-lattice constructions.

Expansions of a parity-check matrix over GF(p^r) into integer matrices over
[0, p), one for each list of slot elements (binomials.slot_elements), their
extension with p*I, and the p-Lawrence lifting.
"""

from __future__ import annotations

from typing import Sequence

from .binomials import GENERALIZED, ORDINARY, slot_elements


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


def expansion(code, slots) -> IntMatrix:
    """The mr x n*len(slots) expansion of the parity rows over the slot
    elements of a position: row (i,s), column (j,t) holds the s-th coordinate
    of slot_t * h_ij."""
    ff = code.ff
    rows = []
    for hrow in code.H:
        cols = [ff.coords(b * h) for h in hrow for b in slots]
        rows.extend([c[s] for c in cols] for s in range(ff.r))
    return IntMatrix(rows, ncols=code.n * len(slots))


def build_He(code) -> IntMatrix:
    """H_e, the expansion over the F_p-basis b_1..b_r."""
    return expansion(code, slot_elements(code.ff, ORDINARY))


def build_Hplus_e(code) -> IntMatrix:
    """H_{+,e}, the expansion over the powers alpha^1..alpha^(q-1)."""
    return expansion(code, slot_elements(code.ff, GENERALIZED))


def extend_with_pI(M: IntMatrix, p: int) -> IntMatrix:
    """(M | p*I) with as many extra columns as M has rows."""
    return hstack(M, IntMatrix.identity(M.nrows, scale=p))


def lawrence_lift(M: IntMatrix, p: int) -> IntMatrix:
    """The p-Lawrence lifting [[M, 0, p*I], [I, I, 0]] of shape (m+N) x (2N+m)."""
    m, n = M.nrows, M.ncols
    top = hstack(M, IntMatrix.zeros(m, n), IntMatrix.identity(m, scale=p))
    bottom = hstack(IntMatrix.identity(n), IntMatrix.identity(n), IntMatrix.zeros(n, m))
    return vstack(top, bottom)
