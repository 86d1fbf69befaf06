"""Exact feasibility of {x >= 0 : Ax >= b}, decided on the LP dual.

By Farkas' lemma the system is infeasible iff some y >= 0 has A^T y <= 0 and
b^T y > 0.  So the solver runs the simplex method on

    max b^T y  s.t.  A^T y <= 0,  b^T y <= 1,  y >= 0

from the basis y = 0, which is feasible since every right-hand side is 0 or
1: no phase one, no artificial variables, and a tableau of d + 1 rows and
m + d + 2 columns for d unknowns and m inequalities.  The optimum is 0 or 1.
At 0 the reduced costs of the first d slack columns are the dual solution x,
which satisfies the system exactly.  At 1 the basic y is a Farkas vector,
re-checked exactly before infeasibility is reported.

Everything runs over Fraction; Bland's rule guarantees termination, so the
result is a decision procedure, not a numerical heuristic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .binomials import InvariantError

_ZERO = Fraction(0)
_ONE = Fraction(1)

# generous bound; Bland's rule cannot cycle, so hitting this means a bug
_MAX_PIVOTS = 200000


def feasible_point(
    rows: Sequence[Sequence[int]], rhs: Sequence, dim: int
) -> Optional[tuple]:
    """Some nonnegative rational x with rows[k] . x >= rhs[k] for every k.

    Returns None when the system is infeasible, once a Farkas vector proving
    it has been checked.
    """
    m, n = len(rows), dim
    if any(len(r) != n for r in rows):
        raise ValueError("row length disagrees with dim")
    b = [Fraction(v) for v in rhs]
    # row i < n: (A^T y)_i + s_i = 0; row n: b^T y + s_n = 1; columns y, s, rhs
    T = [[Fraction(r[i]) for r in rows] + [_ZERO] * (n + 2) for i in range(n)]
    T.append(b + [_ZERO] * (n + 1) + [_ONE])
    for i in range(n + 1):
        T[i][m + i] = _ONE
    basis = list(range(m, m + n + 1))
    obj = [-v for v in b] + [_ZERO] * (n + 2)  # reduced costs; obj[-1] = b^T y

    for _ in range(_MAX_PIVOTS):
        enter = next((j for j in range(m + n + 1) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(n + 1):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise InvariantError("lp", "dual objective unbounded despite b^T y <= 1", enter)
        piv = T[leave][enter]
        prow = [v / piv if v else v for v in T[leave]]
        T[leave] = prow
        for i in range(n + 1):
            f = T[i][enter]
            if i != leave and f:
                T[i] = [v - f * w if w else v for v, w in zip(T[i], prow)]
        f = obj[enter]
        obj = [v - f * w if w else v for v, w in zip(obj, prow)]
        basis[leave] = enter
    else:
        raise InvariantError("lp", "pivot limit exceeded", _MAX_PIVOTS)

    if obj[-1] == 0:
        return tuple(obj[m : m + n])
    y = [_ZERO] * m
    for i, j in enumerate(basis):
        if j < m:
            y[j] = T[i][-1]
    if (
        any(v < 0 for v in y)
        or any(sum(r[i] * v for r, v in zip(rows, y)) > 0 for i in range(n))
        or sum(c * v for c, v in zip(b, y)) <= 0
    ):
        raise InvariantError("lp", "Farkas vector fails its exact check", tuple(y))
    return None
