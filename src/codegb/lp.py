"""Exact feasibility of the open cone {x >= 0 : Ax > 0}, decided on the LP dual.

For an integer matrix A the open cone has a point iff {x >= 0 : Ax >= 1}
does (scale any point of the cone), and by Farkas' lemma that system is
infeasible iff some y >= 0 has A^T y <= 0 and 1^T y > 0.  So the solver runs
the simplex method on

    max 1^T y  s.t.  A^T y <= 0,  1^T y <= 1,  y >= 0

from the basis y = 0, which is feasible since every right-hand side is 0 or
1: no phase one, no artificial variables, and a tableau of d + 1 rows and
m + d + 2 columns for d unknowns and m inequalities.  The optimum is 0 or 1.
At 0 the reduced costs of the first d slack columns are the dual solution x
times the last pivot, an integer point of the cone, returned divided by the
gcd of its entries (each A_k x stays a positive integer, so still >= 1).
At 1 the basic y is a Farkas vector.  Both answers are checked exactly
before they leave: the point is substituted into every row, and the Farkas
vector into A^T y <= 0 and 1^T y > 0.

Integer pivoting (fraction-free Gauss-Jordan; Edmonds 1967, Bareiss 1968).
The tableau, objective row included, is kept as D times the true one, with
D > 0 the previous pivot (D = 1 at the start).  A pivot on the entry
p = T[l][e] > 0 keeps row l, replaces every other row i by
(p T[i] - T[i][e] T[l]) / D, and sets D to p.  Every division is exact:
the starting tableau M is an integer matrix with the identity on its basis
columns, so after any sequence of pivots, with B the current basis columns
of M, the true tableau is B^-1 M and D = |det B|.  By Cramer's rule every
entry of D B^-1 M is then, up to sign, a minor of M, and so an integer (the
objective row is one more row with a fixed basic variable, so the same
holds for it).  Because D > 0, every entry has the sign of the true
one, and the ratio test compares T[i][-1] / T[i][e] by cross-multiplication;
so Bland's rule takes the same pivots as over the rationals, guarantees
termination, and the result is a decision procedure, not a numerical
heuristic.  Entries stay bounded by the minors of the input.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

from .binomials import InvariantError

# generous bound; Bland's rule cannot cycle, so hitting this means a bug
_MAX_PIVOTS = 200000


def feasible_point(rows: Sequence[Sequence[int]], dim: int) -> Optional[tuple]:
    """A primitive nonnegative integer x with rows[k] . x >= 1 for every k,
    read off the dual optimum, or None when there is none.

    Entries of `rows` must be ints; anything else (a bool, a float, a
    Fraction) raises ValueError.  Both answers are checked exactly: a point
    is returned only once it is >= 0 and satisfies every row, and None only
    once a Farkas vector proving infeasibility has passed its check.
    """
    m, n = len(rows), dim
    if any(len(r) != n for r in rows):
        raise ValueError("row length disagrees with dim")
    for r in rows:
        for v in r:
            if type(v) is not int:
                raise ValueError(f"lp entries must be integers, not {v!r}")
    # row i < n: (A^T y)_i + s_i = 0; row n: 1^T y + s_n = 1; columns y, s, rhs
    T = [[r[i] for r in rows] + [0] * (n + 2) for i in range(n)]
    T.append([1] * m + [0] * (n + 1) + [1])
    for i in range(n + 1):
        T[i][m + i] = 1
    basis = list(range(m, m + n + 1))
    obj = [-1] * m + [0] * (n + 2)  # reduced costs; obj[-1] = 1^T y
    D = 1

    for _ in range(_MAX_PIVOTS):
        enter = next((j for j in range(m + n + 1) if obj[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i in range(n + 1):
            a = T[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # T[i][-1] / a against T[leave][-1] / T[leave][enter]
                c = T[i][-1] * T[leave][enter] - T[leave][-1] * a
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise InvariantError("lp", "dual objective unbounded despite 1^T y <= 1", enter)
        prow = T[leave]
        p = prow[enter]
        for i in range(n + 1):
            if i != leave:
                f = T[i][enter]
                if f:
                    T[i] = [(p * v - f * w) // D for v, w in zip(T[i], prow)]
                elif p != D:
                    T[i] = [p * v // D for v in T[i]]
        f = obj[enter]
        obj = [(p * v - f * w) // D for v, w in zip(obj, prow)]
        D = p
        basis[leave] = enter
    else:
        raise InvariantError("lp", "pivot limit exceeded", _MAX_PIVOTS)

    if obj[-1] == 0:
        x = obj[m : m + n]
        g = gcd(*x) or 1
        x = tuple(v // g for v in x)
        if any(v < 0 for v in x) or any(sum(a * v for a, v in zip(r, x)) < 1 for r in rows):
            raise InvariantError("lp", "point fails its exact check", x)
        return x
    # the Farkas vector y scaled by D > 0, which changes none of its signs
    yD = [0] * m
    for i, j in enumerate(basis):
        if j < m:
            yD[j] = T[i][-1]
    if (
        any(v < 0 for v in yD)
        or any(sum(r[i] * v for r, v in zip(rows, yD)) > 0 for i in range(n))
        or sum(yD) <= 0
    ):
        raise InvariantError("lp", "Farkas vector fails its exact check", tuple(yD))
    return None
