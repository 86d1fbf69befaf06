"""Exact feasibility of the open cone {x >= 0 : Ax > 0}, decided on the LP dual.

For an integer matrix A the open cone has a point iff {x >= 0 : Ax >= 1}
does (scale any point of the cone), and by Farkas' lemma that system is
infeasible iff some y >= 0 has A^T y <= 0 and 1^T y > 0.  So the solver runs
the simplex method on

    max 1^T y  s.t.  A^T y <= 0,  1^T y <= 1,  y >= 0

from the basis y = 0, which is feasible since every right-hand side is 0 or
1: no phase one and no artificial variables.  In tableau form the
constraint matrix is M = [C | I], of d + 1 rows for d unknowns: column j
of C is a_j = (A_j, 1), the column of y_j for the j-th of the m
inequalities, and I holds one slack column per row.  The right-hand side
is b = e_d, the last unit vector.
The optimum is 0 or 1.  At 0 the reduced costs of the first d slacks are
the dual solution x times the last pivot, an integer point of the cone,
returned divided by the gcd of its entries (each A_k x stays a positive
integer, so still >= 1).  At 1 the basic y is a Farkas vector.  Both
answers are checked exactly before they leave: the point is substituted
into every row, and the Farkas vector into A^T y <= 0 and 1^T y > 0.

Integer pivoting (fraction-free Gauss-Jordan; Edmonds 1967, Bareiss 1968).
Let B be the current basis columns of M and D = |det B| (D = 1 at the
start).  The full tableau, objective row included, scaled by D, is T =
D B^-1 M, and every pivot on p = T[l][e] > 0 keeps row l, replaces every
other row i by (p T[i] - T[i][e] T[l]) / D, and sets D to p.  Every
division is exact: by Cramer's rule every entry of D B^-1 M is, up to sign,
a minor of M, and so an integer (the objective row is one more row with a
fixed basic variable, so the same holds for it).  Because D > 0, every
entry has the sign of the true one, and the ratio test compares
T[i][-1] / T[i][e] by cross-multiplication; so Bland's rule takes the same
pivots as over the rationals, guarantees termination, and the result is a
decision procedure, not a numerical heuristic.  Entries stay bounded by
the minors of the input.

Revised form (Bertsimas & Tsitsiklis, Introduction to Linear
Optimization, 1997, ch. 3).  The solver never builds T.  It keeps
W = D B^-1, the slack block of T, and the slack block of its objective
row, pi = D c_B B^-1 (the scaled dual prices), both (d + 1)-long integer
lists; the rest of T follows from them, and so the pivots and answers are
those of the full tableau:

- the column of y_j is T[:, j] = W a_j and its reduced cost is
  pi . a_j - D; the column of slack k is column k of W and its reduced
  cost is pi[k];
- the right-hand side is T[:, -1] = W b, column d of W, and the
  objective value is pi . b = pi[d].

So Bland's rule prices the columns in its order, y_0 .. y_(m-1) and then the
slacks, only up to the first negative reduced cost, and that column is the
one the full tableau enters.  The pivot applies the row operation above to
the slack block alone, on the same integers, so W and pi stay the slack
block of the D-scaled tableau, every division stays exact by the same
Cramer argument, and a pivot costs (d + 1)^2 updates plus the pricing, not
(d + 1)(m + d + 2).
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Optional, Sequence

from .binomials import InvariantError

# generous bound; Bland's rule cannot cycle, so hitting this means a bug
_MAX_PIVOTS = 200000


def feasible_point(rows: Sequence[Sequence[int]], dim: int) -> Optional[tuple]:
    """A primitive nonnegative integer x with rows[k] . x >= 1 for every k,
    read off the dual optimum, or None when there is none.

    A negative `dim`, a row whose length is not `dim`, or an entry that is
    not an int (a bool, a float, a Fraction) raises ValueError.  Both
    answers are checked exactly: a point is returned only once it is >= 0
    and satisfies every row, and None only once a Farkas vector proving
    infeasibility has passed its check.
    """
    m, n = len(rows), dim
    if n < 0:
        raise ValueError(f"dim must be >= 0, not {n}")
    if any(len(r) != n for r in rows):
        raise ValueError("row length disagrees with dim")
    for r in rows:
        for v in r:
            if type(v) is not int:
                raise ValueError(f"lp entries must be integers, not {v!r}")
    # W = D B^-1 and pi = D c_B B^-1, the slack blocks of the scaled tableau
    W = [[int(i == k) for k in range(n + 1)] for i in range(n + 1)]
    pi = [0] * (n + 1)
    basis = list(range(m, m + n + 1))
    D = 1

    for _ in range(_MAX_PIVOTS):
        # Bland: the first column with a negative reduced cost enters.  The
        # cost of y_j is pi . (r_j, 1) - D, and map stops at the end of r_j
        enter = -1
        t = D - pi[n]
        for j, r in enumerate(rows):
            rc = sum(map(mul, pi, r)) - t
            if rc < 0:
                enter, col = j, [sum(map(mul, w, r)) + w[n] for w in W]
                break
        else:
            for k, rc in enumerate(pi):
                if rc < 0:
                    enter, col = m + k, [w[k] for w in W]
                    break
        if enter < 0:
            break
        leave = -1
        for i, a in enumerate(col):
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # W[i][n] / a against W[leave][n] / col[leave], the ratio test
                c = W[i][n] * col[leave] - W[leave][n] * a
                if c < 0 or (c == 0 and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise InvariantError("lp", "dual objective unbounded despite 1^T y <= 1", enter)
        prow = W[leave]
        p = col[leave]
        for i, f in enumerate(col):
            if i != leave:
                if f:
                    W[i] = [(p * v - f * w) // D for v, w in zip(W[i], prow)]
                elif p != D:
                    W[i] = [p * v // D for v in W[i]]
        pi = [(p * v - rc * w) // D for v, w in zip(pi, prow)]
        D = p
        basis[leave] = enter
    else:
        raise InvariantError("lp", "pivot limit exceeded", _MAX_PIVOTS)

    if pi[n] == 0:
        x = pi[:n]
        g = gcd(*x) or 1
        x = tuple(v // g for v in x)
        if any(v < 0 for v in x) or any(sum(map(mul, r, x)) < 1 for r in rows):
            raise InvariantError("lp", "point fails its exact check", x)
        return x
    # the Farkas vector y scaled by D > 0, which changes none of its signs
    yD = [0] * m
    for i, j in enumerate(basis):
        if j < m:
            yD[j] = W[i][n]
    if (
        any(v < 0 for v in yD)
        or any(sum(map(mul, c, yD)) > 0 for c in zip(*rows))
        or sum(yD) <= 0
    ):
        raise InvariantError("lp", "Farkas vector fails its exact check", tuple(yD))
    return None
