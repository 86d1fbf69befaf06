"""Integer kernel lattices and toric ideals of integer matrices.

kernel_basis reads ker_Z(A) off the echelon form (matrices._echelon) of the
columns of A, each extended by a unit vector that records the row operations;
those are unimodular, so the returned vectors span the full kernel lattice
rather than a finite-index sublattice.  toric_ideal turns a kernel basis into
binomial generators and saturates; the saturation trick (graded-revlex with
the cheapest variable) needs a positive grading that makes the ideal
homogeneous, which is arranged per matrix shape below.
"""

from __future__ import annotations

from .binomials import (
    Binomial,
    BinomialSet,
    Block,
    DimensionMismatchError,
    VariableSpace,
    split_pos_neg,
    substitute_ones,
)
from .groebner import saturate_all
from .matrices import IntMatrix, _echelon


def kernel_basis(A: IntMatrix) -> tuple:
    """Lattice basis of the integer kernel of A: a tuple of int vectors v of
    length A.ncols with Av = 0.  The rows col_j(A) | e_j, brought to echelon
    form over their first A.nrows entries, end as pivot rows and rows
    (0 | u) with Au = 0; the row operations are unimodular, so those u span
    ker_Z(A) itself."""
    m, n = A.nrows, A.ncols
    rows = [[*A.column(j)] + [0] * n for j in range(n)]
    for j, row in enumerate(rows):
        row[m + j] = 1
    _, rest = _echelon(rows, m)
    return tuple(tuple(row[m:]) for row in rest)


def _lattice_generators(A: IntMatrix, space: VariableSpace) -> BinomialSet:
    gens = [Binomial(*split_pos_neg(v)) for v in kernel_basis(A)]
    return BinomialSet(space, gens)


def toric_ideal(A: IntMatrix, space: VariableSpace | None = None) -> BinomialSet:
    """Generating set of the toric ideal of A.

    Forms the lattice-basis ideal of ker_Z(A) and saturates at every variable.
    Nonnegative matrices without zero columns use their column sums as the
    positive grading; zero columns contribute x_j - 1 directly; matrices with
    negative entries are computed through an added homogenizing variable that
    is substituted away at the end.
    """
    N = A.ncols
    if space is None:
        space = VariableSpace(Block("x", N))
    if space.dim != N:
        raise DimensionMismatchError(
            f"matrix has {N} columns but the variable space has dimension {space.dim}"
        )

    if all(e >= 0 for row in A for e in row):
        sums = [sum(A.column(j)) for j in range(N)]
        zero_cols = [j for j in range(N) if sums[j] == 0]
        if not zero_cols:
            return saturate_all(_lattice_generators(A, space), sums)
        # an all-zero column means x_j - 1 itself lies in the ideal; split it off
        keep = [j for j in range(N) if sums[j] > 0]
        out = [Binomial(tuple(1 if i == j else 0 for i in range(N)), (0,) * N) for j in zero_cols]
        if keep:
            sub = IntMatrix([[A[i, j] for j in keep] for i in range(A.nrows)], ncols=len(keep))
            inner = toric_ideal(sub, VariableSpace(Block("x", len(keep))))
            for b in inner:
                lhs = [0] * N
                rhs = [0] * N
                for pos, j in enumerate(keep):
                    lhs[j] = b.lhs[pos]
                    rhs[j] = b.rhs[pos]
                out.append(Binomial(lhs, rhs))
        return BinomialSet(space, out)

    # negative entries: adjoin a homogenizing variable via an all-ones row so
    # that total degree becomes a valid positive grading, then set it to 1
    aux = "t"
    names = {b.name for b in space.blocks}
    while aux in names:
        aux = "_" + aux
    ext_space = VariableSpace(*space.blocks, Block(aux, 1))
    rows = [list(A.row(i)) + [0] for i in range(A.nrows)]
    rows.append([1] * N + [1])
    sat = saturate_all(_lattice_generators(IntMatrix(rows), ext_space))
    return substitute_ones(sat, aux)
