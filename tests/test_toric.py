"""Integer kernels and toric ideals from matrices."""

from fractions import Fraction

from codegb.binomials import Binomial, BinomialSet, Block, VariableSpace
from codegb.matrices import IntMatrix, build_He, lawrence_lift
from codegb.toric import kernel_basis, toric_ideal


def rational_rank(rows):
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_kernel_vectors_annihilate():
    A = IntMatrix([[1, 2, 1, 0, 0, 0, 3], [1, 0, 0, 1, 0, 0, 0], [0, 1, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1, 0]])
    kb = kernel_basis(A)
    assert all(len(v) == 7 for v in kb)
    assert len(kb) == 7 - rational_rank([list(A.row(i)) for i in range(A.nrows)])
    for v in kb:
        for i in range(A.nrows):
            assert sum(a * b for a, b in zip(A.row(i), v)) == 0


def test_kernel_of_injective_matrix_is_empty():
    assert len(kernel_basis(IntMatrix.identity(3))) == 0


def test_kernel_spans_integrally():
    # (2 4): kernel is generated by (2, -1), not (4, -2)
    kb = kernel_basis(IntMatrix([[2, 4]]))
    assert len(kb) == 1
    v = list(kb)[0]
    assert tuple(abs(x) for x in v) == (2, 1)


def test_kernel_basis_is_the_golden_basis():
    # A kernel lattice has many bases; these pin the one the smallest-pivot
    # row reduction gives (the first row among equal |entries|), on the
    # [3,2] code's H(q) and Lawrence lift and on the homogenised form that
    # toric_ideal builds for a matrix with negative entries.
    He = IntMatrix([[1, 2, 1]])  # parity 1 2 1 over GF(3)
    assert kernel_basis(IntMatrix([[1, 2, 1, 3]])) == ((-2, 1, 0, 0), (-1, 0, 1, 0), (-3, 0, 0, 1))
    assert kernel_basis(lawrence_lift(He, 3)) == (
        (2, -1, 0, -2, 1, 0, 0),
        (1, 0, -1, -1, 0, 1, 0),
        (-3, 0, 0, 3, 0, 0, 1),
    )
    homogenised = IntMatrix([[-1, 3, 0, 2, 3, 0], [1, -2, 3, 3, 1, 0], [1, 1, 1, 1, 1, 1]])
    assert kernel_basis(homogenised) == (
        (-13, -5, 0, 1, 0, 17),
        (-9, -4, 0, 0, 1, 12),
        (-9, -3, 1, 0, 0, 11),
    )


def sp(n):
    return VariableSpace(Block("x", (n, 1)))


def canon(bs):
    return {b.canonical() for b in bs}


def test_toric_of_a_single_row():
    t = toric_ideal(IntMatrix([[1, 1]]), sp(2))
    assert canon(t) == {Binomial((1, 0), (0, 1)).canonical()}


def test_toric_of_identity_is_trivial():
    assert len(toric_ideal(IntMatrix.identity(2), sp(2))) == 0


def test_toric_zero_columns_give_unit_binomials():
    t = toric_ideal(IntMatrix([[0, 0]], ncols=2), sp(2))
    assert canon(t) == {
        Binomial((1, 0), (0, 0)).canonical(),
        Binomial((0, 1), (0, 0)).canonical(),
    }


def test_toric_mixed_zero_columns():
    t = toric_ideal(IntMatrix([[1, 0, 1]]), sp(3))
    assert canon(t) == {
        Binomial((0, 1, 0), (0, 0, 0)).canonical(),
        Binomial((1, 0, 0), (0, 0, 1)).canonical(),
    }


def test_toric_with_negative_entries():
    # kernel of (1 -1) is spanned by (1, 1)
    t = toric_ideal(IntMatrix([[1, -1]]), sp(2))
    assert canon(t) == {Binomial((1, 1), (0, 0)).canonical()}


def test_toric_saturation_finds_nonobvious_members(code_f3):
    from codegb.groebner import buchberger, reduce
    from codegb.orders import degrevlex

    # x1 y3 - x3 y1 is in the lifted ideal; check it reduces to zero
    lam = lawrence_lift(build_He(code_f3), 3)
    space = VariableSpace(Block("x", (3, 1)), Block("y", (3, 1)), Block("z", 1))
    t = toric_ideal(lam, space)
    gb = buchberger(t, degrevlex(7))
    target = Binomial((1, 0, 0, 0, 0, 1, 0), (0, 0, 1, 1, 0, 0, 0))
    assert reduce(target, gb) is None


def test_toric_generators_lie_in_the_kernel_lattice(code_f3):
    lam = lawrence_lift(build_He(code_f3), 3)
    space = VariableSpace(Block("x", (3, 1)), Block("y", (3, 1)), Block("z", 1))
    for b in toric_ideal(lam, space):
        d = [p - q for p, q in zip(b.lhs, b.rhs)]
        for i in range(lam.nrows):
            assert sum(a * v for a, v in zip(lam.row(i), d)) == 0
        # the identity rows force mirrored x and y differences
        assert d[:3] == [-v for v in d[3:6]]
