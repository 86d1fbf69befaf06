"""Defining matrices: coordinate/crossed parity blocks, pI extension, lifting."""

from fractions import Fraction

import pytest

from codegb.codes import LinearCode
from codegb.fields import FiniteField
from codegb.matrices import (
    IntMatrix,
    build_He,
    build_Hplus_e,
    extend_with_pI,
    hstack,
    lawrence_lift,
    vstack,
)


def rows_of(m):
    return [list(m.row(i)) for i in range(m.nrows)]


def test_intmatrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.nrows == 2 and m.ncols == 2
    assert m[1, 0] == 3
    assert m.column(1) == (2, 4)
    assert rows_of(hstack(m, IntMatrix.identity(2))) == [[1, 2, 1, 0], [3, 4, 0, 1]]
    assert rows_of(vstack(m, IntMatrix.zeros(1, 2))) == [[1, 2], [3, 4], [0, 0]]


@pytest.mark.parametrize("bad", [0.5, 2.0, Fraction(1, 2), "1"])
def test_intmatrix_takes_integral_entries_only(bad):
    # int() would turn [[0.5, 1]] into ((0, 1),), a different matrix
    with pytest.raises(TypeError):
        IntMatrix([[bad, 1]])
    assert IntMatrix([[False, True]]).entries == ((0, 1),)


def test_He_of_the_gf4_two_row_code():
    # H over GF(4) with rows (a, 0, 1, 0) and (a^2, a, 0, 1), basis {1, a}
    ff = FiniteField(2, 2, (1, 1, 1))
    a = ff.alpha()
    z, o = ff.zero(), ff.one()
    code = LinearCode.from_parity(ff, [[a, z, o, z], [a * a, a, z, o]])
    He = build_He(code)
    assert rows_of(He) == [
        [0, 1, 0, 0, 1, 0, 0, 0],
        [1, 1, 0, 0, 0, 1, 0, 0],
        [1, 1, 0, 1, 0, 0, 1, 0],
        [1, 0, 1, 1, 0, 0, 0, 1],
    ]
    H4 = extend_with_pI(He, 2)
    assert H4.ncols == 12
    assert rows_of(H4) == [list(He.row(i)) + [2 * (j == i) for j in range(4)] for i in range(4)]


def test_Hplus_of_the_f4_example(code_f4):
    Hp = extend_with_pI(build_Hplus_e(code_f4), 2)
    assert rows_of(Hp) == [
        [1, 0, 1, 1, 1, 0, 0, 1, 1, 2, 0],
        [1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 2],
    ]


def test_Hplus_blocks_of_the_gf9_code(code_f9):
    Hpe = build_Hplus_e(code_f9)
    assert Hpe.nrows == 4 and Hpe.ncols == 24
    got = rows_of(Hpe)
    block = lambda j, i: got[i][8 * j : 8 * (j + 1)]
    assert block(0, 0) == [2, 2, 0, 2, 1, 1, 0, 1]
    assert block(0, 1) == [2, 0, 2, 1, 1, 0, 1, 2]
    assert block(0, 2) == [0] * 8 and block(0, 3) == [0] * 8
    assert block(1, 0) == [1, 2, 2, 0, 2, 1, 1, 0]
    assert block(1, 1) == [2, 2, 0, 2, 1, 1, 0, 1]
    assert block(2, 0) == [0] * 8 and block(2, 1) == [0] * 8
    assert block(2, 2) == [1, 1, 0, 1, 2, 2, 0, 2]
    assert block(2, 3) == [1, 0, 1, 2, 2, 0, 2, 1]


def test_lawrence_lift_of_the_f3_code(code_f3):
    lam = lawrence_lift(build_He(code_f3), 3)
    assert rows_of(lam) == [
        [1, 2, 1, 0, 0, 0, 3],
        [1, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 1, 0],
    ]


def test_lawrence_lift_shape(code_f4):
    m = build_Hplus_e(code_f4)
    lam = lawrence_lift(m, 2)
    assert lam.nrows == m.nrows + m.ncols
    assert lam.ncols == 2 * m.ncols + m.nrows


def test_He_annihilates_codeword_coordinates(code_f9):
    # H_e . coords(c) = 0 mod p for every codeword c
    ff = code_f9.ff
    He = build_He(code_f9)
    for c in code_f9.codewords():
        vec = [x for el in c for x in ff.coords(el)]
        for i in range(He.nrows):
            assert sum(a * b for a, b in zip(He.row(i), vec)) % ff.p == 0


def test_Hplus_annihilates_crossed_codewords(code_f4):
    ff = code_f4.ff
    Hp = build_Hplus_e(code_f4)
    for c in code_f4.codewords():
        vec = ff.cross_up(c)
        for i in range(Hp.nrows):
            assert sum(a * b for a, b in zip(Hp.row(i), vec)) % ff.p == 0
