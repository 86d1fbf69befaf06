from itertools import product

import pytest

from codegb.codes import LinearCode, _rref
from codegb.fields import FiniteField


# Helpers the test modules import from here: two oracles, the rank of a list
# of rows and the listing of every codeword, and the three-way comparison of
# two monomials by an order's keys.


def rank(ff, rows) -> int:
    """Rank over GF(q) of a list of rows: its pivots under the code's own elimination."""
    return len(_rref(ff, rows)[1])


def codewords(code):
    """All q^k codewords of a code, enumerated from its generator rows."""
    ff = code.ff
    for coeffs in product(ff.elements(), repeat=code.k):
        w = [ff.zero()] * code.n
        for c, row in zip(coeffs, code.G):
            if c:
                w = [acc + c * v for acc, v in zip(w, row)]
        yield tuple(w)


def compare(order, u, v) -> int:
    """-1, 0 or 1 as x^u <, =, > x^v under a monomial order, by its keys."""
    a, b = order.key(u), order.key(v)
    return (a > b) - (a < b)


@pytest.fixture(scope="session")
def ff2():
    return FiniteField(2, 1, (0, 1))


@pytest.fixture(scope="session")
def ff3():
    return FiniteField(3, 1, (0, 1))


@pytest.fixture(scope="session")
def ff4():
    # GF(4) with a^2 + a + 1 = 0 and projection basis {a, 1}
    ff = FiniteField(2, 2, (1, 1, 1))
    return ff.with_basis([ff.alpha(), ff.one()])


@pytest.fixture(scope="session")
def ff9():
    # GF(9) with a^2 + a + 2 = 0, default basis {1, a}
    return FiniteField(3, 2, (2, 1, 1))


@pytest.fixture(scope="session")
def code_f3(ff3):
    one, two = ff3.from_int(1), ff3.from_int(2)
    return LinearCode.from_parity(ff3, [[one, two, one]])


@pytest.fixture(scope="session")
def code_f4(ff4):
    a = ff4.alpha()
    return LinearCode.from_parity(ff4, [[a, ff4.one(), a * a]])


@pytest.fixture(scope="session")
def code_f9(ff9):
    a = ff9.alpha()
    z = ff9.zero()
    return LinearCode.from_parity(ff9, [[a * a, a, z], [z, z, a ** 6]])


# Checklist recording: the acceptance module reports one PASS/FAIL line per
# criterion and the lines are echoed after the run, outside output capture.
ACCEPTANCE_RESULTS: list = []


@pytest.fixture(scope="session")
def acceptance():
    def record(name: str, ok: bool, detail: str = ""):
        ACCEPTANCE_RESULTS.append((name, ok, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}{suffix}")
