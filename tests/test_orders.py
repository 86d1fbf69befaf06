import random
from fractions import Fraction

import pytest

from codegb.orders import GradedRevlexOrder, LexOrder, WeightOrder, degrevlex, lex


def test_lex_respects_precedence():
    o = lex(3)
    assert o.compare((1, 0, 0), (0, 5, 5)) == 1
    o2 = LexOrder(3, [2, 1, 0])
    assert o2.compare((1, 0, 0), (0, 0, 1)) == -1


def test_degrevlex_degree_first_then_revlex():
    o = degrevlex(3)
    assert o.compare((0, 0, 2), (1, 0, 0)) == 1
    # same degree: smaller exponent at the last variable wins
    assert o.compare((1, 0, 1), (0, 2, 0)) == -1
    assert o.compare((1, 1, 0), (0, 2, 0)) == 1


def test_weighted_degrevlex():
    o = GradedRevlexOrder(2, weights=(3, 1))
    assert o.compare((1, 0), (0, 2)) == 1
    # equal weighted degree: the revlex tail decides
    assert o.compare((1, 0), (0, 3)) == 1


def test_weight_order_tie_break():
    o = WeightOrder((1, 1), degrevlex(2))
    assert o.compare((1, 0), (0, 1)) == degrevlex(2).compare((1, 0), (0, 1))
    o2 = WeightOrder((2, 1), degrevlex(2))
    assert o2.compare((1, 0), (0, 1)) == 1


def test_weight_order_rejects_negative_weights():
    with pytest.raises(ValueError):
        WeightOrder((-1, 1), degrevlex(2))


def test_bad_precedence_rejected():
    with pytest.raises(ValueError):
        LexOrder(3, [0, 0, 1])


def test_unit_is_minimal():
    for o in (lex(3), degrevlex(3), WeightOrder((2, 0, 1), lex(3))):
        zero = (0, 0, 0)
        for u in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0)]:
            assert o.compare(u, zero) == 1


def test_weight_order_keys_order_as_the_fraction_weights_do():
    # the key sums integer weights scaled by their common denominator; the
    # order must be the one of the Fraction weights, which stay public
    rng = random.Random(4)
    for _ in range(200):
        dim = rng.randint(1, 6)
        o = WeightOrder([Fraction(rng.randrange(8), rng.randint(1, 9)) for _ in range(dim)], degrevlex(dim))
        assert all(type(w) is Fraction for w in o.weights)

        def fraction_key(u):
            return (sum(w * e for w, e in zip(o.weights, u)), o.tie.key(u))

        vectors = list({tuple(rng.randrange(5) for _ in range(dim)) for _ in range(40)})
        assert sorted(vectors, key=o.key) == sorted(vectors, key=fraction_key)
