"""Monomial orders on integer exponent vectors.

Every order exposes a sort key; x^u > x^v iff key(u) > key(v).  Orders carry
an optional variable precedence, a permutation listing variable indices from
most significant to least.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class MonomialOrder:
    dim: int

    def key(self, u: Sequence[int]):
        raise NotImplementedError


def _check_precedence(dim: int, precedence) -> tuple:
    if precedence is None:
        return tuple(range(dim))
    precedence = tuple(precedence)
    if sorted(precedence) != list(range(dim)):
        raise ValueError("precedence must be a permutation of the variable indices")
    return precedence


class LexOrder(MonomialOrder):
    """Lexicographic: the most significant differing variable decides."""

    def __init__(self, dim: int, precedence=None):
        self.dim = dim
        self.precedence = _check_precedence(dim, precedence)

    def key(self, u):
        return tuple(u[i] for i in self.precedence)

    def __repr__(self):
        return f"LexOrder(dim={self.dim})"


class GradedRevlexOrder(MonomialOrder):
    """Weighted degree first, ties broken reverse-lexicographically: among
    equal-weight monomials the one with the smaller exponent at the cheapest
    (last-precedence) variable wins.  Unit weights give degrevlex."""

    def __init__(self, dim: int, precedence=None, weights=None):
        self.dim = dim
        self.precedence = _check_precedence(dim, precedence)
        if weights is None:
            weights = (1,) * dim
        else:
            weights = tuple(weights)
            if len(weights) != dim or any(w <= 0 for w in weights):
                raise ValueError("weights must be positive")
        self.weights = weights
        self._rev = tuple(reversed(self.precedence))

    def key(self, u):
        w = self.weights
        return (
            sum(w[i] * u[i] for i in range(self.dim)),
            tuple(-u[i] for i in self._rev),
        )

    def __repr__(self):
        return f"GradedRevlexOrder(dim={self.dim})"


class WeightOrder(MonomialOrder):
    """Compare by a nonnegative rational weight vector, break ties with
    another order: x^a > x^b iff a.w > b.w, or a.w = b.w and tie says so."""

    def __init__(self, weights: Sequence, tie: MonomialOrder):
        weights = tuple(Fraction(w) for w in weights)
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if len(weights) != tie.dim:
            raise ValueError("weight vector and tie order disagree on dimension")
        self.dim = tie.dim
        self.weights = weights
        self.tie = tie
        # the key sums integers: the weights times their common denominator,
        # which orders monomials as the weights do
        den = math.lcm(*(w.denominator for w in weights))
        self._scaled = tuple(w.numerator * (den // w.denominator) for w in weights)

    def key(self, u):
        return (
            sum(w * e for w, e in zip(self._scaled, u)),
            self.tie.key(u),
        )

    def __repr__(self):
        return f"WeightOrder(dim={self.dim})"


def lex(dim: int, precedence=None) -> LexOrder:
    return LexOrder(dim, precedence)


def degrevlex(dim: int, precedence=None) -> GradedRevlexOrder:
    return GradedRevlexOrder(dim, precedence)
