"""Tests for exact tables, Pochhammer symbols, sinpi/cospi and digamma."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from trigzeta.errors import DomainError
from trigzeta.foundations import (
    BERNOULLI,
    cospi,
    digamma,
    harmonic,
    pochhammer,
    pochhammer_sderiv,
    sinpi,
)

EULER_GAMMA = 0.5772156649015329


def full_recurrence(count):
    """Reference B_0..B_{count-1}: sum_{i=0}^{n} C(n+1, i) B_i = 0 over every i."""
    values = [Fraction(1)]
    for n in range(1, count):
        acc = sum(math.comb(n + 1, i) * values[i] for i in range(n))
        values.append(-acc / (n + 1))
    return tuple(values)


class TestBernoulli:
    def test_known_exact_values(self):
        # [TRIVIAL] textbook rationals, recurrence-checkable by hand
        assert BERNOULLI[0] == (1, 1)
        assert BERNOULLI[1] == (-1, 2)
        assert BERNOULLI[2] == (1, 6)
        assert BERNOULLI[4] == (-1, 30)
        assert BERNOULLI[12] == (-691, 2730)

    def test_odd_vanish(self):
        for n in range(3, 63, 2):
            assert BERNOULLI[n] == (0, 1)

    def test_table_matches_full_recurrence(self):
        assert len(BERNOULLI) == 65
        assert tuple(Fraction(n, d) for n, d in BERNOULLI) == full_recurrence(65)

    def test_pairs_are_integers_in_lowest_terms(self):
        for n, d in BERNOULLI:
            assert type(n) is int and type(d) is int
            assert d > 0 and math.gcd(n, d) == 1, (n, d)


class TestHarmonicAndPochhammer:
    def test_harmonic_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert abs(harmonic(4) - 25.0 / 12.0) < 1e-15

    def test_pochhammer_basic(self):
        assert pochhammer(3.0, 0) == 1.0
        assert pochhammer(3.0, 3) == 3.0 * 4.0 * 5.0
        assert pochhammer(-2.0, 4) == 0.0  # a zero factor

    @pytest.mark.parametrize("s", [-3.5, -2.0, 0.0, 0.25, 1.0, 7.5, 3])
    def test_pochhammer_matches_running_product(self, s):
        for n in range(13):
            out = 1.0
            for i in range(n):
                out *= s + i
            got = pochhammer(s, n)
            assert type(got) is float and got == out, (n, got, out)

    @given(st.floats(-6, 6), st.integers(1, 8))
    def test_pochhammer_sderiv_matches_finite_difference(self, s, n):
        h = 1e-6
        fd = (pochhammer(s + h, n) - pochhammer(s - h, n)) / (2 * h)
        exact = pochhammer_sderiv(s, n)
        assert abs(fd - exact) <= 1e-4 * (1.0 + abs(exact))

    def test_sderiv_finite_at_zero_factor(self):
        # (s)_n = 0 at s = -1, n = 3, but d/ds (s)_n = prod of other factors
        assert pochhammer_sderiv(-1.0, 3) == pytest.approx(-1.0 * 1.0, abs=1e-14)


class TestTrigPi:
    def test_exact_zeros(self):
        assert sinpi(3.0) == 0.0
        assert sinpi(-7.0) == 0.0
        assert cospi(2.5) == 0.0
        assert cospi(-0.5) == 0.0

    def test_signs(self):
        assert sinpi(0.5) == 1.0
        assert sinpi(1.5) == -1.0
        assert cospi(1.0) == -1.0
        assert cospi(2.0) == 1.0

    @given(st.floats(-50, 50))
    def test_matches_stdlib_away_from_zeros(self, t):
        assert sinpi(t) == pytest.approx(math.sin(math.pi * t), abs=1e-12)
        assert cospi(t) == pytest.approx(math.cos(math.pi * t), abs=1e-12)


class TestGammaFamily:
    def test_digamma_known_values(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)
        # recurrence psi(s+1) = psi(s) + 1/s
        assert digamma(2.5) == pytest.approx(digamma(1.5) + 1.0 / 1.5, abs=1e-13)

    def test_digamma_reflection(self):
        # psi(1-s) - psi(s) = pi cot(pi s) at s = 0.25
        lhs = digamma(0.75) - digamma(0.25)
        assert lhs == pytest.approx(math.pi, abs=1e-12)

