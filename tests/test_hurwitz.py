"""Tests for the Hurwitz zeta kernels (Euler-Maclaurin, Taylor table, Bernoulli rows)."""

import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trigzeta import hurwitz
from trigzeta.errors import DomainError, PoleError
from trigzeta.foundations import BERNOULLI, pochhammer
from trigzeta.hurwitz import (
    _MAX_CORRECTION,
    _corrections,
    _em,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    hurwitz_zeta_sderiv_grid,
    plan_for,
)
from trigzeta.verify import _hurwitz_formula_partials


class TestDomain:
    def test_point_validation(self):
        for fn in (hurwitz_zeta, hurwitz_zeta_sderiv, plan_for):
            with pytest.raises(DomainError):
                fn(2.0, 0.0)
            with pytest.raises(PoleError):
                fn(1.0, 0.5)

    def test_non_finite_rejected(self):
        for fn in (hurwitz_zeta, hurwitz_zeta_sderiv, plan_for):
            for s, a in [(math.nan, 0.5), (2.0, math.nan), (math.inf, 0.5),
                         (-math.inf, 0.5), (2.0, math.inf), (-5.0, math.inf)]:
                with pytest.raises(DomainError):
                    fn(s, a)

    def test_overflow_is_a_domain_error(self):
        # where the value does not fit a float: math.exp of the first direct
        # term or a Bernoulli row's Horner pass overflows, or the derivative's
        # first term alone does
        cases = [(hurwitz_zeta, 400.0, 0.1), (hurwitz_zeta_sderiv, 400.0, 0.1),
                 (hurwitz_zeta, 1.5, 1e-300), (hurwitz_zeta_sderiv, 308.2, 0.1),
                 (hurwitz_zeta, -15.0, 1e25)]
        for fn, s, a in cases:
            with pytest.raises(DomainError, match=re.escape(f"overflows a float at s={s}, a={a}")):
                fn(s, a)
        # a value that fits is kept, beside its derivative that does not
        assert hurwitz_zeta(308.2, 0.1) == 1.5848931924609517e308

    def test_plan_for_is_valid_plan(self):
        for s in (-1.5, -0.5, 0.0, 3.0, 20.0):
            plan = plan_for(s, 0.3)
            assert plan.shift_n >= 1
            assert 1 <= plan.correction_m <= 32
            assert plan.est_error > 0.0

    def test_no_route_below_minus_two(self):
        # Euler-Maclaurin serves s > -2 only; below that just the integer
        # orders of the Bernoulli rows (value) and Taylor table (derivative)
        cases = [
            (hurwitz_zeta, -3.3, 0.5), (hurwitz_zeta, -2.0 - 1e-9, 0.5),
            (hurwitz_zeta, -hurwitz._MAX_N - 1.0, 0.5), (hurwitz_zeta_sderiv, -4.0, 3.0),
            (hurwitz_zeta_sderiv, -2.0, 2.5), (hurwitz_zeta_sderiv, -hurwitz._MAX_N - 1.0, 0.5),
            (plan_for, -5.0, 0.3), (plan_for, -2.0, 0.3),
        ]
        cases += [(hurwitz_zeta, -3.0, a) for a in (0.0, -0.5, -math.inf, math.inf, math.nan)]
        for fn, s, a in cases:
            with pytest.raises(DomainError):
                fn(s, a)


class TestValues:
    def test_basel(self):
        # [PAPER-adjacent textbook] zeta(2, 1) = pi^2/6
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)

    def test_direct_series_cross_check(self):
        # [DERIVED] brute-force partial sum with integral tail bound, s=3, a=0.7
        s, a = 3.0, 0.7
        n_terms = 4000
        partial = math.fsum((k + a) ** -s for k in range(n_terms))
        tail_hi = (n_terms - 1 + a) ** (1 - s) / (s - 1)
        value = hurwitz_zeta(s, a)
        assert partial < value < partial + tail_hi

    def test_bernoulli_polynomial_values(self):
        # zeta(-1, a) = -B_2(a)/2 = -(a^2 - a + 1/6)/2  [PAPER: continuation]
        for a in (0.25, 0.5, 1.0, 1.75):
            want = -(a * a - a + 1.0 / 6.0) / 2.0
            assert hurwitz_zeta(-1.0, a) == pytest.approx(want, abs=1e-13)

    @given(st.floats(-2.0, 4.0, exclude_min=True), st.floats(0.1, 3.0))
    @example(-5.0, 0.1)
    @example(-4.0, 1.3)
    @example(-3.0, 2.9)
    @example(-2.0, 0.7)
    @settings(max_examples=60)
    def test_offset_recurrence(self, s, a):
        # zeta(s, a) = a^-s + zeta(s, a+1)
        if abs(s - 1.0) < 1e-6:
            return
        lhs = hurwitz_zeta(s, a)
        rhs = a ** (-s) + hurwitz_zeta(s, a + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestDerivative:
    def test_lerch_lngamma_relation(self):
        # zeta'(0, a) = ln Gamma(a) - (1/2) ln 2pi
        for a in (0.25, 0.5, 0.75, 1.0, 1.6):
            want = math.lgamma(a) - 0.5 * math.log(2.0 * math.pi)
            assert hurwitz_zeta_sderiv(0.0, a) == pytest.approx(want, abs=1e-12)

    def test_central_difference_cross_check(self):
        # [DERIVED] the spec'd independent oracle: symmetric finite difference
        # h large enough that ~1e-12 evaluation jitter divided by 2h stays
        # well under the h^2 truncation budget
        for s, a in [(-1.5, 0.4), (0.5, 0.9), (2.5, 0.3)]:
            h = 1e-4
            fd = (hurwitz_zeta(s + h, a) - hurwitz_zeta(s - h, a)) / (2 * h)
            exact = hurwitz_zeta_sderiv(s, a)
            assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))

    @given(st.floats(-2.0, 3.5, exclude_min=True), st.floats(0.1, 2.5))
    @settings(max_examples=60)
    def test_derivative_offset_recurrence(self, s, a):
        # zeta'(s, a) = -a^-s ln a + zeta'(s, a+1)
        if abs(s - 1.0) < 1e-6:
            return
        lhs = hurwitz_zeta_sderiv(s, a)
        rhs = -(a ** (-s)) * math.log(a) + hurwitz_zeta_sderiv(s, a + 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def prefix_suffix_sderiv(s, n):
    """Reference d/ds (s)_n: fsum over j of prod_{i<j}(s+i) * prod_{i>j}(s+i).

    Returns the value and sum_j |prefix[j] * suffix[j]|, the scale of its
    rounding error.
    """
    prefix = [1.0] * n
    for j in range(1, n):
        prefix[j] = prefix[j - 1] * (s + j - 1)
    suffix = [1.0] * n
    for j in range(n - 2, -1, -1):
        suffix[j] = suffix[j + 1] * (s + j + 1)
    products = [p * q for p, q in zip(prefix, suffix)]
    return math.fsum(products), math.fsum(abs(v) for v in products)


class TestCorrections:
    @pytest.mark.parametrize("s", [float(-k) for k in range(16)] + [
        -14.7, -7.5, -3.3, -1.5, -0.25, 0.5, 2.5, 3.0, 7.7, 20.0])
    def test_recurrence_matches_direct_products(self, s):
        weights = list(_corrections(s, 32))
        assert len(weights) == 32
        for j, (coeff, poch, dpoch) in enumerate(weights, 1):
            n = 2 * j - 1
            assert coeff == float(Fraction(*BERNOULLI[2 * j])) / math.factorial(2 * j)
            assert poch == pochhammer(s, n)
            ref, scale = prefix_suffix_sderiv(s, n)
            assert abs(dpoch - ref) <= 2 * n * 2.0**-52 * scale, (j, dpoch, ref)


def two_pass_plan(s, a):
    """Reference plan: the truncation scan as a separate pass over the weights."""
    shift_n = max(16, math.ceil(abs(s)) + 12)
    log_base = math.log(shift_n + a)
    m_used = 1
    est = math.inf
    for j, (coeff, poch, dpoch) in enumerate(_corrections(s, _MAX_CORRECTION), 1):
        size = (
            abs(coeff) * max(abs(poch), abs(dpoch))
        ) * math.exp((-s - 2 * j + 1) * log_base) * (1.0 + log_base)
        if size <= est:
            m_used = j
            est = size
        if size < 1e-19:
            break
    est = max(est, 1e-18)
    est += 1e-16 * math.exp(max(0.0, -s + 1.0) * log_base)
    return shift_n, m_used, est


def two_pass_kernel(s, a):
    """Reference (value, derivative): the plan's correction depth summed in a second pass."""
    n, m, _ = two_pass_plan(s, a)
    log_base = math.log(n + a)
    parts, dparts = [], []
    for k in range(n):
        lx = math.log(k + a)
        p = math.exp(-s * lx)
        parts.append(p)
        dparts.append(-lx * p)
    tail_pow = math.exp((1.0 - s) * log_base)
    half = 0.5 * math.exp(-s * log_base)
    parts += [tail_pow / (s - 1.0), half]
    dparts += [-tail_pow * (log_base / (s - 1.0) + 1.0 / (s - 1.0) ** 2), -log_base * half]
    for j, (coeff, poch, dpoch) in enumerate(_corrections(s, m), 1):
        power = math.exp((-s - 2 * j + 1) * log_base)
        parts.append(coeff * poch * power)
        dparts.append(coeff * (dpoch - poch * log_base) * power)
    return math.fsum(parts), math.fsum(dparts)


class TestSinglePassKernel:
    @pytest.mark.parametrize("s", [
        0.0, -1.0, -1.5, -0.25, 0.5, 2.0, 2.5, 3.0, 7.7, 20.0])
    def test_matches_two_pass_reference(self, s):
        for a in (1e-3, 0.05, 0.25, 0.5, 0.75, 1.0, 1.7, 3.0):
            plan = plan_for(s, a)
            assert (plan.shift_n, plan.correction_m, plan.est_error) == two_pass_plan(s, a)
            value, deriv = two_pass_kernel(s, a)
            # the public functions at integer s <= 0 take the Bernoulli rows
            # and the Taylor route, which TestBernoulliRoute and
            # TestTaylorRoute gate against exact and frozen values
            if s <= 0.0 and s == int(s):
                assert _em(s, a)[:2] == (value, deriv), (s, a)
            else:
                assert (hurwitz_zeta(s, a), hurwitz_zeta_sderiv(s, a)) == (value, deriv), (s, a)


def _outcome(fn, *args):
    """The bits of each float fn returns, or the name of what it raises."""
    try:
        return [struct.pack("<d", v) for v in fn(*args)[:2]]
    except ArithmeticError as exc:
        return type(exc).__name__


class TestHugeOrders:
    SRC = Path(__file__).resolve().parents[1] / "src"

    def test_huge_orders_return(self):
        # run apart, so that a hang fails this test and not the whole run: the
        # direct sum used to take ceil(s) + 12 terms, forever at s = 1e300
        script = (
            "from trigzeta.errors import DomainError\n"
            "from trigzeta.hurwitz import hurwitz_zeta, hurwitz_zeta_sderiv\n"
            "assert hurwitz_zeta(1e300, 1.0) == 1.0\n"
            "assert hurwitz_zeta_sderiv(1e300, 1.0) == 0.0\n"
            "assert hurwitz_zeta(1e6, 1.5) == 0.0\n"
            "try:\n"
            "    hurwitz_zeta(2000.0, 0.6)\n"
            "    raise SystemExit('no DomainError at s=2000, a=0.6')\n"
            "except DomainError:\n"
            "    pass\n"
        )
        path = os.pathsep.join(filter(None, [str(self.SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr

    def test_short_sum_equals_the_full_one(self):
        # above s = 1100 every term with k + a >= 2 underflows to 0.0, so 16
        # direct terms give the bits of two_pass_kernel's ceil(s) + 12, signs
        # of zero included, and overflow where it overflows
        rng = random.Random(29)
        points = [(math.nextafter(1100.0, math.inf), a) for a in (0.5, 1.0, 2.0, 8.0)]
        points += [(3e4, a) for a in (1e-3, 1.0, math.nextafter(2.0, 0.0), 2.0)]
        # half the offsets in [1/2, 2], where a^-s may be neither 0.0 nor overflow
        points += [(math.exp(rng.uniform(math.log(1100.0), math.log(3e4))),
                    rng.uniform(0.5, 2.0) if i % 2 else rng.uniform(1e-3, 8.0)) for i in range(80)]
        for s, a in points:
            assert _outcome(_em, s, a) == _outcome(two_pass_kernel, s, a), (s, a)
            assert plan_for(s, 1.0).shift_n == 16


def bernoulli_zeta(j, a):
    """zeta(-j, a) = -B_{j+1}(a) / (j+1) as an exact Fraction at the float a."""
    n = j + 1
    a = Fraction(a)
    return -sum(
        math.comb(n, k) * Fraction(*BERNOULLI[k]) * a ** (n - k) for k in range(n + 1)
    ) / n


class TestBernoulliRoute:
    OFFSETS = [k / 64 for k in range(1, 160)] + [
        1e-9, 1e-3, 2.3, math.nextafter(2.5, 0.0), 2.5, 3.0, 7.25, 40.0]

    @pytest.mark.parametrize("s", [float(-j) for j in range(16)])
    def test_matches_exact_rationals(self, s):
        # a float is an exact Fraction, so the error is measured exactly;
        # the Horner pass cancels more as the order grows, and at s = 0 and
        # -1 its two or three terms round to within one eps
        j = int(-s)
        gate = 2.0**-52 if j <= 1 else 32 * 2.0**-52 if j <= 7 else 2e-12
        for a in self.OFFSETS:
            want = bernoulli_zeta(j, a)
            got = hurwitz_zeta(s, a)
            assert abs(Fraction(got) - want) <= gate * (1 + abs(want)), (j, a, got)


class TestTablesFromPairs:
    # each float reader of the (numerator, denominator) pairs gives, bit for
    # bit, the float computed from B_n as an exact Fraction, rounded at the
    # same step
    FRACTIONS = [Fraction(n, d) for n, d in BERNOULLI]

    def test_euler_maclaurin_coefficients(self):
        want = tuple(float(self.FRACTIONS[2 * j]) / math.factorial(2 * j) for j in range(1, 33))
        assert hurwitz._EM_COEFFS == want

    def test_bernoulli_rows(self):
        want = tuple(
            tuple(float(-math.comb(j + 1, k) * self.FRACTIONS[k] / (j + 1)) for k in range(j + 2))
            for j in range(hurwitz._MAX_N + 1)
        )
        assert hurwitz._BERNOULLI_ROWS == want

    def test_taylor_rows(self, monkeypatch):
        # with B_n held as the pair (B_n as a Fraction, 1), each n / (d ...)
        # of the build stays an exact Fraction until it meets a float, and
        # is rounded once there
        monkeypatch.setattr(hurwitz, "BERNOULLI", tuple((b, 1) for b in self.FRACTIONS))
        hurwitz._zeta_positive.cache_clear()
        assert hurwitz._taylor_rows() == hurwitz._TAYLOR


REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())


class TestTaylorRoute:
    def test_matches_frozen_reference(self):
        # 30-digit mpmath zeta'(-n, a) from tests/make_reference.py
        table = REFERENCE["zeta_sderiv"]
        for n in range(16):
            for a, ref in zip(table["a"], table[str(n)]):
                got = hurwitz_zeta_sderiv(-float(n), a)
                assert abs(got - ref) / (1.0 + abs(ref)) <= 1e-14, (n, a, got, ref)

    def test_points_outside_the_route_use_euler_maclaurin(self):
        # s > -2 only: TestDomain pins DomainError below
        points = [(-1.0 + 1e-9, a) for a in (0.3, 1.0, 2.4)]
        points += [(-2.0 + 1e-9, a) for a in (0.3, 1.0, 2.4)]
        points += [(-1.0, 2.5), (-1.0, 3.0), (0.0, 2.5), (-0.5, 0.3), (1.5, 0.3)]
        for s, a in points:
            assert hurwitz_zeta_sderiv(s, a) == _em(s, a)[1], (s, a)

    def test_routes_agree_across_the_boundaries(self):
        for a in (1e-3, 0.05, 0.3, 0.5, 0.9, 1.0, 1.49, 1.6, 2.4):
            # Taylor table against Euler-Maclaurin in s
            inside = hurwitz_zeta_sderiv(-1.0, a)
            for s in (-1.0 + 1e-9, -1.0 - 1e-9):
                assert abs(hurwitz_zeta_sderiv(s, a) - inside) <= 1e-9, (s, a)
            # Bernoulli rows against Euler-Maclaurin at the edge s = -2
            assert abs(hurwitz_zeta(-2.0 + 1e-9, a) - hurwitz_zeta(-2.0, a)) <= 1e-9, a
        below = hurwitz_zeta_sderiv(-1.0, math.nextafter(2.5, 0.0))
        assert abs(below - hurwitz_zeta_sderiv(-1.0, 2.5)) <= 1e-9

    def test_each_zeta_value_is_computed_once(self, monkeypatch):
        # the rows and the zeta'(-2k) values share one zeta(j) memo, so the
        # build makes one _em call per distinct (s, a)
        calls = []
        em = hurwitz._em
        monkeypatch.setattr(hurwitz, "_em", lambda s, a: calls.append((s, a)) or em(s, a))
        hurwitz._zeta_positive.cache_clear()
        assert hurwitz._taylor_rows() == hurwitz._TAYLOR
        assert len(calls) == len(set(calls)) == 35

    def test_bad_offsets_raise_domain_error(self):
        for s in (0.0, -3.0, -15.0):
            for a in (0.0, -0.5, -math.inf, math.inf, math.nan):
                with pytest.raises(DomainError):
                    hurwitz_zeta_sderiv(s, a)


def same_float(got, want):
    """Equal, with the same sign of zero."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


class TestSderivGrid:
    # each recentring branch (a < 1/2, a < 3/2, a < 5/2) and its edges
    EDGES = [
        1e-12, math.nextafter(0.5, 0.0), 0.5,
        math.nextafter(1.5, 0.0), 1.5, math.nextafter(2.5, 0.0),
    ]

    def test_equals_scalar_kernel(self):
        offsets = self.EDGES + [k / 64 for k in range(1, 160)]
        for orders in (range(16), (15, 3, 0, 3)):
            grid = hurwitz_zeta_sderiv_grid(orders, offsets)
            assert grid.shape == (len(orders), len(offsets))
            for n, row in zip(orders, grid.tolist()):
                for a, got in zip(offsets, row):
                    assert same_float(got, hurwitz_zeta_sderiv(-float(n), a)), (n, a)

    def test_empty_grid(self):
        assert hurwitz_zeta_sderiv_grid((0, 5), []).shape == (2, 0)
        assert hurwitz_zeta_sderiv_grid((), [0.5]).shape == (0, 1)

    def test_outside_the_taylor_domain(self):
        cases = [([hurwitz._MAX_N + 1], [0.5]), ([-1], [0.5]), ([1.5], [0.5])]
        cases += [([0, 3], [0.5, math.nan])]
        cases += [([3], [a]) for a in (0.0, -0.5, -1e-300, 2.5, 3.0, math.inf)]
        for orders, offsets in cases:
            with pytest.raises(DomainError):
                hurwitz_zeta_sderiv_grid(orders, offsets)


def scalar_hurwitz_formula_partial(s, a, terms):
    """The one-offset sum, built on its own: the reference of the multi-offset sum."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    phase = 0.5 * math.pi * s - 2.0 * math.pi * a * n
    total = float(np.sum(np.cos(phase) * n ** (-s)))
    return 2.0 * math.gamma(s) / (2.0 * math.pi) ** s * total


class TestHurwitzFormulaPartial:
    OFFSETS = (1e-3, 0.25, 0.5, 0.9, 1.0)

    def test_offsets_equal_the_scalar_sum(self):
        for s in (1.5, 2.0, 3.0, 7.0):
            for terms in (1, 7, 20000):
                want = [scalar_hurwitz_formula_partial(s, a, terms) for a in self.OFFSETS]
                got = _hurwitz_formula_partials(s, self.OFFSETS, terms)
                assert got == want, (s, terms)
                assert all(type(value) is float for value in got)
                backwards = _hurwitz_formula_partials(s, self.OFFSETS[::-1], terms)
                assert backwards == want[::-1], (s, terms)
                for a, value in zip(self.OFFSETS, want):
                    assert _hurwitz_formula_partials(s, [a], terms) == [value], (s, a, terms)

    def test_identity_with_tail_bound(self):
        for s in (2.0, 3.0):
            for a in (0.25, 0.5, 1.0):
                terms = 20000
                got = _hurwitz_formula_partials(s, [a], terms)[0]
                want = hurwitz_zeta(1.0 - s, a)
                bound = (
                    2.0 * math.gamma(s) / (2.0 * math.pi) ** s
                    * terms ** (1.0 - s) / (s - 1.0)
                )
                assert abs(got - want) <= bound

    def test_integral_float_count(self):
        # an integral float count sums that many terms
        three = _hurwitz_formula_partials(2.0, [0.5], 3)
        assert _hurwitz_formula_partials(2.0, [0.5], 3.0) == three
