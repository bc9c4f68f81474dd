"""Tests for zeta/eta/lambda/beta continuation and special values."""

import math
import time

import pytest

from trigzeta.dirichlet import (
    SPECIAL_VALUES,
    beta_fn,
    dirichlet_lambda,
    eta,
    riemann_zeta,
    zeta_prime_neg_even,
)
from trigzeta.errors import DomainError, PoleError
from trigzeta.foundations import cospi, digamma, sinpi
from trigzeta.hurwitz import hurwitz_zeta

# (s, zeta(s), lambda(s)) at s = 1 +/- {9.99e-4, 5e-4, 1e-6, 1e-12}, the
# values rounded from 40-digit evaluations at the float s
NEAR_POLE = (
    (1.000999, 1001.5782894041242, 501.1357981305498),
    (0.999001, -1000.4238580839922, -499.8654353225448),
    (1.0005, 2000.5772520718333, 1000.6352395893368),
    (0.9995, -1999.4228207444528, -999.3648767532582),
    (1.000001, 1000000.5772980044, 500000.63522267237),
    (0.999999, -999999.4227556522, -499999.3648043158),
    (1.000000000001, 999911107320.8472, 499955553660.7702),
    (0.999999999999, -1000022122208.9257, -500011061104.1162),
)


# (s, zeta(s)) beside s = 0 and beside the trivial zeros -2n, n = 1, 2, 10,
# 59, the values rounded from 40-digit evaluations at the float s
ZETA_NEAR_ZEROS = (
    (-1e-20, -0.49999999999999999999),
    (-1e-12, -0.49999999999908106147),
    (-0.01, -0.49090994160533712582),
    (-2.0 + 1e-12, -3.0451163943990034832e-14),
    (-2.0 - 1e-10, 3.0448459574421727788e-12),
    (-4.0 + 1e-12, 7.9845212157587232159e-15),
    (-4.0 - 1e-10, -7.9838121105652748229e-13),
    (-20.0 + 1e-12, 1.3205777910712807942e-10),
    (-20.0 - 1e-10, -1.3227865868228854513e-8),
    (-118.0 + 1e-12, -1.5210007119158833792e88),
    (-118.0 - 1e-10, 1.5290402875609991696e90),
)

# (s, beta(s)) beside the zeros -(2n-1): above them for n = 1, 2, 8, 60,
# and below -127, where 1 - s needs one more bit than s; then where the
# Dirichlet series takes over; rounded in the same way
BETA_NEAR_ZEROS = (
    (-1.0 + 1e-10, 5.8312185630583800118e-11),
    (-3.0 + 1e-10, -1.53095913117131184e-10),
    (-15.0 + 1e-10, -0.14952075503018201785),
    (-119.0 + 1e-10, -2.5583207002948043532e163),
    (-127.0 - 1e-10, 3.7302118013442466804e178),
)
BETA_SERIES = ((25.5, 0.99999999999931859228), (38.625, 0.99999999999999999963))

# (s, zeta(s), beta(s)) just below -(2^k - 1), where 1 - s needs one more
# bit than s, from 40-digit evaluations at the float s:
#   mpmath.mp.dps = 40; s = mpmath.mpf(s)
#   mpmath.zeta(s), 4**-s * (mpmath.zeta(s, 0.25) - mpmath.zeta(s, 0.75))
BESIDE_ODD_POWERS = (
    (-127.00000001, 4.1016347396232752628e111, 3.7301430525836838151e180),
    (-127.3, 9.0196657168310543115e111, 4.0329535007134756066e188),
    (-63.00000001, 3.2715634993248057959e36, 8.743488083054432442e66),
)


def alternating_partial(f, n_terms):
    """Brute-force alternating sum with the alternating-series tail bound."""
    total = math.fsum(f(n) * (-1.0) ** (n + 1) for n in range(1, n_terms + 1))
    return total, abs(f(n_terms + 1))


class TestSpecialValuesTable:
    def test_table_is_exact(self):
        functions = {
            "zeta": riemann_zeta, "eta": eta, "lambda": dirichlet_lambda, "beta": beta_fn,
        }
        for sv in SPECIAL_VALUES:
            got = functions[sv.function_id](float(sv.argument))
            assert abs(got - sv.value) <= 1e-12, sv

    def test_trivial_zeros_are_exact_floats(self):
        # [TRIVIAL] functional equations carry exact sinpi/cospi zeros
        for n in range(1, 9):
            assert riemann_zeta(-2.0 * n) == 0.0
            assert eta(-2.0 * n) == 0.0
            assert dirichlet_lambda(-2.0 * n) == 0.0
            assert beta_fn(float(1 - 2 * n)) == 0.0

    def test_trivial_zeros_are_positive_zeros(self):
        # below s = 0 the factor of eta and lambda is negative, and times
        # zeta's +0.0 gave -0.0
        for s in [-2.0 * n for n in range(1, 9)] + [-600.0, -1024.0, -2000.0]:
            for fn in (riemann_zeta, eta, dirichlet_lambda):
                assert math.copysign(1.0, fn(s)) == 1.0, (fn.__name__, s)
            assert math.copysign(1.0, beta_fn(s + 1.0)) == 1.0, s


class TestZeta:
    def test_positive_values(self):
        assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
        assert riemann_zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)

    def test_negative_rationals(self):
        # zeta(-1) = -1/12, zeta(-3) = 1/120  [PAPER: functional equation]
        assert riemann_zeta(-1.0) == pytest.approx(-1.0 / 12.0, abs=1e-15)
        assert riemann_zeta(-3.0) == pytest.approx(1.0 / 120.0, abs=1e-15)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            riemann_zeta(1.0)
        # every other s answers, however close to the pole
        for s, want, _ in NEAR_POLE:
            assert abs(riemann_zeta(s) - want) <= 2 * 2.0**-52 * abs(want), s

    def test_zeta_prime_neg_even_vs_finite_difference(self):
        # [DERIVED] central difference of the functional-equation route
        for n in (1, 2, 3):
            h = 1e-6
            fd = (riemann_zeta(-2.0 * n + h) - riemann_zeta(-2.0 * n - h)) / (2 * h)
            assert zeta_prime_neg_even(n) == pytest.approx(fd, rel=1e-7)

    def test_zeta_prime_neg_even_needs_an_integer(self):
        # the closed form holds only at integer n >= 1
        for n in (2.5, 0.5, 0, -1, math.nan, math.inf):
            with pytest.raises(DomainError):
                zeta_prime_neg_even(n)
        assert zeta_prime_neg_even(2.0) == zeta_prime_neg_even(2)

    def test_zeta_prime_neg_even_overflow_is_a_domain_error(self):
        # the value fits a float up to n = 129; beyond, the magnitude is
        # checked before zeta(2n + 1), so even n = 10^6 refuses at once
        assert zeta_prime_neg_even(100) == 9.1176931612979850e214
        assert math.isfinite(zeta_prime_neg_even(129))
        for n in (130, 150, 10**6):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"n={n}"):
                zeta_prime_neg_even(n)
            assert time.perf_counter() - start < 0.1


class TestBesideZeros:
    def test_zeta_beside_zero_and_trivial_zeros(self):
        # [DERIVED] the trig factor is taken at the exact s/2, and zeta
        # keeps Euler-Maclaurin where 1 - s would round s away
        for s, want in ZETA_NEAR_ZEROS:
            assert abs(riemann_zeta(s) - want) <= 1e-13 * abs(want), s

    def test_beta_beside_its_zeros(self):
        for s, want in BETA_NEAR_ZEROS:
            assert abs(beta_fn(s) - want) <= 1e-13 * abs(want), s

    def test_reflection_takes_the_exact_argument(self):
        # [DERIVED] Gamma(1 - s) = -s Gamma(-s) and base^(s - 1) = base^s / base
        # read s itself, not the rounded 1 - s
        for s, zeta, beta in BESIDE_ODD_POWERS:
            assert abs(riemann_zeta(s) - zeta) <= 1e-14 * abs(zeta), s
            assert abs(beta_fn(s) - beta) <= 1e-14 * abs(beta), s

    def test_cospi_beside_its_zeros(self):
        # cos(pi t) rounded from 40-digit evaluations at the float t
        for t, want in ((0.5 - 1e-9, 3.1415927391329100189e-9),
                        (-1.5 + 1e-10, -3.1415929135263349244e-10)):
            assert abs(cospi(t) - want) <= 2.0**-52 * abs(want), t


class TestEtaLambda:
    def test_eta_at_one(self):
        assert eta(1.0) == math.log(2.0)

    def test_eta_vs_alternating_sum(self):
        # [DERIVED] brute-force alternating series, tail-bounded
        for s in (2.0, 3.5):
            got, bound = alternating_partial(lambda n: n**-s, 200000)
            assert abs(eta(s) - got) <= bound

    def test_eta_zeta_relation(self):
        for s in (0.5, 2.0, -2.5, 5.0):
            want = (1.0 - 2.0 ** (1.0 - s)) * riemann_zeta(s)
            assert eta(s) == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_lambda_values_and_guard(self):
        assert dirichlet_lambda(2.0) == pytest.approx(math.pi**2 / 8.0, rel=1e-14)
        with pytest.raises(PoleError):
            dirichlet_lambda(1.0)
        for s, _, want in NEAR_POLE:
            assert abs(dirichlet_lambda(s) - want) <= 2 * 2.0**-52 * abs(want), s


class TestBeta:
    def test_beta_one_and_two(self):
        assert beta_fn(1.0) == pytest.approx(math.pi / 4.0, abs=1e-14)
        # beta(2) is Catalan's constant; cross-check by brute force
        got, bound = alternating_partial(lambda n: (2 * n - 1) ** -2.0, 300000)
        assert abs(beta_fn(2.0) - got) <= bound + 1e-13

    def test_beta_three(self):
        assert beta_fn(3.0) == pytest.approx(math.pi**3 / 32.0, rel=1e-13)

    def test_beta_series_is_correctly_rounded(self):
        for s, want in BETA_SERIES:
            assert beta_fn(s) == want, s

    def test_negative_even_arguments(self):
        # beta(-2n) = E_2n / 2 (Euler numbers): beta(-2) = -1/2? No --
        # pin by the functional-equation route against the Hurwitz route
        # evaluated at the mirror point, which is well-conditioned.
        for s in (-2.0, -4.0, -1.3, -0.7):
            u = 1.0 - s
            mirror = (
                (2.0 / math.pi) ** u
                * math.sin(math.pi * u / 2.0)
                * math.gamma(u)
                * 4.0 ** (-u)
                * (hurwitz_zeta(u, 0.25) - hurwitz_zeta(u, 0.75))
            )
            assert beta_fn(s) == pytest.approx(mirror, rel=1e-12, abs=1e-13)

    def test_continuity_across_pole_band(self):
        # the near-1 branch must join the decomposition branch smoothly
        inside = beta_fn(1.0 + 9e-4)
        outside = beta_fn(1.0 + 1.1e-3)
        assert abs(inside - outside) < 1e-3


@pytest.mark.parametrize(
    "fn", [riemann_zeta, eta, dirichlet_lambda, beta_fn, sinpi, cospi, digamma]
)
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_non_finite_argument(fn, s):
    with pytest.raises(DomainError):
        fn(s)


class TestOverflow:
    # zeta(-230.5) and beta(-171.5), rounded from 40-digit evaluations
    ZETA_230_5 = 2.774783521336811751e261
    BETA_171_5 = 1.698372396230655531e276

    def test_beta_answers_where_gamma_overflows(self):
        # Gamma(172.5) overflows a float, beta(-171.5) does not
        assert beta_fn(-171.5) == pytest.approx(self.BETA_171_5, rel=1e-13)
        for fn in (riemann_zeta, eta, dirichlet_lambda):
            assert math.isfinite(fn(-171.5))

    def test_eta_and_lambda_overflow(self):
        assert riemann_zeta(-230.5) == pytest.approx(self.ZETA_230_5, rel=1e-13)
        for fn in (eta, dirichlet_lambda, beta_fn):
            with pytest.raises(DomainError, match="overflows a float"):
                fn(-230.5)

    @pytest.mark.parametrize("fn", [riemann_zeta, eta, dirichlet_lambda, beta_fn])
    @pytest.mark.parametrize("s", [-300.5, -1023.5, -9999.5])
    def test_overflow_is_a_domain_error(self, fn, s):
        with pytest.raises(DomainError, match="overflows a float"):
            fn(s)

    def test_exact_zeros_far_out(self):
        # 2^(1-s) itself overflows below s = -1023
        for s in (-600.0, -1024.0, -2000.0):
            assert riemann_zeta(s) == 0.0
            assert eta(s) == 0.0
            assert dirichlet_lambda(s) == 0.0
            assert beta_fn(s - 1.0) == 0.0

    def test_beta_at_large_order(self):
        # from s = 40 on, 3^-s < 2^-63, so beta(s) rounds to 1
        for s in (40.0, 100.0, 513.0, 1e4):
            assert beta_fn(s) == 1.0

    @pytest.mark.parametrize("fn", [riemann_zeta, eta, dirichlet_lambda, beta_fn])
    @pytest.mark.parametrize("s", [1e6, 1e300])
    def test_huge_order_rounds_to_one(self, fn, s):
        assert fn(s) == 1.0

    def test_zeta_far_left(self):
        assert riemann_zeta(-1e300) == 0.0
        with pytest.raises(DomainError, match="overflows a float"):
            riemann_zeta(-1e6 - 0.5)
