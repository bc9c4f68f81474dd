"""Riemann zeta and Dirichlet eta/lambda/beta on the real line.

The domain is the finite reals where the value fits a float: zeta and
lambda answer at any such s != 1 (PoleError at s = 1), eta and beta at
any such s.  A non-finite s raises DomainError, and so does an s whose
value overflows a float: below about s = -260 for zeta, -218 for eta
and lambda and -187 for beta, apart from their exact zeros.

zeta and beta take the same three routes; eta and lambda are zeta times
a power-of-two factor, and +0.0 at zeta's trivial zeros as zeta is.

- The functional equation (DLMF 25.4.2 and its beta twin), F(s) =
  scale * base^-u * Gamma(u) * trig * F(u) with u = 1 - s and the trig
  factor taken at the exact s/2 (sinpi for zeta, cospi for beta), so the
  trivial zeros come out as exact +0.0 and the values beside them keep
  their digits.  Below s = 0 Gamma(u) and base^-u are formed from the
  exact -s, so a u that needs one more bit than s is read only by F(u).
  zeta takes it below s = -1/32; beta below s = -1/2, and within 1e-3 of
  s = 1, where its two Hurwitz terms cancel and u is exact.
- Hurwitz zeta in between (the Bernoulli row at s = 0, else Euler-Maclaurin):
  zeta(s, 1) for zeta, 4^-s (zeta(s, 1/4) - zeta(s, 3/4)) for beta.
- From s = 20 on, the Dirichlet series sum chi(n) n^-s itself, summed
  by ``math.fsum``, which answers at any order in a few terms.

Worst relative errors against 40-digit mpmath, at 300 to 2500 points per
range: zeta 2.1e-14 on [-1/2, 0) and 7.1e-15 on [-169, -1/2); within
1e-6 of the trivial zeros, and beside -(2^k - 1) where u needs one more
bit than s, zeta and beta 7.0e-15; beta 1.8e-14 on [-169, 20) and
correctly rounded on [20, 60]; below s = -170, where Gamma(u) overflows
and the functional equation runs in logs, zeta 4.3e-13 and beta 2.2e-13,
from the rounding of lgamma(-s), which reaches 1170.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError, PoleError
from .foundations import cospi, sinpi
from .hurwitz import hurwitz_zeta

__all__ = [
    "SpecialValue",
    "SPECIAL_VALUES",
    "riemann_zeta",
    "zeta_prime_neg_even",
    "eta",
    "dirichlet_lambda",
    "beta_fn",
]

_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)  # math.exp overflows above it
_GAMMA_MAX = 171.6  # math.gamma overflows from about 171.62
_ZETA_REFLECT = -0.03125  # zeta takes its functional equation below this
_BETA_REFLECT = -0.5  # beta likewise, and within _NEAR_ONE of s = 1
_NEAR_ONE = 1e-3  # beta's two Hurwitz terms cancel this close to s = 1
_SERIES_FROM = 20.0  # above every order the limit-series tables read
_BETA_CHI = (1.0, 0.0, -1.0, 0.0)  # chi(n) of beta for n = 1, 2, 3, 4 mod 4


def _finite(value: float, name: str, s: float) -> float:
    """value, or DomainError where it has overflowed to +-inf."""
    if math.isinf(value):
        raise DomainError(f"{name}(s) overflows a float at s={s}")
    return value


def _reflect(s: float, trig: float, scale: float, base: float, f, name: str) -> float:
    """scale * base^-u * Gamma(u) * trig * f(u) with u = 1 - s.

    trig is the factor that vanishes at the trivial zeros, taken at s/2;
    where it is 0 the value is +0.0.  At s = 1 Gamma(u) * trig has the
    limit pi/2.  Below s = 0, where 1 - s may need one more bit than s,
    Gamma(u) = -s Gamma(-s) and base^-u = base^s / base take the exact -s,
    so only f reads the rounded u.  Past Gamma's overflow the magnitude
    goes through logs.
    """
    u = 1.0 - s
    if u == 0.0:
        return scale * (0.5 * math.pi) * f(u)
    if trig == 0.0:
        return 0.0
    if s > 0.0:  # beta within _NEAR_ONE of s = 1, where u is exact
        return scale * base ** -u * math.gamma(u) * trig * f(u)
    if u < _GAMMA_MAX:
        return scale * (base ** s / base) * (-s * math.gamma(-s)) * trig * f(u)
    factor = trig * f(u)
    # log(scale * Gamma(u) * base^-u), its small terms summed first
    log_mag = math.lgamma(-s) + (s * math.log(base) + math.log(scale * -s / base))
    if log_mag >= _LOG_MAX:
        # e^log_mag alone overflows; a small factor may bring the product back
        log_mag += math.log(abs(factor))
        factor = math.copysign(1.0, factor)
    return _finite(factor * math.exp(log_mag) if log_mag < _LOG_MAX else math.inf, name, s)


def _series(s: float, chi: tuple[float, ...]) -> float:
    """sum chi(n) n^-s over n >= 1 for s >= _SERIES_FROM, chi of period len(chi).

    The terms stop before the first n with n^-s < 2^-64; the rest of the
    series is then below 2^-63.
    """
    count = int(2.0 ** (64.0 / s))
    return math.fsum(chi[(n - 1) % len(chi)] * n ** -s for n in range(1, count + 1))


def riemann_zeta(s: float) -> float:
    """zeta(s) for any finite real s != 1."""
    if not math.isfinite(s):
        raise DomainError(f"zeta requires a finite argument, got {s}")
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    if s < _ZETA_REFLECT:
        # zeta(s) = 2 (2 pi)^-u Gamma(u) sin(pi s/2) zeta(u)
        return _reflect(s, sinpi(0.5 * s), 2.0, 2.0 * math.pi, riemann_zeta, "zeta")
    if s >= _SERIES_FROM:
        return _series(s, (1.0,))
    return hurwitz_zeta(s, 1.0)


def zeta_prime_neg_even(n: int) -> float:
    """zeta'(-2n) = (-1)^n (2n)! zeta(2n+1) / (2 (2 pi)^(2n)), for integer n >= 1.

    From n = 130 on the value does not fit a float, and ``DomainError`` is
    raised before zeta(2n+1), which is at least 1, is computed.
    """
    if not (n >= 1 and n % 1 == 0):
        raise DomainError(f"zeta_prime_neg_even requires an integer n >= 1, got {n}")
    sign = -1.0 if n % 2 else 1.0
    log_mag = (
        math.lgamma(2.0 * n + 1.0)
        - math.log(2.0)
        - 2.0 * n * math.log(2.0 * math.pi)
    )
    if log_mag > _LOG_MAX:
        raise DomainError(f"zeta_prime_neg_even(n) overflows a float at n={n}")
    return sign * hurwitz_zeta(2.0 * n + 1.0, 1.0) * math.exp(log_mag)


def _times_zeta(exponent: float, s: float, name: str) -> float:
    """(1 - e^exponent) zeta(s), and +0.0 at the trivial zeros of zeta.

    The factor goes through expm1, so that at s = 1 the zero of eta's
    factor cancels cleanly against zeta's pole.  Its exponent is capped
    below exp's overflow: e^exponent only overflows below s = -1023, where
    zeta(s) is 0 or has overflowed already.  Below s = 0 the factor is
    negative, and times zeta's +0.0 would give -0.0.
    """
    zeta = riemann_zeta(s)
    if zeta == 0.0:
        return 0.0
    return _finite(-math.expm1(min(exponent, _LOG_MAX)) * zeta, name, s)


def eta(s: float) -> float:
    """Dirichlet eta; entire, with eta(1) = log 2 special-cased."""
    if s == 1.0:
        return _LN2
    # eta(s) = (1 - 2^(1-s)) zeta(s)
    return _times_zeta((1.0 - s) * _LN2, s, "eta")


def dirichlet_lambda(s: float) -> float:
    """Dirichlet lambda = (1 - 2^-s) zeta(s) for any finite real s != 1."""
    return _times_zeta(-s * _LN2, s, "lambda")


def beta_fn(s: float) -> float:
    """Dirichlet beta, entire in s."""
    if not math.isfinite(s):
        raise DomainError(f"beta requires a finite argument, got {s}")
    if s < _BETA_REFLECT or abs(s - 1.0) < _NEAR_ONE:
        # beta(s) = (pi/2)^-u Gamma(u) cos(pi s/2) beta(u)
        return _reflect(s, cospi(0.5 * s), 1.0, 0.5 * math.pi, beta_fn, "beta")
    if s >= _SERIES_FROM:
        return _series(s, _BETA_CHI)
    return 4.0 ** (-s) * (hurwitz_zeta(s, 0.25) - hurwitz_zeta(s, 0.75))


class SpecialValue(NamedTuple):
    function_id: str  # zeta | eta | lambda | beta
    argument: int
    value: float
    exactness: str  # exact-zero | exact-rational | transcendental-formula


def _build_special_values() -> tuple[SpecialValue, ...]:
    entries = [
        SpecialValue("zeta", 0, -0.5, "exact-rational"),
        SpecialValue("eta", 1, _LN2, "transcendental-formula"),
        SpecialValue("beta", 0, 0.5, "exact-rational"),
        SpecialValue("beta", 1, 0.25 * math.pi, "transcendental-formula"),
    ]
    for n in range(1, 9):
        entries.append(SpecialValue("zeta", -2 * n, 0.0, "exact-zero"))
        entries.append(SpecialValue("eta", -2 * n, 0.0, "exact-zero"))
        entries.append(SpecialValue("lambda", -2 * n, 0.0, "exact-zero"))
        entries.append(SpecialValue("beta", -2 * n + 1, 0.0, "exact-zero"))
    return tuple(entries)


SPECIAL_VALUES = _build_special_values()
