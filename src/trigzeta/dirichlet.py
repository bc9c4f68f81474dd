"""Riemann zeta and Dirichlet eta/lambda/beta on the real line.

The domain is the finite reals where the value fits a float: zeta and
lambda answer at any such s != 1 (PoleError at s = 1), eta and beta at
any such s.  A non-finite s raises DomainError, and so does an s whose
value overflows a float: below about s = -260 for zeta, -218 for eta
and lambda and -187 for beta, apart from their exact zeros.

Continuation strategy: for s > 0 everything routes through the
Euler-Maclaurin Hurwitz engine; for s < 0 zeta goes through its
functional equation (one Gamma, one cosine, one zeta at 1-s > 1), since
Euler-Maclaurin serves only s > -2.  beta likewise uses its functional
equation below s = -1/2 so that beta(1-2n) comes out exactly zero;
elsewhere it uses the Hurwitz decomposition 4^-s (zeta(s,1/4) -
zeta(s,3/4)), up to s = 40, from where beta(s) rounds to 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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

_NEAR_ONE = 1e-3  # beta_fn switches formula within this of s = 1
_LN2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)  # math.exp overflows above it


def _finite(value: float, name: str, s: float) -> float:
    """value, or DomainError where it has overflowed to +-inf."""
    if math.isinf(value):
        raise DomainError(f"{name}(s) overflows a float at s={s}")
    return value


def _scaled(factor: float, log_mag: float, name: str, s: float) -> float:
    """factor * e^log_mag for a nonzero factor, or DomainError where it overflows."""
    if log_mag >= _LOG_MAX:
        # e^log_mag alone overflows; a small factor may bring the product back
        log_mag += math.log(abs(factor))
        factor = math.copysign(1.0, factor)
    return _finite(factor * math.exp(log_mag) if log_mag < _LOG_MAX else math.inf, name, s)


def riemann_zeta(s: float) -> float:
    """zeta(s) for any finite real s != 1."""
    if not math.isfinite(s):
        raise DomainError(f"zeta requires a finite argument, got {s}")
    if s == 1.0:
        raise PoleError("zeta has a pole at s=1")
    if s >= 0.0:
        return hurwitz_zeta(s, 1.0)
    # zeta(s) = 2 zeta(1-s) Gamma(1-s) cos(pi (1-s)/2) / (2 pi)^(1-s)
    u = 1.0 - s
    cos_term = cospi(0.5 * u)
    if cos_term == 0.0:
        return 0.0
    log_mag = math.log(2.0) + math.lgamma(u) - u * math.log(2.0 * math.pi)
    return _scaled(hurwitz_zeta(u, 1.0) * cos_term, log_mag, "zeta", s)


def zeta_prime_neg_even(n: int) -> float:
    """zeta'(-2n) = (-1)^n (2n)! zeta(2n+1) / (2 (2 pi)^(2n))."""
    if n < 1:
        raise DomainError("zeta_prime_neg_even requires n >= 1")
    sign = -1.0 if n % 2 else 1.0
    log_mag = (
        math.lgamma(2.0 * n + 1.0)
        - math.log(2.0)
        - 2.0 * n * math.log(2.0 * math.pi)
    )
    return sign * hurwitz_zeta(2.0 * n + 1.0, 1.0) * math.exp(log_mag)


def eta(s: float) -> float:
    """Dirichlet eta; entire, with eta(1) = log 2 special-cased."""
    if s == 1.0:
        return _LN2
    # eta(s) = (1 - 2^(1-s)) zeta(s); the prefactor via expm1 so the
    # removable singularity at s=1 cancels cleanly against the pole.  Its
    # exponent is capped below exp's overflow: 2^(1-s) only overflows
    # below s = -1023, where zeta(s) is 0 or has overflowed already.
    return _finite(-math.expm1(min((1.0 - s) * _LN2, _LOG_MAX)) * riemann_zeta(s), "eta", s)


def dirichlet_lambda(s: float) -> float:
    """Dirichlet lambda = (1 - 2^-s) zeta(s) for any finite real s != 1.

    The exponent of 2^-s is capped as in ``eta``.
    """
    return _finite(-math.expm1(min(-s * _LN2, _LOG_MAX)) * riemann_zeta(s), "lambda", s)


_BETA_ONE = 40.0  # from here on 3^-s < 2^-63, so beta(s) rounds to 1


def _beta_hurwitz(s: float) -> float:
    if s >= _BETA_ONE:
        # beta(s) = 1 - 3^-s + 5^-s - ...; zeta(s, 1/4) ~ 4^s would lose
        # digits to the cancellation and overflow from s = 513
        return 1.0
    return 4.0 ** (-s) * (hurwitz_zeta(s, 0.25) - hurwitz_zeta(s, 0.75))


def beta_fn(s: float) -> float:
    """Dirichlet beta, entire in s."""
    if not math.isfinite(s):
        raise DomainError(f"beta requires a finite argument, got {s}")
    if abs(s - 1.0) < _NEAR_ONE:
        # Both Hurwitz terms blow up individually near s=1; use the
        # functional equation with the 0/0 factor evaluated safely:
        # beta(s) = (pi/2)^(s-1) Gamma(1-s) cos(pi s/2) beta(1-s) and
        # Gamma(1-s) cos(pi s/2) = Gamma(2-s) sin(pi(1-s)/2)/(1-s).
        u = 1.0 - s
        factor = 0.5 * math.pi if u == 0.0 else sinpi(0.5 * u) / u
        return (
            (0.5 * math.pi) ** (s - 1.0)
            * math.gamma(2.0 - s)
            * factor
            * _beta_hurwitz(u)
        )
    if s < -0.5:
        # beta(s) = (2/pi)^u sin(pi u/2) Gamma(u) beta(u), u = 1-s > 1;
        # exact zeros at negative odd integers come out exactly.
        u = 1.0 - s
        sin_term = sinpi(0.5 * u)
        if sin_term == 0.0:
            return 0.0
        try:
            gamma = math.gamma(u)
        except OverflowError:  # u > 171.6: Gamma(u) (2/pi)^u in logs
            log_mag = math.lgamma(u) + u * math.log(2.0 / math.pi)
            return _scaled(sin_term * _beta_hurwitz(u), log_mag, "beta", s)
        return (2.0 / math.pi) ** u * sin_term * gamma * _beta_hurwitz(u)
    return _beta_hurwitz(s)


@dataclass(frozen=True)
class SpecialValue:
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
