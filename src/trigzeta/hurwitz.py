"""Hurwitz zeta and its order-derivative via Euler-Maclaurin summation.

The expansion used everywhere (N direct terms, M Bernoulli corrections):

    zeta(s,a) ~ sum_{k=0}^{N-1} (k+a)^-s
              + (N+a)^{1-s}/(s-1) + (N+a)^-s / 2
              + sum_{j=1}^{M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1}

The s-derivative is the term-by-term analytic derivative of the same
expansion (never an internal finite difference): the closed forms built
on top of it are differences of nearly equal derivative values and a
finite-difference route would lose half the working digits.

Plan selection trades two float64 error sources against each other: the
asymptotic truncation error (first omitted Bernoulli term) shrinks as N
grows, while the rounding error grows like eps*(N+a)^(|s|+1) for
negative s because the large direct terms cancel against the integral
term.  Deeply negative s therefore gets a small direct sum sized from a
cancellation budget, and a correction depth chosen by scanning the term
magnitudes until they stop decreasing, in the same pass that sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PoleError
from .foundations import BERNOULLI, bernoulli_float

__all__ = [
    "EulerMaclaurinPlan",
    "plan_for",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "hurwitz_formula_partial",
]

_MAX_CORRECTION = (len(BERNOULLI) - 1) // 2  # highest usable B_{2j}
# B_2j/(2j)! for j = 1.._MAX_CORRECTION
_EM_COEFFS = tuple(
    bernoulli_float(2 * j) / math.factorial(2 * j)
    for j in range(1, _MAX_CORRECTION + 1)
)


@dataclass(frozen=True)
class EulerMaclaurinPlan:
    shift_n: int
    correction_m: int
    est_error: float


def _corrections(s: float, count: int):
    """Yield (B_2j/(2j)!, (s)_{2j-1}, d/ds (s)_{2j-1}) for j = 1..count.

    Each step multiplies in the factors s+2j-1 and s+2j by the product
    rule.  They are written ``s + (2 * j - 1)`` so that every partial
    product rounds exactly as in ``pochhammer``.
    """
    poch, dpoch = s, 1.0  # (s)_1 and its derivative
    for j, coeff in enumerate(_EM_COEFFS[:count], 1):
        yield coeff, poch, dpoch
        for f in (s + (2 * j - 1), s + 2 * j):
            dpoch = dpoch * f + poch
            poch *= f


def _em(s: float, a: float) -> tuple[float, float, EulerMaclaurinPlan]:
    """zeta(s, a), d/ds zeta(s, a) and the plan that produced them."""
    if a <= 0.0:
        raise DomainError(f"Hurwitz offset must be positive, got a={a}")
    if s == 1.0:
        raise PoleError("Hurwitz zeta has a pole at s=1")
    if not (math.isfinite(s) and math.isfinite(a)):
        raise DomainError(f"Hurwitz zeta needs finite s and a, got s={s}, a={a}")
    if s > -2.0:
        shift_n = max(16, math.ceil(abs(s)) + 12)
    else:
        # Negative s: the direct terms grow like (k+a)^|s| and cancel
        # against the integral term; size the direct sum so that
        # eps*(N+a)^(|s|+1) stays ~1e3*eps below the expected magnitude
        # of the result (Bernoulli-number growth).
        sigma = -s
        scale = max(
            1.0,
            2.0
            * math.exp(math.lgamma(sigma + 2.0) - (sigma + 1.0) * math.log(2.0 * math.pi))
            / (sigma + 1.0),
        )
        log_budget = (4.0 + math.log10(scale)) / (sigma + 1.0)
        base_target = max(2.25, 10.0 ** log_budget)
        shift_n = min(16, max(1, round(base_target - a)))
    log_base = math.log(shift_n + a)
    parts, dparts = [], []
    for k in range(shift_n):
        x = k + a
        lx = math.log(x)
        p = math.exp(-s * lx)
        parts.append(p)
        dparts.append(-lx * p)
    tail_pow = math.exp((1.0 - s) * log_base)  # (N+a)^{1-s}
    half = 0.5 * math.exp(-s * log_base)
    parts += [tail_pow / (s - 1.0), half]
    dparts += [
        -tail_pow * (log_base / (s - 1.0) + 1.0 / (s - 1.0) ** 2),
        -log_base * half,
    ]
    # Optimal truncation of the asymptotic correction series: cut at the
    # global minimum of the term magnitudes, where the magnitude includes
    # the s-derivative factor (it does not terminate where the plain
    # Pochhammer vanishes).  Terms past the cut are computed but not summed.
    corr, dcorr = [], []
    m_used = 1
    est = math.inf
    for j, (coeff, poch, dpoch) in enumerate(_corrections(s, _MAX_CORRECTION), 1):
        power = math.exp((-s - 2 * j + 1) * log_base)
        corr.append(coeff * poch * power)
        dcorr.append(coeff * (dpoch - poch * log_base) * power)
        size = abs(coeff) * max(abs(poch), abs(dpoch)) * power * (1.0 + log_base)
        if size <= est:
            m_used = j
            est = size
        if size < 1e-19:
            break
    est = max(est, 1e-18)
    # Rounding floor from the cancelling large terms at negative s.
    est += 1e-16 * math.exp(max(0.0, -s + 1.0) * log_base)
    return (
        math.fsum(parts + corr[:m_used]),
        math.fsum(dparts + dcorr[:m_used]),
        EulerMaclaurinPlan(shift_n, m_used, est),
    )


def plan_for(s: float, a: float) -> EulerMaclaurinPlan:
    """The Euler-Maclaurin plan the kernel uses at the point (s, a)."""
    return _em(s, a)[2]


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) for real s != 1 and a > 0."""
    return _em(s, a)[0]


def hurwitz_zeta_sderiv(s: float, a: float) -> float:
    """d/ds zeta(s, a), the analytic derivative of the expansion."""
    return _em(s, a)[1]


def hurwitz_formula_partial(s: float, a: float, terms: int) -> float:
    """Truncated right side of the Hurwitz formula for zeta(1-s, a).

    2 Gamma(s)/(2 pi)^s * sum_{n=1}^{terms} cos(pi s/2 - 2 n pi a) / n^s,
    restricted to s > 1 and 0 < a <= 1 where the series converges
    absolutely.  Used purely as an identity-check oracle.
    """
    if s <= 1.0:
        raise DomainError("hurwitz_formula_partial requires s > 1")
    if not (0.0 < a <= 1.0):
        raise DomainError("hurwitz_formula_partial requires 0 < a <= 1")
    if terms < 1:
        raise DomainError("terms must be positive")
    import numpy as np

    n = np.arange(1, terms + 1, dtype=np.float64)
    phase = 0.5 * math.pi * s - 2.0 * math.pi * a * n
    total = float(np.sum(np.cos(phase) * n ** (-s)))
    return 2.0 * math.gamma(s) / (2.0 * math.pi) ** s * total
