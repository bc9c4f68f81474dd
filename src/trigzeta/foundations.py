"""Exact-rational and floating-point building blocks.

Bernoulli numbers (exact rationals), digamma, harmonic numbers,
Pochhammer symbols and sinpi/cospi.  All functions take real arguments
only, and sinpi, cospi and digamma raise DomainError at a NaN or
infinite one.  ``BERNOULLI`` holds B_0..B_64 as (numerator, denominator)
integer pairs in lowest terms, denominator > 0, built once at import
time from the tangent numbers in integer arithmetic.  A float reader
forms its float as one integer true division, such as ``n / d`` for B_n
itself, which Python rounds correctly, as ``float(Fraction(n, d))``
would.
Gamma and log-gamma come from the standard library
(``math.gamma``/``math.lgamma``).
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

__all__ = [
    "BERNOULLI",
    "harmonic",
    "pochhammer",
    "pochhammer_sderiv",
    "digamma",
    "sinpi",
    "cospi",
]


def _bernoulli_numbers(count: int) -> tuple[tuple[int, int], ...]:
    """B_0..B_{count-1} (count >= 1) as (numerator, denominator), from the T_k.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), with the tangent numbers
    T_k from the integer recurrence of Brent and Harvey (2011), reduced by
    their gcd; B_1 = -1/2 and B_n = 0/1 for odd n >= 3.
    """
    half = (count - 1) // 2
    t = [0] + [math.factorial(k) for k in range(half)]  # t[k] = (k-1)! to start
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    values = [(1, 1), (-1, 2)]
    for k in range(1, half + 1):
        q = 4**k
        numerator, denominator = (-1) ** (k - 1) * 2 * k * t[k], q * (q - 1)
        g = math.gcd(numerator, denominator)
        values += [(numerator // g, denominator // g), (0, 1)]
    return tuple(values[:count])


# Exact B_0..B_64, so Euler-Maclaurin coefficients carry no rounding noise.
BERNOULLI = _bernoulli_numbers(65)


def harmonic(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n, with H_0 = 0."""
    if n < 0:
        raise DomainError("harmonic number index must be non-negative")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def pochhammer(s: float, n: int) -> float:
    """Rising factorial (s)_n = s (s+1) ... (s+n-1), with (s)_0 = 1."""
    if n < 0:
        raise DomainError("pochhammer order must be non-negative")
    return math.prod((s + i for i in range(n)), start=1.0)


def pochhammer_sderiv(s: float, n: int) -> float:
    """d/ds (s)_n, by the product rule one factor at a time.

    (s)_{i+1}' = (s)_i' (s+i) + (s)_i needs no division, so it stays
    finite when some factor (and hence (s)_n itself) is zero.
    """
    if n < 0:
        raise DomainError("pochhammer order must be non-negative")
    poch, dpoch = 1.0, 0.0
    for i in range(n):
        f = s + i
        dpoch = dpoch * f + poch
        poch *= f
    return dpoch


def sinpi(t: float) -> float:
    """sin(pi*t) for finite t, with exact zeros at integer t."""
    if not math.isfinite(t):
        raise DomainError(f"sinpi requires a finite argument, got {t}")
    n = round(t)
    f = t - n
    if f == 0.0:
        return 0.0
    v = math.sin(math.pi * f)
    return -v if (n & 1) else v


def cospi(t: float) -> float:
    """cos(pi*t) for finite t, with exact zeros at half-integer t.

    With f = t - round(t), past |f| = 1/4 it takes sin(pi (1/2 - |f|)),
    whose argument is exact, so values beside the zeros keep their
    relative accuracy.
    """
    if not math.isfinite(t):
        raise DomainError(f"cospi requires a finite argument, got {t}")
    n = round(t)
    f = abs(t - n)
    if f == 0.5:
        return 0.0
    v = math.sin(math.pi * (0.5 - f)) if f > 0.25 else math.cos(math.pi * f)
    return -v if (n & 1) else v


def digamma(s: float) -> float:
    """psi(s) for finite real s excluding non-positive integers.

    Recurrence-lifts s above 10, then the Bernoulli asymptotic series;
    negative arguments go through the reflection formula.
    """
    if not math.isfinite(s):
        raise DomainError(f"digamma requires a finite argument, got {s}")
    if s <= 0.0:
        if s == math.floor(s):
            raise PoleError(f"digamma pole at non-positive integer s={s}")
        # psi(s) = psi(1-s) - pi*cot(pi*s)
        return digamma(1.0 - s) - math.pi * cospi(s) / sinpi(s)
    acc = 0.0
    x = s
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # psi(x) ~ ln x - 1/(2x) - sum B_2j / (2j x^{2j})
    tail = 0.0
    power = inv2
    for j in range(1, 8):
        n, d = BERNOULLI[2 * j]
        tail += n / d / (2 * j) * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail

