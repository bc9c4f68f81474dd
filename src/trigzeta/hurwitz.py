"""Hurwitz zeta and its order-derivative: three routes, one per order regime.

* ``hurwitz_zeta_sderiv(s, a)`` at integer order s = -n, 0 <= n <= 15,
  and 0 < a < 5/2 -- every point the closed forms ask for -- sums the
  power series of the Choi-Srivastava expansion

      zeta'(-n, 1-t) = sum_k c_k t^k,   |t| <= 1/2,

  after at most one step of zeta'(-n, a) = zeta'(-n, a+1) - a^n log a.
  The coefficients depend only on n and are built once at import, from
  exact Bernoulli values and a few positive-order zeta and zeta' values,
  each computed once:

      k <= n    c_k = (-1)^k C(n,k) [zeta'(k-n) - (H_n - H_{n-k}) zeta(k-n)]
      k = n+1   c_k = (-1)^n (gamma - H_n) / (n+1)
      k >= n+2  c_k = (-1)^n zeta(k-n) / (k C(k-1,n))

  ``hurwitz_zeta_sderiv_grid(orders, offsets)`` takes the same route for
  every order and offset of a grid and accepts nothing outside it.  Each
  offset is recentred once for all orders, and one Horner pass runs over
  the rows of the orders asked for at once, each zero-padded in front to
  the longest of them, in a block built on each call.  Its entries equal
  the scalar ones bit for bit: numpy's elementwise * and + are single
  IEEE operations, and a leading zero keeps the accumulator at +0.0
  until a row's first coefficient.  The logarithm of each offset and
  each power base**n stay scalar ``math.log`` and ``**`` calls, because
  ``np.log`` and ``np.power`` do not always round as they do.

* ``hurwitz_zeta(s, a)`` at integer order s = -j, 0 <= j <= 15, and any
  finite a > 0 is the Bernoulli polynomial

      zeta(-j, a) = -B_{j+1}(a) / (j+1)        (DLMF 25.11.14),

  one Horner pass in a over float coefficients -C(j+1, k) B_k / (j+1),
  built once at import from the exact Bernoulli numbers.

* every other point with s > -2 uses Euler-Maclaurin summation (N direct
  terms, M Bernoulli corrections):

    zeta(s,a) ~ sum_{k=0}^{N-1} (k+a)^-s
              + (N+a)^{1-s}/(s-1) + (N+a)^-s / 2
              + sum_{j=1}^{M} B_{2j}/(2j)! * (s)_{2j-1} * (N+a)^{-s-2j+1}

  with the correction depth cut where the term magnitudes are least.
  Its s-derivative is the term-by-term analytic derivative of the same
  expansion (never an internal finite difference): the closed forms
  built on top of it are differences of nearly equal derivative values
  and a finite-difference route would lose half the working digits.

Every other point -- non-integer s <= -2, integer s < -15, and the
derivative at s <= -2 outside the Taylor domain -- raises ``DomainError``,
and so does a value that overflows a float.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, PoleError
from .foundations import BERNOULLI, harmonic

__all__ = [
    "EulerMaclaurinPlan",
    "plan_for",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "hurwitz_zeta_sderiv_grid",
]

_MAX_CORRECTION = (len(BERNOULLI) - 1) // 2  # highest usable B_{2j}
# B_2j/(2j)! for j = 1.._MAX_CORRECTION, B_2j = n/d rounded to a float first
_EM_COEFFS = tuple(
    n / d / math.factorial(2 * j) for j, (n, d) in enumerate(BERNOULLI[2::2], 1)
)

_MAX_WEIGHT = 8  # highest weight m of the closed forms
# the lowest zeta' order of their brackets, s = 1 - 2m; both integer-order tables stop there
_MAX_N = 2 * _MAX_WEIGHT - 1
_TAYLOR_MAX_A = 2.5  # one recentring step keeps |t| <= 1/2
_EULER_GAMMA = 0.5772156649015329
# above this order every term (k + a)^-s with k + a >= 2 underflows to 0.0,
# so 16 direct terms give the bits of the ceil(s) + 12 that serve below it
_EM_UNDERFLOW_S = 1100.0
_LOG_2PI = math.log(2.0 * math.pi)


# Row j: the coefficients -C(j+1, k) B_k / (j+1) of zeta(-j, a) =
# -B_{j+1}(a) / (j+1) for j = 0.._MAX_N, highest power of a first
_BERNOULLI_ROWS = tuple(
    tuple(-math.comb(j + 1, k) * n / (d * (j + 1)) for k, (n, d) in enumerate(BERNOULLI[: j + 2]))
    for j in range(_MAX_N + 1)
)


class EulerMaclaurinPlan(NamedTuple):
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
    if s <= -2.0:
        raise DomainError(f"no route serves s={s} at a={a}: Euler-Maclaurin needs s > -2")
    shift_n = 16 if s > _EM_UNDERFLOW_S else max(16, math.ceil(abs(s)) + 12)
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
        # -0.0 once tail_pow underflows; (s - 1)**2 would overflow from s ~ 1.34e154
        -tail_pow * (log_base / (s - 1.0) + 1.0 / (s - 1.0) ** 2) if tail_pow else -tail_pow,
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
    """The Euler-Maclaurin plan at (s, a), for real s > -2, s != 1 and a > 0.

    Neither integer-order table uses it (see ``hurwitz_zeta`` and
    ``hurwitz_zeta_sderiv``); s <= -2 raises ``DomainError``.
    """
    return _em(s, a)[2]


def _fits(value: float, s: float, a: float) -> float:
    """value, or DomainError where it has overflowed to +-inf."""
    if math.isinf(value):
        raise DomainError(f"Hurwitz zeta overflows a float at s={s}, a={a}")
    return value


def _em_entry(s: float, a: float, index: int) -> float:
    """zeta(s, a) (index 0) or its s-derivative (1) by ``_em``, through ``_fits``."""
    try:
        value = _em(s, a)[index]
    except OverflowError:  # from math.exp or math.fsum
        value = math.inf
    return _fits(value, s, a)


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) for finite a > 0 and s > -2 (s != 1) or integer s in [-15, 0].

    Integer s in [-15, 0] takes the Bernoulli rows, every other s > -2
    Euler-Maclaurin; any other s, and a value that overflows a float,
    raises ``DomainError``.
    """
    if -_MAX_N <= s <= 0.0 and s == int(s) and 0.0 < a < math.inf:
        acc = 0.0
        for c in _BERNOULLI_ROWS[int(-s)]:
            acc = acc * a + c
        return _fits(acc, s, a)
    return _em_entry(s, a, 0)


def hurwitz_zeta_sderiv(s: float, a: float) -> float:
    """d/ds zeta(s, a) for finite a > 0 and s > -2 (s != 1), or on the Taylor domain.

    Integer s in [-15, 0] with 0 < a < 5/2 takes the Taylor table; every
    other point with s > -2 takes the analytic derivative of the
    Euler-Maclaurin expansion.  Any other point, and a value that
    overflows a float, raises ``DomainError``.
    """
    if -_MAX_N <= s <= 0.0 and 0.0 < a < _TAYLOR_MAX_A and s == int(s):
        return _taylor(int(-s), a)
    return _em_entry(s, a, 1)


@functools.cache
def _zeta_positive(j: int) -> float:
    """zeta(j) for integer j >= 2: from B_j for even j, Euler-Maclaurin for odd j.

    Cached, since the Taylor rows and zeta'(-2k) ask for the same odd zeta(j).
    """
    if j % 2:
        return _em(float(j), 1.0)[0]
    # zeta(2k) = |B_2k / (2k)!| (2 pi)^2k / 2
    return 0.5 * abs(_EM_COEFFS[j // 2 - 1]) * (2.0 * math.pi) ** j


def _zeta_prime_nonpositive(j: int) -> float:
    """zeta'(-j) for integer j >= 0, by the functional equation."""
    if j == 0:
        return -0.5 * _LOG_2PI
    if j % 2 == 0:
        # zeta'(-2k) = (-1)^k (2k)! zeta(2k+1) / (2 (2 pi)^(2k))
        sign = -1.0 if j % 4 else 1.0
        return sign * math.factorial(j) * _zeta_positive(j + 1) / (2.0 * (2.0 * math.pi) ** j)
    # zeta'(1-2k) = zeta(1-2k) (log 2pi - psi(2k) - zeta'(2k)/zeta(2k)),
    # with psi(2k) = H_{2k-1} - gamma and zeta(1-2k) = -B_2k / 2k.
    two_k = j + 1
    psi = harmonic(two_k - 1) - _EULER_GAMMA
    ratio = _em(float(two_k), 1.0)[1] / _zeta_positive(two_k)
    n, d = BERNOULLI[two_k]
    return -n / (d * two_k) * (_LOG_2PI - psi - ratio)


def _taylor_rows() -> tuple[tuple[float, ...], ...]:
    """Row n: c_k of zeta'(-n, 1-t) = sum_k c_k t^k, highest k first.

    A row stops at the first k >= n+2 with |c_k| 2^-k < 1e-18; past n+1
    the |c_k| only decrease, so the dropped tail is below about 2e-18.
    """
    orders = range(_MAX_N + 1)
    zeta_prime = [_zeta_prime_nonpositive(j) for j in orders]
    # zeta(-j) = (-1)^j B_{j+1} / (j+1), with B_1 = -1/2
    zeta_neg = [(-1) ** j * n / (d * (j + 1)) for j, (n, d) in zip(orders, BERNOULLI[1:])]
    rows = []
    for n in orders:
        sign = -1.0 if n % 2 else 1.0
        coeffs = []
        for k in range(n + 1):
            j = n - k
            h_diff = math.fsum(1.0 / i for i in range(j + 1, n + 1))  # H_n - H_j
            coeffs.append(
                (-1) ** k * math.comb(n, k) * (zeta_prime[j] - h_diff * zeta_neg[j])
            )
        coeffs.append(sign * (_EULER_GAMMA - harmonic(n)) / (n + 1))
        k = n + 2
        while True:
            c = sign * _zeta_positive(k - n) / (k * math.comb(k - 1, n))
            if abs(c) * 2.0**-k < 1e-18:
                break
            coeffs.append(c)
            k += 1
        rows.append(tuple(reversed(coeffs)))
    return tuple(rows)


_TAYLOR = _taylor_rows()


def _recentre(a: float) -> tuple[float, float, float]:
    """(t, base, log term) with zeta'(-n, a) = P_n(t) + base**n * log term.

    P_n is the Taylor row of n.  The offset is recentred to b in [1/2, 3/2)
    so that t = 1 - b has |t| <= 1/2; t is formed from a directly, without
    rounding b.  The log term is -log a below 1/2 (b = a + 1), log 1 = 0 in
    the middle (b = a) and log(a - 1) from 3/2 (b = a - 1, exact there).
    """
    if a < 0.5:
        return -a, a, -math.log(a)
    if a < 1.5:
        return 1.0 - a, 1.0, 0.0
    b = a - 1.0
    return 2.0 - a, b, math.log(b)


def _taylor(n: int, a: float) -> float:
    """zeta'(-n, a) for 0 <= n <= 15 and 0 < a < 5/2, by one Horner pass."""
    t, base, log_term = _recentre(a)
    acc = 0.0
    for c in _TAYLOR[n]:
        acc = acc * t + c
    return acc + base**n * log_term


def hurwitz_zeta_sderiv_grid(orders, offsets) -> np.ndarray:
    """zeta'(-n, a) for every n in ``orders`` and a in ``offsets``.

    Returns a (len(orders), len(offsets)) array whose entries equal
    ``hurwitz_zeta_sderiv(-n, a)`` bit for bit.  Only the Taylor domain is
    accepted -- integer n in [0, 15] and 0 < a < 5/2 -- and anything else
    raises ``DomainError``.  Each offset is recentred once for all orders,
    and one Horner pass runs over the rows of every order at once.
    """
    import numpy as np

    orders = list(orders)
    for n in orders:
        if not (0 <= n <= _MAX_N and n == int(n)):
            raise DomainError(
                f"Taylor grid order must be an integer in [0, {_MAX_N}], got {n}"
            )
    points = []
    for a in offsets:
        if not 0.0 < a < _TAYLOR_MAX_A:
            raise DomainError(
                f"Taylor grid offset must lie in (0, {_TAYLOR_MAX_A}), got a={a}"
            )
        points.append(_recentre(a))
    orders = [int(n) for n in orders]
    if not orders or not points:
        return np.zeros((len(orders), len(points)))
    t = np.array([p[0] for p in points])
    # log and ** stay scalar: np.log and np.power may round differently
    shift = np.array([[base**n * log_term for _, base, log_term in points] for n in orders])
    rows = np.zeros((len(orders), max(len(_TAYLOR[n]) for n in orders)))
    for row, n in zip(rows, orders):
        row[-len(_TAYLOR[n]):] = _TAYLOR[n]
    acc = np.zeros((len(orders), len(points)))
    for column in rows.T:
        np.multiply(acc, t, out=acc)
        np.add(acc, column[:, None], out=acc)
    return acc + shift
