"""Independent evaluation paths used to cross-validate the closed forms.

Four routes that share no code with the Hurwitz-derivative closed forms:

* ``direct_sum``      -- literal summation of the defining series, with a
                         method chosen by convergence class (see below);
* ``power_series_eval`` -- the non-singular power-series representation
                         over zeta/eta/lambda/beta values;
* ``choi_srivastava_check`` -- both sides of the identity underpinning
                         the closed forms, returned for comparison;
* ``lambda_series_path``  -- the semi-expanded logarithmic-limit form of
                         the odd-denominator families (third route).

``direct_sum`` sums the defining series in complex form,
sum_n sign^(n-1) e^{idx} d^{-alpha} with d = an-b, as a head of
m = 200/|1-z| terms (z = sign e^{iax}) plus the tail summed by parts (a
generalised Euler transformation).  The sign is exact, carried on the
coefficients, and each phase d x is rounded once.  From that head length
on, each order of the transformation shrinks the tail by about
(alpha + j)/200, so a few orders reach the rounding floor; ``terms_used``
is m plus those orders, 100 to about 650 on the CLI grids.  The error
estimate is an upper bound made of the remainder of the transformation
and the rounding of its forward differences, of the phases and of the
summation.  The tolerance does not set the stopping point; it only
decides whether to raise ``ConvergenceError`` because the estimate
exceeds it, as it does for the conditionally convergent cosine series at
exponent 1 near the singular endpoints.  Alternating series report
``euler_accelerated``, the rest ``direct``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .closedforms import SeriesSpec, _validate_x, singular_limit_term
from .dirichlet import (
    _lambda_unguarded,
    beta_fn,
    dirichlet_lambda,
    eta,
    riemann_zeta,
)
from .errors import ConvergenceError, DomainError
from .foundations import (
    cospi,
    digamma,
    harmonic,
    pochhammer,
    sinpi,
)
from .hurwitz import hurwitz_zeta, hurwitz_zeta_sderiv

__all__ = [
    "OracleReport",
    "DIRECT_TERM_CAP",
    "POWER_SERIES_TERM_CAP",
    "direct_sum",
    "power_series_eval",
    "choi_srivastava_check",
    "lambda_series_path",
    "limit_probe_eta_and_lambda",
    "lambda_probe_orders",
]

DIRECT_TERM_CAP = 10**7
POWER_SERIES_TERM_CAP = 200

_CHUNK = 1_000_000
_HEAD_SCALE = 200.0
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class OracleReport:
    value: float
    method: str  # direct | euler_accelerated
    terms_used: int
    error_estimate: float

    def __post_init__(self):
        if not (math.isfinite(self.error_estimate) and self.error_estimate > 0.0):
            raise DomainError("error_estimate must be finite and positive")


def _series_params(spec: SeriesSpec) -> tuple[int, int, int, int]:
    """(a, b, sign, alpha) so terms are sign^(n-1) f((an-b)x)/(an-b)^alpha."""
    a = 2 if spec.odd_denominators else 1
    b = 1 if spec.odd_denominators else 0
    sign = -1 if spec.alternating else 1
    return a, b, sign, spec.alpha


def _partial_sum_complex(
    a: int, b: int, sign: int, alpha: int, x: float, m: int
) -> tuple[complex, float]:
    """(S, R): S = sum_{n=1}^{m} sign^(n-1) e^{idx} d^{-alpha}, d = an-b.

    S is the defining series in complex form, summed in chunks.  The sign
    is exact, carried on the coefficients, and each phase d x is rounded
    once, by at most eps/2 * d x, independently of the other terms.  R
    bounds the rounding of S: those phase errors, weighted by d^{-alpha},
    plus 5/2 eps d^{-alpha} per term for the power, the cosine or sine
    and their product, plus the summation.  ndarray.sum adds pairwise over
    blocks of 128 held in 8 running sums, so a term meets at most
    log2(m) + 12 additions there, and one more per chunk total.
    """
    total = 0.0 + 0.0j
    mass = 0.0  # sum of d^{-alpha}
    moment = 0.0  # sum of d^{1-alpha}
    start = 1
    while start <= m:
        stop = min(m, start + _CHUNK - 1)
        d = np.arange(a * start - b, a * stop - b + 1, a, dtype=np.float64)
        g = d ** (-float(alpha))
        mass += float(g.sum())
        moment += float(np.dot(d, g))
        if sign < 0:
            g[start % 2::2] *= -1.0  # even n
        phases = d * x
        total += complex((g * np.cos(phases)).sum(), (g * np.sin(phases)).sum())
        start = stop + 1
    depth = math.log2(m) + 12 + math.ceil(m / _CHUNK)
    rounding = _EPS * (0.5 * x * moment + (2.5 + 0.5 * depth) * mass)
    return total, rounding


def _tail_by_parts(
    a: int, b: int, sign: int, alpha: int, x: float, m1: int
) -> tuple[complex, float, int]:
    """Tail sum_{n>=m1} sign^(n-1) e^{idx} d^{-alpha}, d = an-b, by parts.

    With z = sign e^{iax} and g(n) = (an-b)^{-alpha} the tail is
    sign^(m1-1) e^{i d(m1) x} sum_k z^k g(m1+k), transformed by iterated
    summation by parts.  Returns (tail value, error bound, difference
    order used).  g is completely monotone in n, so the iterated forward
    differences are positive and decreasing, giving the telescoping
    remainder bound |z/(1-z)|^(J+1) Delta^J g(m1) after orders 0..J.  The
    differences come from one pass that keeps the last diagonal of the
    difference table, diag[k] = Delta^k g(m1+j-k); their rounding is
    2^j eps g(m1) on Delta^j g(m1), carried with the same weights.  That
    rounding grows with the order while the remainder shrinks, so the pass
    stops where their sum is least, or once the remainder is below 1e-18.
    The bound also covers the rounding of the phase d(m1) x, at most
    eps/2 * d(m1) x, and of the factors 1/(1-z) and -z/(1-z).
    """
    z = sign * cmath.exp(1j * a * x)
    one_minus = 1.0 - z
    ratio = abs(z / one_minus)
    d_m1 = a * m1 - b
    factor = sign ** (m1 - 1) * cmath.exp(1j * (d_m1 * x)) / one_minus
    step = -z / one_minus
    eps_g = _EPS * d_m1 ** (-float(alpha))
    diag: list[float] = []
    tail = 0.0 + 0.0j
    best = (tail, math.inf, 0, 0.0)
    rounding = size = 0.0
    for j in range(60):
        cur = (a * (m1 + j) - b) ** (-float(alpha))
        for k in range(j):
            diag[k], cur = cur, diag[k] - cur
        diag.append(cur)  # Delta^j g(m1)
        tail += factor * cur
        factor *= step
        weight = ratio ** (j + 1)
        rounding += weight * 2.0**j * eps_g
        bound = weight * cur  # also the size of the order-j term
        size += bound
        err = max(bound, 1e-18) + rounding
        if err > best[1]:
            break  # past the optimal truncation point
        best = (tail, err, j + 1, size)
        if bound < 1e-18:
            break
    tail, err, used, size = best
    err += _EPS * (0.5 * d_m1 * x + (used + 2) * (ratio + 2.0)) * size
    return tail, err, used


def _sum_by_parts(spec: SeriesSpec, x: float, tol: float, method: str) -> OracleReport:
    a, b, sign, alpha = _series_params(spec)
    one_minus = abs(1.0 - sign * cmath.exp(1j * a * x))
    if one_minus < 1e-8:
        raise ConvergenceError(
            f"series phase too close to resonance at x={x}; no tail bound available"
        )
    # each order of the tail transformation then gains about 200/(alpha + j)
    m = int(_HEAD_SCALE / one_minus)
    if m > DIRECT_TERM_CAP:
        raise ConvergenceError(f"term cap {DIRECT_TERM_CAP} exceeded for x={x}")
    partial, partial_err = _partial_sum_complex(a, b, sign, alpha, x, m)
    tail, tail_err, j_used = _tail_by_parts(a, b, sign, alpha, x, m + 1)
    total = partial + tail
    value = total.imag if spec.kind == "sin" else total.real
    err = partial_err + tail_err + 0.5 * _EPS * abs(total)
    report = OracleReport(value, method, m + j_used, err)
    if err > tol:
        raise ConvergenceError(
            f"direct summation reached error estimate {err:.3e} > tol {tol:.3e}",
            best_value=value,
            report=report,
        )
    return report


def direct_sum(spec: SeriesSpec, x: float, tol: float = 1e-10) -> OracleReport:
    """Evaluate the defining series of ``spec`` at x by literal summation.

    A head of 200/|1-z| terms plus the tail summed by parts (see the
    module docstring); the report's ``error_estimate`` bounds both the
    truncation and the rounding.  ``tol`` does not change the value: it
    only gates it, raising ``ConvergenceError`` when the estimate exceeds
    it or the head would exceed ``DIRECT_TERM_CAP`` terms.
    """
    if tol < 1e-12:
        raise DomainError("direct_sum tolerance must be >= 1e-12")
    _validate_x(spec, x)
    fold = 1.0
    if x < 0.0:
        x = -x
        if spec.kind == "sin":
            fold = -1.0
    if x == 0.0 and spec.kind == "sin":
        return OracleReport(0.0, "direct", 1, 1e-18)
    method = "euler_accelerated" if spec.alternating else "direct"
    rep = _sum_by_parts(spec, x, tol, method)
    return OracleReport(fold * rep.value, rep.method, rep.terms_used, rep.error_estimate)


# --- power-series route ------------------------------------------------

# family id -> (a, b, sign, c, F, interval)
_POWER_ROWS = {
    "zeta": (1, 0, 1, 1.0, riemann_zeta, (0.0, 2.0 * math.pi)),
    "eta": (1, 0, -1, 0.0, eta, (-math.pi, math.pi)),
    "lambda": (2, 1, 1, 0.5, dirichlet_lambda, (0.0, math.pi)),
    "beta": (2, 1, -1, 0.0, beta_fn, (-0.5 * math.pi, 0.5 * math.pi)),
}


def power_series_eval(family: str, kind: str, alpha: float, x: float,
                      terms: int = POWER_SERIES_TERM_CAP) -> float:
    """Power-series representation of the series over F-function values.

    ``family`` picks the F row (zeta | eta | lambda | beta), ``kind`` the
    numerator (sin | cos).  Rejects the singular alpha values where the
    x^(alpha-1) prefactor blows up; those points belong to
    ``closed_form_eval``.
    """
    row = _POWER_ROWS.get(family)
    if row is None:
        raise DomainError(f"unknown power-series family {family!r}")
    if kind not in ("sin", "cos"):
        raise DomainError(f"kind must be 'sin' or 'cos', got {kind!r}")
    if alpha <= 0.0:
        raise DomainError("power_series_eval requires alpha > 0")
    if not (1 <= terms <= POWER_SERIES_TERM_CAP):
        raise DomainError(f"terms must lie in [1, {POWER_SERIES_TERM_CAP}]")
    a, b, sign, c, f_func, (lo, hi) = row
    margin = 1e-12 * (hi - lo)
    if not (lo + margin <= x <= hi - margin):
        raise DomainError(f"x={x} outside region ({lo}, {hi}) for family {family!r}")
    delta = 1 if kind == "sin" else 0
    trig = sinpi if kind == "sin" else cospi
    prefactor = 0.0
    if c != 0.0:
        denom = trig(0.5 * alpha)
        if denom == 0.0:
            raise DomainError(
                f"alpha={alpha} is singular for the {family}/{kind} row; "
                "use closed_form_eval"
            )
        prefactor = c * math.pi * x ** (alpha - 1.0) / (2.0 * math.gamma(alpha) * denom)
    acc = prefactor
    term_prev = math.inf
    ratio = 0.0
    weight = x if delta == 1 else 1.0  # x^(2k+delta) / (2k+delta)!
    for k in range(terms):
        try:
            coeff = f_func(alpha - 2 * k - delta)
        except OverflowError:
            # F grows factorially while the x-weight shrinks factorially;
            # once the coefficient route overflows the partial sum is the
            # best attainable value at this x.
            raise ConvergenceError(
                f"power series coefficient overflow at k={k} (x={x})",
                best_value=acc,
            ) from None
        term = (-1.0) ** k * coeff * weight
        acc += term
        weight *= x * x / ((2 * k + delta + 1) * (2 * k + delta + 2))
        size = abs(term)
        if size > 0.0 and term_prev not in (0.0, math.inf):
            ratio = size / term_prev
        if size < 1e-17 * (1.0 + abs(acc)) and k > 4:
            return acc
        term_prev = size if size > 0.0 else term_prev
    if ratio >= 0.9:
        raise ConvergenceError(
            f"power series term ratio {ratio:.3f} >= 0.9 at truncation (x={x})",
            best_value=acc,
        )
    return acc


# --- Choi-Srivastava identity ------------------------------------------


def choi_srivastava_check(n: int, a: float, t: float, terms: int = 400) -> tuple[float, float]:
    """Both sides of the zeta-series identity; returned for comparison.

    lhs = sum_{k=2}^{terms} zeta(k, a) t^(n+k) / (k)_{n+1}
    rhs = the closed form over zeta'(-n, a-t), zeta'(-n, a), the binomial
          sum with harmonic-number weights, and (H_n + psi(a)) t^(n+1)/(n+1)!.
    """
    if n < 0 or n > 8:
        raise DomainError("choi_srivastava_check requires 0 <= n <= 8")
    if a <= 0.0:
        raise DomainError("choi_srivastava_check requires a > 0")
    if abs(t) >= a:
        raise DomainError("choi_srivastava_check requires |t| < a")
    if terms < 2:
        raise DomainError("terms must be >= 2")
    lhs_parts = []
    for k in range(2, terms + 1):
        term = hurwitz_zeta(float(k), a) * t ** (n + k) / pochhammer(float(k), n + 1)
        lhs_parts.append(term)
        if abs(term) < 1e-19 and k > 8:
            break
    lhs = math.fsum(lhs_parts)
    h_n = harmonic(n)
    inner = hurwitz_zeta_sderiv(-float(n), a - t) - hurwitz_zeta_sderiv(-float(n), a)
    for k in range(1, n + 1):
        s = float(k - n)
        piece = hurwitz_zeta(s, a) * (h_n - harmonic(n - k)) - hurwitz_zeta_sderiv(s, a)
        inner += (-t) ** k * math.comb(n, k) * piece
    rhs = (-1.0) ** n / math.factorial(n) * inner
    rhs += (h_n + digamma(a)) * t ** (n + 1) / math.factorial(n + 1)
    return lhs, rhs


# --- semi-expanded lambda route for the odd-denominator families --------


def lambda_series_path(spec: SeriesSpec, x: float, terms: int = 120) -> float:
    """Third route for T5/T6: logarithmic limit term + lambda series.

    value = singular_limit_term
          + sum_{k=0}^{m-2} (-1)^k lambda(2m-2k-1) x^(2k+delta)/(2k+delta)!
          + sum_{k=m}^{...} the same summand continued past the pole index.
    """
    if spec.family not in ("T5", "T6"):
        raise DomainError("lambda_series_path accepts only the T5/T6 families")
    if not (0.0 < x < math.pi):
        raise DomainError("lambda_series_path requires x in (0, pi)")
    m = spec.m
    delta = 1 if spec.kind == "sin" else 0
    acc = singular_limit_term(m, x, even_exponent=(spec.kind == "sin"))
    parts = []
    ratio = 0.0
    prev = math.inf
    for k in range(terms):
        if k == m - 1:
            continue  # pole index absorbed into the limit term
        lam = dirichlet_lambda(float(2 * m - 2 * k - 1))
        term = (-1.0) ** k * lam * x ** (2 * k + delta) / math.factorial(2 * k + delta)
        parts.append(term)
        size = abs(term)
        if size > 0.0 and prev not in (0.0, math.inf):
            ratio = size / prev
        if size < 1e-18 and k > m + 4:
            break
        prev = size if size > 0.0 else prev
    if ratio >= 0.9:
        raise ConvergenceError(
            f"lambda series term ratio {ratio:.3f} >= 0.9 at truncation (x={x})",
            best_value=acc + math.fsum(parts),
        )
    return acc + math.fsum(parts)


# --- limit probes --------------------------------------------------------


def _lambda_scaled(s: float) -> float:
    return s * _lambda_unguarded(1.0 + s)


def lambda_probe_orders() -> tuple[float, float]:
    """(order-1, order-2) Richardson extrapolations of s*lambda(1+s) -> 1/2.

    Nodes s in {1e-4, 1e-5, 1e-6} (ratio 10); order 1 uses the two
    smallest nodes, order 2 all three (Neville to s = 0).
    """
    nodes = (1e-4, 1e-5, 1e-6)
    h = [_lambda_scaled(s) for s in nodes]
    # eliminate the O(s) error term between consecutive nodes
    r1_ab = (10.0 * h[1] - h[0]) / 9.0
    r1_bc = (10.0 * h[2] - h[1]) / 9.0
    # eliminate the O(s^2) term between the two order-1 values
    r2 = (100.0 * r1_bc - r1_ab) / 99.0
    return r1_bc, r2


def limit_probe_eta_and_lambda() -> tuple[float, float]:
    """Sanity gate on the continuation code near s = 1.

    Returns (extrapolated limit of s*lambda(1+s), eta averaged at
    1 +/- 1e-6); expected (1/2, log 2).
    """
    _, lam = lambda_probe_orders()
    eta_avg = 0.5 * (eta(1.0 - 1e-6) + eta(1.0 + 1e-6))
    return lam, eta_avg
