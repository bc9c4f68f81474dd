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

``direct_sum`` method dispatch: a partial sum plus the tail summed by
parts (a generalised Euler transformation of the complex tail), with a
remainder bound that includes the rounding of the forward differences.
Alternating series report ``euler_accelerated``, the rest ``direct``;
the conditionally convergent cosine series at exponent 1 take the same
route and raise ``ConvergenceError`` near the singular endpoints, where
the bound exceeds the tolerance.
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


def _partial_sum_complex(a: int, b: int, sign: int, alpha: int, x: float, m: int) -> complex:
    """sum_{n=1}^{m} (sign e^{iax})^n (an-b)^{-alpha}, chunked."""
    z_phase = a * x + (math.pi if sign < 0 else 0.0)
    total = 0.0 + 0.0j
    start = 1
    while start <= m:
        stop = min(m, start + _CHUNK - 1)
        n = np.arange(start, stop + 1, dtype=np.float64)
        g = (a * n - b) ** (-float(alpha))
        phases = z_phase * n
        total += complex(np.sum(g * np.cos(phases)), np.sum(g * np.sin(phases)))
        start = stop + 1
    return total


def _tail_by_parts(
    a: int, b: int, alpha: int, z: complex, m1: int, tol: float
) -> tuple[complex, float, int]:
    """Tail sum_{n>=m1} z^n (an-b)^{-alpha} by iterated summation by parts.

    Returns (tail value, error bound, difference order used).  The
    coefficients (an-b)^{-alpha} are completely monotone in n, so the
    iterated forward differences are positive and decreasing, giving the
    telescoping remainder bound |z/(1-z)|^J * Delta^{J-1} g(m1).  The
    stopping rule uses that bound alone; the returned bound adds the
    rounding of the differences, 2^j eps g(m1) on Delta^j g(m1), carried
    with the same weights |z/(1-z)|^(j+1).
    """
    one_minus = 1.0 - z
    ratio = abs(z / one_minus)
    j_max = 60
    g = [(a * (m1 + i) - b) ** (-float(alpha)) for i in range(j_max + 2)]
    z_pow_m1 = cmath.exp(1j * cmath.phase(z) * m1) if abs(abs(z) - 1.0) < 1e-12 else z**m1
    factor = z_pow_m1 / one_minus
    step = -z / one_minus
    tail = 0.0 + 0.0j
    best_tail = 0.0 + 0.0j
    best_bound = math.inf
    eps_g = sys.float_info.epsilon * g[0]
    rounding = best_rounding = 0.0
    diffs = g
    used = 0
    for j in range(j_max):
        delta_j = diffs[0]
        tail += factor * delta_j
        factor *= step
        # remainder after including orders 0..j
        bound = ratio ** (j + 1) * delta_j
        rounding += ratio ** (j + 1) * 2.0**j * eps_g
        used = j + 1
        if bound < best_bound:
            best_bound = bound
            best_tail = tail
            best_rounding = rounding
        if bound < 0.05 * tol or bound < 1e-18:
            return tail, max(bound, 1e-18) + rounding, used
        if bound > 10.0 * best_bound:
            # past the optimal truncation point of the transformation
            return best_tail, max(best_bound, 1e-18) + best_rounding, used
        diffs = [diffs[i] - diffs[i + 1] for i in range(len(diffs) - 1)]
    return best_tail, max(best_bound, 1e-18) + best_rounding, used


def _sum_by_parts(spec: SeriesSpec, x: float, tol: float, method: str) -> OracleReport:
    a, b, sign, alpha = _series_params(spec)
    z = sign * cmath.exp(1j * a * x)
    one_minus = abs(1.0 - z)
    if one_minus < 1e-8:
        raise ConvergenceError(
            f"series phase too close to resonance at x={x}; no tail bound available"
        )
    ratio = 1.0 / one_minus
    m = max(4000, int(200.0 * ratio))
    if m > DIRECT_TERM_CAP:
        raise ConvergenceError(f"term cap {DIRECT_TERM_CAP} exceeded for x={x}")
    partial = _partial_sum_complex(a, b, sign, alpha, x, m)
    tail, bound, j_used = _tail_by_parts(a, b, alpha, z, m + 1, tol)
    total = sign * cmath.exp(-1j * b * x) * (partial + tail)
    value = total.imag if spec.kind == "sin" else total.real
    err = bound + 1e-15 * (1.0 + abs(value)) * math.log(m)
    report = OracleReport(value, method, m + j_used, err)
    if err > tol:
        raise ConvergenceError(
            f"direct summation reached error estimate {err:.3e} > tol {tol:.3e}",
            best_value=value,
            report=report,
        )
    return report


def direct_sum(spec: SeriesSpec, x: float, tol: float = 1e-10) -> OracleReport:
    """Evaluate the defining series of ``spec`` at x by literal summation."""
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
