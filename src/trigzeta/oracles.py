"""Independent evaluation paths used to cross-validate the closed forms.

Three routes that do not use the Hurwitz-derivative closed forms.  They
share with them only the series catalogue (``SeriesSpec``, which gives
each family's sign, a, b and exponent alpha from ``closedforms.SERIES``)
and the interval check and parity fold (``_fold``), never Table II, so a
slip in the brackets' constants cannot move an oracle:

* ``direct_sum_grid`` -- literal summation of the defining series for a
                         grid of weights and points, returned as columns
                         (values, error estimates and terms used of shape
                         (weights, points), and a method per point);
                         ``direct_sum`` is its one-point call and returns
                         an ``OracleReport``;
* ``limit_series_eval`` -- the singular limit of the power series over
                         zeta/eta/lambda/beta values at integers: a log
                         term plus one Horner pass over a table per
                         (family, m), about 0 or, through a symmetry of
                         the series, about the far end of the interval;
* ``choi_srivastava_grid`` -- both sides of the identity underpinning
                         the closed forms for every n and t at one a,
                         returned for comparison; each value at a is
                         computed once per call, and the whole domain is
                         checked before any kernel call.

``direct_sum_grid`` sums the defining series in complex form,
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
exponent 1 near the singular endpoints, with the value it refuses as
``best_value``.  Alternating series report ``euler_accelerated``, the
rest ``direct``.

Only d^{-alpha} depends on the weight.  The head length, the phases with
their cosines and sines, and the tail's z, ratio and factors depend on
(family, x) alone, so a grid computes them once per x and reuses them for
every weight.  The points run in batches of heads that total at most
2^16 terms (``_CHUNK``), a longer head alone, summed in chunks of that
length.  Per batch, the heads take one table of d^{-alpha} with a row
per weight and, per point, one product with its cosines and sines,
reduced along the terms for all weights at once; the tails run in
lockstep over the (weight, point) lanes, one array step per order of
the transformation, each lane freezing at its own stopping order.  Every
head is at least 100 terms, so a batch holds at most 655 points, and
memory is bounded by the batch, not the grid.  Each array step costs
about a microsecond, so a lone point pays for a few hundred of them:
``direct_sum`` takes 0.3 to 0.5 ms, about five times what scalar loops
took, while one call for a sweep's 264 points of a family takes about
2 ms.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .closedforms import SeriesSpec, _fold
from .dirichlet import beta_fn, dirichlet_lambda, eta, riemann_zeta
from .errors import ConvergenceError, DomainError
from .foundations import BERNOULLI, digamma, harmonic, pochhammer
from .hurwitz import _TAYLOR_MAX_A, hurwitz_zeta, hurwitz_zeta_sderiv

__all__ = [
    "OracleReport",
    "DIRECT_TERM_CAP",
    "direct_sum",
    "direct_sum_grid",
    "limit_series_eval",
    "choi_srivastava_grid",
    "lambda_probe_orders",
]

DIRECT_TERM_CAP = 10**7

# terms held at once: the chunk length of a long head and the most in a batch
_CHUNK = 1 << 16
_HEAD_SCALE = 200.0
_EPS = sys.float_info.epsilon


class OracleReport(NamedTuple):
    value: float
    method: str  # direct | euler_accelerated
    terms_used: int
    error_estimate: float


def _plan_point(a: int, b: int, sign: int, x: float):
    """Head length and tail factors at x >= 0, or the refusal message.

    Returns (m, ratio, step, factor): the head is n = 1..m; the tail from
    n = m + 1 has ratio |z/(1-z)|, step -z/(1-z) and first factor
    sign^m e^{i d(m+1) x}/(1-z), none of which depend on the weight.
    """
    z = sign * cmath.exp(1j * a * x)
    one_minus = 1.0 - z
    if abs(one_minus) < 1e-8:
        return f"series phase too close to resonance at x={x}; no tail bound available"
    # each order of the tail transformation then gains about 200/(alpha + j)
    m = int(_HEAD_SCALE / abs(one_minus))
    if m > DIRECT_TERM_CAP:
        return f"term cap {DIRECT_TERM_CAP} exceeded for x={x}"
    factor = sign**m * cmath.exp(1j * ((a * (m + 1) - b) * x)) / one_minus
    return m, abs(z / one_minus), -z / one_minus, factor


def _batches(heads: list[int]):
    """Slices of consecutive heads of <= _CHUNK terms in all; a longer head alone."""
    start, size = 0, 0
    for end, head in enumerate(heads):
        if end > start and size + head > _CHUNK:
            yield slice(start, end)
            start, size = end, 0
        size += head
    if heads:
        yield slice(start, len(heads))


def _head_sums(
    a: int, b: int, sign: int, alphas: list[int], xs: list[float], heads: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per weight and point, S = sum_{n=1}^{m} sign^(n-1) e^{idx} d^{-alpha} and R.

    Returns the real and imaginary parts of S and the bound R on its
    rounding, each of shape (weights, points), for one batch of
    ``_batches``: heads that total at most _CHUNK terms, or one longer
    head, which is summed in chunks of _CHUNK values of n.  The heads of
    the batch are laid end to end, and d x, its cosine and its sine are
    computed once for all weights.  One table g = d^{-alpha}, a row per
    weight, serves every point: a point's S for all weights is one
    product of g with its contiguous slice of cosines and sines, reduced
    along the terms, the same value a lone partial sum gives.  The sign is
    exact, carried on the coefficients, and each phase d x is rounded
    once, by at most eps/2 * d x, independently of the other terms.  R
    bounds the rounding of S: those phase errors, weighted by d^{-alpha},
    plus 5/2 eps d^{-alpha} per term for the power, the cosine or sine and
    their product, plus the summation.  ndarray.sum adds pairwise over
    blocks of 128 held in 8 running sums, so a term meets at most
    log2(m) + 12 additions there, and one more per chunk total.
    """
    import numpy as np

    shape = (len(alphas), len(xs))
    totals = np.zeros((len(alphas), 2, len(xs)))  # cosine and sine sums
    masses = np.zeros(shape)  # sum of d^{-alpha}
    moments = np.zeros(shape)  # sum of d^{1-alpha}
    for first in range(1, max(heads) + 1, _CHUNK):
        # the part of each head in this chunk runs from n = first
        lengths = [min(m - first + 1, _CHUNK) for m in heads]
        top = a * (first + max(lengths) - 1) - b
        d = np.arange(a * first - b, top + 1, a, dtype=np.float64)
        trig = np.empty((2, sum(lengths)))
        start = 0
        for x, length in zip(xs, lengths):
            np.multiply(d[:length], x, out=trig[1, start:start + length])
            start += length
        np.cos(trig[1], out=trig[0])
        np.sin(trig[1], out=trig[1])
        # a scalar exponent per row: an array exponent takes another pow
        g = np.empty((len(alphas), len(d)))
        for w, alpha in enumerate(alphas):
            g[w] = d ** (-float(alpha))
        ends = np.array(lengths) - 1
        masses += g.cumsum(axis=1)[:, ends]
        moments += (d * g).cumsum(axis=1)[:, ends]
        if sign < 0:
            g[:, first % 2::2] *= -1.0  # even n
        sums = []
        start = 0
        for length in lengths:
            sums.append((trig[:, start:start + length] * g[:, None, :length]).sum(axis=2))
            start += length
        totals += np.stack(sums, axis=2)
    depth = [math.log2(m) + 12 + math.ceil(m / _CHUNK) for m in heads]
    roundings = _EPS * (0.5 * np.array(xs) * moments + (2.5 + 0.5 * np.array(depth)) * masses)
    return totals[:, 0], totals[:, 1], roundings


def _tails(
    a: int, b: int, alphas: list[int], xs: list[float], plans: list[tuple]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tails sum_{n>m} sign^(n-1) e^{idx} d^{-alpha}, d = an-b, by parts.

    One lockstep pass over every weight (rows) and point (columns) of a
    batch; ``plans`` holds (m, ratio, step, factor) from
    ``_plan_point``.  Returns the real and imaginary parts of the tails,
    their error bounds and the difference orders used.  With
    z = sign e^{iax}, m1 = m + 1 and g(n) = (an-b)^{-alpha} the tail is
    sign^(m1-1) e^{i d(m1) x} sum_k z^k g(m1+k), transformed by iterated
    summation by parts.  g is completely monotone in n, so the iterated
    forward differences are positive and decreasing, giving the
    telescoping remainder bound |z/(1-z)|^(J+1) Delta^J g(m1) after orders
    0..J.  The differences come from one pass that keeps the last diagonal
    of the difference table, diag[k] = Delta^k g(m1+j-k); their rounding
    is 2^j eps g(m1) on Delta^j g(m1), carried with the same weights.
    That rounding grows with the order while the remainder shrinks, so a
    lane freezes where their sum is least, or once the remainder is below
    1e-18; the pass ends when every lane has frozen.  The bound also
    covers the rounding of the phase d(m1) x, at most eps/2 * d(m1) x, and
    of the factors 1/(1-z) and -z/(1-z).

    The factor recurrence does not depend on the weight, so it runs once
    per point, in real and imaginary parts.  The powers g(m1+j) and
    ratio^(j+1) stay Python floats, computed by the C library's pow for
    the points with a live lane: numpy's vectorised power rounds some of
    them differently.  Frozen lanes keep computing, and may overflow.
    """
    import numpy as np

    ends = [a * (plan[0] + 1) - b for plan in plans]  # d(m1)
    ratios = [plan[1] for plan in plans]
    powers = [-float(alpha) for alpha in alphas]
    shape = (len(alphas), len(plans))
    eps_g = _EPS * np.array([[d ** power for d in ends] for power in powers]).reshape(shape)
    # factor (real, imaginary) times step is factor * step.real plus the
    # swapped parts times (-step.imag, step.imag): the two products and sums
    # of the complex product, each rounded once
    factor = np.array([[plan[3].real for plan in plans], [plan[3].imag for plan in plans]])
    step_re = np.array([plan[2].real for plan in plans])
    step_im = np.array([plan[2].imag for plan in plans]) * np.array([[-1.0], [1.0]])
    diag: list[np.ndarray] = []
    # per lane, the running tail (real, imaginary), error bound and size of
    # the terms, and the same at the lane's best order
    run, best = np.zeros((4,) + shape), np.zeros((4,) + shape)
    best[2] = math.inf
    tail, err, size = run[:2], run[2], run[3]
    used = np.zeros(shape, dtype=np.int64)
    rounding, weight = np.zeros(shape), np.zeros(len(plans))
    live = np.ones(shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(60):
            rows, columns = (index.tolist() for index in np.nonzero(live))
            if not rows:
                break
            cur = np.zeros(shape)
            cur[live] = [(ends[p] + a * j) ** powers[w] for w, p in zip(rows, columns)]
            points = live.any(axis=0)
            weight[points] = [ratios[p] ** (j + 1) for p in np.flatnonzero(points).tolist()]
            for k in range(j):
                diag[k], cur = cur, diag[k] - cur
            diag.append(cur)  # Delta^j g(m1)
            # Python's complex times float also adds -imag * 0.0 and
            # real * 0.0, which can only change the sign of a zero
            tail += factor[:, None] * cur
            factor = factor * step_re + factor[::-1] * step_im
            rounding += weight * 2.0**j * eps_g
            bound = weight * cur  # also the size of the order-j term
            size += bound
            np.add(np.maximum(bound, 1e-18), rounding, out=err)
            live &= err <= best[2]  # else past the optimal truncation point
            np.copyto(best, run, where=live)
            used += live
            live &= bound >= 1e-18
    tail_re, tail_im, err, size = best
    err += _EPS * (
        0.5 * np.array(ends, dtype=np.float64) * np.array(xs)
        + (used + 2) * (np.array(ratios) + 2.0)
    ) * size
    return tail_re, tail_im, err, used


def direct_sum_grid(
    family: str, weights, xs, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Evaluate the defining series of ``family`` for every weight and x.

    Returns the columns (values, error estimates, terms used, methods):
    three arrays of shape (weights, points), a row per weight in the order
    of ``xs``, and one method per point.  A point's entries do not depend
    on the rest of the grid: they are, bit for bit, what ``direct_sum``
    reports there.  Every x is validated and folded first.  Each error
    estimate bounds both the truncation and the rounding (see the module
    docstring).

    Heads, tails and totals run per batch of ``_batches``, so the arrays
    hold at most ``_CHUNK // 100`` points whatever the grid.

    ``tol`` does not change the values: it only gates them.  The error
    raised is that of the first failing entry in weight-major, x-minor
    order: ``ConvergenceError`` for the phase at resonance or a head
    beyond ``DIRECT_TERM_CAP`` terms, and for an estimate above ``tol``
    with that entry's value as ``best_value``; ``DomainError`` for an
    estimate that is not finite and positive.
    """
    import numpy as np

    if not tol >= 1e-12:
        raise DomainError("direct_sum tolerance must be >= 1e-12")
    specs = [SeriesSpec.from_family(family, m) for m in weights]
    spec = SeriesSpec.from_family(family, 1)
    a, b, sign = spec.a, spec.b, spec.sign
    sine = spec.kind == "sin"
    method = "euler_accelerated" if sign < 0 else "direct"
    folds = [_fold(spec, x) for x in xs]
    # plan None where a sine series vanishes: value 0 from 1 term
    plans = [None if x == 0.0 and sine else _plan_point(a, b, sign, x) for _, x in folds]
    planned = [j for j, plan in enumerate(plans) if isinstance(plan, tuple)]
    heads = [plans[j][0] for j in planned]
    alphas = [s.alpha for s in specs]
    shape = (len(alphas), len(xs))
    values, errs = np.zeros(shape), np.full(shape, 1e-18)
    terms = np.ones(shape, dtype=np.int64)
    for batch in _batches(heads):
        points = planned[batch]
        ts = [folds[j][1] for j in points]
        head_re, head_im, head_err = _head_sums(a, b, sign, alphas, ts, heads[batch])
        tail_re, tail_im, tail_err, used = _tails(a, b, alphas, ts, [plans[j] for j in points])
        total_re = head_re + tail_re
        total_im = head_im + tail_im
        values[:, points] = (total_im if sine else total_re) * [folds[j][0] for j in points]
        # np.hypot is the C library's hypot, which abs() of a complex calls
        errs[:, points] = head_err + tail_err + 0.5 * _EPS * np.hypot(total_re, total_im)
        terms[:, points] = np.array(heads[batch]) + used
    # the estimates that are not finite and positive, those above tol and the refused points
    flagged = ~(np.isfinite(errs) & (errs > 0.0)) | (errs > tol)
    flagged[:, [j for j, plan in enumerate(plans) if isinstance(plan, str)]] = True
    if flagged.any():
        w, j = divmod(int(flagged.argmax()), len(xs))
        if isinstance(plans[j], str):
            raise ConvergenceError(plans[j])
        err = errs[w, j].item()
        if not (math.isfinite(err) and err > 0.0):
            raise DomainError("error_estimate must be finite and positive")
        raise ConvergenceError(
            f"direct summation reached error estimate {err:.3e} > tol {tol:.3e}",
            best_value=values[w, j].item(),
        )
    return values, errs, terms, ["direct" if plan is None else method for plan in plans]


def direct_sum(spec: SeriesSpec, x: float, tol: float = 1e-10) -> OracleReport:
    """Evaluate the defining series of ``spec`` at x by literal summation.

    The one-point call of ``direct_sum_grid``: a head of 200/|1-z| terms
    plus the tail summed by parts, with an ``error_estimate`` that bounds
    both the truncation and the rounding.  ``tol`` only gates the value,
    raising ``ConvergenceError`` when the estimate exceeds it or the head
    would exceed ``DIRECT_TERM_CAP`` terms.  A head longer than ``_CHUNK``
    (2^16) terms is summed in chunks of that many, so memory stays bounded
    near the ends of the interval.  It runs the grid's array steps on a
    1 x 1 grid, 0.3 to 0.5 ms a point: computing many weights or points,
    a single ``direct_sum_grid`` call shares the phases, the head products
    and the tail's steps between them.
    """
    values, errs, terms, methods = direct_sum_grid(spec.family, [spec.m], [x], tol)
    return OracleReport(values[0, 0].item(), methods[0], terms[0, 0].item(), errs[0, 0].item())


# --- singular-limit series ----------------------------------------------

# last order -j whose exact value the tables use: B_64 gives zeta(-63)
_LIMIT_ORDER = 63


def _zeta_at_minus(j: int) -> Fraction:
    """zeta(-j) = (-1)^j B_{j+1} / (j+1), exactly."""
    return (-1) ** j * BERNOULLI[j + 1] / (j + 1)


@functools.cache
def _euler_numbers() -> tuple[int, ...]:
    """E_0..E_63 from sum_{i even} C(n, i) E_i = 0 for even n >= 2."""
    values = [1]
    for n in range(1, _LIMIT_ORDER + 1):
        values.append(0 if n % 2 else -sum(math.comb(n, i) * values[i] for i in range(0, n, 2)))
    return tuple(values)


# (sign, a) of the series -> (F, exact F(-j), log factor c, log scale,
# radius R of the power series in x)
_LIMIT_ROWS = {
    (1, 1): (riemann_zeta, _zeta_at_minus, 1.0, 1.0, 2.0 * math.pi),
    (-1, 1): (eta, lambda j: (1 - 2 ** (j + 1)) * _zeta_at_minus(j), 0.0, 1.0, math.pi),
    (1, 2): (dirichlet_lambda, lambda j: (1 - 2**j) * _zeta_at_minus(j), 0.5, 0.5, math.pi),
    (-1, 2): (beta_fn, lambda j: Fraction(_euler_numbers()[j], 2), 0.0, 1.0, 0.5 * math.pi),
}


# family -> (target, sign): at y = E - |x|, E the upper end of the
# interval, the series is sign times the target's series at y, by the sine
# or cosine of d(n)(E - y); the weight and so alpha are the same
_END_SYMMETRIES = {
    "T1": ("T1", -1.0), "T2": ("T2", 1.0), "T3": ("T1", 1.0), "T4": ("T2", -1.0),
    "T5": ("T5", 1.0), "T6": ("T6", -1.0), "T7": ("T6", 1.0), "T8": ("T5", 1.0),
}
_PI_LO = 1.2246467991473532e-16  # pi - math.pi


@functools.cache
def _limit_table(family: str, m: int) -> tuple:
    """Horner coefficients in x^2, highest first, and the log-term constants.

    The coefficient of x^(2k+delta) is (-1)^k F(alpha-2k-delta)/(2k+delta)!,
    exact at order <= 0, from ``dirichlet`` above it, and 0 at the pole
    index k = m-1 of the rows with a log term.
    """
    spec = SeriesSpec.from_family(family, m)
    f_func, f_exact, c, scale, radius = _LIMIT_ROWS[spec.sign, spec.a]
    alpha = int(spec.alpha)
    delta = 1 if spec.kind == "sin" else 0
    coeffs = []
    for k in range((_LIMIT_ORDER + alpha - delta) // 2 + 1):
        order = alpha - 2 * k - delta
        if c and k == m - 1:
            coeffs.append(0.0)
        elif order > 0:
            coeffs.append((-1) ** k * f_func(float(order)) / math.factorial(2 * k + delta))
        else:
            coeffs.append(float((-1) ** k * f_exact(-order) / math.factorial(2 * k + delta)))
    k_log = alpha - 1
    log_coeff = c * (-1) ** m / math.factorial(k_log)
    return tuple(reversed(coeffs)), delta, k_log, log_coeff, harmonic(k_log), scale, radius


def limit_series_eval(spec: SeriesSpec, x: float) -> float:
    """The series of ``spec`` at x as the limit of its power series.

    At the singular alpha the power series over F = zeta, eta, lambda or
    beta (by family) hits the pole of F at 1; its finite limit is

        sum_{k != m-1} (-1)^k F(alpha-2k-delta) x^(2k+delta)/(2k+delta)!
          + c (-1)^m x^K (log(scale x) - H_K)/K!,    K = alpha - 1,

    with delta = 1 for sine and 0 for cosine families, and c, scale = 1, 1
    (zeta), 1/2, 1/2 (lambda) or c = 0 with no skipped index (eta, beta).
    The sum stops at F(-63), one Horner pass in x^2 over a table built on
    first use per (family, m).  Of the expansion at 0 and that of the
    ``_END_SYMMETRIES`` target at y = E - |x|, with y formed from pi in two
    parts so that it keeps its relative accuracy, the one with the smaller
    ratio |x|/R or y/R' to its radius of convergence is summed.  That ratio
    never exceeds 1/2 on the open interval.  The omitted terms are bounded
    as a geometric series of ratio q = (x/R)^2; where that bound exceeds
    eps (1 + |value|) it raises ``ConvergenceError`` carrying the value as
    ``best_value``.  Besides the series catalogue and the parity fold, it
    shares with the closed forms only the Bernoulli numbers (``BERNOULLI``,
    for F at order <= 0) and, through ``dirichlet``, the Euler-Maclaurin
    sum at positive order.
    """
    sign, t = _fold(spec, x)
    target, end_sign = _END_SYMMETRIES[spec.family]
    table = _limit_table(spec.family, spec.m)
    far = _limit_table(target, spec.m)
    end = spec.interval[1]
    y = (end - t) + end / math.pi * _PI_LO
    if y * table[-1] < t * far[-1]:  # y/R' < |x|/R
        table, t, sign = far, y, sign * end_sign
    coeffs, delta, k_log, log_coeff, h_k, scale, radius = table
    y = t * t
    acc = 0.0
    for coeff in coeffs:
        acc = acc * y + coeff
    value = acc * t**delta
    if log_coeff:
        value += log_coeff * t**k_log * (math.log(scale * t) - h_k)
    value *= sign
    q = y / (radius * radius)
    omitted = abs(coeffs[0]) * t ** (2 * len(coeffs) - 2 + delta) * q / (1.0 - q)
    if omitted > _EPS * (1.0 + abs(value)):
        raise ConvergenceError(
            f"singular-limit series leaves terms up to {omitted:.3e} at x={x}",
            best_value=value,
        )
    return value


# --- Choi-Srivastava identity ------------------------------------------

_CHOI_TERMS = 400  # last k of the lhs series


def choi_srivastava_grid(ns, a: float, ts) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the zeta-series identity for every n in ``ns`` and t in ``ts``.

    lhs = sum_{k=2}^{400} zeta(k, a) t^(n+k) / (k)_{n+1}, cut at the first
          k > 8 whose term is below 1e-19
    rhs = the closed form over zeta'(-n, a-t), zeta'(-n, a), the binomial
          sum with harmonic-number weights, and (H_n + psi(a)) t^(n+1)/(n+1)!.

    Returns (lhs, rhs) as two (len(ns), len(ts)) arrays.  Every value at
    the one offset a is computed once per call: zeta(k, a) and zeta'(k, a)
    once per integer k, whether the lhs series or the rhs pieces ask for
    it, (k)_{n+1} once per (k, n), the t-free rhs parts -- zeta'(-n, a)
    and zeta(k-n, a) (H_n - H_{n-k}) - zeta'(k-n, a) -- once per n, and
    psi(a) once.  Each entry keeps its own cut, sum and order of
    operations, so it does not depend on the rest of the grid.

    Domain: integer 0 <= n <= 8, finite a > 0 and |t| < a, and for n >= 2,
    where the rhs takes zeta'(-n, .) from the Taylor table, a and every
    a - t below 5/2.  ``DomainError`` is raised before any kernel call
    outside it, and by the kernels for a value that overflows a float.
    """
    import numpy as np

    ns, ts = list(ns), list(ts)
    if not all(0 <= n <= 8 and n == int(n) for n in ns):
        raise DomainError(f"choi_srivastava_grid requires integer 0 <= n <= 8, got {ns}")
    if not 0.0 < a < math.inf:
        raise DomainError(f"choi_srivastava_grid requires finite a > 0, got a={a}")
    if not all(abs(t) < a for t in ts):
        raise DomainError(f"choi_srivastava_grid requires |t| < a, got a={a}, t in {ts}")
    if max(ns, default=0) >= 2 and not all(a - t < _TAYLOR_MAX_A for t in [0.0] + ts):
        raise DomainError(f"choi_srivastava_grid at n >= 2 requires a, a - t < {_TAYLOR_MAX_A}")
    zeta = functools.cache(lambda k: hurwitz_zeta(float(k), a))  # zeta(k, a)
    deriv = functools.cache(lambda k: hurwitz_zeta_sderiv(float(k), a))  # zeta'(k, a)
    poch = functools.cache(lambda k, n: pochhammer(float(k), n + 1))  # (k)_{n+1}
    psi = digamma(a)
    lhs, rhs = np.empty((len(ns), len(ts))), np.empty((len(ns), len(ts)))
    for i, n in enumerate(int(n) for n in ns):
        h_n = harmonic(n)
        at_a = deriv(-n)
        pieces = [zeta(k - n) * (h_n - harmonic(n - k)) - deriv(k - n) for k in range(1, n + 1)]
        for j, t in enumerate(ts):
            lhs_parts = []
            for k in range(2, _CHOI_TERMS + 1):
                term = zeta(k) * t ** (n + k) / poch(k, n)
                lhs_parts.append(term)
                if abs(term) < 1e-19 and k > 8:
                    break
            lhs[i, j] = math.fsum(lhs_parts)
            inner = hurwitz_zeta_sderiv(-float(n), a - t) - at_a
            for k, piece in enumerate(pieces, 1):
                inner += (-t) ** k * math.comb(n, k) * piece
            value = (-1.0) ** n / math.factorial(n) * inner
            rhs[i, j] = value + (h_n + psi) * t ** (n + 1) / math.factorial(n + 1)
    return lhs, rhs


# --- limit probes --------------------------------------------------------


def lambda_probe_orders() -> tuple[float, float]:
    """(order-1, order-2) Richardson extrapolations of s*lambda(1+s) -> 1/2.

    Nodes s in {1e-4, 1e-5, 1e-6} (ratio 10); order 1 uses the two
    smallest nodes, order 2 all three (Neville to s = 0).
    """
    nodes = (1e-4, 1e-5, 1e-6)
    h = [s * dirichlet_lambda(1.0 + s) for s in nodes]  # s lambda(1 + s)
    # eliminate the O(s) error term between consecutive nodes
    r1_ab = (10.0 * h[1] - h[0]) / 9.0
    r1_bc = (10.0 * h[2] - h[1]) / 9.0
    # eliminate the O(s^2) term between the two order-1 values
    r2 = (100.0 * r1_bc - r1_ab) / 99.0
    return r1_bc, r2
