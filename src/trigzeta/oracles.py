"""The summation oracle that ``compare`` and ``sweep`` check the closed forms against.

It does not use the Hurwitz-derivative closed forms.  It shares with
them only the series catalogue (``SeriesSpec``, which gives each
family's sign, a, b, exponent alpha and interval from
``closedforms.SERIES``, and checks that x lies inside that interval),
never Table II nor the brackets' parity fold, so a slip in the brackets'
constants or in their fold cannot move it.  It sums each series at the
signed x: sin and cos carry the parity themselves.  ``direct_sum_grid`` is
the literal summation of the defining series for a grid of weights and
points, returned as columns (values, error estimates and terms used of
shape (weights, points), and a method per point); ``direct_sum`` is its
one-point call and returns an ``OracleReport``.  The check oracles that
only the ``verify`` suites use live in ``trigzeta.verify``.

``direct_sum_grid`` sums the defining series as the imaginary part
(sine families) or the real part (cosine families) of
sum_n sign^(n-1) e^{idx} d^{-alpha} with d = an-b: a head of
m = 200/|1-z| terms (z = sign e^{iax}) plus the tail summed by parts (a
generalised Euler transformation).  The head sums only the part the
family reads, one sine or cosine per term, and so does the tail: its
factors run in complex form, since each step mixes the two parts, but it
adds only the family's part of each.  The sign is exact, carried on the
coefficients, and each phase d x is rounded once.  From that head length
on, each order of the transformation shrinks the tail by about
(alpha + j)/200, so a few orders reach the rounding floor; ``terms_used``
is m plus those orders, 100 to about 650 on the CLI grids.  The error
estimate is an upper bound made of the remainder of the transformation
and the rounding of its forward differences, of the phases, of the
summation and of the addition of head and tail.  The tolerance does not
set the stopping point; it only decides whether to raise
``ConvergenceError`` because the estimate exceeds it, as it does for the
conditionally convergent cosine series at exponent 1 near the singular
endpoints, with the value it refuses as ``best_value``.  Alternating
series report ``euler_accelerated``, the rest ``direct``.

Only d^{-alpha} depends on the weight.  The head length, the phases with
their sines or cosines, and the tail's z, ratio and factors depend on
(family, x) alone, so a grid computes them once per x and reuses them for
every weight.  The points run in batches of heads that total at most
2^16 terms (``_CHUNK``), a longer head alone, summed in chunks of that
length.  Per batch, the heads take one table of d^{-alpha} with a row
per weight and, per point, one product with its sines or cosines,
reduced along the terms for all weights at once; the tails run in
lockstep over the (weight, point) lanes, one array step per order of
the transformation, each lane freezing at its own stopping order.  Every
head is at least 100 terms, so a batch holds at most 655 points, and
memory is bounded by the batch, not the grid.  Each array step costs
about a microsecond, so a lone point pays for a few hundred of them:
``direct_sum`` takes 0.1 to 0.5 ms (median 0.25 ms), while one call for
a sweep's 264 points of a family takes about 1 ms (Python 3.11, numpy
2.4, a 2-core Xeon VM).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .closedforms import SeriesSpec
from .errors import ConvergenceError, DomainError

__all__ = ["OracleReport", "DIRECT_TERM_CAP", "direct_sum", "direct_sum_grid"]

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
    """Head length and tail factors at the signed x, or the refusal message.

    Returns (m, ratio, step, factor): the head is n = 1..m; the tail from
    n = m + 1 has ratio |z/(1-z)|, step -z/(1-z) and first factor
    sign^m e^{i d(m+1) x}/(1-z), none of which depend on the weight.  At
    -x they are the complex conjugates of those at x.
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
    a: int, b: int, sign: int, alphas: list[int], xs: list[float], heads: list[int], sine: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Per weight and point, the part of the head sum S that the family reads, and R.

    S = sum_{n=1}^{m} sign^(n-1) e^{idx} d^{-alpha}.  Returns Im S for a
    sine family (``sine``), Re S for a cosine family, and the bound R on
    its rounding, each of shape (weights, points), for one batch of
    ``_batches``: heads that total at most _CHUNK terms, or one longer
    head, which is summed in chunks of _CHUNK values of n.  The heads of
    the batch are laid end to end, and d x and its sine or cosine are
    computed once for all weights.  One table g = d^{-alpha}, a row per
    weight, serves every point: a point's part for all weights is one
    product of g with its contiguous slice of sines or cosines, reduced
    along the terms, the same value a lone partial sum gives.  The sign is
    exact, carried on the coefficients, and each phase d x is rounded
    once, by at most eps/2 * d |x|, independently of the other terms.  R
    bounds the rounding of the part: those phase errors, weighted by
    d^{-alpha}, plus 5/2 eps d^{-alpha} per term for the power, the sine or
    cosine and their product, plus the summation.  ndarray.sum adds
    pairwise over blocks of 128 held in 8 running sums, so a term meets at
    most log2(m) + 12 additions there, and one more per chunk total.
    """
    import numpy as np

    shape = (len(alphas), len(xs))
    totals = np.zeros(shape)
    masses = np.zeros(shape)  # sum of d^{-alpha}
    moments = np.zeros(shape)  # sum of d^{1-alpha}
    for first in range(1, max(heads) + 1, _CHUNK):
        # the part of each head in this chunk runs from n = first
        lengths = [min(m - first + 1, _CHUNK) for m in heads]
        top = a * (first + max(lengths) - 1) - b
        d = np.arange(a * first - b, top + 1, a, dtype=np.float64)
        trig = np.empty(sum(lengths))
        start = 0
        for x, length in zip(xs, lengths):
            np.multiply(d[:length], x, out=trig[start:start + length])
            start += length
        (np.sin if sine else np.cos)(trig, out=trig)
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
            sums.append((trig[start:start + length] * g[:, :length]).sum(axis=1))
            start += length
        totals += np.stack(sums, axis=1)
    depth = [math.log2(m) + 12 + math.ceil(m / _CHUNK) for m in heads]
    roundings = _EPS * (0.5 * np.abs(xs) * moments + (2.5 + 0.5 * np.array(depth)) * masses)
    return totals, roundings


def _tails(
    a: int, b: int, alphas: list[int], xs: list[float], plans: list[tuple], sine: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tails sum_{n>m} sign^(n-1) e^{idx} d^{-alpha}, d = an-b, by parts.

    One lockstep pass over every weight (rows) and point (columns) of a
    batch; ``plans`` holds (m, ratio, step, factor) from
    ``_plan_point``.  Returns the part of the tails the family reads (the
    imaginary part for a sine family, ``sine``, else the real part), their
    error bounds and the difference orders used.  With
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
    covers the rounding of the phase d(m1) x, at most eps/2 * d(m1) |x|,
    and of the factors 1/(1-z) and -z/(1-z).

    The factor recurrence does not depend on the weight, so it runs once
    per point, in real and imaginary parts; each order adds only the
    family's part of the factor times the difference.  The powers g(m1+j)
    and ratio^(j+1) of the live lanes come from builtin ``pow`` mapped over
    lists of float bases (d(m1+j) is an exact integer) and exponents:
    that is the C library's pow, as ``**`` is, while numpy's vectorised
    power rounds some of them differently.  Frozen lanes keep computing,
    and may overflow.
    """
    import numpy as np

    ends = [a * (plan[0] + 1) - b for plan in plans]  # d(m1)
    ratios = np.array([plan[1] for plan in plans])
    powers = [-float(alpha) for alpha in alphas]
    shape = (len(alphas), len(plans))
    eps_g = _EPS * np.array([[d ** power for d in ends] for power in powers]).reshape(shape)
    # d(m1 + j) is ends + a*j, an exact integer below 2^53 in float64
    bases, exponents = np.array(ends, dtype=np.float64), np.array(powers)
    # factor (real, imaginary) times step is factor * step.real plus the
    # swapped parts times (-step.imag, step.imag): the two products and sums
    # of the complex product, each rounded once
    factor = np.array([[plan[3].real for plan in plans], [plan[3].imag for plan in plans]])
    step_re = np.array([plan[2].real for plan in plans])
    step_im = np.array([plan[2].imag for plan in plans]) * np.array([[-1.0], [1.0]])
    diag: list[np.ndarray] = []
    # per lane, the running tail part, error bound and size of the terms,
    # and the same at the lane's best order
    run, best = np.zeros((3,) + shape), np.zeros((3,) + shape)
    best[1] = math.inf
    tail, err, size = run
    used = np.zeros(shape, dtype=np.int64)
    rounding, weight = np.zeros(shape), np.zeros(len(plans))
    live = np.ones(shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(60):
            rows, columns = np.nonzero(live)
            if not rows.size:
                break
            cur = np.zeros(shape)
            cur[live] = list(map(pow, (bases[columns] + a * j).tolist(), exponents[rows].tolist()))
            points = live.any(axis=0)
            live_ratios = ratios[points].tolist()
            weight[points] = list(map(pow, live_ratios, [j + 1] * len(live_ratios)))
            for k in range(j):
                diag[k], cur = cur, diag[k] - cur
            diag.append(cur)  # Delta^j g(m1)
            # Python's complex times float also adds -imag * 0.0 and
            # real * 0.0, which can only change the sign of a zero
            tail += factor[int(sine)] * cur
            factor = factor * step_re + factor[::-1] * step_im
            rounding += weight * 2.0**j * eps_g
            bound = weight * cur  # also the size of the order-j term
            size += bound
            np.add(np.maximum(bound, 1e-18), rounding, out=err)
            live &= err <= best[1]  # else past the optimal truncation point
            np.copyto(best, run, where=live)
            used += live
            live &= bound >= 1e-18
    tail, err, size = best
    err += _EPS * (
        0.5 * np.array(ends, dtype=np.float64) * np.abs(xs)
        + (used + 2) * (ratios + 2.0)
    ) * size
    return tail, err, used


def direct_sum_grid(
    family: str, weights, xs, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Evaluate the defining series of ``family`` for every weight and x.

    Returns the columns (values, error estimates, terms used, methods):
    three arrays of shape (weights, points), a row per weight in the order
    of ``xs``, and one method per point.  A point's entries do not depend
    on the rest of the grid: they are, bit for bit, what ``direct_sum``
    reports there.  Every x is checked against the interval first, and
    each series is summed at the signed x, with no parity fold.  Each error
    estimate bounds both the truncation and the rounding (see the module
    docstring): the head's and the tail's bounds plus eps/2 times the
    value's size, for the one addition of the head's part and the tail's
    part that forms it.

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
    for x in xs:
        spec.check(x)
    # plan None where a sine series vanishes: value 0 from 1 term
    plans = [None if x == 0.0 and sine else _plan_point(a, b, sign, x) for x in xs]
    planned = [j for j, plan in enumerate(plans) if isinstance(plan, tuple)]
    heads = [plans[j][0] for j in planned]
    alphas = [s.alpha for s in specs]
    shape = (len(alphas), len(xs))
    values, errs = np.zeros(shape), np.full(shape, 1e-18)
    terms = np.ones(shape, dtype=np.int64)
    for batch in _batches(heads):
        points = planned[batch]
        ts = [xs[j] for j in points]
        head, head_err = _head_sums(a, b, sign, alphas, ts, heads[batch], sine)
        tail, tail_err, used = _tails(a, b, alphas, ts, [plans[j] for j in points], sine)
        values[:, points] = total = head + tail
        # the last term bounds the rounding of the addition that forms total
        errs[:, points] = head_err + tail_err + 0.5 * _EPS * np.abs(total)
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
    1 x 1 grid, 0.1 to 0.5 ms a point: computing many weights or points,
    a single ``direct_sum_grid`` call shares the phases, the head products
    and the tail's steps between them.
    """
    values, errs, terms, methods = direct_sum_grid(spec.family, [spec.m], [x], tol)
    return OracleReport(values[0, 0].item(), methods[0], terms[0, 0].item(), errs[0, 0].item())
