"""Closed forms for trigonometric series with power-of-integer denominators.

Eight families are covered, each a series

    sum_n sign^(n-1) f((an-b)x) / (an-b)^(2m+p-1),   f = sin or cos,

catalogued once, as ``SERIES``, and taken at a weight m by
``SeriesSpec.from_family``; ``SeriesSpec.check`` is the one check that x
lies inside a series' open interval.  The oracles sum these series at
the signed x; the closed forms read only the brackets below, at |x|
folded by parity (``_fold``).

Each family's sum, at the integer weight where a naive term-by-term
evaluation of the underlying power series breaks down, collapses to a
short linear combination of Hurwitz-zeta order-derivatives
zeta'(s, a) = d/ds zeta(s, a) at non-positive integer order s.  The
evaluators here return both the numeric value and the exact combination
(prefactor and (coefficient, s, a) terms) so callers can audit the
reconstruction.

One table describes all eight brackets: the paper's master formula with
the row constants of its Table II (``TABLE2_ROWS``), corrected by
``ERRATA``.  The one erratum is row T8, which read literally gives a
bracket that vanishes at x = 0 where the series does not; it needs
j = +1 and the opposite overall sign.  ``closed_form_eval`` reads the
corrected table; ``general_closed_form`` reads the same rows literally,
through the same evaluator.  The ``table2`` verification suite reports
where the two readings differ.  Table II feeds only the brackets, zeta'
orders included: its a, b, sign and kind columns are kept as printed,
and the tests hold them, with its p, to ``SERIES``.

``closed_form_grid`` gives the same values for a grid of weights and
points, as a (weights, points) array.  The offsets of the zeta' terms
depend on x alone, so it forms each once for all weights and evaluates
every zeta' of the grid in one ``hurwitz_zeta_sderiv_grid`` call.  It is
the one-reading call of ``_bracket_grid``, which takes a list of
readings, each a table (the corrected one, or the literal one for the
``table2`` suite), a family and its points.  Readings whose brackets read
the same zeta' orders share one kernel call over their offsets laid end
to end, so the ``table2`` suite's eight rows and T8's literal reading take
two: orders 0, 2, .., 14 (p = 0) and 1, 3, .., 15 (p = 1).
``closed_form_eval`` stays the one-point route: it returns the
decomposition and costs less than a one-point grid.  ``oracle_gate`` is
the one test of the closed forms against the summation oracle, read by
``compare``, ``sweep`` and the ``table2`` suite.

At x = 0 the brackets of the sine families T3 and T7 vanish and T4's
offsets collide pairwise, so both routes return those families' x = 0
value (``_at_zero``) below the folded |x| that ``_ZERO_BELOW`` gives
each: where x/2pi is subnormal for T3 and T7, and below 1e-8 for T4,
whose bracket loses digits as eps |log x| there.  T8's offsets stay
positive at x = 0, so it takes its bracket everywhere.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .hurwitz import _MAX_WEIGHT, hurwitz_zeta_sderiv, hurwitz_zeta_sderiv_grid

__all__ = [
    "SeriesSpec",
    "ClosedFormResult",
    "closed_form_eval",
    "closed_form_grid",
    "grid_points",
    "GeneralFormulaParams",
    "TABLE2_ROWS",
    "general_closed_form",
]

_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - _TWO_PI
MAX_GRID = 10_000  # most points of a grid_points grid
# Below this folded x, x/2pi is subnormal: the offsets y and 2y round to 0,
# or to one value whose logarithms cancel
_ZERO_X = _TWO_PI * 2.0**-1022
# family -> the folded |x| below which both closed-form routes return its
# x = 0 value (``_at_zero``).  The sine families are O(x), so 0 is within
# an ulp there.  T4(x) - T4(0) = -(x^2/2) eta(2m - 3) + O(x^4), so below
# 1e-8 T4's limit is within 0.45 eps (1 + |value|) of the series, while its
# bracket, whose logarithms cancel there, is up to 156 eps off at m = 1.
_ZERO_BELOW = {"T3": _ZERO_X, "T4": 1e-8, "T7": _ZERO_X}


class GeneralFormulaParams(NamedTuple):
    """Row constants of the parameterised master formula.

    The series is sum_n sign^(n-1) f((an-b)x)/(an-b)^alpha with f = sin or
    cos (``kind``) and alpha = 2m + p - 1.  ``r`` and ``k`` are affine in m
    and stored as (constant, m-coefficient) pairs; ``c`` is None on the two
    rows whose j = 0 drops the terms that would use it.
    """

    family: str
    a: int
    b: int
    sign: int  # +1 non-alternating, -1 alternating
    kind: str
    p: int
    r: tuple[float, float]
    c: float | None
    delta: int
    q: float
    k: tuple[float, float]
    j: int


TABLE2_ROWS: tuple[GeneralFormulaParams, ...] = (
    GeneralFormulaParams("T1", 1, 0, 1, "sin", 1, (1.0, 0.0), None, -1, 1.0, (1.0, 0.0), 0),
    GeneralFormulaParams("T2", 1, 0, 1, "cos", 0, (0.0, 0.0), None, 1, 1.0, (1.0, 0.0), 0),
    GeneralFormulaParams("T3", 1, 0, -1, "sin", 1, (2.0, -2.0), -0.5, -1, 1.0, (0.5, 1.0), -1),
    GeneralFormulaParams("T4", 1, 0, -1, "cos", 0, (2.0, -2.0), -0.5, 1, 1.0, (0.0, 1.0), 1),
    GeneralFormulaParams("T5", 2, 1, 1, "sin", 1, (1.0, -2.0), -0.5, -1, 1.0, (1.0, 1.0), -1),
    GeneralFormulaParams("T6", 2, 1, 1, "cos", 0, (1.0, -2.0), -0.5, 1, 1.0, (0.5, 1.0), 1),
    GeneralFormulaParams("T7", 2, 1, -1, "sin", 0, (-1.0, 0.0), 1.0, 1, 0.25, (1.0, 0.0), 1),
    GeneralFormulaParams("T8", 2, 1, -1, "cos", 1, (0.0, 0.0), 1.0, -1, 0.25, (1.0, 0.0), -1),
)

# family -> the Table II fields that reconcile its row with the series, and
# their values; the overall ``sign`` multiplies the prefactor
ERRATA = {"T8": {"j": 1, "sign": -1}}

# family -> (kind, sign, a, b, p): the series
#     sum_n sign^(n-1) f((an-b)x) / (an-b)^(2m+p-1),  f = sin or cos (kind)
SERIES = {
    "T1": ("sin", 1, 1, 0, 1),
    "T2": ("cos", 1, 1, 0, 0),
    "T3": ("sin", -1, 1, 0, 1),
    "T4": ("cos", -1, 1, 0, 0),
    "T5": ("sin", 1, 2, 1, 1),
    "T6": ("cos", 1, 2, 1, 0),
    "T7": ("sin", -1, 2, 1, 0),
    "T8": ("cos", -1, 2, 1, 1),
}


class SeriesSpec(NamedTuple):
    """One ``SERIES`` entry at weight m: the series

        sum_n  sign^(n-1) f((an-b)x) / (an-b)^alpha,   alpha = 2m + p - 1,

    with f = sin or cos (``kind``), on its open ``interval``.  Build it
    with ``from_family``.
    """

    family: str
    m: int
    kind: str  # "sin" | "cos"
    sign: int  # +1, or -1 for the alternating series
    a: int
    b: int
    alpha: int
    interval: tuple[float, float]

    @classmethod
    def from_family(cls, family: str, m: int) -> "SeriesSpec":
        series = SERIES.get(family)
        if series is None:
            raise DomainError(f"unknown family {family!r}")
        if not (1 <= m <= _MAX_WEIGHT):
            raise DomainError(f"weight m must lie in [1, {_MAX_WEIGHT}], got {m}")
        if m != int(m):
            raise DomainError(f"weight m must be an integer, got {m}")
        kind, sign, a, b, p = series
        # between consecutive zeros of 1 - sign e^{iax}, where the series is singular
        hi = _TWO_PI / (a * (2 if sign < 0 else 1))
        return cls(family, m, kind, sign, a, b, 2 * m + p - 1, (-hi if sign < 0 else 0.0, hi))

    def check(self, x: float) -> None:
        """Raise ``DomainError`` unless x lies inside the open ``interval``.

        x must keep 1e-9 of the interval's length from either end.
        """
        lo, hi = self.interval
        margin = 1e-9 * (hi - lo)
        if not (lo + margin <= x <= hi - margin):
            raise DomainError(f"x={x} outside open interval ({lo}, {hi}) for family {self.family}")


def grid_points(family: str, count: int) -> list[float]:
    """count interior points with a 5% endpoint offset on each side."""
    lo, hi = SeriesSpec.from_family(family, 1).interval
    if not 1 <= count <= MAX_GRID:
        raise DomainError(f"grid count must lie in [1, {MAX_GRID}], got {count}")
    if count != int(count):
        raise DomainError(f"grid count must be an integer, got {count}")
    count = int(count)
    if count == 1:
        return [lo + 0.5 * (hi - lo)]
    return [lo + (0.05 + 0.9 * i / (count - 1)) * (hi - lo) for i in range(count)]


class ClosedFormResult(NamedTuple):
    """Value plus the audited decomposition prefactor * sum c*zeta'(s,a)."""

    value: float
    prefactor: float
    terms: tuple[tuple[float, float, float], ...]  # (coeff, s, a)
    zeta_sderivs: tuple[float, ...]  # zeta'(s, a) per term, in term order


def _fold(spec: SeriesSpec, x: float) -> tuple[float, float]:
    """The brackets' parity fold of x, after ``spec.check``; returns (sign, |x|).

    Sin families are odd in x, cos families even.  The brackets' zeta'
    offsets are valid only on the positive half of a symmetric interval,
    so they are read at |x| and their value multiplied by the sign.  The
    oracle and the singular-limit series (``verify._limit_grid``) take x's
    sign themselves.
    """
    spec.check(x)
    if x < 0.0:
        return (-1.0 if spec.kind == "sin" else 1.0), -x
    return 1.0, x


def _offset(a0: float, a_y: float, x: float) -> float:
    """The zeta' offset a0 + a_y x / 2pi, for a_y a power of two.

    It is formed as (a0 2pi + a_y x) / 2pi with 2pi in two parts: where
    the offset vanishes at the upper end of an interval, a0 2pi + a_y x
    cancels exactly and the low part keeps the relative accuracy of the
    offset (and so of its logarithm).
    """
    return (a0 * _TWO_PI + a_y * x + a0 * _TWO_PI_LO) / _TWO_PI


def _bracket_constants(row: GeneralFormulaParams, m: int, j: int, sign: int) -> tuple:
    """(prefactor, s, ((coefficient, a0, a_y) per zeta' term)) of one row at m.

    The master formula, with K = 2m + p - 2, r and k read at m, and
    g = 2^(2k-2), is

        sign (-1)^(m+p-1) pi^K 2^(2m+r-2) / K!
          * [g zeta'(s, q - y) + g delta zeta'(s, 1 - q + y)
             - j (zeta'(s, 1 - q - y/c) + delta zeta'(s, q + y/c))]

    at s = 2 - p - 2m and y = x/2pi; j = 0 drops the last two terms.  Each
    offset is a0 + a_y y, and the terms are ordered by (|a_y|, a_y, a0).
    """
    p = row.p
    order = 2 * m + p - 2
    r = row.r[0] + row.r[1] * m
    g = 2.0 ** (2.0 * (row.k[0] + row.k[1] * m) - 2.0)
    pref = (
        sign * (-1.0) ** (m + p - 1) * math.pi**order * 2.0 ** (2 * m + r - 2)
        / math.factorial(order)
    )
    terms = [(g, row.q, -1.0), (g * row.delta, 1.0 - row.q, 1.0)]
    if j:
        u = 1.0 / row.c
        terms += [(float(-j), 1.0 - row.q, -u), (float(-j * row.delta), row.q, u)]
    terms.sort(key=lambda term: (abs(term[2]), term[2], term[1]))
    return pref, 2.0 - p - 2 * m, tuple(terms)


def _constants_table(errata: dict) -> dict:
    """(family, m) -> the x-independent part of its bracket, errata applied."""
    table = {}
    for row in TABLE2_ROWS:
        fix = errata.get(row.family, {})
        for m in range(1, _MAX_WEIGHT + 1):
            table[row.family, m] = _bracket_constants(
                row, m, fix.get("j", row.j), fix.get("sign", 1)
            )
    return table


_BRACKET_CONSTANTS = _constants_table(ERRATA)
_LITERAL_CONSTANTS = _constants_table({})


def _at_zero(spec: SeriesSpec) -> ClosedFormResult:
    """The x = 0 value of a ``_ZERO_BELOW`` family: 0 for a sine series, else T4's.

    T4's four zeta'-offsets collide pairwise at 0 and 1; the divergent
    logarithms cancel, leaving 2 (2^(2m-2) - 1) zeta'(2-2m) for m >= 2
    and log 2 = -2 zeta'(0, 1/2) at m = 1, where the value is ``math.log(2)``
    and the one zeta' is carried for the decomposition.
    """
    if spec.kind == "sin":
        return ClosedFormResult(0.0, 0.0, (), ())
    m = spec.m
    pref = (-1.0) ** (m - 1) * math.pi ** (2 * m - 2) / math.factorial(2 * m - 2)
    s = 2.0 - 2 * m
    coeff, a = (2.0 * (2.0 ** (2 * m - 2) - 1.0), 1.0) if m > 1 else (-2.0, 0.5)
    zeta = hurwitz_zeta_sderiv(s, a)
    value = pref * coeff * zeta if m > 1 else math.log(2.0)
    return ClosedFormResult(value, pref, ((coeff, s, a),), (zeta,))


def _bracket_eval(constants: dict, spec: SeriesSpec, x: float) -> ClosedFormResult:
    """The bracket of ``spec`` read from ``constants``, at x inside its interval."""
    sign, x = _fold(spec, x)
    if x < _ZERO_BELOW.get(spec.family, 0.0):
        return _at_zero(spec)
    pref, s, coefficients = constants[spec.family, spec.m]
    terms = tuple((c, s, _offset(a0, a_y, x)) for c, a0, a_y in coefficients)
    zetas = tuple(hurwitz_zeta_sderiv(s, a) for _, s, a in terms)
    value = pref * math.fsum(c * zeta for (c, _, _), zeta in zip(terms, zetas))
    return ClosedFormResult(sign * value, sign * pref, terms, zetas)


def closed_form_eval(spec: SeriesSpec, x: float) -> ClosedFormResult:
    """Evaluate the closed form of ``spec`` at x inside its open interval."""
    return _bracket_eval(_BRACKET_CONSTANTS, spec, x)


def _bracket_grid(readings, weights) -> list[np.ndarray]:
    """``closed_form_grid`` of each reading (constants, family, xs).

    Returns a (weights, points) array per reading, in reading order, with
    the brackets of ``family`` read from ``constants``; each value is, bit
    for bit, ``_bracket_eval(constants, spec, x).value``.  Every reading is
    validated before any kernel call.  The points below the family's
    ``_ZERO_BELOW`` bound take one ``_at_zero`` value per weight; for the
    rest the offsets are formed once for all weights.  Readings whose
    brackets read the same zeta' orders share one kernel call over their
    offsets laid end to end, each reading's in its own columns.  A kernel
    entry does not depend on the other offsets, so each value is the one a
    one-reading call gives.
    """
    import numpy as np

    weights = list(weights)
    plans = []
    groups = {}  # zeta' orders -> offsets laid end to end
    for constants, family, xs in readings:
        specs = [SeriesSpec.from_family(family, m) for m in weights]
        spec = SeriesSpec.from_family(family, 1)
        folds = [_fold(spec, x) for x in xs]
        below = _ZERO_BELOW.get(family, 0.0)
        zeros = [j for j, (_, x) in enumerate(folds) if x < below]
        bracketed = [j for j, (_, x) in enumerate(folds) if x >= below]
        terms = constants[family, 1][2]  # (a0, a_y) do not depend on the weight
        offsets = [_offset(a0, a_y, folds[j][1]) for j in bracketed for _, a0, a_y in terms]
        entries = [constants[family, m] for m in weights]
        orders = tuple(-order for _, order, _ in entries)
        laid = groups.setdefault(orders, [])
        plans.append((specs, folds, zeros, bracketed, len(terms), entries, orders,
                      slice(len(laid), len(laid) + len(offsets))))
        laid += offsets
    zetas = {orders: hurwitz_zeta_sderiv_grid(orders, laid) for orders, laid in groups.items()}
    grids = []
    for specs, folds, zeros, bracketed, width, entries, orders, columns in plans:
        block = zetas[orders][:, columns]
        values = np.empty((len(specs), len(folds)))
        for w, (s, (pref, _, coefficients), row) in enumerate(zip(specs, entries, block)):
            products = row.reshape(-1, width) * [c for c, _, _ in coefficients]
            if zeros:
                values[w, zeros] = _at_zero(s).value
            values[w, bracketed] = [
                folds[j][0] * (pref * math.fsum(point))
                for j, point in zip(bracketed, products.tolist())
            ]
        grids.append(values)
    return grids


def closed_form_grid(family: str, weights, xs) -> np.ndarray:
    """Closed-form values of ``family`` for every weight and x.

    Returns an array of shape (weights, points), a row per weight in the
    order of ``xs``; each value is, bit for bit,
    ``closed_form_eval(spec, x).value``.  Every weight and x is validated
    first.  The offsets a0 + a_y x / 2pi do not depend on the weight, so
    each is formed once, and one kernel call evaluates zeta' at every
    (order, offset) pair.  It is the one-reading call of ``_bracket_grid``.
    """
    return _bracket_grid([(_BRACKET_CONSTANTS, family, xs)], weights)[0]


def general_closed_form(family: str, m: int, x: float) -> float:
    """Literal evaluation of the parameterised master formula.

    The Table II rows read without ``ERRATA``, through the evaluator of
    ``closed_form_eval``: rows T1..T7 give its values bit for bit.  Row
    T8, read literally, does not: its sign/offset combination makes its
    bracket vanish identically at x = 0 where the series does not.  The
    verification CLI reports it as a deviation, with the erratum fields
    that reconcile it.
    """
    return _bracket_eval(_LITERAL_CONSTANTS, SeriesSpec.from_family(family, m), x).value


# est_closed per unit of 1 + |closed form|: about twice the closed forms'
# worst error on tests/reference.json, 8.17 eps, though T3 and T5 read up
# to 12.5 eps within 5% of x = +-pi, off every CLI grid
CLOSED_FORM_EST = 16.0 * math.ulp(1.0)


def oracle_gate(family: str, weights, xs, closed, oracle, est_oracle) -> str | None:
    """The first entry where the closed form misses the oracle, or None.

    ``closed``, ``oracle`` and the oracle's ``est_oracle`` are arrays of
    shape (weights, points).  Every entry must satisfy

        |closed - oracle| <= est_oracle + est_closed,
        est_closed = CLOSED_FORM_EST (1 + |closed|),

    and a gap that is not finite fails.  The message names the first
    failing entry in weight-major, x-minor order, the oracle's refusal
    order: its family, m and x, the gap and both estimates.
    """
    import numpy as np

    gaps = np.abs(closed - oracle)
    est_closed = CLOSED_FORM_EST * (1.0 + np.abs(closed))
    failed = ~np.isfinite(gaps) | (gaps > est_oracle + est_closed)
    if not failed.any():
        return None
    w, j = divmod(int(failed.argmax()), len(xs))
    return (f"{family} m={weights[w]} x={xs[j]!r}: |closed - oracle| {gaps[w, j]:.3e} exceeds "
            f"est_oracle {est_oracle[w, j]:.3e} + est_closed {est_closed[w, j]:.3e}")
