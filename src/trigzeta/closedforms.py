"""Closed forms for trigonometric series with power-of-integer denominators.

Eight families are covered, indexed by three switches plus a weight m:

    alternating  -- (-1)^(n+1) sign pattern in the terms
    kind         -- sin or cos numerator
    odd_denoms   -- denominators run over 2n-1 instead of n

Each family's sum, at the integer weight where a naive term-by-term
evaluation of the underlying power series breaks down, collapses to a
short linear combination of Hurwitz-zeta order-derivatives
zeta'(s, a) = d/ds zeta(s, a) at non-positive integer order s.  The
evaluators here return both the numeric value and the exact combination
(prefactor and (coefficient, s, a) terms) so callers can audit the
reconstruction.

``closed_form_grid`` gives the same values for a grid of weights and
points.  The offsets of the zeta' terms depend on x alone, so it forms
each once for all weights and evaluates every zeta' of the grid in one
``hurwitz_zeta_sderiv_grid`` call.  ``closed_form_eval`` stays the
one-point route: it returns the decomposition, and costs less than a
one-point grid.

A single parameterised master formula reproducing the eight families
from one table of row constants is also provided; its literal T8 row
disagrees with the per-family evaluators (see ``general_closed_form``),
which is precisely what the ``table2`` verification suite reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainError
from .hurwitz import hurwitz_zeta_sderiv, hurwitz_zeta_sderiv_grid

__all__ = [
    "SeriesSpec",
    "ClosedFormResult",
    "closed_form_eval",
    "closed_form_grid",
    "GeneralFormulaParams",
    "TABLE2_ROWS",
    "general_closed_form",
]

_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2 pi - _TWO_PI
_MAX_WEIGHT = 8

# family id -> (alternating, kind, odd_denoms)
_FAMILY_SWITCHES = {
    "T1": (False, "sin", False),
    "T2": (False, "cos", False),
    "T3": (True, "sin", False),
    "T4": (True, "cos", False),
    "T5": (False, "sin", True),
    "T6": (False, "cos", True),
    "T7": (True, "sin", True),
    "T8": (True, "cos", True),
}
_SWITCHES_TO_FAMILY = {v: k for k, v in _FAMILY_SWITCHES.items()}

# Families where the singular weight has even exponent alpha = 2m; the
# remaining four have alpha = 2m-1.
_EVEN_ALPHA = {"T1", "T3", "T5", "T8"}

_INTERVALS = {
    "T1": (0.0, _TWO_PI),
    "T2": (0.0, _TWO_PI),
    "T3": (-math.pi, math.pi),
    "T4": (-math.pi, math.pi),
    "T5": (0.0, math.pi),
    "T6": (0.0, math.pi),
    "T7": (-0.5 * math.pi, 0.5 * math.pi),
    "T8": (-0.5 * math.pi, 0.5 * math.pi),
}


@dataclass(frozen=True)
class SeriesSpec:
    """One member of the eight-family catalogue at weight m.

    The series summed is

        sum_n  sign(n) * f(d(n) * x) / d(n)^alpha

    with sign(n) = (-1)^(n+1) if alternating else 1, f = sin or cos,
    d(n) = 2n-1 if odd_denominators else n, and alpha the singular
    exponent derived from m.
    """

    alternating: bool
    kind: str  # "sin" | "cos"
    odd_denominators: bool
    m: int
    # derived from the four fields above, once, in __post_init__
    family: str = field(init=False, repr=False, compare=False)
    alpha: int = field(init=False, repr=False, compare=False)
    interval: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("sin", "cos"):
            raise DomainError(f"kind must be 'sin' or 'cos', got {self.kind!r}")
        if not (1 <= self.m <= _MAX_WEIGHT):
            raise DomainError(f"weight m must lie in [1, {_MAX_WEIGHT}], got {self.m}")
        if self.m != int(self.m):
            raise DomainError(f"weight m must be an integer, got {self.m}")
        family = _SWITCHES_TO_FAMILY[(self.alternating, self.kind, self.odd_denominators)]
        alpha = 2 * self.m if family in _EVEN_ALPHA else 2 * self.m - 1
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "interval", _INTERVALS[family])

    @classmethod
    def from_family(cls, family: str, m: int) -> "SeriesSpec":
        try:
            alternating, kind, odd = _FAMILY_SWITCHES[family]
        except KeyError:
            raise DomainError(f"unknown family {family!r}") from None
        return cls(alternating, kind, odd, m)


@dataclass(frozen=True)
class ClosedFormResult:
    """Value plus the audited decomposition prefactor * sum c*zeta'(s,a)."""

    value: float
    prefactor: float
    terms: tuple[tuple[float, float, float], ...]  # (coeff, s, a)

    def reconstruct(self) -> float:
        return self.prefactor * math.fsum(
            c * hurwitz_zeta_sderiv(s, a) for c, s, a in self.terms
        )


def _validate_x(spec: SeriesSpec, x: float) -> None:
    """Reject x outside the open interval of ``spec``."""
    lo, hi = spec.interval
    margin = 1e-9 * (hi - lo)
    if not (lo + margin <= x <= hi - margin):
        raise DomainError(
            f"x={x} outside open interval ({lo}, {hi}) for family {spec.family}"
        )


def _fold(spec: SeriesSpec, x: float) -> tuple[float, float]:
    """Interval check and parity fold; returns (sign, |x|).

    Sin families are odd in x, cos families even, and the zeta'-argument
    expressions require the positive half of symmetric intervals.
    """
    _validate_x(spec, x)
    if x < 0.0:
        return (-1.0 if spec.kind == "sin" else 1.0), -x
    return 1.0, x


# family -> (prefactor base, sign offset, halving, g exponent offset or None,
#            (coefficient sign, a0, a_y) per zeta' term).  With k = alpha - 1
# the prefactor is (-1)^(alpha//2 + sign offset) base^k / (halving * k!),
# g = 2^(k + g offset) multiplies the terms with |a_y| = 1, and each term
# is evaluated at s = 1 - alpha, a = a0 + a_y * x / 2pi.
_BRACKETS = {
    "T1": (_TWO_PI, 0, 1, None, ((1, 1.0, -1), (-1, 0.0, 1))),
    "T2": (_TWO_PI, 0, 1, None, ((1, 1.0, -1), (1, 0.0, 1))),
    "T3": (math.pi, 0, 1, 0, ((1, 1.0, -1), (-1, 0.0, 1), (-1, 1.0, -2), (1, 0.0, 2))),
    "T4": (math.pi, 0, 1, 0, ((1, 1.0, -1), (1, 0.0, 1), (-1, 1.0, -2), (-1, 0.0, 2))),
    "T5": (math.pi, 0, 2, 1, ((1, 1.0, -1), (-1, 0.0, 1), (-1, 1.0, -2), (1, 0.0, 2))),
    "T6": (math.pi, 0, 2, 1, ((1, 1.0, -1), (1, 0.0, 1), (-1, 1.0, -2), (-1, 0.0, 2))),
    "T7": (_TWO_PI, 0, 2, None, ((1, 0.25, -1), (-1, 0.75, -1), (-1, 0.25, 1), (1, 0.75, 1))),
    "T8": (_TWO_PI, 1, 2, None, ((1, 0.25, -1), (-1, 0.75, -1), (1, 0.25, 1), (-1, 0.75, 1))),
}


def _offset(a0: float, a_y: float, x: float) -> float:
    """The zeta' offset a0 + a_y x / 2pi, for a_y a power of two.

    It is formed as (a0 2pi + a_y x) / 2pi with 2pi in two parts: where
    the offset vanishes at the upper end of an interval, a0 2pi + a_y x
    cancels exactly and the low part keeps the relative accuracy of the
    offset (and so of its logarithm).
    """
    return (a0 * _TWO_PI + a_y * x + a0 * _TWO_PI_LO) / _TWO_PI


def _bracket_constants(family: str, m: int) -> tuple[float, float, tuple]:
    """(prefactor, s, ((coefficient, a0, a_y) per zeta' term)) of one bracket."""
    base, sign_offset, halving, g_offset, offsets = _BRACKETS[family]
    alpha = SeriesSpec.from_family(family, m).alpha
    k = alpha - 1
    parity = (-1.0) ** (alpha // 2 + sign_offset)
    pref = parity * base**k / (halving * math.factorial(k))
    g = 1.0 if g_offset is None else 2.0 ** (k + g_offset)
    coefficients = tuple(
        (sign * (g if abs(a_y) == 1 else 1.0), a0, a_y) for sign, a0, a_y in offsets
    )
    return pref, 1.0 - alpha, coefficients


# (family, m) -> the x-independent part of its bracket
_BRACKET_CONSTANTS = {
    (family, m): _bracket_constants(family, m)
    for family in _BRACKETS
    for m in range(1, _MAX_WEIGHT + 1)
}


def _bracket_terms(spec: SeriesSpec, x: float) -> tuple[float, tuple]:
    """Prefactor and zeta'-term list for x in the positive part of the domain."""
    pref, s, coefficients = _BRACKET_CONSTANTS[spec.family, spec.m]
    return pref, tuple((c, s, _offset(a0, a_y, x)) for c, a0, a_y in coefficients)


def _t4_at_zero(m: int) -> ClosedFormResult:
    """Limit of the alternating-cosine bracket as x -> 0.

    The four zeta'-offsets collide pairwise at 0 and 1; the divergent
    logarithms cancel, leaving 2 (2^(2m-2) - 1) zeta'(2-2m) for m >= 2
    and log 2 = -2 zeta'(0, 1/2) at m = 1.
    """
    if m == 1:
        return ClosedFormResult(math.log(2.0), 1.0, ((-2.0, 0.0, 0.5),))
    pref = (-1.0) ** (m - 1) * math.pi ** (2 * m - 2) / math.factorial(2 * m - 2)
    s = 2.0 - 2 * m
    coeff = 2.0 * (2.0 ** (2 * m - 2) - 1.0)
    terms = ((coeff, s, 1.0),)
    value = pref * coeff * hurwitz_zeta_sderiv(s, 1.0)
    return ClosedFormResult(value, pref, terms)


def closed_form_eval(spec: SeriesSpec, x: float) -> ClosedFormResult:
    """Evaluate the closed form of ``spec`` at x inside its open interval."""
    sign, x = _fold(spec, x)
    if x == 0.0:
        # Only the symmetric-interval families reach 0 in the interior.
        if spec.kind == "sin":
            return ClosedFormResult(0.0, 0.0, ())
        if spec.family == "T4":
            return _t4_at_zero(spec.m)
        # T8 falls through: its zeta'-offsets stay positive at x = 0.
    pref, terms = _bracket_terms(spec, x)
    value = pref * math.fsum(c * hurwitz_zeta_sderiv(s, a) for c, s, a in terms)
    return ClosedFormResult(sign * value, sign * pref, terms)


def closed_form_grid(family: str, weights, xs) -> list[list[float]]:
    """Closed-form values of ``family`` for every weight and x.

    Returns one list per weight, in the order of ``xs``; each value is, bit
    for bit, ``closed_form_eval(spec, x).value``.  Every weight and x is
    validated first.  The offsets a0 + a_y x / 2pi do not depend on the
    weight, so each is formed once, and one kernel call evaluates zeta' at
    every (order, offset) pair.
    """
    specs = [SeriesSpec.from_family(family, m) for m in weights]
    spec = SeriesSpec.from_family(family, 1)
    folds = [_fold(spec, x) for x in xs]
    # x = 0 of a sine family (value 0) or of T4 (_t4_at_zero) has no bracket
    own_zero = spec.kind == "sin" or family == "T4"
    bracketed = [j for j, (_, x) in enumerate(folds) if x != 0.0 or not own_zero]
    terms = _BRACKETS[family][4]
    offsets = [_offset(a0, a_y, folds[j][1]) for j in bracketed for _, a0, a_y in terms]
    zetas = hurwitz_zeta_sderiv_grid([s.alpha - 1 for s in specs], offsets)
    values = []
    for s, row in zip(specs, zetas):
        pref, _, coefficients = _BRACKET_CONSTANTS[family, s.m]
        products = row.reshape(-1, len(terms)) * [c for c, _, _ in coefficients]
        at_zero = 0.0
        if family == "T4" and len(bracketed) < len(folds):
            at_zero = _t4_at_zero(s.m).value
        row_values = [at_zero] * len(folds)
        for j, point in zip(bracketed, products.tolist()):
            row_values[j] = folds[j][0] * (pref * math.fsum(point))
        values.append(row_values)
    return values


@dataclass(frozen=True)
class GeneralFormulaParams:
    """Row constants of the parameterised master formula.

    ``r`` and ``k`` are affine in m and stored as (constant, m-coefficient)
    pairs; ``c`` is None on the two rows whose j = 0 drops the terms that
    would use it.
    """

    family: str
    a: int
    b: int
    sign: int  # +1 non-alternating, -1 alternating
    kind: str
    p: int
    r: tuple[float, float]
    c: Optional[float]
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

_ROW_BY_FAMILY = {row.family: row for row in TABLE2_ROWS}


def general_closed_form(family: str, m: int, x: float) -> float:
    """Literal evaluation of the parameterised master formula.

    For seven of the eight rows this agrees with ``closed_form_eval`` to
    rounding.  Row T8, read literally, does not: its sign/offset
    combination makes its bracket vanish identically at x = 0 where the
    series does not.  The verification CLI reports it as a deviation.
    """
    row = _ROW_BY_FAMILY.get(family)
    if row is None:
        raise DomainError(f"unknown family {family!r}")
    sign, x = _fold(SeriesSpec.from_family(family, m), x)
    if x == 0.0 and row.kind == "sin":
        return 0.0
    if x == 0.0 and family == "T4":
        return _t4_at_zero(m).value
    p = row.p
    r = row.r[0] + row.r[1] * m
    k = row.k[0] + row.k[1] * m
    s = 2.0 - p - 2.0 * m
    pref = (
        (-1.0) ** (m + p - 1)
        * math.pi ** (2 * m + p - 2)
        * 2.0 ** (2 * m + r - 2)
        / math.factorial(2 * m + p - 2)
    )
    g = 2.0 ** (2.0 * k - 2.0)
    # offsets q - y, 1 - q + y, 1 - q - u, q + u with y = x/2pi and
    # u = x/(2c pi) = (x/c)/2pi; every c is a power of two
    bracket = g * hurwitz_zeta_sderiv(s, _offset(row.q, -1.0, x))
    bracket += g * row.delta * hurwitz_zeta_sderiv(s, _offset(1.0 - row.q, 1.0, x))
    if row.j != 0:
        extra = hurwitz_zeta_sderiv(s, _offset(1.0 - row.q, -1.0 / row.c, x))
        extra += row.delta * hurwitz_zeta_sderiv(s, _offset(row.q, 1.0 / row.c, x))
        bracket -= row.j * extra
    return sign * pref * bracket
