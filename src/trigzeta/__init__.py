"""Closed forms of trigonometric series at singular integer orders.

Eight families of sine/cosine series whose power-series representations
break down at integer exponents are evaluated through short combinations
of Hurwitz-zeta order-derivatives, with independent brute-force oracles
for cross-validation and a verification CLI (``trigzeta``).
"""

from .closedforms import (
    ClosedFormResult,
    GeneralFormulaParams,
    SeriesSpec,
    TABLE2_ROWS,
    closed_form_eval,
    closed_form_grid,
    general_closed_form,
)
from .dirichlet import (
    SPECIAL_VALUES,
    SpecialValue,
    beta_fn,
    dirichlet_lambda,
    eta,
    riemann_zeta,
    zeta_prime_neg_even,
)
from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    TrigZetaError,
    VerificationError,
)
from .hurwitz import (
    EulerMaclaurinPlan,
    hurwitz_zeta,
    hurwitz_zeta_sderiv,
    hurwitz_zeta_sderiv_grid,
    plan_for,
)
from .oracles import OracleReport, direct_sum, direct_sum_grid

__version__ = "0.1.0"

__all__ = [
    "ClosedFormResult",
    "ConvergenceError",
    "DomainError",
    "EulerMaclaurinPlan",
    "GeneralFormulaParams",
    "OracleReport",
    "PoleError",
    "SPECIAL_VALUES",
    "SeriesSpec",
    "SpecialValue",
    "TABLE2_ROWS",
    "TrigZetaError",
    "VerificationError",
    "beta_fn",
    "choi_srivastava_grid",
    "closed_form_eval",
    "closed_form_grid",
    "dirichlet_lambda",
    "direct_sum",
    "direct_sum_grid",
    "eta",
    "general_closed_form",
    "hurwitz_zeta",
    "hurwitz_zeta_sderiv",
    "hurwitz_zeta_sderiv_grid",
    "limit_series_eval",
    "plan_for",
    "riemann_zeta",
    "zeta_prime_neg_even",
]


def __getattr__(name: str):
    # the check oracles load trigzeta.verify on first use
    if name in ("choi_srivastava_grid", "limit_series_eval"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
