"""Exception hierarchy shared by every trigzeta module.

Exit-code mapping used by the CLI: domain errors -> 2, convergence
errors -> 3, verification failures -> 4.
"""


class TrigZetaError(Exception):
    """Base class for all trigzeta errors."""

    exit_code = 1


class DomainError(TrigZetaError):
    """Argument outside the mathematical domain of an operation."""

    exit_code = 2


class PoleError(DomainError):
    """Evaluation requested at a pole."""


class ConvergenceError(TrigZetaError):
    """An iterative/summation procedure hit its cap before reaching tolerance.

    The message says why; ``best_value`` carries the estimate refused, or
    None where none was formed.
    """

    exit_code = 3

    def __init__(self, message, best_value=None):
        super().__init__(message)
        self.best_value = best_value


class VerificationError(TrigZetaError):
    """A verification suite or comparison exceeded its tolerance."""

    exit_code = 4
