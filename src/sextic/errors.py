"""Exception types shared across the package.

Numeric failures (precision, convergence, rounding) are distinct from usage
errors so the CLI can map them to separate exit codes.
"""


class SexticError(Exception):
    """Base class for all package errors."""


class NumericFailure(SexticError):
    """Base class for failures of the arbitrary-precision machinery."""


class NonConvergence(NumericFailure):
    """Simultaneous root iteration did not reach the target residual."""


class RepeatedRootSuspected(NumericFailure):
    """Root clusters prevent certification; input is likely not squarefree."""


class NotNearInteger(NumericFailure):
    """A coefficient expected to be an integer is not close to one.

    Carries the worst offender's distance in ``distance``.
    """

    def __init__(self, distance):
        super().__init__(f"coefficient is {distance} away from the nearest integer")
        self.distance = distance


class DegenerateSextic(NumericFailure):
    """The input polynomial has a repeated root; resolvent criteria need
    distinct roots, so construction is refused."""


class FactoringExhausted(NumericFailure):
    """Integer factoring exceeded its budget; never a partial factorization.
    Reachable only from resolvents.monic_integer_rescale, on input denominators."""


class FitInconsistent(SexticError):
    """Interpolated resolvent coefficients violate the degree bounds or fail
    holdout validation."""


class NoConsistentBranch(NumericFailure):
    """The radical tower's fifth-root branches do not reproduce the quintic's roots."""


class ZeroD(SexticError):
    """The vanishing-constant-term family needs a nonzero linear coefficient."""
