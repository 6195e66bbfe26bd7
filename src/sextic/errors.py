"""Exception types shared across the package.

Numeric failures (precision, convergence, rounding) are distinct from usage
errors so the CLI can map them to separate exit codes.
"""


class SexticError(Exception):
    """Base class for all package errors."""


class NumericFailure(SexticError):
    """Base class for failures of the arbitrary-precision machinery."""


class NonConvergence(NumericFailure):
    """Complex root finding (roots.find_roots) failed: mpmath's polyroots ran
    out of steps, or the certified error radius misses its target."""


class RepeatedRootSuspected(NumericFailure):
    """The derivative vanishes, within rounding, at a polished root, so no
    error radius can be certified; the input likely has a repeated root."""


class NotNearInteger(NumericFailure):
    """Values expected to give integers do not: a lifted root has no
    conjugate among the roots (resolvents.resolvent_from_roots), or a complex
    coefficient misses every integer by more than the tolerance (the tests'
    oracle)."""


class DegenerateSextic(NumericFailure):
    """The input polynomial has a repeated root; resolvent criteria need
    distinct roots, so construction is refused."""


class FactoringExhausted(NumericFailure):
    """Integer factoring (exact.factorize) exceeded its budget; never a
    partial factorization. The decision pipeline does not factor, so no
    subcommand raises it."""


class FitInconsistent(SexticError):
    """Interpolated resolvent coefficients violate the degree bounds or fail
    holdout validation."""


class NoConsistentBranch(NumericFailure):
    """The radical tower's fifth-root branches do not reproduce the quintic's roots."""


class ZeroD(SexticError):
    """The vanishing-constant-term family needs a nonzero linear coefficient."""
