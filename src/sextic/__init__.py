"""Solvability-by-radicals tooling for sextic trinomial-plus equations
(x^6 + x^2 + d*x + e) and Bring-Jerrard quintics (x^5 + a*x + b)."""

from .classify import (
    ClassificationReport,
    GroupBound,
    Solvable,
    classify,
    vanishing_constant_family,
    is_irreducible,
)
from .exact import (
    Rat,
    RatPoly,
    is_rational_square,
    poly_divide_exact,
    poly_eval,
    rational_roots,
    resultant,
)
from .quintic import (
    QuinticParams,
    QuinticRadicals,
    ab_from_params,
    params_from_ab,
    radical_roots,
    search_quintics,
)
from .resolvents import (
    ReconstructionReport,
    ReducedSextic,
    ResolventKind,
    discriminant_exact,
    discriminant_reduced,
    f_reduced,
    f_verified,
    g_reduced,
    g_verified,
    reconstruct_reduced,
    resolvents_exact,
)

__all__ = [
    "ClassificationReport",
    "GroupBound",
    "QuinticParams",
    "QuinticRadicals",
    "Rat",
    "RatPoly",
    "ReconstructionReport",
    "ReducedSextic",
    "ResolventKind",
    "Solvable",
    "ab_from_params",
    "classify",
    "discriminant_exact",
    "discriminant_reduced",
    "vanishing_constant_family",
    "f_reduced",
    "f_verified",
    "g_reduced",
    "g_verified",
    "is_irreducible",
    "is_rational_square",
    "params_from_ab",
    "poly_divide_exact",
    "poly_eval",
    "radical_roots",
    "rational_roots",
    "reconstruct_reduced",
    "resolvents_exact",
    "resultant",
    "search_quintics",
]
