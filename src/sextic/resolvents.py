"""Resolvent polynomials for the reduced sextic x^6 + x^2 + d*x + e.

Three construction routes, reconciled against each other:

* reference closed forms: the degree-15 and degree-10 coefficient tables
  transcribed verbatim from the source material (f_reduced, g_reduced),
  kept exactly as transcribed, typos included, so they can be audited;
* a from-the-roots numeric oracle for arbitrary squarefree sextics
  (resolvent_numeric), which finds the roots to certified precision,
  evaluates the full invariant orbit, expands the product and rounds the
  coefficients to integers;
* an interpolation reconstruction (reconstruct_reduced) that re-derives
  the closed-form tables from oracle samples and diffs them term by term
  against the transcription.

The reconstruction is the authority when the routes disagree; verified
tables (f_verified, g_verified) carry its output and are what the
classification pipeline consumes. Discrepancies are reported, never
silently patched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath as mp

from .errors import (
    DegenerateSextic,
    FitInconsistent,
    NonConvergence,
    NotNearInteger,
    PrecisionExhausted,
    RepeatedRootSuspected,
)
from .exact import IntPoly, RatPoly, factorize, resultant
from .groups import MATCHING_INVARIANT, PARTITION_INVARIANT, eval_monomial_sum, orbit
from .roots import (
    PRECISION_CAP,
    PRECISION_START,
    expand_from_roots,
    find_roots,
    precision_ladder,
    round_to_int_poly,
)

# d enters with weight 5 and e with weight 6 (they stand in for the degree-5
# and degree-6 elementary symmetric functions of the roots).
D_WEIGHT, E_WEIGHT = 5, 6


@dataclass(frozen=True)
class ReducedSextic:
    """The trinomial-plus sextic x^6 + x^2 + d*x + e."""

    d: Fraction
    e: Fraction

    def __init__(self, d, e):
        object.__setattr__(self, "d", Fraction(d))
        object.__setattr__(self, "e", Fraction(e))

    def to_poly(self) -> RatPoly:
        return RatPoly([self.e, self.d, 1, 0, 0, 0, 1])


class ResolventKind(Enum):
    """Which invariant orbit the resolvent is built from."""

    MATCHING = "matching"  # degree-8 invariant, 15 conjugates
    PARTITION = "partition"  # degree-4 invariant, 10 conjugates

    @property
    def degree(self) -> int:
        return 15 if self is ResolventKind.MATCHING else 10

    @property
    def invariant(self):
        return MATCHING_INVARIANT if self is ResolventKind.MATCHING else PARTITION_INVARIANT

    @property
    def weight(self) -> int:
        """Total degree of the invariant in the roots."""
        return 8 if self is ResolventKind.MATCHING else 4


# ---------------------------------------------------------------------------
# reference closed forms (verbatim transcription; audited by reconstruct)
# ---------------------------------------------------------------------------

# coefficient of x^power = sum over (i, j) of A * d^i * e^j
F_REFERENCE_TABLE = {
    15: {(0, 0): 1},
    13: {(0, 2): -6},
    12: {(0, 4): -42, (0, 3): -3},
    11: {(0, 4): 7},
    10: {(0, 6): 222, (2, 5): -21},
    9: {(0, 8): 453, (0, 7): 57, (0, 6): 8},
    8: {(0, 8): -340, (2, 7): 109},
    # the transcription shows no e-power on the x^7 coefficient, unlike all
    # of its neighbours; reconstruct_reduced arbitrates (see f_verified)
    7: {(0, 2): -1716, (2, 1): 288, (0, 0): -17},
    6: {(0, 12): -1232, (0, 10): 300, (2, 9): -144},
    5: {(0, 12): 1534, (2, 11): 538, (4, 10): -353, (0, 10): 2},
    4: {(0, 14): 2592, (2, 13): -96, (0, 12): -258, (2, 11): 48},
    3: {(0, 16): -1728, (0, 14): -1012, (2, 13): 284, (4, 12): -94, (0, 12): 9},
    2: {(0, 16): 432, (2, 15): -2160, (4, 14): 792, (0, 14): 118, (2, 13): 5},
    1: {(2, 17): 1296, (0, 16): -27, (2, 15): 138, (4, 14): -60, (0, 14): -4},
    0: {(4, 16): 144, (6, 15): -32, (2, 15): -3},
}

G_REFERENCE_TABLE = {
    10: {(0, 0): 1},
    9: {(0, 0): 4},
    8: {(0, 0): 6},
    7: {(0, 2): -66, (0, 0): 4},
    6: {(0, 2): -324, (2, 1): 58, (0, 0): 1},
    5: {(0, 2): -642, (2, 1): 192, (4, 0): -11},
    4: {(0, 4): 129, (0, 2): -640, (2, 1): 246, (4, 0): -22},
    3: {(0, 4): 384, (2, 3): -74, (0, 2): -320, (2, 1): 144, (4, 0): -16},
    2: {(0, 4): 384, (2, 3): -108, (4, 2): 4, (0, 2): -64, (2, 1): 32, (4, 0): -4},
    1: {(0, 6): -64, (0, 4): 128, (2, 3): 32, (4, 2): -40, (6, 1): 6},
    0: {(0, 6): -64, (2, 5): 16, (2, 3): 64, (4, 2): -48, (6, 1): 12, (8, 0): -1},
}

# The degree-15 table re-derived by reconstruct_reduced and validated on
# holdout points (kept frozen here so classification does not pay the
# reconstruction cost). It differs from the transcription in four places:
# the x^7 coefficient carries the e^8 factor its neighbours have, the x^9
# and x^12 coefficients lose one spurious term each, and the constant term
# is negated (same vanishing locus, so the vanishing-constant family is
# unaffected). A slow test recomputes this table from scratch.
F_VERIFIED_TABLE = {
    15: {(0, 0): 1},
    13: {(0, 2): -6},
    12: {(0, 4): -42},
    11: {(0, 4): 7},
    10: {(0, 6): 222, (2, 5): -21},
    9: {(0, 8): 453, (0, 6): 8},
    8: {(0, 8): -340, (2, 7): 109},
    7: {(0, 10): -1716, (2, 9): 288, (0, 8): -17},
    6: {(0, 12): -1232, (0, 10): 300, (2, 9): -144},
    5: {(0, 12): 1534, (2, 11): 538, (4, 10): -353, (0, 10): 2},
    4: {(0, 14): 2592, (2, 13): -96, (0, 12): -258, (2, 11): 48},
    3: {(0, 16): -1728, (0, 14): -1012, (2, 13): 284, (4, 12): -94, (0, 12): 9},
    2: {(0, 16): 432, (2, 15): -2160, (4, 14): 792, (0, 14): 118, (2, 13): 5},
    1: {(2, 17): 1296, (0, 16): -27, (2, 15): 138, (4, 14): -60, (0, 14): -4},
    0: {(4, 16): -144, (6, 15): 32, (2, 15): 3},
}

# the degree-10 transcription is confirmed term for term
G_VERIFIED_TABLE = G_REFERENCE_TABLE

# Δ-style discriminant of the reduced sextic, transcribed verbatim; equals
# the product over ordered root pairs, i.e. MINUS the conventional
# squared-difference discriminant (empirical sign relation pinned in tests).
_DISC_TABLE = {
    (0, 5): 46656,
    (0, 3): 13824,
    (2, 2): -43200,
    (4, 1): 22500,
    (0, 1): 1024,
    (6, 0): -3125,
    (2, 0): -256,
}


def _eval_table(table: dict, d: Fraction, e: Fraction, degree: int) -> RatPoly:
    coeffs = [Fraction(0)] * (degree + 1)
    for power, terms in table.items():
        coeffs[power] = sum((c * d**i * e**j for (i, j), c in terms.items()), Fraction(0))
    return RatPoly(coeffs)


def f_reduced(s: ReducedSextic) -> RatPoly:
    """Reference degree-15 matching resolvent, exactly as transcribed."""
    return _eval_table(F_REFERENCE_TABLE, s.d, s.e, 15)


def g_reduced(s: ReducedSextic) -> RatPoly:
    """Reference degree-10 partition resolvent, exactly as transcribed."""
    return _eval_table(G_REFERENCE_TABLE, s.d, s.e, 10)


def f_verified(s: ReducedSextic) -> RatPoly:
    """Degree-15 matching resolvent from the audited coefficient table."""
    return _eval_table(F_VERIFIED_TABLE, s.d, s.e, 15)


def g_verified(s: ReducedSextic) -> RatPoly:
    """Degree-10 partition resolvent from the audited coefficient table."""
    return _eval_table(G_VERIFIED_TABLE, s.d, s.e, 10)


def discriminant_reduced(s: ReducedSextic) -> Fraction:
    """Reference discriminant formula for x^6 + x^2 + d*x + e."""
    d, e = s.d, s.e
    return sum((c * d**i * e**j for (i, j), c in _DISC_TABLE.items()), Fraction(0))


def discriminant_exact(p: RatPoly) -> Fraction:
    """Conventional discriminant (-1)^(n(n-1)/2) * Res(p, p') / lc(p)."""
    n = p.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.leading()


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


def monic_integer_rescale(p: RatPoly) -> tuple[RatPoly, int]:
    """Smallest integer m such that q(y) = m^n p(y/m) has integer
    coefficients for monic p; returns (q, m)."""
    n = p.degree
    m_factors: dict = {}
    for j, c in enumerate(p.coeffs[:-1]):
        for prime, a in factorize(c.denominator).items():
            need = -(-a // (n - j))  # ceil
            m_factors[prime] = max(m_factors.get(prime, 0), need)
    m = 1
    for prime, a in m_factors.items():
        m *= prime**a
    q = RatPoly([c * Fraction(m) ** (n - j) for j, c in enumerate(p.coeffs)])
    return q, m


def resolvent_from_roots(roots, kind: ResolventKind, tolerance) -> IntPoly:
    """Expand the invariant-orbit product over the given six roots and round
    to an integer polynomial."""
    values = [eval_monomial_sum(m, roots) for m, _ in orbit(kind.invariant)]
    coeffs = expand_from_roots(values)
    return round_to_int_poly(coeffs, tolerance)


def resolvent_numeric(p: RatPoly, kind: ResolventKind, precision: int = PRECISION_START) -> IntPoly:
    """Integer resolvent of the monic-integer rescaling of p.

    p must be a squarefree degree-6 polynomial (checked exactly); the result
    is the resolvent of q(y) = m^6 p(y/m) for the smallest usable m, whose
    rational roots are in bijection with those of the resolvent of p.
    Walks the precision ladder on rounding or convergence failures.
    """
    poly, _ = _numeric_prepare(p)
    return _resolvent_scaled(poly, kind, precision)


def resolvent_numeric_in_frame(
    p: RatPoly, kind: ResolventKind, precision: int = PRECISION_START
) -> RatPoly:
    """Resolvent of p itself (rational coefficients): the rescaled integer
    resolvent mapped back through x -> m^weight x."""
    poly, m = _numeric_prepare(p)
    res = _resolvent_scaled(poly, kind, precision).to_rat()
    if m == 1:
        return res
    return res.substitute_scaled(Fraction(m) ** kind.weight).scale(
        Fraction(1, m ** (kind.weight * kind.degree))
    )


def _numeric_prepare(p: RatPoly) -> tuple[RatPoly, int]:
    if p.degree != 6:
        raise ValueError("resolvent construction expects a degree-6 polynomial")
    p = p.monic()
    if resultant(p, p.derivative()) == 0:
        raise DegenerateSextic("repeated roots; resolvent criteria need distinct roots")
    return monic_integer_rescale(p)


def _resolvent_scaled(q: RatPoly, kind: ResolventKind, precision: int) -> IntPoly:
    last_exc: Exception | None = None
    for prec in precision_ladder(max(precision, 64), PRECISION_CAP):
        try:
            roots = find_roots(q, prec)
            with mp.workprec(prec + 32):
                tol = mp.mpf(2) ** -(prec // 8)
                return resolvent_from_roots(roots, kind, tol)
        except (NonConvergence, NotNearInteger, RepeatedRootSuspected) as exc:
            last_exc = exc
    raise PrecisionExhausted(f"resolvent construction failed at {PRECISION_CAP} bits: {last_exc}")


# ---------------------------------------------------------------------------
# interpolation reconstruction of the closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermDiff:
    """One (x-power, d-power, e-power) cell where fit and reference differ."""

    x_power: int
    d_power: int
    e_power: int
    reference: int
    fitted: int


@dataclass(frozen=True)
class ReconstructionReport:
    kind: ResolventKind
    fitted: dict
    printed_match: dict
    discrepancies: tuple
    holdout_points: tuple
    notes: tuple = field(default_factory=tuple)

    def matches_reference(self) -> bool:
        return not self.discrepancies


def _candidate_exponents(kind: ResolventKind, x_power: int) -> list:
    """Admissible (d-power, e-power) cells for one resolvent coefficient.

    The coefficient of x^(degree-j) is a weight-(w*j) symmetric function of
    the roots; expressed in the elementary symmetric basis every monomial has
    that exact weight, and substituting sigma_4 = 1 leaves a gap divisible
    by 4.
    """
    j = kind.degree - x_power
    w = kind.weight * j
    out = []
    for i in range(w // D_WEIGHT + 1):
        for k in range((w - D_WEIGHT * i) // E_WEIGHT + 1):
            if (w - D_WEIGHT * i - E_WEIGHT * k) % 4 == 0:
                out.append((i, k))
    return out


def _interp(xs: list, ys: list) -> list:
    """Exact Newton interpolation; returns monomial coefficients low to high."""
    n = len(xs)
    dd = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]
    for i in range(n):
        for k, c in enumerate(basis):
            coeffs[k] += dd[i] * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for k, c in enumerate(basis):
            nxt[k + 1] += c
            nxt[k] -= xs[i] * c
        basis = nxt
    return coeffs


def _alternating(limit: int, include_zero: bool):
    vals = [0] if include_zero else []
    k = 1
    while len(vals) < limit:
        vals.append(k)
        if len(vals) < limit:
            vals.append(-k)
        k += 1
    return vals


def evaluate_fit(fitted: dict, d: Fraction, e: Fraction, degree: int) -> RatPoly:
    return _eval_table(fitted, Fraction(d), Fraction(e), degree)


def reconstruct_reduced(
    kind: ResolventKind,
    precision: int = PRECISION_START,
    holdouts: int = 20,
    seed: int = 20250811,
) -> ReconstructionReport:
    """Re-derive the closed-form coefficient table from oracle samples.

    Samples resolvent_numeric on an integer (d, e) grid large enough to pin
    every admissible monomial, interpolates exactly, checks the fit against
    the weighted-degree support, validates on random holdout points, and
    diffs the result against the reference transcription.

    The result depends only on the arguments, so it is cached (the degree-15
    run takes tens of seconds); callers share it and must not mutate it.
    """
    return _reconstruct_reduced(kind, precision, holdouts, seed)


@lru_cache(maxsize=4)
def _reconstruct_reduced(kind, precision, holdouts, seed) -> ReconstructionReport:
    deg, w = kind.degree, kind.weight
    nd = (w * deg) // D_WEIGHT + 1
    ne = (w * deg) // E_WEIGHT + 1
    d_vals = _alternating(nd, include_zero=False)
    e_vals = _alternating(ne, include_zero=True)
    # drop values creating degenerate grid points (repeated-root sextics)
    e_vals = [e for e in e_vals if all(_grid_ok(d, e) for d in d_vals)]
    k = max(abs(v) for v in e_vals) + 1
    while len(e_vals) < ne:
        for cand in (k, -k):
            if len(e_vals) < ne and all(_grid_ok(d, cand) for d in d_vals):
                e_vals.append(cand)
        k += 1
    samples = {}
    for d in d_vals:
        for e in e_vals:
            poly = ReducedSextic(d, e).to_poly()
            samples[(d, e)] = resolvent_numeric(poly, kind, precision).full_coeffs()
    fitted: dict = {}
    for x_power in range(deg):
        rows = []
        for d in d_vals:
            ys = [samples[(d, e)][x_power] for e in e_vals]
            row = _interp(e_vals, ys)
            for c in row:
                if c.denominator != 1:
                    raise FitInconsistent(f"non-integer e-fit at x^{x_power}, d={d}")
            rows.append(row)
        cells: dict = {}
        allowed = set(_candidate_exponents(kind, x_power))
        for beta in range(ne):
            col = _interp(d_vals, [rows[i][beta] for i in range(nd)])
            for alpha, c in enumerate(col):
                if not c:
                    continue
                if c.denominator != 1:
                    raise FitInconsistent(f"non-integer d-fit at x^{x_power}")
                if (alpha, beta) not in allowed:
                    raise FitInconsistent(
                        f"fitted support d^{alpha} e^{beta} at x^{x_power} "
                        "violates the weighted-degree bound"
                    )
                cells[(alpha, beta)] = int(c)
        if cells:
            fitted[x_power] = cells
    fitted[deg] = {(0, 0): 1}

    rng = random.Random(seed)
    used = set(samples)
    holdout_points = []
    while len(holdout_points) < holdouts:
        d = rng.randint(-30, 30)
        e = rng.randint(-30, 30)
        if (d, e) in used or not _grid_ok(d, e):
            continue
        used.add((d, e))
        holdout_points.append((d, e))
        oracle = resolvent_numeric(ReducedSextic(d, e).to_poly(), kind, precision)
        if evaluate_fit(fitted, d, e, deg) != oracle.to_rat():
            raise FitInconsistent(f"holdout mismatch at (d, e) = ({d}, {e})")

    reference = F_REFERENCE_TABLE if kind is ResolventKind.MATCHING else G_REFERENCE_TABLE
    printed_match: dict = {}
    discrepancies = []
    notes = []
    for x_power in range(deg + 1):
        ref = reference.get(x_power, {})
        fit = fitted.get(x_power, {})
        for cell in sorted(set(ref) | set(fit)):
            same = ref.get(cell, 0) == fit.get(cell, 0)
            printed_match[(x_power, *cell)] = same
            if not same:
                discrepancies.append(
                    TermDiff(x_power, cell[0], cell[1], ref.get(cell, 0), fit.get(cell, 0))
                )
        if ref and fit and ref != fit:
            shift = _e_shift(ref, fit)
            if shift:
                notes.append(
                    f"x^{x_power}: fitted coefficient equals the reference "
                    f"terms times e^{shift}"
                )
    return ReconstructionReport(
        kind=kind,
        fitted=fitted,
        printed_match=printed_match,
        discrepancies=tuple(discrepancies),
        holdout_points=tuple(holdout_points),
        notes=tuple(notes),
    )


def _grid_ok(d: int, e: int) -> bool:
    # exact squarefree test, independent of the transcribed formulas
    poly = ReducedSextic(d, e).to_poly()
    return resultant(poly, poly.derivative()) != 0


def _e_shift(ref: dict, fit: dict):
    """Detect fit == ref * e^s; returns s > 0 or None."""
    if len(ref) != len(fit):
        return None
    shifts = set()
    for (i, j), c in ref.items():
        match = [(fi, fj) for (fi, fj), fc in fit.items() if fi == i and fc == c]
        if len(match) != 1:
            return None
        shifts.add(match[0][1] - j)
    if len(shifts) == 1:
        s = shifts.pop()
        return s if s > 0 else None
    return None
