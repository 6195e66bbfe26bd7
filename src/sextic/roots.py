"""Polynomials from their roots, and complex root finding.

expand_from_roots and round_to_int_poly are the exact half: they expand a
monic polynomial from its roots in any ring and read off the integer
coefficients of one whose roots are p-adic lifts (resolvents._Lifted), with
no floating point. find_roots is the complex half, built on mpmath and used
only by the tests' complex-root oracle (tests/oracles.py).

find_roots is Aberth-Ehrlich simultaneous iteration, polished by Newton
steps and certified through the Newton residual bound: any z has a true
root within n*|p(z)/p'(z)|, so the maximum of that quantity over the final
iterates is a valid error radius for the whole set.

The iteration runs in two stages with one update rule (_aberth_sweep, which
is generic over Python complex and mpmath mpc). A first stage in double
precision converges from perturbed points on a circle, cheaply, to about
machine precision; the multiprecision stage then continues from those
iterates under its own stopping rule, so it usually needs only a few
sweeps (Bini, Numer. Algorithms 13, 1996). When the double stage cannot
help, that is when a coefficient does not fit a double (past about 1e308,
or nonzero and below the smallest double), an iterate overflows or is not
finite, or two iterates coincide, the multiprecision stage starts from the
circle points instead, exactly as if the first stage had not run.

All iteration schedules are fixed, so identical inputs give bit-identical
output.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from . import modp
from .errors import NonConvergence, NotNearInteger, RepeatedRootSuspected
from .exact import RatPoly

PRECISION_START = 256
PRECISION_CAP = 4096
MAX_ITERATIONS = 400
DOUBLE_ITERATIONS = 100  # sweeps of the double-precision first stage, at most
_GUARD_BITS = 32


def check_precision(bits: int) -> int:
    """Return bits when 1 <= bits <= PRECISION_CAP; raise ValueError naming the range otherwise."""
    if not 1 <= bits <= PRECISION_CAP:
        raise ValueError(f"precision must be between 1 and {PRECISION_CAP} bits, got {bits}")
    return bits


@dataclass(frozen=True)
class ComplexRootSet:
    """All complex roots of a rational polynomial, with a shared error bound.

    roots are sorted by (real, imaginary); error_radius bounds the distance
    from each entry to some true root of source.
    """

    roots: tuple
    error_radius: object
    source: RatPoly
    precision_bits: int

    def __len__(self):
        return len(self.roots)


def to_mpf(c: Fraction):
    """The rational c at the current working precision."""
    return mp.mpf(c.numerator) / mp.mpf(c.denominator)


def _horner_pair(coeffs, z):
    """(p(z), p'(z)) for coefficients low to high (complex or mpc)."""
    p = coeffs[-1]
    dp = 0
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth_sweep(coeffs, zs, nudge):
    """One Aberth-Ehrlich sweep over the iterates zs, in place, for the monic
    coeffs; returns the largest Newton step |p(z)/p'(z)| met. The same code
    runs on Python complex and on mpc values."""
    n = len(zs)
    worst = 0.0
    for k in range(n):
        pv, dv = _horner_pair(coeffs, zs[k])
        if dv == 0:
            zs[k] += nudge
            pv, dv = _horner_pair(coeffs, zs[k])
            if dv == 0:
                raise RepeatedRootSuspected("derivative vanishes at iterate")
        w = pv / dv
        worst = max(worst, abs(w))
        acc = 0
        for j in range(n):
            if j != k:
                acc += 1 / (zs[k] - zs[j])
        denom = 1 - w * acc
        zs[k] -= w if denom == 0 else w / denom
    return worst


def _seed_in_double(coeffs, starts):
    """Aberth iterates of the monic coeffs in double precision, from starts.

    Stops after DOUBLE_ITERATIONS sweeps or once every Newton step is below
    2^-44 of the largest iterate. Returns None, so that the caller keeps its
    starts, when a coefficient does not fit a double (it overflows, or it is
    nonzero and underflows to zero) or when the iteration overflows, leaves
    a non-finite iterate or lets two iterates coincide.
    """
    cs = [complex(c) for c in coeffs]
    zs = [complex(z) for z in starts]
    if not all(map(cmath.isfinite, cs + zs)) or any(c and not d for c, d in zip(coeffs, cs)):
        return None
    try:
        for _ in range(DOUBLE_ITERATIONS):
            if _aberth_sweep(cs, zs, 2.0**-26) <= 2.0**-44 * max(map(abs, zs)):
                break
    except (ArithmeticError, RepeatedRootSuspected):
        return None
    if not all(map(cmath.isfinite, zs)) or len(set(zs)) < len(zs):
        return None
    return zs


def find_roots(p: RatPoly, precision_bits: int = PRECISION_START) -> ComplexRootSet:
    """All complex roots of p, certified to error_radius <= 2^(-precision_bits/2).

    Raises NonConvergence when the iteration budget runs out, and
    RepeatedRootSuspected when the budget runs out with a root cluster
    present (the residual certificate cannot shrink near a multiple root).
    """
    n = p.degree
    if n < 1:
        raise ValueError("find_roots expects degree >= 1")
    with mp.workprec(precision_bits + _GUARD_BITS):
        lead = mp.mpc(to_mpf(p.leading()))
        coeffs = [mp.mpc(to_mpf(c)) / lead for c in p.coeffs]
        radius = 1 + max(abs(c) for c in coeffs[:-1])
        # fixed off-axis start angles; the 0.353 offset avoids symmetry traps
        zs = [
            radius * mp.exp(mp.mpc(0, 2) * mp.pi * (mp.mpf(k) + mp.mpf("0.353")) / n)
            for k in range(n)
        ]
        seeds = _seed_in_double(coeffs, zs)
        if seeds is not None:
            zs = [mp.mpc(z) for z in seeds]
        target = mp.mpf(2) ** (-(precision_bits // 2) - 8)
        nudge = mp.mpf(2) ** (-precision_bits // 3)
        for _ in range(MAX_ITERATIONS):
            worst = _aberth_sweep(coeffs, zs, nudge)
            if worst * n <= target:
                break
        else:
            if min_separation(zs) < mp.mpf(2) ** (-precision_bits // 8):
                raise RepeatedRootSuspected(
                    f"residual stalled at {mp.nstr(worst)} with clustered roots"
                )
            raise NonConvergence(f"residual {mp.nstr(worst)} after {MAX_ITERATIONS} iterations")
        # Newton polish, then certify
        err = mp.mpf(0)
        for k in range(n):
            for _ in range(2):
                pv, dv = _horner_pair(coeffs, zs[k])
                if dv == 0:
                    break
                zs[k] -= pv / dv
            pv, dv = _horner_pair(coeffs, zs[k])
            if dv == 0:
                raise RepeatedRootSuspected("derivative vanishes at polished root")
            err = max(err, n * abs(pv / dv))
        if err > mp.mpf(2) ** (-(precision_bits // 2)):
            raise NonConvergence(f"certified radius {mp.nstr(err)} misses target")
        zs.sort(key=lambda z: (z.real, z.imag))
        return ComplexRootSet(tuple(zs), err, p, precision_bits)


def min_separation(zs):
    """Smallest distance between two of the points zs."""
    return min((abs(a - b) for a, b in itertools.combinations(zs, 2)), default=mp.inf)


def expand_from_roots(values):
    """Coefficients (low to high) of the monic polynomial with the given
    roots, in the roots' own ring: any values with +, -, unary -, * and
    ** 0, such as the p-adic lifts of resolvents._Lifted. Multiplying by
    (z - v) updates the coefficients in place, c_i <- c_(i-1) - v c_i, one
    multiplication each. Plain ring arithmetic; a caller with mpmath values
    sets the working precision."""
    coeffs = [values[0] ** 0 if values else 1]
    for v in values:
        coeffs.append(coeffs[-1])
        for i in range(len(coeffs) - 2, 0, -1):
            coeffs[i] = coeffs[i - 1] - v * coeffs[i]
        coeffs[0] = -(v * coeffs[0])
    return coeffs


def round_to_int_poly(coeffs) -> RatPoly:
    """The integer polynomial of lifted coefficients: each a + b sqrt(n)
    mod M (resolvents._Lifted) must have b = 0 and stands for the symmetric
    residue of a. Raises NotNearInteger when a sqrt n part survives."""
    if any(c.b for c in coeffs):
        raise NotNearInteger("a lifted coefficient keeps a nonzero sqrt n part")
    return RatPoly([modp.symmetric(c.a, c.modulus) for c in coeffs])
