"""Polynomials from their roots, and complex root finding.

expand_from_roots and round_to_int_poly are the exact half: they expand a
monic polynomial from its roots in any ring and read integers off their
residues mod r^N (resolvents.resolvent_from_roots), with no floating point.
find_roots is the complex half, built on mpmath and used only by the tests'
complex-root oracle (tests/oracles.py).

find_roots is mpmath's polyroots (Durand-Kerner simultaneous iteration)
run on p rescaled by a power of two so that its largest root lies near the
unit circle, then polished by Newton steps and certified through the
Newton residual bound: any z has a true root within n*|p(z)/p'(z)|, so the
maximum of that quantity over the final iterates, with p(z) and p'(z)
widened by a bound on their rounding errors, is a valid error radius for
the whole set. polyroots starts from fixed points, so identical inputs
give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import NoConvergence

from . import modp
from .errors import NonConvergence, RepeatedRootSuspected
from .exact import RatPoly

PRECISION_START = 256
PRECISION_CAP = 4096
MAX_ITERATIONS = 400
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
    """(p(z), p'(z)) for coefficients low to high."""
    p = coeffs[-1]
    dp = 0
    for c in reversed(coeffs[:-1]):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def find_roots(p: RatPoly, precision_bits: int = PRECISION_START) -> ComplexRootSet:
    """All complex roots of p, certified to error_radius <= 2^(-precision_bits/2).

    polyroots starts near the unit circle and stops on an absolute step
    size, so it runs on p(2^k x)/2^(kn), with 2^k about the largest
    |c_j/c_n|^(1/(n-j)), which is within a factor 2n of the largest root.
    The radius target is absolute too, so roots of modulus near
    2^(precision_bits/2) or more cannot meet it. Raises NonConvergence when
    polyroots exhausts MAX_ITERATIONS steps or the certified radius misses
    the target, and RepeatedRootSuspected when p' vanishes, within
    rounding, at a polished root.
    """
    n = p.degree
    if n < 1:
        raise ValueError("find_roots expects degree >= 1")
    monic = p.monic().coeffs
    k = max(
        ((abs(c.numerator).bit_length() - c.denominator.bit_length()) // (n - j)
         for j, c in enumerate(monic[:-1]) if c),
        default=0,
    )
    with mp.workprec(precision_bits + _GUARD_BITS):
        coeffs = [to_mpf(c) for c in monic]
        scaled = [mp.ldexp(c, k * (j - n)) for j, c in enumerate(coeffs)]
        try:
            found = mp.polyroots(scaled[::-1], maxsteps=MAX_ITERATIONS, cleanup=False,
                                 extraprec=_GUARD_BITS)
        except NoConvergence as exc:
            raise NonConvergence(f"polyroots: {exc}") from None
        zs = [mp.mpc(z) * mp.ldexp(1, k) for z in found]
        # Newton polish, then certify with |p(z)| and |p'(z)| widened by a
        # bound on their rounding errors, which near a multiple root exceed
        # the computed values
        magnitudes = [abs(c) for c in coeffs]
        slack = 8 * n * mp.eps
        err = mp.mpf(0)
        for i in range(n):
            for _ in range(2):
                pv, dv = _horner_pair(coeffs, zs[i])
                if dv == 0:
                    break
                zs[i] -= pv / dv
            pv, dv = _horner_pair(coeffs, zs[i])
            size, dsize = _horner_pair(magnitudes, abs(zs[i]))
            low = abs(dv) - slack * dsize
            if low <= 0:
                raise RepeatedRootSuspected("derivative vanishes at polished root")
            err = max(err, n * (abs(pv) + slack * size) / low)
        if err > mp.mpf(2) ** (-(precision_bits // 2)):
            raise NonConvergence(f"certified radius {mp.nstr(err)} misses target")
        zs.sort(key=lambda z: (z.real, z.imag))
        return ComplexRootSet(tuple(zs), err, p, precision_bits)


def expand_from_roots(values):
    """Coefficients (low to high) of the monic polynomial with the given
    roots, in the roots' own ring: any values with +, -, unary -, * and
    ** 0, such as integers or mpmath numbers. Multiplying by
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


def round_to_int_poly(coeffs, modulus: int) -> RatPoly:
    """The integer polynomial whose coefficients are the symmetric residues
    mod modulus of the integers coeffs: the integers that r-adic lifts mod
    modulus stand for once modulus exceeds twice their size."""
    return RatPoly.from_ints([modp.symmetric(c % modulus, modulus) for c in coeffs])
