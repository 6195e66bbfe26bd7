"""Solvable Bring-Jerrard quintics x^5 + a*x + b.

Such an irreducible quintic is solvable by radicals exactly when rational
numbers epsilon = +-1, c >= 0, e != 0 exist with

    a = 5 e^4 (3 - 4 epsilon c) / (c^2 + 1)
    b = -4 e^5 (11 epsilon + 2 c) / (c^2 + 1)

(Spearman and Williams, 1994). The roots are e * sum_k omega^(j k) u_k,
j = 0..4, omega = exp(2 pi i / 5), where u_k are fifth roots of radicals in
D = c^2 + 1 whose branches follow from u_1 by exact product relations. The
parameter search is bounded (rational e of bounded height), so a hit is a
proof of solvability while an empty result only means "not found within
the bound".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath as mp

from .classify import is_irreducible
from .errors import NoConsistentBranch
from .exact import RatPoly, is_rational_square
from .roots import PRECISION_START, check_precision, to_mpf

DEFAULT_HEIGHT_BOUND = 24


@dataclass(frozen=True)
class QuinticParams:
    epsilon: int
    c: Fraction
    e: Fraction

    def __init__(self, epsilon, c, e):
        c, e = Fraction(c), Fraction(e)
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if c < 0:
            raise ValueError("c must be nonnegative")
        if e == 0:
            raise ValueError("e must be nonzero")
        object.__setattr__(self, "epsilon", int(epsilon))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "e", e)


@dataclass(frozen=True)
class QuinticRadicals:
    """The radical tower for one parameter triple, evaluated numerically."""

    params: QuinticParams
    a: Fraction
    b: Fraction
    D: Fraction
    v: tuple
    u: tuple
    omega: object
    roots: tuple
    residual: object


def ab_from_params(p: QuinticParams) -> tuple[Fraction, Fraction]:
    """Exact coefficients (a, b) of the quintic the parameters solve."""
    denom = p.c**2 + 1
    a = 5 * p.e**4 * (3 - 4 * p.epsilon * p.c) / denom
    b = -4 * p.e**5 * (11 * p.epsilon + 2 * p.c) / denom
    return a, b


@lru_cache(maxsize=8)
def _e_candidates(height_bound: int) -> tuple:
    """Positive rationals n/m with |n|, m <= height_bound, in scan order."""
    out = []
    for m in range(1, height_bound + 1):
        for n in range(1, height_bound + 1):
            if gcd(n, m) == 1:
                out.append((n, m))
    return tuple(out)


def params_from_ab(a, b, height_bound: int = DEFAULT_HEIGHT_BOUND):
    """Bounded exact search for parameters producing (a, b); None if absent.

    For each candidate (epsilon, e) the a-equation is the quadratic
    a c^2 + 20 epsilon e^4 c + (a - 15 e^4) = 0; rational roots c >= 0
    are kept when the b-equation verifies exactly. The scan order (e height
    ascending, epsilon +1 first, larger quadratic root first, e > 0 first)
    is fixed, so the returned triple is deterministic.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise ValueError("the parameter search requires a != 0")
    if height_bound < 1:
        raise ValueError(f"height bound must be >= 1, got {height_bound}")
    for n, m in _e_candidates(height_bound):
        n4, m4 = n**4, m**4
        if a.denominator == 1:
            # disc/4 of the c-quadratic, scaled by m^8: pure-integer fast path
            an = a.numerator
            scaled = 100 * n4 * n4 + 15 * an * n4 * m4 - an * an * m4 * m4
            if scaled < 0:
                continue
            s = isqrt(scaled)
            if s * s != scaled:
                continue
            sqrt_disc = Fraction(2 * s, m4)
        else:
            t4 = Fraction(n4, m4)
            sqrt_disc = is_rational_square(400 * t4 * t4 - 4 * a * (a - 15 * t4))
            if sqrt_disc is None:
                continue
        e4 = Fraction(n4, m4)
        for eps in (1, -1):
            for sign in (1, -1):
                c = (-20 * eps * e4 + sign * sqrt_disc) / (2 * a)
                if c < 0:
                    continue
                denom = c**2 + 1
                if a != 5 * e4 * (3 - 4 * eps * c) / denom:
                    continue
                for e in (Fraction(n, m), Fraction(-n, m)):
                    if b == -4 * e**5 * (11 * eps + 2 * c) / denom:
                        return QuinticParams(eps, c, e)
    return None


def _branch(base, target):
    """The fifth root of base nearest target."""
    turns = mp.arg(target / mp.root(base, 5)) * 5 / (2 * mp.pi)
    return mp.root(base, 5, int(mp.nint(turns)) % 5)


def radical_roots(p: QuinticParams, precision: int = PRECISION_START) -> QuinticRadicals:
    """Evaluate the radical expressions to the five roots of x^5 + a*x + b.

    u1 is the principal fifth root; u3, u4 and u2 are the fifth roots nearest
    v1 / (D u1^2), -epsilon / (sqrt(D) u1) and epsilon / (sqrt(D) u3), from
    exact relations of the tower. The residual max_j |x_j^5 + a x_j + b|
    certifies the construction.
    """
    check_precision(precision)
    a, b = ab_from_params(p)
    with mp.workprec(precision + 32):
        D = p.c**2 + 1
        sD = mp.sqrt(to_mpf(D))
        eps = p.epsilon
        minus = mp.sqrt(mp.mpc(to_mpf(D) - eps * sD))
        plus = mp.sqrt(mp.mpc(to_mpf(D) + eps * sD))
        v1 = sD + minus
        v2 = -sD - plus
        v3 = -sD + plus
        v4 = sD - minus
        d2 = to_mpf(D) ** 2
        u1 = mp.root(v1**2 * v3 / d2, 5)
        u3 = _branch(v2**2 * v1 / d2, v1 / (to_mpf(D) * u1**2))
        u4 = _branch(v4**2 * v2 / d2, -eps / (sD * u1))
        u2 = _branch(v3**2 * v4 / d2, eps / (sD * u3))
        us = (u1, u2, u3, u4)
        omega = mp.expjpi(mp.mpf(2) / 5)
        wtab = [omega**t for t in range(5)]
        e_val = to_mpf(p.e)
        a_val, b_val = to_mpf(a), to_mpf(b)
        tol = mp.mpf(2) ** -(precision // 2) * (1 + abs(a_val) + abs(b_val))
        xs = [
            e_val * sum(wtab[(j * k) % 5] * us[k - 1] for k in range(1, 5))
            for j in range(5)
        ]
        residual = max(abs(x**5 + a_val * x + b_val) for x in xs)
    if residual > tol:
        raise NoConsistentBranch(
            f"the tower's fifth-root branches do not solve x^5 + {a}x + {b} at {precision} bits"
        )
    return QuinticRadicals(params=p, a=a, b=b, D=D, v=(v1, v2, v3, v4), u=us,
                           omega=omega, roots=tuple(xs), residual=residual)


def search_quintics(box: int, height_bound: int = DEFAULT_HEIGHT_BOUND) -> list:
    """All integer (a, b) with |a|, |b| <= box, a != 0, where x^5 + a*x + b is
    irreducible and the bounded parameter search succeeds.

    Sound (a hit has exact parameters and is irreducible, so it is solvable);
    complete only relative to the height bound. box and height_bound must
    be >= 1 (params_from_ab checks the latter).
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    hits = []
    for a in range(-box, box + 1):
        if a == 0:
            continue
        for b in range(-box, box + 1):
            params = params_from_ab(a, b, height_bound)
            if params is None:
                continue
            if not is_irreducible(RatPoly([b, a, 0, 0, 0, 1])):
                continue
            hits.append((a, b))
    return hits
