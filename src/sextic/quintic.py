"""Solvable Bring-Jerrard quintics x^5 + a*x + b.

Such an irreducible quintic is solvable by radicals exactly when rational
numbers epsilon = +-1, c >= 0, e != 0 exist with

    a = 5 e^4 (3 - 4 epsilon c) / (c^2 + 1)
    b = -4 e^5 (11 epsilon + 2 c) / (c^2 + 1)

(Spearman and Williams, 1994). The roots are e * sum_k omega^(j k) u_k,
j = 0..4, omega = exp(2 pi i / 5), where u_k are fifth roots of radicals in
D = c^2 + 1 whose branches follow from u_1 by exact product relations.
params_from_ab recovers the parameters exactly, with no bound on their
height, so for an irreducible quintic a hit proves solvability and an
empty result proves non-solvability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .classify import is_irreducible
from .errors import NoConsistentBranch
from .exact import RatPoly, is_rational_square, rational_roots
from .roots import PRECISION_START, check_precision, to_mpf

# b^4/a^5 = 256 B4(t) / (3125 A5(t)) with t = epsilon c, A5 = (3 - 4t)^5 and
# B4 = (11 + 2t)^4 (t^2 + 1), as ascending coefficients
_A5 = (243, -1620, 4320, -5760, 3840, -1024, 0)
_B4 = (14641, 10648, 17545, 11000, 2920, 352, 16)


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


def params_from_ab(a, b):
    """Parameters producing (a, b), or None when no rational triple does.

    Eliminating e gives b^4/a^5 = 256 B4(t) / (3125 A5(t)) with t = epsilon c,
    so every candidate t is a rational root of one integer sextic. Each root
    and each epsilon with c = epsilon t >= 0 fix
    e = -5b(3 - 4t) / (4a epsilon (11 + 2t)), kept when ab_from_params gives
    back (a, b) exactly. b = 0 forces epsilon = -1, c = 11/2, a = 4 e^4 with
    e > 0. Of several fits the one with the smallest e height (denominator,
    then |numerator|) and then epsilon = +1 is returned.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        raise ValueError("the parameter search requires a != 0")
    if b == 0:
        root = is_rational_square(a / 4)
        e = None if root is None else is_rational_square(root)
        return None if e is None else QuinticParams(-1, Fraction(11, 2), e)
    ratio = b**4 / a**5
    n, m = 3125 * ratio.numerator, 256 * ratio.denominator
    sextic = RatPoly([n * p - m * q for p, q in zip(_A5, _B4)])
    fits = []
    for t in rational_roots(sextic):
        for eps in (1, -1):
            if eps * t < 0:
                continue
            e = -5 * b * (3 - 4 * t) / (4 * a * eps * (11 + 2 * t))
            params = QuinticParams(eps, eps * t, e)
            if ab_from_params(params) == (a, b):
                fits.append(params)
    return min(fits, key=lambda p: (p.e.denominator, abs(p.e.numerator), -p.epsilon), default=None)


def _branch(base, target):
    """The fifth root of base nearest target."""
    turns = mp.arg(target / mp.root(base, 5)) * 5 / (2 * mp.pi)
    return mp.root(base, 5, int(mp.nint(turns)) % 5)


def _near_a_root(x, fx, a, precision: int) -> bool:
    """True when a root of f = x^5 + a x + b lies within 2^-(precision/2) (1 + |x|)
    of x, given |f(x)| as fx: a degree-5 polynomial has a root within the
    inclusion radius 5 |f(x)| / |f'(x)| of any point, and that radius must not
    exceed the bound. |f'(x)| and |x| enter through the lower bound
    max(|Re z|, |Im z|) <= |z|, which only makes the test stricter and saves
    two square roots per value."""
    df = 5 * x**4 + a
    low = max(abs(df.real), abs(df.imag))
    return 5 * fx <= low * mp.ldexp(1 + max(abs(x.real), abs(x.imag)), -(precision // 2))


def radical_roots(p: QuinticParams, precision: int = PRECISION_START) -> QuinticRadicals:
    """Evaluate the radical expressions to the five roots of x^5 + a*x + b.

    u1 is the principal fifth root; u3, u4 and u2 are the fifth roots nearest
    v1 / (D u1^2), -epsilon / (sqrt(D) u1) and epsilon / (sqrt(D) u3), from
    exact relations of the tower. Each x_j must lie within
    2^-(precision/2) (1 + |x_j|) of a root (_near_a_root); the residual
    max_j |x_j^5 + a x_j + b| is reported alongside.
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
        xs = [
            e_val * sum(wtab[(j * k) % 5] * us[k - 1] for k in range(1, 5))
            for j in range(5)
        ]
        fxs = [abs(x**5 + a_val * x + b_val) for x in xs]
        residual = max(fxs)
        certified = all(_near_a_root(x, fx, a_val, precision) for x, fx in zip(xs, fxs))
    if not certified:
        raise NoConsistentBranch(
            f"the tower's fifth-root branches do not solve x^5 + {a}x + {b} at {precision} bits"
        )
    return QuinticRadicals(params=p, a=a, b=b, D=D, v=(v1, v2, v3, v4), u=us,
                           omega=omega, roots=tuple(xs), residual=residual)


def search_quintics(box: int):
    """Yield (a, b, params), in order of a then b, for every integer (a, b)
    with |a|, |b| <= box, a != 0, where x^5 + a*x + b is irreducible and
    solvable by radicals; params is params_from_ab(a, b). Each hit is
    yielded as soon as it is found.

    Sound and complete: a hit has exact parameters and is irreducible, and
    params_from_ab misses no rational triple. box must be >= 1; a smaller
    box raises ValueError on the first step.
    """
    if box < 1:
        raise ValueError("box must be >= 1")
    for a in range(-box, box + 1):
        if a == 0:
            continue
        for b in range(-box, box + 1):
            params = params_from_ab(a, b)
            if params is not None and is_irreducible(RatPoly([b, a, 0, 0, 0, 1])):
                yield a, b, params
