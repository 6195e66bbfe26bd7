"""Seeded input corpora for the four benchmark workloads.

Pure Python: this module imports neither sextic nor sympy, so the measured
process and the reference process build the same inputs from the same seed.

Each corpus is one pass of a run: a finite list of ops with a fixed count
of each input class in a seeded order, so every run sees the same mix
whatever the seed, and the run-to-run spread comes from the inputs inside a
class rather than from the mix. A run times whole passes over the list, so
every op of the corpus is attempted and checked in every run.

Fractions travel as "p/q" strings and coefficients low to high, as
RatPoly takes them.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("reduced", "general", "grid", "quintic")

PAPER_EXAMPLE = (Fraction(1, 2), Fraction(5, 36))
GRID_D_RADIUS = 50
QUINTIC_BOX = 200

# Fixed inputs for the warm-up op of each workload, outside every corpus, so
# set-up time does not depend on the seed.
WARMUP = {
    "reduced": {"class": "warmup", "coeffs": ["11", "7", "1", "0", "0", "0", "1"]},
    "general": {"class": "warmup", "coeffs": ["3", "1", "-2", "0", "1", "0", "1"]},
    "grid": {"class": "warmup", "d": 1, "e_lo": 1, "e_hi": 1},
    "quintic": {"class": "warmup", "a": "20", "b": "32"},
}


def _s(q) -> str:
    return str(Fraction(q))


def _frac(rng: random.Random, num: int, dens: tuple) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.choice(dens))


def family_e(d: Fraction) -> Fraction:
    """The paper's solvable family e = (32 d^4 + 3) / (144 d^2)."""
    return (32 * d**4 + 3) / (144 * d**2)


def _reduced_op(cls: str, d: Fraction, e: Fraction) -> dict:
    return {"class": cls, "coeffs": [_s(e), _s(d), "1", "0", "0", "0", "1"]}


def _family_ds() -> list:
    # the 24 values d = p/q with 1 <= |p| <= 5, q <= 3; d = 1/2 and -1/2
    # classify at the seed commit, the other 22 stop with FactoringExhausted
    return sorted({Fraction(p, q) for p in range(-5, 6) if p for q in range(1, 4)})


# Random reduced points by height and denominator, the input properties that
# set their cost: about 30 ms for low-height integers, 25 ms for halves,
# 55 ms for thirds. Mid-height integers have a median near 60 ms and a tail
# past 1 s, from factoring and divisor enumeration of resolvent constants;
# beyond height 40 single ops reach several seconds.
# class -> (numerator bound, denominators, count per corpus)
_POINT_CLASSES = {
    "int": (5, (1,), 200),
    "mid": (40, (1,), 8),
    "half": (10, (2,), 10),
    "third": (9, (3,), 10),
}
PAPER_COPIES = 10


def _reduced_ops(rng: random.Random) -> list:
    # 262 ops in seeded order: 200 integer and 10 half-integer points with
    # d, e in [-5, 5]; 8 mid-height integer points with d, e in [-40, 40];
    # 10 third-integer points with d, e in [-3, 3]; 10 copies of the paper
    # example; every one of the 24 family members once. The family and the
    # paper example are the same in every corpus, so the failures (22
    # family members) and the slow end of the latencies do not depend on
    # the seed: latency_ms.p90 falls inside the family class, and
    # latency_ms.p50 inside the integer class. The mid-height class is one
    # op in 32 because its tail would otherwise set the throughput.
    ops = [
        _reduced_op(cls, _frac(rng, num, dens), _frac(rng, num, dens))
        for cls, (num, dens, count) in _POINT_CLASSES.items()
        for _ in range(count)
    ]
    ops += [_reduced_op("paper", *PAPER_EXAMPLE) for _ in range(PAPER_COPIES)]
    ops += [_reduced_op("family", d, family_e(d)) for d in _family_ds()]
    rng.shuffle(ops)
    return ops


def _is_reduced_shape(coeffs: list) -> bool:
    # x^6 + x^2 + d x + e after dividing by the leading coefficient
    lead = coeffs[6]
    return coeffs[2] == lead and not coeffs[3] and not coeffs[4] and not coeffs[5]


# Monic rational classes by the denominators of their coefficients, which
# set the rescaling factor m of the numeric path and with it the cost:
# m = 6 needs the 512-bit rung and takes about twice as long.
# class -> (denominators drawn, lcm required)
_GENERAL_RAT = {"rat3": ((1, 3), 3), "rat6": ((1, 2, 3), 6)}


def _general_op(rng: random.Random, cls: str) -> dict:
    while True:
        if cls == "int":
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(6)] + [Fraction(1)]
        elif cls == "nonmonic":
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
            coeffs.append(Fraction(rng.randint(2, 3)))
        else:
            dens, lcm = _GENERAL_RAT[cls]
            coeffs = [_frac(rng, 3, dens) for _ in range(6)] + [Fraction(1)]
            if math.lcm(*(c.denominator for c in coeffs)) != lcm:
                continue
        # the reduced shape would take the closed-form path, not the orbit path
        if not _is_reduced_shape(coeffs):
            return {"class": cls, "coeffs": [_s(c) for c in coeffs]}


def _general_block(rng: random.Random) -> list:
    # 13 integer monic, 2 rat3, 4 rat6, 1 non-monic: latency_ms.p50 falls
    # inside the integer class and latency_ms.p90 at the median of rat6
    classes = ["int"] * 13 + ["rat3"] * 2 + ["rat6"] * 4 + ["nonmonic"]
    return [_general_op(rng, c) for c in classes]


def _quintic_built(rng: random.Random, eps: int) -> dict:
    """(a, b) of a solvable quintic from seeded parameters inside the height
    bound, by the parametrization a = 5e^4(3 - 4 eps c)/(c^2 + 1),
    b = -4e^5(11 eps + 2c)/(c^2 + 1)."""
    while True:
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        e = Fraction(rng.choice((1, -1)) * rng.randint(1, 6), rng.randint(1, 6))
        if 4 * eps * c != 3:  # a = 0 is outside the search's domain
            break
    denom = c**2 + 1
    a = 5 * e**4 * (3 - 4 * eps * c) / denom
    b = -4 * e**5 * (11 * eps + 2 * c) / denom
    return {"class": "built", "a": _s(a), "b": _s(b)}


def _quintic_block(rng: random.Random) -> list:
    # 7 integer pairs from the box and 3 pairs built from parameters, one
    # with eps = 1 and two with eps = -1. Hits with eps = -1 take about 140
    # ms, twice as long as with eps = 1, so latency_ms.p90 falls at the
    # median of the eps = -1 hits rather than between the two kinds.
    block = []
    for _ in range(7):
        a = 0
        while a == 0:
            a = rng.randint(-QUINTIC_BOX, QUINTIC_BOX)
        block.append({"class": "box", "a": str(a), "b": str(rng.randint(-QUINTIC_BOX, QUINTIC_BOX))})
    block += [_quintic_built(rng, eps) for eps in (1, -1, -1)]
    return block


def _grid_rows(rng: random.Random) -> list:
    # the rows d = -50..50 over e = -2..2, in seeded order. The window holds
    # 0, so the row d = 0 holds the degenerate point (0, 0). Row cost
    # depends on d and on the window, and the median and 90th percentile of
    # 101 rows rest on one or two of them, so every seed scans the same grid.
    # Five points keep the 101 rows within about 20 s.
    ds = list(range(-GRID_D_RADIUS, GRID_D_RADIUS + 1))
    rng.shuffle(ds)
    return [{"class": "row", "d": d, "e_lo": -2, "e_hi": 2} for d in ds]


def make(workload: str, seed: int) -> list:
    """The ops of one workload for one seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "grid":
        return _grid_rows(rng)
    if workload == "reduced":
        return _reduced_ops(rng)
    block, count = {"general": (_general_block, 5), "quintic": (_quintic_block, 40)}[workload]
    ops = []
    for _ in range(count):
        b = block(rng)
        rng.shuffle(b)
        ops += b
    return ops
