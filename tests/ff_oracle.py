"""Independent exact resolvent oracle over finite fields.

Used by the tests to cross-check the numeric resolvent pipeline without
sharing any code path with it (the F_q arithmetic is sextic.modp, which the
numeric path never calls): for a monic integer sextic, pick primes q
where the sextic splits into six distinct linear factors mod q, build the
resolvent from the six roots in F_q, and CRT the coefficients back to the
integers under a rigorous coefficient bound. No floating point anywhere.

Invariant values in F_q come from the closed pair/block descriptions:

* matching invariant of a perfect matching M of {0..5}:
  (prod of all roots) * sum_{(a,b) in M} r_a r_b          (15 matchings)
* partition invariant of a 3+3 split {A|B}:
  prod_A r * sum_A r + prod_B r * sum_B r                 (10 splits)
"""

from __future__ import annotations

import itertools

from sextic import modp
from sextic.exact import _is_probable_prime


def _splits_completely(f, q):
    """True when monic f mod q is squarefree with all roots in F_q, that is,
    when f divides x^q - x."""
    return modp.powmod([0, 1], q, modp.reduce(f, q), q) == [0, 1]


def _roots_mod(f, q):
    """All roots in F_q of a monic squarefree fully-split f; deterministic."""
    return sorted(-g[0] % q for g in modp.factor(modp.reduce(f, q), q))


# ---------------------------------------------------------------------------
# invariant orbits from combinatorial structures
# ---------------------------------------------------------------------------


def perfect_matchings():
    """All 15 perfect matchings of {0..5} as sorted pair triples."""
    out = []

    def rec(points, acc):
        if not points:
            out.append(tuple(acc))
            return
        a = points[0]
        for b in points[1:]:
            rest = [p for p in points if p not in (a, b)]
            rec(rest, acc + [(a, b)])

    rec(list(range(6)), [])
    return out


def three_three_splits():
    """All 10 unordered partitions of {0..5} into two 3-blocks."""
    out = []
    for block in itertools.combinations(range(6), 3):
        if 0 in block:
            other = tuple(sorted(set(range(6)) - set(block)))
            out.append((block, other))
    return out


def _matching_values(rts, q):
    total = 1
    for r in rts:
        total = total * r % q
    vals = []
    for m in perfect_matchings():
        s = 0
        for a, b in m:
            s = (s + rts[a] * rts[b]) % q
        vals.append(total * s % q)
    return vals


def _split_values(rts, q):
    vals = []
    for a, b in three_three_splits():
        pa = rts[a[0]] * rts[a[1]] % q * rts[a[2]] % q
        pb = rts[b[0]] * rts[b[1]] % q * rts[b[2]] % q
        sa = (rts[a[0]] + rts[a[1]] + rts[a[2]]) % q
        sb = (rts[b[0]] + rts[b[1]] + rts[b[2]]) % q
        vals.append((pa * sa + pb * sb) % q)
    return vals


def _expand_from_values(vals, q):
    coeffs = [1]
    for v in vals:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = (nxt[i + 1] + c) % q
            nxt[i] = (nxt[i] - c * v) % q
        coeffs = nxt
    return coeffs


def _root_bound(coeffs):
    """Integer Cauchy bound on |roots| of a monic integer polynomial."""
    return 1 + max(abs(c) for c in coeffs[:-1])


def resolvent_ff(coeffs, kind, start_prime=10**6):
    """Exact resolvent of a monic squarefree integer sextic via CRT.

    coeffs: integer coefficients low to high (length 7, leading 1).
    kind: "matching" (degree 15) or "split" (degree 10).
    Returns the integer coefficient list, low to high.
    """
    assert len(coeffs) == 7 and coeffs[-1] == 1
    R = _root_bound(coeffs)
    if kind == "matching":
        deg, inv_bound = 15, 3 * R**8
    else:
        deg, inv_bound = 10, 2 * R**4
    bound = 2 * 2**deg * inv_bound**deg  # |e_k| <= C(deg,k) inv_bound^k
    residues: list = []
    primes: list = []
    modulus = 1
    q = start_prime
    while modulus <= bound:
        q = _next_prime(q)
        if not _splits_completely(coeffs, q):
            continue
        rts = _roots_mod(coeffs, q)
        vals = _matching_values(rts, q) if kind == "matching" else _split_values(rts, q)
        residues.append(_expand_from_values(vals, q))
        primes.append(q)
        modulus *= q
    out = []
    for i in range(deg + 1):
        r, m = 0, 1
        for res, p in zip(residues, primes):
            c = res[i] if i < len(res) else 0
            # CRT combine
            t = (c - r) * pow(m, -1, p) % p
            r += m * t
            m *= p
        if r > m // 2:
            r -= m
        out.append(r)
    return out


def _next_prime(n):
    n += 1
    while not _is_probable_prime(n):
        n += 1
    return n
