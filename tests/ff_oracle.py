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

from oracles import sylvester_resultant
from sextic import modp
from sextic.exact import RatPoly, _is_probable_prime


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


def _iroot_ceil(a, k):
    """Smallest integer t >= 0 with t^k >= a."""
    lo, hi = 0, 1
    while hi**k < a:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _root_bound(coeffs):
    """Integer Fujiwara bound on |roots| of a monic integer polynomial:
    2 * max(|a_(n-k)|^(1/k) for k < n, and |a_0 / 2|^(1/n)). Unlike the
    Cauchy bound 1 + max |a_i| it grows only like m under y = m*x, so
    rescaled rational inputs need few more primes."""
    n = len(coeffs) - 1
    t = _iroot_ceil(-(-abs(coeffs[0]) // 2), n)
    for k in range(1, n):
        t = max(t, _iroot_ceil(abs(coeffs[n - k]), k))
    return 2 * max(t, 1)


def resolvent_ff(coeffs, kinds, start_prime=10**6):
    """Exact resolvents of a monic squarefree integer sextic via CRT.

    coeffs: integer coefficients low to high (length 7, leading 1).
    kinds: a tuple of "matching" (degree 15) and "split" (degree 10).
    Returns one integer coefficient list, low to high, per kind. All kinds
    share the split primes, which are the slow part of the oracle.
    """
    assert len(coeffs) == 7 and coeffs[-1] == 1
    R = _root_bound(coeffs)
    specs = {
        "matching": (15, 3 * R**8, _matching_values),  # R^6 * (three pair products)
        "split": (10, 6 * R**4, _split_values),  # two blocks of R^3 * (sum of three)
    }
    # |e_k| <= C(deg,k) inv_bound^k; a larger modulus than one kind needs is harmless
    bound = max(2 * 2**deg * inv_bound**deg for deg, inv_bound, _ in map(specs.get, kinds))
    split = []
    modulus = 1
    for q, rts in _split_primes(coeffs, start_prime):
        if modulus > bound:
            break
        split.append((q, rts))
        modulus *= q
    out = []
    for kind in kinds:
        deg, _, values = specs[kind]
        residues = [_expand_from_values(values(rts, q), q) for q, rts in split]
        coeffs_out = []
        for i in range(deg + 1):
            r, m = 0, 1
            for res, (p, _) in zip(residues, split):
                # CRT combine
                t = (res[i] - r) * pow(m, -1, p) % p
                r += m * t
                m *= p
            if r > m // 2:
                r -= m
            coeffs_out.append(r)
        out.append(coeffs_out)
    return tuple(out)


def _split_primes(coeffs, start_prime):
    """(q, roots mod q) for the primes q > start_prime at which coeffs splits
    into six distinct linear factors, in increasing order."""
    f = RatPoly(coeffs)
    disc = -int(sylvester_resultant(f, f.derivative()))  # (-1)^(6*5/2) Res(f, f')
    q = start_prime
    while True:
        q = _next_prime(q)
        # at a split prime the discriminant is a square of distinct-root
        # differences, so the Euler criterion skips half the primes cheaply
        if pow(disc, (q - 1) // 2, q) == 1 and _splits_completely(coeffs, q):
            yield q, _roots_mod(coeffs, q)


def _next_prime(n):
    n += 1
    while not _is_probable_prime(n):
        n += 1
    return n
