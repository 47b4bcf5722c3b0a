"""Seeded inputs for every workload, and their fingerprint.

The paper's Section 5 workload is the characteristic polynomial of a
random symmetric 0-1 matrix.  ``repro.charpoly`` computes it with the
O(n^4) division-free Berkowitz recursion in Python integers, which
takes about a second at degree 70; the benchmark needs dozens of these
per run, so it runs the same recursion here modulo a batch of word-size
primes with NumPy and lifts the result by the Chinese remainder
theorem.  The prime product exceeds twice a Hadamard bound on every
coefficient, so the lift is exact: the polynomials are identical to
``repro.bench.workloads.square_free_characteristic_input(n, s).poly``
(same matrix stream, same square-free retry rule), which every traced
run confirms against the library for each degree it generates.

Every workload's inputs are hashed (:func:`fingerprint`) and the hash
travels with each result, so a change to the generator cannot change a
workload unnoticed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from functools import lru_cache

import numpy as np

#: The paper's matrix seeds ("for each degree 3 different polynomials").
PAPER_SEEDS = (11, 23, 47)
#: The paper's precision grid, in decimal digits.
PAPER_MU_DIGITS = (4, 8, 16, 24, 32)
#: Offset between the matrix seeds of consecutive benchmark seeds.
SEED_STRIDE = 1009


def digits_to_bits(digits: int) -> int:
    """``ceil(digits * log2(10))`` — the paper's decimal mu in bits
    (the same conversion as ``repro.core.scaling.digits_to_bits``)."""
    return math.ceil(digits * math.log2(10))


def matrix_seeds(seed: int, count: int = 3) -> list[int]:
    """Matrix seeds for benchmark seed ``seed``: seed 0 gives the
    paper's (11, 23, 47); each further seed shifts them by a prime
    stride, and ``count`` beyond three continues the pattern."""
    base = [PAPER_SEEDS[i % 3] + (i // 3) * 100_003 for i in range(count)]
    return [s + SEED_STRIDE * seed for s in base]


def symmetric_01_matrix(n: int, seed: int) -> list[list[int]]:
    """The paper's random symmetric 0-1 matrix (the same stream as
    ``repro.charpoly.random_symmetric_01_matrix``)."""
    rng = random.Random(f"sym01-{n}-{seed}")
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.randint(0, 1)
    return a


@lru_cache(maxsize=None)
def _primes_below(limit: int, count: int) -> tuple[int, ...]:
    out: list[int] = []
    c = limit - 1
    while len(out) < count:
        if all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
            out.append(c)
        c -= 2
    return tuple(out)


def _coefficient_bound(n: int) -> int:
    """``max_k C(n, k) * k^(k/2)``: every coefficient of the char poly
    of an n x n 0-1 matrix is a sum of C(n, k) principal k x k minors,
    each at most k^(k/2) in size (Hadamard)."""
    return max(math.comb(n, k) * (math.isqrt(k ** k) + 1)
               for k in range(n + 1))


def charpoly_01(a: list[list[int]]) -> list[int]:
    """Exact ``det(x I - A)`` of a 0-1 matrix, coefficients low to high."""
    n = len(a)
    need = 2 * _coefficient_bound(n) + 1
    primes: list[int] = []
    prod = 1
    for p in _primes_below(1 << 24, 64):
        if prod > need:
            break
        primes.append(p)
        prod *= p
    if prod <= need:
        raise ValueError(f"degree {n} needs more than 64 primes")
    P = np.array(primes, dtype=np.int64)
    A = np.array(a, dtype=np.int64)
    # Berkowitz, highest degree first, one column per prime.  Entries
    # stay below 2^24, so products fit 48 bits and every sum of at most
    # n + 1 products fits int64.
    poly = np.stack([np.ones_like(P), (-A[0, 0]) % P])
    for k in range(1, n):
        M, R, vec = A[:k, :k], A[k, :k], np.repeat(A[:k, k, None],
                                                   len(P), axis=1)
        t = np.zeros((k + 2, len(P)), dtype=np.int64)
        t[0] = 1
        t[1] = (-A[k, k]) % P
        for j in range(2, k + 2):
            t[j] = (-(R @ vec)) % P
            if j < k + 1:
                vec = (M @ vec) % P
        new = np.zeros((k + 2, len(P)), dtype=np.int64)
        for i in range(k + 1):
            new[i:] += t[:k + 2 - i] * poly[i]
        poly = new % P
    # Chinese remainder lift into the symmetric range.
    basis = []
    for p in primes:
        m = prod // p
        basis.append(m * pow(m, -1, p))
    out = []
    for row in poly[::-1].tolist():
        c = sum(r * b for r, b in zip(row, basis)) % prod
        out.append(c - prod if c > prod // 2 else c)
    return out


def _is_square_free(coeffs: list[int]) -> bool:
    """``gcd(p, p') == 1``, decided modulo a large prime; a nontrivial
    modular gcd (rare) is settled exactly by the library."""
    q = (1 << 61) - 1
    f = [c % q for c in coeffs]
    g = [(i * c) % q for i, c in enumerate(coeffs)][1:]
    while g and g[-1] == 0:
        g.pop()
    while g:
        inv = pow(g[-1], -1, q)
        while len(f) >= len(g):
            s = f[-1] * inv % q
            off = len(f) - len(g)
            for i, c in enumerate(g):
                f[off + i] = (f[off + i] - s * c) % q
            f.pop()
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    if len(f) == 1:
        return True
    from repro.poly.dense import IntPoly
    from repro.poly.gcd import is_square_free

    return is_square_free(IntPoly(coeffs))


@lru_cache(maxsize=256)
def paper_charpoly(n: int, seed: int) -> tuple[int, ...]:
    """The square-free paper charpoly for ``(n, seed)``: retries
    ``seed + 1000`` while the polynomial has a repeated root, as
    ``square_free_characteristic_input`` does."""
    s = seed
    for _ in range(64):
        coeffs = charpoly_01(symmetric_01_matrix(n, s))
        if _is_square_free(coeffs):
            return tuple(coeffs)
        s += 1000
    raise RuntimeError(f"no square-free instance found near seed {seed}")


# -- workloads ---------------------------------------------------------------

def _job(n: int, mseed: int, bits: int) -> dict:
    return {"coeffs": list(paper_charpoly(n, mseed)), "bits": bits,
            "degree": n, "mseed": mseed}


def charpoly_jobs(degrees, mu_digits: int, seed: int) -> list[dict]:
    """The paper's grid: three matrices per degree."""
    bits = digits_to_bits(mu_digits)
    return [_job(n, s, bits) for n in degrees for s in matrix_seeds(seed)]


def serve_paper_rounds(seed: int, rounds: int) -> list[list[dict]]:
    """``rounds`` rounds of 61 requests, one per degree 10..70.

    Round ``r`` asks degree index ``d`` at mu digit index
    ``(d + r) % 5``, so neighbouring degrees get different precisions
    and any five consecutive rounds cover the whole degree x mu grid
    once; each block of five rounds uses a fresh matrix seed.  Every
    request is distinct.  The degree order inside a round is shuffled
    by ``seed``."""
    degrees = list(range(10, 71))
    mseeds = matrix_seeds(seed, count=(rounds + 4) // 5)
    rng = random.Random(f"perfbench-serve-paper-{seed}")
    out = []
    for r in range(rounds):
        round_ = []
        for d, n in enumerate(degrees):
            digits = PAPER_MU_DIGITS[(d + r) % len(PAPER_MU_DIGITS)]
            round_.append(_job(n, mseeds[r // 5], digits_to_bits(digits)))
        rng.shuffle(round_)
        out.append(round_)
    return out


def fingerprint(jobs) -> str:
    """sha256 over the ordered ``(coeffs, bits)`` pairs of a workload."""
    payload = json.dumps([[[str(c) for c in j["coeffs"]], j["bits"]]
                          for j in jobs], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
