"""Independent oracles used to freeze expected values.

Nothing here shares code with the package paths under test: zeta comes
from an alternating-series acceleration and from raw partial sums with an
integral tail bracket, divisor counts from brute-force enumeration, PSD
instances from explicit congruences.
"""

import math

import numpy as np


def zeta_alternating(s, n: int = 60) -> complex:
    """Accelerated alternating-series evaluation of zeta on Re(s) > 1/2.

    Uses the Chebyshev-weighted partial sums of the eta function; the
    error decays like (3 + sqrt(8))^(-n), far below 1e-14 for n = 60 on
    the strips exercised in the tests.
    """
    s = complex(s)
    d = []
    for k in range(n + 1):
        total = 0
        for i in range(k + 1):
            total += math.factorial(n + i - 1) * 4**i // (
                math.factorial(n - i) * math.factorial(2 * i))
        d.append(n * total)
    acc = 0j
    for k in range(n):
        acc += (-1) ** k * (d[k] - d[n]) / complex(k + 1) ** s
    return -acc / (d[n] * (1.0 - 2.0 ** (1.0 - s)))


def zeta_partial_sum_bracket(sigma: float, terms: int = 10**7):
    """(lower, upper) bracket of zeta(sigma) from a raw partial sum plus
    monotone integral tail bounds, for real sigma > 1."""
    n = np.arange(1, terms + 1, dtype=float)
    partial = float(np.sum(n ** (-sigma)))
    upper_tail = terms ** (1.0 - sigma) / (sigma - 1.0)
    lower_tail = (terms + 1.0) ** (1.0 - sigma) / (sigma - 1.0)
    return partial + lower_tail, partial + upper_tail

def mobius_trial(n: int) -> int:
    """Mobius by naive trial division, no tables."""
    if n == 1:
        return 1
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            count += 1
        else:
            d += 1
    if n > 1:
        count += 1
    return -1 if count % 2 else 1


def primes_trial(count: int) -> list:
    """The first ``count`` primes by trial division, no sieve."""
    out = []
    n = 2
    while len(out) < count:
        for p in out:
            if p * p > n:
                out.append(n)
                break
            if n % p == 0:
                break
        else:
            out.append(n)
        n += 1
    return out


def divisor_counts(limit: int) -> np.ndarray:
    """tau(n) for n = 1..limit by brute-force divisor enumeration."""
    out = np.zeros(limit, dtype=np.int64)
    for n in range(1, limit + 1):
        out[n - 1] = sum(1 for d in range(1, n + 1) if n % d == 0)
    return out


def divisor_function_m(m: int, limit: int) -> np.ndarray:
    """d_m(n) for n = 1..limit by brute-force recursion over divisors."""
    if m == 1:
        return np.ones(limit, dtype=np.int64)
    prev = divisor_function_m(m - 1, limit)
    out = np.zeros(limit, dtype=np.int64)
    for n in range(1, limit + 1):
        out[n - 1] = sum(prev[n // d - 1] for d in range(1, n + 1) if n % d == 0)
    return out


def random_psd(rng, size: int, rank: int | None = None) -> np.ndarray:
    rank = rank or size
    g = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    return g @ g.conj().T


def random_blaschke(rng, degree: int):
    """Zeros in |z| <= 0.85 and a unimodular constant."""
    radii = 0.85 * np.sqrt(rng.uniform(0.0, 1.0, degree))
    phases = rng.uniform(0.0, 2.0 * np.pi, degree)
    zeros = radii * np.exp(1j * phases)
    const = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return zeros, const


def blaschke_eval(zeros, const, z):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, const, dtype=complex)
    for a in zeros:
        out = out * (z - a) / (1.0 - np.conj(a) * z)
    return out


def halfplane_szego_pick(nodes, targets) -> np.ndarray:
    z = np.asarray(nodes, dtype=complex)
    w = np.asarray(targets, dtype=complex)
    return (1.0 - np.outer(w, w.conj())) / (z[:, None] + z.conj()[None, :])
