"""Riemann zeta evaluation and Dirichlet-series arithmetic.

Everything here is elementary number theory at desk scale: zeta and its
reciprocal on Re(s) > 1, the Mobius function, Dirichlet convolution of
coefficient sequences, coefficients of zeta powers, and partial sums over
smooth integers together with their Euler-product limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AccuracyError, DomainError, ValidationError

# Guard band at the abscissa Re(s) = 1: the pole at s = 1 makes unguarded
# evaluation ill-conditioned, and every kernel use-case sits strictly inside.
POLE_GUARD = 1e-6

DEFAULT_ABS_ERR = 1e-12

# B_{2k} / (2k)! for k = 1..6, the correction weights of the summation
# formula below.  The first omitted weight |B_14|/14! controls the cutoff.
_BERNOULLI_WEIGHTS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
)
_NEXT_WEIGHT = 7.0 / 6.0 / math.factorial(14)

_CUTOFF_CAP = 10**7

# Largest n that mobius factors: trial division sieves to sqrt(n).
_FACTOR_CAP = 10**14


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point constrained to the open right half-plane {Re > floor}."""

    value: complex
    floor: float = 0.0

    def __post_init__(self):
        if not (self.value.real > self.floor):
            raise DomainError(
                f"point {self.value} must satisfy Re > {self.floor}"
            )


def _primes(limit: int) -> np.ndarray:
    """Primes <= limit, by the sieve of Eratosthenes."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


def _first_primes(count: int) -> list:
    """The first ``count`` primes, sieved to Rosser's bound
    p_n < n (ln n + ln ln n), which holds for n >= 6."""
    if count < 1:
        return []
    bound = 13 if count < 6 else int(count * (math.log(count) + math.log(math.log(count))))
    return _primes(bound)[:count].tolist()


def power_section(s, trunc: int) -> np.ndarray:
    """The section n^(-s) for n = 1..trunc; array s adds leading axes."""
    logn = np.log(np.arange(1, trunc + 1, dtype=float))
    return np.exp(np.multiply.outer(-s, logn))


def _rising(s: complex, terms: int) -> complex:
    out = 1.0 + 0.0j
    for j in range(terms):
        out *= s + j
    return out


def zeta(s, target_abs_err: float = DEFAULT_ABS_ERR) -> complex:
    """Riemann zeta on Re(s) > 1 + POLE_GUARD, to ``target_abs_err`` absolute.

    Uses Euler-Maclaurin summation: a partial sum to an adaptive cutoff M,
    the integral tail M^(1-s)/(s-1) plus M^(-s)/2, and Bernoulli
    corrections through B_12.  M is chosen so the first omitted correction
    term is below the target; this keeps the cost uniform even close to
    the abscissa Re(s) = 1 where the raw series is uselessly slow.  A
    cutoff that is not finite or exceeds _CUTOFF_CAP raises AccuracyError.
    """
    s = complex(s)
    if target_abs_err <= 0:
        raise ValidationError("target_abs_err must be positive")
    if not s.real > 1.0 + POLE_GUARD:
        raise DomainError(f"zeta requires Re(s) > {1.0 + POLE_GUARD}; got Re(s) = {s.real}")

    sigma = s.real
    # Cutoff from |B_14|/14! * |(s)_13| * M^(-sigma-13) <= target / 4.
    lead = _NEXT_WEIGHT * abs(_rising(s, 13))
    cutoff = max((4.0 * lead / target_abs_err) ** (1.0 / (sigma + 13.0)), abs(s.imag) / 3.0)
    if not math.isfinite(cutoff):
        raise AccuracyError(f"cutoff is not finite at s = {s}")
    M = max(12, math.ceil(cutoff))
    if M > _CUTOFF_CAP:
        raise AccuracyError(
            f"cutoff {M} exceeds budget {_CUTOFF_CAP} for target {target_abs_err}"
        )

    partial = complex(np.sum(power_section(s, M - 1)))
    mf = float(M)
    head = mf ** (1.0 - s) / (s - 1.0) + 0.5 * mf ** (-s)

    corr = 0.0 + 0.0j
    rising = s
    power = mf ** (-s - 1.0)
    for k, w in enumerate(_BERNOULLI_WEIGHTS):
        corr += w * rising * power
        rising *= (s + 2 * k + 1) * (s + 2 * k + 2)
        power /= mf * mf

    value = partial + head + corr
    omitted = _NEXT_WEIGHT * abs(rising) * mf ** (-sigma - 13.0)
    # Standard remainder bound: |R| <= |first omitted term| * |s+13|/(sigma+13).
    remainder = omitted * (abs(s + 13.0) / (sigma + 13.0) + 1.0)
    rounding = 8.0 * np.finfo(float).eps * (abs(partial) + abs(head) + 1.0)
    if remainder + rounding > target_abs_err:
        raise AccuracyError(
            f"estimated error {remainder + rounding:.3e} exceeds target "
            f"{target_abs_err:.3e} at s = {s}"
        )
    return value


def zeta_reciprocal(s, target_abs_err: float = DEFAULT_ABS_ERR) -> complex:
    """1/zeta(s) on Re(s) > 1, via the reciprocal of :func:`zeta`.

    The Mobius series sum mu(n) n^(-s) converges to the same value but far
    too slowly for production accuracy; it survives as a test oracle.
    """
    z = zeta(s, 0.5 * target_abs_err)
    mag = abs(z)
    if mag < 1.0:
        # |d(1/z)| = |dz| / |z|^2; retarget so the quotient meets the goal.
        z = zeta(s, 0.5 * target_abs_err * mag * mag)
    return 1.0 / z


def mobius(n: int) -> int:
    """Mobius function: 1 at n=1, (-1)^j on squarefree n with j prime
    factors, 0 when a square divides n."""
    if n < 1:
        raise DomainError("mobius is defined on positive integers")
    if n > _FACTOR_CAP:
        raise AccuracyError(f"n = {n} exceeds factorization limit {_FACTOR_CAP}")
    if n == 1:
        return 1
    remaining = n
    factors = 0
    for p in _primes(math.isqrt(n)).tolist():
        if remaining % p == 0:
            remaining //= p
            if remaining % p == 0:
                return 0
            factors += 1
    if remaining > 1:
        factors += 1
    return -1 if factors % 2 else 1


def mobius_range(limit: int) -> np.ndarray:
    """mu(0..limit) as an int array (mu(0) set to 0), by sieving."""
    if limit < 1:
        raise ValidationError("limit must be >= 1")
    mu = np.ones(limit + 1, dtype=np.int64)
    for p in _primes(limit):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    mu[0] = 0
    return mu


@dataclass(frozen=True)
class CoefficientSeries:
    """Truncated Dirichlet coefficient sequence (a_1, ..., a_N).

    ``coeffs[0]`` corresponds to the n = 1 term.
    """

    coeffs: np.ndarray
    label: str = ""
    truncation: int = field(init=False, default=0)

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("coefficient series must be a nonempty 1-d sequence")
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "truncation", int(arr.size))

    def term(self, n: int) -> complex:
        """Coefficient a_n (1-indexed)."""
        if not 1 <= n <= self.truncation:
            raise ValidationError(f"index {n} outside 1..{self.truncation}")
        return complex(self.coeffs[n - 1])

    @staticmethod
    def ones(trunc: int) -> "CoefficientSeries":
        return CoefficientSeries(np.ones(trunc), "zeta")

    @staticmethod
    def unit(trunc: int) -> "CoefficientSeries":
        e = np.zeros(trunc)
        e[0] = 1.0
        return CoefficientSeries(e, "unit")

    @staticmethod
    def mobius(trunc: int) -> "CoefficientSeries":
        return CoefficientSeries(mobius_range(trunc)[1:].astype(float), "mobius")

    @staticmethod
    def one_plus_mobius(trunc: int) -> "CoefficientSeries":
        return CoefficientSeries(1.0 + mobius_range(trunc)[1:].astype(float), "one_plus_mobius")


def dirichlet_convolve(a: CoefficientSeries, b: CoefficientSeries) -> CoefficientSeries:
    """Dirichlet convolution c_n = sum_{d | n} a_d b_{n/d}, n <= N."""
    if a.truncation != b.truncation:
        raise ValidationError(
            f"truncation mismatch: {a.truncation} != {b.truncation}"
        )
    n = a.truncation
    out = np.zeros(n, dtype=complex)
    for d in range(1, n + 1):
        ad = a.coeffs[d - 1]
        if ad == 0:
            continue
        q = n // d
        out[d - 1 :: d] += ad * b.coeffs[:q]
    label = f"({a.label})*({b.label})" if a.label or b.label else ""
    return CoefficientSeries(out, label)


def zeta_power_coeffs(power: int, trunc: int) -> CoefficientSeries:
    """Coefficients d_m(n) of zeta^m, the m-fold convolution of all ones.

    d_m is multiplicative with d_m(p^a) = C(a+m-1, m-1).  Each prime power
    q = p^a swaps the factor C(a+m-2, m-1) of the multiples of q for
    C(a+m-1, m-1); every step is exact while d_m(n) < 2^53.
    """
    if power < 1:
        raise ValidationError("power must be a positive integer")
    d = np.ones(trunc + 1)
    if power > 1:
        for p in _primes(trunc).tolist():
            q, a = p, 1
            while q <= trunc:
                if a > 1:
                    d[q::q] /= math.comb(a + power - 2, power - 1)
                d[q::q] *= math.comb(a + power - 1, power - 1)
                q, a = q * p, a + 1
    return CoefficientSeries(d[1:], f"zeta^{power}")


def smooth_numbers(n: int, limit: int) -> np.ndarray:
    """All integers <= limit whose prime factors are among the first n primes."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    if limit < 1:
        return np.array([], dtype=np.int64)
    vals = [1]
    for p in _first_primes(n):
        extended = []
        for v in vals:
            w = v
            while w <= limit:
                extended.append(w)
                w *= p
        vals = extended
    return np.array(sorted(vals), dtype=np.int64)


def smooth_partial_sum(n: int, sigma: float, limit: int) -> float:
    """Sum of j^(-sigma) over the p_n-smooth integers j <= limit.

    Increases with ``limit`` and converges to the Euler product
    prod_{i<=n} (1 - p_i^(-sigma))^(-1); summation runs smallest-exponent
    last (descending j) so the accumulation is stable.
    """
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    vals = smooth_numbers(n, limit).astype(float)
    return float(np.sum(np.exp(-sigma * np.log(vals[::-1]))))


def euler_product(n: int, sigma: float) -> float:
    """The closed product prod_{i<=n} (1 - p_i^(-sigma))^(-1)."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    out = 1.0
    for p in _first_primes(n):
        out /= 1.0 - p ** (-sigma)
    return out
