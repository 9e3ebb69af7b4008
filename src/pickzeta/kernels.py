"""The kernel zoo: Szego kernels of the disc and half-plane, zeta-power
kernels on Re > 1/2, the Mobius-augmented kernel zeta + 1/zeta, and finite
diagonal Dirichlet kernels, with Gram assembly and truncated feature maps.

Conjugation convention, used everywhere in this package: the (i, j) entry
of a kernel matrix is k(x_i, x_j) with k analytic in its first argument
and conjugate-analytic in the second, so for the zeta kernel
k(s, u) = zeta(s + conj(u)).  Transposing the convention conjugates the
matrix and leaves every spectral verdict unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import (
    DEFAULT_ABS_ERR,
    CoefficientSeries,
    HalfPlanePoint,
    power_section,
    zeta,
    zeta_power_coeffs,
    zeta_reciprocal,
)
from .errors import DomainError, TruncationError, ValidationError

SZEGO_DISC = "szego_disc"
SZEGO_HALF_PLANE = "szego_half_plane"
ZETA_POWER = "zeta_power"
ZETA_MOBIUS = "zeta_mobius"
DIAGONAL = "diagonal"

_KINDS = (SZEGO_DISC, SZEGO_HALF_PLANE, ZETA_POWER, ZETA_MOBIUS, DIAGONAL)

# Minimum pairwise distance before two kernel nodes count as duplicates.
NODE_SEPARATION = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Identifies one kernel from the zoo.

    kind            one of the module constants above
    power           exponent m for the zeta-power kernel zeta(s+conj(u))^m
    coeffs          nonnegative series a_m for the diagonal kernel
                    sum a_m m^(-s-conj(u)); required iff kind == DIAGONAL
    """

    kind: str
    power: int = 1
    coeffs: CoefficientSeries | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown kernel kind {self.kind!r}")
        power = self.power
        if isinstance(power, bool) or not isinstance(power, (int, np.integer)) or power < 1:
            raise ValidationError(f"kernel power must be a positive integer; got {power!r}")
        if self.kind == DIAGONAL:
            if self.coeffs is None:
                raise ValidationError("diagonal kernel requires a coefficient series")
            arr = self.coeffs.coeffs
            if np.any(np.abs(arr.imag) > 0) or np.any(arr.real < 0):
                raise ValidationError(
                    "diagonal kernel coefficients must be real and nonnegative"
                )
        elif self.coeffs is not None:
            raise ValidationError(f"{self.kind} kernel takes no coefficient series")

    @property
    def domain_floor(self) -> float | None:
        """Half-plane floor of the kernel's domain; None for the disc."""
        if self.kind == SZEGO_DISC:
            return None
        if self.kind == SZEGO_HALF_PLANE:
            return 0.0
        return 0.5

    def validate_point(self, z) -> complex:
        z = complex(z.value if isinstance(z, HalfPlanePoint) else z)
        if self.kind == SZEGO_DISC:
            if not abs(z) < 1.0:
                raise DomainError(f"disc kernel point {z} must satisfy |z| < 1")
            return z
        return HalfPlanePoint(z, self.domain_floor).value

    def has_coefficients(self) -> bool:
        return self.kind in (ZETA_POWER, ZETA_MOBIUS, DIAGONAL)

    def coefficient_series(self, trunc: int) -> CoefficientSeries:
        """The Dirichlet coefficients a_m of the kernel, truncated at trunc."""
        if self.kind == ZETA_POWER:
            return zeta_power_coeffs(self.power, trunc)
        if self.kind == ZETA_MOBIUS:
            return CoefficientSeries.one_plus_mobius(trunc)
        if self.kind == DIAGONAL:
            if trunc > self.coeffs.truncation:
                raise ValidationError(
                    f"requested {trunc} coefficients, series holds {self.coeffs.truncation}"
                )
            return CoefficientSeries(self.coeffs.coeffs[:trunc], self.coeffs.label)
        raise ValidationError(f"{self.kind} kernel has no Dirichlet coefficients")


def szego_disc() -> KernelSpec:
    return KernelSpec(SZEGO_DISC)


def szego_half_plane() -> KernelSpec:
    return KernelSpec(SZEGO_HALF_PLANE)


def zeta_power_kernel(power: int = 1) -> KernelSpec:
    return KernelSpec(ZETA_POWER, power=power)


def zeta_mobius_kernel() -> KernelSpec:
    return KernelSpec(ZETA_MOBIUS)


def diagonal_kernel(coeffs: CoefficientSeries) -> KernelSpec:
    return KernelSpec(DIAGONAL, coeffs=coeffs)


def kernel_eval(spec: KernelSpec, s, u) -> complex:
    """Pointwise kernel value k(s, u) = k analytic in s, conjugate in u.

    Hermitian symmetry kernel_eval(k, u, s) == conj(kernel_eval(k, s, u))
    holds exactly in floating point because conjugation commutes with every
    arithmetic operation used.  Zeta terms are evaluated to
    DEFAULT_ABS_ERR / (3 m) for zeta^m and DEFAULT_ABS_ERR / 2 each for
    zeta + 1/zeta.
    """
    zs = spec.validate_point(s)
    zu = spec.validate_point(u)
    if spec.kind == SZEGO_DISC:
        return 1.0 / (1.0 - zs * np.conj(zu))
    if spec.kind == SZEGO_HALF_PLANE:
        return 1.0 / (zs + np.conj(zu))
    w = zs + np.conj(zu)
    if spec.kind == ZETA_POWER:
        return zeta(w, DEFAULT_ABS_ERR / (3.0 * spec.power)) ** spec.power
    if spec.kind == ZETA_MOBIUS:
        return zeta(w, 0.5 * DEFAULT_ABS_ERR) + zeta_reciprocal(w, 0.5 * DEFAULT_ABS_ERR)
    # Diagonal kernels are finite Dirichlet polynomials: the sum is exact.
    arr = spec.coeffs.coeffs.real
    return complex(np.sum(arr * power_section(w, arr.size)))


def gram_matrix(spec: KernelSpec, points) -> np.ndarray:
    """Hermitian Gram matrix [k(x_i, x_j)] over a list of distinct points."""
    pts = [spec.validate_point(p) for p in points]
    k = len(pts)
    if k == 0:
        raise ValidationError("gram_matrix needs at least one point")
    for i in range(k):
        for j in range(i + 1, k):
            if abs(pts[i] - pts[j]) <= NODE_SEPARATION:
                raise ValidationError(f"duplicate points at indices {i}, {j}")
    return hermitian_fill(k, lambda i, j: kernel_eval(spec, pts[i], pts[j]))


def hermitian_fill(k: int, entry) -> np.ndarray:
    """The k x k Hermitian matrix with entry(i, j) on and above the
    diagonal and its conjugate below."""
    out = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            val = entry(i, j)
            out[i, j] = val
            out[j, i] = np.conj(val)
    return out


@dataclass(frozen=True)
class FeatureVector:
    """Truncated feature coordinates sqrt(a_m) m^(-s), m = 1..N.

    Inner products of feature vectors reproduce the kernel up to the purely
    positive omitted tail, so <f(s), f(s)> <= k(s, s) for every truncation.
    ``tail_bound`` bounds sum_{m>N} a_m m^(-2 Re s).
    """

    coords: np.ndarray
    point: complex
    kernel: KernelSpec
    tail_bound: float

    @property
    def truncation(self) -> int:
        return int(self.coords.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def inner(self, other: "FeatureVector") -> complex:
        """<self, other> with the second slot conjugated."""
        if self.truncation != other.truncation:
            raise ValidationError("feature truncations differ")
        return complex(np.vdot(other.coords, self.coords))


def _diagonal_tail_bound(spec: KernelSpec, sigma: float, partial_diag: float) -> float:
    """Bound on sum_{m>trunc} a_m m^(-2 sigma) for coefficient kernels."""
    two_sigma = 2.0 * sigma
    if spec.kind == ZETA_POWER:
        closed = zeta(two_sigma).real ** spec.power
        return max(closed - partial_diag, 0.0)
    if spec.kind == ZETA_MOBIUS:
        closed = (zeta(two_sigma) + zeta_reciprocal(two_sigma)).real
        return max(closed - partial_diag, 0.0)
    return 0.0  # finite diagonal series: nothing beyond the truncation


def feature_map(spec: KernelSpec, s, trunc: int,
                max_tail: float | None = None) -> FeatureVector:
    """Truncated feature embedding of a point for a coefficient kernel.

    Raises TruncationError when ``max_tail`` is given and the analytic
    tail bound exceeds it.
    """
    if not spec.has_coefficients():
        raise ValidationError(f"{spec.kind} kernel has no Dirichlet feature map")
    z = spec.validate_point(s)
    series = spec.coefficient_series(trunc)
    amps = np.sqrt(series.coeffs.real)
    m = np.arange(1, trunc + 1, dtype=float)
    coords = amps * power_section(z, trunc)
    partial_diag = float(np.sum(series.coeffs.real * m ** (-2.0 * z.real)))
    tail = _diagonal_tail_bound(spec, z.real, partial_diag)
    if max_tail is not None and tail > max_tail:
        raise TruncationError(
            f"feature tail bound {tail:.3e} exceeds {max_tail:.3e} at truncation {trunc}",
            suggested_trunc=2 * trunc,
        )
    return FeatureVector(coords, z, spec, tail)
