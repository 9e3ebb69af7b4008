"""Pick matrices and machine-checked positivity certificates.

Builds Pick matrices [(1 - w_i conj(w_j)) k(x_i, x_j)] for any kernel in
the zoo, certifies positive semidefiniteness with explicit eigenvalue
margins and witness vectors, transfers half-plane problems to the disc
through the Cayley map (a rank-one Schur-product congruence, so verdict
and rank are preserved), and produces the two-point certificates showing
that the zeta-power kernels admit data that is kernel-feasible yet
half-plane infeasible.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .dirichlet import zeta
from .errors import DomainError, ValidationError
from .kernels import (
    NODE_SEPARATION,
    SZEGO_HALF_PLANE,
    KernelSpec,
    gram_matrix,
    szego_half_plane,
    zeta_power_kernel,
)

DEFAULT_PSD_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-8

# Verdicts whose deciding quantity sits within this factor of its tolerance
# are flagged inconclusive rather than silently asserted.
BORDERLINE_FACTOR = 10.0

CONVENTION = (
    "pick[i][j] = (1 - w_i conj(w_j)) * k(x_i, x_j); "
    "k analytic in the first slot, conjugate-analytic in the second"
)


@dataclass(frozen=True)
class InterpolationProblem:
    """Nodes, targets, kernel and tolerances for one Pick problem."""

    nodes: tuple
    targets: tuple
    kernel: KernelSpec
    psd_tol: float = DEFAULT_PSD_TOL
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        nodes = tuple(complex(z) for z in self.nodes)
        targets = tuple(complex(w) for w in self.targets)
        if len(nodes) != len(targets) or len(nodes) < 1:
            raise ValidationError("need equally many nodes and targets, at least one")
        for name, values in (("nodes", nodes), ("targets", targets)):
            if not all(map(cmath.isfinite, values)):
                raise ValidationError(f"{name} must be finite; got {values}")
        for name in ("psd_tol", "rank_tol"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValidationError(f"{name} must be finite and positive; got {value}")
        for z in nodes:
            self.kernel.validate_point(z)
        for i, j in itertools.combinations(range(len(nodes)), 2):
            if abs(nodes[i] - nodes[j]) <= NODE_SEPARATION:
                raise ValidationError(f"nodes {i} and {j} coincide")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "targets", targets)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def require_disc_targets(self):
        for w in self.targets:
            if not abs(w) < 1.0:
                raise DomainError(f"target {w} must lie in the open unit disc")


@dataclass(frozen=True)
class PickCertificate:
    """Eigenvalue certificate for a Hermitian matrix.

    The package's one PSD and rank rule: psd is min_eig >= -psd_tol *
    max(1, spectral_norm), numerical_rank counts eigenvalues above rank_tol *
    spectral_norm.  margin is min_eig / spectral_norm (or the raw minimum
    eigenvalue if the matrix is zero).  The witness is a unit eigenvector of
    the minimum eigenvalue, so witness* M witness == min_eig; eigenvalues
    (ascending) and eigenvectors (columns) are the whole decomposition.
    """

    matrix: np.ndarray
    min_eigenvalue: float
    max_eigenvalue: float
    spectral_norm: float
    numerical_rank: int
    psd: bool
    margin: float
    inconclusive: bool
    psd_tol: float
    rank_tol: float
    witness: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    convention: str = CONVENTION

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])


def certify_psd(matrix, psd_tol: float = DEFAULT_PSD_TOL,
                rank_tol: float = DEFAULT_RANK_TOL) -> PickCertificate:
    """Decide PSD-ness of a Hermitian matrix with margins and a witness."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError("certify_psd needs a nonempty square matrix")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.conj().T).max()) > 1e-12 * scale:
        raise ValidationError("matrix is not Hermitian within tolerance")
    herm = 0.5 * (m + m.conj().T)
    eigvals, eigvecs = np.linalg.eigh(herm)
    lo = float(eigvals[0])
    hi = float(eigvals[-1])
    spectral = float(np.abs(eigvals).max())
    psd = lo >= -psd_tol * max(1.0, spectral)
    rank = int(np.sum(eigvals > rank_tol * spectral)) if spectral > 0 else 0
    margin = lo / spectral if spectral > 0 else lo
    inconclusive = abs(lo) < BORDERLINE_FACTOR * psd_tol * max(1.0, spectral)
    witness = eigvecs[:, 0] / np.linalg.norm(eigvecs[:, 0])
    return PickCertificate(
        matrix=herm,
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        spectral_norm=spectral,
        numerical_rank=rank,
        psd=psd,
        margin=margin,
        inconclusive=inconclusive,
        psd_tol=psd_tol,
        rank_tol=rank_tol,
        witness=witness,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
    )


def pick_matrix(problem: InterpolationProblem) -> np.ndarray:
    """The Pick matrix [(1 - w_i conj(w_j)) k(x_i, x_j)] of a problem."""
    gram = gram_matrix(problem.kernel, problem.nodes)
    w = np.asarray(problem.targets, dtype=complex)
    return (1.0 - np.outer(w, w.conj())) * gram


def pick_certificate(problem: InterpolationProblem) -> PickCertificate:
    return certify_psd(pick_matrix(problem), problem.psd_tol, problem.rank_tol)


def disc_pick_matrix(nodes, targets) -> np.ndarray:
    """The disc Szego Pick matrix [(1 - w_i conj(w_j)) / (1 - z_i conj(z_j))]."""
    z = np.asarray(nodes, dtype=complex)
    w = np.asarray(targets, dtype=complex)
    return (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj()))


def cayley(z) -> complex:
    """Cayley map (z - 1)/(z + 1) from the right half-plane onto the disc."""
    z = complex(z)
    if not z.real > 0:
        raise DomainError(f"cayley requires Re(z) > 0; got {z}")
    return (z - 1.0) / (z + 1.0)


def inverse_cayley(w) -> complex:
    """Inverse Cayley map (1 + w)/(1 - w) from the disc onto Re > 0."""
    w = complex(w)
    if not abs(w) < 1.0:
        raise DomainError(f"inverse cayley requires |w| < 1; got {w}")
    return (1.0 + w) / (1.0 - w)


def schur_product(a, b) -> np.ndarray:
    """Entrywise (Schur) product; PSD factors give a PSD product."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch {a.shape} vs {b.shape}")
    return a * b


@dataclass(frozen=True)
class CayleyTransfer:
    """Half-plane Pick matrix P, its disc image Q, and the rank-one
    positive factor R with Q = P o R (entrywise)."""

    half_plane: np.ndarray
    disc: np.ndarray
    factor: np.ndarray
    cert_half_plane: PickCertificate
    cert_disc: PickCertificate
    factorization_residual: float

    @property
    def psd_match(self) -> bool:
        return self.cert_half_plane.psd == self.cert_disc.psd

    @property
    def rank_match(self) -> bool:
        return self.cert_half_plane.numerical_rank == self.cert_disc.numerical_rank

    @property
    def borderline(self) -> bool:
        return self.cert_half_plane.inconclusive or self.cert_disc.inconclusive


def cayley_transfer(problem: InterpolationProblem) -> CayleyTransfer:
    """Transfer a half-plane Szego Pick problem to the disc.

    Q = P o R with R[i][j] = (x_i + 1)(conj(x_j) + 1)/2, a rank-one PSD
    matrix with no zero entries, i.e. Q is a diagonal congruence of P:
    positivity verdict and rank agree exactly.
    """
    if problem.kernel.kind != SZEGO_HALF_PLANE:
        raise ValidationError("cayley_transfer expects the half-plane Szego kernel")
    nodes = np.asarray(problem.nodes, dtype=complex)
    p = pick_matrix(problem)
    v = nodes + 1.0
    factor = np.outer(v, v.conj()) / 2.0
    q = disc_pick_matrix([cayley(z) for z in nodes], problem.targets)
    residual = float(np.abs(q - p * factor).max())
    cert_p = certify_psd(p, problem.psd_tol, problem.rank_tol)
    cert_q = certify_psd(q, problem.psd_tol, problem.rank_tol)
    return CayleyTransfer(p, q, factor, cert_p, cert_q, residual)


@dataclass(frozen=True)
class CounterexampleCertificate:
    """Two-point data that is feasible for a zeta-power kernel but
    infeasible for the half-plane:  [(1 - w_i conj(w_j)) zeta(x_i+x_j)^m]
    is PSD while the Szego Pick matrix of the same data is not."""

    power: int
    nodes: tuple
    targets: tuple
    window: tuple
    kernel_matrix: np.ndarray
    szego_matrix: np.ndarray
    kernel_cert: PickCertificate
    szego_cert: PickCertificate
    kernel_det: float
    szego_det: float
    det_lower_bound: float

    @property
    def holds(self) -> bool:
        return self.kernel_cert.psd and not self.szego_cert.psd

    @property
    def inconclusive(self) -> bool:
        return self.kernel_cert.inconclusive or self.szego_cert.inconclusive


def counterexample_window() -> tuple:
    """Admissible |w2| interval (1/3, sqrt(1 - zeta(3)^2/(zeta(2) zeta(4))))."""
    ratio = (zeta(3.0) ** 2 / (zeta(2.0) * zeta(4.0))).real
    return (1.0 / 3.0, float(np.sqrt(1.0 - ratio)))


def two_point_counterexample(power: int, w2: complex,
                             psd_tol: float = DEFAULT_PSD_TOL,
                             rank_tol: float = DEFAULT_RANK_TOL) -> CounterexampleCertificate:
    """Certified failure of the two-point Pick property for zeta^m.

    Uses nodes (1, 2) and targets (0, w2) with 1/3 < |w2| < the computed
    window bound.  Both verdicts are produced twice: by explicit 2x2
    determinants with diagonal positivity, and by eigenvalue certificates.
    """
    if power < 1:
        raise ValidationError("power must be a positive integer")
    window = counterexample_window()
    mod = abs(complex(w2))
    if not window[0] < mod < window[1]:
        raise DomainError(
            f"|w2| = {mod:.6f} outside the admissible window "
            f"({window[0]:.6f}, {window[1]:.6f})"
        )
    nodes = (1.0 + 0.0j, 2.0 + 0.0j)
    targets = (0.0 + 0.0j, complex(w2))
    z2 = zeta(2.0).real
    z3 = zeta(3.0).real
    z4 = zeta(4.0).real
    factor = 1.0 - mod * mod

    szego_problem = InterpolationProblem(nodes, targets, szego_half_plane(), psd_tol, rank_tol)
    kernel_problem = replace(szego_problem, kernel=zeta_power_kernel(power))
    km = pick_matrix(kernel_problem)
    sm = pick_matrix(szego_problem)
    kernel_det = (z2 ** power) * factor * (z4 ** power) - z3 ** (2 * power)
    szego_det = factor / 8.0 - 1.0 / 9.0
    lower = z3 ** (2 * power) * ((z2 * z4 / z3 ** 2) * factor - 1.0)
    return CounterexampleCertificate(
        power=power,
        nodes=nodes,
        targets=targets,
        window=window,
        kernel_matrix=km,
        szego_matrix=sm,
        kernel_cert=certify_psd(km, psd_tol, rank_tol),
        szego_cert=certify_psd(sm, psd_tol, rank_tol),
        kernel_det=kernel_det,
        szego_det=szego_det,
        det_lower_bound=lower,
    )


@dataclass(frozen=True)
class SearchGrid:
    """Finite grid for the counterexample search."""

    nodes: tuple = (0.6, 0.8, 1.0, 1.5, 2.0, 3.0)
    target_moduli: tuple = tuple(0.05 * k for k in range(1, 20))
    target_phases: tuple = (0.0, np.pi / 2.0, np.pi)


@dataclass(frozen=True)
class CounterexampleWitness:
    node1: complex
    node2: complex
    target1: complex
    target2: complex
    kernel_margin: float
    szego_margin: float


def counterexample_search(kernel: KernelSpec, grid: SearchGrid | None = None,
                          psd_tol: float = DEFAULT_PSD_TOL,
                          rank_tol: float = DEFAULT_RANK_TOL) -> list:
    """Enumerate two-point data (first target 0) where the kernel Pick
    matrix is PSD but the half-plane Szego Pick matrix is not, neither
    verdict inconclusive.  An empty list is a valid result.
    """
    grid = grid or SearchGrid()
    floor = kernel.domain_floor
    if floor is None:
        raise ValidationError("counterexample search runs on half-plane kernels")
    szego = szego_half_plane()
    found = []
    for l1, l2 in itertools.permutations(grid.nodes, 2):
        if not (l1 > floor and l2 > floor):
            continue
        gram_k = gram_matrix(kernel, (l1, l2))
        gram_s = gram_matrix(szego, (l1, l2))
        for mod in grid.target_moduli:
            for phase in grid.target_phases:
                w2 = mod * np.exp(1j * phase)
                w = np.array([0.0, w2])
                mul = 1.0 - np.outer(w, w.conj())
                cert_k = certify_psd(mul * gram_k, psd_tol, rank_tol)
                cert_s = certify_psd(mul * gram_s, psd_tol, rank_tol)
                if (cert_k.psd and not cert_s.psd
                        and not (cert_k.inconclusive or cert_s.inconclusive)):
                    found.append(CounterexampleWitness(
                        complex(l1), complex(l2), 0j, complex(w2),
                        cert_k.margin, cert_s.margin))
    found.sort(key=lambda w: (w.node1.real, w.node1.imag, w.node2.real, w.node2.imag,
                              abs(w.target2), w.target2.real, w.target2.imag))
    return found


@dataclass(frozen=True)
class NecessaryConditions:
    """The two one-directional necessary conditions for interpolation by a
    contractive multiplier among Dirichlet series bounded on Re > 0:

    cond_i   [(1 - w_i conj(w_j)) zeta(x_i + conj(x_j))] is PSD
    cond_ii  [(1 - w_i conj(w_j)) / (x_i + conj(x_j))] is PSD with full rank

    Neither implies the other, and neither verdict claims a multiplier
    exists.
    """

    cond_i: PickCertificate
    cond_ii: PickCertificate
    rank_full: bool


def necessary_conditions(problem: InterpolationProblem) -> NecessaryConditions:
    """Evaluate both necessary conditions for nodes in Re > 1/2."""
    for z in problem.nodes:
        if not complex(z).real > 0.5:
            raise DomainError(f"node {z} must satisfy Re > 1/2")
    problem.require_disc_targets()
    cert_i = pick_certificate(replace(problem, kernel=zeta_power_kernel(1)))
    cert_ii = pick_certificate(replace(problem, kernel=szego_half_plane()))
    return NecessaryConditions(
        cond_i=cert_i,
        cond_ii=cert_ii,
        rank_full=cert_ii.numerical_rank == problem.size,
    )
