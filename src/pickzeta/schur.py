"""Constructive Nevanlinna-Pick solver in the unit disc.

The solver runs the classical one-point Schur reduction: peeling off the
first node replaces a Schur-class interpolant f by

    f = (b g + c) / (1 + conj(c) b g),    b(z) = (z - z0)/(1 - conj(z0) z),

with c the target at z0 and g an arbitrary Schur function interpolating
the reduced data.  Composing the elementary steps yields the interpolant
(terminal parameter 0 gives the central solution), the unique Blaschke
product in the rank-deficient case, and, as a by-product, the 2x2 matrix
of rational functions that parametrizes every solution.  Half-plane
problems transfer through the Cayley map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dirichlet import power_section
from .errors import DomainError, HypothesisError, IllConditionedError, ValidationError
from .kernels import SZEGO_HALF_PLANE
from .pick import (
    DEFAULT_PSD_TOL,
    DEFAULT_RANK_TOL,
    InterpolationProblem,
    PickCertificate,
    cayley,
    certify_psd,
    disc_pick_matrix,
    necessary_conditions,
)

# Reduced target modulus at which the recursion switches to the unique
# Blaschke branch.
DEGENERATE_THRESHOLD = 1.0 - 1e-10

# Nodes closer than this are rejected: the reduction divides by b(z_i).
MIN_NODE_SEPARATION = 1e-6

NEAR_BOUNDARY = 1.0 - 1e-8

_BOUNDARY_SAMPLES = 2048

# The Dirichlet fit samples _FIT_SAMPLES points with |Im s| <= _FIT_T_SPAN.
_FIT_T_SPAN = 5.0
_FIT_SAMPLES = 64


def blaschke_factor(z, node):
    """The disc automorphism (z - node)/(1 - conj(node) z)."""
    return (z - node) / (1.0 - np.conj(node) * z)


def _apply_step(node, parameter, z, inner):
    b = blaschke_factor(z, node)
    t = b * inner
    return (t + parameter) / (1.0 + np.conj(parameter) * t)


def _trim(poly):
    scale = np.abs(poly).max()
    if scale == 0.0:
        return poly[:1]
    keep = np.nonzero(np.abs(poly) > 1e-12 * scale)[0]
    return poly[: keep[-1] + 1] if keep.size else poly[:1]


def _step_chain(steps):
    """The product of the steps' polynomial matrices [[up, gamma down],
    [conj(gamma) up, down]] / sqrt(1 - |gamma|^2), up = z - node and
    down = 1 - conj(node) z: the chain maps t to (n11 t + n12)/(n21 t + n22).
    """
    n11 = np.array([1.0 + 0j])
    n12 = np.array([0j])
    n21 = np.array([0j])
    n22 = np.array([1.0 + 0j])
    for node, gamma in steps:
        scale = 1.0 / np.sqrt(1.0 - abs(gamma) ** 2)
        up = np.array([-node, 1.0]) * scale          # (z - node), normalized
        down = np.array([1.0, -np.conj(node)]) * scale
        a11, a12 = up, gamma * down
        a21, a22 = np.conj(gamma) * up, down
        # All four entries share one length per level, so plain
        # addition of the ascending coefficient arrays is aligned.
        m11 = np.convolve(n11, a11) + np.convolve(n12, a21)
        m12 = np.convolve(n11, a12) + np.convolve(n12, a22)
        m21 = np.convolve(n21, a11) + np.convolve(n22, a21)
        m22 = np.convolve(n21, a12) + np.convolve(n22, a22)
        n11, n12, n21, n22 = m11, m12, m21, m22
    return n11, n12, n21, n22


@dataclass(frozen=True)
class BoundaryCertificate:
    """Sampled Schur-class certificate on the unit circle."""

    samples: int
    sup_sampled: float
    lipschitz_estimate: float
    certified_sup: float
    unimodular_deviation: float


class RationalSchurFunction:
    """A rational Schur function in one of two representations.

    Either a chain of elementary interpolation steps around a terminal
    constant, or a finite Blaschke product (zeros plus a unimodular
    constant).  Numerator/denominator polynomials (ascending coefficients)
    are maintained for degree counts, zero extraction and the solution
    parametrization.
    """

    def __init__(self, steps=(), terminal=0j, zeros=None, unimodular=None):
        if zeros is not None:
            self.representation = "blaschke"
            self.zeros = tuple(complex(a) for a in zeros)
            for a in self.zeros:
                if not abs(a) < 1.0:
                    raise ValidationError(f"Blaschke zero {a} must lie in the disc")
            c = complex(unimodular if unimodular is not None else 1.0)
            if abs(abs(c) - 1.0) > 1e-10:
                raise ValidationError("Blaschke constant must be unimodular")
            self.unimodular = c / abs(c)
            self.steps = ()
            self.terminal = None
        else:
            self.representation = "schur_steps"
            self.steps = tuple((complex(n), complex(g)) for n, g in steps)
            if any(not abs(g) < 1.0 for _, g in self.steps):
                raise ValidationError("step parameters must lie in the open unit disc")
            self.terminal = complex(terminal)
            if abs(self.terminal) > 1.0 + 1e-10:
                raise ValidationError("terminal parameter must lie in the closed disc")
            self.zeros = None
            self.unimodular = None
        self._poly = None

    @classmethod
    def from_blaschke(cls, zeros, unimodular=1.0):
        return cls(zeros=zeros, unimodular=unimodular)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if self.representation == "blaschke":
            out = np.full(z.shape, self.unimodular, dtype=complex)
            for a in self.zeros:
                out = out * blaschke_factor(z, a)
            return out if out.shape else complex(out)
        out = np.full(z.shape, self.terminal, dtype=complex)
        for node, gamma in reversed(self.steps):
            out = _apply_step(node, gamma, z, out)
        return out if out.shape else complex(out)

    def polynomials(self):
        """(numerator, denominator) coefficient arrays, ascending powers;
        a step chain's come from _step_chain, the ParametrizationMatrix
        product, so both carry the factors 1/sqrt(1 - |gamma|^2)."""
        if self._poly is None:
            if self.representation == "blaschke":
                num = np.array([self.unimodular], dtype=complex)
                den = np.array([1.0 + 0.0j])
                for a in self.zeros:
                    num = np.convolve(num, np.array([-a, 1.0]))
                    den = np.convolve(den, np.array([1.0, -np.conj(a)]))
            else:
                n11, n12, n21, n22 = _step_chain(self.steps)
                num = n11 * self.terminal + n12
                den = n21 * self.terminal + n22
            self._poly = (num, den)
        return self._poly

    @property
    def degree(self) -> int:
        if self.representation == "blaschke":
            return len(self.zeros)
        if self.terminal is not None and abs(abs(self.terminal) - 1.0) <= 1e-9:
            # Unimodular core: every step multiplies the degree count by
            # exactly one Blaschke factor.
            return len(self.steps)
        num, den = self.polynomials()
        return max(_trim(num).size, _trim(den).size) - 1

    @property
    def is_blaschke_product(self) -> bool:
        if self.representation == "blaschke":
            return True
        return self.terminal is not None and abs(abs(self.terminal) - 1.0) <= 1e-9

    def blaschke_zeros(self) -> np.ndarray:
        """Zeros in the disc, for functions unimodular on the circle."""
        if self.representation == "blaschke":
            return np.array(self.zeros, dtype=complex)
        if not self.is_blaschke_product:
            raise ValidationError("function is not a finite Blaschke product")
        num = _trim(self.polynomials()[0])
        if num.size == 1:
            return np.array([], dtype=complex)
        return np.roots(num[::-1])

    def boundary_certificate(self) -> BoundaryCertificate:
        """|f| sampled at _BOUNDARY_SAMPLES points of the unit circle."""
        samples = _BOUNDARY_SAMPLES
        theta = 2.0 * np.pi * np.arange(samples) / samples
        vals = self(np.exp(1j * theta))
        mags = np.abs(vals)
        sup = float(mags.max())
        diffs = np.abs(np.diff(np.concatenate([vals, vals[:1]])))
        lip = float(diffs.max()) / (2.0 * np.pi / samples)
        certified = sup + lip * np.pi / samples
        return BoundaryCertificate(
            samples=samples,
            sup_sampled=sup,
            lipschitz_estimate=lip,
            certified_sup=float(certified),
            unimodular_deviation=float(np.abs(mags - 1.0).max()),
        )


@dataclass(frozen=True)
class Infeasible:
    """Negative answer to an interpolation problem, with the eigenvalue
    witness of the failed Pick matrix."""

    certificate: PickCertificate
    message: str = "Pick matrix is not positive semidefinite"


@dataclass(frozen=True)
class SolveTrace:
    """Minimum eigenvalues of the reduced Pick matrices, one per level."""

    reduced_min_eigs: tuple
    degenerate_level: int | None


def _validate_disc_data(nodes, targets):
    z = [complex(v) for v in nodes]
    w = [complex(v) for v in targets]
    if len(z) != len(w) or not z:
        raise ValidationError("need equally many nodes and targets, at least one")
    for v in z:
        if not abs(v) < 1.0:
            raise DomainError(f"node {v} must lie in the open unit disc")
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if abs(z[i] - z[j]) < MIN_NODE_SEPARATION:
                raise IllConditionedError(
                    f"nodes {z[i]} and {z[j]} closer than {MIN_NODE_SEPARATION}"
                )
    for v in w:
        if abs(v) > 1.0:
            raise DomainError(f"target {v} lies outside the closed unit disc")
        if abs(v) > NEAR_BOUNDARY and abs(v) <= 1.0:
            warnings.warn(
                f"target {v} is within 1e-8 of the unit circle; "
                "the reduction is ill-conditioned",
                stacklevel=3,
            )
    return z, w


def _reduce_once(nodes, targets):
    """One Schur step: the reduced nodes and targets after the first node."""
    z0, w0 = nodes[0], targets[0]
    rest_nodes = nodes[1:]
    reduced = []
    for zi, wi in zip(rest_nodes, targets[1:]):
        shifted = (wi - w0) / (1.0 - np.conj(w0) * wi)
        reduced.append(shifted / blaschke_factor(zi, z0))
    return rest_nodes, reduced


def _levels(nodes, targets):
    """The Schur reduction as (nodes, targets) per level: the data, then
    each one-point reduction, ending at one node or at a unimodular pivot.
    Level k's (nodes[0], targets[0]) is the k-th step of the chain."""
    while True:
        yield nodes, targets
        if len(nodes) == 1 or abs(targets[0]) >= DEGENERATE_THRESHOLD:
            return
        nodes, targets = _reduce_once(nodes, targets)


def solve_disc(nodes, targets, psd_tol: float = DEFAULT_PSD_TOL,
               rank_tol: float = DEFAULT_RANK_TOL, return_trace: bool = False):
    """Solve the Nevanlinna-Pick problem f(z_i) = w_i, f Schur class.

    Returns a RationalSchurFunction, or Infeasible carrying the witness of
    the non-PSD Pick matrix.  Rank-deficient feasible data yields the
    unique solution, a Blaschke product whose degree equals the rank.
    The reduced Pick matrix is certified PSD after every step.
    """
    z, w = _validate_disc_data(nodes, targets)
    cert = certify_psd(disc_pick_matrix(z, w), psd_tol, rank_tol)
    if not cert.psd:
        result = Infeasible(cert)
        return (result, None) if return_trace else result

    steps = []
    min_eigs = [cert.min_eigenvalue]
    for cur_nodes, cur_targets in _levels(z, w):
        if steps:
            reduced_cert = certify_psd(disc_pick_matrix(cur_nodes, cur_targets),
                                       max(psd_tol, 1e-9), rank_tol)
            min_eigs.append(reduced_cert.min_eigenvalue)
            if not reduced_cert.psd:
                raise HypothesisError(
                    "reduced Pick matrix lost positivity during the recursion "
                    f"(min eigenvalue {reduced_cert.min_eigenvalue:.3e})"
                )
        steps.append((cur_nodes[0], cur_targets[0]))

    # Central choice at the last level: the free parameter is 0, so the innermost
    # function is the pivot itself, or the unimodular constant of a degenerate one.
    _, pivot = steps.pop()
    terminal, degenerate_level = pivot, None
    if abs(pivot) >= DEGENERATE_THRESHOLD:
        if abs(pivot) > 1.0 + 1e-8:
            raise HypothesisError(
                f"reduced target modulus {abs(pivot):.6f} exceeds 1: "
                "data inconsistent with the PSD certificate"
            )
        terminal, degenerate_level = pivot / abs(pivot), len(steps)
        for zi, wi in zip(cur_nodes[1:], cur_targets[1:]):
            if abs(wi - terminal) > 1e-6:
                raise HypothesisError(
                    "unimodular reduced target with inconsistent siblings; "
                    f"node {zi} wants {wi}, forced constant {terminal}"
                )

    # A zero terminal makes the innermost step the constant given by its
    # parameter (b * 0 == 0 exactly), so trailing steps collapse; this
    # keeps reported degrees free of removable factors for constant data.
    while steps and terminal == 0:
        _, terminal = steps.pop()
    solution = RationalSchurFunction(steps=steps, terminal=terminal)
    if return_trace:
        return solution, SolveTrace(tuple(min_eigs), degenerate_level)
    return solution


class HalfPlaneSchurFunction:
    """A Schur-class function on Re > 0, realized as f(C(s)) with f a disc
    Schur function and C the Cayley map."""

    def __init__(self, disc_function: RationalSchurFunction):
        self.disc_function = disc_function

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        return self.disc_function((s - 1.0) / (s + 1.0))

    @property
    def degree(self) -> int:
        return self.disc_function.degree


def solve_halfplane(problem: InterpolationProblem):
    """Solve the Pick problem on Re > 0 through the Cayley transfer."""
    if problem.kernel.kind != SZEGO_HALF_PLANE:
        raise ValidationError("solve_halfplane expects the half-plane Szego kernel")
    disc_nodes = [cayley(z) for z in problem.nodes]
    result = solve_disc(disc_nodes, problem.targets,
                        problem.psd_tol, problem.rank_tol)
    if isinstance(result, Infeasible):
        return result
    return HalfPlaneSchurFunction(result)


class ParametrizationMatrix:
    """The 2x2 matrix [g_ij] of rational functions, unitary on the unit
    circle, that parametrizes all solutions of a nondegenerate disc
    problem:

        phi_h = g11 + g12 h g21 / (1 - g22 h),   h any Schur function.

    g11 is the central solution and g12 vanishes at every node; all
    entries are rational of degree at most the number of nodes, with
    poles outside the closed disc.
    """

    def __init__(self, nodes, steps):
        self.nodes = tuple(complex(z) for z in nodes)
        self.steps = tuple((complex(a), complex(b)) for a, b in steps)
        self._n = _step_chain(self.steps)
        self._zeros_poly = self._dens_poly = np.array([1.0 + 0j])
        for node, _ in self.steps:
            self._zeros_poly = np.convolve(self._zeros_poly, np.array([-node, 1.0]))
            self._dens_poly = np.convolve(self._dens_poly, np.array([1.0, -np.conj(node)]))

    @staticmethod
    def _eval(poly, z):
        return np.polyval(poly[::-1], z)

    def entries(self, z):
        """Stacked values g11, g12, g21, g22 at z (vectorized)."""
        z = np.asarray(z, dtype=complex)
        n11, n12, n21, n22 = self._n
        d = self._eval(n22, z)
        g11 = self._eval(n12, z) / d
        g12 = self._eval(self._zeros_poly, z) / d
        g21 = self._eval(self._dens_poly, z) / d
        g22 = -self._eval(n21, z) / d
        return g11, g12, g21, g22

    def phi(self, h, z):
        """The solution phi_h at z; h is a constant, callable, or Schur function."""
        z = np.asarray(z, dtype=complex)
        hv = h(z) if callable(h) else np.full(z.shape, complex(h))
        g11, g12, g21, g22 = self.entries(z)
        return g11 + g12 * hv * g21 / (1.0 - g22 * hv)

    def unitarity_defect(self, samples: int = 512) -> float:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        g11, g12, g21, g22 = self.entries(np.exp(1j * theta))
        c00 = np.abs(g11) ** 2 + np.abs(g21) ** 2 - 1.0
        c11 = np.abs(g12) ** 2 + np.abs(g22) ** 2 - 1.0
        c01 = g11 * np.conj(g12) + g21 * np.conj(g22)
        frob = np.sqrt(np.abs(c00) ** 2 + np.abs(c11) ** 2 + 2.0 * np.abs(c01) ** 2)
        return float(frob.max())

    def node_vanishing_defect(self) -> float:
        """max |g12| over the interpolation nodes (zero in exact arithmetic)."""
        vals = self.entries(np.array(self.nodes))[1]
        return float(np.abs(vals).max())

    @property
    def degree(self) -> int:
        return len(self.steps)


def _strict_steps(nodes, targets, psd_tol, rank_tol):
    z, w = _validate_disc_data(nodes, targets)
    cert = certify_psd(disc_pick_matrix(z, w), psd_tol, rank_tol)
    if not cert.psd:
        raise HypothesisError("Pick matrix is not PSD; no solutions to parametrize")
    if cert.numerical_rank < len(z):
        raise HypothesisError(
            "Pick matrix is rank deficient: the solution is unique; use solve_disc"
        )
    steps = []
    for cur_nodes, cur_targets in _levels(z, w):
        if abs(cur_targets[0]) >= DEGENERATE_THRESHOLD:
            raise HypothesisError(
                "degenerate reduction: the solution is unique; use solve_disc"
            )
        steps.append((cur_nodes[0], cur_targets[0]))
    return z, steps


def parametrization_matrix(nodes, targets, psd_tol: float = DEFAULT_PSD_TOL,
                           rank_tol: float = DEFAULT_RANK_TOL) -> ParametrizationMatrix:
    """The [g_ij] matrix of a strictly feasible disc problem."""
    z, steps = _strict_steps(nodes, targets, psd_tol, rank_tol)
    return ParametrizationMatrix(z, steps)


def parametrize_solutions(nodes, targets, h=0j,
                          psd_tol: float = DEFAULT_PSD_TOL,
                          rank_tol: float = DEFAULT_RANK_TOL):
    """The solution phi_h selected by the Schur-class parameter h.

    h may be a complex constant or a RationalSchurFunction; h = 0 recovers
    the central solution.  Requires a strictly PSD, full-rank Pick matrix
    (otherwise the solution is unique and solve_disc returns it).
    """
    _, steps = _strict_steps(nodes, targets, psd_tol, rank_tol)
    if isinstance(h, RationalSchurFunction):
        if h.representation == "blaschke":
            # c * prod b_a is the step chain with zero parameters around c.
            h_steps = [(a, 0j) for a in h.zeros]
            h_terminal = h.unimodular
        else:
            h_steps, h_terminal = list(h.steps), h.terminal
        return RationalSchurFunction(steps=list(steps) + h_steps,
                                     terminal=h_terminal)
    h = complex(h)
    if abs(h) > 1.0:
        raise DomainError("parameter h must lie in the closed unit disc")
    return RationalSchurFunction(steps=steps, terminal=h)


@dataclass(frozen=True)
class DirichletFitEntry:
    label: str
    residual_rms: float
    residual_max: float
    node_defect: float
    coeffs: np.ndarray


@dataclass(frozen=True)
class DirichletSearchReport:
    """Ranked least-squares distances of parametrized solutions to the
    space of finite Dirichlet polynomials.  Exploratory output only: a
    small residual is evidence, not a membership certificate, and an empty
    family yields an empty report."""

    entries: tuple
    sigma0: float
    trunc: int
    cond_i_psd: bool
    cond_ii_psd: bool

    def best(self):
        return self.entries[0] if self.entries else None


def search_dirichlet_solution(problem: InterpolationProblem, h_family,
                              trunc: int = 8, sigma0: float = 1.0) -> DirichletSearchReport:
    """Fit parametrized solutions by Dirichlet polynomials on a vertical line.

    The fit samples _FIT_SAMPLES equispaced points s = sigma0 + i t with
    |t| <= _FIT_T_SPAN.  The problem's nodes must lie in Re > 1/2 and
    satisfy the half-plane Pick condition strictly (the parametrization
    hypothesis); the zeta-side condition is reported but not required.
    """
    if not sigma0 > 0.5:
        raise DomainError("sampling line must satisfy sigma0 > 1/2")
    if trunc < 1:
        raise ValidationError("fit truncation must be at least 1")
    conds = necessary_conditions(problem)
    if not (conds.cond_ii.psd and conds.rank_full):
        raise HypothesisError(
            "half-plane Pick condition fails or is degenerate: "
            "no parametrized solution family"
        )
    disc_nodes = [cayley(z) for z in problem.nodes]
    par = parametrization_matrix(disc_nodes, problem.targets,
                                 problem.psd_tol, problem.rank_tol)
    t = np.linspace(-_FIT_T_SPAN, _FIT_T_SPAN, _FIT_SAMPLES)
    s_line = sigma0 + 1j * t
    z_line = (s_line - 1.0) / (s_line + 1.0)
    basis = power_section(s_line, trunc)
    z_nodes = np.array(disc_nodes)
    w_nodes = np.array(problem.targets, dtype=complex)

    entries = []
    for label, h in h_family:
        vals = par.phi(h, z_line)
        coeffs, *_ = np.linalg.lstsq(basis, vals, rcond=None)
        resid = basis @ coeffs - vals
        node_vals = par.phi(h, z_nodes)
        entries.append(DirichletFitEntry(
            label=str(label),
            residual_rms=float(np.linalg.norm(resid) / np.sqrt(_FIT_SAMPLES)),
            residual_max=float(np.abs(resid).max()),
            node_defect=float(np.abs(node_vals - w_nodes).max()),
            coeffs=coeffs,
        ))
    entries.sort(key=lambda e: (e.residual_rms, e.label))
    return DirichletSearchReport(
        entries=tuple(entries),
        sigma0=sigma0,
        trunc=trunc,
        cond_i_psd=conds.cond_i.psd,
        cond_ii_psd=conds.cond_ii.psd,
    )
