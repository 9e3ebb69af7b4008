"""Finite-truncation network realization of contractive Dirichlet multipliers.

Given a Dirichlet polynomial phi with coefficient-sum norm certificate
sum |c_n| <= 1, the construction factors the defect kernel
(1 - phi(s) conj(phi(u))) zeta(s + conj(u)) at finitely many sample
points, lifts each point to

    x = 1 (+) zeta-feature(s) (x) psi(s),
    y = phi(s) (+) mobius-feature(s) (x) psi(s),

verifies the Gram identity <x_i, x_j> = <y_i, y_j> up to the truncation
tail, and takes the nearest partial isometry V mapping span{x_i} onto the
y side (zero on the orthogonal complement).  Splitting V into blocks
[[a, beta*], [gamma, D]] yields the evaluation formula

    phi(s) = a + <(T (x) I - D)^(-1) gamma, beta>,

where T is an explicit invertible map carrying the zeta-kernel section to
the mobius-kernel section with certified inverse norm below 1, so the
resolvent is controlled by a Neumann bound.  Everything is finite and all
claims come with computed residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .dirichlet import CoefficientSeries, zeta, zeta_reciprocal
from .errors import (
    DomainError,
    HypothesisError,
    IllConditionedError,
    TruncationError,
    ValidationError,
)
from .kernels import hermitian_fill
from .pick import DEFAULT_PSD_TOL, PickCertificate, certify_psd

DEFAULT_ALPHA = 2.0
QR_DROP_TOL = 1e-12


def _inner(x, y):
    """<x, y> with the second slot conjugated (matches kernel convention)."""
    return complex(np.vdot(y, x))


def mobius_weights(trunc: int) -> np.ndarray:
    """sqrt(1 + mu(m)) for m = 1..trunc: the feature weights of zeta + 1/zeta."""
    return np.sqrt(CoefficientSeries.one_plus_mobius(trunc).coeffs.real)


@dataclass(frozen=True)
class DirichletMultiplier:
    """A Dirichlet polynomial c_1 + c_2 2^(-s) + ... with the sufficient
    contractivity certificate sum |c_n| <= 1 (hence sup over Re > 0 <= 1)."""

    coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("multiplier needs a nonempty coefficient vector")
        object.__setattr__(self, "coeffs", arr)

    @property
    def declared_norm(self) -> float:
        return float(np.abs(self.coeffs).sum())

    @property
    def certified(self) -> bool:
        return self.declared_norm <= 1.0 + 1e-14

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        logn = np.log(np.arange(1, self.coeffs.size + 1, dtype=float))
        vals = np.exp(-np.multiply.outer(s, logn)) @ self.coeffs
        return vals if vals.shape else complex(vals)

    @staticmethod
    def monomial(c: complex, n: int = 2, label: str = "") -> "DirichletMultiplier":
        coeffs = np.zeros(n, dtype=complex)
        coeffs[n - 1] = c
        return DirichletMultiplier(coeffs, label or f"{c}*{n}^(-s)")


def defect_gram(phi, points, zeta_tol: float = 1e-13,
                psd_tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Gram matrix (1 - phi(s_i) conj(phi(s_j))) zeta(s_i + conj(s_j)).

    PSD whenever phi is a contractive multiplier; a minimum eigenvalue
    below -psd_tol * scale therefore reports a violated hypothesis.
    """
    pts = [complex(p) for p in points]
    for p in pts:
        if not p.real > 0.5:
            raise DomainError(f"sample point {p} must satisfy Re > 1/2")
    vals = np.array([complex(phi(p)) for p in pts])
    out = hermitian_fill(len(pts), lambda i, j: (1.0 - vals[i] * np.conj(vals[j]))
                         * zeta(pts[i] + np.conj(pts[j]), zeta_tol))
    lo = float(np.linalg.eigvalsh(out)[0])
    scale = max(1.0, float(np.abs(out).max()))
    if lo < -psd_tol * scale:
        raise HypothesisError(
            f"defect Gram has min eigenvalue {lo:.3e}: "
            "phi is not a contractive multiplier on these points"
        )
    return out


def psd_factor(gram, tol: float = DEFAULT_PSD_TOL):
    """Factor a PSD matrix as Psi Psi* keeping eigenvalues > tol * max.

    Returns (Psi, r) with Psi of shape (k, r); row i is the lifted vector
    psi(s_i).  Reconstruction error is bounded by the discarded spectrum.
    """
    g = np.asarray(gram, dtype=complex)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (g + g.conj().T))
    top = float(eigvals[-1]) if eigvals.size else 0.0
    if top <= 0.0:
        return np.zeros((g.shape[0], 0), dtype=complex), 0
    if float(eigvals[0]) < -tol * top:
        raise HypothesisError(f"matrix is not PSD within tol: min eig {eigvals[0]:.3e}")
    keep = eigvals > tol * top
    r = int(keep.sum())
    psi = eigvecs[:, keep] * np.sqrt(np.clip(eigvals[keep], 0.0, None))
    return psi, r


class FeatureTransfer:
    """Invertible map between truncated feature spaces sending the
    zeta-kernel section at a point to the mobius-kernel section.

    T = H_g (diag(d1, alpha, ..., alpha)) H_f with H_f, H_g Householder
    reflections aligning each section with the first coordinate axis; on
    the section T is the rank-one assignment, on the orthogonal complement
    it is alpha times a unitary.  The inverse norm is exactly
    max(|f| / |g|, 1/|alpha|) and is certified below the closed-form bound
    sqrt((zeta(2 sigma)^2 + 1/2) / (zeta(2 sigma)^2 + 1)) < 1.
    """

    def __init__(self, point: complex, alpha: complex = DEFAULT_ALPHA,
                 trunc: int = 1000, mu_sqrt: np.ndarray | None = None):
        point = complex(point)
        if not point.real > 0.5:
            raise DomainError(f"point {point} must satisfy Re > 1/2")
        if not abs(alpha) > 1.0:
            raise DomainError("alpha must satisfy |alpha| > 1")
        if mu_sqrt is None:
            mu_sqrt = mobius_weights(trunc)
        if mu_sqrt.size != trunc:
            raise ValidationError("mu_sqrt length must equal the truncation")
        self.point = point
        self.alpha = complex(alpha)
        self.trunc = int(trunc)

        logn = np.log(np.arange(1, trunc + 1, dtype=float))
        f = np.exp(-np.conj(point) * logn)
        g = mu_sqrt * f
        self.section_norm = float(np.linalg.norm(f))
        self.image_norm = float(np.linalg.norm(g))
        fh = f / self.section_norm
        gh = g / self.image_norm
        mu_f = fh[0] / abs(fh[0])
        mu_g = gh[0] / abs(gh[0])
        self._vf = fh.copy()
        self._vf[0] += mu_f
        self._vf_scale = 2.0 / float(np.vdot(self._vf, self._vf).real)
        self._vg = gh.copy()
        self._vg[0] += mu_g
        self._vg_scale = 2.0 / float(np.vdot(self._vg, self._vg).real)
        self.d1 = (self.image_norm / self.section_norm) * np.conj(mu_f) * mu_g
        self._f = f
        self._g = g

        sigma = point.real
        z = zeta(2.0 * sigma).real
        self.eps_tilde = float(np.sqrt((z * z + 0.5) / (z * z + 1.0)))
        self.section_ratio = self.section_norm / self.image_norm
        # z < z + 1/z always; asserted numerically because it feeds the bound.
        if not z < z + zeta_reciprocal(2.0 * sigma).real:
            raise HypothesisError("diagonal comparison zeta < zeta + 1/zeta failed")
        if not self.section_ratio <= self.eps_tilde < 1.0:
            raise HypothesisError(
                f"inverse-norm certificate failed: ratio {self.section_ratio:.6f} "
                f"vs bound {self.eps_tilde:.6f}"
            )

    @property
    def inverse_norm(self) -> float:
        """Exact norm of the inverse map, max(|f|/|g|, 1/|alpha|)."""
        return max(self.section_ratio, 1.0 / abs(self.alpha))

    @property
    def inverse_norm_bound(self) -> float:
        return max(self.eps_tilde, 1.0 / abs(self.alpha))

    def _reflect_f(self, mat):
        return mat - np.outer(self._vf, self._vf_scale * (np.conj(self._vf) @ mat))

    def _reflect_g(self, mat):
        return mat - np.outer(self._vg, self._vg_scale * (np.conj(self._vg) @ mat))

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """T applied columnwise to an (N, r) block."""
        out = self._reflect_f(np.asarray(mat, dtype=complex))
        out[0] *= self.d1
        out[1:] *= self.alpha
        return self._reflect_g(out)

    def apply_inverse(self, mat: np.ndarray) -> np.ndarray:
        out = self._reflect_g(np.asarray(mat, dtype=complex))
        out[0] /= self.d1
        out[1:] /= self.alpha
        return self._reflect_f(out)

    def section(self) -> np.ndarray:
        return self._f.copy()

    def image_section(self) -> np.ndarray:
        return self._g.copy()

    def as_matrix(self) -> np.ndarray:
        """Dense N x N matrix; intended for small truncations in tests."""
        return self.apply(np.eye(self.trunc, dtype=complex))


def feature_transfer(point, alpha: complex = DEFAULT_ALPHA, trunc: int = 1000,
                     mu_sqrt: np.ndarray | None = None) -> FeatureTransfer:
    return FeatureTransfer(point, alpha, trunc, mu_sqrt)


@dataclass(frozen=True)
class RealizationModel:
    """Blocks of the partial isometry [[a, beta*], [gamma, D]] together
    with the data needed to rebuild transfer maps and rerun certificates.

    D is stored in factored form d_left @ d_right*; both factors have at
    most as many columns as sample points, which keeps models with large
    feature truncations tractable.
    """

    points: tuple
    trunc: int
    rank: int
    alpha: complex
    psi: np.ndarray
    a: complex
    beta: np.ndarray
    gamma: np.ndarray
    d_left: np.ndarray
    d_right: np.ndarray
    mu_sqrt: np.ndarray
    certificates: dict
    multiplier: DirichletMultiplier | None = None

    @property
    def block_dim(self) -> int:
        return self.trunc * self.rank

    def d_norm(self) -> float:
        if self.d_left.size == 0:
            return 0.0
        ra = np.linalg.qr(self.d_left, mode="r")
        rb = np.linalg.qr(self.d_right, mode="r")
        return float(np.linalg.svd(ra @ rb.conj().T, compute_uv=False).max())

    def contraction_sigma(self) -> float:
        """Largest singular value of the assembled block matrix."""
        dim = 1 + self.block_dim
        e0 = np.zeros(dim, dtype=complex)
        e0[0] = 1.0
        col0 = np.concatenate(([self.a], self.gamma))
        left = [col0[:, None], e0[:, None]]
        right = [e0[:, None], np.concatenate(([0.0], self.beta))[:, None]]
        if self.d_left.size:
            left.append(np.vstack([np.zeros((1, self.d_left.shape[1])), self.d_left]))
            right.append(np.vstack([np.zeros((1, self.d_right.shape[1])), self.d_right]))
        lbig = np.hstack(left)
        rbig = np.hstack(right)
        rl = np.linalg.qr(lbig, mode="r")
        rr = np.linalg.qr(rbig, mode="r")
        return float(np.linalg.svd(rl @ rr.conj().T, compute_uv=False).max())

    def transfer_at(self, s: complex) -> FeatureTransfer:
        """The map used when evaluating at s (built at the conjugate point)."""
        return FeatureTransfer(np.conj(complex(s)), self.alpha, self.trunc,
                               self.mu_sqrt)

    def scaled(self, d_scale: float) -> "RealizationModel":
        """Copy with D scaled; used as a negative control in verification."""
        return replace(self, d_left=d_scale * self.d_left)


def _lifted_vectors(phi_vals, points, psi, trunc, mu_sqrt):
    logn = np.log(np.arange(1, trunc + 1, dtype=float))
    xs, ys = [], []
    for i, p in enumerate(points):
        zf = np.exp(-p * logn)
        mf = mu_sqrt * zf
        xs.append(np.concatenate(([1.0 + 0j], np.kron(zf, psi[i]))))
        ys.append(np.concatenate(([phi_vals[i]], np.kron(mf, psi[i]))))
    return np.stack(xs, axis=1), np.stack(ys, axis=1)


def build_realization(phi: DirichletMultiplier, points, trunc: int = 1000,
                      tol: float = 1e-4, alpha: complex = DEFAULT_ALPHA,
                      factor_tol: float = DEFAULT_PSD_TOL) -> RealizationModel:
    """Construct the block model of a certified contractive multiplier.

    ``tol`` bounds the truncated Gram-identity residual; the default suits
    interactive truncations around 10^3, while high-accuracy runs at 10^5
    coefficients meet 1e-6.  Raises TruncationError when the truncation
    misses ``tol`` (with a suggested larger truncation), and
    IllConditionedError when the lifted sample vectors are numerically
    dependent.
    """
    if not phi.certified:
        raise HypothesisError(
            f"multiplier has coefficient sum {phi.declared_norm:.6f} > 1: "
            "no contractivity certificate"
        )
    pts = tuple(complex(p) for p in points)
    gram = defect_gram(phi, pts)
    psi, rank = psd_factor(gram, factor_tol)
    psi = np.ascontiguousarray(psi)
    mu_sqrt = mobius_weights(trunc)
    phi_vals = np.array([complex(phi(p)) for p in pts])

    if rank == 0:
        # |phi| = 1 at every sample: the model is the unimodular constant.
        certs = {
            "gram_identity_residual": 0.0,
            "isometry_defect": 0.0,
            "sigma_max": 1.0,
            "d_contraction_residual": 0.0,
            "polar_defect": 0.0,
            "d_norm": 0.0,
        }
        dim = 0
        return RealizationModel(
            points=pts, trunc=trunc, rank=0, alpha=complex(alpha),
            psi=psi, a=complex(phi_vals[0]),
            beta=np.zeros(dim, dtype=complex),
            gamma=np.zeros(dim, dtype=complex),
            d_left=np.zeros((dim, 0), dtype=complex),
            d_right=np.zeros((dim, 0), dtype=complex),
            mu_sqrt=mu_sqrt, certificates=certs, multiplier=phi,
        )

    x, y = _lifted_vectors(phi_vals, pts, psi, trunc, mu_sqrt)
    gram_x = x.conj().T @ x
    gram_y = y.conj().T @ y
    residual = float(np.abs(gram_x - gram_y).max())
    if residual > tol:
        sigma_min = min(p.real for p in pts)
        growth = (residual / tol) ** (1.0 / max(2.0 * sigma_min - 1.0, 0.5))
        raise TruncationError(
            f"Gram identity residual {residual:.3e} exceeds {tol:.3e} "
            f"at truncation {trunc}",
            suggested_trunc=int(np.ceil(trunc * growth)),
        )

    q, r_mat, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    if diag.min() <= QR_DROP_TOL * diag.max():
        raise IllConditionedError(
            "lifted sample vectors are numerically dependent; spread the points"
        )
    w = np.linalg.solve(r_mat.conj().T, y[:, piv].conj().T).conj().T  # W R = Y_piv
    u_svd, svals, vh_svd = np.linalg.svd(w, full_matrices=False)
    w_iso = u_svd @ vh_svd
    polar_defect = float(np.abs(svals - 1.0).max())

    coords = q.conj().T @ x
    vx = w_iso @ coords
    gram_vx = vx.conj().T @ vx
    norms = np.sqrt(np.abs(np.diag(gram_x).real))
    iso_defect = float((np.abs(gram_vx - gram_x) / np.outer(norms, norms)).max())

    a = complex(w_iso[0] @ np.conj(q[0]))
    # C-contiguous copies so evaluations of a deserialized model take the
    # same BLAS paths bit for bit.
    beta = np.ascontiguousarray(q[1:] @ np.conj(w_iso[0]))
    gamma = np.ascontiguousarray(w_iso[1:] @ np.conj(q[0]))
    d_left = np.ascontiguousarray(w_iso[1:])
    d_right = np.ascontiguousarray(q[1:])

    dcon = 0.0
    for i in range(len(pts)):
        resid_vec = vx[1:, i] - y[1:, i]
        scale_i = max(1.0, float(np.linalg.norm(y[1:, i])))
        dcon = max(dcon, float(np.linalg.norm(resid_vec)) / scale_i)

    certs = {
        "gram_identity_residual": residual,
        "isometry_defect": iso_defect,
        "sigma_max": 1.0,
        "d_contraction_residual": dcon,
        "polar_defect": polar_defect,
        "d_norm": 0.0,
    }
    model = RealizationModel(
        points=pts, trunc=trunc, rank=rank, alpha=complex(alpha), psi=psi,
        a=a, beta=beta, gamma=gamma, d_left=d_left, d_right=d_right,
        mu_sqrt=mu_sqrt, certificates=certs, multiplier=phi,
    )
    certs["sigma_max"] = model.contraction_sigma()
    certs["d_norm"] = model.d_norm()
    return model


def evaluate_realization(model: RealizationModel, s,
                         transfer: FeatureTransfer | None = None) -> complex:
    """Evaluate a + <(T (x) I - D)^(-1) gamma, beta> at a point of Re > 1/2.

    The linear system is solved through the transfer map's structure and
    the factored D (Woodbury identity); the inverse is never formed.  The
    Neumann certificate |T^(-1)| |D| < 1 is checked before solving.
    """
    s = complex(s)
    if not s.real > 0.5:
        raise DomainError(f"evaluation point {s} must satisfy Re > 1/2")
    if model.rank == 0 or not np.linalg.norm(model.gamma):
        return model.a
    t = transfer or model.transfer_at(s)
    if t.trunc != model.trunc:
        raise ValidationError("transfer truncation differs from the model")
    # Recompute |D| rather than trusting the stored certificate: the model
    # may have been perturbed since construction.
    neumann = t.inverse_norm * model.d_norm()
    if not neumann < 1.0:
        raise HypothesisError(
            f"invertibility certificate failed: |T^-1| |D| = {neumann:.6f} >= 1"
        )
    n, r = model.trunc, model.rank
    z0 = t.apply_inverse(model.gamma.reshape(n, r)).reshape(-1)
    k = model.d_left.shape[1]
    ga = np.empty((n * r, k), dtype=complex)
    for j in range(k):
        ga[:, j] = t.apply_inverse(model.d_left[:, j].reshape(n, r)).reshape(-1)
    small = np.eye(k, dtype=complex) - model.d_right.conj().T @ ga
    u = np.linalg.solve(small, model.d_right.conj().T @ z0)
    z = z0 + ga @ u
    return model.a + _inner(z, model.beta)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a model: the contraction certificate, the block
    equation residual at the sample points, and positivity of the defect
    Gram rebuilt from model evaluations on a grid."""

    sigma_max: float
    contraction_ok: bool
    d_contraction_residual: float
    d_contraction_ok: bool
    grid: tuple
    reconstructed: np.ndarray
    gram_certificate: PickCertificate | None
    psd_ok: bool
    evaluation_error: str | None

    @property
    def passed(self) -> bool:
        return self.contraction_ok and self.d_contraction_ok and self.psd_ok


def verify_realization(model: RealizationModel, grid=None,
                       contraction_tol: float = 1e-8,
                       d_contraction_tol: float | None = None,
                       psd_slack: float = 1e-2) -> VerificationReport:
    """Certify that a model represents a contractive multiplier.

    The block-equation tolerance defaults to ten times the Gram-identity
    residual recorded at construction (floor 1e-6), matching how both
    quantities shrink with the truncation.  psd_slack absorbs
    reconstruction error when testing positivity of (1 - phi phi*) zeta on
    the grid; it is configuration, reported next to the verdict.  A model
    whose D block was tampered with fails the contraction check outright
    and typically also the resolvent certificate.
    """
    if d_contraction_tol is None:
        recorded = float(model.certificates.get("gram_identity_residual", 0.0))
        d_contraction_tol = max(1e-6, 10.0 * recorded)
    grid = tuple(complex(g) for g in (grid if grid is not None else model.points))
    sigma_max = model.contraction_sigma()
    contraction_ok = sigma_max <= 1.0 + contraction_tol

    dcon = 0.0
    if model.rank > 0:
        # The block equation D(zeta-feature (x) psi) = mobius-feature (x) psi
        # - gamma involves only the second components; no multiplier needed.
        logn = np.log(np.arange(1, model.trunc + 1, dtype=float))
        for i, p in enumerate(model.points):
            zf = np.exp(-p * logn)
            x2 = np.kron(zf, model.psi[i])
            y2 = np.kron(model.mu_sqrt * zf, model.psi[i])
            dx = model.d_left @ (model.d_right.conj().T @ x2)
            scale = max(1.0, float(np.linalg.norm(y2)))
            dcon = max(dcon, float(np.linalg.norm(dx - (y2 - model.gamma))) / scale)
    d_ok = dcon <= d_contraction_tol

    values = np.zeros(len(grid), dtype=complex)
    evaluation_error = None
    gram_cert = None
    psd_ok = False
    try:
        for i, g in enumerate(grid):
            values[i] = evaluate_realization(model, g)
        gram = hermitian_fill(len(grid), lambda i, j: (1.0 - values[i] * np.conj(values[j]))
                              * zeta(grid[i] + np.conj(grid[j])))
        scale = max(1.0, float(np.abs(gram).max()))
        gram_cert = certify_psd(gram, psd_tol=psd_slack, rank_tol=1e-8)
        psd_ok = gram_cert.min_eigenvalue >= -psd_slack * scale
    except (HypothesisError, DomainError) as exc:
        evaluation_error = str(exc)

    return VerificationReport(
        sigma_max=sigma_max,
        contraction_ok=contraction_ok,
        d_contraction_residual=dcon,
        d_contraction_ok=d_ok,
        grid=grid,
        reconstructed=values,
        gram_certificate=gram_cert,
        psd_ok=psd_ok,
        evaluation_error=evaluation_error,
    )
