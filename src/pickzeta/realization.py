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

from .dirichlet import DEFAULT_ABS_ERR, CoefficientSeries, power_section, zeta, zeta_reciprocal
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
DEFECT_ZETA_TOL = 1e-13
CONTRACTION_TOL = 1e-8
PSD_SLACK = 1e-2


def _factored_norm(left, right) -> float:
    """Spectral norm of left @ right* from the R factors of both sides."""
    ra = np.linalg.qr(left, mode="r")
    rb = np.linalg.qr(right, mode="r")
    return float(np.linalg.svd(ra @ rb.conj().T, compute_uv=False).max())


def _column_residual(got, want) -> float:
    """max over columns i of |got_i - want_i| / max(1, |want_i|)."""
    scale = np.maximum(1.0, np.linalg.norm(want, axis=0))
    return float((np.linalg.norm(got - want, axis=0) / scale).max())


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
        vals = power_section(np.asarray(s, dtype=complex), self.coeffs.size) @ self.coeffs
        return vals if vals.shape else complex(vals)

    @staticmethod
    def monomial(c: complex, n: int = 2) -> "DirichletMultiplier":
        coeffs = np.zeros(n, dtype=complex)
        coeffs[n - 1] = c
        return DirichletMultiplier(coeffs, f"{c}*{n}^(-s)")


def _defect_fill(points, values, zeta_tol: float) -> np.ndarray:
    """[(1 - v_i conj(v_j)) zeta(s_i + conj(s_j))], zeta to ``zeta_tol``."""
    return hermitian_fill(len(points), lambda i, j: (1.0 - values[i] * np.conj(values[j]))
                          * zeta(points[i] + np.conj(points[j]), zeta_tol))


def defect_gram(phi, points) -> np.ndarray:
    """Gram matrix (1 - phi(s_i) conj(phi(s_j))) zeta(s_i + conj(s_j)).

    PSD whenever phi is a contractive multiplier; a minimum eigenvalue
    below -DEFAULT_PSD_TOL * scale therefore reports a violated hypothesis.
    """
    pts = [complex(p) for p in points]
    for p in pts:
        if not p.real > 0.5:
            raise DomainError(f"sample point {p} must satisfy Re > 1/2")
    vals = np.array([complex(phi(p)) for p in pts])
    out = _defect_fill(pts, vals, DEFECT_ZETA_TOL)
    lo = float(np.linalg.eigvalsh(out)[0])
    scale = max(1.0, float(np.abs(out).max()))
    if lo < -DEFAULT_PSD_TOL * scale:
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

        f = power_section(np.conj(point), trunc)
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

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """T applied columnwise to an (N, r) block, reflection by reflection."""
        mat = np.asarray(mat, dtype=complex)
        out = mat - np.outer(self._vf, self._vf_scale * (np.conj(self._vf) @ mat))
        out[0] *= self.d1
        out[1:] *= self.alpha
        return out - np.outer(self._vg, self._vg_scale * (np.conj(self._vg) @ out))

    def inverse_factors(self):
        """(U, C, V) with T^(-1) = I / alpha + U C V*, U and V of shape (N, 3).

        T^(-1) = H_f diag(1/d1, 1/alpha, ...) H_g.  The 1/alpha identity part
        passes through H_f H_g as I - c_f v_f v_f* - c_g v_g v_g*
        + c_f c_g (v_f* v_g) v_f v_g*, and the first coordinate adds
        (1/d1 - 1/alpha) (H_f e0) (H_g e0)*; so U = [v_f, v_g, H_f e0] and
        V = [v_f, v_g, H_g e0].
        """
        cf, cg, alpha = self._vf_scale, self._vg_scale, self.alpha
        hf_e0 = -cf * np.conj(self._vf[0]) * self._vf
        hf_e0[0] += 1.0
        hg_e0 = -cg * np.conj(self._vg[0]) * self._vg
        hg_e0[0] += 1.0
        c = np.zeros((3, 3), dtype=complex)
        c[0, 0] = -cf / alpha
        c[1, 1] = -cg / alpha
        c[0, 1] = cf * cg * np.vdot(self._vf, self._vg) / alpha
        c[2, 2] = 1.0 / self.d1 - 1.0 / alpha
        # Row-stacked, so U* and V* are C-contiguous for the block products.
        return (np.stack([self._vf, self._vg, hf_e0]).T, c,
                np.stack([self._vf, self._vg, hg_e0]).T)

    def apply_inverse(self, mat: np.ndarray) -> np.ndarray:
        """T^(-1) applied columnwise to an (N, r) block, in its rank-3 form."""
        mat = np.asarray(mat, dtype=complex)
        u, c, v = self.inverse_factors()
        return mat / self.alpha + u @ (c @ (v.conj().T @ mat))

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
    """The partial isometry V = [[a, beta*], [gamma, D]] together with the
    data needed to rebuild transfer maps and rerun certificates.

    V is stored as its two factors, V = v_left @ v_right*, both of shape
    (1 + trunc * rank, k) with k the number of sample points (k = 1 for
    the rank-0 model [[a]] [[1]]*); the factor columns keep models with
    large feature truncations tractable.  The blocks are read from them:
    a = v_left[0] v_right[0]*, D = d_left d_right* with the views
    d_left = v_left[1:] and d_right = v_right[1:], and the vectors
    beta = d_right conj(v_left[0]) and gamma = d_left conj(v_right[0]),
    which are formed on each access.

    The factors are made read-only (not copied) on construction, so
    d_norm(), contraction_sigma() and block_gram() compute their values
    once per instance and keep them.  They never read ``certificates``: a
    model decoded from a file, or derived through scaled() or replace(),
    is a new instance and computes them again from its own factors.
    """

    points: tuple
    trunc: int
    rank: int
    alpha: complex
    psi: np.ndarray
    v_left: np.ndarray
    v_right: np.ndarray
    mu_sqrt: np.ndarray
    certificates: dict
    multiplier: DirichletMultiplier | None = None

    def __post_init__(self):
        for name in ("psi", "v_left", "v_right", "mu_sqrt"):
            getattr(self, name).flags.writeable = False

    @property
    def a(self) -> complex:
        return complex(self.v_left[0] @ np.conj(self.v_right[0]))

    @property
    def d_left(self) -> np.ndarray:
        return self.v_left[1:]

    @property
    def d_right(self) -> np.ndarray:
        return self.v_right[1:]

    @property
    def beta(self) -> np.ndarray:
        return self.d_right @ np.conj(self.v_left[0])

    @property
    def gamma(self) -> np.ndarray:
        return self.d_left @ np.conj(self.v_right[0])

    # Each cached value is kept in the instance __dict__ under a name that
    # is not a dataclass field, so replace() and scaled() start without it.
    def d_norm(self) -> float:
        """Spectral norm of D, computed on the first call only."""
        if "_d_norm" not in self.__dict__:
            norm = _factored_norm(self.d_left, self.d_right) if self.rank else 0.0
            object.__setattr__(self, "_d_norm", norm)
        return self.__dict__["_d_norm"]

    def contraction_sigma(self) -> float:
        """Spectral norm of V, computed on the first call only."""
        if "_sigma" not in self.__dict__:
            object.__setattr__(self, "_sigma", _factored_norm(self.v_left, self.v_right))
        return self.__dict__["_sigma"]

    def block_gram(self) -> np.ndarray:
        """K = d_right* d_left, the point-independent part of every
        evaluation; computed on the first call only."""
        if "_block_gram" not in self.__dict__:
            object.__setattr__(self, "_block_gram", self.d_right.conj().T @ self.d_left)
        return self.__dict__["_block_gram"]

    def scaled(self, scale: float) -> "RealizationModel":
        """Copy with the rows of V below the first scaled, so gamma and D
        both scale; used as a negative control in verification."""
        v_left = self.v_left.copy()
        v_left[1:] *= scale
        return replace(self, v_left=v_left)


def _lifted_vectors(points, psi, mu_sqrt):
    """Second components of the lifts, one column per point:
    zeta-feature(s_i) (x) psi_i and mobius-feature(s_i) (x) psi_i."""
    zf = power_section(np.asarray(points, dtype=complex), mu_sqrt.size)
    x2 = zf[:, :, None] * psi[:, None, :]
    y2 = (mu_sqrt * zf)[:, :, None] * psi[:, None, :]
    return x2.reshape(len(psi), -1).T, y2.reshape(len(psi), -1).T


def build_realization(phi: DirichletMultiplier, points, trunc: int = 1000,
                      tol: float = 1e-4) -> RealizationModel:
    """Construct the block model of a certified contractive multiplier.

    ``tol`` bounds the truncated Gram-identity residual; the default suits
    interactive truncations around 10^3, while high-accuracy runs at 10^5
    coefficients meet 1e-6.  Raises TruncationError when the truncation
    misses ``tol`` (with a suggested larger truncation), and
    IllConditionedError when the lifted sample vectors are numerically
    dependent.
    """
    if not 0.0 < tol < np.inf:
        raise ValidationError(f"build tolerance must be finite and positive; got {tol}")
    if not phi.certified:
        raise HypothesisError(
            f"multiplier has coefficient sum {phi.declared_norm:.6f} > 1: "
            "no contractivity certificate"
        )
    pts = tuple(complex(p) for p in points)
    gram = defect_gram(phi, pts)
    psi, rank = psd_factor(gram)
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
        return RealizationModel(
            points=pts, trunc=trunc, rank=0, alpha=complex(DEFAULT_ALPHA), psi=psi,
            v_left=np.array([[phi_vals[0]]]), v_right=np.ones((1, 1), dtype=complex),
            mu_sqrt=mu_sqrt, certificates=certs, multiplier=phi,
        )

    x2, y2 = _lifted_vectors(pts, psi, mu_sqrt)
    x = np.vstack([np.ones(len(pts)), x2])
    y = np.vstack([phi_vals, y2])
    del x2, y2  # the stacked copies replace them before the QR
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

    q, r_mat = np.linalg.qr(x)
    # The singular values of R are those of x; any triangular factor has
    # sigma_min / sigma_max <= min|r_ii| / max|r_ii|.
    r_svals = np.linalg.svd(r_mat, compute_uv=False)
    if r_svals[-1] <= QR_DROP_TOL * r_svals[0]:
        raise IllConditionedError(
            "lifted sample vectors are numerically dependent; spread the points"
        )
    w = np.linalg.solve(r_mat.conj().T, y.conj().T).conj().T  # W R = Y
    u_svd, svals, vh_svd = np.linalg.svd(w, full_matrices=False)
    w_iso = u_svd @ vh_svd
    del w, u_svd  # two more N-row arrays; only w_iso is needed from here
    polar_defect = float(np.abs(svals - 1.0).max())

    coords = q.conj().T @ x
    vx = w_iso @ coords
    gram_vx = vx.conj().T @ vx
    norms = np.sqrt(np.abs(np.diag(gram_x).real))
    iso_defect = float((np.abs(gram_vx - gram_x) / np.outer(norms, norms)).max())

    certs = {
        "gram_identity_residual": residual,
        "isometry_defect": iso_defect,
        "sigma_max": 1.0,
        "d_contraction_residual": _column_residual(vx[1:], y[1:]),
        "polar_defect": polar_defect,
        "d_norm": 0.0,
    }
    model = RealizationModel(
        points=pts, trunc=trunc, rank=rank, alpha=complex(DEFAULT_ALPHA), psi=psi,
        # C-contiguous, so evaluations of a deserialized model take the
        # same BLAS paths bit for bit.
        v_left=np.ascontiguousarray(w_iso), v_right=np.ascontiguousarray(q),
        mu_sqrt=mu_sqrt, certificates=certs, multiplier=phi,
    )
    certs["sigma_max"] = model.contraction_sigma()
    certs["d_norm"] = model.d_norm()
    return model


def evaluate_realization(model: RealizationModel, s) -> complex:
    """Evaluate a + <(T (x) I - D)^(-1) gamma, beta> at a point of Re > 1/2.

    With V = v_left v_right* the blocks are a = l0 r0*, beta = d_right l0*,
    gamma = d_left r0* and D = d_left d_right*, writing l0 = v_left[0] and
    r0 = v_right[0].  The Woodbury identity then collapses the value to

        phi(s) = l0 (I_k - M)^(-1) r0*,   M = d_right* (T^(-1) (x) I) d_left.

    With T^(-1) = I / alpha + U C V* (rank 3, FeatureTransfer.inverse_factors),

        M = K / alpha + sum_ab C_ab (U_a* d_right)* (V_b* d_left),

    where K = model.block_gram() does not depend on s and is computed once
    per model.  Each point then makes one pass over the two factors, with
    three rows each, and solves one k x k system; the inverse is never
    formed.  The Neumann certificate |T^(-1)| |D| < 1 is checked before any
    of that work.
    """
    s = complex(s)
    if not s.real > 0.5:
        raise DomainError(f"evaluation point {s} must satisfy Re > 1/2")
    if model.rank == 0 or not model.v_right[0].any():
        return model.a
    # T is built at the conjugate point.
    t = FeatureTransfer(np.conj(s), model.alpha, model.trunc, model.mu_sqrt)
    # |D| comes from the model's read-only factors, computed once per
    # instance; the stored certificates are never trusted.
    neumann = t.inverse_norm * model.d_norm()
    if not neumann < 1.0:
        raise HypothesisError(
            f"invertibility certificate failed: |T^-1| |D| = {neumann:.6f} >= 1"
        )
    u, c, v = t.inverse_factors()
    n, r, k = model.trunc, model.rank, model.v_left.shape[1]
    # Row n*r + j of a factor holds coordinate j of feature n, so rows (x) I
    # contracts the leading axis of the (trunc, r * k) views.
    left = (u.conj().T @ model.d_right.reshape(n, r * k)).reshape(3, r, k)
    right = (v.conj().T @ model.d_left.reshape(n, r * k)).reshape(3, r, k)
    m = model.block_gram() / model.alpha + np.einsum("ajx,ab,bjy->xy", left.conj(), c, right)
    w = np.linalg.solve(np.eye(k) - m, np.conj(model.v_right[0]))
    return complex(model.v_left[0] @ w)


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


def verify_realization(model: RealizationModel, grid=None) -> VerificationReport:
    """Certify that a model represents a contractive multiplier.

    The block-equation tolerance is ten times the Gram-identity residual
    recorded at construction (floor 1e-6), matching how both quantities
    shrink with the truncation.  A model whose D block was tampered with
    fails the contraction check outright and typically also the resolvent
    certificate.
    """
    recorded = float(model.certificates.get("gram_identity_residual", 0.0))
    dcon_tol = max(1e-6, 10.0 * recorded)
    grid = tuple(complex(g) for g in (grid if grid is not None else model.points))
    sigma_max = model.contraction_sigma()
    contraction_ok = sigma_max <= 1.0 + CONTRACTION_TOL

    dcon = 0.0
    if model.rank > 0:
        # The block equation gamma + D(zeta-feature (x) psi) = mobius-feature
        # (x) psi involves only the second components; no multiplier needed.
        x2, y2 = _lifted_vectors(model.points, model.psi, model.mu_sqrt)
        dx = model.d_left @ (model.d_right.conj().T @ x2)
        dcon = _column_residual(dx + model.gamma[:, None], y2)
    d_ok = dcon <= dcon_tol

    values = np.zeros(len(grid), dtype=complex)
    evaluation_error = None
    gram_cert = None
    psd_ok = False
    try:
        for i, g in enumerate(grid):
            values[i] = evaluate_realization(model, g)
        gram = _defect_fill(grid, values, DEFAULT_ABS_ERR)
        scale = max(1.0, float(np.abs(gram).max()))
        gram_cert = certify_psd(gram, psd_tol=PSD_SLACK, rank_tol=1e-8)
        psd_ok = gram_cert.min_eigenvalue >= -PSD_SLACK * scale
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
