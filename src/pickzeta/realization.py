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
the mobius-kernel section, and each evaluation checks the Neumann
certificate |T^(-1)| |D| < 1 that controls the resolvent.  The lifts of
k points lie in the span of the 2k sections n^(-s_i), sqrt(1 + mu(n))
n^(-s_i) (tensor psi), so V is built, held, evaluated and verified as
(1 + 2k * rank)-row cores in an orthonormal basis of that span; the
sections and weights come from one sieve table per truncation.
Everything is finite and all claims come with computed residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dirichlet import DEFAULT_ABS_ERR, DirichletMultiplier, SieveTable, zeta
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
# Largest truncation a run or a model file may ask for.  A build holds
# about 120 k bytes per coefficient for k sample points (sections, the
# section matrix, its QR factors and the span basis): a 4-point build
# peaks near 0.5 GB at 10^6, ten times the acceptance scale 10^5.
MAX_TRUNC = 10**6


def check_trunc(trunc, name: str) -> None:
    """Raise ValidationError naming ``name`` unless 1 <= trunc <= MAX_TRUNC,
    before anything of length trunc is allocated."""
    if not 1 <= trunc <= MAX_TRUNC:
        raise ValidationError(f"{name} must lie in 1..{MAX_TRUNC}; got {trunc}")


def _factored_norm(left, right) -> float:
    """Spectral norm of left @ right* from the R factors of both sides."""
    ra = np.linalg.qr(left, mode="r")
    rb = np.linalg.qr(right, mode="r")
    return float(np.linalg.svd(ra @ rb.conj().T, compute_uv=False).max())


def _column_residual(got, want) -> float:
    """max over columns i of |got_i - want_i| / max(1, |want_i|)."""
    scale = np.maximum(1.0, np.linalg.norm(want, axis=0))
    return float((np.linalg.norm(got - want, axis=0) / scale).max())


def _defect_fill(points, values, zeta_tol: float) -> np.ndarray:
    """[(1 - v_i conj(v_j)) zeta(s_i + conj(s_j))], zeta to ``zeta_tol``."""
    return hermitian_fill(len(points), lambda i, j: (1.0 - values[i] * np.conj(values[j]))
                          * zeta(points[i] + np.conj(points[j]), zeta_tol))


def defect_gram(phi, points) -> np.ndarray:
    """Gram matrix (1 - phi(s_i) conj(phi(s_j))) zeta(s_i + conj(s_j)).

    PSD whenever phi is a contractive multiplier; psd_factor decides it.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise ValidationError("a defect Gram needs at least one sample point")
    for p in pts:
        if not p.real > 0.5:
            raise DomainError(f"sample point {p} must satisfy Re > 1/2")
    vals = np.array([complex(phi(p)) for p in pts])
    return _defect_fill(pts, vals, DEFECT_ZETA_TOL)


def psd_factor(gram, tol: float = DEFAULT_PSD_TOL):
    """Factor a PSD defect Gram as Psi Psi*, keeping eigenvalues > tol * |G|_2.

    Verdict, rank and eigenpairs are those of certify_psd(gram, tol / k, tol)
    for a k x k matrix; as |G|_2 <= k max|g_ij|, the PSD test is never looser
    than -tol * max(1, max|g_ij|).  Returns (Psi, r) with Psi of shape (k, r);
    row i is the lifted vector psi(s_i).  Reconstruction error is bounded by
    the discarded spectrum.
    """
    cert = certify_psd(gram, tol / max(1, len(gram)), tol)
    if not cert.psd:
        raise HypothesisError(
            f"defect Gram has min eigenvalue {cert.min_eigenvalue:.3e}: "
            "phi is not a contractive multiplier on these points"
        )
    keep = slice(cert.size - cert.numerical_rank, None)
    psi = cert.eigenvectors[:, keep] * np.sqrt(cert.eigenvalues[keep])
    return psi, cert.numerical_rank


class FeatureTransfer:
    """Invertible map between truncated feature spaces sending the
    zeta-kernel section f = n^(-conj(point)) to the mobius-kernel section
    g = sqrt(1 + mu(n)) f, both read from the truncation's SieveTable
    (``table``, built for ``trunc`` when not given).

    T = H_g (diag(d1, alpha, ..., alpha)) H_f with H_f, H_g the Householder
    reflections swapping f / |f| and g / |g| with -e0 (f[0] = 1 and
    g[0] = sqrt(2) are positive), so T^(-1) = I / alpha + E G E* with
    E = [e0, f, g]: ``sections`` keeps the rows f* and g* of E*, and three
    sums over n <= trunc fix the 3 x 3 ``inverse_coeffs`` G and the exact
    inverse norm max(|f| / |g|, 1/|alpha|).  section_ratio = |f| / |g| lies
    below eps_tilde < 1 only in the limit; finite truncations near
    Re = 1/2 can exceed it, so evaluation gates on the exact Neumann
    certificate |T^(-1)| |D| < 1 instead.
    """

    def __init__(self, point: complex, alpha: complex = DEFAULT_ALPHA,
                 trunc: int = 1000, table: SieveTable | None = None):
        point = complex(point)
        if not point.real > 0.5:
            raise DomainError(f"point {point} must satisfy Re > 1/2")
        if not abs(alpha) > 1.0:
            raise DomainError("alpha must satisfy |alpha| > 1")
        if table is None:
            table = SieveTable(trunc)
        if table.trunc != trunc:
            raise ValidationError("the sieve table's truncation must equal trunc")
        self.point = point
        self.alpha = complex(alpha)
        self.trunc = int(trunc)

        f_star = table.section(point)  # conj(f), as mu_sqrt is real
        self.sections = np.stack([f_star, table.mu_sqrt * f_star])
        nf = self.section_norm = float(np.linalg.norm(f_star))
        ng = self.image_norm = float(np.linalg.norm(self.sections[1]))
        self.section_ratio = nf / ng
        self.d1 = ng / nf
        # H_f = I - c_f v_f v_f* with v_f = e0 + f / |f| and c_f = 2 / |v_f|^2,
        # likewise H_g; in the coordinates of [e0, f / |f|, g / |g|],
        # v_f = (1, 1, 0) and v_g = (1, 0, 1).
        cf = nf / (nf + 1.0)
        cg = ng / (ng + np.sqrt(2.0))
        fg = float(np.vdot(f_star, self.sections[1]).real)
        vf_vg = 1.0 + 1.0 / nf + np.sqrt(2.0) / ng + fg / (nf * ng)
        vf, vg = np.array([1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0])
        # H_f H_g / alpha less I / alpha, plus (1/d1 - 1/alpha) (H_f e0) (H_g e0)*.
        coeffs = (cf * cg * vf_vg * np.outer(vf, vg) - cf * np.outer(vf, vf)
                  - cg * np.outer(vg, vg)) / self.alpha
        coeffs[1, 2] += 1.0 / self.d1 - 1.0 / self.alpha
        scale = np.array([1.0, nf, ng])
        self.inverse_coeffs = coeffs / np.outer(scale, scale)

    @property
    def eps_tilde(self) -> float:
        """sqrt((zeta(2 sigma)^2 + 1/2) / (zeta(2 sigma)^2 + 1)) < 1, the limit
        of section_ratio's bound; computed on access, as it gates nothing."""
        z = zeta(2.0 * self.point.real).real
        return float(np.sqrt((z * z + 0.5) / (z * z + 1.0)))

    @property
    def inverse_norm(self) -> float:
        """Exact norm of the inverse map, max(|f|/|g|, 1/|alpha|)."""
        return max(self.section_ratio, 1.0 / abs(self.alpha))


def feature_transfer(point, alpha: complex = DEFAULT_ALPHA, trunc: int = 1000,
                     table: SieveTable | None = None) -> FeatureTransfer:
    return FeatureTransfer(point, alpha, trunc, table)


def _thin_qr(a: np.ndarray):
    """Thin QR a = q r with LAPACK's geqrf factors: r is the R of
    np.linalg.qr(a) bit for bit, and q = H_1 ... H_p restricted to its
    first p = min(a.shape) columns is formed in compact WY form
    I - V T V* (Schreiber & Van Loan 1989), T the p x p triangle of the
    reflector products, at the cost of two products with the n x p V."""
    h, tau = np.linalg.qr(a, mode="raw")
    h = h.T  # column-major geqrf output: R on and above the diagonal, V below
    p = tau.size
    v1 = np.tril(h[:p, :p], -1) + np.eye(p)
    v2 = h[p:, :p]
    vv = v1.conj().T @ v1 + v2.conj().T @ v2
    t = np.zeros((p, p), dtype=h.dtype)
    for i in range(p):
        t[:i, i] = -tau[i] * (t[:i, :i] @ vv[:i, i])
        t[i, i] = tau[i]
    w = t @ v1.conj().T
    q = np.empty((h.shape[0], p), dtype=h.dtype)
    q[:p] = np.eye(p) - v1 @ w
    np.matmul(v2, -w, out=q[p:])
    return q, np.triu(h[:p])


class FeatureSpan(NamedTuple):
    """Thin QR [Z | diag(mu_sqrt) Z] = q [r_zeta | r_mobius] of the sample
    sections z_i = n^(-s_i), n <= trunc, all read from one SieveTable; q
    is trunc x m with m = min(trunc, 2k), and diag(R) >= 0 makes it a
    function of the sections."""

    q: np.ndarray
    r_zeta: np.ndarray
    r_mobius: np.ndarray


def feature_span(points, table: SieveTable) -> FeatureSpan:
    z = table.section(np.asarray(points, dtype=complex))
    q, r = _thin_qr(np.vstack([z, table.mu_sqrt * z]).T)
    # LAPACK leaves diag(R) real; flipping signs is exact.
    sign = np.where(np.diagonal(r).real < 0.0, -1.0, 1.0)
    q, r = q * sign, sign[:, None] * r
    return FeatureSpan(q, r[:, :len(z)], r[:, len(z):])


@dataclass(frozen=True)
class RealizationModel:
    """The partial isometry V = [[a, beta*], [gamma, D]] together with the
    data needed to rebuild transfer maps and rerun certificates.

    Every lift lies in the range of the isometry B = blockdiag(1, Q (x) I_r)
    with Q = span.q (FeatureSpan), so V = B v_left v_right* B*: the stored
    factors are its cores, of shape (1 + m * rank, k) for k sample points
    and m = min(trunc, 2k), where row 1 + a * rank + j pairs column a of Q
    with coordinate j of psi (k = 1 for the rank-0 model [[a]] [[1]]*).
    ``table`` (the SieveTable of trunc) and ``span`` are derived from
    points and trunc at build or decode, never stored, and shared by
    scaled() and replace(); every trunc-length section and weight the
    model's operations use is read from ``table``.  a = v_left[0]
    v_right[0]*; the dense d_left, d_right (trunc * rank rows), D = d_left
    d_right*, beta = d_right conj(v_left[0]) and gamma = d_left
    conj(v_right[0]) are formed on each access, for independent checks
    only.

    The arrays are made read-only (not copied) on construction, so
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
    table: SieveTable
    span: FeatureSpan
    certificates: dict
    multiplier: DirichletMultiplier | None = None

    def __post_init__(self):
        for arr in (self.psi, self.v_left, self.v_right, *self.span):
            arr.flags.writeable = False

    def _dense(self, core: np.ndarray) -> np.ndarray:
        """(Q (x) I_r) core for the feature rows of a core factor."""
        q, k = self.span.q, core.shape[1]
        return (q @ core.reshape(q.shape[1], self.rank * k)).reshape(-1, k)

    @property
    def a(self) -> complex:
        return complex(self.v_left[0] @ np.conj(self.v_right[0]))

    @property
    def d_left(self) -> np.ndarray:
        return self._dense(self.v_left[1:])

    @property
    def d_right(self) -> np.ndarray:
        return self._dense(self.v_right[1:])

    @property
    def beta(self) -> np.ndarray:
        return self._dense(self.v_right[1:] @ np.conj(self.v_left[:1]).T).ravel()

    @property
    def gamma(self) -> np.ndarray:
        return self._dense(self.v_left[1:] @ np.conj(self.v_right[:1]).T).ravel()

    # Each cached value is kept in the instance __dict__ under a name that
    # is not a dataclass field, so replace() and scaled() start without it.
    def d_norm(self) -> float:
        """Spectral norm of D, computed on the first call only."""
        if "_d_norm" not in self.__dict__:
            norm = _factored_norm(self.v_left[1:], self.v_right[1:]) if self.rank else 0.0
            object.__setattr__(self, "_d_norm", norm)
        return self.__dict__["_d_norm"]

    def contraction_sigma(self) -> float:
        """Spectral norm of V, computed on the first call only."""
        if "_sigma" not in self.__dict__:
            object.__setattr__(self, "_sigma", _factored_norm(self.v_left, self.v_right))
        return self.__dict__["_sigma"]

    def block_gram(self) -> np.ndarray:
        """K = d_right* d_left, the point-independent part of every
        evaluation, from the cores; computed on the first call only."""
        if "_block_gram" not in self.__dict__:
            object.__setattr__(self, "_block_gram",
                               self.v_right[1:].conj().T @ self.v_left[1:])
        return self.__dict__["_block_gram"]

    def scaled(self, scale: float) -> "RealizationModel":
        """Copy with the rows of V below the first scaled, so gamma and D
        both scale; used as a negative control in verification."""
        v_left = self.v_left.copy()
        v_left[1:] *= scale
        return replace(self, v_left=v_left)


def _lifts(span: FeatureSpan, psi: np.ndarray):
    """Cores of the lifts, one column per point: x_i = (1, r_zeta e_i (x)
    psi_i), and the second components r_mobius e_i (x) psi_i of the y_i."""
    x2 = (span.r_zeta.T[:, :, None] * psi[:, None, :]).reshape(len(psi), -1)
    y2 = (span.r_mobius.T[:, :, None] * psi[:, None, :]).reshape(len(psi), -1)
    return np.vstack([np.ones(len(psi)), x2.T]), y2.T


def span_residual(model: RealizationModel) -> float:
    """max_i |x_i - P x_i| / |x_i| for the lifts x_i of the model's points,
    psi and trunc, with P = v_right v_right*: rounding for a built model,
    whose v_right is an orthonormal basis of span{x_i}."""
    x = _lifts(model.span, model.psi)[0]
    return _column_residual(model.v_right @ (model.v_right.conj().T @ x), x)


def gram_identity_residual(model: RealizationModel) -> float:
    """max |<x_i, x_j> - <y_i, y_j>| of the truncated lifts, recomputed from
    points, psi and trunc alone: psi psi* = (1 - phi phi*) zeta(s_i +
    conj(s_j)) gives the first components, and the rest is
    (R_zeta* R_zeta - R_mobius* R_mobius) conj(psi psi*) entrywise."""
    pp = model.psi @ model.psi.conj().T
    zg = _defect_fill(model.points, np.zeros(len(pp)), DEFECT_ZETA_TOL)  # zeta(s_i + conj(s_j))
    rz, rm = model.span.r_zeta, model.span.r_mobius
    diff = np.conj(pp / zg) + (rz.conj().T @ rz - rm.conj().T @ rm) * np.conj(pp)
    return float(np.abs(diff).max())


def build_realization(phi: DirichletMultiplier, points, trunc: int = 1000,
                      tol: float = 1e-4) -> RealizationModel:
    """Construct the block model of a certified contractive multiplier.

    Every step runs on the cores of the lifts (RealizationModel), whose
    norms, QR and SVD are those of the lifts; nothing is factored from a
    Gram.  ``tol`` bounds the truncated Gram-identity residual; the default
    suits interactive truncations around 10^3, while high-accuracy runs at 10^5
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
    table = SieveTable(trunc)
    span = feature_span(pts, table)
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
            table=table, span=span, certificates=certs, multiplier=phi,
        )

    x, y2 = _lifts(span, psi)
    y = np.vstack([phi_vals, y2])
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

    q, r_mat = _thin_qr(x)
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
        table=table, span=span, certificates=certs, multiplier=phi,
    )
    certs["sigma_max"] = model.contraction_sigma()
    certs["d_norm"] = model.d_norm()
    return model


def evaluate_realization(model: RealizationModel, s) -> complex:
    """Evaluate a + <(T (x) I - D)^(-1) gamma, beta> at a point of Re > 1/2.

    Write l0 = v_left[0], r0 = v_right[0] and L, R for the feature rows of
    the cores, so V = B v_left v_right* B* (RealizationModel).  Woodbury
    collapses the value to

        phi(s) = l0 (I_k - M)^(-1) r0*,   M = R* B* (T^(-1) (x) I) B L,

    and with T^(-1) = I / alpha + E G E* (FeatureTransfer) and P = E* Q,
    the 3 x m rows e0* Q, f* Q and g* Q,

        M = K / alpha + sum_ab G_ab ((P_a (x) I) R)* (P_b (x) I) L,

    where K = model.block_gram() is computed once per model.  A point costs
    one section f, its three norms, the 2 x trunc by trunc x m product and
    k x k work; the inverse is never formed.  The Neumann certificate
    |T^(-1)| |D| < 1 is checked before the product.
    """
    s = complex(s)
    if not s.real > 0.5:
        raise DomainError(f"evaluation point {s} must satisfy Re > 1/2")
    if model.rank == 0 or not model.v_right[0].any():
        return model.a
    # T is built at the conjugate point.
    t = FeatureTransfer(np.conj(s), model.alpha, model.trunc, model.table)
    # |D| comes from the model's read-only factors, computed once per
    # instance; the stored certificates are never trusted.
    neumann = t.inverse_norm * model.d_norm()
    if not neumann < 1.0:
        raise HypothesisError(
            f"invertibility certificate failed: |T^-1| |D| = {neumann:.6f} >= 1"
        )
    q = model.span.q
    p = np.vstack([q[:1], t.sections @ q])
    m, r, k = q.shape[1], model.rank, model.v_left.shape[1]
    left = (p @ model.v_right[1:].reshape(m, r * k)).reshape(3, r, k)
    right = (p @ model.v_left[1:].reshape(m, r * k)).reshape(3, r, k)
    mat = model.block_gram() / model.alpha + np.einsum(
        "ajx,ab,bjy->xy", left.conj(), t.inverse_coeffs, right)
    w = np.linalg.solve(np.eye(k) - mat, np.conj(model.v_right[0]))
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
    (floor 1e-6), recomputed from points, psi and trunc (never read from
    ``certificates``), matching how both quantities shrink with the
    truncation.  psd_ok is the verdict of certify_psd at PSD_SLACK / k on
    the defect Gram of the evaluations at k grid points.  A model whose D
    block was tampered with fails the contraction check outright and
    typically also the resolvent certificate.
    """
    grid = tuple(complex(g) for g in (grid if grid is not None else model.points))
    if not grid:
        raise ValidationError("a verification grid needs at least one point")
    dcon_tol = max(1e-6, 10.0 * gram_identity_residual(model))
    sigma_max = model.contraction_sigma()
    contraction_ok = sigma_max <= 1.0 + CONTRACTION_TOL

    # The block equation gamma + D(zeta-feature (x) psi) = mobius-feature
    # (x) psi is the lower part of V x_i = y_i; no multiplier needed.
    x, y2 = _lifts(model.span, model.psi)
    dcon = _column_residual(model.v_left[1:] @ (model.v_right.conj().T @ x), y2)
    d_ok = dcon <= dcon_tol

    values = np.zeros(len(grid), dtype=complex)
    evaluation_error = None
    gram_cert = None
    try:
        for i, g in enumerate(grid):
            values[i] = evaluate_realization(model, g)
        gram = _defect_fill(grid, values, DEFAULT_ABS_ERR)
        gram_cert = certify_psd(gram, PSD_SLACK / len(grid), 1e-8)
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
        psd_ok=gram_cert is not None and gram_cert.psd,
        evaluation_error=evaluation_error,
    )
