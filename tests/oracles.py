"""Independent oracles used to freeze expected values.

Nothing here shares code with the package paths under test: zeta comes
from an alternating-series acceleration and from raw partial sums with an
integral tail bracket, divisor counts from brute-force enumeration, PSD
instances from explicit congruences, and the realization's transfer map,
resolvent and build from dense matrices on the explicit lifts.
"""

import math
from types import SimpleNamespace

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


def mobius_all_primes(limit: int) -> np.ndarray:
    """mu(0..limit) as int64 (mu(0) = 0), flipping the sign of the
    multiples of every prime p <= limit and zeroing those of p^2: the
    package's Mobius sieve before it read the primes up to sqrt(limit) only."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    mu = np.ones(limit + 1, dtype=np.int64)
    for p in np.flatnonzero(is_prime):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    mu[0] = 0
    return mu


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


def dense_block_norm(model) -> tuple:
    """(|D|_2, |[[a, beta*], [gamma, D]]|_2) from the assembled dense blocks."""
    d = model.d_left @ model.d_right.conj().T
    block = np.block([[np.array([[model.a]]), model.beta.conj()[None, :]],
                      [model.gamma[:, None], d]])
    return np.linalg.norm(d, 2), np.linalg.norm(block, 2)


def _householder(x):
    """(H, p): the reflection I - 2 v v* / |v|^2 with v = x/|x| + p e0 and
    p = x_0 / |x_0|, which sends x/|x| to -p e0."""
    xh = x / np.linalg.norm(x)
    phase = xh[0] / abs(xh[0])
    v = xh.copy()
    v[0] += phase
    return np.eye(x.size) - 2.0 * np.outer(v, v.conj()) / np.vdot(v, v).real, phase


def dense_transfer(point, alpha, mu_sqrt) -> tuple:
    """(T, f, g) with f = n^(-conj(point)), g = sqrt(1 + mu) f and the dense
    T = H_g diag(d1, alpha, ..., alpha) H_f assembled from explicit
    Householder matrices, d1 = (|g| / |f|) conj(p_f) p_g, so that T f = g."""
    n = np.arange(1, mu_sqrt.size + 1, dtype=float)
    f = np.exp(-np.conj(complex(point)) * np.log(n))
    g = mu_sqrt * f
    hf, pf = _householder(f)
    hg, pg = _householder(g)
    lam = np.full(f.size, complex(alpha))
    lam[0] = np.linalg.norm(g) / np.linalg.norm(f) * np.conj(pf) * pg
    return hg @ np.diag(lam) @ hf, f, g


def dense_resolvent_value(model, s) -> complex:
    """a + <(T (x) I_r - d_left d_right*)^(-1) gamma, beta> by one dense
    solve, T = dense_transfer at the conjugate point (so f = n^(-s))."""
    t = dense_transfer(np.conj(complex(s)), model.alpha, model.table.mu_sqrt)[0]
    m = np.kron(t, np.eye(model.rank)) - model.d_left @ model.d_right.conj().T
    return complex(model.a + np.vdot(model.beta, np.linalg.solve(m, model.gamma)))


def dense_build(model, phi_values) -> SimpleNamespace:
    """The realization of ``model``'s points, psi and trunc built on the
    explicit (1 + trunc * rank)-row lifts x_i = (1, z_i (x) psi_i) and
    y_i = (phi_i, (sqrt(1 + mu) z_i) (x) psi_i), z_i = n^(-s_i): QR of X,
    the polar factor of Y R^-1, and the build certificates.  The result
    has the dense block attributes that dense_resolvent_value and
    dense_block_norm read."""
    n = np.arange(1, model.trunc + 1, dtype=float)
    z = np.exp(-np.multiply.outer(np.array(model.points), np.log(n)))
    x = np.vstack([np.ones(len(z)), np.stack([np.kron(zi, p) for zi, p in zip(z, model.psi)], 1)])
    y = np.vstack([phi_values, np.stack([np.kron(model.table.mu_sqrt * zi, p)
                                         for zi, p in zip(z, model.psi)], 1)])
    q, r = np.linalg.qr(x)
    u, svals, vh = np.linalg.svd(y @ np.linalg.inv(r), full_matrices=False)
    v_left, gram_x = u @ vh, x.conj().T @ x
    vx = v_left @ (q.conj().T @ x)
    norms = np.sqrt(np.diag(gram_x).real)
    iso = np.abs(vx.conj().T @ vx - gram_x) / np.outer(norms, norms)
    certs = {
        "gram_identity_residual": float(np.abs(gram_x - y.conj().T @ y).max()),
        "isometry_defect": float(iso.max()),
        "d_contraction_residual": float((np.linalg.norm(vx[1:] - y[1:], axis=0)
                                         / np.maximum(1.0, np.linalg.norm(y[1:], axis=0))).max()),
        "polar_defect": float(np.abs(svals - 1.0).max()),
    }
    return SimpleNamespace(
        v_left=v_left, v_right=q, a=complex(v_left[0] @ q[0].conj()),
        d_left=v_left[1:], d_right=q[1:], beta=q[1:] @ v_left[0].conj(),
        gamma=v_left[1:] @ q[0].conj(), certificates=certs, trunc=model.trunc,
        rank=model.rank, alpha=model.alpha, table=model.table)
