"""Output checks that share no code with the package under test.

Matrices are rebuilt from closed forms in numpy, zeta values come from
mpmath, arithmetic functions from this file's own smallest-prime-factor
sieve, and rational Schur functions are evaluated from their serialized
representation with this file's own formulas.
"""

from __future__ import annotations

import math

import numpy as np

# Verdicts are compared only where the deciding quantity is at least this
# factor away from its threshold, mirroring the package's own rule for
# flagging a verdict inconclusive.
MARGIN_FACTOR = 10.0


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ linear algebra


def psd_verdict(matrix, psd_tol):
    """(psd, clear) by the relative rule min_eig >= -tol * max(1, |M|_2);
    ``clear`` is False when min_eig sits within MARGIN_FACTOR of the rule."""
    m = np.asarray(matrix, dtype=complex)
    eig = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    scale = max(1.0, float(np.abs(eig).max()))
    lo = float(eig[0])
    return lo >= -psd_tol * scale, abs(lo) >= MARGIN_FACTOR * psd_tol * scale


def rank_verdict(matrix, rank_tol):
    """(rank, clear): eigenvalues above rank_tol * |M|_2; ``clear`` is False
    when some eigenvalue lies within MARGIN_FACTOR of the threshold."""
    m = np.asarray(matrix, dtype=complex)
    eig = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    spectral = float(np.abs(eig).max())
    if spectral == 0.0:
        return 0, True
    cut = rank_tol * spectral
    near = (eig > cut / MARGIN_FACTOR) & (eig < cut * MARGIN_FACTOR)
    return int(np.sum(eig > cut)), not bool(near.any())


def halfplane_szego_pick(nodes, targets):
    x = np.asarray(nodes, dtype=complex)
    w = np.asarray(targets, dtype=complex)
    return (1.0 - np.outer(w, w.conj())) / (x[:, None] + x.conj()[None, :])


def disc_szego_pick(nodes, targets):
    z = np.asarray(nodes, dtype=complex)
    w = np.asarray(targets, dtype=complex)
    return (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj()))


# ------------------------------------------------------------------- zeta


def zeta_mp(s):
    import mpmath  # imported on first use: checks run after set-up is timed

    with mpmath.workdps(25):
        return complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))


def zeta_gram_mp(nodes):
    """[zeta(x_i + conj(x_j))] from mpmath."""
    x = [complex(v) for v in nodes]
    k = len(x)
    out = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(i, k):
            val = zeta_mp(x[i] + x[j].conjugate())
            out[i, j] = val
            out[j, i] = val.conjugate()
    return out


def kernel_from_zeta(zeta_matrix, kernel):
    """Entrywise kernel values from zeta values: zeta^m or zeta + 1/zeta."""
    if kernel["kind"] == "zeta_power":
        return zeta_matrix ** kernel["power"]
    if kernel["kind"] == "zeta_mobius":
        return zeta_matrix + 1.0 / zeta_matrix
    raise ValueError(f"no zeta oracle for kernel {kernel!r}")


# ------------------------------------------------------- arithmetic functions


class Sieve:
    """Smallest prime factors up to ``limit``, with the arithmetic
    functions the series checks need."""

    def __init__(self, limit):
        self.limit = int(limit)
        spf = np.zeros(self.limit + 1, dtype=np.int64)
        for p in range(2, math.isqrt(self.limit) + 1):
            if spf[p] == 0:
                block = spf[p * p :: p]
                block[block == 0] = p
        self.primes = np.nonzero(spf[2:] == 0)[0] + 2
        spf[self.primes] = self.primes
        self.spf = spf
        self._mu = None
        self._exponents = None

    def mobius(self):
        """mu(0..limit) with mu(0) = 0."""
        if self._mu is None:
            mu = np.ones(self.limit + 1, dtype=np.int64)
            mu[0] = 0
            for p in self.primes:
                mu[p::p] *= -1
                if p * p <= self.limit:
                    mu[p * p :: p * p] = 0
            self._mu = mu
        return self._mu

    def exponents(self):
        """Prime exponents of 1..limit, one array per distinct-prime slot:
        slot k holds the exponent of the k-th smallest prime factor (0 when
        there is none)."""
        if self._exponents is None:
            rem = np.arange(1, self.limit + 1)
            slots = []
            while np.any(rem > 1):
                p = self.spf[rem]
                exponent = np.zeros(self.limit, dtype=np.int64)
                while True:
                    hit = (rem > 1) & (rem % np.maximum(p, 1) == 0) & (p > 0)
                    if not hit.any():
                        break
                    rem = np.where(hit, rem // np.maximum(p, 1), rem)
                    exponent += hit
                slots.append(exponent)
            self._exponents = slots
        return self._exponents

    def divisor_m(self, m):
        """d_m(1..limit) from the multiplicative form prod C(a + m - 1, m - 1)."""
        top = max(int(e.max()) for e in self.exponents()) + 1
        table = np.array([math.comb(a + m - 1, m - 1) for a in range(top)], dtype=np.int64)
        out = np.ones(self.limit, dtype=np.int64)
        for exponent in self.exponents():
            out *= table[exponent]
        return out

    def euler_product(self, count, sigma):
        out = 1.0
        for p in self.primes[:count]:
            out /= 1.0 - float(p) ** (-sigma)
        return out


# ------------------------------------------------------- function evaluation


def eval_disc_solution(encoded, z):
    """Evaluate a serialized disc Schur function (schema pickzeta/1)."""
    z = np.asarray(z, dtype=complex)
    if encoded["representation"] == "blaschke":
        out = np.full(z.shape, complex(*encoded["unimodular"]), dtype=complex)
        for re, im in encoded["zeros"]:
            a = complex(re, im)
            out = out * (z - a) / (1.0 - a.conjugate() * z)
        return out
    out = np.full(z.shape, complex(*encoded["terminal"]), dtype=complex)
    for step in reversed(encoded["steps"]):
        node = complex(*step["node"])
        gamma = complex(*step["parameter"])
        t = (z - node) / (1.0 - node.conjugate() * z) * out
        out = (t + gamma) / (1.0 + gamma.conjugate() * t)
    return out


def dirichlet_poly(coeffs, s):
    """sum_n c_n n^(-s) for the coefficient list c_1, c_2, ..."""
    return sum(complex(c) * n ** (-complex(s)) for n, c in enumerate(coeffs, start=1))


def block_sigma_max(a, beta, gamma, d_left, d_right):
    """Largest singular value of [[a, beta*], [gamma, d_left d_right*]],
    from thin QR factors of its rank-revealing outer-product form."""
    dim = 1 + gamma.size
    e0 = np.zeros((dim, 1), dtype=complex)
    e0[0, 0] = 1.0
    pad = np.zeros((1, d_left.shape[1]), dtype=complex)
    left = np.hstack([np.concatenate(([a], gamma))[:, None], e0,
                      np.vstack([pad, d_left])])
    right = np.hstack([e0, np.concatenate(([0.0], beta))[:, None],
                       np.vstack([pad, d_right])])
    r_left = np.linalg.qr(left, mode="r")
    r_right = np.linalg.qr(right, mode="r")
    return float(np.linalg.svd(r_left @ r_right.conj().T, compute_uv=False)[0])
