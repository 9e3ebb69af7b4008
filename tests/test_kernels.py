import numpy as np
import pytest

from pickzeta import (
    CoefficientSeries,
    DomainError,
    TruncationError,
    ValidationError,
    diagonal_kernel,
    feature_map,
    gram_matrix,
    kernel_eval,
    mobius_range,
    szego_disc,
    szego_half_plane,
    zeta,
    zeta_mobius_kernel,
    zeta_power_coeffs,
    zeta_power_kernel,
    zeta_reciprocal,
)

ZETA2 = 1.6449340668482264


class TestKernelEval:
    def test_zeta_kernel_diagonal_value(self):
        assert kernel_eval(zeta_power_kernel(1), 1.0, 1.0) == pytest.approx(ZETA2, abs=1e-10)

    def test_szego_half_plane(self):
        assert kernel_eval(szego_half_plane(), 1.0, 2.0) == pytest.approx(1.0 / 3.0)

    def test_szego_disc(self):
        assert kernel_eval(szego_disc(), 0.5, 0.25j) == pytest.approx(1.0 / (1.0 - 0.5 * (-0.25j)))

    def test_mobius_kernel_closed_form_on_diagonal(self):
        val = kernel_eval(zeta_mobius_kernel(), 1.0, 1.0)
        assert val == pytest.approx(ZETA2 + 1.0 / ZETA2, abs=1e-10)
        assert val == pytest.approx(2.2528611687, abs=1e-9)

    def test_mobius_kernel_against_series(self):
        # Truncated coefficient series with N = 1e6 on points where the
        # positive tail sits below 1e-8 (pair sums >= 2.4).
        n = 10**6
        coeffs = 1.0 + mobius_range(n)[1:].astype(float)
        x = np.arange(1, n + 1, dtype=float)
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = complex(rng.uniform(1.2, 3.0), rng.uniform(-2.0, 2.0))
            u = complex(rng.uniform(1.2, 3.0), rng.uniform(-2.0, 2.0))
            w = s + np.conj(u)
            series = complex(np.sum(coeffs * np.exp(-w * np.log(x))))
            closed = kernel_eval(zeta_mobius_kernel(), s, u)
            assert abs(closed - series) < 1e-8

    def test_power_consistency(self):
        base = zeta_power_kernel(1)
        for m in (2, 3, 5):
            spec = zeta_power_kernel(m)
            for (s, u) in ((1.0, 1.2), (0.8 + 0.3j, 1.5 - 1.0j)):
                one = kernel_eval(base, s, u)
                many = kernel_eval(spec, s, u)
                assert abs(many - one**m) <= 1e-10 * abs(one) ** m

    def test_power_matches_diagonal_series_up_to_tail(self):
        m, n = 2, 10**4
        spec = zeta_power_kernel(m)
        diag = diagonal_kernel(zeta_power_coeffs(m, n))
        s, u = 1.4, 1.1
        closed = kernel_eval(spec, s, u)
        partial = kernel_eval(diag, s, u)
        tail = (zeta(2.0 * min(s, u)).real ** m
                - sum(zeta_power_coeffs(m, n).coeffs.real
                      * np.arange(1, n + 1, dtype=float) ** (-2.0 * min(s, u))))
        assert partial.real < closed.real
        assert abs(closed - partial) <= tail + 1e-10

    def test_hermitian_symmetry_every_kernel(self):
        series = CoefficientSeries(np.array([1.0, 0.5, 0.25, 0.125]))
        cases = [
            (szego_disc(), 0.3 + 0.2j, -0.4 + 0.1j),
            (szego_half_plane(), 1.0 + 2.0j, 0.5 - 1.0j),
            (zeta_power_kernel(3), 0.9 + 0.4j, 1.3 - 0.2j),
            (zeta_mobius_kernel(), 0.8 + 1.0j, 1.1 + 0.5j),
            (diagonal_kernel(series), 0.7 - 0.3j, 0.9 + 0.8j),
        ]
        for spec, s, u in cases:
            assert kernel_eval(spec, u, s) == np.conj(kernel_eval(spec, s, u))

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            kernel_eval(szego_disc(), 1.2, 0.0)
        with pytest.raises(DomainError):
            kernel_eval(szego_half_plane(), -0.1, 1.0)
        with pytest.raises(DomainError):
            kernel_eval(zeta_power_kernel(1), 0.4, 1.0)

    def test_diagonal_requires_nonnegative_coeffs(self):
        with pytest.raises(ValidationError):
            diagonal_kernel(CoefficientSeries([1.0, -0.5]))


class TestGramMatrix:
    def test_two_point_zeta_gram(self):
        g = gram_matrix(zeta_power_kernel(1), [1.0, 2.0])
        z2, z3, z4 = zeta(2.0), zeta(3.0), zeta(4.0)
        assert np.allclose(g, [[z2, z3], [z3, z4]], atol=1e-12)

    def test_single_point(self):
        g = gram_matrix(zeta_mobius_kernel(), [0.75])
        assert g.shape == (1, 1)
        assert g[0, 0].imag == 0.0
        assert g[0, 0].real > 0.0

    def test_hermitian(self):
        pts = [0.8 + 0.1j, 1.1 - 0.6j, 2.0 + 0.3j]
        g = gram_matrix(zeta_power_kernel(2), pts)
        assert np.array_equal(g, g.conj().T)

    def test_duplicates_flagged(self):
        with pytest.raises(ValidationError):
            gram_matrix(szego_half_plane(), [1.0, 1.0])


class TestFeatureMap:
    def test_zeta_coordinates(self):
        f = feature_map(zeta_power_kernel(1), 1.0, 3)
        assert np.allclose(f.coords, [1.0, 0.5, 1.0 / 3.0])

    def test_mobius_coordinates_vanish_on_primes(self):
        f = feature_map(zeta_mobius_kernel(), 1.0, 8)
        # 1 + mu(m) = 0 at squarefree m with an odd number of primes;
        # m = 4 has mu = 0 so its weight is 1.
        assert f.coords[1] == 0.0        # m = 2
        assert f.coords[2] == 0.0        # m = 3
        assert f.coords[3] == pytest.approx(0.25)  # m = 4 -> sqrt(1) * 4^-1
        assert f.coords[4] == 0.0        # m = 5
        assert f.coords[5] == pytest.approx(np.sqrt(2.0) / 6.0)  # mu(6) = 1

    def test_truncated_norm_below_kernel_diagonal(self):
        spec = zeta_mobius_kernel()
        for n in (10, 100, 1000):
            f = feature_map(spec, 0.9, n)
            diag = kernel_eval(spec, 0.9, 0.9).real
            assert f.norm() ** 2 <= diag
            assert f.norm() ** 2 + f.tail_bound >= diag - 1e-8

    def test_feature_gram_converges_monotonically(self):
        spec = zeta_power_kernel(2)
        pts = [1.0, 1.3, 1.8]
        target = gram_matrix(spec, pts)
        previous_diag = np.zeros(3)
        for n in (10, 100, 1000, 5000):
            feats = [feature_map(spec, p, n) for p in pts]
            gram = np.array([[fi.inner(fj) for fj in feats] for fi in feats])
            diag = np.diag(gram).real
            assert np.all(diag >= previous_diag - 1e-15)
            bound = max(f.tail_bound for f in feats)
            assert np.abs(gram - target).max() <= bound + 1e-9
            previous_diag = diag

    def test_inner_product_reproduces_kernel(self):
        spec = zeta_power_kernel(1)
        f1 = feature_map(spec, 1.1 + 0.4j, 4000)
        f2 = feature_map(spec, 1.6 - 0.2j, 4000)
        target = kernel_eval(spec, 1.1 + 0.4j, 1.6 - 0.2j)
        assert abs(f1.inner(f2) - target) < 1e-3

    def test_tail_bound_enforced(self):
        with pytest.raises(TruncationError):
            feature_map(zeta_power_kernel(1), 0.6, 50, max_tail=1e-6)

    def test_szego_kernels_have_no_feature_map(self):
        with pytest.raises(ValidationError):
            feature_map(szego_half_plane(), 1.0, 10)

    def test_diagonal_kernel_is_exact(self):
        series = CoefficientSeries(np.array([2.0, 0.0, 1.0]))
        f = feature_map(diagonal_kernel(series), 1.0, 3)
        assert f.tail_bound == 0.0
        expected = 2.0 + 1.0 / 9.0
        assert f.inner(f) == pytest.approx(expected)


class TestReciprocalHelpers:
    def test_zeta_reciprocal_consistency(self):
        s = 1.7 + 0.9j
        assert abs(zeta(s) * zeta_reciprocal(s) - 1.0) < 1e-12


class TestKernelSpec:
    @pytest.mark.parametrize("power", [2.7, 2.0, True, "2", 0])
    def test_rejects_non_integer_powers(self, power):
        with pytest.raises(ValidationError, match="power"):
            zeta_power_kernel(power)

    def test_accepts_numpy_integers(self):
        assert zeta_power_kernel(np.int64(3)).power == 3
