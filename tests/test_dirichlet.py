import numpy as np
import pytest

from pickzeta import (
    AccuracyError,
    CoefficientSeries,
    DomainError,
    HalfPlanePoint,
    dirichlet_convolve,
    euler_product,
    mobius,
    mobius_range,
    smooth_numbers,
    smooth_partial_sum,
    zeta,
    zeta_power_coeffs,
    zeta_reciprocal,
)

from oracles import (
    divisor_counts,
    divisor_function_m,
    mobius_trial,
    primes_trial,
    zeta_alternating,
    zeta_partial_sum_bracket,
)

# Reference values computed with the alternating-series oracle (60 terms),
# cross-checked against the partial-sum bracket at 1e7 terms.
ZETA2 = 1.6449340668482264
ZETA3 = 1.2020569031595943
ZETA4 = 1.0823232337111382
ZETA7 = 1.0083492773819228
ZETA12 = 1.0002460865533080


class TestZeta:
    @pytest.mark.parametrize("s,expected", [
        (2.0, ZETA2), (3.0, ZETA3), (4.0, ZETA4), (7.0, ZETA7), (12.0, ZETA12),
    ])
    def test_reference_values(self, s, expected):
        assert zeta(s) == pytest.approx(expected, abs=1e-12)

    def test_real_argument_gives_real_result(self):
        assert zeta(3.0).imag == 0.0

    def test_partial_sum_bracket_at_s3(self):
        lo, hi = zeta_partial_sum_bracket(3.0, 10**7)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assert abs(zeta(3.0).real - mid) <= half + 1e-10

    def test_alternating_series_grid(self):
        # Re(s) in [1.1, 30], |Im(s)| <= 10.
        for sr in (1.1, 1.3, 2.0, 5.0, 11.0, 30.0):
            for si in (0.0, 0.5, -3.0, 10.0):
                s = complex(sr, si)
                assert abs(zeta(s) - zeta_alternating(s)) < 1e-10

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            zeta(1.0)
        with pytest.raises(DomainError):
            zeta(1.0 + 1e-7)
        with pytest.raises(DomainError):
            zeta(0.9 + 5j)

    def test_accuracy_error_when_target_unreachable(self):
        with pytest.raises(AccuracyError):
            zeta(1.0 + 2e-6, target_abs_err=1e-13)

    @pytest.mark.parametrize("s", [2 + 1e9j, 2 + 1e30j, 2 + 1e200j, complex(2.0, float("inf"))])
    def test_accuracy_error_when_cutoff_is_huge_or_not_finite(self, s):
        # |Im s| / 3 exceeds the cutoff cap; at 1e30 the rising factorial
        # overflows to inf and at 1e200 to nan.
        with pytest.raises(AccuracyError, match="cutoff"):
            zeta(s)

    def test_zeta_ratio_below_eight_ninths(self):
        # zeta(3)^2 / (zeta(2) zeta(4)) < 8/9 with a rigorous error budget:
        # each factor carries error at most 1e-10, so the quotient moves by
        # less than 1e-9, far inside the 0.077 gap.
        tol = 1e-10
        ratio = (zeta(3.0, tol) ** 2 / (zeta(2.0, tol) * zeta(4.0, tol))).real
        assert ratio == pytest.approx(0.8116047448509, abs=1e-9)
        assert ratio < 8.0 / 9.0 - 0.07


class TestZetaReciprocal:
    def test_value_at_two(self):
        assert zeta_reciprocal(2.0) == pytest.approx(1.0 / ZETA2, abs=1e-12)

    def test_matches_mobius_series(self):
        mu = mobius_range(10**6)
        n = np.arange(1, 10**6 + 1, dtype=float)
        series = float(np.sum(mu[1:] * n ** (-2.0)))
        assert abs(series - zeta_reciprocal(2.0).real) < 1e-6

    def test_partial_mu_series_at_1e5(self):
        mu = mobius_range(10**5)
        n = np.arange(1, 10**5 + 1, dtype=float)
        partial = float(np.sum(mu[1:] * n ** (-2.0)))
        assert abs(partial - zeta_reciprocal(2.0).real) < 1e-4

    def test_product_identity_on_grid(self):
        tol = 1e-12
        for sr in np.linspace(1.1, 20.0, 25):
            for si in (0.0, -1.0, 2.5, 7.0):
                s = complex(sr, si)
                assert abs(zeta(s, tol) * zeta_reciprocal(s, tol) - 1.0) <= 2.0 * tol + 1e-13


class TestMobius:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, -1), (4, 0), (6, 1), (30, -1)])
    def test_small_values(self, n, expected):
        assert mobius(n) == expected

    def test_against_trial_division(self):
        for n in range(1, 2000):
            assert mobius(n) == mobius_trial(n)

    def test_sieve_matches_scalar(self):
        mu = mobius_range(5000)
        for n in range(1, 5001):
            assert mu[n] == mobius(n)

    def test_factorization_limit(self):
        with pytest.raises(AccuracyError):
            mobius(10**14 + 1)

    @pytest.mark.parametrize("n", [10**8 + 7, 10**8 + 8, 99991 * 99989, 6 * 10007**2])
    def test_past_old_table_cap(self, n):
        assert mobius(n) == mobius_trial(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mobius(0)


class TestConvolution:
    def test_mobius_inversion_is_exact(self):
        n = 10**4
        ones = CoefficientSeries.ones(n)
        mu = CoefficientSeries.mobius(n)
        unit = dirichlet_convolve(ones, mu)
        expected = np.zeros(n)
        expected[0] = 1.0
        assert np.array_equal(unit.coeffs, expected.astype(complex))

    def test_ones_squared_gives_divisor_counts(self):
        ones = CoefficientSeries.ones(100)
        tau = dirichlet_convolve(ones, ones)
        assert np.array_equal(tau.coeffs.real.astype(np.int64), divisor_counts(100))

    def test_unit_element(self):
        rng = np.random.default_rng(7)
        a = CoefficientSeries(rng.standard_normal(50) + 1j * rng.standard_normal(50))
        e = CoefficientSeries.unit(50)
        out = dirichlet_convolve(a, e)
        assert np.allclose(out.coeffs, a.coeffs, rtol=0, atol=0)

    def test_truncation_mismatch(self):
        from pickzeta import ValidationError
        with pytest.raises(ValidationError):
            dirichlet_convolve(CoefficientSeries.ones(5), CoefficientSeries.ones(6))


class TestZetaPowers:
    def test_first_power_is_ones(self):
        assert np.array_equal(zeta_power_coeffs(1, 64).coeffs, np.ones(64, complex))

    def test_two_fold_at_six(self):
        assert zeta_power_coeffs(2, 10).term(6) == 4

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_repeated_convolution(self, m):
        n = 2000
        ones = CoefficientSeries.ones(n)
        reference = ones
        for _ in range(m - 1):
            reference = dirichlet_convolve(reference, ones)
        assert np.array_equal(zeta_power_coeffs(m, n).coeffs, reference.coeffs)

    def test_matches_brute_force(self):
        for m in (2, 3):
            brute = divisor_function_m(m, 60)
            mine = zeta_power_coeffs(m, 60).coeffs.real.astype(np.int64)
            assert np.array_equal(mine, brute)

    def test_partial_sums_approach_zeta_power(self):
        n = 10**4
        x = np.arange(1, n + 1, dtype=float)
        for m in (1, 2, 3):
            coeffs = zeta_power_coeffs(m, n).coeffs.real
            partial = float(np.sum(coeffs * x ** (-4.0)))
            target = zeta(4.0).real ** m
            # The omitted tail is positive and bounded by the same sum at
            # exponent 3.5 scaled by the decay of the extra n^(-1/2).
            assert partial < target
            assert target - partial < 5e-3


class TestSmoothSums:
    def test_powers_of_two_geometric(self):
        value = smooth_partial_sum(1, 1.0, 2**20)
        assert value == pytest.approx(2.0 - 2.0 ** (-20.0), abs=1e-12)
        assert value < 2.0

    def test_two_primes_sigma_two(self):
        value = smooth_partial_sum(2, 2.0, 10**4)
        assert abs(value - 1.5) < 1e-3
        assert euler_product(2, 2.0) == pytest.approx(1.5, abs=1e-14)

    def test_monotone_in_limit(self):
        values = [smooth_partial_sum(3, 0.8, n) for n in (10, 100, 1000, 10000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("sigma", [0.6, 1.0, 2.0])
    def test_never_exceeds_euler_product(self, n, sigma):
        limit = euler_product(n, sigma)
        previous = 0.0
        for cut in (10**2, 10**3, 10**4, 10**5):
            value = smooth_partial_sum(n, sigma, cut)
            assert value >= previous
            assert value <= limit + 1e-12
            previous = value

    def test_more_primes_than_old_table(self):
        # 1229 primes lie below 10^4; the 1230th, 10007, is the first above.
        assert primes_trial(1230)[-1] == 10007
        assert np.array_equal(smooth_numbers(1300, 10**4), np.arange(1, 10**4 + 1))
        assert smooth_numbers(1229, 10007)[-1] == 10006
        assert smooth_numbers(1230, 10007)[-1] == 10007

    @pytest.mark.parametrize("sigma", [0.6, 2.0])
    def test_euler_product_past_old_table(self, sigma):
        expected = 1.0
        for p in primes_trial(1500):
            expected /= 1.0 - p ** (-sigma)
        assert euler_product(1500, sigma) == pytest.approx(expected, rel=1e-13)

    def test_smooth_number_membership(self):
        vals = smooth_numbers(2, 100)
        assert list(vals[:8]) == [1, 2, 3, 4, 6, 8, 9, 12]
        for v in vals:
            reduced = int(v)
            for p in (2, 3):
                while reduced % p == 0:
                    reduced //= p
            assert reduced == 1


class TestTypes:
    def test_half_plane_point_enforces_floor(self):
        HalfPlanePoint(0.6 + 1j, 0.5)
        with pytest.raises(DomainError):
            HalfPlanePoint(0.5 + 1j, 0.5)

    def test_prime_table_contents(self):
        from pickzeta.dirichlet import _first_primes, _primes
        assert list(_primes(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert list(_primes(1)) == []
        assert _first_primes(3) == [2, 3, 5]
        assert _first_primes(0) == []
        assert _first_primes(5000) == primes_trial(5000)

    def test_series_indexing(self):
        series = CoefficientSeries([1.0, 2.0, 3.0])
        assert series.truncation == 3
        assert series.term(2) == 2.0
