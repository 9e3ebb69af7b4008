from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickzeta import (
    DirichletMultiplier,
    DomainError,
    HypothesisError,
    IllConditionedError,
    TruncationError,
    ValidationError,
    build_realization,
    certify_psd,
    defect_gram,
    evaluate_realization,
    feature_transfer,
    gram_matrix,
    psd_factor,
    verify_realization,
    zeta,
    zeta_power_kernel,
    zeta_reciprocal,
)

from pickzeta import realization
from pickzeta.serialize import decode_model, encode_model

from oracles import (dense_block_norm, dense_build, dense_resolvent_value, dense_transfer,
                     mobius_trial, random_psd)

POINTS = [1.05, 1.4 + 0.3j, 1.9 - 0.25j, 2.6]


class TestDirichletMultiplier:
    def test_monomial_values(self):
        phi = DirichletMultiplier.monomial(0.5)
        assert complex(phi(1.0)) == pytest.approx(0.25)
        assert phi.declared_norm == pytest.approx(0.5)
        assert phi.certified

    def test_uncertified_sum(self):
        phi = DirichletMultiplier(np.array([0.8, 0.4]))
        assert not phi.certified
        with pytest.raises(HypothesisError):
            build_realization(phi, POINTS, trunc=50)


class TestDefectGram:
    def test_zero_multiplier_gives_zeta_gram(self):
        phi = DirichletMultiplier(np.array([0.0]))
        g = defect_gram(phi, POINTS)
        assert np.allclose(g, gram_matrix(zeta_power_kernel(1), POINTS), atol=1e-10)

    def test_unimodular_constant_gives_zero(self):
        phi = DirichletMultiplier(np.array([1.0]))
        g = defect_gram(phi, POINTS)
        assert np.abs(g).max() < 1e-12

    def test_halved_monomial_strictly_positive(self):
        phi = DirichletMultiplier.monomial(0.5)
        g = defect_gram(phi, [1.0, 1.5, 2.0])
        assert np.linalg.eigvalsh(g)[0] > 0.0

    def test_domain(self):
        phi = DirichletMultiplier.monomial(0.5)
        with pytest.raises(DomainError):
            defect_gram(phi, [0.4])
        with pytest.raises(ValidationError, match="at least one sample point"):
            build_realization(phi, [], trunc=32)


class TestPsdFactor:
    def test_zero_matrix(self):
        psi, r = psd_factor(np.zeros((3, 3)))
        assert r == 0 and psi.shape == (3, 0)

    def test_rank_one_single_point(self):
        psi, r = psd_factor(np.array([[2.25]]))
        assert r == 1
        assert psi[0, 0] == pytest.approx(1.5)

    def test_reconstruction(self):
        rng = np.random.default_rng(21)
        g = random_psd(rng, 4)
        psi, r = psd_factor(g, tol=1e-12)
        assert r == 4
        assert np.abs(psi @ psi.conj().T - g).max() < 1e-10 * np.abs(g).max()

    def test_rejects_indefinite(self):
        with pytest.raises(HypothesisError):
            psd_factor(np.diag([1.0, -0.5]))

    def test_rejects_negative_definite(self):
        with pytest.raises(HypothesisError, match="not a contractive multiplier"):
            psd_factor(np.diag([-1.0, -2.0]))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
           log_scale=st.floats(-6.0, 6.0), shift=st.floats(-30.0, 5.0))
    def test_order_scaled_rule_is_never_looser_than_entry_scale(self, seed, k, log_scale,
                                                                 shift):
        # A random Hermitian matrix whose smallest eigenvalue sits at
        # shift * tol * max(1, scale), around the verdict threshold.
        tol = 1e-10
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        scale = 10.0 ** log_scale
        lam = np.sort(rng.uniform(0.0, scale, size=k))
        lam += shift * tol * max(1.0, scale) - lam[0]
        m = (q * lam) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        cert = certify_psd(m, tol / k, tol)
        if cert.psd:
            assert cert.min_eigenvalue >= -tol * max(1.0, float(np.abs(m).max()))
        try:
            psi, r = psd_factor(m, tol)
        except HypothesisError:
            assert not cert.psd
        else:
            assert cert.psd and r == cert.numerical_rank and psi.shape == (k, r)


class TestFeatureTransfer:
    def test_certified_bounds_at_sigma_one(self):
        t = feature_transfer(1.0, 2.0, 10**4)
        assert t.inverse_norm == pytest.approx(0.8545, abs=5e-4)
        assert t.eps_tilde == pytest.approx(0.9301, abs=5e-5)
        assert t.section_ratio <= t.eps_tilde < 1.0

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 1.0, 2.0, 5.0])
    def test_inverse_norm_bound_across_sigmas(self, sigma):
        t = feature_transfer(sigma, 2.0, 4000)
        z = zeta(2.0 * sigma).real
        expected_eps = np.sqrt((z * z + 0.5) / (z * z + 1.0))
        assert t.eps_tilde == pytest.approx(expected_eps, abs=1e-12)
        assert t.section_ratio <= t.eps_tilde < 1.0
        assert t.inverse_norm < 1.0
        # The simpler diagonal comparison also holds:
        assert z < z + zeta_reciprocal(2.0 * sigma).real

    def test_finite_truncation_may_exceed_the_limit_bound(self):
        t = feature_transfer(0.505, 2.0, 32)
        assert t.section_ratio == pytest.approx(1.0064, abs=1e-4)
        assert t.section_ratio > t.eps_tilde
        assert t.inverse_norm == t.section_ratio

    def test_alpha_must_exceed_one(self):
        with pytest.raises(DomainError):
            feature_transfer(1.0, 0.9, 100)

    def test_maps_section_to_image(self):
        t = feature_transfer(1.3 - 0.7j, 2.0, 600)
        dense, f, g = dense_transfer(1.3 - 0.7j, 2.0, _mu_sqrt(t.trunc))
        assert np.linalg.norm(dense @ f - g) <= 1e-10 * np.linalg.norm(g)
        # The kept rows are f* and g*; their norms are the scalars.
        assert np.abs(t.sections - np.conj([f, g])).max() < 1e-15
        assert t.section_norm == pytest.approx(np.linalg.norm(f), rel=1e-14)
        assert t.image_norm == pytest.approx(np.linalg.norm(g), rel=1e-14)

    def test_dense_structure(self):
        t = feature_transfer(0.8, 2.0, 40)
        m = dense_transfer(0.8, 2.0, _mu_sqrt(t.trunc))[0]
        sv = np.sort(np.linalg.svd(m, compute_uv=False))
        assert sv[0] == pytest.approx(min(abs(t.d1), 2.0), abs=1e-12)
        assert sv[-1] == pytest.approx(2.0, abs=1e-12)
        assert 1.0 / sv[0] == pytest.approx(t.inverse_norm, abs=1e-12)
        assert np.abs(_inverse_form(t) @ m - np.eye(40)).max() < 1e-12

    @pytest.mark.parametrize("point", [0.505, 2.8, 0.75 + 10j, 0.75 - 10j])
    def test_rank_three_inverse_matches_dense_inverse(self, point):
        t = feature_transfer(point, 2.0, 40)
        want = np.linalg.inv(dense_transfer(point, 2.0, _mu_sqrt(t.trunc))[0])
        assert t.sections.shape == (2, 40) and t.inverse_coeffs.shape == (3, 3)
        assert np.abs(_inverse_form(t) - want).max() < 1e-12

    def test_singular_value_oracle_at_sigma_one(self):
        t = feature_transfer(1.0, 2.0, 200)
        m = dense_transfer(1.0, 2.0, _mu_sqrt(t.trunc))[0]
        smallest = np.linalg.svd(m, compute_uv=False).min()
        assert 1.0 / smallest == pytest.approx(t.inverse_norm, abs=1e-12)

    def test_construction_calls_no_zeta(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("zeta called")

        monkeypatch.setattr(realization, "zeta", refuse)
        t = feature_transfer(0.5003, 2.0, 1000)
        assert t.inverse_norm == max(t.section_ratio, 0.5)
        with pytest.raises(AssertionError, match="zeta called"):
            t.eps_tilde


def _mu_sqrt(trunc):
    return np.sqrt([1.0 + mobius_trial(n) for n in range(1, trunc + 1)])


def _inverse_form(t):
    """I / alpha + E G E* with E = [e0, f, g] from the transfer's scalars."""
    basis = np.vstack([np.eye(1, t.trunc), t.sections]).conj().T
    return np.eye(t.trunc) / t.alpha + basis @ t.inverse_coeffs @ basis.conj().T


class TestBuildRealization:
    def test_constant_multiplier(self):
        phi = DirichletMultiplier(np.array([0.6]))
        model = build_realization(phi, [1.0, 1.5, 2.2], trunc=3000)
        assert model.rank == 3
        assert model.a != 0
        for p in (1.0, 1.5, 2.2):
            assert abs(evaluate_realization(model, p) - 0.6) < 1e-4
        assert abs(evaluate_realization(model, 1.8) - 0.6) < 1e-3

    def test_zero_multiplier(self):
        phi = DirichletMultiplier(np.array([0.0]))
        model = build_realization(phi, [1.1, 1.6, 2.4], trunc=400)
        assert abs(model.a) < 1e-10
        assert model.certificates["isometry_defect"] < 1e-10
        assert model.certificates["sigma_max"] <= 1.0 + 1e-8
        for p in (1.2, 2.0):
            assert abs(evaluate_realization(model, p)) < 1e-6

    def test_single_point_scalar_identity(self):
        # One sample point: the Gram identity collapses to the scalar
        # identity 1 + zeta_N(2s) k = |phi|^2 + kappa_N(2s) k.
        phi = DirichletMultiplier.monomial(0.5)
        s = 1.3
        model = build_realization(phi, [s], trunc=2000)
        k = complex(defect_gram(phi, [s])[0, 0])
        n = np.arange(1, 2001, dtype=float)
        zeta_n = np.sum(n ** (-2.0 * s))
        kappa_n = np.sum((1.0 + np.array([_mu(int(v)) for v in n])) * n ** (-2.0 * s))
        lhs = 1.0 + zeta_n * k
        rhs = abs(complex(phi(s))) ** 2 + kappa_n * k
        assert abs(lhs - rhs) == pytest.approx(
            model.certificates["gram_identity_residual"], rel=1e-6)

    def test_unimodular_constant_trivial_model(self):
        phi = DirichletMultiplier(np.array([1.0]))
        model = build_realization(phi, [1.0, 2.0], trunc=64)
        assert model.rank == 0
        assert model.a == pytest.approx(1.0)
        assert evaluate_realization(model, 1.7) == pytest.approx(1.0)

    def test_truncation_error_suggests_larger(self):
        phi = DirichletMultiplier.monomial(0.5)
        with pytest.raises(TruncationError) as err:
            build_realization(phi, POINTS, trunc=64, tol=1e-9)
        assert err.value.suggested_trunc > 64

    def test_clustered_points_rejected(self):
        # Span conditioning below 1e-12 signals numerically dependent
        # lifted vectors; wider spacings legitimately proceed.
        phi = DirichletMultiplier.monomial(0.5)
        with pytest.raises(IllConditionedError):
            build_realization(phi, [1.0, 1.0 + 1e-14], trunc=128)

    def test_certificates_at_moderate_truncation(self):
        phi = DirichletMultiplier.monomial(0.5j)
        model = build_realization(phi, POINTS, trunc=2000)
        certs = model.certificates
        assert certs["gram_identity_residual"] < 5e-6
        assert certs["isometry_defect"] < 1e-12
        assert certs["sigma_max"] <= 1.0 + 1e-8
        assert certs["d_contraction_residual"] < 5e-5
        assert certs["d_norm"] <= 1.0 + 1e-10

    @pytest.mark.parametrize("d_scale", [1.0, 1.5])
    def test_factored_norms_match_dense_blocks(self, d_scale):
        phi = DirichletMultiplier.monomial(0.5)
        model = build_realization(phi, POINTS, trunc=32, tol=1.0).scaled(d_scale)
        d_norm, sigma = dense_block_norm(model)
        assert model.d_norm() == pytest.approx(d_norm, rel=1e-12)
        assert model.contraction_sigma() == pytest.approx(sigma, rel=1e-12)

    def test_defect_gram_is_decomposed_once(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        build_realization(DirichletMultiplier.monomial(0.5), POINTS, trunc=32, tol=1.0)
        assert calls == ["eigh"]

    def test_gram_identity_residual_shrinks_with_truncation(self):
        phi = DirichletMultiplier.monomial(0.3)
        residuals = []
        for trunc in (200, 2000, 20000):
            model = build_realization(phi, [1.1, 1.7], trunc=trunc)
            residuals.append(model.certificates["gram_identity_residual"])
        assert residuals[2] < residuals[1] < residuals[0]


def _mu(n):
    from pickzeta import mobius
    return mobius(n)


class TestEvaluation:
    def test_samples_and_held_out(self):
        phi = DirichletMultiplier.monomial(-0.8)
        model = build_realization(phi, POINTS, trunc=4000)
        for p in POINTS:
            err = abs(evaluate_realization(model, p) - complex(phi(p)))
            assert err < 1e-5
        for p in (1.2, 1.6 + 0.15j, 2.2 - 0.1j, 3.0):
            err = abs(evaluate_realization(model, p) - complex(phi(p)))
            assert err < 1e-2

    def test_gamma_zero_collapses_to_constant(self):
        phi = DirichletMultiplier(np.array([1.0]))
        model = build_realization(phi, [1.0, 1.4], trunc=64)
        assert np.linalg.norm(model.gamma) == 0.0
        assert evaluate_realization(model, 5.0) == model.a

    def test_domain_check(self):
        phi = DirichletMultiplier.monomial(0.5)
        model = build_realization(phi, [1.0, 1.5], trunc=256)
        with pytest.raises(DomainError):
            evaluate_realization(model, 0.3)


def _without_gamma(model):
    """The model with v_right[0] = 0, so a = 0 and gamma = 0."""
    v_right = model.v_right.copy()
    v_right[0] = 0.0
    return replace(model, v_right=v_right)


class TestDenseResolvent:
    """evaluate_realization against one dense solve of (T (x) I - D) z = gamma."""

    MODELS = {
        "monomial": (DirichletMultiplier.monomial(0.5), POINTS, 40),
        "mixed": (DirichletMultiplier(np.array([0.1, -0.4j, 0.0, 0.3])),
                  [0.8, 1.1 + 1j, 1.6, 2.4 - 0.5j], 64),
        "rank_one": (DirichletMultiplier.monomial(0.7, 3), [1.3], 40),
    }
    # At truncations 40 and 64 the Neumann certificate holds at every
    # point below; at 32 it fails near Re = 1/2 for models with |D| = 1
    # (see the two test_near_half_at_truncation_32 tests).
    EVAL_POINTS = [0.505, 0.8, 1.05, 1.4 + 0.3j, 2.0, 3.5 - 4j, 0.9 + 10j]

    @pytest.mark.parametrize("name", MODELS)
    def test_built_model(self, name):
        phi, points, trunc = self.MODELS[name]
        model = build_realization(phi, points, trunc=trunc, tol=1.0)
        assert model.d_left.shape[1] == len(points)
        for s in list(points) + self.EVAL_POINTS:
            got = evaluate_realization(model, s)
            assert abs(got - dense_resolvent_value(model, s)) < 1e-12

    def test_near_half_at_truncation_32_rank_one_evaluates(self):
        # |f| / |g| = 1.0064 > eps_tilde at Re = 0.505 and truncation 32; the
        # Neumann factor decides, and |D| = 0.785 keeps it below 1.
        phi, points, _ = self.MODELS["rank_one"]
        model = build_realization(phi, points, trunc=32, tol=1.0)
        got = evaluate_realization(model, 0.505)
        assert abs(got - dense_resolvent_value(model, 0.505)) < 1e-12

    @pytest.mark.parametrize("name", ["monomial", "mixed"])
    def test_near_half_at_truncation_32_fails_the_neumann_check(self, name):
        phi, points, _ = self.MODELS[name]
        model = build_realization(phi, points, trunc=32, tol=1.0)
        with pytest.raises(HypothesisError, match=r"\|T\^-1\| \|D\| = 1\.00639"):
            evaluate_realization(model, 0.505)

    @pytest.mark.parametrize("derive", [_without_gamma])
    def test_degenerate_model(self, derive):
        phi, points, trunc = self.MODELS["monomial"]
        model = derive(build_realization(phi, points, trunc=trunc, tol=1.0))
        for s in self.EVAL_POINTS:
            assert abs(evaluate_realization(model, s) - dense_resolvent_value(model, s)) < 1e-12

    @pytest.mark.parametrize("name", MODELS)
    def test_factors_assemble_the_block_matrix(self, name):
        # The dense views assemble V = B v_left v_right* B*, which is the
        # partial isometry of the dense build on the explicit lifts.
        phi, points, trunc = self.MODELS[name]
        model = build_realization(phi, points, trunc=trunc, tol=1.0)
        dense = np.block([[np.array([[model.a]]), model.beta.conj()[None, :]],
                          [model.gamma[:, None], model.d_left @ model.d_right.conj().T]])
        left = np.vstack([model.v_left[:1], model.d_left])
        right = np.vstack([model.v_right[:1], model.d_right])
        assert np.abs(left @ right.conj().T - dense).max() < 1e-13
        oracle = dense_build(model, phi(np.array(points)))
        assert np.abs(oracle.v_left @ oracle.v_right.conj().T - dense).max() < 1e-12

    HELD_OUT = [1.2, 1.6 + 0.15j, 2.2 - 0.1j, 3.0, 0.9 + 10j]

    @pytest.mark.parametrize("name", MODELS)
    def test_matches_the_dense_build(self, name):
        phi, points, trunc = self.MODELS[name]
        model = build_realization(phi, points, trunc=trunc, tol=1.0)
        oracle = dense_build(model, phi(np.array(points)))
        for s in list(points) + self.HELD_OUT:
            assert abs(evaluate_realization(model, s) - dense_resolvent_value(oracle, s)) < 1e-12
        for key, want in oracle.certificates.items():
            assert abs(model.certificates[key] - want) < 1e-12, key
        d_norm, sigma = dense_block_norm(oracle)
        assert dense_block_norm(model) == pytest.approx((d_norm, sigma), rel=1e-12)
        assert model.certificates["d_norm"] == pytest.approx(d_norm, rel=1e-12)
        assert model.certificates["sigma_max"] == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("name", MODELS)
    def test_near_half_needs_no_zeta(self, name):
        # At Re = 0.5003 the limit bound eps_tilde would need zeta(1.0006),
        # which misses its error target; the evaluation never asks for it.
        phi, points, trunc = self.MODELS[name]
        model = build_realization(phi, points, trunc=trunc, tol=1.0)
        try:
            got = evaluate_realization(model, 0.5003)
        except HypothesisError as exc:
            assert "|T^-1| |D|" in str(exc)
        else:
            assert abs(got - dense_resolvent_value(model, 0.5003)) < 1e-12

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), trunc=st.integers(8, 48))
    def test_random_models_match_the_dense_build(self, seed, k, trunc):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi = DirichletMultiplier(0.9 * coeffs / np.abs(coeffs).sum())
        points = (1.05 + 0.4 * np.arange(k) + rng.uniform(0.0, 0.2, k)
                  + 1j * rng.uniform(-0.5, 0.5, k))
        model = build_realization(phi, points, trunc=trunc, tol=10.0)
        oracle = dense_build(model, phi(points))
        for s in list(points) + [1.2 + 0.1j, 3.0]:
            assert abs(evaluate_realization(model, s) - dense_resolvent_value(oracle, s)) < 1e-12
        for key, want in oracle.certificates.items():
            assert abs(model.certificates[key] - want) < 1e-12, key


class TestCoreOnly:
    """Build, evaluation and verification never form the trunc * rank-row
    dense views; only independent checks do."""

    @pytest.fixture()
    def no_dense_views(self, monkeypatch):
        def refuse(model):
            raise AssertionError("a dense view was formed")

        for name in ("d_left", "d_right", "beta", "gamma"):
            monkeypatch.setattr(realization.RealizationModel, name, property(refuse))

    @pytest.mark.parametrize("name", TestDenseResolvent.MODELS)
    def test_pipeline_reads_no_dense_view(self, no_dense_views, name):
        phi, points, trunc = TestDenseResolvent.MODELS[name]
        model = build_realization(phi, points, trunc=trunc, tol=1.0)
        for s in list(points) + [1.2, 3.0]:
            evaluate_realization(model, s)
        assert verify_realization(model).sigma_max <= 1.0 + 1e-8
        verify_realization(model.scaled(1.5))
        verify_realization(decode_model(encode_model(model)), [1.2, 3.0])
        with pytest.raises(AssertionError, match="dense view"):
            model.d_left

    @pytest.mark.parametrize("shape", [(10**4, 8), (40, 8), (8, 8), (5, 8), (1, 2)])
    def test_thin_qr_keeps_lapacks_r(self, shape):
        # trunc >= 2k, square, trunc < 2k, and trunc 1, where the real
        # sections make a zero reflector (tau = 0).
        rng = np.random.default_rng(7)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if shape[0] == 1:
            a = np.abs(a) + 0j
        q, r = realization._thin_qr(a)
        q_ref, r_ref = np.linalg.qr(a)
        assert np.array_equal(r, r_ref)
        assert q.shape == q_ref.shape and np.abs(q - q_ref).max() < 1e-14
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() < 1e-14

    def test_span_r_is_lapacks_r_of_the_table_sections(self):
        table = realization.SieveTable(10**4)
        span = realization.feature_span(POINTS, table)
        z = table.section(np.array(POINTS, dtype=complex))
        r = np.linalg.qr(np.vstack([z, table.mu_sqrt * z]).T, mode="r")
        sign = np.where(np.diagonal(r).real < 0.0, -1.0, 1.0)[:, None]
        assert np.array_equal(np.hstack([span.r_zeta, span.r_mobius]), sign * r)

    def test_cores_have_one_plus_2k_r_rows(self):
        model = build_realization(DirichletMultiplier.monomial(0.5), POINTS, trunc=10**4)
        assert model.v_left.shape == model.v_right.shape == (1 + 8 * model.rank, 4)
        assert model.span.q.shape == (10**4, 8)
        assert np.abs(model.span.q.conj().T @ model.span.q - np.eye(8)).max() < 1e-14
        assert (np.diagonal(model.span.r_zeta).real >= 0).all()


class TestVerification:
    CASES = {
        "pipeline": (lambda model: model, DirichletMultiplier.monomial(0.5), POINTS, 2000,
                     [1.1, 1.3, 1.7, 2.1, 2.9]),
        "scaled": (lambda model: model.scaled(1.5), DirichletMultiplier.monomial(0.5), POINTS,
                   2000, [1.1, 1.5, 2.0]),
        "trivial": (lambda model: model, DirichletMultiplier(np.array([1.0])), [1.0, 2.0], 64,
                    [1.2, 1.8, 2.5]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_psd_verdict_is_the_certificate_verdict(self, case):
        derive, phi, points, trunc, grid = self.CASES[case]
        report = verify_realization(derive(build_realization(phi, points, trunc=trunc)), grid)
        cert = report.gram_certificate
        assert report.psd_ok == (cert is not None and cert.psd)
        if cert is not None:
            assert cert.psd_tol == realization.PSD_SLACK / len(grid)

    def test_block_equation_tolerance_is_recomputed(self):
        model = build_realization(DirichletMultiplier.monomial(0.5), POINTS, trunc=2000)
        recorded = model.certificates["gram_identity_residual"]
        assert realization.gram_identity_residual(model) == pytest.approx(recorded, abs=1e-13)
        forged = replace(model.scaled(0.9),
                         certificates={**model.certificates, "gram_identity_residual": 1e9})
        report = verify_realization(forged, [1.1, 1.5, 2.0])
        assert report.d_contraction_residual > 0.09
        assert not report.d_contraction_ok and not report.passed

    def test_pipeline_model_passes(self):
        phi = DirichletMultiplier.monomial(0.5)
        model = build_realization(phi, POINTS, trunc=2000)
        report = verify_realization(model, grid=[1.1, 1.3, 1.7, 2.1, 2.9])
        assert report.contraction_ok
        assert report.d_contraction_ok
        assert report.psd_ok
        assert report.passed

    def test_scaled_d_fails(self):
        phi = DirichletMultiplier.monomial(0.5)
        model = build_realization(phi, POINTS, trunc=2000)
        report = verify_realization(model.scaled(1.5), grid=[1.1, 1.5, 2.0])
        assert not report.passed
        assert report.sigma_max > 1.4
        assert not report.contraction_ok

    def test_trivial_unimodular_model(self):
        phi = DirichletMultiplier(np.array([1.0]))
        model = build_realization(phi, [1.0, 2.0], trunc=64)
        report = verify_realization(model, grid=[1.2, 1.8, 2.5])
        # phi = 1 gives the zero defect Gram: PSD trivially.
        assert report.passed
        assert np.abs(report.reconstructed - 1.0).max() < 1e-12


DERIVED = {
    "built": lambda model: model,
    "scaled": lambda model: model.scaled(1.5),
    "decoded": lambda model: decode_model(encode_model(model)),
}


class TestComputedOnce:
    """The two block norms and the block Gram K are computed once per model
    instance."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = []
        original = realization._factored_norm

        def counting(left, right):
            calls.append(None)
            return original(left, right)

        monkeypatch.setattr(realization, "_factored_norm", counting)
        return calls

    @staticmethod
    def _model():
        return build_realization(DirichletMultiplier.monomial(0.5), POINTS, trunc=32, tol=1.0)

    def test_build_computes_both_norms_for_later_calls(self, counted):
        model = self._model()
        assert len(counted) == 2
        for p in (1.1, 1.3, 1.7 + 0.2j, 2.1, 2.9):
            evaluate_realization(model, p)
        verify_realization(model)
        assert len(counted) == 2

    @pytest.mark.parametrize("derive", ["scaled", "decoded"])
    def test_derived_model_computes_again(self, counted, derive):
        model = DERIVED[derive](self._model())
        before = len(counted)
        d_norm, sigma = dense_block_norm(model)
        for _ in range(2):
            assert model.d_norm() == pytest.approx(d_norm, rel=1e-12)
            assert model.contraction_sigma() == pytest.approx(sigma, rel=1e-12)
        assert len(counted) == before + 2

    @pytest.fixture()
    def counted_gram(self, monkeypatch):
        """Counts the block_gram() calls that find no kept K and compute it."""
        calls = []
        original = realization.RealizationModel.block_gram

        def counting(model):
            if "_block_gram" not in model.__dict__:
                calls.append(None)
            return original(model)

        monkeypatch.setattr(realization.RealizationModel, "block_gram", counting)
        return calls

    def test_block_gram_computed_once_for_evaluations(self, counted_gram):
        model = self._model()
        assert len(counted_gram) == 0
        for p in (1.1, 1.3, 1.7 + 0.2j, 2.1, 2.9):
            evaluate_realization(model, p)
        verify_realization(model)
        assert len(counted_gram) == 1

    def test_failed_neumann_check_computes_no_block_gram(self, counted_gram):
        model = self._model().scaled(1.5)
        with pytest.raises(HypothesisError, match="invertibility"):
            evaluate_realization(model, 1.1)
        assert verify_realization(model).evaluation_error is not None
        assert len(counted_gram) == 0

    @pytest.mark.parametrize("derive", ["scaled", "decoded"])
    def test_derived_model_computes_own_block_gram(self, counted_gram, derive):
        model = self._model()
        model.block_gram()
        derived = DERIVED[derive](model)
        want = derived.d_right.conj().T @ derived.d_left
        for _ in range(2):
            assert np.abs(derived.block_gram() - want).max() < 1e-12 * np.abs(want).max()
        assert len(counted_gram) == 2

    def test_derived_models_share_the_table(self):
        model = self._model()
        assert model.scaled(1.5).table is model.table
        assert replace(model, certificates={}).table is model.table
        assert decode_model(encode_model(model)).table is not model.table

    @pytest.mark.parametrize("derive", DERIVED)
    def test_blocks_are_read_only(self, derive):
        model = DERIVED[derive](self._model())
        table = [getattr(model.table, name) for name in ("mu_sqrt", "log_primes", "left", "right")]
        for block in (model.psi, model.v_left, model.v_right, *table, *model.span):
            with pytest.raises(ValueError):
                block[(0,) * block.ndim] = 0
        # The dense views are fresh arrays, so writing to one leaves the model alone.
        for name in ("d_left", "d_right", "beta", "gamma"):
            view = getattr(model, name)
            assert not any(np.shares_memory(view, arr) for arr in
                           (model.v_left, model.v_right, *model.span))
