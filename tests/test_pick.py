import numpy as np
import pytest

from pickzeta import (
    DomainError,
    InterpolationProblem,
    ValidationError,
    cayley,
    cayley_transfer,
    certify_psd,
    counterexample_search,
    counterexample_window,
    inverse_cayley,
    necessary_conditions,
    pick_matrix,
    schur_product,
    szego_half_plane,
    two_point_counterexample,
    zeta,
    zeta_mobius_kernel,
    zeta_power_kernel,
)
from pickzeta.pick import SearchGrid

from oracles import blaschke_eval, halfplane_szego_pick, random_blaschke, random_psd

Z2 = 1.6449340668482264
Z3 = 1.2020569031595943
Z4 = 1.0823232337111382
Z7 = 1.0083492773819228
Z12 = 1.0002460865533080


class TestPickMatrix:
    def test_zeta_kernel_two_point(self):
        w2 = 0.4
        p = InterpolationProblem((1.0, 2.0), (0.0, w2), zeta_power_kernel(1))
        m = pick_matrix(p)
        expected = [[Z2, Z3], [Z3, (1 - w2**2) * Z4]]
        assert np.allclose(m, expected, atol=1e-10)

    def test_szego_kernel_two_point(self):
        w2 = 0.4
        p = InterpolationProblem((1.0, 2.0), (0.0, w2), szego_half_plane())
        m = pick_matrix(p)
        expected = [[0.5, 1.0 / 3.0], [1.0 / 3.0, (1 - w2**2) / 4.0]]
        assert np.allclose(m, expected, atol=1e-14)

    def test_zero_targets_give_gram(self):
        from pickzeta import gram_matrix
        pts = (0.8, 1.1 + 0.5j, 2.0)
        p = InterpolationProblem(pts, (0.0, 0.0, 0.0), zeta_power_kernel(2))
        assert np.allclose(pick_matrix(p), gram_matrix(zeta_power_kernel(2), pts))

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValidationError):
            InterpolationProblem((1.0, 1.0), (0.0, 0.1), szego_half_plane())

    @pytest.mark.parametrize("value", [complex("nan"), complex(0.1, float("inf"))])
    @pytest.mark.parametrize("field", ["nodes", "targets"])
    def test_rejects_non_finite_nodes_and_targets(self, field, value):
        data = {"nodes": (1.0, 2.0), "targets": (0.0, 0.1)}
        data[field] = (data[field][0], value)
        with pytest.raises(ValidationError, match=field):
            InterpolationProblem(data["nodes"], data["targets"], szego_half_plane())

    @pytest.mark.parametrize("field", ["psd_tol", "rank_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-10])
    def test_rejects_bad_tolerances(self, field, value):
        with pytest.raises(ValidationError, match=field):
            InterpolationProblem((1.0, 2.0), (0.0, 0.1), szego_half_plane(), **{field: value})

    def test_disc_pick_matrix_is_shared(self):
        import pickzeta.pick
        import pickzeta.schur
        assert pickzeta.schur.disc_pick_matrix is pickzeta.pick.disc_pick_matrix


class TestCertifyPsd:
    def test_independence_psd_side(self):
        cert = certify_psd([[0.5, 1.0 / 7.0], [1.0 / 7.0, 1.0 / 24.0]])
        assert cert.psd
        assert cert.margin > 1e-3
        assert cert.numerical_rank == 2

    def test_independence_non_psd_side(self):
        m = [[Z2, Z7], [Z7, Z12 / 2.0]]
        cert = certify_psd(m)
        assert not cert.psd
        # Failure hinges on zeta(2) zeta(12) < 2 zeta(7)^2; the determinant
        # gap is about 0.39 / 2.
        gap = 2.0 * Z7**2 - Z2 * Z12
        assert gap == pytest.approx(0.388, abs=2e-3)
        assert abs(cert.margin) > 1e-3

    def test_identity(self):
        cert = certify_psd(np.eye(5))
        assert cert.psd and cert.numerical_rank == 5
        assert cert.min_eigenvalue == pytest.approx(1.0)

    def test_witness_quadratic_form(self):
        rng = np.random.default_rng(3)
        m = random_psd(rng, 5) - 2.0 * np.eye(5)
        cert = certify_psd(m)
        assert abs(np.linalg.norm(cert.witness) - 1.0) < 1e-12
        quad = (cert.witness.conj() @ cert.matrix @ cert.witness).real
        assert abs(quad - cert.min_eigenvalue) < 1e-8
        if not cert.psd:
            assert quad < 0.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            certify_psd([[1.0, 1.0], [0.0, 1.0]])

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValidationError):
            certify_psd(np.zeros((0, 0)))


class TestCayley:
    @pytest.mark.parametrize("z,expected", [(1.0, 0.0), (2.0, 1.0 / 3.0), (6.0, 5.0 / 7.0)])
    def test_values(self, z, expected):
        assert cayley(z) == pytest.approx(expected, abs=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = complex(rng.uniform(0.01, 10.0), rng.uniform(-10.0, 10.0))
            w = cayley(z)
            assert abs(w) < 1.0
            assert abs(inverse_cayley(w) - z) < 1e-14 * max(1.0, abs(z))

    def test_domain(self):
        with pytest.raises(DomainError):
            cayley(-0.5)
        with pytest.raises(DomainError):
            inverse_cayley(1.5)


class TestSchurProduct:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(9)
        a = random_psd(rng, 4)
        assert np.array_equal(schur_product(a, np.ones((4, 4))), a)

    def test_psd_closure(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_psd(rng, 4)
            b = random_psd(rng, 4)
            cert = certify_psd(schur_product(a, b))
            assert cert.psd

    def test_rank_bound(self):
        rng = np.random.default_rng(17)
        for r1, r2 in ((1, 1), (1, 2), (2, 2)):
            a = random_psd(rng, 6, rank=r1)
            b = random_psd(rng, 6, rank=r2)
            cert = certify_psd(schur_product(a, b))
            assert cert.numerical_rank <= r1 * r2

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            schur_product(np.ones((2, 2)), np.ones((3, 3)))


class TestCayleyTransfer:
    def test_rank_one_factor_values(self):
        p = InterpolationProblem((1.0, 2.0), (0.0, 0.5), szego_half_plane())
        t = cayley_transfer(p)
        assert np.allclose(t.factor, [[2.0, 3.0], [3.0, 4.5]], atol=1e-14)
        assert certify_psd(t.factor).numerical_rank == 1

    def test_factorization_residual(self):
        p = InterpolationProblem((0.3 + 1j, 2.0 - 0.5j, 5.0), (0.1, -0.4j, 0.8),
                                 szego_half_plane())
        t = cayley_transfer(p)
        assert t.factorization_residual <= 1e-12

    def test_verdicts_match_on_random_instances(self):
        rng = np.random.default_rng(100)
        borderline = 0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            nodes = _random_nodes(rng, n)
            targets = 0.95 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(
                2j * np.pi * rng.uniform(0, 1, n))
            p = InterpolationProblem(tuple(nodes), tuple(targets), szego_half_plane())
            t = cayley_transfer(p)
            if t.borderline:
                borderline += 1
                continue
            assert t.psd_match
            assert t.rank_match
        assert borderline <= 5

    def test_requires_szego_kernel(self):
        p = InterpolationProblem((1.0, 2.0), (0.0, 0.5), zeta_power_kernel(1))
        with pytest.raises(ValidationError):
            cayley_transfer(p)


def _random_nodes(rng, n):
    nodes = []
    while len(nodes) < n:
        z = complex(rng.uniform(0.1, 5.0), rng.uniform(-5.0, 5.0))
        if all(abs(z - other) > 1e-3 for other in nodes):
            nodes.append(z)
    return nodes


class TestTwoPointCounterexample:
    def test_window(self):
        lo, hi = counterexample_window()
        assert lo == pytest.approx(1.0 / 3.0)
        assert hi == pytest.approx(0.4340452, abs=1e-6)

    def test_m1_determinants(self):
        cert = two_point_counterexample(1, 0.4)
        assert cert.holds
        assert cert.kernel_det == pytest.approx(0.0505535, abs=1e-6)
        assert cert.szego_det == pytest.approx(-0.0061111, abs=1e-6)
        assert cert.kernel_det >= cert.det_lower_bound > 0.0

    def test_m3_same_verdicts(self):
        cert = two_point_counterexample(3, 0.4)
        assert cert.holds
        assert cert.kernel_cert.psd and not cert.szego_cert.psd

    @pytest.mark.parametrize("m", range(1, 9))
    def test_margins_all_powers(self, m):
        cert = two_point_counterexample(m, 0.4)
        assert cert.holds
        assert cert.kernel_det > 1e-3
        assert cert.szego_det < -1e-3

    def test_window_boundary_rejected(self):
        with pytest.raises(DomainError) as err:
            two_point_counterexample(1, 0.3)
        assert "0.434" in str(err.value)
        with pytest.raises(DomainError):
            two_point_counterexample(1, 0.44)

    def test_complex_w2(self):
        cert = two_point_counterexample(2, 0.4j)
        assert cert.holds


class TestCounterexampleSearch:
    def test_finds_reference_witness(self):
        grid = SearchGrid(nodes=(1.0, 2.0), target_moduli=(0.35, 0.4),
                          target_phases=(0.0,))
        found = counterexample_search(zeta_power_kernel(1), grid)
        hits = [w for w in found if w.node1 == 1.0 and w.node2 == 2.0
                and abs(w.target2 - 0.4) < 1e-12]
        assert hits

    def test_szego_kernel_yields_nothing(self):
        grid = SearchGrid(nodes=(0.6, 1.0, 2.0), target_moduli=(0.2, 0.4, 0.6),
                          target_phases=(0.0, np.pi / 2))
        assert counterexample_search(szego_half_plane(), grid) == []

    def test_mobius_kernel_search_runs(self):
        grid = SearchGrid(nodes=(1.0, 2.0), target_moduli=(0.35, 0.4, 0.45),
                          target_phases=(0.0,))
        found = counterexample_search(zeta_mobius_kernel(), grid)
        assert isinstance(found, list)
        for w in found:
            assert w.kernel_margin > 0 > w.szego_margin

    def test_results_sorted(self):
        found = counterexample_search(zeta_power_kernel(1),
                                      SearchGrid(nodes=(0.6, 1.0, 2.0),
                                                 target_moduli=(0.4, 0.45),
                                                 target_phases=(0.0,)))
        keys = [(w.node1.real, w.node2.real, abs(w.target2)) for w in found]
        assert keys == sorted(keys)


class TestNecessaryConditions:
    def test_independence_example(self):
        p = InterpolationProblem((1.0, 6.0), (0.0, 1.0 / np.sqrt(2.0)),
                                 szego_half_plane())
        conds = necessary_conditions(p)
        assert conds.cond_ii.psd and conds.rank_full
        assert not conds.cond_i.psd

    def test_counterexample_instance(self):
        p = InterpolationProblem((1.0, 2.0), (0.0, 0.4), szego_half_plane())
        conds = necessary_conditions(p)
        assert conds.cond_i.psd
        assert not conds.cond_ii.psd

    def test_zero_targets(self):
        p = InterpolationProblem((0.7, 1.4, 3.0), (0.0, 0.0, 0.0), szego_half_plane())
        conds = necessary_conditions(p)
        assert conds.cond_i.psd and conds.cond_ii.psd and conds.rank_full

    def test_nodes_must_sit_right_of_half(self):
        p = InterpolationProblem((0.2, 1.0), (0.0, 0.1), szego_half_plane())
        with pytest.raises(DomainError):
            necessary_conditions(p)

    def test_degenerate_rank_from_blaschke_targets(self):
        # Targets sampled from a degree-d Blaschke product at Cayley images
        # force the half-plane Pick matrix to have rank exactly d.
        rng = np.random.default_rng(23)
        for n, d in ((3, 1), (4, 2), (5, 3)):
            zeros, const = random_blaschke(rng, d)
            nodes = _random_nodes(rng, n)
            nodes = [complex(abs(z.real) + 0.6, z.imag) for z in nodes]
            disc_nodes = np.array([cayley(z) for z in nodes])
            targets = blaschke_eval(zeros, const, disc_nodes)
            p = InterpolationProblem(tuple(nodes), tuple(targets), szego_half_plane())
            conds = necessary_conditions(p)
            assert conds.cond_ii.psd
            assert conds.cond_ii.numerical_rank == d
            assert not conds.rank_full

    def test_matches_paper_convention_transpose(self):
        # The stored matrix is the conjugate transpose of the other common
        # convention; spectra are identical.
        nodes = (1.0 + 0.5j, 2.0 - 0.3j)
        targets = (0.2 + 0.1j, -0.4j)
        p = InterpolationProblem(nodes, targets, szego_half_plane())
        mine = pick_matrix(p)
        other = halfplane_szego_pick(nodes, targets).conj().T
        assert np.allclose(mine, other.conj().T.conj().T)
        assert np.allclose(np.linalg.eigvalsh(mine),
                           np.linalg.eigvalsh(halfplane_szego_pick(nodes, targets)))
