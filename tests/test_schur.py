import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pickzeta import (
    DomainError,
    HypothesisError,
    Infeasible,
    InterpolationProblem,
    RationalSchurFunction,
    ValidationError,
    cayley,
    parametrization_matrix,
    parametrize_solutions,
    search_dirichlet_solution,
    solve_disc,
    solve_halfplane,
    szego_half_plane,
)
from pickzeta.schur import disc_pick_matrix

from oracles import blaschke_eval, random_blaschke


def _feasible_instance(rng, n, margin=1e-4):
    """Random nodes plus targets from a scaled Blaschke product, redrawn
    until the Pick matrix clears the margin."""
    while True:
        nodes = []
        while len(nodes) < n:
            z = 0.8 * np.sqrt(rng.uniform(0, 1)) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - other) > 0.05 for other in nodes):
                nodes.append(z)
        zeros, const = random_blaschke(rng, 3)
        scale = rng.uniform(0.5, 0.9)
        targets = scale * blaschke_eval(zeros, const * 1.0, np.array(nodes))
        pick = disc_pick_matrix(nodes, targets)
        eig = np.linalg.eigvalsh(pick)
        if eig[0] >= margin * eig[-1]:
            return nodes, list(targets)


class TestSolveDisc:
    def test_one_point_constant(self):
        f = solve_disc([0.0], [0.5])
        assert isinstance(f, RationalSchurFunction)
        assert f(0.0) == pytest.approx(0.5)
        assert f.steps == ()
        assert f.terminal == 0.5
        assert f.degree == 0
        assert abs(f(0.7j) - 0.5) < 1e-15

    def test_degenerate_blaschke_recovery(self):
        rng = np.random.default_rng(42)
        zeros, const = random_blaschke(rng, 2)
        nodes = [0.1, -0.4 + 0.2j, 0.55j, 0.6 - 0.3j]
        targets = blaschke_eval(zeros, const, np.array(nodes))
        f = solve_disc(nodes, targets)
        assert isinstance(f, RationalSchurFunction)
        assert f.degree == 2
        assert f.is_blaschke_product
        held = 0.75 * np.exp(2j * np.pi * np.arange(10) / 10.0)
        expected = blaschke_eval(zeros, const, held)
        assert np.abs(f(held) - expected).max() < 1e-6

    def test_infeasible_from_transferred_witness(self):
        # Disc image of the two-point half-plane witness: nodes (0, 1/3),
        # targets (0, 0.4); the Pick matrix [[1, 1], [1, 0.945]] fails.
        result = solve_disc([0.0, 1.0 / 3.0], [0.0, 0.4])
        assert isinstance(result, Infeasible)
        m = result.certificate.matrix
        assert np.allclose(m, [[1.0, 1.0], [1.0, 0.84 / (1.0 - 1.0 / 9.0)]], atol=1e-12)
        assert result.certificate.min_eigenvalue < 0
        quad = (result.certificate.witness.conj() @ m @ result.certificate.witness).real
        assert quad < 0

    def test_interpolation_and_boundary_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            nodes, targets = _feasible_instance(rng, n)
            f = solve_disc(nodes, targets)
            assert isinstance(f, RationalSchurFunction)
            resid = np.abs(f(np.array(nodes)) - np.array(targets)).max()
            assert resid < 1e-8
            cert = f.boundary_certificate()
            assert cert.sup_sampled <= 1.0 + 1e-6

    def test_reduction_keeps_positivity(self):
        rng = np.random.default_rng(19)
        nodes, targets = _feasible_instance(rng, 5)
        _, trace = solve_disc(nodes, targets, return_trace=True)
        assert all(e >= -1e-9 for e in trace.reduced_min_eigs)

    def test_roundtrip_through_extended_problem(self):
        # Targets drawn from one Schur function stay consistent when the
        # problem is enlarged by extra nodes from the same function.
        rng = np.random.default_rng(31)
        zeros, const = random_blaschke(rng, 3)
        all_nodes = [0.1, -0.3, 0.5j, 0.2 - 0.4j, -0.1 + 0.55j,
                     0.62, -0.45 - 0.2j, 0.33 + 0.33j, -0.6j, 0.7]
        scale = 0.9
        values = scale * blaschke_eval(zeros, const, np.array(all_nodes))
        f_small = solve_disc(all_nodes[:4], values[:4])
        f_big = solve_disc(all_nodes, values)
        assert np.abs(f_big(np.array(all_nodes)) - values).max() < 1e-8
        assert np.abs(f_small(np.array(all_nodes[:4])) - values[:4]).max() < 1e-8

    def test_rejects_targets_outside_closed_disc(self):
        with pytest.raises(DomainError):
            solve_disc([0.0], [1.2])

    def test_near_boundary_warning(self):
        with pytest.warns(UserWarning):
            solve_disc([0.0], [1.0 - 1e-9])

    def test_constant_data_collapses_to_constant(self):
        f = solve_disc([0.5, -0.2, 0.3j], [0.3, 0.3, 0.3])
        assert f.steps == ()
        assert f.terminal == 0.3
        assert f.degree == 0

    def test_unimodular_constant_data(self):
        c = np.exp(0.3j)
        f = solve_disc([0.0, 0.4], [c, c])
        assert isinstance(f, RationalSchurFunction)
        assert f.degree == 0
        assert abs(f(0.2 + 0.1j) - c) < 1e-12


class TestDegenerateFamily:
    @pytest.mark.parametrize("n,d", [(3, 1), (4, 2), (5, 3)])
    def test_degree_and_offnode_match(self, n, d):
        rng = np.random.default_rng(100 + 10 * n + d)
        zeros, const = random_blaschke(rng, d)
        nodes = []
        while len(nodes) < n:
            z = 0.75 * np.sqrt(rng.uniform(0, 1)) * np.exp(2j * np.pi * rng.uniform())
            if all(abs(z - o) > 0.08 for o in nodes):
                nodes.append(z)
        targets = blaschke_eval(zeros, const, np.array(nodes))
        pick_rank = np.sum(np.linalg.eigvalsh(disc_pick_matrix(nodes, targets))
                           > 1e-8 * np.abs(np.linalg.eigvalsh(disc_pick_matrix(nodes, targets))).max())
        assert pick_rank == d
        f = solve_disc(nodes, targets)
        assert f.degree == d
        samples = 0.8 * np.sqrt(np.linspace(0.05, 0.95, 20)) * np.exp(
            2j * np.pi * np.linspace(0.0, 0.95, 20))
        assert np.abs(f(samples) - blaschke_eval(zeros, const, samples)).max() < 1e-6
        cert = f.boundary_certificate()
        assert cert.unimodular_deviation < 1e-8


class TestSolveHalfplane:
    def test_independence_example_solvable(self):
        p = InterpolationProblem((1.0, 6.0), (0.0, 1.0 / np.sqrt(2.0)),
                                 szego_half_plane())
        f = solve_halfplane(p)
        assert abs(f(1.0)) < 1e-8
        assert abs(f(6.0) - 1.0 / np.sqrt(2.0)) < 1e-8

    def test_counterexample_witness_infeasible(self):
        p = InterpolationProblem((1.0, 2.0), (0.0, 0.4), szego_half_plane())
        result = solve_halfplane(p)
        assert isinstance(result, Infeasible)

    def test_constant_targets(self):
        c = 0.3 - 0.4j
        p = InterpolationProblem((0.5, 1.0, 4.0), (c, c, c), szego_half_plane())
        f = solve_halfplane(p)
        for s in (0.1, 1.0 + 5j, 100.0):
            assert abs(f(s) - c) < 1e-10

    def test_contractive_on_wide_half_plane_grid(self):
        p = InterpolationProblem((1.0, 6.0), (0.0, 1.0 / np.sqrt(2.0)),
                                 szego_half_plane())
        f = solve_halfplane(p)
        re = np.logspace(-3, 3, 40)
        im = np.linspace(-1000.0, 1000.0, 25)
        grid = (re[:, None] + 1j * im[None, :]).ravel()
        assert np.abs(f(grid)).max() <= 1.0 + 1e-6


class TestParametrization:
    def test_central_solution_matches_solver(self):
        rng = np.random.default_rng(55)
        nodes, targets = _feasible_instance(rng, 4)
        central = parametrize_solutions(nodes, targets, 0.0)
        direct = solve_disc(nodes, targets)
        pts = 0.5 * np.exp(2j * np.pi * np.arange(8) / 8.0)
        assert np.abs(central(pts) - direct(pts)).max() < 1e-10

    @pytest.mark.parametrize("h", [0.0, 0.3, -0.7j])
    def test_constant_parameters_interpolate(self, h):
        rng = np.random.default_rng(60)
        nodes, targets = _feasible_instance(rng, 4)
        f = parametrize_solutions(nodes, targets, h)
        assert np.abs(f(np.array(nodes)) - np.array(targets)).max() < 1e-8
        assert f.boundary_certificate().sup_sampled <= 1.0 + 1e-8

    def test_distinct_parameters_differ_off_nodes(self):
        rng = np.random.default_rng(65)
        nodes, targets = _feasible_instance(rng, 3)
        f0 = parametrize_solutions(nodes, targets, 0.0)
        f1 = parametrize_solutions(nodes, targets, 0.5)
        pts = 0.65 * np.exp(2j * np.pi * np.linspace(0, 0.9, 40))
        assert np.abs(f0(pts) - f1(pts)).max() > 1e-6

    def test_matrix_invariants(self):
        rng = np.random.default_rng(70)
        for _ in range(5):
            nodes, targets = _feasible_instance(rng, 4)
            par = parametrization_matrix(nodes, targets)
            assert par.unitarity_defect(512) < 1e-8
            assert par.node_vanishing_defect() < 1e-8

    def test_matrix_phi_matches_composition(self):
        rng = np.random.default_rng(75)
        nodes, targets = _feasible_instance(rng, 3)
        par = parametrization_matrix(nodes, targets)
        for h in (0.0, 0.25, -0.6j):
            composed = parametrize_solutions(nodes, targets, h)
            pts = 0.55 * np.exp(2j * np.pi * np.linspace(0.0, 0.9, 16))
            assert np.abs(par.phi(h, pts) - composed(pts)).max() < 1e-9

    def test_schur_function_parameter(self):
        rng = np.random.default_rng(80)
        nodes, targets = _feasible_instance(rng, 3)
        h = RationalSchurFunction.from_blaschke([0.3], 1.0)
        h_steps = RationalSchurFunction(steps=[(0.3, 0.0)], terminal=1.0)
        pts = 0.5 * np.exp(2j * np.pi * np.linspace(0.0, 0.9, 8))
        assert np.abs(h(pts) - h_steps(pts)).max() < 1e-14
        f = parametrize_solutions(nodes, targets, h_steps)
        assert np.abs(f(np.array(nodes)) - np.array(targets)).max() < 1e-8
        assert f.boundary_certificate().sup_sampled <= 1.0 + 1e-8
        # Blaschke-represented parameters take the same path:
        g = parametrize_solutions(nodes, targets, h)
        assert np.abs(g(pts) - f(pts)).max() < 1e-12

    def test_degenerate_instances_rejected(self):
        rng = np.random.default_rng(85)
        zeros, const = random_blaschke(rng, 1)
        nodes = [0.1, -0.5, 0.3j]
        targets = blaschke_eval(zeros, const, np.array(nodes))
        with pytest.raises(HypothesisError):
            parametrize_solutions(nodes, targets, 0.0)


class TestRationalSchurFunction:
    def test_blaschke_constructor_boundary(self):
        f = RationalSchurFunction.from_blaschke([0.5, -0.2 + 0.3j], np.exp(1j))
        cert = f.boundary_certificate()
        assert cert.unimodular_deviation < 1e-10
        assert f.degree == 2
        assert sorted(np.round(f.blaschke_zeros(), 10).tolist(),
                      key=lambda z: (z.real, z.imag)) == sorted(
            [0.5 + 0j, -0.2 + 0.3j], key=lambda z: (z.real, z.imag))

    def test_polynomials_evaluate_consistently(self):
        f = RationalSchurFunction(steps=[(0.2, 0.3), (-0.4j, -0.1)], terminal=0.25)
        num, den = f.polynomials()
        z = 0.37 - 0.21j
        ratio = np.polyval(num[::-1], z) / np.polyval(den[::-1], z)
        assert abs(ratio - f(z)) < 1e-12


    @pytest.mark.parametrize("gamma", [1.0, -1j, 1.5])
    def test_step_parameters_must_lie_in_the_open_disc(self, gamma):
        with pytest.raises(ValidationError, match="step parameters"):
            RationalSchurFunction(steps=[(0.1, 0.2), (0.3, gamma)], terminal=0.5)


_IN_DISC = st.complex_numbers(max_magnitude=0.9)


class TestSharedStepChain:
    """polynomials() and ParametrizationMatrix share one step-chain product."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(_IN_DISC, _IN_DISC), max_size=8),
           terminal=st.complex_numbers(min_magnitude=0.1, max_magnitude=0.9))
    def test_polynomials_reproduce_the_chain(self, steps, terminal):
        f = RationalSchurFunction(steps=steps, terminal=terminal)
        num, den = f.polynomials()
        z = np.array([0.0, 0.5, -0.3 + 0.6j, 0.9j, -0.95])
        ratio = np.polyval(num[::-1], z) / np.polyval(den[::-1], z)
        assert np.abs(ratio - f(z)).max() <= 1e-12
        assert f.degree == len(steps)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_parametrization_extends_the_solver_chain(self, seed, n):
        nodes, targets = _feasible_instance(np.random.default_rng(seed), n)
        solved = solve_disc(nodes, targets)
        central = parametrize_solutions(nodes, targets, 0)
        assert central.steps == solved.steps + ((complex(nodes[-1]), solved.terminal),)
        assert central.terminal == 0


class TestDirichletSearch:
    def _synthetic_problem(self, c=0.45):
        nodes = (1.0, 1.5, 2.5)
        targets = tuple(c * 2.0 ** (-np.array(nodes)))
        return InterpolationProblem(nodes, targets, szego_half_plane())

    def test_generating_parameter_has_tiny_residual(self):
        c = 0.45
        problem = self._synthetic_problem(c)
        disc_nodes = [cayley(z) for z in problem.nodes]
        par = parametrization_matrix(disc_nodes, problem.targets)

        def target_on_disc(z):
            z = np.asarray(z, dtype=complex)
            s = (1.0 + z) / (1.0 - z)
            return c * np.exp(-s * np.log(2.0))

        def generating_h(z):
            # Inverse linear-fractional map; 0/0 at the nodes is removable
            # and any finite fallback is exact there because g12 vanishes.
            z = np.atleast_1d(np.asarray(z, dtype=complex))
            g11, g12, g21, g22 = par.entries(z)
            phi = target_on_disc(z)
            num = phi - g11
            den = g12 * g21 + g22 * num
            with np.errstate(invalid="ignore", divide="ignore"):
                vals = np.where(np.abs(den) > 1e-13, num / den, 0.0)
            return vals

        report = search_dirichlet_solution(
            problem, [("generator", generating_h), ("zero", 0.0), ("half", 0.5)],
            trunc=6)
        assert report.best().label == "generator"
        assert report.best().residual_rms < 1e-6
        assert report.best().node_defect < 1e-8

    def test_empty_family(self):
        report = search_dirichlet_solution(self._synthetic_problem(), [])
        assert report.entries == ()

    def test_independence_example_reports(self):
        p = InterpolationProblem((1.0, 6.0), (0.0, 1.0 / np.sqrt(2.0)),
                                 szego_half_plane())
        report = search_dirichlet_solution(p, [("zero", 0.0), ("third", 1.0 / 3.0)])
        assert len(report.entries) == 2
        assert not report.cond_i_psd
        assert report.cond_ii_psd
        for entry in report.entries:
            assert entry.node_defect < 1e-8

    def test_requires_condition_ii(self):
        p = InterpolationProblem((1.0, 2.0), (0.0, 0.4), szego_half_plane())
        with pytest.raises(HypothesisError):
            search_dirichlet_solution(p, [("zero", 0.0)])
