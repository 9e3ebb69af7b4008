import json
import pathlib

import numpy as np
import pytest

from pickzeta import (
    CoefficientSeries,
    DirichletMultiplier,
    InterpolationProblem,
    RationalSchurFunction,
    ValidationError,
    build_realization,
    certify_psd,
    diagonal_kernel,
    evaluate_realization,
    solve_disc,
    szego_half_plane,
    verify_realization,
    zeta_power_kernel,
)
from pickzeta import serialize
from pickzeta.realization import MAX_TRUNC, span_residual
from pickzeta.serialize import (
    SPAN_TOL,
    decode_complex,
    decode_kernel,
    decode_model,
    decode_problem,
    decode_solution,
    dumps_canonical,
    encode_certificate,
    encode_kernel,
    encode_model,
    encode_problem,
    encode_solution,
    load_json,
)


class TestComplexWire:
    def test_pairs(self):
        assert decode_complex([1.5, -2.0]) == 1.5 - 2.0j
        with pytest.raises(ValidationError):
            decode_complex("1+2j")


class TestKernelWire:
    def test_round_trips(self):
        specs = [
            zeta_power_kernel(3),
            szego_half_plane(),
            diagonal_kernel(CoefficientSeries([1.0, 0.0, 2.0])),
        ]
        for spec in specs:
            back = decode_kernel(json.loads(json.dumps(encode_kernel(spec))))
            assert back.kind == spec.kind
            assert back.power == spec.power
            if spec.coeffs is not None:
                assert np.array_equal(back.coeffs.coeffs, spec.coeffs.coeffs)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            decode_kernel({"kind": "mystery"})

    @pytest.mark.parametrize("power", [2.7, True, "2", 0, None, 2.0])
    def test_power_must_be_a_json_integer(self, power):
        with pytest.raises(ValidationError, match="power"):
            decode_kernel({"kind": "zeta_power", "power": power})

    def test_power_defaults_to_one(self):
        assert decode_kernel({"kind": "zeta_power"}).power == 1
        assert decode_kernel({"kind": "zeta_power", "power": 3}).power == 3


class TestProblemWire:
    def test_round_trip_equality(self):
        p = InterpolationProblem((1.0 + 0.5j, 2.0), (0.1, -0.2j), zeta_power_kernel(2))
        encoded = encode_problem(p)
        back = decode_problem(json.loads(json.dumps(encoded)))
        assert back.nodes == p.nodes
        assert back.targets == p.targets
        assert back.kernel.kind == p.kernel.kind
        assert encode_problem(back) == encoded

    def test_tolerances_are_not_problem_fields(self):
        p = InterpolationProblem((1.0, 2.0), (0.0, 0.4), zeta_power_kernel(2), psd_tol=1e-9)
        assert set(encode_problem(p)) == {"schema", "nodes", "targets", "kernel"}
        for name in ("psd_tol", "rank_tol"):
            data = {**encode_problem(p), name: 1e-9}
            with pytest.raises(ValidationError, match=f"{name}.*--tol"):
                decode_problem(data)

    def test_missing_fields(self):
        with pytest.raises(ValidationError):
            decode_problem({"nodes": [[1.0, 0.0]]})


class TestCertificateWire:
    def test_carries_tolerances_and_convention(self):
        cert = certify_psd(np.eye(2), psd_tol=1e-9, rank_tol=1e-7)
        data = encode_certificate(cert)
        assert data["psd_tol"] == 1e-9
        assert data["rank_tol"] == 1e-7
        assert "conj" in data["convention"]
        assert data["matrix"] == [[[1.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [1.0, 0.0]]]


class TestSolutionWire:
    def test_steps_round_trip(self):
        nodes = [0.1, -0.3 + 0.2j, 0.5j]
        targets = [0.5 * z for z in nodes]  # from the Schur function z/2
        f = solve_disc(nodes, targets)
        assert isinstance(f, RationalSchurFunction)
        back = decode_solution(json.loads(json.dumps(encode_solution(f))))
        pts = 0.6 * np.exp(2j * np.pi * np.linspace(0, 0.9, 12))
        assert np.abs(back(pts) - f(pts)).max() == 0.0

    def test_blaschke_round_trip(self):
        f = RationalSchurFunction.from_blaschke([0.4, -0.2j], np.exp(0.7j))
        back = decode_solution(json.loads(json.dumps(encode_solution(f))))
        assert back.representation == "blaschke"
        z = 0.33 - 0.1j
        assert back(z) == f(z)


class TestModelWire:
    def test_evaluations_reproduce(self):
        phi = DirichletMultiplier.monomial(0.4)
        model = build_realization(phi, [1.1, 1.7, 2.4], trunc=300)
        data = json.loads(dumps_canonical(encode_model(model)))
        back = decode_model(data)
        for s in (1.2, 2.0 + 0.3j):
            assert evaluate_realization(back, s) == evaluate_realization(model, s)

    def test_file_at_1e5_coefficients_is_small(self):
        # The cores have 1 + 2k * rank rows at any truncation >= 2k.
        phi = DirichletMultiplier.monomial(0.3)
        model = build_realization(phi, [1.05, 1.4 + 0.3j, 1.9 - 0.25j, 2.6], trunc=10**5,
                                  tol=1e-6)
        text = dumps_canonical(encode_model(model))
        assert len(text.encode()) < 100_000
        back = decode_model(json.loads(text))
        assert np.array_equal(back.span.q, model.span.q)
        assert evaluate_realization(back, 1.2) == evaluate_realization(model, 1.2)


class TestModelFileTrunc:
    PARENT_FILE = pathlib.Path(__file__).parent / "data" / "model_pickzeta3_trunc2000.json"

    def test_file_written_before_the_sieve_table_loads(self):
        # A pickzeta/3 file built with exp sections and LAPACK's Q (trunc
        # 2000, 3 points, rank 3): the recomputed basis spans its lifts and
        # the model verifies.
        model = decode_model(load_json(str(self.PARENT_FILE)))
        assert (model.trunc, model.rank, len(model.points)) == (2000, 3, 3)
        assert span_residual(model) <= SPAN_TOL
        report = verify_realization(model)
        assert report.passed and report.evaluation_error is None
        # The values the writing build reported for its sample points.
        written = [0.3943642884916895 + 0.024887913420731652j,
                   0.2212848665266716 - 0.09089462461530687j,
                   0.23679214109406485 + 0.059055850103977015j]
        for s, value in zip(model.points, written):
            assert abs(evaluate_realization(model, s) - value) < 1e-12

    @pytest.mark.parametrize("trunc", [10**12, MAX_TRUNC + 1])
    def test_trunc_above_bound_rejected_before_any_table(self, monkeypatch, trunc):
        def refuse(*args):
            raise AssertionError("a sieve table was built")

        monkeypatch.setattr(serialize, "SieveTable", refuse)
        data = json.loads(self.PARENT_FILE.read_text())
        data["trunc"] = trunc
        with pytest.raises(ValidationError, match="'trunc'"):
            decode_model(data)


class TestCanonicalDump:
    def test_sorted_and_stable(self):
        a = dumps_canonical({"b": 1, "a": [1.5, 2.5]})
        b = dumps_canonical({"a": [1.5, 2.5], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert a.index('"a"') < a.index('"b"')
