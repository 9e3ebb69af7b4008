import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pickzeta
from pickzeta import ValidationError
from pickzeta.cli import main, parse_complex, parse_m_range
from pickzeta.serialize import (
    decode_model,
    decode_problem,
    decode_solution,
    dumps_canonical,
    encode_problem,
)


@pytest.fixture()
def independence_problem(tmp_path):
    problem = {
        "schema": "pickzeta/1",
        "nodes": [[1.0, 0.0], [6.0, 0.0]],
        "targets": [[0.0, 0.0], [float(1.0 / np.sqrt(2.0)), 0.0]],
        "kernel": {"kind": "szego_half_plane"},
    }
    path = tmp_path / "independence.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.fixture()
def witness_problem(tmp_path):
    problem = {
        "schema": "pickzeta/1",
        "nodes": [[1.0, 0.0], [2.0, 0.0]],
        "targets": [[0.0, 0.0], [0.4, 0.0]],
        "kernel": {"kind": "szego_half_plane"},
    }
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(problem))
    return str(path)


def _first_entries(rows, re):
    """The matrix rows with the first entry of each set to re + 0i."""
    return [[[re, 0.0]] + row[1:] for row in rows]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_parse_complex(self):
        assert parse_complex("2") == 2.0
        assert parse_complex("1.5+2i") == 1.5 + 2j
        assert parse_complex("-0.7i") == -0.7j
        assert parse_complex("3+1j") == 3 + 1j

    @pytest.mark.parametrize("text", ["2+1e400i", "2+nani", "nan", "1e400"])
    def test_parse_complex_rejects_non_finite(self, text):
        with pytest.raises(ValidationError, match="not finite"):
            parse_complex(text)

    def test_parse_m_range(self):
        assert parse_m_range("3") == [3]
        assert parse_m_range("1..5") == [1, 2, 3, 4, 5]


class TestZetaCommand:
    def test_value(self, capsys):
        code, out = run_cli(capsys, "zeta", "--s", "2")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "pickzeta/1"
        value = report["results"][0]["value"]
        assert value[0] == pytest.approx(1.6449340668482264, abs=1e-10)

    def test_zeta_12(self, capsys):
        code, out = run_cli(capsys, "zeta", "--s", "12")
        value = json.loads(out)["results"][0]["value"]
        assert value[0] == pytest.approx(1.000246086553308, abs=1e-10)

    def test_domain_error_exit_2(self, capsys):
        code, out = run_cli(capsys, "zeta", "--s", "0.9")
        assert code == 2
        assert json.loads(out)["kind"] == "DomainError"

    @pytest.mark.parametrize("s,kind", [
        ("2+1e30i", "AccuracyError"),
        ("2+1e200i", "AccuracyError"),
        ("2+1e400i", "ValidationError"),
        ("2+nani", "ValidationError"),
    ])
    def test_huge_or_non_finite_imaginary_part_exit_2(self, capsys, s, kind):
        code, out = run_cli(capsys, "zeta", "--s", s)
        assert code == 2
        assert json.loads(out)["kind"] == kind

    def test_deterministic_bytes(self, capsys):
        _, first = run_cli(capsys, "zeta", "--s", "2.5", "--s", "3+1i")
        _, second = run_cli(capsys, "zeta", "--s", "2.5", "--s", "3+1i")
        assert first == second

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "zeta", "--s", "2", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert "value_re" in header


class TestPickCheckCommand:
    def test_independence_file(self, capsys, independence_problem):
        code, out = run_cli(capsys, "pick-check", independence_problem)
        assert code == 0
        report = json.loads(out)
        conds = report["conditions"]
        assert conds["cond_ii"]["psd"] is True
        assert conds["cond_i"]["psd"] is False
        assert report["cayley_transfer"]["psd_match"] is True

    def test_report_problem_roundtrip(self, capsys, independence_problem):
        code, out = run_cli(capsys, "pick-check", independence_problem)
        echoed = json.loads(out)["problem"]
        problem = decode_problem(echoed)
        assert encode_problem(problem) == echoed

    def test_single_node(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({
            "nodes": [[1.5, 0.0]], "targets": [[0.25, 0.0]],
            "kernel": {"kind": "szego_half_plane"},
        }))
        code, out = run_cli(capsys, "pick-check", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["pick_certificate"]["psd"] is True
        assert report["conditions"]["cond_i"]["psd"] is True
        assert report["conditions"]["cond_ii"]["psd"] is True

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [[1, 0],')
        code, out = run_cli(capsys, "pick-check", str(path))
        assert code == 2
        err = json.loads(out)
        assert "line" in err["error"]

    def test_missing_file_exit_2(self, capsys):
        code, _ = run_cli(capsys, "pick-check", "/nonexistent/problem.json")
        assert code == 2

    @pytest.mark.parametrize("power", [2.7, True, "2"])
    def test_non_integer_kernel_power_exit_2(self, capsys, tmp_path, power):
        path = tmp_path / "power.json"
        path.write_text(json.dumps({
            "nodes": [[1.0, 0.0], [2.0, 0.0]], "targets": [[0.0, 0.0], [0.4, 0.0]],
            "kernel": {"kind": "zeta_power", "power": power},
        }))
        code, out = run_cli(capsys, "pick-check", str(path))
        assert code == 2
        err = json.loads(out)
        assert err["kind"] == "ValidationError"
        assert "power" in err["error"]

    @pytest.mark.parametrize("command", ["pick-check", "solve"])
    @pytest.mark.parametrize("field,text", [
        ("nodes", '[[1.0, 0.0], [Infinity, 0.0]]'),
        ("targets", '[[0.0, 0.0], [NaN, 0.0]]'),
        ("psd_tol", "NaN"),
        ("rank_tol", "Infinity"),
    ])
    def test_non_finite_problem_values_exit_2(self, capsys, tmp_path, command, field, text):
        fields = {"nodes": "[[1.0, 0.0], [2.0, 0.0]]", "targets": "[[0.0, 0.0], [0.2, 0.0]]",
                  "kernel": '{"kind": "szego_half_plane"}', field: text}
        path = tmp_path / "nonfinite.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        code, out = run_cli(capsys, command, str(path))
        assert code == 2
        err = json.loads(out)
        assert err["kind"] == "ValidationError"
        assert field in err["error"]


class TestCounterexampleCommand:
    def test_range_all_pass(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--m", "1..5", "--w2", "0.4")
        assert code == 0
        report = json.loads(out)
        assert report["all_hold"] is True
        assert len(report["certificates"]) == 5

    def test_window_violation_exit_2(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--w2", "0.2")
        assert code == 2
        assert "0.434" in json.loads(out)["error"]

    def test_bad_power_range_exit_2(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--m", "one..3")
        assert code == 2
        assert json.loads(out)["kind"] == "ValidationError"

    def test_garbage_field_types_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "nodes": [["x", 0.0]], "targets": [[0.0, 0.0]],
            "kernel": {"kind": "szego_half_plane"},
        }))
        code, _ = run_cli(capsys, "pick-check", str(path))
        assert code == 2

    def test_near_window_flagged(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--m", "1", "--w2", "0.43")
        assert code == 0
        report = json.loads(out)
        assert report["all_hold"] is True

    def test_grid_search(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--search")
        assert code == 0
        report = json.loads(out)
        assert report["witness_count"] == len(report["witnesses"]) > 0


class TestSolveCommand:
    def test_feasible_roundtrip(self, capsys, tmp_path, independence_problem):
        out_path = tmp_path / "report.json"
        code, _ = run_cli(capsys, "solve", independence_problem, "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["feasible"] is True
        assert report["node_residual_max"] < 1e-8
        assert report["boundary_sup"] <= 1.0 + 1e-6
        solution = decode_solution(report["solution"])
        assert abs(solution(1.0)) < 1e-8

    def test_infeasible_exit_1(self, capsys, witness_problem):
        code, out = run_cli(capsys, "solve", witness_problem)
        assert code == 1
        report = json.loads(out)
        assert report["feasible"] is False
        assert "witness" in report

    def test_evaluate(self, capsys, tmp_path, independence_problem):
        out_path = tmp_path / "report.json"
        run_cli(capsys, "solve", independence_problem, "--out", str(out_path))
        report = json.loads(out_path.read_text())
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(dumps_canonical(report["solution"]))
        code, out = run_cli(capsys, "solve", "--evaluate", str(sol_path),
                            "--at", "3+1i,6")
        assert code == 0
        evals = json.loads(out)["evaluations"]
        assert evals[1]["value"][0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)

    def test_evaluate_report_roundtrip(self, capsys, tmp_path, independence_problem):
        # `solve --out` writes the whole report; --evaluate takes it as is
        # and gives what the bare solution object gives.
        report_path = tmp_path / "report.json"
        run_cli(capsys, "solve", independence_problem, "--out", str(report_path))
        sol_path = tmp_path / "sol.json"
        sol_path.write_text(dumps_canonical(json.loads(report_path.read_text())["solution"]))
        results = {}
        for path in (report_path, sol_path):
            code, out = run_cli(capsys, "solve", "--evaluate", str(path), "--at", "3+1i,6")
            assert code == 0
            results[path] = json.loads(out)
            assert results[path].pop("argv")[2] == str(path)
        assert results[report_path] == results[sol_path]
        value = results[report_path]["evaluations"][1]["value"]
        assert value[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)

    def test_evaluate_infeasible_report_exit_2(self, capsys, tmp_path, witness_problem):
        report_path = tmp_path / "report.json"
        code, _ = run_cli(capsys, "solve", witness_problem, "--out", str(report_path))
        assert code == 1
        code, out = run_cli(capsys, "solve", "--evaluate", str(report_path), "--at", "2")
        assert code == 2
        assert "infeasible" in json.loads(out)["error"]

    def test_solve_without_input_exit_2(self, capsys):
        code, _ = run_cli(capsys, "solve")
        assert code == 2


class TestRealizeCommand:
    @pytest.fixture()
    def phi_file(self, tmp_path):
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"coeffs": [[0.0, 0.0], [0.5, 0.0]]}))
        return str(path)

    def test_build_and_verify(self, capsys, tmp_path, phi_file):
        model_path = tmp_path / "model.json"
        code, out = run_cli(capsys, "realize", "--phi", phi_file,
                            "--points", "1.05,1.4+0.3i,1.9-0.25i,2.6",
                            "--trunc", "600", "--model-out", str(model_path))
        assert code == 0
        report = json.loads(out)
        assert report["built"] is True
        assert report["rank"] == 4
        assert max(r["abs_error"] for r in report["reconstruction"]) < 1e-3
        model = decode_model(json.loads(model_path.read_text()))
        assert model.trunc == 600

        code, out = run_cli(capsys, "realize", "--verify", str(model_path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_uncertified_multiplier_exit_1(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"coeffs": [[0.8, 0.0], [0.4, 0.0]]}))
        code, out = run_cli(capsys, "realize", "--phi", str(path),
                            "--points", "1.0,2.0")
        assert code == 1
        assert json.loads(out)["built"] is False

    def test_verify_tampered_model_exit_1(self, capsys, tmp_path, phi_file):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "realize", "--phi", phi_file,
                "--points", "1.05,1.5,2.1", "--trunc", "400",
                "--model-out", str(model_path))
        data = json.loads(model_path.read_text())
        data["v_left"][1:] = [[[1.5 * re, 1.5 * im] for re, im in row]
                              for row in data["v_left"][1:]]
        model_path.write_text(json.dumps(data))
        code, out = run_cli(capsys, "realize", "--verify", str(model_path))
        assert code == 1
        assert json.loads(out)["passed"] is False

    # case: (field, its wrong value)
    WRONG_SHAPES = {
        "psi": ("psi", lambda data: data["psi"][:2]),
        "v_left_row": ("v_left", lambda data: data["v_left"][:-1]),
        "v_left_column": ("v_left", lambda data: [row[:-1] for row in data["v_left"]]),
        "v_right_row": ("v_right", lambda data: data["v_right"] + data["v_right"][:1]),
        "v_right_column": ("v_right", lambda data: [row[1:] for row in data["v_right"]]),
        "trunc": ("trunc", lambda data: data["trunc"] + 1),
        "rank": ("rank", lambda data: data["rank"] - 1),
    }

    @staticmethod
    def _verify_tampered(capsys, tmp_path, phi_file, field, tamper):
        model_path = tmp_path / "model.json"
        run_cli(capsys, "realize", "--phi", phi_file,
                "--points", "1.05,1.4+0.3i,1.9-0.25i,2.6", "--trunc", "64",
                "--build-tol", "1", "--model-out", str(model_path))
        data = json.loads(model_path.read_text())
        data[field] = tamper(data)
        model_path.write_text(json.dumps(data))
        return run_cli(capsys, "realize", "--verify", str(model_path))

    @pytest.mark.parametrize("case", WRONG_SHAPES)
    def test_verify_wrong_shapes_exit_2(self, capsys, tmp_path, phi_file, case):
        code, out = self._verify_tampered(capsys, tmp_path, phi_file, *self.WRONG_SHAPES[case])
        assert code == 2
        assert json.loads(out)["kind"] == "ValidationError"

    # case: (field, its bad value); the error must name the field.
    BAD_VALUES = {
        "schema_old": ("schema", lambda data: "pickzeta/1"),
        "schema_null": ("schema", lambda data: None),
        "trunc_fraction": ("trunc", lambda data: data["trunc"] + 0.7),
        "rank_fraction": ("rank", lambda data: data["rank"] + 0.5),
        "alpha_nan": ("alpha", lambda data: [float("nan"), 0.0]),
        "alpha_inside_disc": ("alpha", lambda data: [0.5, 0.0]),
        "points_nan": ("points", lambda data: [[float("nan"), 0.0]] + data["points"][1:]),
        "psi_nan": ("psi", lambda data: _first_entries(data["psi"], float("nan"))),
        "v_left_nan": ("v_left", lambda data: _first_entries(data["v_left"], float("nan"))),
        "v_right_inf": ("v_right", lambda data: _first_entries(data["v_right"], float("inf"))),
    }

    @pytest.mark.parametrize("case", BAD_VALUES)
    def test_verify_bad_values_exit_2(self, capsys, tmp_path, phi_file, case):
        field, tamper = self.BAD_VALUES[case]
        code, out = self._verify_tampered(capsys, tmp_path, phi_file, field, tamper)
        assert code == 2
        error = json.loads(out)
        assert error["kind"] == "ValidationError"
        assert repr(field) in error["error"]

    def test_rank_zero_model_round_trip(self, capsys, tmp_path):
        phi_path = tmp_path / "one.json"
        phi_path.write_text(json.dumps({"coeffs": [[1.0, 0.0]]}))
        model_path = tmp_path / "model.json"
        code, out = run_cli(capsys, "realize", "--phi", str(phi_path), "--points", "1.0,2.0",
                            "--trunc", "64", "--model-out", str(model_path))
        assert code == 0
        assert json.loads(out)["rank"] == 0
        data = json.loads(model_path.read_text())
        assert data["schema"] == "pickzeta/2"
        assert data["v_left"] == [[[1.0, 0.0]]] and data["v_right"] == [[[1.0, 0.0]]]
        code, out = run_cli(capsys, "realize", "--verify", str(model_path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_build_tol_exit_2(self, capsys, tmp_path, phi_file, tol):
        code, out = run_cli(capsys, "realize", "--phi", phi_file,
                            "--points", "1.05,1.4", "--trunc", "10",
                            "--build-tol", tol, "--model-out", str(tmp_path / "m.json"))
        assert code == 2
        assert json.loads(out)["kind"] == "ValidationError"
        assert not (tmp_path / "m.json").exists()


class TestSearchDirichletCommand:
    def test_report(self, capsys, independence_problem):
        code, out = run_cli(capsys, "search-dirichlet", independence_problem,
                            "--h", "0,0.3,-0.7i")
        assert code == 0
        report = json.loads(out)
        assert len(report["entries"]) == 3
        assert report["cond_ii_psd"] is True
        assert report["note"].startswith("exploratory")

    def test_failed_hypothesis_exit_1(self, capsys, witness_problem):
        code, out = run_cli(capsys, "search-dirichlet", witness_problem, "--h", "0")
        assert code == 1

    @pytest.mark.parametrize("flags, kind", [
        (("--sigma0", "nan"), "DomainError"),
        (("--fit-trunc", "0"), "ValidationError"),
        (("--fit-trunc", "-3"), "ValidationError"),
    ])
    def test_bad_flags_exit_2(self, capsys, independence_problem, flags, kind):
        code, out = run_cli(capsys, "search-dirichlet", independence_problem, *flags)
        assert code == 2
        assert json.loads(out)["kind"] == kind


class TestConfig:
    def test_env_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        monkeypatch.setenv("PICKZETA_CONFIG", str(cfg))
        code, out = run_cli(capsys, "zeta", "--s", "2")
        assert code == 0
        assert out.splitlines()[0].startswith("s_im")

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code, out = run_cli(capsys, "--config", str(cfg), "zeta", "--s", "2")
        assert code == 2

    def test_global_flags_after_subcommand(self, capsys):
        code, out = run_cli(capsys, "zeta", "--s", "2", "--format", "human")
        assert code == 0
        assert "pickzeta/1" in out

    @pytest.mark.parametrize("key", ["seed", "prime_limit"])
    def test_removed_keys_are_unknown(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 50}))
        code, out = run_cli(capsys, "--config", str(cfg), "zeta", "--s", "2")
        assert code == 2
        assert key in json.loads(out)["error"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_tol_flag_exit_2(self, capsys, witness_problem, value):
        code, out = run_cli(capsys, "--format", "csv", "--tol", value,
                            "pick-check", witness_problem)
        assert code == 2
        assert json.loads(out)["kind"] == "ValidationError"

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["zeta_abs_err", "psd_tol", "rank_tol"])
    def test_nonfinite_config_tol_exit_2(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code, out = run_cli(capsys, "--config", str(cfg), "zeta", "--s", "2")
        assert code == 2
        error = json.loads(out)
        assert error["kind"] == "ValidationError"
        assert key in error["error"]

    def test_seed_flag_is_rejected(self, capsys):
        code, _ = run_cli(capsys, "--seed", "3", "zeta", "--s", "2")
        assert code == 2

    def test_report_config_keys(self, capsys):
        code, out = run_cli(capsys, "zeta", "--s", "2")
        assert code == 0
        assert sorted(json.loads(out)["config"]) == [
            "format", "psd_tol", "rank_tol", "trunc", "zeta_abs_err"]


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(pickzeta.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, pickzeta.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


class TestModelFileDeterminism:
    def test_model_file_reproduces_evaluations(self, capsys, tmp_path):
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps({"coeffs": [[0.0, 0.0], [0.3, 0.0]]}))
        model_path = tmp_path / "model.json"
        run_cli(capsys, "realize", "--phi", str(phi_path),
                "--points", "1.1,1.6,2.3", "--trunc", "300",
                "--model-out", str(model_path))
        first = decode_model(json.loads(model_path.read_text()))
        second = decode_model(json.loads(model_path.read_text()))
        from pickzeta import evaluate_realization
        for s in (1.2, 1.9 + 0.4j, 3.5):
            assert evaluate_realization(first, s) == evaluate_realization(second, s)
