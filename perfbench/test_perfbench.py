"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pickzeta  # noqa: E402

import ops  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


# ------------------------------------------------------------------ spans


def span(name, parent, start, end):
    return [name, parent, start, end]


def test_self_time_subtracts_nested_children():
    spans = [
        span("pick.a", None, 0.0, 10.0),
        span("kernels.b", 0, 1.0, 4.0),
        span("dirichlet.c", 1, 2.0, 3.0),
        span("dirichlet.d", 0, 5.0, 7.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        span("pick.a", None, 0.0, 10.0),
        span("pick.b", 0, 1.0, 4.0),
        span("pick.c", 0, 3.0, 6.0),
        span("pick.d", 0, 9.0, 12.0),
    ]
    # Children cover [1, 6] and [9, 10] of the parent: 6 of its 10 seconds.
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_nests_spans_and_counts_layer_errors():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    zeta = tracer.wrap("dirichlet.zeta", inner)
    mid = tracer.wrap("dirichlet.zeta_reciprocal", lambda x: zeta(x))
    outer = tracer.wrap("kernels.gram_matrix", lambda x: mid(x))
    assert outer(2.0) == 2.0
    with pytest.raises(ValueError):
        outer(-1.0)
    names = [s[tracing.NAME] for s in tracer.spans]
    parents = [s[tracing.PARENT] for s in tracer.spans]
    assert names == ["kernels.gram_matrix", "dirichlet.zeta_reciprocal", "dirichlet.zeta"] * 2
    assert parents == [None, 0, 1, None, 3, 4]
    # The failure left dirichlet once (zeta -> zeta_reciprocal stays inside).
    assert tracer.errors == Counter({"dirichlet": 1, "kernels": 1})
    tracer.enabled = False
    assert outer(3.0) == 3.0 and len(tracer.spans) == 6

    metrics = tracing.summarize([tracer.dump()])
    assert metrics["dirichlet.zeta.calls"]["value"] == 2
    assert metrics["dirichlet.zeta.unique_ratio"]["value"] == 1.0
    assert metrics["dirichlet.errors"]["value"] == 1


def test_install_patches_aliases_and_restores():
    import pickzeta.cli as cli
    import pickzeta.kernels as kernels

    original = pickzeta.dirichlet.zeta
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert kernels.zeta is not original and cli.zeta_fn is kernels.zeta
        pickzeta.gram_matrix(pickzeta.zeta_power_kernel(2), [1.0, 2.0])
    finally:
        restore()
    assert kernels.zeta is original and cli.zeta_fn is original
    assert pickzeta.RealizationModel.d_norm.__name__ == "d_norm"
    metrics = tracing.summarize([tracer.dump()])
    assert metrics["kernels.gram_matrix.calls"]["value"] == 1
    assert metrics["dirichlet.zeta.calls"]["value"] == 3  # upper triangle of 2x2


# ------------------------------------------------------------- percentile


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(28) == pytest.approx(64.2857142857)
    values = list(range(1, 101))
    assert stats.tail(values, 100) == (90, 90.0, 10)
    # Two passes of the same workload: same percentile, twice the samples beyond.
    assert stats.tail(values + values, 100) == (90, 90.0, 20)
    with pytest.raises(ValueError):
        stats.tail_percentile(10)


def test_tail_is_rank_based_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples, percentile 50
    value, pct, beyond = stats.tail(values, 20)
    assert (value, pct, beyond) == (3.0, 50.0, 10)


def test_run_reports_medians_of_per_pass_metrics():
    def one_pass(latencies, ok):
        return {"ok": ok, "latencies": latencies}
    fast = [0.001] * 15 + [0.010] * 10       # 25 operations, tail at p60
    slow = [0.002] * 15 + [0.020] * 10
    workers = [{"passes": [one_pass(fast, 25), one_pass(slow, 24)], "peak_rss_mb": 50.0},
               {"passes": [one_pass(fast, 25)], "peak_rss_mb": 60.0}]
    out = run.combine(workers, [0.5, 0.7, 0.6])
    m = out["metrics"]
    assert m["setup_s"] == 0.6
    assert m["ops_per_s"] == pytest.approx(25 / sum(fast))
    assert m["op_p50_ms"] == pytest.approx(1.0)
    assert m["op_tail_ms"] == pytest.approx(1.0)  # rank 15 of 25 in each pass
    assert m["peak_rss_mb"] == 60.0
    assert out["tail"] == {"percentile": 60.0, "samples_beyond": 10, "samples": 25}


def test_traced_counts_repeat_for_a_seed():
    specs = workloads.make_specs("pick", 5)[:40]

    def counts():
        ctx = ops.Context(pickzeta)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            for op in ops.build_ops("pick", specs, ctx):
                try:
                    op.call()
                except pickzeta.PickZetaError:
                    pass
        finally:
            restore()
        metrics = tracing.summarize([tracer.dump()])
        return {k: v["value"] for k, v in metrics.items()
                if k.endswith((".calls", "_ratio", "per_solve", ".errors"))}
    first = counts()
    assert first["dirichlet.zeta.calls"] > 0
    assert counts() == first


# ------------------------------------------------------------------ specs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    first = workloads.spec_digest(workloads.make_specs(workload, 7))
    again = workloads.spec_digest(workloads.make_specs(workload, 7))
    other = workloads.spec_digest(workloads.make_specs(workload, 8))
    next_pass = workloads.spec_digest(workloads.make_specs(workload, 7, 1))
    assert first == again
    assert len({first, other, next_pass}) == 3


def shape(spec):
    """What an operation's cost depends on, apart from seeded values."""
    files = [len(f.get("nodes", ())) for f in spec.get("files", {}).values()]
    return (spec["op"], len(spec.get("nodes", ())), len(spec.get("points", ())), tuple(files),
            spec.get("m"), json.dumps(spec.get("kernel"), sort_keys=True),
            spec.get("near_pole"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_composition_does_not_depend_on_seed_or_pass(workload):
    base = Counter(map(shape, workloads.make_specs(workload, 1)))
    assert Counter(map(shape, workloads.make_specs(workload, 2))) == base
    assert Counter(map(shape, workloads.make_specs(workload, 1, 3))) == base


def test_near_pole_share_is_fixed():
    specs = [s for s in workloads.make_specs("pick", 3) if s["op"] == "zeta"]
    near = [s for s in specs if s["near_pole"]]
    assert len(near) * workloads.NEAR_POLE_EVERY == len(specs)
    for s in near:
        assert sum(0.5 < re <= 0.51 for re, _ in s["nodes"]) == 1
    for s in specs:
        assert all(re > 0.5 for re, _ in s["nodes"])


# ----------------------------------------------------------------- checks


def small_pick_ops(spec):
    ctx = ops.Context(pickzeta)
    return ops.build_ops("pick", [spec], ctx)[0]


def szego_spec(feasible=True):
    nodes = [1.0, 2.0 + 1.0j, 0.5 - 0.5j] if feasible else [1.0, 1.1, 2.0]
    # 0.5 * (s - 1) / (s + 1) is a Schur function; w and -w at nearby nodes
    # with |w| = 0.9 cannot be interpolated by one.
    targets = ([0.5 * (s - 1) / (s + 1) for s in nodes] if feasible
               else [0.9, -0.9, 0.0])
    return {"op": "szego", "sampled_feasible": feasible,
            "nodes": [[z.real, z.imag] for z in map(complex, nodes)],
            "targets": [[w.real, w.imag] for w in map(complex, targets)],
            "kernel": {"kind": "szego_half_plane"}}


def test_pick_check_accepts_real_results_and_flags_a_flipped_verdict():
    op = small_pick_ops(szego_spec())
    cert, transfer, solution = op.call()
    op.check((cert, transfer, solution))
    flipped = dataclasses.replace(cert, psd=not cert.psd)
    with pytest.raises(CheckFailed):
        op.check((flipped, transfer, solution))


def test_pick_check_flags_a_perturbed_solution():
    op = small_pick_ops(szego_spec())
    cert, transfer, solution = op.call()
    fn = solution.disc_function
    node, gamma = fn.steps[0]
    bad = pickzeta.HalfPlaneSchurFunction(pickzeta.RationalSchurFunction(
        steps=[(node, gamma + 1e-6)] + list(fn.steps[1:]), terminal=fn.terminal))
    with pytest.raises(CheckFailed, match="residual"):
        op.check((cert, transfer, bad))


def test_infeasible_witness_must_be_negative():
    op = small_pick_ops(szego_spec(feasible=False))
    cert, transfer, result = op.call()
    assert isinstance(result, pickzeta.Infeasible)
    op.check((cert, transfer, result))
    wrong = dataclasses.replace(result.certificate, witness=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(CheckFailed, match="witness"):
        op.check((cert, transfer, pickzeta.Infeasible(wrong)))


def test_series_check_flags_a_wrong_coefficient():
    ctx = ops.Context(pickzeta)
    op = ops.build_ops("series", [{"op": "zeta_power_coeffs", "m": 3, "n": 500}], ctx)[0]
    series = op.call()
    op.check(series)
    coeffs = series.coeffs.copy()
    coeffs[359] += 1.0
    with pytest.raises(CheckFailed):
        op.check(pickzeta.CoefficientSeries(coeffs))


def test_negative_control_must_fail():
    ctx = ops.Context(pickzeta)
    specs = [{"op": "build", "task": 0, "trunc": 200, "tol": 1e-2,
              "coeffs": [[0.0, 0.0], [0.4, 0.0]], "points": [[1.2, 0.0], [2.0, 0.3]]},
             {"op": "control", "task": 0, "scale": 1.5}]
    build, control = ops.build_ops("realize", specs, ctx)
    build.call()
    report = control.call()
    control.check(report)
    with pytest.raises(CheckFailed, match="negative control"):
        control.check(dataclasses.replace(report, contraction_ok=True, d_contraction_ok=True,
                                          psd_ok=True))


def test_cli_check_flags_a_wrong_exit_code():
    ctx = ops.Context(pickzeta, workdir=HERE)
    spec = {"op": "zeta", "argv": ["zeta", "--s=2"], "expect": 0, "points": [[2.0, 0.0]]}
    op = ops.build_ops("cli", [spec], ctx)[0]
    report = json.dumps({"results": [{"value": [1.6449340668482264, 0.0]}]})
    op.check(subprocess.CompletedProcess([], 0, report, ""))
    with pytest.raises(CheckFailed, match="exit"):
        op.check(subprocess.CompletedProcess([], 1, report, ""))
    wrong = json.dumps({"results": [{"value": [1.64, 0.0]}]})
    with pytest.raises(CheckFailed):
        op.check(subprocess.CompletedProcess([], 0, wrong, ""))


def test_cli_error_report_is_a_failed_operation_not_a_wrong_output():
    ctx = ops.Context(pickzeta, workdir=HERE)
    spec = {"op": "zeta", "argv": ["zeta", "--s=1.0000001"], "expect": 0,
            "points": [[1.0000001, 0.0]]}
    op = ops.build_ops("cli", [spec], ctx)[0]
    with pytest.raises(ops.CliError, match="DomainError"):
        op.call()


# ------------------------------------------------------------ definition


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
