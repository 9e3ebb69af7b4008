"""Operations: each spec becomes a call into pickzeta plus an output check.

A call looks every package function up at call time (``pz.name``), so
wrappers installed by the tracer after the ops were built still see the
calls.  Checks run outside the timed region and raise ``CheckFailed``;
their oracles live in ``checks.py`` and are cached per input, so a
second pass over the same ops re-checks cheaply.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checks
from checks import CheckFailed, require

HERE = os.path.dirname(os.path.abspath(__file__))
RESIDUAL_TOL = 1e-8
BOUNDARY_TOL = 1e-6
BOUNDARY_SAMPLES = 2048
RECONSTRUCTION_TOL = 1e-4
ISOMETRY_TOL = 1e-8
SIGMA_TOL = 1e-8
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    kind: str
    call: object   # () -> result
    check: object  # result -> None, raises CheckFailed
    size: float    # relative size, for choosing warm-up ops


@dataclass
class Context:
    """State shared by the ops of one run."""

    pz: object
    workdir: str = ""
    trace_dir: str = ""       # set while the cli workload is traced
    observed: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)

    def cached(self, key, compute):
        if key not in self.cache:
            self.cache[key] = compute()
        return self.cache[key]

    def observe_max(self, name, value):
        self.observed[name] = max(self.observed.get(name, 0.0), float(value))

    def sieve(self):
        return self.cached("sieve", lambda: checks.Sieve(10**6))

    def divisor_m(self, m):
        return self.cached(("d_m", m), lambda: checks.Sieve(10**5).divisor_m(m))


def build_ops(workload, specs, ctx, label="") -> list:
    """Ops for one pass; ``label`` keeps the names of per-op files apart
    between passes."""
    build = _BUILDERS[workload]
    return [build(spec, ctx, f"{label}{i:03d}") for i, spec in enumerate(specs)]


def _cvec(pairs):
    return [complex(re, im) for re, im in pairs]


def _kernel(pz, kernel):
    if kernel["kind"] == "zeta_power":
        return pz.zeta_power_kernel(kernel["power"])
    return pz.zeta_mobius_kernel()


def _solution_repr(fn):
    """A RationalSchurFunction's data in the layout checks.eval_* reads."""
    if fn.representation == "blaschke":
        return {"representation": "blaschke",
                "zeros": [[z.real, z.imag] for z in fn.zeros],
                "unimodular": [fn.unimodular.real, fn.unimodular.imag]}
    return {"representation": "schur_steps",
            "steps": [{"node": [n.real, n.imag], "parameter": [g.real, g.imag]}
                      for n, g in fn.steps],
            "terminal": [fn.terminal.real, fn.terminal.imag]}


def _check_verdict(label, claimed, matrix, tol):
    psd, clear = checks.psd_verdict(matrix, tol)
    if clear:
        require(claimed == psd, f"{label}: claimed psd={claimed}, oracle psd={psd}")
    return psd, clear


def _check_witness(nodes, targets, witness):
    """A disc-side witness v of the Cayley-transferred problem maps to
    u = conj(x + 1) v / sqrt(2) on the half-plane Pick matrix P, with
    u* P u == v* Q v; it certifies infeasibility only if negative."""
    x = np.asarray(nodes, dtype=complex)
    v = np.asarray(witness, dtype=complex)
    u = np.conj(x + 1.0) * v / math.sqrt(2.0)
    value = complex(np.vdot(u, checks.halfplane_szego_pick(nodes, targets) @ u)).real
    require(value < 0.0, f"infeasibility witness gives v*Pv = {value:.3e}, not < 0")


def _check_solution(encoded_disc, nodes, targets):
    s = np.asarray(nodes, dtype=complex)
    values = checks.eval_disc_solution(encoded_disc, (s - 1.0) / (s + 1.0))
    residual = float(np.abs(values - np.asarray(targets, dtype=complex)).max())
    require(residual <= RESIDUAL_TOL, f"node residual {residual:.3e} > {RESIDUAL_TOL}")
    theta = 2.0 * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    sup = float(np.abs(checks.eval_disc_solution(encoded_disc, np.exp(1j * theta))).max())
    require(sup <= 1.0 + BOUNDARY_TOL, f"boundary sup {sup:.9f} > 1 + {BOUNDARY_TOL}")


# -------------------------------------------------------------------- pick


def _pick_op(spec, ctx, label):
    pz = ctx.pz
    kind = spec["op"]
    tol = 1e-10  # the package default psd_tol the problems run with
    if kind != "search":
        nodes, targets = _cvec(spec["nodes"]), _cvec(spec["targets"])

    if kind == "szego":
        def call():
            problem = pz.InterpolationProblem(nodes, targets, pz.szego_half_plane())
            return (pz.pick_certificate(problem), pz.cayley_transfer(problem),
                    pz.solve_halfplane(problem))

        def check(result):
            cert, transfer, solution = result
            p = checks.halfplane_szego_pick(nodes, targets)
            psd, clear = _check_verdict("pick certificate", cert.psd, p, tol)
            z = np.asarray(nodes)
            q = checks.disc_szego_pick((z - 1.0) / (z + 1.0), targets)
            _check_verdict("cayley half-plane", transfer.cert_half_plane.psd, p, tol)
            _check_verdict("cayley disc", transfer.cert_disc.psd, q, tol)
            rank_p, clear_p = checks.rank_verdict(p, 1e-8)
            rank_q, clear_q = checks.rank_verdict(q, 1e-8)
            if clear_p and clear_q:
                require(rank_p == rank_q, f"oracle ranks differ: {rank_p} vs {rank_q}")
                require(transfer.cert_half_plane.numerical_rank == rank_p
                        and transfer.cert_disc.numerical_rank == rank_q,
                        "cayley transfer ranks disagree with the oracle")
            if isinstance(solution, pz.Infeasible):
                require(not (clear and psd), "solver reports infeasible, oracle says PSD")
                _check_witness(nodes, targets, solution.certificate.witness)
            else:
                require(not (clear and not psd), "solver returned a solution, oracle says not PSD")
                _check_solution(_solution_repr(solution.disc_function), nodes, targets)
        return Op(kind, call, check, len(nodes))

    if kind == "zeta":
        kernel = spec["kernel"]

        def call():
            problem = pz.InterpolationProblem(nodes, targets, _kernel(pz, kernel))
            return pz.pick_certificate(problem), pz.necessary_conditions(problem)

        def check(result):
            cert, conds = result
            szego = checks.halfplane_szego_pick(nodes, targets)
            _check_verdict("cond_ii", conds.cond_ii.psd, szego, tol)
            rank, clear = checks.rank_verdict(szego, 1e-8)
            if clear:
                require(conds.rank_full == (rank == len(nodes)), "cond_ii rank_full disagrees")
            if spec["oracle"]:
                zeta = ctx.cached(("zeta_gram", tuple(nodes)), lambda: checks.zeta_gram_mp(nodes))
                w = np.asarray(targets)
                mul = 1.0 - np.outer(w, w.conj())
                _check_verdict("kernel pick certificate", cert.psd,
                               mul * checks.kernel_from_zeta(zeta, kernel), tol)
                _check_verdict("cond_i", conds.cond_i.psd, mul * zeta, tol)
        return Op(kind, call, check, len(nodes))

    grid = spec["grid"]
    kernel = spec["kernel"]

    def call():
        search_grid = pz.pick.SearchGrid(nodes=tuple(grid["nodes"]),
                                         target_moduli=tuple(grid["target_moduli"]),
                                         target_phases=tuple(grid["target_phases"]))
        return pz.counterexample_search(_kernel(pz, kernel), search_grid)

    def check(result):
        must, never = ctx.cached(("search", json.dumps(kernel, sort_keys=True)),
                                 lambda: _search_oracle(kernel, grid, tol))
        found = {_witness_key(w.node1.real, w.node2.real, w.target2) for w in result}
        missing = must - found
        require(not missing, f"search missed {len(missing)} certified witnesses")
        wrong = found & never
        require(not wrong, f"search reported {len(wrong)} witnesses the oracle rejects")
    return Op(kind, call, check, 1000.0)


def _witness_key(l1, l2, w2):
    return (round(l1, 9), round(l2, 9), round(w2.real, 9), round(w2.imag, 9))


def _search_oracle(kernel, grid, tol):
    """(certainly found, certainly not found) witness keys of the grid."""
    zeta = {}
    for a in grid["nodes"]:
        for b in grid["nodes"]:
            zeta[(a, b)] = checks.zeta_mp(complex(a + b))
    must, never = set(), set()
    for l1 in grid["nodes"]:
        for l2 in grid["nodes"]:
            if l1 == l2:
                continue
            kz = np.array([[zeta[(l1, l1)], zeta[(l1, l2)]], [zeta[(l2, l1)], zeta[(l2, l2)]]])
            km = checks.kernel_from_zeta(kz, kernel)
            ks = np.array([[1 / (2 * l1), 1 / (l1 + l2)], [1 / (l1 + l2), 1 / (2 * l2)]])
            for mod in grid["target_moduli"]:
                for phase in grid["target_phases"]:
                    w2 = mod * np.exp(1j * phase)
                    w = np.array([0.0, w2])
                    mul = 1.0 - np.outer(w, w.conj())
                    ek = np.linalg.eigvalsh(mul * km)
                    es = np.linalg.eigvalsh(mul * ks)
                    sk = max(1.0, float(np.abs(ek).max()))
                    ss = max(1.0, float(np.abs(es).max()))
                    key = _witness_key(l1, l2, complex(w2))
                    if ek[0] >= 20 * tol * sk and es[0] <= -20 * tol * ss:
                        must.add(key)
                    elif ek[0] < 5 * tol * sk or es[0] > -5 * tol * ss:
                        never.add(key)
    return must, never


# ------------------------------------------------------------------ series


def _series_op(spec, ctx, label):
    pz = ctx.pz
    kind = spec["op"]

    if kind == "zeta_power_coeffs":
        m, n = spec["m"], spec["n"]

        def call():
            return pz.zeta_power_coeffs(m, n)

        def check(series):
            c = series.coeffs
            require(c.size == n, f"zeta^{m} coefficients: length {c.size} != {n}")
            require(not np.any(c.imag), f"zeta^{m} coefficients are not real")
            require(np.array_equal(c.real, ctx.divisor_m(m)[:n]),
                    f"zeta^{m} coefficients differ from prod C(a+m-1, m-1)")
        return Op(kind, call, check, m * n)

    if kind == "mobius_inversion":
        n = spec["n"]

        def call():
            return pz.dirichlet_convolve(pz.CoefficientSeries.mobius(n),
                                         pz.CoefficientSeries.ones(n))

        def check(series):
            unit = np.zeros(n)
            unit[0] = 1.0
            require(np.array_equal(series.coeffs, unit), "mu * 1 is not exactly the unit")
        return Op(kind, call, check, n)

    if kind == "mobius_range":
        n = spec["n"]

        def call():
            return pz.mobius_range(n)

        def check(mu):
            require(np.array_equal(mu, ctx.sieve().mobius()[: n + 1]),
                    f"mobius_range({n}) differs from the oracle sieve")
        return Op(kind, call, check, n)

    if kind == "feature_map":
        kernel, n = spec["kernel"], spec["n"]
        s = complex(*spec["s"])

        def call():
            return pz.feature_map(_kernel(pz, kernel), s, n)

        def check(fv):
            require(fv.coords.size == n, "feature truncation differs")
            require(fv.tail_bound >= 0.0, f"negative tail bound {fv.tail_bound}")
            diag = ctx.cached(("diag", s, json.dumps(kernel)), lambda: checks.kernel_from_zeta(
                np.array([checks.zeta_mp(complex(2.0 * s.real))]), kernel)[0].real)
            total = fv.norm() ** 2 + fv.tail_bound
            require(abs(total - diag) <= 1e-9 * diag,
                    f"<f,f> + tail = {total!r} but k(s,s) = {diag!r}")
            if kernel["kind"] == "zeta_power":
                coeff = ctx.divisor_m(kernel["power"])
            else:
                coeff = 1 + ctx.sieve().mobius()[1:]
            for j in sorted({1, 2, 6, n // 3, n}):
                want = math.sqrt(coeff[j - 1]) * j ** (-s)
                got = complex(fv.coords[j - 1])
                require(abs(got - want) <= 1e-12 * max(1.0, abs(want)),
                        f"feature coordinate {j}: {got} vs {want}")
        return Op(kind, call, check, n)

    count, sigma, limit = spec["primes"], spec["sigma"], spec["limit"]

    def call():
        return pz.smooth_partial_sum(count, sigma, limit)

    def check(value):
        bound = ctx.sieve().euler_product(count, sigma)
        require(1.0 <= value <= bound * (1.0 + 1e-12),
                f"smooth partial sum {value!r} not in [1, Euler product {bound!r}]")
    return Op(kind, call, check, count)


# ----------------------------------------------------------------- realize


def _realize_op(spec, ctx, label):
    pz = ctx.pz
    kind = spec["op"]
    task = spec["task"]
    tasks = ctx.state.setdefault("tasks", {})

    if kind == "build":
        tasks[task] = {"coeffs": _cvec(spec["coeffs"]), "points": _cvec(spec["points"]),
                       "trunc": spec["trunc"]}
        info = tasks[task]

        def call():
            phi = pz.DirichletMultiplier(np.array(info["coeffs"]))
            info["model"] = pz.build_realization(phi, info["points"], trunc=info["trunc"],
                                                 tol=spec["tol"])
            return info["model"]

        def check(model):
            certs = model.certificates
            require(certs["gram_identity_residual"] <= spec["tol"],
                    f"Gram residual {certs['gram_identity_residual']:.3e} > {spec['tol']}")
            ctx.observe_max("gram_residual_over_tol", certs["gram_identity_residual"] / spec["tol"])
            require(certs["isometry_defect"] <= ISOMETRY_TOL,
                    f"isometry defect {certs['isometry_defect']:.3e}")
            sigma = checks.block_sigma_max(model.a, model.beta, model.gamma,
                                            model.d_left, model.d_right)
            require(sigma <= 1.0 + SIGMA_TOL, f"oracle sigma_max - 1 = {sigma - 1:.3e}")
            require(certs["sigma_max"] <= 1.0 + SIGMA_TOL, "certified sigma_max exceeds 1")
        return Op(kind, call, check, 10.0 * spec["trunc"])

    info = tasks[task]
    if kind == "evaluate":
        point = complex(*spec["point"])

        def call():
            return pz.evaluate_realization(info["model"], point)

        def check(value):
            err = abs(value - checks.dirichlet_poly(info["coeffs"], point))
            if spec["held_out"]:
                ctx.observe_max("held_out_error_max", err)
            else:
                require(err <= RECONSTRUCTION_TOL, f"reconstruction error {err:.3e} at {point}")
        return Op(kind, call, check, info["trunc"])

    if kind == "verify":
        def call():
            return pz.verify_realization(info["model"])

        def check(report):
            require(report.passed, "verification of a freshly built model failed")
            require(report.sigma_max <= 1.0 + SIGMA_TOL, "verified sigma_max exceeds 1")
            for g, value in zip(report.grid, report.reconstructed):
                err = abs(value - checks.dirichlet_poly(info["coeffs"], g))
                require(err <= RECONSTRUCTION_TOL, f"verify reconstruction error {err:.3e}")
        return Op(kind, call, check, 5.0 * info["trunc"])

    def call():
        return pz.verify_realization(info["model"].scaled(spec["scale"]))

    def check(report):
        require(not report.passed, "negative control (scaled D) passed verification")
    return Op(kind, call, check, 5.0 * info["trunc"])


# --------------------------------------------------------------------- cli


def cli_env():
    """The caller's environment with src/ on PYTHONPATH; thread settings
    are passed through untouched."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(ctx, argv, label):
    if ctx.trace_dir:
        out = os.path.join(ctx.trace_dir, f"{label}.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_boot.py"), out, *argv]
    else:
        cmd = [sys.executable, "-m", "pickzeta", *argv]
    return subprocess.run(cmd, cwd=ctx.workdir, env=ctx.state["env"], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)


def write_cli_inputs(specs, ctx):
    for spec in specs:
        for name, data in spec.get("files", {}).items():
            with open(os.path.join(ctx.workdir, name), "w", encoding="utf-8") as handle:
                json.dump({"schema": "pickzeta/1", **data}, handle)


def _report(ctx, proc, spec):
    path = spec.get("report")
    try:
        if path:
            with open(os.path.join(ctx.workdir, path), encoding="utf-8") as handle:
                return json.load(handle)
        return json.loads(proc.stdout)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{spec['op']}: report does not parse: {exc}") from exc


def _load_problem(ctx, name):
    with open(os.path.join(ctx.workdir, name), encoding="utf-8") as handle:
        data = json.load(handle)
    return _cvec(data["nodes"]), _cvec(data["targets"]), data["kernel"]


class CliError(Exception):
    """The CLI answered with an error report where the operation expected
    another exit code: the subprocess counterpart of an exception, so it
    counts as a failed operation rather than a wrong output."""


def _error_report(stdout):
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    if isinstance(report, dict) and "error" in report and "kind" in report:
        return f"{report['kind']}: {report['error']}"
    return None


def _cli_op(spec, ctx, label):
    kind = spec["op"]
    ctx.state.setdefault("env", cli_env())

    def call():
        proc = run_cli(ctx, spec["argv"], f"op{label}")
        if proc.returncode != spec["expect"]:
            error = _error_report(proc.stdout)
            if error is not None:
                raise CliError(error)
        return proc

    def check(proc):
        require(proc.returncode == spec["expect"],
                f"{' '.join(spec['argv'][:2])}: exit {proc.returncode}, "
                f"expected {spec['expect']}: {proc.stdout[-300:]}{proc.stderr[-300:]}")
        _CLI_CHECKS[kind](ctx, spec, _report(ctx, proc, spec))
    return Op(kind, call, check, 1.0)


def _cli_zeta(ctx, spec, report):
    for item, point in zip(report["results"], spec["points"]):
        got = complex(*item["value"])
        want = checks.zeta_mp(complex(*point))
        require(abs(got - want) <= 1e-10 * max(1.0, abs(want)), f"zeta{point}: {got} vs {want}")


def _cli_pick_check(ctx, spec, report):
    name = spec["argv"][1]
    nodes, targets, kernel = _load_problem(ctx, name)
    w = np.asarray(targets)
    mul = 1.0 - np.outer(w, w.conj())
    if kernel["kind"] == "szego_half_plane":
        matrix = checks.halfplane_szego_pick(nodes, targets)
    else:
        zeta = ctx.cached(("cli_zeta_gram", name), lambda: checks.zeta_gram_mp(nodes))
        matrix = mul * checks.kernel_from_zeta(zeta, kernel)
    cert = report["pick_certificate"]
    _check_verdict("pick-check certificate", cert["psd"], matrix, cert["psd_tol"])


def _cli_counterexample(ctx, spec, report):
    w2 = abs(complex(report["w2"][0], report["w2"][1]))
    z2, z3, z4 = (ctx.cached(("zeta", k), lambda k=k: checks.zeta_mp(complex(k))).real
                  for k in (2, 3, 4))
    for cert in report["certificates"]:
        m = cert["power"]
        kernel_det = z2 ** m * (1 - w2 * w2) * z4 ** m - z3 ** (2 * m)
        szego_det = (1 - w2 * w2) / 8.0 - 1.0 / 9.0
        require(cert["holds"] == (kernel_det > 0 > szego_det),
                f"counterexample m={m}: holds={cert['holds']} disagrees with the determinants")
    require(report["all_hold"], "counterexample certificates do not all hold")


def _cli_search(ctx, spec, report):
    argv = spec["argv"]
    if "zeta_mobius" in argv:
        kernel = ctx.pz.zeta_mobius_kernel()
    else:
        kernel = ctx.pz.zeta_power_kernel(int(argv[argv.index("--search-power") + 1]))
    count = ctx.cached(("cli_search", tuple(argv)),
                       lambda: len(ctx.pz.counterexample_search(kernel)))
    require(report["witness_count"] == count,
            f"cli search found {report['witness_count']} witnesses, in-process {count}")


def _cli_solve(ctx, spec, report):
    nodes, targets, _ = _load_problem(ctx, spec["argv"][1])
    require(report["feasible"], "solve: feasible problem reported infeasible")
    require(report["node_residual_max"] <= RESIDUAL_TOL, "solve: node residual too large")
    _check_solution(report["solution"]["disc_solution"], nodes, targets)
    with open(os.path.join(ctx.workdir, spec["solution"]), "w", encoding="utf-8") as handle:
        json.dump(report["solution"], handle)


def _cli_evaluate(ctx, spec, report):
    pz = ctx.pz
    nodes, targets, _ = _load_problem(ctx, spec["problem"])
    points = _cvec(spec["points"])
    want = ctx.cached(("cli_solve", spec["problem"]), lambda: [
        complex(v) for v in pz.solve_halfplane(
            pz.InterpolationProblem(nodes, targets, pz.szego_half_plane()))(np.array(points))])
    for item, expected in zip(report["evaluations"], want):
        got = complex(*item["value"])
        require(abs(got - expected) <= 1e-12, f"solve --evaluate: {got} vs in-process {expected}")


def _cli_infeasible(ctx, spec, report):
    nodes, targets, _ = _load_problem(ctx, spec["argv"][1])
    require(report["feasible"] is False, "infeasible problem reported feasible")
    _check_witness(nodes, targets, _cvec(report["witness"]))


def _cli_realize(ctx, spec, report):
    require(report["built"], "realize did not build")
    require(report["certificates"]["gram_identity_residual"] <= RECONSTRUCTION_TOL,
            "realize: Gram residual above the build tolerance")
    for row in report["reconstruction"]:
        want = checks.dirichlet_poly(_cvec(spec["coeffs"]), complex(*row["point"]))
        got = complex(*row["reconstructed"])
        require(abs(got - want) <= RECONSTRUCTION_TOL, f"realize reconstruction {got} vs {want}")
    ctx.observed["model_bytes"] = ctx.observed.get("model_bytes", 0) + os.path.getsize(
        os.path.join(ctx.workdir, spec["model"]))
    ctx.state.setdefault("models", {})[spec["model"]] = spec


def _cli_verify(ctx, spec, report):
    pz = ctx.pz
    built = ctx.state["models"][spec["model"]]
    grid = _cvec(spec["grid"])

    def in_process():
        phi = pz.DirichletMultiplier(np.array(_cvec(built["coeffs"])))
        model = pz.build_realization(phi, _cvec(built["points"]), trunc=built["trunc"])
        return pz.verify_realization(model, grid)
    ref = ctx.cached(("cli_verify", spec["model"]), in_process)
    require(report["passed"] and ref.passed, "realize --verify did not pass")
    require(abs(report["sigma_max"] - ref.sigma_max) <= 1e-9,
            f"realize --verify sigma_max {report['sigma_max']} vs in-process {ref.sigma_max}")
    for item, expected in zip(report["reconstructed"], ref.reconstructed):
        require(abs(complex(*item) - expected) <= 1e-10,
                "realize --verify values differ from the in-process model")


def _cli_uncertified(ctx, spec, report):
    require(report["built"] is False, "uncertified multiplier was built")


def _cli_search_dirichlet(ctx, spec, report):
    require(len(report["entries"]) == spec["h_count"], "search-dirichlet lost entries")
    require(report["cond_ii_psd"], "search-dirichlet: cond_ii not PSD for feasible data")


_CLI_CHECKS = {
    "zeta": _cli_zeta,
    "pick-check": _cli_pick_check,
    "counterexample": _cli_counterexample,
    "search": _cli_search,
    "solve": _cli_solve,
    "evaluate": _cli_evaluate,
    "solve-infeasible": _cli_infeasible,
    "realize": _cli_realize,
    "verify": _cli_verify,
    "realize-uncertified": _cli_uncertified,
    "search-dirichlet": _cli_search_dirichlet,
}

_BUILDERS = {
    "pick": _pick_op,
    "series": _series_op,
    "realize": _realize_op,
    "cli": _cli_op,
}
