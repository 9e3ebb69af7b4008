"""Command-line interface.

Subcommands: zeta, pick-check, counterexample, solve, realize,
search-dirichlet.  Reports are deterministic given the input and config:
JSON output is canonical (sorted keys, no timestamps), so two identical
runs produce byte-identical bytes.  Exit codes: 0 success, 1 mathematical
infeasibility or a failed certificate, 2 input error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from . import serialize
from .config import FORMATS, RunConfig, load_config
from .dirichlet import zeta as zeta_fn
from .errors import (
    HypothesisError,
    IllConditionedError,
    PickZetaError,
    TruncationError,
    ValidationError,
)
from .kernels import SZEGO_HALF_PLANE, KernelSpec, ZETA_MOBIUS, zeta_power_kernel
from .pick import (
    cayley_transfer,
    counterexample_search,
    necessary_conditions,
    pick_certificate,
    two_point_counterexample,
)
from .realization import build_realization, evaluate_realization, verify_realization
from .schur import Infeasible, search_dirichlet_solution, solve_halfplane
from .serialize import SCHEMA, dumps_canonical, load_json

EXIT_OK = 0
EXIT_CERT = 1
EXIT_INPUT = 2


def parse_complex(text: str) -> complex:
    """Parse '2', '1.5+2i', '-0.7i', '1+1j' into a finite complex number."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise ValidationError(f"complex number {text!r} is not finite")
    return value


def parse_complex_list(text: str) -> list:
    return [parse_complex(part) for part in text.split(",") if part.strip()]


def parse_m_range(text: str) -> list:
    """'3' or '1..8' into a list of powers."""
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
            if lo < 1 or hi < lo:
                raise ValidationError(f"bad power range {text!r}")
            return list(range(lo, hi + 1))
        value = int(text)
    except ValueError as exc:
        raise ValidationError(f"cannot parse power range {text!r}") from exc
    if value < 1:
        raise ValidationError("power must be positive")
    return [value]


# ---------------------------------------------------------------- commands


def cmd_zeta(args, config: RunConfig):
    results = []
    rows = []
    for text in args.s:
        s = parse_complex(text)
        value = zeta_fn(s, config.zeta_abs_err)
        results.append({
            "s": serialize.encode_complex(s),
            "value": serialize.encode_complex(value),
            "target_abs_err": config.zeta_abs_err,
        })
        rows.append({
            "s_re": s.real, "s_im": s.imag,
            "value_re": value.real, "value_im": value.imag,
            "target_abs_err": config.zeta_abs_err,
        })
    return EXIT_OK, {"results": results}, rows


def _load_problem(path: str, config: RunConfig):
    """A problem file with the run's tolerances; the file carries none."""
    problem = serialize.decode_problem(load_json(path))
    return replace(problem, psd_tol=config.psd_tol, rank_tol=config.rank_tol)


def _certificate_row(name: str, cert) -> dict:
    return {"certificate": name, "psd": cert.psd, "min_eigenvalue": cert.min_eigenvalue,
            "margin": cert.margin, "numerical_rank": cert.numerical_rank}


def cmd_pick_check(args, config: RunConfig):
    problem = _load_problem(args.problem, config)
    report = {"problem": serialize.encode_problem(problem)}
    rows = []
    warnings = []

    cert = pick_certificate(problem)
    report["pick_certificate"] = serialize.encode_certificate(cert)
    rows.append(_certificate_row("pick", cert))
    if cert.inconclusive:
        warnings.append("pick certificate is within 10x tolerance: inconclusive")

    in_upper = all(complex(z).real > 0.5 for z in problem.nodes)
    in_disc = all(abs(complex(w)) < 1.0 for w in problem.targets)
    if in_upper and in_disc:
        conds = necessary_conditions(problem)
        report["conditions"] = {
            "cond_i": serialize.encode_certificate(conds.cond_i),
            "cond_ii": serialize.encode_certificate(conds.cond_ii),
            "rank_full": conds.rank_full,
        }
        for name, c in (("cond_i", conds.cond_i), ("cond_ii", conds.cond_ii)):
            rows.append(_certificate_row(name, c))
            if c.inconclusive:
                warnings.append(f"{name} is within 10x tolerance: inconclusive")
    else:
        report["conditions"] = None
        warnings.append("necessary conditions skipped: nodes must satisfy "
                        "Re > 1/2 and targets |w| < 1")

    if problem.kernel.kind == SZEGO_HALF_PLANE:
        transfer = cayley_transfer(problem)
        report["cayley_transfer"] = {
            "half_plane": serialize.encode_certificate(transfer.cert_half_plane),
            "disc": serialize.encode_certificate(transfer.cert_disc),
            "factorization_residual": transfer.factorization_residual,
            "psd_match": transfer.psd_match,
            "rank_match": transfer.rank_match,
            "borderline": transfer.borderline,
        }
    report["warnings"] = warnings
    return EXIT_OK, report, rows


def cmd_counterexample(args, config: RunConfig):
    if args.search:
        kernel = _parse_kernel_flag(args.kernel, args.search_power)
        witnesses = counterexample_search(kernel, psd_tol=config.psd_tol,
                                          rank_tol=config.rank_tol)
        rows = [{
            "node1_re": w.node1.real, "node1_im": w.node1.imag,
            "node2_re": w.node2.real, "node2_im": w.node2.imag,
            "target2_re": w.target2.real, "target2_im": w.target2.imag,
            "kernel_margin": w.kernel_margin, "szego_margin": w.szego_margin,
        } for w in witnesses]
        report = {
            "kernel": serialize.encode_kernel(kernel),
            "witness_count": len(witnesses),
            "witnesses": rows,
        }
        return EXIT_OK, report, rows

    powers = parse_m_range(args.m)
    w2 = parse_complex(args.w2)
    certificates = []
    rows = []
    warnings = []
    all_hold = True
    for m in powers:
        cert = two_point_counterexample(m, w2, config.psd_tol, config.rank_tol)
        all_hold = all_hold and cert.holds
        if cert.inconclusive:
            warnings.append(f"m={m}: verdict within 10x tolerance, inconclusive")
        certificates.append({
            "power": m,
            "holds": cert.holds,
            "window": list(cert.window),
            "kernel_det": cert.kernel_det,
            "szego_det": cert.szego_det,
            "det_lower_bound": cert.det_lower_bound,
            "kernel_certificate": serialize.encode_certificate(cert.kernel_cert),
            "szego_certificate": serialize.encode_certificate(cert.szego_cert),
        })
        rows.append({"power": m, "holds": cert.holds,
                     "kernel_det": cert.kernel_det, "szego_det": cert.szego_det})
    report = {
        "w2": serialize.encode_complex(w2),
        "certificates": certificates,
        "all_hold": all_hold,
        "warnings": warnings,
    }
    return (EXIT_OK if all_hold else EXIT_CERT), report, rows


def _parse_kernel_flag(kind: str, power: int) -> KernelSpec:
    if kind == "zeta_power":
        return zeta_power_kernel(power)
    if kind == "zeta_mobius":
        return KernelSpec(ZETA_MOBIUS)
    raise ValidationError(f"unsupported search kernel {kind!r}")


def cmd_solve(args, config: RunConfig):
    if args.evaluate:
        data = load_json(args.evaluate)
        if isinstance(data, dict) and "feasible" in data:
            # A whole `solve --out` report: evaluate the solution it holds.
            if data["feasible"] is not True:
                raise ValidationError(
                    f"{args.evaluate}: a report of an infeasible problem holds no solution")
            data = data.get("solution")
        solution = serialize.decode_solution(data)
        points = parse_complex_list(args.at)
        values = [solution(p) for p in points]
        rows = [{"point_re": p.real, "point_im": p.imag,
                 "value_re": complex(v).real, "value_im": complex(v).imag}
                for p, v in zip(points, values)]
        report = {"evaluations": [
            {"point": serialize.encode_complex(p), "value": serialize.encode_complex(v)}
            for p, v in zip(points, values)]}
        return EXIT_OK, report, rows

    problem = _load_problem(args.problem, config)
    result = solve_halfplane(problem)
    if isinstance(result, Infeasible):
        report = {
            "problem": serialize.encode_problem(problem),
            "feasible": False,
            "witness": serialize.encode_vector(result.certificate.witness),
            "min_eigenvalue": result.certificate.min_eigenvalue,
            "message": result.message,
        }
        return EXIT_CERT, report, [{"feasible": False,
                                    "min_eigenvalue": result.certificate.min_eigenvalue}]
    nodes = np.array(problem.nodes, dtype=complex)
    residuals = np.abs(result(nodes) - np.array(problem.targets, dtype=complex))
    boundary = result.disc_function.boundary_certificate()
    report = {
        "problem": serialize.encode_problem(problem),
        "feasible": True,
        "solution": serialize.encode_solution(result),
        "node_residual_max": float(residuals.max()),
        "degree": result.degree,
        "boundary_sup": boundary.sup_sampled,
        "boundary_certified_sup": boundary.certified_sup,
    }
    rows = [{"feasible": True, "node_residual_max": float(residuals.max()),
             "degree": result.degree, "boundary_sup": boundary.sup_sampled}]
    return EXIT_OK, report, rows


def cmd_realize(args, config: RunConfig):
    if args.verify:
        model = serialize.decode_model(load_json(args.verify))
        grid = parse_complex_list(args.grid) if args.grid not in (None, "default") else None
        outcome = verify_realization(model, grid)
        report = {
            "passed": outcome.passed,
            "sigma_max": outcome.sigma_max,
            "contraction_ok": outcome.contraction_ok,
            "d_contraction_residual": outcome.d_contraction_residual,
            "d_contraction_ok": outcome.d_contraction_ok,
            "psd_ok": outcome.psd_ok,
            "evaluation_error": outcome.evaluation_error,
            "grid": serialize.encode_vector(outcome.grid),
            "reconstructed": serialize.encode_vector(outcome.reconstructed),
        }
        if outcome.gram_certificate is not None:
            report["gram_certificate"] = serialize.encode_certificate(outcome.gram_certificate)
        rows = [{"passed": outcome.passed, "sigma_max": outcome.sigma_max,
                 "d_contraction_residual": outcome.d_contraction_residual}]
        return (EXIT_OK if outcome.passed else EXIT_CERT), report, rows

    phi = serialize.decode_multiplier(load_json(args.phi))
    if not phi.certified:
        report = {
            "built": False,
            "declared_norm": phi.declared_norm,
            "message": "coefficient sum exceeds 1: no contractivity certificate",
        }
        return EXIT_CERT, report, [{"built": False, "declared_norm": phi.declared_norm}]
    points = parse_complex_list(args.points)
    model = build_realization(phi, points, trunc=config.trunc, tol=args.build_tol)
    table = []
    for p in points:
        value = evaluate_realization(model, p)
        expected = complex(phi(p))
        table.append({
            "point": serialize.encode_complex(p),
            "reconstructed": serialize.encode_complex(value),
            "multiplier": serialize.encode_complex(expected),
            "abs_error": abs(value - expected),
        })
    report = {
        "built": True,
        "trunc": model.trunc,
        "rank": model.rank,
        "certificates": {k: float(v) for k, v in model.certificates.items()},
        "reconstruction": table,
    }
    rows = [{"point_re": serialize.decode_complex(t["point"]).real,
             "point_im": serialize.decode_complex(t["point"]).imag,
             "abs_error": t["abs_error"]} for t in table]
    if args.model_out:
        _atomic_write(args.model_out, dumps_canonical(serialize.encode_model(model)))
        report["model_path"] = args.model_out
    return EXIT_OK, report, rows


def cmd_search_dirichlet(args, config: RunConfig):
    problem = _load_problem(args.problem, config)
    family = [(text, parse_complex(text)) for text in args.h.split(",") if text.strip()]
    report_obj = search_dirichlet_solution(problem, family, trunc=args.fit_trunc,
                                           sigma0=args.sigma0)
    entries = [{
        "label": e.label,
        "residual_rms": e.residual_rms,
        "residual_max": e.residual_max,
        "node_defect": e.node_defect,
        "coeffs": serialize.encode_vector(e.coeffs),
    } for e in report_obj.entries]
    report = {
        "problem": serialize.encode_problem(problem),
        "sigma0": report_obj.sigma0,
        "fit_trunc": report_obj.trunc,
        "cond_i_psd": report_obj.cond_i_psd,
        "cond_ii_psd": report_obj.cond_ii_psd,
        "entries": entries,
        "note": "exploratory residuals only; no membership claim",
    }
    rows = [{"label": e["label"], "residual_rms": e["residual_rms"],
             "node_defect": e["node_defect"]} for e in entries]
    return EXIT_OK, report, rows


# ---------------------------------------------------------------- output


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile("w", dir=directory, delete=False,
                                         encoding="utf-8")
    try:
        handle.write(text)
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        os.unlink(handle.name)
        raise


def _human_value(value, depth=0):
    pad = "  " * depth
    if isinstance(value, dict):
        lines = []
        for key in value:
            lines.append(f"{pad}{key}:")
            lines.append(_human_value(value[key], depth + 1))
        return "\n".join(lines)
    if isinstance(value, list):
        if value and isinstance(value[0], list) and value[0] and isinstance(value[0][0], list):
            mat = np.array([[complex(c[0], c[1]) for c in row] for row in value])
            text = np.array2string(mat, precision=6, suppress_small=True)
            return "\n".join(pad + line for line in text.splitlines())
        if len(value) == 2 and all(isinstance(v, float) for v in value):
            return f"{pad}{complex(value[0], value[1]):.6g}"
        return "\n".join(_human_value(v, depth) for v in value) if value else f"{pad}[]"
    if isinstance(value, float):
        return f"{pad}{value:.6g}"
    return f"{pad}{value}"


def render(report: dict, rows: list, fmt: str) -> str:
    if fmt == "json":
        return dumps_canonical(report)
    if fmt == "csv":
        if not rows:
            return ""
        fields = sorted({key for row in rows for key in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    return _human_value(report) + "\n"


def build_report(command: str, argv: list, config: RunConfig, body: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "argv": list(argv),
        "config": config.to_dict(),
        **body,
    }


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a flag parsed before the subcommand from being reset
    # by the subparser's default.
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a JSON config file (default: $PICKZETA_CONFIG)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the report to this path (atomic)")
    common.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS,
                        help="output format")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="override the PSD tolerance")
    common.add_argument("--trunc", type=int, default=argparse.SUPPRESS,
                        help="override the feature truncation")

    parser = argparse.ArgumentParser(
        prog="pickzeta",
        description="Pick interpolation certificates and realizations for "
                    "Dirichlet-series kernels",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeta", parents=[common],
                       help="evaluate the zeta function on Re(s) > 1")
    p.add_argument("--s", action="append", required=True,
                   help="evaluation point (repeatable), e.g. --s 2 --s 1.5+2i")

    p = sub.add_parser("pick-check", parents=[common],
                       help="certify Pick matrices of a problem file")
    p.add_argument("problem", help="JSON problem file")

    p = sub.add_parser("counterexample", parents=[common],
                       help="two-point failure certificates for zeta-power kernels")
    p.add_argument("--m", default="1", help="power or range, e.g. 3 or 1..8")
    p.add_argument("--w2", default="0.4", help="second target")
    p.add_argument("--search", action="store_true",
                   help="run the grid search instead of the fixed certificate")
    p.add_argument("--kernel", default="zeta_power",
                   choices=("zeta_power", "zeta_mobius"), help="search kernel")
    p.add_argument("--search-power", type=int, default=1,
                   help="power for the zeta_power search kernel")

    p = sub.add_parser("solve", parents=[common],
                       help="solve a half-plane interpolation problem")
    p.add_argument("problem", nargs="?", help="JSON problem file")
    p.add_argument("--evaluate", help="serialized solution to evaluate instead")
    p.add_argument("--at", default="", help="comma-separated evaluation points")

    p = sub.add_parser("realize", parents=[common],
                       help="build or verify a realization model")
    p.add_argument("--phi", help="JSON multiplier file (Dirichlet coefficients)")
    p.add_argument("--points", default="", help="comma-separated sample points")
    p.add_argument("--model-out", help="write the model JSON here")
    p.add_argument("--build-tol", type=float, default=1e-4,
                   help="Gram-identity tolerance for model construction")
    p.add_argument("--verify", help="model file to verify instead of building")
    p.add_argument("--grid", default="default",
                   help="verification grid: 'default' or comma-separated points")

    p = sub.add_parser("search-dirichlet", parents=[common],
                       help="rank parametrized solutions by Dirichlet-polynomial fit")
    p.add_argument("problem", help="JSON problem file")
    p.add_argument("--h", default="0", help="comma-separated Schur parameters")
    p.add_argument("--fit-trunc", type=int, default=8,
                   help="length of the fitted Dirichlet polynomial")
    p.add_argument("--sigma0", type=float, default=1.0,
                   help="real part of the sampling line")
    return parser


_HANDLERS = {
    "zeta": cmd_zeta,
    "pick-check": cmd_pick_check,
    "counterexample": cmd_counterexample,
    "solve": cmd_solve,
    "realize": cmd_realize,
    "search-dirichlet": cmd_search_dirichlet,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0

    def flag(name, default=None):
        return getattr(args, name, default)

    try:
        config = load_config(flag("config")).override(
            psd_tol=flag("tol"), trunc=flag("trunc"), format=flag("format"))
        if args.command == "solve" and not args.problem and not args.evaluate:
            raise ValidationError("solve needs a problem file or --evaluate")
        if args.command == "solve" and args.evaluate and not args.at:
            raise ValidationError("--evaluate needs --at points")
        if args.command == "realize" and not args.verify:
            if not args.phi or not args.points:
                raise ValidationError("realize needs --phi and --points, or --verify")
        code, body, rows = _HANDLERS[args.command](args, config)
        report = build_report(args.command, argv, config, body)
        text = render(report, rows, config.format)
    except (PickZetaError, FileNotFoundError, IsADirectoryError, KeyError,
            TypeError, ValueError) as exc:
        sys.stdout.write(dumps_canonical({"schema": SCHEMA, "error": str(exc),
                                          "kind": type(exc).__name__}))
        if isinstance(exc, (HypothesisError, TruncationError, IllConditionedError)):
            return EXIT_CERT
        return EXIT_INPUT

    out_path = flag("out")
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
