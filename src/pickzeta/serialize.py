"""JSON encoding of problems, certificates, solutions and models.

Schema pickzeta/1: complex numbers are [re, im] pairs of binary64,
matrices are row-major nested lists, field names are snake_case.  Every
certificate carries the tolerances used and the conjugation convention.
Realization model files are schema pickzeta/2: they hold the two factors
v_left, v_right of the partial isometry V = v_left v_right*.
"""

from __future__ import annotations

import json

import numpy as np

from .dirichlet import CoefficientSeries
from .errors import ValidationError
from .kernels import DIAGONAL, KernelSpec, ZETA_POWER
from .pick import CONVENTION, InterpolationProblem, PickCertificate
from .realization import DirichletMultiplier, RealizationModel, mobius_weights
from .schur import HalfPlaneSchurFunction, RationalSchurFunction

SCHEMA = "pickzeta/1"
MODEL_SCHEMA = "pickzeta/2"


def encode_complex(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(value) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValidationError(f"complex values are [re, im] pairs; got {value!r}")
    return complex(float(value[0]), float(value[1]))


def encode_vector(vec) -> list:
    return [encode_complex(z) for z in np.asarray(vec).ravel()]


def decode_vector(values) -> np.ndarray:
    return np.array([decode_complex(v) for v in values], dtype=complex)


def encode_matrix(mat) -> list:
    mat = np.asarray(mat)
    return [[encode_complex(z) for z in row] for row in mat]


def decode_matrix(rows) -> np.ndarray:
    return np.array([[decode_complex(v) for v in row] for row in rows], dtype=complex)


def encode_kernel(spec: KernelSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.kind == ZETA_POWER:
        out["power"] = spec.power
    if spec.kind == DIAGONAL:
        out["coeffs"] = encode_vector(spec.coeffs.coeffs)
    return out


def decode_kernel(data) -> KernelSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("kernel must be an object with a 'kind' field")
    kind = data["kind"]
    power = _count(data, "power", 1, "kernel") if "power" in data else 1
    coeffs = None
    if "coeffs" in data:
        coeffs = CoefficientSeries(decode_vector(data["coeffs"]))
    return KernelSpec(kind, power=power, coeffs=coeffs)


def encode_problem(problem: InterpolationProblem) -> dict:
    return {
        "schema": SCHEMA,
        "nodes": encode_vector(problem.nodes),
        "targets": encode_vector(problem.targets),
        "kernel": encode_kernel(problem.kernel),
        "psd_tol": problem.psd_tol,
        "rank_tol": problem.rank_tol,
    }


def decode_problem(data) -> InterpolationProblem:
    if not isinstance(data, dict):
        raise ValidationError("problem file must hold a JSON object")
    missing = {"nodes", "targets", "kernel"} - set(data)
    if missing:
        raise ValidationError(f"problem is missing fields: {sorted(missing)}")
    return InterpolationProblem(
        nodes=tuple(decode_vector(data["nodes"])),
        targets=tuple(decode_vector(data["targets"])),
        kernel=decode_kernel(data["kernel"]),
        psd_tol=float(data.get("psd_tol", 1e-10)),
        rank_tol=float(data.get("rank_tol", 1e-8)),
    )


def encode_certificate(cert: PickCertificate) -> dict:
    return {
        "schema": SCHEMA,
        "matrix": encode_matrix(cert.matrix),
        "min_eigenvalue": cert.min_eigenvalue,
        "max_eigenvalue": cert.max_eigenvalue,
        "spectral_norm": cert.spectral_norm,
        "numerical_rank": cert.numerical_rank,
        "psd": cert.psd,
        "margin": cert.margin,
        "inconclusive": cert.inconclusive,
        "psd_tol": cert.psd_tol,
        "rank_tol": cert.rank_tol,
        "witness": encode_vector(cert.witness),
        "convention": CONVENTION,
    }


def encode_solution(solution) -> dict:
    if isinstance(solution, HalfPlaneSchurFunction):
        return {
            "schema": SCHEMA,
            "domain": "half_plane",
            "disc_solution": encode_solution(solution.disc_function),
        }
    if not isinstance(solution, RationalSchurFunction):
        raise ValidationError(f"cannot serialize {type(solution).__name__}")
    if solution.representation == "blaschke":
        return {
            "schema": SCHEMA,
            "domain": "disc",
            "representation": "blaschke",
            "zeros": encode_vector(solution.zeros),
            "unimodular": encode_complex(solution.unimodular),
        }
    return {
        "schema": SCHEMA,
        "domain": "disc",
        "representation": "schur_steps",
        "steps": [
            {"node": encode_complex(n), "parameter": encode_complex(g)}
            for n, g in solution.steps
        ],
        "terminal": encode_complex(solution.terminal),
    }


def decode_solution(data):
    if not isinstance(data, dict):
        raise ValidationError("solution file must hold a JSON object")
    if data.get("domain") == "half_plane":
        return HalfPlaneSchurFunction(decode_solution(data["disc_solution"]))
    rep = data.get("representation")
    if rep == "blaschke":
        return RationalSchurFunction.from_blaschke(
            decode_vector(data["zeros"]), decode_complex(data["unimodular"]))
    if rep == "schur_steps":
        steps = [(decode_complex(s["node"]), decode_complex(s["parameter"]))
                 for s in data["steps"]]
        return RationalSchurFunction(steps=steps, terminal=decode_complex(data["terminal"]))
    raise ValidationError(f"unknown solution representation {rep!r}")


def encode_multiplier(phi: DirichletMultiplier) -> dict:
    return {
        "schema": SCHEMA,
        "coeffs": encode_vector(phi.coeffs),
        "label": phi.label,
        "declared_norm": phi.declared_norm,
    }


def decode_multiplier(data) -> DirichletMultiplier:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ValidationError("multiplier must be an object with a 'coeffs' field")
    return DirichletMultiplier(decode_vector(data["coeffs"]),
                               label=str(data.get("label", "")))


def encode_model(model: RealizationModel) -> dict:
    return {
        "schema": MODEL_SCHEMA,
        "points": encode_vector(model.points),
        "trunc": model.trunc,
        "rank": model.rank,
        "alpha": encode_complex(model.alpha),
        "psi": encode_matrix(model.psi) if model.psi.size else [],
        "v_left": encode_matrix(model.v_left),
        "v_right": encode_matrix(model.v_right),
        "certificates": {k: float(v) for k, v in model.certificates.items()},
        "multiplier": encode_multiplier(model.multiplier) if model.multiplier else None,
    }


def _count(data, name: str, least: int, owner: str) -> int:
    """data[name] as a JSON integer >= least (not a bool, float or string)."""
    value = data.get(name)
    if type(value) is not int or value < least:
        raise ValidationError(f"{owner} field {name!r} must be an integer >= {least}; got {value!r}")
    return value


def decode_model(data) -> RealizationModel:
    if not isinstance(data, dict):
        raise ValidationError("model file must hold a JSON object")
    if data.get("schema") != MODEL_SCHEMA:
        raise ValidationError(
            f"model field 'schema' is {data.get('schema')!r}; expected {MODEL_SCHEMA!r}")
    trunc = _count(data, "trunc", 1, "model")
    rank = _count(data, "rank", 0, "model")
    alpha = decode_complex(data["alpha"])
    if not (np.isfinite(alpha) and abs(alpha) > 1.0):
        raise ValidationError(f"model field 'alpha' must be finite with |alpha| > 1; got {alpha}")
    arrays = {
        "points": decode_vector(data["points"]),
        "psi": decode_matrix(data["psi"]) if data.get("psi") else np.zeros((0, 0), complex),
        "v_left": decode_matrix(data["v_left"]),
        "v_right": decode_matrix(data["v_right"]),
    }
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ValidationError(f"model field {name!r} has non-finite entries")
    points = tuple(arrays["points"])
    # The rank-0 model is V = [[a]] [[1]]*.
    shape = (1 + trunc * rank, len(points) if rank else 1)
    expected = {"v_left": shape, "v_right": shape}
    if rank > 0:
        expected["psi"] = (len(points), rank)
    for name, want in expected.items():
        if arrays[name].shape != want:
            raise ValidationError(
                f"model field {name!r} has shape {arrays[name].shape}, expected {want} "
                f"for {len(points)} points, trunc {trunc}, rank {rank}")
    mult = decode_multiplier(data["multiplier"]) if data.get("multiplier") else None
    return RealizationModel(
        points=points,
        trunc=trunc,
        rank=rank,
        alpha=alpha,
        psi=arrays["psi"],
        v_left=arrays["v_left"],
        v_right=arrays["v_right"],
        mu_sqrt=mobius_weights(trunc),
        certificates=dict(data.get("certificates", {})),
        multiplier=mult,
    )


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
