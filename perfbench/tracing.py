"""Spans around calls into each layer's public functions.

The wrappers live here, in the benchmark, and are installed by patching
every ``pickzeta`` module namespace that binds a traced function (aliases
such as ``cli.zeta_fn`` included), plus the traced methods on their
classes, so nested calls nest as spans.  Spans are kept in memory and
written out when the run ends.  Nothing is patched unless ``install`` is
called, so untraced runs execute the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("dirichlet", "kernels", "pick", "schur", "realization", "serialize", "cli")

# (module, attribute) -> span name.  "Class.method" patches the class.
TRACED = {
    ("dirichlet", "zeta"): "dirichlet.zeta",
    ("dirichlet", "zeta_reciprocal"): "dirichlet.zeta_reciprocal",
    ("dirichlet", "zeta_power_coeffs"): "dirichlet.zeta_power_coeffs",
    ("dirichlet", "dirichlet_convolve"): "dirichlet.dirichlet_convolve",
    ("dirichlet", "mobius_range"): "dirichlet.mobius_range",
    ("dirichlet", "smooth_partial_sum"): "dirichlet.smooth_partial_sum",
    ("dirichlet", "euler_product"): "dirichlet.euler_product",
    ("kernels", "gram_matrix"): "kernels.gram_matrix",
    ("kernels", "feature_map"): "kernels.feature_map",
    ("pick", "certify_psd"): "pick.certify_psd",
    ("pick", "pick_matrix"): "pick.pick_matrix",
    ("pick", "pick_certificate"): "pick.pick_certificate",
    ("pick", "cayley_transfer"): "pick.cayley_transfer",
    ("pick", "counterexample_search"): "pick.counterexample_search",
    ("pick", "two_point_counterexample"): "pick.two_point_counterexample",
    ("pick", "necessary_conditions"): "pick.necessary_conditions",
    ("schur", "solve_disc"): "schur.solve_disc",
    ("schur", "solve_halfplane"): "schur.solve_halfplane",
    ("schur", "parametrization_matrix"): "schur.parametrization_matrix",
    ("schur", "search_dirichlet_solution"): "schur.search_dirichlet_solution",
    ("realization", "defect_gram"): "realization.defect_gram",
    ("realization", "psd_factor"): "realization.psd_factor",
    ("realization", "build_realization"): "realization.build_realization",
    ("realization", "evaluate_realization"): "realization.evaluate_realization",
    ("realization", "verify_realization"): "realization.verify_realization",
    ("realization", "RealizationModel.d_norm"): "realization.d_norm",
    ("realization", "RealizationModel.contraction_sigma"): "realization.contraction_sigma",
    ("realization", "FeatureTransfer.__init__"): "realization.feature_transfer",
    ("serialize", "encode_model"): "serialize.encode_model",
    ("serialize", "decode_model"): "serialize.decode_model",
    ("serialize", "encode_solution"): "serialize.encode_solution",
    ("serialize", "decode_solution"): "serialize.decode_solution",
    ("serialize", "dumps_canonical"): "serialize.dumps_canonical",
    ("serialize", "load_json"): "serialize.load_json",
}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("dirichlet.zeta.calls", "count"),
    ("dirichlet.zeta.self_s", "s"),
    ("dirichlet.zeta.unique_ratio", "ratio"),
    ("dirichlet.zeta_power_coeffs.self_s", "s"),
    ("dirichlet.dirichlet_convolve.self_s", "s"),
    ("dirichlet.mobius_range.calls", "count"),
    ("dirichlet.mobius_range.self_s", "s"),
    ("kernels.gram_matrix.calls", "count"),
    ("kernels.gram_matrix.self_s", "s"),
    ("kernels.feature_map.calls", "count"),
    ("kernels.feature_map.self_s", "s"),
    ("pick.certify_psd.calls", "count"),
    ("pick.certify_psd.self_s", "s"),
    ("pick.counterexample_search.self_s", "s"),
    ("schur.solve_disc.calls", "count"),
    ("schur.solve_disc.self_s", "s"),
    ("schur.certify_per_solve", "ratio"),
    ("realization.build_realization.self_s", "s"),
    ("realization.verify_realization.self_s", "s"),
    ("realization.contraction_sigma.calls", "count"),
    ("realization.evaluate_realization.calls", "count"),
    ("realization.evaluate_realization.self_s", "s"),
    ("realization.d_norm.calls", "count"),
    ("realization.feature_transfer.calls", "count"),
    ("serialize.encode_model.self_s", "s"),
    ("serialize.decode_model.self_s", "s"),
    ("serialize.model_bytes", "bytes"),
    ("cli.import_s", "s"),
    ("cli.handler_s", "s"),
    ("cli.render_s", "s"),
) + tuple(item for layer in LAYERS
          for item in ((f"{layer}.self_s", "s"), (f"{layer}.errors", "count"))) + (
    ("trace_overhead_s", "s"),
)

NAME, PARENT, START, END = range(4)


class Tracer:
    """Collects spans [name, parent index, start, end] in call order while
    ``enabled``; when disabled the wrappers call straight through."""

    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.zeta_args = set()
        self.enabled = True
        self._stack = []

    def call(self, name, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [name, parent, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        if name == "dirichlet.zeta":
            self.zeta_args.add(repr((complex(args[0]), args[1:], sorted(kwargs.items()))))
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            layer = name.split(".", 1)[0]
            if parent is None or self.spans[parent][NAME].split(".", 1)[0] != layer:
                self.errors[layer] += 1
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "errors": dict(self.errors),
                "zeta_args": sorted(self.zeta_args)}


def install(tracer: Tracer, extra=()) -> callable:
    """Patch the traced functions and methods; returns a function that
    restores the originals.  ``extra`` holds (owner, attribute, span name)
    triples for further objects, such as the CLI's handler table."""
    patches = []  # (owner, attribute, original)
    wrappers = {}
    for (module, attr), name in TRACED.items():
        owner = importlib.import_module(f"pickzeta.{module}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        else:
            original = getattr(owner, attr)
            wrappers[id(original)] = (original, tracer.wrap(name, original))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pickzeta" and not mod_name.startswith("pickzeta."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])
    for owner, attr, name in extra:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        patches.append((owner, attr, original))
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)

    def restore():
        for owner, attr, original in reversed(patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
    return restore


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover
    (child intervals clipped to the parent and merged where they overlap)."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def summarize(dumps, extra=None) -> dict:
    """Per-layer metrics from one or more Tracer dumps (one per process).

    ``extra`` supplies metrics measured outside the spans (model bytes,
    CLI import time, trace overhead); anything not measured is 0.
    """
    calls = Counter()
    self_s = Counter()
    layer_self = Counter()
    errors = Counter()
    zeta_args = set()
    certify_in_solve = 0
    for dump in dumps:
        spans = dump["spans"]
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            parent = span[PARENT]
            if (name == "pick.certify_psd" and parent is not None
                    and spans[parent][NAME] == "schur.solve_disc"):
                certify_in_solve += 1
        errors.update(dump["errors"])
        zeta_args.update(dump["zeta_args"])

    def total(name):
        return sum(span[END] - span[START] for dump in dumps
                   for span in dump["spans"] if span[NAME] == name)

    metrics = {}
    for name, unit in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls":
            value = calls[head]
        elif tail == "self_s" and head in LAYERS:
            value = layer_self[head]
        elif tail == "self_s":
            value = self_s[head]
        elif tail == "errors":
            value = errors[head]
        else:
            value = 0
        metrics[name] = value
    zeta_calls = calls["dirichlet.zeta"]
    metrics["dirichlet.zeta.unique_ratio"] = len(zeta_args) / zeta_calls if zeta_calls else 0.0
    solves = calls["schur.solve_disc"]
    metrics["schur.certify_per_solve"] = certify_in_solve / solves if solves else 0.0
    metrics["cli.handler_s"] = total("cli.handler")
    metrics["cli.render_s"] = total("cli.render")
    metrics.update(extra or {})
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER}
