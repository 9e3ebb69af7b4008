"""One benchmark process: set up, run timed passes, check outputs, report.

Started by run.py, which passes the CLOCK_MONOTONIC reading taken just
before starting this interpreter, so set-up time runs from a fresh
interpreter to the first timed operation.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ops  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Record:
    kind: str
    seconds: float
    status: str      # "ok", "error" (unexpected exception) or "check"
    detail: str = ""


def warm_up(workload, op_list):
    """Run the smallest operation of each kind once, results discarded.
    Each cli operation is a fresh interpreter, so nothing warmed in this
    process carries over to it except the OS file cache, which one
    subprocess fills."""
    chosen = {}
    for index, op in enumerate(op_list):
        if workload == "cli" and op.kind != "zeta":
            continue
        best = chosen.get(op.kind)
        if best is None or (op.size, index) < best[0]:
            chosen[op.kind] = ((op.size, index), op)
    for _, op in chosen.values():
        try:
            op.call()
        except Exception:  # noqa: BLE001 - a failing warm-up shows again when timed
            pass


def run_pass(op_list, tracer=None) -> list:
    records = []
    for op in op_list:
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
            records.append(Record(op.kind, time.perf_counter() - start, "error",
                                  f"{type(exc).__name__}: {exc}"))
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        elapsed = time.perf_counter() - start
        try:
            op.check(result)
        except CheckFailed as exc:
            records.append(Record(op.kind, elapsed, "check", str(exc)))
            continue
        records.append(Record(op.kind, elapsed, "ok"))
    return records


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.join(ROOT, "src", "pickzeta")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                lines += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {name: os.environ.get(name, "unset") for name in THREAD_VARS},
        "git_commit": git_commit(),
        "src_lines": lines,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unavailable' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def summarize_records(records) -> dict:
    failures = Counter()
    examples = {}
    for r in records:
        if r.status != "ok":
            key = f"{r.status}:{r.kind}:{r.detail.split(':', 1)[0]}"
            failures[key] += 1
            examples.setdefault(key, r.detail[:300])
    return {"attempted": len(records),
            "failed": sum(failures.values()),
            "check_failures": sum(1 for r in records if r.status == "check"),
            "failures": dict(failures), "failure_examples": examples}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="operation time to measure, rounded to whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--first-pass", type=int, default=0,
                        help="index of this process's first pass of inputs")
    parser.add_argument("--pass-stride", type=int, default=1,
                        help="distance between the pass indices this process runs")
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes instead of --seconds")
    args = parser.parse_args(argv)

    import pickzeta

    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ctx = ops.Context(pickzeta, workdir=workdir)
        specs, first = pass_ops(args, ctx, args.first_pass)
        warm_up(args.workload, first)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = {"setup_s": setup_s, "digest": workloads.spec_digest(specs)}
        if args.trace:
            result.update(traced_run(args, ctx, first))
        else:
            # Let go of ``first``, so each pass's models are freed after it.
            records, passes, measured, op_list, first = [], [], 0.0, first, None
            while True:
                batch = run_pass(op_list)
                records += batch
                passes.append({"ok": sum(r.status == "ok" for r in batch),
                               "latencies": [r.seconds for r in batch]})
                measured += sum(r.seconds for r in batch)
                # Stop at the pass count that lands nearest to --seconds.
                done = measured + 0.5 * measured / len(passes) >= args.seconds
                if (len(passes) >= args.passes) if args.passes else done:
                    break
                index = args.first_pass + len(passes) * args.pass_stride
                op_list = pass_ops(args, ctx, index)[1]
            result.update(summarize_records(records), passes=passes, measured_s=measured,
                          peak_rss_mb=peak_rss_mb(args.workload), observed=ctx.observed)
        result["env"] = environment()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def pass_ops(args, ctx, index):
    """Specs and ops of pass ``index``; cli input files are written here,
    outside any timed region."""
    ctx.state.pop("tasks", None)  # frees the models of earlier passes
    specs = workloads.make_specs(args.workload, args.seed, index)
    op_list = ops.build_ops(args.workload, specs, ctx, label=f"p{index}-")
    if args.workload == "cli":
        ops.write_cli_inputs(specs, ctx)
    return specs, op_list


def traced_run(args, ctx, first) -> dict:
    """An untraced pass over fresh inputs, then the first pass traced.
    Per-layer metrics come from the traced pass, so its counts repeat
    exactly for a seed; the difference of the two passes' operation time is
    the overhead."""
    plain = run_pass(pass_ops(args, ctx, args.first_pass + args.pass_stride)[1])
    ctx.observed.clear()
    dumps = []
    if args.workload == "cli":
        ctx.trace_dir = os.path.join(ctx.workdir, "spans")
        os.makedirs(ctx.trace_dir)
        traced = run_pass(first)
        for name in sorted(os.listdir(ctx.trace_dir)):
            with open(os.path.join(ctx.trace_dir, name), encoding="utf-8") as handle:
                dumps.append(json.load(handle))
    else:
        tracer = tracing.Tracer()
        tracer.enabled = False
        restore = tracing.install(tracer)
        try:
            traced = run_pass(first, tracer)
        finally:
            restore()
        dumps.append(tracer.dump())
    extra = {
        "trace_overhead_s": sum(r.seconds for r in traced) - sum(r.seconds for r in plain),
        "serialize.model_bytes": ctx.observed.get("model_bytes", 0),
        "cli.import_s": sum(d.get("import_s", 0.0) for d in dumps),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(dumps, handle)
    return {"metrics": tracing.summarize(dumps, extra), **summarize_records(plain + traced)}


if __name__ == "__main__":
    sys.exit(main())
