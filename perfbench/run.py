"""pickzeta benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {pick,series,realize,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  With --trace 0 it prints every
end-to-end metric with its unit; with --trace 1 the per-layer metrics of
one traced pass.  Either way every output is checked against an oracle,
and the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every check passed.

An untraced run starts fresh interpreters one after another, at least
SETUPS of them.  Each sets up (import, input generation, warm-up); set-up
time is their median.  MEASURING[workload] of them then measure, each
over its own passes of fresh inputs, so one slow process cannot carry the
whole result; the rest exit after set-up.  The first measuring process runs
the number of whole passes nearest to its share of --seconds, and the
others run as many passes as it did.  Thread variables such as
OPENBLAS_NUM_THREADS are recorded as found and never set.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("pick", "series", "realize", "cli")
SETUPS = 3  # fewest set-ups a run measures
# Measuring processes per workload, chosen so that one pass fits in each
# process's share of a run (about 4 s for pick and series, 6 s for
# realize and 25 s for cli at the seed).
MEASURING = {"pick": 5, "series": 5, "realize": 3, "cli": 2}
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def start_worker(args, deadline, extra=()) -> dict:
    """Run worker.py in its own session; on timeout kill the whole group,
    so no process started here outlives the run."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), *extra,
           "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def combine(workers, setups) -> dict:
    """End-to-end metrics of a run: each timing metric is computed per pass
    (every pass has the workload's fixed operation count) and the median
    over all passes of all measuring processes is reported."""
    passes = [p for w in workers for p in w["passes"]]
    per_pass = len(passes[0]["latencies"])
    rates, p50s, tails = [], [], []
    for p in passes:
        rates.append(p["ok"] / sum(p["latencies"]))
        p50s.append(statistics.median(p["latencies"]))
        tails.append(stats.tail(p["latencies"], per_pass)[0])
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": 1e3 * statistics.median(p50s),
            "op_tail_ms": 1e3 * statistics.median(tails),
            "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        },
        "tail": {"percentile": stats.tail_percentile(per_pass),
                 "samples_beyond": stats.TAIL_BEYOND, "samples": per_pass},
        "per_pass": {"ops_per_s": rates, "op_p50_ms": [1e3 * v for v in p50s],
                     "op_tail_ms": [1e3 * v for v in tails]},
    }


def merge_counts(workers) -> dict:
    failures, examples = {}, {}
    for w in workers:
        for key, count in w["failures"].items():
            failures[key] = failures.get(key, 0) + count
        for key, text in w["failure_examples"].items():
            examples.setdefault(key, text)
    return {"attempted": sum(w["attempted"] for w in workers),
            "failed": sum(w["failed"] for w in workers),
            "check_failures": sum(w["check_failures"] for w in workers),
            "failures": failures, "failure_examples": examples}


def print_report(args, result):
    print(f"pickzeta benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(result["env"], sort_keys=True))
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed "
          f"({result['check_failures']} failed a check); pass-0 spec digest "
          f"{result['digest'][:16]}")
    for key, count in sorted(result["failures"].items()):
        print(f"  {count:5d} x {key}   e.g. {result['failure_examples'][key]}")
    if args.trace:
        for name, item in result["metrics"].items():
            print(f"  {name:42s} {item['value']:>16.6g} {item['unit']}")
        return
    print(f"  setup_s      median of {len(result['setups'])} fresh interpreters: "
          + ", ".join(f"{s:.3f}" for s in result["setups"]))
    for name, value in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            tail = result["tail"]
            note = (f"  (p{tail['percentile']:.2f}: {tail['samples_beyond']} of "
                    f"{tail['samples']} samples beyond, in each pass)")
        print(f"  {name:12s} {value:14.6g} {UNITS[name]}{note}")
    print(f"  {'error_rate':12s} {result['failed'] / result['attempted']:14.6g} "
          f"ratio  (failed / attempted)")
    print(f"  timings are medians over {len(result['per_pass']['ops_per_s'])} passes; per pass: "
          + json.dumps({k: [round(v, 4) for v in vals]
                        for k, vals in result["per_pass"].items()}))
    print("  observed: " + json.dumps([w["observed"] for w in result["workers"]]))


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        result = start_worker(args, deadline)
        return {**result, "setups": [result["setup_s"]]}
    measuring = MEASURING[args.workload]
    setups, workers = [], []
    for _ in range(SETUPS - measuring):
        setups.append(start_worker(args, deadline, ["--setup-only"])["setup_s"])
    for k in range(measuring):
        share = (["--passes", str(len(workers[0]["passes"]))] if workers
                 else ["--seconds", repr(args.seconds / measuring)])
        workers.append(start_worker(args, deadline, [
            *share, "--first-pass", str(k), "--pass-stride", str(measuring)]))
        setups.append(workers[-1]["setup_s"])
    return {**combine(workers, setups), **merge_counts(workers), "setups": setups,
            "workers": workers, "env": workers[0]["env"], "digest": workers[0]["digest"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pickzeta", "__init__.py")):
        print(f"no pickzeta sources under {os.path.join(ROOT, 'src')}; run from a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print_report(args, result)
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), **result}, handle)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    correct = result["check_failures"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
