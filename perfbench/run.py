"""Benchmark for iidiag: one workload per run, one client, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload reduce|sweep|verify|all --seed N \
        --seconds S --trace 0|1

The run builds its inputs from ``--seed``, sets up (imports, corpus, files,
warm-up) several times and reports the median set-up time, then runs ops
back to back for at least ``--seconds`` seconds and at least MIN_OPS ops,
stopping at a block boundary. Every op's output is checked. The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.

The traced run executes every op twice, once plain and once with spans
around the calls into each layer (alternating which goes first), then
replays the op's solves step by step for the per-transform numbers. Its
per-layer values are totals over the whole traced process, set-up included,
divided by the number of timed ops.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 200
SETUP_REPEATS = 3
TRANSFORM_KINDS = ("fold", "decision", "marginalize", "reverse", "barren")
WORKLOADS = ("reduce", "sweep", "verify")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_workloads():
    """Import the benchmark's workload module, which imports the package
    from the checkout's ``src``; returns (module, seconds taken)."""
    src = ROOT / "src"
    if not (src / "iidiag" / "__init__.py").is_file():
        raise SystemExit(f"error: no iidiag package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import workloads
    return workloads, time.perf_counter() - start


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def loop(seconds, blocks, do_op) -> list[int]:
    """Run ``do_op(index, item)`` over whole blocks until both the time and
    the op minimum are reached; returns the op count at each block's end."""
    start = time.perf_counter()
    ends = []
    ops = 0
    for block in blocks:
        for item in block:
            do_op(ops, item)
            ops += 1
        ends.append(ops)
        if time.perf_counter() - start >= seconds and ops >= MIN_OPS:
            return ends


def report_failure(failures: list, op: int, exc: Exception) -> None:
    if len(failures) < 5:
        print(f"op {op} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    failures.append(op)


def run_plain(workloads, import_s, args, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, fresh_dir(workdir))
        workload.setup()
        setups.append(time.perf_counter() - start)

    durations: list[float] = []
    failures: list[int] = []

    def do_op(index, item):
        start = time.perf_counter()
        try:
            try:
                result = workload.run(item)
            finally:
                durations.append(time.perf_counter() - start)
            workload.check(item, result)
        except Exception as exc:  # a failed op is counted, not fatal
            report_failure(failures, index, exc)

    ends = loop(args.seconds, workload.blocks(), do_op)
    attempted = ends[-1]
    # throughput per block, then the median, so a burst of load from other
    # processes that slows a few blocks does not move the result
    rates = [(b - a) / sum(durations[a:b]) for a, b in zip([0] + ends, ends)]
    ms = [d * 1e3 for d in durations]
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p95": (statistics.quantiles(ms, n=20)[18], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    notes = {
        "failed_ratio": len(failures) / attempted,
        "samples_beyond_p95": sum(1 for m in ms if m > metrics["op_ms_p95"][0]),
        "ops_vs_reference": workload.compared,
    }
    return attempted, len(failures), [], metrics, notes


def run_traced(workloads, args, workdir):
    tracer = Tracer()
    workload = workloads.WORKLOADS[args.workload](args.seed, fresh_dir(workdir))
    workload.setup(tracer)

    plain_ms = traced_ms = 0.0
    failures: list[int] = []

    def do_op(index, item):
        nonlocal plain_ms, traced_ms
        tracer.op_id = index
        try:
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    root = len(tracer.spans)
                    result = workload.traced(item, tracer)
                    _, start, end, _, _ = tracer.spans[root]
                    traced_ms += (end - start) / 1e6
                else:
                    start = time.perf_counter()
                    result = workload.run(item)
                    plain_ms += (time.perf_counter() - start) * 1e3
                workload.check(item, result)
        except Exception as exc:
            report_failure(failures, index, exc)

    attempted = loop(args.seconds, workload.blocks(), do_op)[-1]
    errors = tracer.nesting_errors()
    for error in errors[:5]:
        print(f"trace: {error}", file=sys.stderr)
    tracer.write(workdir.parent / f"trace-{args.workload}.jsonl")
    metrics = per_layer(tracer, attempted)
    metrics["trace.overhead_ratio"] = (traced_ms / plain_ms, "ratio")
    return attempted, len(failures), errors, metrics, {"spans": len(tracer.spans)}


def per_layer(tracer, ops: int) -> dict:
    inclusive, own, calls = tracer.totals_ms()
    c = tracer.counts

    def ms(name):
        return (inclusive.get(name, 0.0) / ops, "ms")

    def per_op(value, unit="count"):
        return (value / ops, unit)

    def ratio(num, den):
        return ((c[num + "_ms"] / c[num + "_n"]) / (c[den + "_ms"] / c[den + "_n"]), "ratio")

    out = {
        "diagram_io.load_ms": ms("diagram_io.load_diagram"),
        "diagram_io.json_decode_ms": ms("diagram_io.json_decode"),
        "diagram_io.bytes": per_op(c.get("diagram_io.bytes", 0), "B"),
        "model.build_ms": ms("model.build_diagram"),
        "model.check_structure_ms": ms("model.check_structure"),
        "model.check_structure_calls": per_op(calls.get("model.check_structure", 0)),
        "solver.next_step_ms": ms("solver.next_step"),
        "solver.steps": per_op(c.get("solver.steps", 0)),
    }
    for kind in TRANSFORM_KINDS:
        out[f"transforms.{kind}.ms"] = ms(f"transforms.{kind}")
        out[f"transforms.{kind}.calls"] = per_op(calls.get(f"transforms.{kind}", 0))
        out[f"transforms.{kind}.cells_in"] = per_op(c.get(f"transforms.{kind}.cells_in", 0))
        out[f"transforms.{kind}.cells_out"] = per_op(c.get(f"transforms.{kind}.cells_out", 0))
    out.update({
        "exact.point_solve_ms": ms("exact.point_solve"),
        "exact.point_solve_calls": per_op(calls.get("exact.point_solve", 0)),
        "exact.point_solve_leaves": per_op(c.get("exact.point_solve_leaves", 0)),
        # soundness_check's own time: sampling members and comparing their
        # solutions, without the point solves inside it
        "exact.sample_member_ms": (own.get("exact.soundness_check", 0.0) / ops, "ms"),
        "exact.soundness_ms": ms("exact.soundness_check"),
        "exact.envelope_ms": ms("exact.exact_envelope"),
        "exact.envelope_configs": per_op(c.get("exact.envelope_configs", 0)),
        "sensitivity.inject_range_ms": ms("sensitivity.inject_range"),
        "sensitivity.cells": per_op(c.get("sensitivity.cells", 0)),
        "sensitivity.self_ms": (own.get("sensitivity.sweep", 0.0) / ops, "ms"),
        "sensitivity.interval_over_point_engine": ratio("cost.interval_engine", "cost.point_engine"),
        "sensitivity.interval_over_point_solve": ratio("cost.interval_engine", "cost.point_solve"),
        "cli.self_ms": (own.get("cli.main", 0.0) / ops, "ms"),
    })
    return out


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        code = code or subprocess.run([
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]).returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads, import_s = import_workloads()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    try:
        if args.trace:
            attempted, failed, errors, metrics, notes = run_traced(workloads, args, workdir)
        else:
            attempted, failed, errors, metrics, notes = run_plain(workloads, import_s, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    for name, value in notes.items():
        print(f"{name:42s} {value:14.6g}")
    print(f"{'ops attempted':42s} {attempted:14d}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
