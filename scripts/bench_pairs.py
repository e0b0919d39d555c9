"""Alternating parent/change pairs of one benchmark workload.

Usage: python scripts/bench_pairs.py --parent DIR --change DIR --workload W
           [--pairs 10] [--seconds 30]

Runs the benchmark command of ``BENCHMARK.json`` (``perfbench/run.py``) in
each checkout, once per side for each pair, with the same seed within a
pair (pair ``i``, counted from 1, uses seed ``i``) and the side that goes
first alternating from pair to pair. Only the last line of each run's
stdout, its JSON summary, is read; every run's summary is echoed to stderr
as it completes.

Then, per end-to-end metric of ``BENCHMARK.json``, it prints each side's
first quartile, median and third quartile, the change in the median, and
the pairs the change won (a tie counts for neither side), and the quartiles
of the ratio change / parent taken within each pair, which cancels the
machine's drift between pairs; that column informs only. ``gain`` says
whether the change wins at least nine tenths of the pairs and its median is
better than the parent's by more than the parent's interquartile range: the
rule a claimed gain must meet. ``worse`` says whether the change's median is
worse than the parent's by more than the metric's ``bound`` (a share of the
parent's median): ``yes``, ``no``, or ``unresolved`` when it is not worse by
that much but the parent's interquartile range is wider than the bound, so
the runs cannot show it is not, unless every change run beats every parent
run. The exit status is 1 when a run fails or its summary is not
``correct`` (a failed op or a failed check), else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly
    between order statistics; a single value is all three."""
    ordered = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        i = int(pos)
        if i + 1 == len(ordered):
            return ordered[i]
        return ordered[i] + (ordered[i + 1] - ordered[i]) * (pos - i)

    return at(0.25), at(0.5), at(0.75)


def pair_wins(parent, change, better: str) -> int:
    """Pairs in which the change reads better than the parent."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def pair_ratios(parent, change) -> list[float]:
    """change / parent within each pair, leaving out a pair whose parent
    reads 0."""
    return [c / p for p, c in zip(parent, change) if p]


def is_gain(parent, change, better: str) -> bool:
    """The change wins at least nine tenths of the pairs, and its median is
    better than the parent's by more than the parent's interquartile range."""
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    ahead = change_median - parent_median
    if better != "higher":
        ahead = -ahead
    return 10 * pair_wins(parent, change, better) >= 9 * len(parent) and ahead > q3 - q1


def regression(parent, change, better: str, bound: float) -> str:
    """``yes`` when the change's median is worse than the parent's by more
    than ``bound`` times the parent's median; else ``unresolved`` when the
    parent's interquartile range is wider than that, unless every change
    run beats every parent run; else ``no``."""
    q1, parent_median, q3 = quartiles(parent)
    change_median = quartiles(change)[1]
    behind = change_median - parent_median
    if better == "higher":
        behind = -behind
    allowed = bound * abs(parent_median)
    if behind > allowed:
        return "yes"
    if better == "higher":
        clear = min(change) > max(parent)
    else:
        clear = max(change) < min(parent)
    if q3 - q1 > allowed and not clear:
        return "unresolved"
    return "no"


def run_once(checkout: Path, command, workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = 1 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            summary = run_once(sides[side], spec["command"], args.workload, seed, args.seconds)
            runs[side].append(summary)
            values = {name: m["value"] for name, m in summary["metrics"].items()}
            print(f"pair {i + 1} seed {seed} {side}: failed {summary['failed']} "
                  f"{json.dumps(values)}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':12s} {'better':6s} {'parent q1 / median / q3':>30s} "
          f"{'change q1 / median / q3':>30s} {'median':>8s} {'wins':>6s} "
          f"{'ratio q1 / median / q3':>24s}  gain  worse")
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        p, c = quartiles(parent), quartiles(change)
        moved = f"{(c[1] - p[1]) / p[1]:+.1%}" if p[1] else "n/a"
        ratios = pair_ratios(parent, change)
        ratio = " / ".join(f"{v:.3f}" for v in quartiles(ratios)) if ratios else "n/a"
        print(f"{name:12s} {better:6s} {' / '.join(f'{v:.4g}' for v in p):>30s} "
              f"{' / '.join(f'{v:.4g}' for v in c):>30s} {moved:>8s} "
              f"{pair_wins(parent, change, better):>3d}/{args.pairs:<2d} {ratio:>24s}  "
              f"{'yes' if is_gain(parent, change, better) else 'no':4s}  "
              f"{regression(parent, change, better, metric['bound'])}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
    return 0 if all(r["correct"] is True for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
