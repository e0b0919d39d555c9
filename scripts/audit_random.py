"""Random audit: solve many generated diagrams and hammer each solution with
sampled members, reporting any containment or admissibility violation.

Usage: python scripts/audit_random.py [--diagrams 200] [--samples 200] [--seed 0]
"""

from __future__ import annotations

import argparse
import sys
from random import Random

from iidiag.exact import soundness_check
from iidiag.generate import random_chain_diagram, random_diagram
from iidiag.solver import solve
from iidiag.transforms import StepKind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--diagrams", type=int, default=200)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.diagrams < 1:
        parser.error("--diagrams must be at least 1")
    if args.samples < 0:
        parser.error("--samples must be at least 0")

    rng = Random(args.seed)
    step_counts = {kind: 0 for kind in StepKind}
    failures = 0
    worst_margin = 0.0
    for i in range(args.diagrams):
        diagram = random_chain_diagram(rng) if i % 3 == 0 else random_diagram(rng)
        report = solve(diagram)
        for step in report.steps:
            step_counts[step.kind] += 1
        check = soundness_check(
            diagram, samples=args.samples, seed=args.seed + i, report=report
        )
        worst_margin = max(worst_margin, check.worst_ev_margin)
        if not check.passed:
            failures += 1
            print(
                f"VIOLATION diagram {i}: ev={check.ev_violations} "
                f"policy={check.policy_violations} margin={check.worst_ev_margin:.3e}"
            )

    print(f"diagrams: {args.diagrams}  samples each: {args.samples}")
    print("steps:", {k.value: v for k, v in step_counts.items() if v})
    print(f"worst containment margin: {worst_margin:.3e}")
    print("violations:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
