"""Reproduce the wildcatter sensitivity study as three report tables.

Table A: admissible DRILL alternatives per information state across ranges.
Table B: expected-value interval and admissible TEST alternatives per range,
         bound propagation beside exhaustive endpoint enumeration.
Table C: per-subset sensitivity at a fixed range.

Usage: python scripts/wildcatter_tables.py [--range 0.05] [--no-exact]
"""

from __future__ import annotations

import argparse
import itertools
import sys

from iidiag.diagram_io import fixture_path, load_diagram
from iidiag.sensitivity import SensitivitySpec, render_text, sweep
from iidiag.transforms import fmt

RANGES = (0.0, 0.01, 0.05, 0.10)
NODES = ("OIL", "SEISMIC", "COST")


def drill_table(diagram, report) -> str:
    drill = diagram.node("DRILL")
    tests = diagram.node("TEST").variable.outcomes
    results = diagram.node("RESULT").variable.outcomes
    lines = ["DRILL admissible alternatives by information state", ""]
    header = ["range"] + [f"{t}/{r}" for t in tests for r in results]
    rows = [header]
    for r in RANGES:
        cell = report.cell(NODES, r)
        adm = cell.policies["DRILL"]
        row = [fmt(r)]
        for idx in range(len(adm.sets)):
            row.append("+".join(adm.labels(idx)))
        rows.append(row)
    widths = [max(len(line[i]) for line in rows) for i in range(len(header))]
    lines += [
        "  ".join(col.ljust(w) for col, w in zip(line, widths)).rstrip()
        for line in rows
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--range", type=float, default=0.05, dest="subset_range",
                        help="range used for the per-subset table")
    parser.add_argument("--no-exact", action="store_true",
                        help="skip the enumeration columns")
    args = parser.parse_args(argv)

    diagram = load_diagram(fixture_path("wildcatter"))

    spec = SensitivitySpec(
        target_nodes=NODES, ranges=RANGES, compare_exact=not args.no_exact
    )
    report = sweep(diagram, spec)
    print(drill_table(diagram, report))
    print()
    print("Expected-value interval and TEST admissibility by range")
    print()
    print(render_text(report, diagram))
    print()

    subsets = tuple(
        tuple(s)
        for n in (1, 2, 3)
        for s in itertools.combinations(NODES, n)
    )
    subset_spec = SensitivitySpec(
        target_nodes=NODES,
        ranges=(args.subset_range,),
        compare_exact=not args.no_exact,
        subsets=subsets,
    )
    subset_report = sweep(diagram, subset_spec)
    print(f"Per-subset sensitivity at range {args.subset_range}")
    print()
    print(render_text(subset_report, diagram))
    return 0


if __name__ == "__main__":
    sys.exit(main())
