"""Command-line front end: batch solves, envelopes, sweeps, soundness checks,
and file canonicalization.

Exit codes: 0 on success, 1 on a violation or operational failure, 2 on a
usage error. All stdout output is deterministic given flags and seeds; the
one nondeterministic quantity (measured solve time in ``sweep``) goes to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .diagram_io import load_diagram, serialize_diagram
from .errors import DiagramError
from .exact import exact_envelope, soundness_check
from .model import InfluenceDiagram, config_assignment
from .sensitivity import SensitivitySpec, fmt, render_text, report_to_dict, sweep
from .solver import SolveReport, solve
from .transforms import AdmissibleSet


def _node_list(raw: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in raw.split(",") if n.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"no node names in {raw!r}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"node named twice: {', '.join(repeated)}")
    return names


def _sample_count(raw: str) -> int:
    try:
        n = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad sample count {raw!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"sample count {n} is negative")
    return n


def _range_list(raw: str) -> tuple[float, ...]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            r = float(piece)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad range {piece!r}") from None
        if not 0.0 <= r < 1.0:
            raise argparse.ArgumentTypeError(f"range {r} outside [0, 1)")
        out.append(r)
    if not out:
        raise argparse.ArgumentTypeError(f"no ranges in {raw!r}")
    return tuple(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iidiag",
        description=(
            "Evaluate influence diagrams whose probabilities are lower bounds "
            "and whose values are intervals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="bounded expected value and admissible decisions")
    p.add_argument("file", type=Path)
    p.add_argument("--trace", action="store_true", help="print the step log")
    p.add_argument("--json", action="store_true", help="machine output, full precision")

    p = sub.add_parser("exact", help="endpoint-enumeration envelope")
    p.add_argument("file", type=Path)
    p.add_argument("--nodes", type=_node_list, required=True, metavar="A,B")
    p.add_argument("--include-value-box", action="store_true")
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="imprecision sweep over a point diagram")
    p.add_argument("file", type=Path)
    p.add_argument("--nodes", type=_node_list, required=True, metavar="A,B")
    p.add_argument("--ranges", type=_range_list, required=True, metavar="0.01,0.05")
    p.add_argument("--subsets", action="store_true",
                   help="sweep every nonempty subset of --nodes")
    p.add_argument("--exact", action="store_true",
                   help="run the enumeration envelope beside each cell")
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="sampling soundness check; exit 1 on violation")
    p.add_argument("file", type=Path)
    p.add_argument("--samples", type=_sample_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fmt", help="canonicalize a diagram file in place")
    p.add_argument("file", type=Path)
    return parser


def _state_label(
    diagram: InfluenceDiagram, parents: tuple[str, ...], cards: tuple[int, ...], index: int
) -> str:
    """Information state ``index`` of ``parents`` as ``P=label ...``; empty
    when there are no parents."""
    values = config_assignment(index, cards)
    return " ".join(
        f"{p}={diagram.node(p).variable.outcomes[v]}" for p, v in zip(parents, values)
    )


def _policy_lines(diagram: InfluenceDiagram, admitted: AdmissibleSet) -> list[str]:
    if not admitted.info_parents:
        return [f"  S = {{{', '.join(admitted.labels(0))}}}"]
    return [
        f"  {_state_label(diagram, admitted.info_parents, admitted.info_cards, idx)}: "
        f"{{{', '.join(admitted.labels(idx))}}}"
        for idx in range(len(admitted.sets))
    ]


def _solve_to_dict(report: SolveReport) -> dict:
    return {
        "interval": list(report.final_interval),
        "policies": {name: adm.to_dict() for name, adm in report.policies.items()},
        "steps": [step.describe() for step in report.steps],
        "notes": list(report.notes),
    }


def _cmd_solve(args) -> int:
    diagram = load_diagram(args.file)
    report = solve(diagram)
    if args.json:
        data = _solve_to_dict(report)
        data["added_information_arcs"] = [
            list(arc) for arc in diagram.added_information_arcs
        ]
        print(json.dumps(data, indent=2))
        return 0
    lo, hi = report.final_interval
    print(f"expected value: [{fmt(lo)}, {fmt(hi)}]")
    for tail, head in diagram.added_information_arcs:
        print(f"note: added no-forgetting arc {tail} -> {head}")
    for name, admitted in report.policies.items():
        info = ", ".join(admitted.info_parents) if admitted.info_parents else "none"
        print(f"decision {name} (information: {info}):")
        for line in _policy_lines(diagram, admitted):
            print(line)
    for note in report.notes:
        print(f"note: {note}")
    if args.trace:
        print("steps:")
        for step in report.steps:
            print(f"  {step.describe()}")
    return 0


def _cmd_exact(args) -> int:
    diagram = load_diagram(args.file)
    envelope = exact_envelope(
        diagram, args.nodes, include_value_box=args.include_value_box, cap=args.cap
    )
    if args.json:
        print(json.dumps({**envelope.to_dict(), "note": envelope.note}, indent=2))
        return 0
    print(f"exact envelope: [{fmt(envelope.ev_min)}, {fmt(envelope.ev_max)}]")
    print(f"configurations evaluated: {envelope.configurations_evaluated}")
    for name, per in envelope.admissible_union.items():
        node = diagram.node(name)
        labels = node.variable.outcomes
        parents = node.parents
        print(f"decision {name} optimal-alternative union "
              f"(information: {', '.join(parents) if parents else 'none'}):")
        cards = diagram.cards_of(parents)
        for idx, members in per.items():
            state = _state_label(diagram, parents, cards, idx)
            shown = ", ".join(labels[i] for i in members)
            print(f"  {state or '(always)'}: {{{shown}}}")
    print(f"note: {envelope.note}")
    return 0


def _subsets_of(nodes: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    out = []
    for mask in range(1, 2 ** len(nodes)):
        out.append(tuple(n for i, n in enumerate(nodes) if mask >> i & 1))
    out.sort(key=len)  # size order; --nodes order within each size
    return tuple(out)


def _cmd_sweep(args) -> int:
    diagram = load_diagram(args.file)
    spec = SensitivitySpec(
        target_nodes=args.nodes,
        ranges=args.ranges,
        compare_exact=args.exact,
        exact_cap=args.cap,
        subsets=_subsets_of(args.nodes) if args.subsets else None,
    )
    report = sweep(diagram, spec)
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(render_text(report, diagram))
    if args.exact:
        print(
            f"timing: median solve {report.median_solve_seconds * 1e3:.3f} ms, "
            f"point solve {report.point_solve_seconds * 1e3:.3f} ms",
            file=sys.stderr,
        )
    return 0


def _cmd_check(args) -> int:
    diagram = load_diagram(args.file)
    report = soundness_check(diagram, samples=args.samples, seed=args.seed)
    if args.json:
        print(
            json.dumps(
                {
                    "samples": report.samples,
                    "interval": list(report.interval),
                    "ev_violations": report.ev_violations,
                    "policy_violations": report.policy_violations,
                    "worst_ev_margin": report.worst_ev_margin,
                    "sampled_min": report.sampled_min,
                    "sampled_max": report.sampled_max,
                    "passed": report.passed,
                },
                indent=2,
            )
        )
    else:
        lo, hi = report.interval
        print(f"interval: [{fmt(lo)}, {fmt(hi)}]  samples: {report.samples}")
        if report.sampled_min is not None:
            print(
                f"sampled range: [{fmt(report.sampled_min)}, {fmt(report.sampled_max)}]"
                f"  attainment gap: low {fmt(report.gap_below)}, high {fmt(report.gap_above)}"
            )
        print(
            f"violations: expected value {report.ev_violations}, "
            f"policy {report.policy_violations}"
        )
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_fmt(args) -> int:
    canonical = serialize_diagram(load_diagram(args.file))  # rejects non-UTF-8
    text = args.file.read_text(encoding="utf-8")
    if canonical != text:
        args.file.write_text(canonical, encoding="utf-8")
        print(f"formatted {args.file}")
    else:
        print(f"already canonical: {args.file}")
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
    "fmt": _cmd_fmt,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
