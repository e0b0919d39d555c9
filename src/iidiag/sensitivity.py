"""Controlled imprecision sweeps over point-valued diagrams.

``widen`` turns a point probability row into a lower-bound row with an exact
target range R (the slack 1 - sum of the row's bounds) by shrinking every
entry proportionally: b = (1 - R) * p. The original point stays a member and
the rule is feasible for any row, including rows with zeros. Note that other
injection rules (e.g. subtracting R/k per entry) would produce different
numbers; any comparison against externally published sweep tables depends on
this choice.

``sweep`` widens chosen node subsets at each requested range, solves each
widened diagram, and optionally runs the vertex-enumeration envelope beside
it, producing a table-shaped report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CombinatorialLimitExceeded, MalformedSpec, NonPointResidual
from .exact import EnvelopeReport, PointRealization, exact_envelope, point_solve
from .model import InfluenceDiagram, LowerCPT, Node, NodeKind, TOL, is_point_row
from .solver import solve
from .transforms import AdmissibleSet


def widen(point_row: Sequence[float], range_: float) -> tuple[float, ...]:
    """Lower-bound row with slack exactly ``range_``: every entry shrunk by
    the factor (1 - range_)."""
    if not 0.0 <= range_ < 1.0:
        raise MalformedSpec(f"range {range_} outside [0, 1)")
    return tuple((1.0 - range_) * p for p in point_row)


def inject_range(
    diagram: InfluenceDiagram, nodes: Iterable[str], range_: float
) -> InfluenceDiagram:
    """Widen every row of the given chance nodes by ``range_``."""
    updates: dict[str, Node] = {}
    for name in nodes:
        node = diagram.node(name)
        if node.kind is not NodeKind.CHANCE:
            raise MalformedSpec(f"{name!r} is not a chance node")
        table = node.chance_table
        rows = tuple(widen(row, range_) for row in table.rows)
        updates[name] = Node(
            name, NodeKind.CHANCE, node.variable, node.parents,
            chance_table=LowerCPT(table.parents, table.cards, rows),
        )
    return diagram.replace_nodes(updates)


@dataclass(frozen=True)
class SensitivitySpec:
    """What to sweep: which chance nodes carry imprecision, at which ranges,
    and whether to run the exact envelope beside the bound propagation.

    ``subsets`` defaults to the single subset of all target nodes; pass
    explicit subsets for per-subset sensitivity tables.
    """

    target_nodes: tuple[str, ...]
    ranges: tuple[float, ...]
    compare_exact: bool = False
    exact_cap: int = 10_000_000
    subsets: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        for r in self.ranges:
            if not 0.0 <= r < 1.0:
                raise MalformedSpec(f"range {r} outside [0, 1)")

    def effective_subsets(self) -> tuple[tuple[str, ...], ...]:
        if self.subsets is not None:
            return self.subsets
        return (self.target_nodes,)


@dataclass(frozen=True)
class SweepCell:
    subset: tuple[str, ...]
    range_: float
    interval: tuple[float, float]
    policies: dict[str, AdmissibleSet]
    envelope: EnvelopeReport | None
    exact_skipped: bool
    solve_seconds: float

    @property
    def width(self) -> float:
        return self.interval[1] - self.interval[0]


@dataclass(frozen=True)
class SweepReport:
    cells: tuple[SweepCell, ...]
    point_value: float
    point_solve_seconds: float

    def __post_init__(self) -> None:
        _check_report_invariants(self)

    def cell(self, subset: tuple[str, ...], range_: float) -> SweepCell:
        for c in self.cells:
            if c.subset == subset and c.range_ == range_:
                return c
        raise KeyError((subset, range_))

    @property
    def median_solve_seconds(self) -> float:
        times = sorted(c.solve_seconds for c in self.cells)
        return times[len(times) // 2] if times else 0.0


def _check_report_invariants(report: SweepReport) -> None:
    by_subset: dict[tuple[str, ...], list[SweepCell]] = {}
    for cell in report.cells:
        by_subset.setdefault(cell.subset, []).append(cell)
    for subset, cells in by_subset.items():
        cells.sort(key=lambda c: c.range_)
        for a, b in zip(cells, cells[1:]):
            if b.width < a.width - 1e-9:
                raise AssertionError(
                    f"interval width shrank with range for subset {subset}"
                )
        for cell in cells:
            if cell.envelope is not None:
                lo, hi = cell.interval
                if cell.envelope.ev_min < lo - 1e-9 or cell.envelope.ev_max > hi + 1e-9:
                    raise AssertionError(
                        f"exact envelope escapes the computed interval at {subset}, "
                        f"range {cell.range_}"
                    )


def _point_realization(diagram: InfluenceDiagram) -> PointRealization:
    chance = {
        name: diagram.node(name).chance_table.rows
        for name in diagram.names(NodeKind.CHANCE)
    }
    values = tuple(lo for lo, _ in diagram.value_node.value_table.rows)
    return PointRealization(chance=chance, values=values)


def _require_point(diagram: InfluenceDiagram) -> None:
    for name in diagram.names(NodeKind.CHANCE):
        for r, row in enumerate(diagram.node(name).chance_table.rows):
            if not is_point_row(row):
                raise NonPointResidual(f"{name}: row {r} is not point-valued")
    for r, (lo, hi) in enumerate(diagram.value_node.value_table.rows):
        if hi - lo > TOL:
            raise NonPointResidual(f"value row {r} is not a point value")


def _run_cell(
    diagram: InfluenceDiagram, subset: tuple[str, ...], range_: float,
    compare_exact: bool, exact_cap: int,
) -> SweepCell:
    widened = inject_range(diagram, subset, range_)
    start = time.perf_counter()
    report = solve(widened)
    elapsed = time.perf_counter() - start
    envelope = None
    skipped = False
    if compare_exact:
        try:
            envelope = exact_envelope(widened, subset, cap=exact_cap)
        except CombinatorialLimitExceeded:
            skipped = True
    return SweepCell(
        subset=subset,
        range_=range_,
        interval=report.final_interval,
        policies=report.policies,
        envelope=envelope,
        exact_skipped=skipped,
        solve_seconds=elapsed,
    )


def sweep(
    diagram: InfluenceDiagram, spec: SensitivitySpec, jobs: int = 1
) -> SweepReport:
    """Run the whole sweep, one cell after another in subset then range
    order. ``jobs`` accepts only 1: the cells are pure Python and hold the
    interpreter lock, so threads would not finish them sooner and would add
    each other's time to every cell's ``solve_seconds``."""
    if jobs != 1:  # the keyword stays only for callers that pass jobs=1
        raise MalformedSpec(f"jobs={jobs}: sweep runs its cells in order, jobs must be 1")
    _require_point(diagram)
    for name in spec.target_nodes:
        if diagram.node(name).kind is not NodeKind.CHANCE:
            raise MalformedSpec(f"{name!r} is not a chance node")

    start = time.perf_counter()
    point = point_solve(diagram, _point_realization(diagram))
    point_seconds = time.perf_counter() - start

    cells = tuple(
        _run_cell(diagram, subset, r, spec.compare_exact, spec.exact_cap)
        for subset in spec.effective_subsets()
        for r in spec.ranges
    )
    return SweepReport(
        cells=cells,
        point_value=point.expected_value,
        point_solve_seconds=point_seconds,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def fmt(x: float) -> str:
    """A number as every text output prints it: four significant digits."""
    return f"{x:.4g}"


def render_text(report: SweepReport, diagram: InfluenceDiagram) -> str:
    """Aligned plain-text table, one row per (subset, range)."""
    decisions = [d for d in diagram.decision_order]
    header = ["nodes", "range", "low", "high", "width"]
    for d in decisions:
        header.append(f"{d} admissible (any state)")
    if any(c.envelope is not None or c.exact_skipped for c in report.cells):
        header += ["exact low", "exact high", "configs"]
    lines = [header]
    for cell in report.cells:
        row = [
            ",".join(cell.subset) if cell.subset else "(none)",
            fmt(cell.range_),
            fmt(cell.interval[0]),
            fmt(cell.interval[1]),
            fmt(cell.width),
        ]
        for d in decisions:
            admitted = cell.policies[d]
            row.append("/".join(admitted.alternatives[i] for i in admitted.any_state_union()))
        if len(header) > 5 + len(decisions):
            if cell.envelope is not None:
                row += [
                    fmt(cell.envelope.ev_min),
                    fmt(cell.envelope.ev_max),
                    str(cell.envelope.configurations_evaluated),
                ]
            else:
                row += ["skipped", "skipped", "-"]
        lines.append(row)
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(col.ljust(w) for col, w in zip(line, widths)).rstrip()
        for line in lines
    )


def report_to_dict(report: SweepReport) -> dict:
    """Machine-readable form with full precision."""
    return {
        "point_value": report.point_value,
        "cells": [
            {
                "subset": list(cell.subset),
                "range": cell.range_,
                "interval": list(cell.interval),
                "policies": {name: adm.to_dict() for name, adm in cell.policies.items()},
                "exact": None if cell.envelope is None else cell.envelope.to_dict(),
                "exact_skipped": cell.exact_skipped,
            }
            for cell in report.cells
        ],
    }
