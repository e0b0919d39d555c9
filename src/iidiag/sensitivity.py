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
it, producing a table-shaped report. Range 0 widens nothing, so the range-0
cell is solved once and shared by every subset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CombinatorialLimitExceeded, MalformedSpec, NonPointResidual
from .exact import EnvelopeReport, PointRealization, exact_envelope, point_solve
from .model import (
    InfluenceDiagram,
    LowerCPT,
    Node,
    NodeKind,
    TOL,
    check_structure,
    is_point_row,
)
from .solver import StepMemo, solve
from .transforms import AdmissibleSet, fmt


def widen(point_row: Sequence[float], range_: float) -> tuple[float, ...]:
    """Lower-bound row with slack exactly ``range_``: every entry shrunk by
    the factor (1 - range_)."""
    factor = _factor(range_)
    return tuple([factor * p for p in point_row])


def _factor(range_: float) -> float:
    """The factor 1 - ``range_`` that :func:`widen` shrinks entries by."""
    if not 0.0 <= range_ < 1.0:
        raise MalformedSpec(f"range {range_} outside [0, 1)")
    return 1.0 - range_


def inject_range(
    diagram: InfluenceDiagram, nodes: Iterable[str], range_: float,
    *, widened: dict[tuple[str, float], Node] | None = None,
) -> InfluenceDiagram:
    """Widen every row of the given chance nodes by ``range_``, as
    :func:`widen` does; the range is checked once, before any node. Range 0
    keeps each node as it is, since (1 - 0) * p == p for every float.

    ``widened``, when given, keeps each widened node by (name, range) for
    later calls on the same ``diagram``, which take the kept node instead
    of widening it again: every subset that holds a node shares its rows."""
    factor = _factor(range_)
    updates: dict[str, Node] = {}
    for name in nodes:
        kept = None if widened is None else widened.get((name, range_))
        if kept is not None:
            updates[name] = kept
            continue
        node = diagram.node(name)
        if node.kind is not NodeKind.CHANCE:
            raise MalformedSpec(f"{name!r} is not a chance node")
        if factor == 1.0:
            continue
        table = node.chance_table
        rows = tuple([tuple([factor * p for p in row]) for row in table.rows])
        updates[name] = Node(
            name, NodeKind.CHANCE, node.variable, node.parents,
            chance_table=LowerCPT(table.parents, table.cards, rows),
        )
        if widened is not None:
            widened[name, range_] = updates[name]
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
        if self.exact_cap < 0:
            raise MalformedSpec(f"exact_cap {self.exact_cap} is negative")
        for i, r in enumerate(self.ranges):
            if not 0.0 <= r < 1.0:
                raise MalformedSpec(f"range {r} outside [0, 1)")
            if r in self.ranges[:i]:  # == holds between 0.0 and -0.0
                raise MalformedSpec(f"range {r} given twice")

    def effective_subsets(self) -> tuple[tuple[str, ...], ...]:
        if self.subsets is not None:
            return self.subsets
        return (self.target_nodes,)


@dataclass(frozen=True)
class SweepCell:
    """One (subset, range) cell of a sweep. ``solve_seconds`` is the time
    of the solve that produced the cell's interval and policies. Every
    range-0 cell shares the sweep's first range-0 solve, so they all carry
    that one solve's time."""

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
    compare_exact: bool, exact_cap: int, *,
    memo: StepMemo | None = None, widened: dict[tuple[str, float], Node] | None = None,
) -> SweepCell:
    cell_diagram = inject_range(diagram, subset, range_, widened=widened)
    start = time.perf_counter()
    report = solve(cell_diagram, memo=memo)
    elapsed = time.perf_counter() - start
    envelope = None
    skipped = False
    if compare_exact:
        try:
            envelope = exact_envelope(cell_diagram, subset, cap=exact_cap)
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
    each other's time to every cell's ``solve_seconds``.

    The cells share what they have in common for the length of the call:
    each (node, range) is widened once, into one node every subset that
    holds it reads, and one :class:`~iidiag.solver.StepMemo`, which takes
    the structure this call checks, runs each step once per distinct
    input. Both are dropped when the call returns."""
    if jobs != 1:  # the keyword stays only for callers that pass jobs=1
        raise MalformedSpec(f"jobs={jobs}: sweep runs its cells in order, jobs must be 1")
    graph = check_structure(diagram)
    _require_point(diagram)
    subsets = spec.effective_subsets()
    for name in (*spec.target_nodes, *(name for subset in subsets for name in subset)):
        if diagram.node(name).kind is not NodeKind.CHANCE:
            raise MalformedSpec(f"{name!r} is not a chance node")

    start = time.perf_counter()
    point = point_solve(diagram, _point_realization(diagram))
    point_seconds = time.perf_counter() - start

    # Range 0 widens nothing ((1 - 0) * p == p for every float), so every
    # subset's range-0 cell is the same solve: the first is computed, later
    # ones copy it. With compare_exact every row is then a point row, and
    # the envelope is the one configuration it evaluates for any subset.
    cells = []
    shared = None
    memo = StepMemo()
    if subsets and spec.ranges:
        memo.serve(diagram, graph)
    widened: dict[tuple[str, float], Node] = {}
    for subset in subsets:
        for r in spec.ranges:
            if r == 0.0 and shared is not None:
                cells.append(SweepCell(
                    subset=subset, range_=r, interval=shared.interval,
                    policies=shared.policies, envelope=shared.envelope,
                    exact_skipped=shared.exact_skipped, solve_seconds=shared.solve_seconds,
                ))
                continue
            cell = _run_cell(diagram, subset, r, spec.compare_exact, spec.exact_cap,
                             memo=memo, widened=widened)
            if r == 0.0:
                shared = cell
            cells.append(cell)
    return SweepReport(
        cells=tuple(cells),
        point_value=point.expected_value,
        point_solve_seconds=point_seconds,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

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
