"""Reference machinery: a classical point-valued solver, endpoint
enumeration over row-polytope vertices, and a random member sampler.

These are the independent yardsticks the bound propagation is checked
against: any point realization admitted by the bounds can be solved exactly
here, and enumerating every vertex combination of the varied rows gives an
exact envelope to compare the computed interval with.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from operator import add, mul
from random import Random
from typing import Callable, Iterable, Sequence

from .errors import (
    CombinatorialLimitExceeded,
    NonPointResidual,
    ShapeMismatch,
)
from .model import (
    InfluenceDiagram,
    NodeKind,
    TOL,
    is_point_row,
)
from .solver import SolveReport, solve

_EV_TOL = 1e-9


@dataclass(frozen=True)
class PointRealization:
    """One admitted point model: a probability row per chance configuration
    and a single value per value-node configuration."""

    chance: dict[str, tuple[tuple[float, ...], ...]]
    values: tuple[float, ...]


@dataclass(frozen=True)
class PolicyEntry:
    """Optimal alternatives at one information state of one decision.

    ``chosen`` is the lowest-index optimum; ``tied`` lists every alternative
    achieving the optimum. States the prefix of observations and earlier
    choices cannot reach (zero probability) are marked unreached and their
    arbitrary argmax should be ignored.
    """

    chosen: int
    tied: tuple[int, ...]
    reached: bool


@dataclass(frozen=True)
class PointSolution:
    expected_value: float
    policy: dict[str, dict[int, PolicyEntry]]


@dataclass(frozen=True)
class EnvelopeReport:
    """Envelope of exact solutions over every enumerated vertex combination.

    The enumeration covers only the vertices of each varied row's polytope
    (plus value-box corners when requested). For a fixed policy the expected
    value is linear in each chance row and in the values; the optimum is a
    maximum over policies, so it is convex in each row and in the values,
    and its maximum over the product of polytopes (and box) is reached at a
    vertex combination: ``ev_max`` is exact. A minimum, and an alternative
    that is optimal only strictly inside a row polytope, can be missed, so
    ``ev_min`` and ``admissible_union`` are samples of the exact range.
    """

    ev_min: float
    ev_max: float
    admissible_union: dict[str, dict[int, tuple[int, ...]]]
    configurations_evaluated: int
    note: str = (
        "vertex enumeration; ev_max is exact (the optimum is convex in each row),"
        " ev_min and the optimal-alternative union are samples"
    )

    def to_dict(self) -> dict:
        """The JSON form ``exact --json`` and ``sweep --json`` print."""
        return {
            "ev_min": self.ev_min,
            "ev_max": self.ev_max,
            "configurations_evaluated": self.configurations_evaluated,
            "admissible_union": {
                d: {str(i): list(s) for i, s in per.items()}
                for d, per in self.admissible_union.items()
            },
        }


@dataclass(frozen=True)
class SoundnessReport:
    """Outcome of sampling-based containment checks against one solve."""

    samples: int
    interval: tuple[float, float]
    ev_violations: int
    policy_violations: int
    worst_ev_margin: float
    sampled_min: float | None
    sampled_max: float | None

    @property
    def passed(self) -> bool:
        return self.ev_violations == 0 and self.policy_violations == 0

    @property
    def gap_below(self) -> float | None:
        """Distance from the interval's floor to the worst sampled value."""
        if self.sampled_min is None:
            return None
        return self.sampled_min - self.interval[0]

    @property
    def gap_above(self) -> float | None:
        if self.sampled_max is None:
            return None
        return self.interval[1] - self.sampled_max


# ---------------------------------------------------------------------------
# Classical evaluation
# ---------------------------------------------------------------------------

# The plan tabulates offsets for the innermost levels of the sum/max order
# whose joint has at most this many leaves; the levels above them are walked
# one configuration at a time. A plan and an evaluation's working lists are
# therefore bounded by this constant, not by the size of the joint.
_BLOCK_LEAVES = 1024

_ZERO = 0.0  # every sum starts here, so -0.0 terms add up to 0.0
_NEGATIVE = -1e-9  # a realization's probability below this is rejected


@dataclass(frozen=True)
class _Level:
    """One variable of the sum/max order. ``steps[j]`` is how far outcome 1
    of this variable moves target ``j``'s index (see :class:`_Plan`);
    ``target`` is the decision's own target, -1 for a chance level."""

    name: str
    card: int
    target: int
    steps: tuple[int, ...]


@dataclass(frozen=True)
class _Plan:
    """Everything about a diagram that ``point_solve`` needs besides the
    numbers of a realization.

    A *target* is an index that a joint assignment selects: for each chance
    node (``names(CHANCE)`` order) the offset ``row * k + outcome`` into its
    flattened rows, then the value row, then for each decision its
    information state. Each is a sum of per-variable steps, so the outer
    walk carries one base per target and the inner block adds its own
    tabulated part: ``leaf_offsets[j]`` per leaf for the chance and value
    targets, ``group_offsets[q]`` per group for a decision at inner level
    ``q`` (``None`` at a chance level). Leaves and groups are in walk order,
    last level fastest.
    """

    chance: tuple[tuple[str, int, int], ...]  # (name, rows, outcomes)
    value_rows: int
    outer: tuple[_Level, ...]
    inner: tuple[_Level, ...]
    leaf_offsets: tuple[tuple[int, ...], ...]
    group_offsets: tuple[tuple[int, ...] | None, ...]
    ones: tuple[float, ...]


def _sum_max_order(diagram: InfluenceDiagram) -> tuple[str, ...]:
    """Observation blocks interleaved with decisions, unobserved chance last."""
    chance = diagram.names(NodeKind.CHANCE)
    order: list[str] = []
    seen: set[str] = set()
    for d in diagram.decision_order:
        observed = set(diagram.node(d).parents)
        order += [c for c in chance if c in observed and c not in seen]
        order.append(d)
        seen.update(order)
    order += [c for c in chance if c not in seen]
    return tuple(order)


def _steps(parents: Sequence[str], cards: Sequence[int], scale: int = 1) -> dict[str, int]:
    """Row-index step of each parent (last parent fastest), times ``scale``."""
    out = {}
    step = scale
    for parent, card in zip(reversed(parents), reversed(cards)):
        out[parent] = step
        step *= card
    return out


def _compile(diagram: InfluenceDiagram) -> _Plan:
    chance, targets = [], []
    for name in diagram.names(NodeKind.CHANCE):
        node = diagram.node(name)
        table = node.chance_table
        chance.append((name, len(table.rows), node.cardinality))
        steps = _steps(table.parents, table.cards, node.cardinality)
        steps[name] = 1
        targets.append(steps)
    value = diagram.value_node
    targets.append(_steps(value.parents, value.value_table.cards))
    first_decision = len(targets)
    for d in diagram.decision_order:
        parents = diagram.node(d).parents
        targets.append(_steps(parents, diagram.cards_of(parents)))

    levels = []
    for name in _sum_max_order(diagram):
        node = diagram.node(name)
        target = (
            first_decision + diagram.decision_order.index(name)
            if node.kind is NodeKind.DECISION
            else -1
        )
        steps = tuple(t.get(name, 0) for t in targets)
        levels.append(_Level(name, node.cardinality, target, steps))

    split, leaves = len(levels), 1
    while split and leaves * levels[split - 1].card <= _BLOCK_LEAVES:
        split -= 1
        leaves *= levels[split].card
    inner = levels[split:]

    offsets = [[0] for _ in targets]
    group_offsets = []
    for level in inner:
        group_offsets.append(
            tuple(offsets[level.target]) if level.target >= 0 else None
        )
        offsets = [
            [base + i * step for base in column for i in range(level.card)]
            for column, step in zip(offsets, level.steps)
        ]
    leaf_offsets = tuple(tuple(column) for column in offsets[:first_decision])
    return _Plan(
        chance=tuple(chance),
        value_rows=len(value.value_table.rows),
        outer=tuple(levels[:split]),
        inner=tuple(inner),
        leaf_offsets=leaf_offsets,
        group_offsets=tuple(group_offsets),
        ones=(1.0,) * leaves,
    )


_PLANS: dict[int, _Plan] = {}


def _plan_of(diagram: InfluenceDiagram) -> _Plan:
    """The diagram's plan, compiled on first use and dropped with the diagram
    (diagrams are immutable, so a plan never goes stale)."""
    key = id(diagram)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _compile(diagram)
        weakref.finalize(diagram, _PLANS.pop, key, None)
    return plan


def _check_shape(plan: _Plan, realization: PointRealization) -> None:
    names = [name for name, _, _ in plan.chance]
    if realization.chance.keys() != set(names):
        raise ShapeMismatch(
            f"realization covers {sorted(realization.chance)}, "
            f"diagram has {sorted(names)}"
        )
    for name, n_rows, k in plan.chance:
        rows = realization.chance[name]
        if len(rows) != n_rows:
            raise ShapeMismatch(f"{name}: wrong row count")
        for r, row in enumerate(rows):
            if len(row) != k:
                raise ShapeMismatch(f"{name}: row {r} has wrong length")
            if abs(sum(row) - 1.0) > 1e-9 or any(map(_NEGATIVE.__gt__, row)):
                raise ShapeMismatch(f"{name}: row {r} is not a distribution")
    if len(realization.values) != plan.value_rows:
        raise ShapeMismatch("value row count mismatch")


def _decide(
    entries: dict[int, PolicyEntry],
    info_idx: int,
    reaches: Sequence[float],
    totals: Sequence[float],
) -> tuple[float, float]:
    """Maximize over one decision's alternatives at one information state.
    Ties are detected with a tiny relative slack so alternatives that are
    mathematically interchangeable (identical rows, value-irrelevant
    decisions) stay tied despite float summation noise."""
    best = max(totals)
    slack = 1e-12 * max(1.0, abs(best))
    tied = tuple(d for d, t in enumerate(totals) if best - t <= slack)
    reach = reaches[tied[0]]
    entries[info_idx] = PolicyEntry(tied[0], tied, reached=reach > 0.0)
    return reach, best


def _sum_groups(values: Sequence[float], k: int) -> list[float]:
    """Sum of each run of ``k`` consecutive values, left to right from 0.0
    as a running sum would add them (not ``sum``, which is compensated from
    Python 3.12 on)."""
    acc = map(_ZERO.__add__, values[::k])
    for i in range(1, k):
        acc = map(add, acc, values[i::k])
    return list(acc)


def _evaluate_block(plan: _Plan, tables, policy, bases) -> tuple[float, float]:
    """Reach and expected value of the inner block below one outer
    configuration, reduced level by level from the bottom. Reach is only
    reduced in a diagram with decisions; without one nothing reads it."""
    columns = [
        map(table.__getitem__, map(base.__add__, offsets) if base else offsets)
        for table, base, offsets in zip(tables, bases, plan.leaf_offsets)
    ]
    # leaf weight: 1.0 times each chance node's probability in names(CHANCE)
    # order, then times the leaf's value
    reach = plan.ones
    for column in columns[:-1]:
        reach = list(map(mul, reach, column))
    total = list(map(mul, reach, columns[-1]))

    track_reach = bool(policy)
    for level, groups in zip(reversed(plan.inner), reversed(plan.group_offsets)):
        k = level.card
        if groups is None:
            total = _sum_groups(total, k)
            if track_reach:
                reach = _sum_groups(reach, k)
        else:
            entries, base = policy[level.name], bases[level.target]
            reduced = [
                _decide(entries, base + off, reach[g:g + k], total[g:g + k])
                for g, off in zip(range(0, len(total), k), groups)
            ]
            reach = [r for r, _ in reduced]
            total = [t for _, t in reduced]
    return reach[0], total[0]


def _walk(plan: _Plan, tables, policy, pos: int, bases) -> tuple[float, float]:
    """Depth-first over the outer levels, carrying each target's base."""
    if pos == len(plan.outer):
        return _evaluate_block(plan, tables, policy, bases)
    level = plan.outer[pos]
    results = [
        _walk(plan, tables, policy, pos + 1,
              [b + i * s for b, s in zip(bases, level.steps)])
        for i in range(level.card)
    ]
    if level.target >= 0:
        return _decide(
            policy[level.name], bases[level.target],
            [r for r, _ in results], [t for _, t in results],
        )
    reach = total = 0.0
    for r, t in results:
        reach += r
        total += t
    return reach, total


def point_solve(
    diagram: InfluenceDiagram, realization: PointRealization
) -> PointSolution:
    """Classical optimal expected value and argmax policy for one admitted
    point model. Ties break to the lowest alternative index and every tied
    optimum is recorded.

    The diagram's structure is compiled once into a :class:`_Plan`; a call
    flattens the realization's rows, multiplies each leaf's weight column by
    column in ``names(CHANCE)`` order, and sums (chance) or maximizes
    (decision) level by level in the sum/max order. Sums run left to right
    from 0.0, so the result is the same float a depth-first walk gives."""
    plan = _plan_of(diagram)
    _check_shape(plan, realization)
    tables = [
        list(itertools.chain.from_iterable(realization.chance[name]))
        for name, _, _ in plan.chance
    ]
    tables.append(realization.values)
    policy: dict[str, dict[int, PolicyEntry]] = {d: {} for d in diagram.decision_order}
    bases = [0] * (len(tables) + len(diagram.decision_order))
    _, total = _walk(plan, tables, policy, 0, bases)
    return PointSolution(expected_value=total, policy=policy)


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------

def vertex_realizations(row: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """Vertices of {p >= row, sum(p) = 1}: the free mass 1 - sum(row) placed
    on each outcome in turn (a single point when the row already sums to 1)."""
    free = 1.0 - sum(row)
    if free <= TOL:
        return (tuple(row),)
    return tuple(
        tuple(b + free if i == j else b for i, b in enumerate(row))
        for j in range(len(row))
    )


def exact_envelope(
    diagram: InfluenceDiagram,
    varied_nodes: Iterable[str],
    include_value_box: bool = False,
    cap: int = 10_000_000,
) -> EnvelopeReport:
    """Solve every combination of row vertices of the varied chance nodes
    (and value-box corners when requested); every other row must be a point
    row. Returns the expected-value envelope and, per decision and reachable
    information state, the union of optimal alternatives."""
    varied = list(varied_nodes)
    chance_names = diagram.names(NodeKind.CHANCE)
    for name in varied:
        if name not in chance_names:
            raise NonPointResidual(f"{name!r} is not a chance node")

    axes: list[tuple[tuple[float, ...], ...]] = []
    layout: list[tuple[str, int, int]] = []  # (node, first axis, end axis)
    for name in chance_names:
        rows = diagram.node(name).chance_table.rows
        if name in varied:
            layout.append((name, len(axes), len(axes) + len(rows)))
            axes.extend(vertex_realizations(row) for row in rows)
        else:
            for r, row in enumerate(rows):
                if not is_point_row(row):
                    raise NonPointResidual(f"{name}: row {r} is not point-valued")

    v_rows = diagram.value_node.value_table.rows
    value_axes: list[tuple[float, ...]] = []
    for r, (lo, hi) in enumerate(v_rows):
        if include_value_box:
            value_axes.append((lo,) if hi - lo <= TOL else (lo, hi))
        elif hi - lo > TOL:
            raise NonPointResidual(f"value row {r} is an interval; pass include_value_box")
        else:
            value_axes.append((lo,))

    total = 1
    for axis in axes:
        total *= len(axis)
    for axis in value_axes:
        total *= len(axis)
    if total > cap:
        raise CombinatorialLimitExceeded(f"{total} configurations exceed cap {cap}")

    base_rows = {name: diagram.node(name).chance_table.rows for name in chance_names}
    ev_min = ev_max = None
    union: dict[str, dict[int, set[int]]] = {
        d: {} for d in diagram.decision_order
    }
    for combo in itertools.product(*axes, *value_axes):
        chance = dict(base_rows)
        for name, first, end in layout:
            chance[name] = combo[first:end]
        realization = PointRealization(chance=chance, values=combo[len(axes):])
        solution = point_solve(diagram, realization)
        ev = solution.expected_value
        ev_min = ev if ev_min is None else min(ev_min, ev)
        ev_max = ev if ev_max is None else max(ev_max, ev)
        for d, entries in solution.policy.items():
            for info_idx, entry in entries.items():
                if entry.reached:
                    union[d].setdefault(info_idx, set()).update(entry.tied)

    return EnvelopeReport(
        ev_min=ev_min,
        ev_max=ev_max,
        admissible_union={
            d: {i: tuple(sorted(s)) for i, s in sorted(per.items())}
            for d, per in union.items()
        },
        configurations_evaluated=total,
    )


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def simplex_point(rng: Random, k: int) -> list[float]:
    """A point uniform on the k-outcome probability simplex (normalized
    exponentials); the one simplex draw of the package."""
    draws = [rng.expovariate(1.0) for _ in range(k)]
    s = sum(draws)
    return [d / s for d in draws]


def _member_sampler(diagram: InfluenceDiagram) -> Callable[[Random], PointRealization]:
    """A function of a ``Random`` drawing one admitted member of ``diagram``.

    Each chance row's free mass 1 - sum(row), and whether it is a point row,
    is worked out here once; a draw only spends the random stream: per free
    row (chance nodes in ``names(CHANCE)`` order), one exponential per
    outcome, then one uniform per interval value row."""
    chance = []
    for name in diagram.names(NodeKind.CHANCE):
        rows = []
        for row in diagram.node(name).chance_table.rows:
            free = 1.0 - sum(row)
            rows.append((tuple(row), None if free <= TOL else free))
        chance.append((name, rows))
    value_rows = diagram.value_node.value_table.rows

    def draw(rng: Random) -> PointRealization:
        members = {}
        for name, rows in chance:
            members[name] = tuple([
                row if free is None else tuple([
                    b + free * e for b, e in zip(row, simplex_point(rng, len(row)))
                ])
                for row, free in rows
            ])
        values = tuple([rng.uniform(lo, hi) if hi > lo else lo for lo, hi in value_rows])
        return PointRealization(chance=members, values=values)

    return draw


def sample_member(diagram: InfluenceDiagram, seed: int) -> PointRealization:
    """A random admitted point model: per row, the free mass is spread over
    the outcomes uniformly on the allocation simplex; values are uniform in
    their intervals. Deterministic given the seed."""
    return _member_sampler(diagram)(Random(seed))


# ---------------------------------------------------------------------------
# Soundness harness
# ---------------------------------------------------------------------------

def soundness_check(
    diagram: InfluenceDiagram,
    samples: int,
    seed: int = 0,
    report: SolveReport | None = None,
) -> SoundnessReport:
    """Solve once, then check per sampled member that (a) its exact optimal
    expected value lies inside the computed interval and (b) every optimal
    choice at every reachable information state is admissible. Violations
    are counted, not raised."""
    if report is None:
        report = solve(diagram)
    lo, hi = report.final_interval
    rng = Random(seed)
    draw = _member_sampler(diagram)

    ev_violations = policy_violations = 0
    worst = 0.0
    sampled_min = sampled_max = None
    admitted_at = {
        name: _admitted_by_state(diagram, name, report.policies[name])
        for name in diagram.names(NodeKind.DECISION)
    }
    for _ in range(samples):
        member = draw(rng)
        solution = point_solve(diagram, member)
        ev = solution.expected_value
        sampled_min = ev if sampled_min is None else min(sampled_min, ev)
        sampled_max = ev if sampled_max is None else max(sampled_max, ev)
        margin = max(lo - ev, ev - hi)
        worst = max(worst, margin)
        if margin > _EV_TOL:
            ev_violations += 1
        for name, entries in solution.policy.items():
            admitted = admitted_at[name]
            for info_idx, entry in entries.items():
                if not entry.reached:
                    continue
                allowed = admitted[info_idx]
                if any(d not in allowed for d in entry.tied):
                    policy_violations += 1

    return SoundnessReport(
        samples=samples,
        interval=(lo, hi),
        ev_violations=ev_violations,
        policy_violations=policy_violations,
        worst_ev_margin=worst,
        sampled_min=sampled_min,
        sampled_max=sampled_max,
    )


def _admitted_by_state(diagram, name: str, admitted) -> list[tuple[int, ...]]:
    """The admissible set for every configuration of a decision's full
    parent set (the index ``point_solve`` keys its policy by), read through
    the (sub)set of parents the admissible table is keyed by."""
    steps = _steps(admitted.info_parents, admitted.info_cards)
    index = [0]
    for parent in diagram.node(name).parents:
        step = steps.get(parent, 0)
        index = [base + v * step for base in index for v in range(diagram.card(parent))]
    return [admitted.sets[i] for i in index]
