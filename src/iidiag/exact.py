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
from math import isfinite
from operator import add, itemgetter, mul
from random import Random
from typing import Callable, Iterable, Sequence

from .errors import (
    CombinatorialLimitExceeded,
    MalformedSpec,
    NonPointResidual,
    ShapeMismatch,
)
from .model import (
    InfluenceDiagram,
    NodeKind,
    TOL,
    check_structure,
    config_count,
    is_point_row,
    running_sum,
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
# Classical evaluation by variable elimination
# ---------------------------------------------------------------------------

# The largest table an evaluation tabulates. No table past it could be
# filled in any time, so a diagram that needs one is refused with a typed
# error before any row is read.
_MAX_LEAVES = 2**64

_ZERO = 0.0  # every sum starts here, so -0.0 terms add up to 0.0
_NEGATIVE = -1e-9  # a realization's probability below this is rejected


@dataclass(frozen=True)
class _Level:
    """One variable up to the last decision in the sum/max order. For a
    decision, ``groups`` holds its information state at each configuration
    of the levels above it (last fastest); for a chance level it is None."""

    name: str
    card: int
    groups: tuple[int, ...] | None


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


def _offsets(names: Sequence[str], cards: Sequence[int], steps: dict[str, int]) -> list[int]:
    """The index, in a table whose strides are ``steps``, of every
    configuration of ``names`` (``cards`` outcomes each, last fastest); a
    name without a stride does not move the index."""
    out = [0]
    for name, card in zip(names, cards):
        step = steps.get(name, 0)
        out = [base + i * step for base in out for i in range(card)]
    return out


def _picker(offsets: Sequence[int]) -> Callable[[Sequence[float]], Sequence[float]]:
    """An ``itemgetter`` for the entries at ``offsets``; a one-offset
    column is read as a sequence too, where a plain ``itemgetter`` returns
    the entry itself."""
    if len(offsets) == 1:
        return itemgetter(slice(offsets[0], offsets[0] + 1))
    return itemgetter(*offsets)


@dataclass(frozen=True)
class _Product:
    """Factors multiplied over one scope (its variables in sum/max order,
    last fastest). ``inputs`` are slots of probability factors, each read
    through its gather: a :func:`_picker` of the factor's entry at every
    configuration of the scope, or ``None`` where the factor is laid out
    over the scope already. If ``pair``, the reach and total tables are
    read through ``pair_gather`` and multiplied by the product."""

    inputs: tuple[int, ...]
    gathers: tuple[Callable[[Sequence[float]], Sequence[float]] | None, ...]
    pair: bool
    pair_gather: Callable[[Sequence[float]], Sequence[float]] | None


@dataclass(frozen=True)
class _Elimination:
    """Everything about a diagram that :func:`point_solve` needs besides
    the numbers of a realization.

    A factor is a flat table over its scope. Slots ``0 .. len(chance)-1``
    hold the chance nodes' flattened rows (scope: parents, then the node),
    slot ``len(chance)`` the values, and each summed product appends one
    slot. The value table starts the *pair*: a total table, the values
    times every probability factor multiplied into it, and a reach table,
    the same product without the values (tracked only in a diagram with
    decisions). ``steps`` sum out the variables after the last decision in
    the sum/max order, last first: each multiplies the factors that hold
    its variable, placed last in the product's scope, and sums runs of
    ``k`` entries. ``head`` multiplies what is left over the variables up
    to the last decision, ``levels``, which :func:`_reduce` then sums or
    maximizes one by one from the bottom."""

    chance: tuple[tuple[str, int, int], ...]  # (name, rows, outcomes)
    value_rows: int
    steps: tuple[tuple[int, _Product], ...]  # (k, product)
    head: _Product
    levels: tuple[_Level, ...]
    ones: tuple[float, ...] | None  # the reach table before any product


def _product(names, card, scopes, inputs, pair_scope) -> _Product:
    """The product over the scope ``names`` of the probability factors in
    slots ``inputs`` (``scopes[slot]`` each) and, unless ``pair_scope`` is
    None, of the pair."""
    cards = [card[n] for n in names]
    size = config_count(cards)
    if size > _MAX_LEAVES:
        raise CombinatorialLimitExceeded(
            f"variable elimination needs a table of {size} entries, past {_MAX_LEAVES}"
        )

    def gather(scope):
        offsets = _offsets(names, cards, _steps(scope, [card[n] for n in scope]))
        return None if offsets == list(range(size)) else _picker(offsets)

    return _Product(
        tuple(inputs), tuple(gather(scopes[slot]) for slot in inputs),
        pair_scope is not None, None if pair_scope is None else gather(pair_scope),
    )


def _compile_elimination(diagram: InfluenceDiagram) -> _Elimination:
    check_structure(diagram)  # a hand-built diagram gets typed errors
    order = _sum_max_order(diagram)
    rank = {name: i for i, name in enumerate(order)}
    card = {name: diagram.card(name) for name in order}
    chance, scopes = [], []
    for name in diagram.names(NodeKind.CHANCE):
        node = diagram.node(name)
        chance.append((name, len(node.chance_table.rows), node.cardinality))
        scopes.append((*node.parents, name))
    value = diagram.value_node
    pair_scope = value.parents
    scopes.append(pair_scope)
    live = list(range(len(chance)))  # probability factors not multiplied yet

    decisions = diagram.decision_order
    split = rank[decisions[-1]] + 1 if decisions else 0
    steps = []
    for name in reversed(order[split:]):
        inputs = [slot for slot in live if name in scopes[slot]]
        live = [slot for slot in live if slot not in inputs]
        pair = name in pair_scope
        held = {n for slot in inputs for n in scopes[slot]}
        if pair:
            held.update(pair_scope)
        held.discard(name)
        names = (*sorted(held, key=rank.__getitem__), name)
        steps.append((card[name], _product(
            names, card, scopes, inputs, pair_scope if pair else None)))
        if pair:
            pair_scope = names[:-1]
        else:
            live.append(len(scopes))
            scopes.append(names[:-1])

    head = order[:split]
    # before the information states, so a head past the limit is refused first
    head_product = _product(head, card, scopes, live, pair_scope)
    levels = []
    for q, name in enumerate(head):
        node = diagram.node(name)
        groups = None
        if node.kind is NodeKind.DECISION:
            info = _steps(node.parents, diagram.cards_of(node.parents))
            groups = tuple(_offsets(head[:q], [card[n] for n in head[:q]], info))
        levels.append(_Level(name, card[name], groups))
    return _Elimination(
        chance=tuple(chance),
        value_rows=len(value.value_table.rows),
        steps=tuple(steps),
        head=head_product,
        levels=tuple(levels),
        ones=(1.0,) * len(value.value_table.rows) if decisions else None,
    )


_ELIMINATIONS: dict[int, _Elimination] = {}


def _elimination_of(diagram: InfluenceDiagram) -> _Elimination:
    """The diagram's plan, compiled on first use and dropped with the
    diagram. Model objects are immutable, so a plan never goes stale.
    Compiling checks the diagram, so every diagram is checked once, before
    any row is read."""
    key = id(diagram)
    plan = _ELIMINATIONS.get(key)
    if plan is None:
        plan = _ELIMINATIONS[key] = _compile_elimination(diagram)
        weakref.finalize(diagram, _ELIMINATIONS.pop, key, None)
    return plan


def _check_shape(plan: _Elimination, realization: PointRealization) -> None:
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
            # written so that a NaN entry fails too
            if not abs(running_sum(row) - 1.0) <= 1e-9 or any(map(_NEGATIVE.__gt__, row)):
                raise ShapeMismatch(f"{name}: row {r} is not a distribution")
    if len(realization.values) != plan.value_rows:
        raise ShapeMismatch("value row count mismatch")
    if not all(map(isfinite, realization.values)):
        raise ShapeMismatch("value rows must be finite")


def _tables(plan: _Elimination, realization: PointRealization) -> list:
    """The realization's tables, checked against the plan's shapes: each
    chance node's rows flattened (entry ``row * k + outcome``), in
    ``names(CHANCE)`` order, then the values."""
    _check_shape(plan, realization)
    tables = [
        list(itertools.chain.from_iterable(realization.chance[name]))
        for name, _, _ in plan.chance
    ]
    tables.append(realization.values)
    return tables


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
    """Sum of each run of ``k`` consecutive values, added left to right
    from 0.0 as :func:`~iidiag.model.running_sum` adds them, for all runs at
    once."""
    acc = map(_ZERO.__add__, values[::k])
    for i in range(1, k):
        acc = map(add, acc, values[i::k])
    return list(acc)


def _reduce(levels: Sequence[_Level], policy, reach, total) -> float:
    """Expected value of the table over ``levels`` (last fastest), from its
    ``reach`` and ``total`` entries, summed (chance) or maximized (decision)
    level by level from the bottom; each decision's policy entries are
    recorded in ``policy``."""
    for level in reversed(levels):
        k = level.card
        if level.groups is None:
            total = _sum_groups(total, k)
            reach = _sum_groups(reach, k)
        else:
            entries = policy[level.name]
            reduced = [
                _decide(entries, info_idx, reach[g:g + k], total[g:g + k])
                for g, info_idx in zip(range(0, len(total), k), level.groups)
            ]
            reach = [r for r, _ in reduced]
            total = [t for _, t in reduced]
    return total[0]


def _multiply(product: _Product, tables, reach, total):
    """The probability factors' product over ``product``'s scope, or, for a
    pair product, the reach and total tables multiplied by it."""
    weight = None
    for slot, gather in zip(product.inputs, product.gathers):
        column = tables[slot] if gather is None else gather(tables[slot])
        weight = column if weight is None else list(map(mul, weight, column))
    if not product.pair:
        return weight
    gather = product.pair_gather
    if gather is not None:
        total = gather(total)
        reach = None if reach is None else gather(reach)
    if weight is not None:
        total = list(map(mul, weight, total))
        reach = None if reach is None else list(map(mul, weight, reach))
    return reach, total


def point_solve(
    diagram: InfluenceDiagram, realization: PointRealization
) -> PointSolution:
    """Classical optimal expected value and argmax policy for one admitted
    point model. Ties break to the lowest alternative index and every tied
    optimum is recorded.

    It evaluates by variable elimination in a strong order (Jensen, Jensen
    & Dittmer 1994), compiled once per diagram object: the variables after
    the last decision in the sum/max order are summed out one factor
    product at a time, last first, and what is left is a table over the
    variables up to the last decision, reduced level by level from the
    bottom. Each decision is maximized over the unnormalised reach and
    total at each information state, so a state the observations and
    earlier choices cannot reach is marked unreached. Sums run left to
    right from 0.0.

    The cost grows with the largest product's scope and the last decision's
    information states, not with the joint, so a joint past 2**64 leaves is
    evaluated too; a table past ``_MAX_LEAVES`` entries is refused."""
    plan = _elimination_of(diagram)
    tables = _tables(plan, realization)
    reach, total = plan.ones, tables[len(plan.chance)]
    for k, product in plan.steps:
        if product.pair:
            reach, total = _multiply(product, tables, reach, total)
            total = _sum_groups(total, k)
            reach = None if reach is None else _sum_groups(reach, k)
        else:
            tables.append(_sum_groups(_multiply(product, tables, None, None), k))
    reach, total = _multiply(plan.head, tables, reach, total)
    policy: dict[str, dict[int, PolicyEntry]] = {d: {} for d in diagram.decision_order}
    value = _reduce(plan.levels, policy, reach, total) if plan.levels else total[0]
    # a product of -0.0 payoffs that no later sum absorbs is -0.0; the
    # expected value is a sum, so it is 0.0
    return PointSolution(expected_value=_ZERO + value, policy=policy)


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------

def vertex_realizations(row: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """Vertices of {p >= row, sum(p) = 1}: the free mass 1 - sum(row) placed
    on each outcome in turn (a single point when the row already sums to 1)."""
    free = 1.0 - running_sum(row)
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
    if cap < 0:
        raise MalformedSpec(f"cap {cap} is negative")
    _elimination_of(diagram)  # checks the diagram before its rows are read
    varied = list(varied_nodes)
    chance_names = diagram.names(NodeKind.CHANCE)
    for name in varied:
        if name not in chance_names:
            raise MalformedSpec(f"{name!r} is not a chance node")

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
    s = running_sum(draws)
    return [d / s for d in draws]


def _uniform(rng: Random, lo: float, hi: float) -> float:
    """A point of ``[lo, hi]`` from one ``rng.random()``: ``rng.uniform(lo,
    hi)``'s value whenever the width ``hi - lo`` is finite. A width past the
    float range would make that value inf or NaN, so then the point is
    weighed from the two ends instead."""
    u = rng.random()
    width = hi - lo
    if isfinite(width):
        return lo + width * u
    return lo * (1.0 - u) + hi * u


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
            free = 1.0 - running_sum(row)
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
        values = tuple([_uniform(rng, lo, hi) if hi > lo else lo for lo, hi in value_rows])
        return PointRealization(chance=members, values=values)

    return draw


def sample_member(diagram: InfluenceDiagram, seed: int) -> PointRealization:
    """A random admitted point model: per row, the free mass is spread over
    the outcomes uniformly on the allocation simplex; values are uniform in
    their intervals. Deterministic given the seed."""
    check_structure(diagram)
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
    are counted, not raised. Each member is evaluated by :func:`point_solve`."""
    if samples < 0:
        raise MalformedSpec(f"sample count {samples} is negative")
    if report is None:
        report = solve(diagram)
    lo, hi = report.final_interval
    rng = Random(seed)
    _elimination_of(diagram)  # checks the diagram before the sampler reads its rows
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
    parents = diagram.node(name).parents
    steps = _steps(admitted.info_parents, admitted.info_cards)
    return [admitted.sets[i] for i in _offsets(parents, diagram.cards_of(parents), steps)]
