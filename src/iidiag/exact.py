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
# Classical evaluation
# ---------------------------------------------------------------------------

# The plan tabulates offsets for the innermost levels of the sum/max order
# whose joint has at most this many leaves; the levels above them are walked
# one configuration at a time. A plan and an evaluation's working lists are
# therefore bounded by this constant, not by the size of the joint.
_BLOCK_LEAVES = 1024

# The largest joint a plan is compiled for. No joint past it could be walked
# in any time, and as every variable has at least 2 outcomes the limit also
# keeps the recursive walk to at most 64 outer levels, so a long chain is
# refused with a typed error instead of overflowing the stack.
_MAX_LEAVES = 2**64

# A block reads a column through an itemgetter on the window of the table
# that the column spans from the block's base. On CPython 3.11 (x86-64) the
# copy costs about 3.5 ns per window entry and the itemgetter saves about
# 120 ns per leaf over adding the base to each offset, so a column that
# spans more than this many entries per leaf is read offset by offset.
_WINDOW_SPAN = 8

# soundness_check evaluates its members with point_solve while the joint fits
# one block, so the sampled values of every such diagram stay point_solve's
# floats, and by variable elimination past it, where point_solve walks the
# joint one block at a time.
_ELIMINATION_LEAVES = _BLOCK_LEAVES

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
    tabulated part: an offset per leaf for the chance and value targets,
    ``group_offsets[q]`` per group for a decision at inner level ``q``
    (``None`` at a chance level). Leaves and groups are in walk order, last
    level fastest.

    ``readers[j](table, base)`` reads target ``j``'s leaf column from its
    flattened table (see :func:`_reader`). The first ``hoisted`` chance
    targets move at no outer level, so their columns are the same in every
    block.
    """

    chance: tuple[tuple[str, int, int], ...]  # (name, rows, outcomes)
    value_rows: int
    outer: tuple[_Level, ...]
    inner: tuple[_Level, ...]
    readers: tuple[Callable[[Sequence[float], int], Iterable[float]], ...]
    hoisted: int
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


def _reader(offsets: Sequence[int]) -> Callable[[Sequence[float], int], Iterable[float]]:
    """Reads a table's entries at ``offsets`` plus a base: with one
    :func:`_picker` on the table at base 0, and on the window that the
    offsets span from the base otherwise. A window longer than
    ``_WINDOW_SPAN`` entries per offset is not copied; the base is added to
    each offset instead."""
    pick = _picker(offsets)
    extent = max(offsets) + 1
    if extent <= _WINDOW_SPAN * len(offsets):
        return lambda table, base: pick(table[base:base + extent]) if base else pick(table)
    return lambda table, base: (
        map(table.__getitem__, map(base.__add__, offsets)) if base else pick(table)
    )


def _compile(diagram: InfluenceDiagram) -> _Plan:
    check_structure(diagram)  # a hand-built diagram gets typed errors
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

    if config_count([level.card for level in levels]) > _MAX_LEAVES:
        raise CombinatorialLimitExceeded(
            f"the joint of {len(levels)} variables exceeds {_MAX_LEAVES} leaves"
        )

    split, leaves = len(levels), 1
    while split and leaves * levels[split - 1].card <= _BLOCK_LEAVES:
        split -= 1
        leaves *= levels[split].card
    inner = levels[split:]

    names = [level.name for level in inner]
    cards = [level.card for level in inner]
    group_offsets = [
        tuple(_offsets(names[:q], cards[:q], targets[level.target]))
        if level.target >= 0 else None
        for q, level in enumerate(inner)
    ]
    outer = levels[:split]
    hoisted = 0
    while hoisted < len(chance) and not any(level.steps[hoisted] for level in outer):
        hoisted += 1
    return _Plan(
        chance=tuple(chance),
        value_rows=len(value.value_table.rows),
        outer=tuple(outer),
        inner=tuple(inner),
        readers=tuple(
            _reader(_offsets(names, cards, steps)) for steps in targets[:first_decision]
        ),
        hoisted=hoisted,
        group_offsets=tuple(group_offsets),
        ones=(1.0,) * leaves,
    )


_PLANS: dict[int, _Plan] = {}


def _cached(cache: dict, compile_: Callable, diagram: InfluenceDiagram):
    """``compile_(diagram)``, compiled on first use and dropped with the
    diagram (diagrams are immutable, so a plan never goes stale)."""
    key = id(diagram)
    plan = cache.get(key)
    if plan is None:
        plan = cache[key] = compile_(diagram)
        weakref.finalize(diagram, cache.pop, key, None)
    return plan


def _plan_of(diagram: InfluenceDiagram) -> _Plan:
    """The diagram's plan (see :func:`_cached`). Compiling checks the
    diagram, so every diagram is checked once, before any row is read."""
    return _cached(_PLANS, _compile, diagram)


def _check_shape(plan: _Plan | _Elimination, realization: PointRealization) -> None:
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


def _tables(plan: _Plan | _Elimination, realization: PointRealization) -> list:
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


def _reduce(levels, group_offsets, bases, policy, reach, total) -> tuple[float, float]:
    """Reach and expected value of a block of ``levels``, from its leaves'
    ``reach`` and ``total`` columns (in walk order, last level fastest),
    summed (chance) or maximized (decision) level by level from the bottom.
    Reach is only reduced in a diagram with decisions; without one nothing
    reads it."""
    track_reach = bool(policy)
    for level, groups in zip(reversed(levels), reversed(group_offsets)):
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


def _evaluate_block(plan: _Plan, tables, prefix, policy, bases) -> tuple[float, float]:
    """Reach and expected value of the inner block below one outer
    configuration. ``prefix`` holds the product of the hoisted columns."""
    h = plan.hoisted
    columns = [
        read(table, base)
        for table, base, read in zip(tables[h:], bases[h:], plan.readers[h:])
    ]
    # leaf weight: 1.0 times each chance node's probability in names(CHANCE)
    # order, then times the leaf's value
    reach = prefix
    for column in columns[:-1]:
        reach = list(map(mul, reach, column))
    total = list(map(mul, reach, columns[-1]))
    return _reduce(plan.inner, plan.group_offsets, bases, policy, reach, total)


def _walk(plan: _Plan, tables, prefix, policy, pos: int, bases) -> tuple[float, float]:
    """Depth-first over the outer levels, carrying each target's base."""
    if pos == len(plan.outer):
        return _evaluate_block(plan, tables, prefix, policy, bases)
    level = plan.outer[pos]
    results = [
        _walk(plan, tables, prefix, policy, pos + 1,
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
    (decision) level by level in the sum/max order. The leading columns that
    no outer level moves are multiplied once per call, the rest once per
    block, so every leaf's weight is the same product in the same order.
    Sums run left to right from 0.0, so the result is the same float a
    depth-first walk gives."""
    plan = _plan_of(diagram)
    tables = _tables(plan, realization)
    prefix = plan.ones
    for table, read in zip(tables[:plan.hoisted], plan.readers):
        prefix = list(map(mul, prefix, read(table, 0)))  # every base is 0
    policy: dict[str, dict[int, PolicyEntry]] = {d: {} for d in diagram.decision_order}
    bases = [0] * (len(tables) + len(diagram.decision_order))
    _, total = _walk(plan, tables, prefix, policy, 0, bases)
    return PointSolution(expected_value=total, policy=policy)


# ---------------------------------------------------------------------------
# Evaluation by variable elimination
# ---------------------------------------------------------------------------

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
    """Everything about a diagram that :func:`eliminate` needs besides the
    numbers of a realization.

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
    to the last decision, ``levels``, which are then reduced as one block
    of :func:`point_solve` is (``group_offsets``, ``bases``)."""

    chance: tuple[tuple[str, int, int], ...]  # (name, rows, outcomes)
    value_rows: int
    steps: tuple[tuple[int, _Product], ...]  # (k, product)
    head: _Product
    levels: tuple[_Level, ...]
    group_offsets: tuple[tuple[int, ...] | None, ...]
    bases: tuple[int, ...]
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
    # before the group offsets, so a head past the limit is refused first
    head_product = _product(head, card, scopes, live, pair_scope)
    levels, group_offsets = [], []
    for q, name in enumerate(head):
        node = diagram.node(name)
        if node.kind is NodeKind.DECISION:
            levels.append(_Level(name, card[name], decisions.index(name), ()))
            info = _steps(node.parents, diagram.cards_of(node.parents))
            group_offsets.append(
                tuple(_offsets(head[:q], [card[n] for n in head[:q]], info))
            )
        else:
            levels.append(_Level(name, card[name], -1, ()))
            group_offsets.append(None)
    return _Elimination(
        chance=tuple(chance),
        value_rows=len(value.value_table.rows),
        steps=tuple(steps),
        head=head_product,
        levels=tuple(levels),
        group_offsets=tuple(group_offsets),
        bases=(0,) * len(decisions),
        ones=(1.0,) * len(value.value_table.rows) if decisions else None,
    )


_ELIMINATIONS: dict[int, _Elimination] = {}


def _elimination_of(diagram: InfluenceDiagram) -> _Elimination:
    """The diagram's elimination plan (see :func:`_cached`), which checks
    the diagram as :func:`_plan_of` does."""
    return _cached(_ELIMINATIONS, _compile_elimination, diagram)


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


def eliminate(
    diagram: InfluenceDiagram, realization: PointRealization
) -> PointSolution:
    """:func:`point_solve`'s expected value and policy by variable
    elimination in a strong order (Jensen, Jensen & Dittmer 1994): the
    variables after the last decision in the sum/max order are summed out
    one factor product at a time, last first, and what is left is a table
    over the variables up to the last decision, reduced level by level as
    a block of ``point_solve`` is. Each decision is therefore maximized over
    the same unnormalised reach and total at each information state, so
    ties and ``reached`` mean the same; floats differ from ``point_solve``'s
    in the last digits, as the sums run in another order.

    The cost grows with the largest product's scope and the last decision's
    information states, not with the joint, so a joint past the 2**64
    leaves ``point_solve`` refuses is evaluated too."""
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
    if plan.levels:
        _, total = _reduce(plan.levels, plan.group_offsets, plan.bases, policy, reach, total)
    else:
        total = total[0]
    return PointSolution(expected_value=total, policy=policy)


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
    _plan_of(diagram)  # checks the diagram before its rows are read
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
    are counted, not raised. Members are evaluated by :func:`point_solve`
    while the joint has at most ``_ELIMINATION_LEAVES`` leaves and by
    :func:`eliminate` past that."""
    if samples < 0:
        raise MalformedSpec(f"sample count {samples} is negative")
    if report is None:
        report = solve(diagram)
    lo, hi = report.final_interval
    rng = Random(seed)
    joint = config_count([n.variable.cardinality for n in diagram.nodes.values()
                          if n.variable is not None])
    # either compile checks the diagram before the sampler reads its rows
    if joint > _ELIMINATION_LEAVES:
        _elimination_of(diagram)
        evaluate = eliminate
    else:
        _plan_of(diagram)
        evaluate = point_solve
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
        solution = evaluate(diagram, member)
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
