"""Value-preserving diagram transformations.

Each operation checks its input's graph and the tables it reads, and
returns a fresh diagram, with the tables the operation produced checked,
together with a :class:`TransformStep` describing what ran. Steps carry
machine-readable notes about rows where conditioning on a (possibly)
zero-probability event forced a convention: a stored zero lower bound that
is either a sound "convention zero" or a genuinely indeterminate row.

Tie-breaking everywhere is by lowest outcome index; the computed bounds are
invariant under the choice among tied candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import ArcMissing, NotBarren, NotRemovable, WouldCreateCycle
from .model import (
    InfluenceDiagram,
    IntervalValueTable,
    LowerCPT,
    Node,
    NodeKind,
    TOL,
    _Graph,
    check_graph,
    check_table_rows,
    checked_rows,
    row_map,
)


def fmt(x: float) -> str:
    """A number as every text output prints it: four significant digits."""
    return f"{x:.4g}"


class StepKind(Enum):
    REMOVE_BARREN = "remove_barren"
    REMOVE_DECISION = "remove_decision"
    REMOVE_CHANCE_INTO_VALUE = "remove_chance_into_value"
    MARGINALIZE_CHANCE = "marginalize_chance"
    REVERSE_ARC = "reverse_arc"


@dataclass(frozen=True)
class BoundNote:
    """Records one produced lower bound that is zero by convention or whose
    row is indeterminate (conditioning on an impossible event)."""

    kind: str  # "convention_zero" | "indeterminate"
    node: str
    row_index: int
    outcome: int


@dataclass(frozen=True)
class AdmissibleSet:
    """Per information state, the decision alternatives that are not strictly
    interval-dominated. Never empty: the alternative with the best upper
    bound is always a member."""

    decision: str
    alternatives: tuple[str, ...]
    info_parents: tuple[str, ...]
    info_cards: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        assert all(s for s in self.sets), "admissible set must never be empty"

    def labels(self, config: int) -> tuple[str, ...]:
        return tuple(self.alternatives[i] for i in self.sets[config])

    def any_state_union(self) -> tuple[int, ...]:
        """Alternatives admissible in at least one information state."""
        return tuple(sorted({i for s in self.sets for i in s}))

    def to_dict(self) -> dict:
        """The JSON form ``solve --json`` and ``sweep --json`` print."""
        return {
            "alternatives": list(self.alternatives),
            "info_parents": list(self.info_parents),
            "sets": [list(s) for s in self.sets],
        }


@dataclass(frozen=True)
class TransformStep:
    """One completed transformation, as :meth:`StepShape.run` reports it.

    ``node`` is the removed / marginalized / reversed-from node; ``into``
    names the target (the value node, the absorbing chance node, or the arc
    head for a reversal). ``admissible`` is filled for decision removals and
    for a dropped barren decision (every alternative, at the empty
    information state), ``lower_gap`` for decision removals and ``notes``
    for reversals.
    """

    kind: StepKind
    node: str
    into: str | None = None
    admissible: AdmissibleSet | None = None
    notes: tuple[BoundNote, ...] = ()
    lower_gap: float | None = None

    def describe(self) -> str:
        head = self.kind.value + " " + self.node
        if self.into is not None:
            arrow = "->" if self.kind is StepKind.REVERSE_ARC else "into"
            head += f" {arrow} {self.into}"
        bits = []
        if self.notes:
            conv = sum(1 for n in self.notes if n.kind == "convention_zero")
            ind = sum(1 for n in self.notes if n.kind == "indeterminate")
            if conv:
                bits.append(f"{conv} convention-zero bounds")
            if ind:
                bits.append(f"{ind} indeterminate bounds")
        if self.lower_gap is not None and self.lower_gap > 0:
            bits.append(f"lower-bound attainment gap {fmt(self.lower_gap)}")
        return head + (f" ({', '.join(bits)})" if bits else "")


# ---------------------------------------------------------------------------
# Row-level bound arithmetic. These are the numeric contracts the diagram
# operations are assembled from; tests drive them directly against
# brute-force oracles. Each is a plain loop that adds left to right from
# 0.0, as ``model.running_sum`` does, so every Python gives the same floats.
# ---------------------------------------------------------------------------

def _free_mass(row: Sequence[float]) -> float:
    # clamped so point rows (sum within TOL of 1) keep exactly zero slack
    # and zero bounds keep exactly zero uppers
    total = 0.0
    for b in row:
        total += b
    free = 1.0 - total
    return 0.0 if free < TOL else free


def contraction_bounds(
    b_row: Sequence[float], intervals: Sequence[tuple[float, float]]
) -> tuple[float, float]:
    """Tightest interval for sum(v[y] * p[y]) with p dominating ``b_row`` and
    each v[y] inside ``intervals[y]``, a value table's (low, high) row.

    The extremes put the free mass 1 - sum(b) on the outcome with the worst
    (best) interval endpoint, with values at the matching box corner.
    """
    total = lo = hi = 0.0
    worst, best = intervals[0]
    for b, (low, high) in zip(b_row, intervals):
        total += b
        lo += low * b
        hi += high * b
        if low < worst:
            worst = low
        if high > best:
            best = high
    free = 1.0 - total
    if free < TOL:
        free = 0.0
    return lo + free * worst, hi + free * best


def mixture_lower_bound(coeffs: Sequence[float], b_row: Sequence[float]) -> float:
    """Greatest lower bound of sum(c[y] * p[y]) for p dominating ``b_row``,
    with fixed nonnegative coefficients: free mass lands on the smallest
    coefficient."""
    total = acc = 0.0
    least = coeffs[0]
    for c, b in zip(coeffs, b_row):
        total += b
        acc += c * b
        if c < least:
            least = c
    free = 1.0 - total
    if free < TOL:
        free = 0.0
    return acc + free * least


def posterior_lower_bound(
    b_x: Sequence[float], u_x: Sequence[float], b_y: Sequence[float], y: int
) -> tuple[float, str]:
    """Greatest lower bound of p(y | x) under independent row bounds.

    ``b_x[i]`` / ``u_x[i]`` bound the likelihood of the conditioning outcome
    given y_i; ``b_y`` is the prior's lower-bound row. Minimizing the
    posterior keeps y at its floor while the strongest competitor (largest
    likelihood upper bound) absorbs the prior's free mass.

    Returns ``(bound, flag)`` with flag "ok", or "convention_zero" /
    "indeterminate" when every admitted distribution gives the conditioning
    outcome zero weight in the pessimistic scenario; both store bound 0.
    """
    # One pass finds the prior's free mass and the strongest competitor s
    # (lowest index among ties); a second adds up the competitors besides s.
    total = 0.0
    s = -1
    for i, b in enumerate(b_y):
        total += b
        if i != y and (s < 0 or u_x[i] > u_x[s]):
            s = i
    free_y = 1.0 - total
    if free_y < TOL:
        free_y = 0.0
    rest = 0.0
    for i, b in enumerate(b_y):
        if i != y and i != s:
            rest += u_x[i] * b
    floor = b_x[y] * b_y[y]
    w = floor + u_x[s] * (b_y[s] + free_y) + rest
    if w > 0.0:
        return floor / w, "ok"
    for j, b in enumerate(b_y):
        if j != y and j != s and u_x[j] * (b + free_y) > 0.0:
            return 0.0, "convention_zero"
    return 0.0, "indeterminate"


# ---------------------------------------------------------------------------
# Table plumbing. Tables are flat row lists in mixed-radix order (last parent
# fastest). A step walks the rows of the table it produces and finds each
# source row through a precomputed row map; the rows for the outcomes of a
# summed-out variable sit one stride apart from the mapped base row.
# ---------------------------------------------------------------------------

Rows = tuple[tuple[float, ...], ...]


def _merge_parents(primary: Sequence[str], drop: str, extra: Sequence[str]) -> tuple[str, ...]:
    kept = [p for p in primary if p != drop]
    return tuple(kept + [p for p in extra if p not in kept])


# ---------------------------------------------------------------------------
# Step shapes. Which step runs, and every index it reads, depends on the
# graph and the cardinalities alone; the numbers only enter in ``run``. A
# shape is the only form a step has before it runs: ``solver.next_step``
# plans one, and the public transformations below and ``solver.solve``'s
# compiled plans run them, so each transformation's row arithmetic exists
# once.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProducedTable:
    """A table a step produces: its node, its parents and their
    cardinalities, and the node's outcome count (None for the value node)."""

    name: str
    parents: tuple[str, ...]
    cards: tuple[int, ...]
    outcomes: int | None


@dataclass(frozen=True)
class StepShape:
    """One step as far as structure fixes it: kind, nodes, the nodes it
    removes, the tables it produces and, when the rows cannot change what
    the step reports (a fold, a marginalization, a dropped chance node),
    the completed step, built once per shape (else None). Each subclass
    adds the row maps its arithmetic walks and a ``run(tables, diagram)``
    that returns the rows of each produced table, computed from ``tables``
    (the current rows by node name), and the completed step; ``diagram``
    is read for decision alternatives only."""

    kind: StepKind
    node: str
    into: str | None
    removed: tuple[str, ...]
    produced: tuple[ProducedTable, ...]
    step: TransformStep | None

    def run_checked(self, tables, diagram):
        """:meth:`run`, then :func:`~iidiag.model.check_table_rows` on every
        produced table: the only tables a step adds to its checked input."""
        produced, step = self.run(tables, diagram)
        for table, rows in zip(self.produced, produced):
            check_table_rows(table.name, rows, table.cards, table.outcomes)
        return produced, step

    def successor(self, diagram: InfluenceDiagram, produced: Sequence[Rows]) -> InfluenceDiagram:
        """``diagram`` after this step: removed nodes dropped, and produced
        nodes given their new parents and their new tables, whose rows are
        ``produced``."""
        updates = {}
        for i, table in enumerate(self.produced):
            old = diagram.nodes[table.name]
            if table.outcomes is None:
                new = Node(table.name, old.kind, old.variable, table.parents,
                           value_table=IntervalValueTable(table.parents, table.cards, produced[i]))
            else:
                new = Node(table.name, old.kind, old.variable, table.parents,
                           chance_table=LowerCPT(table.parents, table.cards, produced[i]))
            updates[table.name] = new
        return diagram.replace_nodes(updates, remove=self.removed)


@dataclass(frozen=True)
class _Barren(StepShape):
    def run(self, tables, diagram):
        if self.step is not None:
            return (), self.step
        # A dropped decision never influences value: every alternative is
        # admissible at the one, empty information state.
        alternatives = diagram.node(self.node).variable.outcomes
        admissible = AdmissibleSet(
            self.node, alternatives, (), (), (tuple(range(len(alternatives))),)
        )
        return (), TransformStep(self.kind, node=self.node, admissible=admissible)


@dataclass(frozen=True)
class _Fold(StepShape):
    b_map: tuple[int, ...]  # per new value row: the chance row
    v_map: tuple[int, ...]  # per new value row: old value row at outcome 0
    stride: int
    span: int

    def run(self, tables, diagram):
        b_rows, v_rows = tables[self.node], tables[self.into]
        stride, span = self.stride, self.span
        rows = []
        for b_idx, base in zip(self.b_map, self.v_map):
            rows.append(contraction_bounds(b_rows[b_idx], v_rows[base : base + span : stride]))
        return (tuple(rows),), self.step


@dataclass(frozen=True)
class _Decision(StepShape):
    v_map: tuple[int, ...]  # per information state: value row at alternative 0
    stride: int
    span: int

    def run(self, tables, diagram):
        v_rows = tables[self.into]
        stride, span = self.stride, self.span
        rows, sets = [], []
        worst_gap = 0.0
        for base in self.v_map:
            admitted, lo, hi, floor = _undominated(v_rows[base : base + span : stride])
            rows.append((lo, hi))
            sets.append(admitted)
            # The reported hull minimum can sit below the best attainable
            # floor (max over all alternatives of the lower endpoint).
            worst_gap = max(worst_gap, floor - lo)
        info = self.produced[0]
        admissible = AdmissibleSet(
            decision=self.node,
            alternatives=diagram.node(self.node).variable.outcomes,
            info_parents=info.parents,
            info_cards=info.cards,
            sets=tuple(sets),
        )
        step = TransformStep(
            self.kind, node=self.node, into=self.into,
            admissible=admissible, lower_gap=worst_gap,
        )
        return (tuple(rows),), step


def _marginal_rows(
    y_rows: Rows, x_rows: Rows, b_map: Sequence[int], x_map: Sequence[int],
    stride: int, span: int,
) -> Rows:
    """Lower bounds for x with y summed out: per target outcome, the minimum
    of a fixed-coefficient mixture over the prior's admitted distributions."""
    rows = []
    for b_idx, base in zip(b_map, x_map):
        b_y = y_rows[b_idx]
        # zip(*block): per outcome of x, its bounds given each outcome of y
        rows.append(tuple([
            mixture_lower_bound(coeffs, b_y)
            for coeffs in zip(*x_rows[base : base + span : stride])
        ]))
    return tuple(rows)


@dataclass(frozen=True)
class _Marginal(StepShape):
    b_map: tuple[int, ...]  # per new x row: the row of the summed-out node
    x_map: tuple[int, ...]  # per new x row: old x row at its outcome 0
    stride: int
    span: int

    def run(self, tables, diagram):
        rows = _marginal_rows(
            tables[self.node], tables[self.into], self.b_map, self.x_map,
            self.stride, self.span,
        )
        return (rows,), self.step


@dataclass(frozen=True)
class _Reversal(StepShape):
    b_map: tuple[int, ...]  # x's new table, as in _Marginal
    x_map: tuple[int, ...]
    rest_y_map: tuple[int, ...]  # per assignment of y's new parents but x
    rest_x_map: tuple[int, ...]
    stride: int  # of y in x's old table
    span: int

    def run(self, tables, diagram):
        x, y = self.into, self.node
        x_rows, y_rows = tables[x], tables[y]
        k_x, k_y = self.produced[0].outcomes, self.produced[1].outcomes
        stride, span = self.stride, self.span
        free_x = [_free_mass(row) for row in x_rows]

        # x is the first parent of y's new table, so its rows come in k_x
        # blocks of one row per assignment of the other parents.
        notes: list[BoundNote] = []
        posterior = []
        row_idx = 0
        for x_val in range(k_x):
            for b_idx, base in zip(self.rest_y_map, self.rest_x_map):
                b_y = y_rows[b_idx]
                b_x = [row[x_val] for row in x_rows[base : base + span : stride]]
                u_x = [b + free for b, free in zip(b_x, free_x[base : base + span : stride])]
                row = []
                for y_out in range(k_y):
                    bound, flag = posterior_lower_bound(b_x, u_x, b_y, y_out)
                    if flag != "ok":
                        notes.append(BoundNote(flag, y, row_idx, y_out))
                    row.append(bound)
                posterior.append(tuple(row))
                row_idx += 1

        marginal = _marginal_rows(
            y_rows, x_rows, self.b_map, self.x_map, stride, span
        )
        step = TransformStep(self.kind, node=y, into=x, notes=tuple(notes))
        return (marginal, tuple(posterior)), step


def _row_maps(graph: _Graph, parents: Sequence[str], *sources: Mapping[str, int]) -> tuple:
    """The cards of ``parents``, read off ``graph``, then for each stride
    map in ``sources`` (:meth:`~iidiag.model._Graph.strides_of`) the row
    map of a table over ``parents`` into the table with those strides."""
    cards = graph.cards
    own = tuple([cards[p] for p in parents])
    return (own, *[tuple(row_map(parents, own, steps)) for steps in sources])


def _fold_shape(graph: _Graph, name: str) -> _Fold:
    value = graph.value
    if graph.kind(name) is not NodeKind.CHANCE:
        raise NotRemovable(f"{name!r} is not a chance node")
    if graph.successors[name] != [value]:
        raise NotRemovable(f"{name!r} has successors besides the value node")

    parents, v_parents = graph.parents[name], graph.parents[value]
    v_steps = graph.strides_of(v_parents)
    new_parents = _merge_parents(v_parents, name, parents)
    new_cards, b_map, v_map = _row_maps(graph, new_parents, graph.strides_of(parents), v_steps)
    stride = v_steps[name]
    kind = StepKind.REMOVE_CHANCE_INTO_VALUE
    return _Fold(
        kind, name, value, (name,),
        (ProducedTable(value, new_parents, new_cards, None),),
        TransformStep(kind, node=name, into=value),
        b_map=b_map,
        v_map=v_map,
        stride=stride,
        span=graph.cards[name] * stride,
    )


def _decision_shape(graph: _Graph, name: str) -> _Decision:
    value = graph.value
    if graph.kind(name) is not NodeKind.DECISION:
        raise NotRemovable(f"{name!r} is not a decision node")
    if graph.successors[name] != [value]:
        raise NotRemovable(f"{name!r} has successors besides the value node")
    v_parents = graph.parents[value]
    unobserved = [p for p in v_parents if p != name and p not in graph.parents[name]]
    if unobserved:
        raise NotRemovable(
            f"value parents not observed at {name!r}: {', '.join(unobserved)}"
        )

    v_steps = graph.strides_of(v_parents)
    info_parents = tuple(p for p in v_parents if p != name)
    info_cards, v_map = _row_maps(graph, info_parents, v_steps)
    stride = v_steps[name]
    return _Decision(
        StepKind.REMOVE_DECISION, name, value, (name,),
        (ProducedTable(value, info_parents, info_cards, None),), None,
        v_map=v_map,
        stride=stride,
        span=graph.cards[name] * stride,
    )


def _marginal_shape(graph: _Graph, name: str) -> _Marginal:
    if graph.kind(name) is not NodeKind.CHANCE:
        raise NotRemovable(f"{name!r} is not a chance node")
    succs = graph.successors[name]
    if len(succs) != 1 or graph.kinds[succs[0]] is not NodeKind.CHANCE:
        raise NotRemovable(
            f"{name!r} needs exactly one successor, a chance node; has {succs}"
        )
    x = succs[0]

    parents, x_parents = graph.parents[name], graph.parents[x]
    x_steps = graph.strides_of(x_parents)
    new_parents = _merge_parents(x_parents, name, parents)
    new_cards, b_map, x_map = _row_maps(graph, new_parents, graph.strides_of(parents), x_steps)
    stride = x_steps[name]
    kind = StepKind.MARGINALIZE_CHANCE
    return _Marginal(
        kind, name, x, (name,),
        (ProducedTable(x, new_parents, new_cards, graph.cards[x]),),
        TransformStep(kind, node=name, into=x),
        b_map=b_map,
        x_map=x_map,
        stride=stride,
        span=graph.cards[name] * stride,
    )


def _reversal_shape(graph: _Graph, x: str, y: str) -> _Reversal:
    kinds = graph.kind(x), graph.kind(y)
    if any(kind is not NodeKind.CHANCE for kind in kinds):
        raise NotRemovable("arc reversal applies to chance nodes only")
    x_parents, y_parents = graph.parents[x], graph.parents[y]
    if y not in x_parents:
        raise ArcMissing(f"no arc {y} -> {x}")
    if graph.has_path(y, x, skip_arc=(y, x)):
        raise WouldCreateCycle(f"another directed path {y} -> {x} exists")

    x_steps, y_steps = graph.strides_of(x_parents), graph.strides_of(y_parents)
    new_x_parents = _merge_parents(x_parents, y, y_parents)
    new_x_cards, b_map, x_map = _row_maps(graph, new_x_parents, y_steps, x_steps)
    new_y_parents = (x,) + _merge_parents(y_parents, y, [p for p in x_parents if p != y])
    rest_cards, rest_y_map, rest_x_map = _row_maps(graph, new_y_parents[1:], y_steps, x_steps)
    stride = x_steps[y]
    return _Reversal(
        StepKind.REVERSE_ARC, y, x, (),
        (
            ProducedTable(x, new_x_parents, new_x_cards, graph.cards[x]),
            ProducedTable(y, new_y_parents, (graph.cards[x], *rest_cards), graph.cards[y]),
        ),
        None,
        b_map=b_map,
        x_map=x_map,
        rest_y_map=rest_y_map,
        rest_x_map=rest_x_map,
        stride=stride,
        span=graph.cards[y] * stride,
    )


def _barren_shape(graph: _Graph, name: str) -> _Barren:
    kind = graph.kind(name)
    if kind is NodeKind.VALUE:
        raise NotBarren("the value node is never barren")
    if graph.successors[name]:
        raise NotBarren(f"{name!r} has successors")
    # a dropped decision's step lists its alternatives, read at run time
    step = None if kind is NodeKind.DECISION else TransformStep(StepKind.REMOVE_BARREN, node=name)
    return _Barren(StepKind.REMOVE_BARREN, name, None, (name,), (), step)


def apply_step(
    diagram: InfluenceDiagram, shape: StepShape
) -> tuple[InfluenceDiagram, TransformStep]:
    """Run ``shape`` (as :func:`~iidiag.solver.next_step` plans it) on
    ``diagram``'s tables: the new diagram and the completed step.

    The input's graph is checked, and the tables of the step's nodes; every
    other table is carried over unread. A step keeps a valid graph valid,
    so the output's graph is not checked again; its produced tables are."""
    return _run_step(diagram, shape, check_graph(diagram))


def _run_step(
    diagram: InfluenceDiagram, shape: StepShape, graph: _Graph
) -> tuple[InfluenceDiagram, TransformStep]:
    """:func:`apply_step` on a diagram whose graph check returned ``graph``:
    the kernel gets the checked rows of the step's node and target, all it
    reads."""
    tables = {}
    for name in (shape.node, shape.into):
        node = diagram.nodes.get(name)
        if node is not None and node.kind is not NodeKind.DECISION:
            tables[name] = checked_rows(node, graph.cards)
    produced, step = shape.run_checked(tables, diagram)
    return shape.successor(diagram, produced), step


# ---------------------------------------------------------------------------
# Transformations. Each plans its step on the graph check_graph returns for
# its input, and runs it as apply_step does.
# ---------------------------------------------------------------------------

def remove_chance_into_value(
    diagram: InfluenceDiagram, name: str
) -> tuple[InfluenceDiagram, TransformStep]:
    """Fold chance node ``name`` into the value node.

    Requires the node's only successor to be the value node. The value node
    inherits the removed node's parents; each new interval is the tightest
    envelope of the conditional expectation over all admitted distributions
    and value functions.
    """
    graph = check_graph(diagram)
    return _run_step(diagram, _fold_shape(graph, name), graph)


def _undominated(
    intervals: Sequence[tuple[float, float]]
) -> tuple[tuple[int, ...], float, float, float]:
    """At one information state: the admissible alternatives, the hull
    (lo, hi) of their intervals, and the floor (the largest lower endpoint).
    An alternative is admissible iff its upper endpoint reaches the floor,
    so the alternatives holding the floor and the largest upper endpoint
    always are: ``hi`` is the largest upper endpoint of all, and ``lo`` is
    at most the floor."""
    floor, hi = intervals[0]
    for low, high in intervals:
        if low > floor:
            floor = low
        if high > hi:
            hi = high
    admitted = []
    lo = floor
    for d, (low, high) in enumerate(intervals):
        if high >= floor:
            admitted.append(d)
            if low < lo:
                lo = low
    return tuple(admitted), lo, hi, floor


def admissible_set(
    table: IntervalValueTable, decision: str, info_assignment: Mapping[str, int]
) -> tuple[int, ...]:
    """Alternatives of ``decision`` not strictly dominated at one information
    state: d_i stays unless some d_j has its whole interval above d_i's.

    Equivalently, d_i is admissible iff its upper endpoint reaches the
    largest lower endpoint. Never empty.
    """
    if decision not in table.parents:
        raise NotRemovable(f"{decision!r} is not a parent of the value table")
    card = table.cards[table.parents.index(decision)]
    return _undominated([
        table.interval_for({**info_assignment, decision: d}) for d in range(card)
    ])[0]


def remove_decision(
    diagram: InfluenceDiagram, name: str
) -> tuple[InfluenceDiagram, TransformStep]:
    """Remove decision ``name``, recording its admissible alternatives per
    information state.

    Requires every other parent of the value node to be observed at decision
    time (a parent of the decision) and the value node to be the decision's
    only successor. The new interval per state is the hull of the admissible
    alternatives' intervals.
    """
    graph = check_graph(diagram)
    return _run_step(diagram, _decision_shape(graph, name), graph)


def marginalize_chance(
    diagram: InfluenceDiagram, name: str
) -> tuple[InfluenceDiagram, TransformStep]:
    """Remove chance node ``name`` by summing it out of its single chance
    successor, which inherits its parents."""
    graph = check_graph(diagram)
    return _run_step(diagram, _marginal_shape(graph, name), graph)


def reverse_arc(
    diagram: InfluenceDiagram, x: str, y: str
) -> tuple[InfluenceDiagram, TransformStep]:
    """Reverse the arc y -> x between chance nodes.

    Afterwards x -> y holds, each node inherits the other's remaining
    parents, x's new table is the marginal with y summed out, and y's new
    table carries greatest lower bounds on the conditioned-on-x
    distribution. Rows where conditioning is on an event of necessarily zero
    upper probability are stored as zero bounds and flagged on the step.
    """
    graph = check_graph(diagram)
    return _run_step(diagram, _reversal_shape(graph, x, y), graph)


def remove_barren(
    diagram: InfluenceDiagram, name: str
) -> tuple[InfluenceDiagram, TransformStep]:
    """Drop a chance or decision node with no successors; every other table
    is untouched."""
    graph = check_graph(diagram)
    return _run_step(diagram, _barren_shape(graph, name), graph)
