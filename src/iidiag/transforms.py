"""Value-preserving diagram transformations.

Each operation returns a fresh diagram, with its graph and the tables the
operation produced re-checked, together with a :class:`TransformStep`
describing what ran. Steps carry machine-readable notes about rows where
conditioning on a (possibly) zero-probability event forced a convention: a
stored zero lower bound that is either a sound "convention zero" or a
genuinely indeterminate row.

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
    check_graph,
    check_table,
    row_map,
    stride_of,
)


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

    def __str__(self) -> str:
        return f"{self.kind}: {self.node} row {self.row_index} outcome {self.outcome}"


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


@dataclass(frozen=True)
class TransformStep:
    """One applied (or about to be applied) transformation.

    ``node`` is the removed / marginalized / reversed-from node; ``into``
    names the target (the value node, the absorbing chance node, or the arc
    head for a reversal). ``admissible`` and ``lower_gap`` are filled for
    decision removals, ``notes`` for reversals.
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
            bits.append(f"lower-bound attainment gap {self.lower_gap:.4g}")
        return head + (f" ({', '.join(bits)})" if bits else "")


# ---------------------------------------------------------------------------
# Row-level bound arithmetic. These are the numeric contracts the diagram
# operations are assembled from; tests drive them directly against
# brute-force oracles. The optional ``pick_*`` arguments force the receiving
# outcome of the free probability mass and exist to assert tie invariance.
# ---------------------------------------------------------------------------

def _free_mass(row: Sequence[float]) -> float:
    # clamped so point rows (sum within TOL of 1) keep exactly zero slack
    # and zero bounds keep exactly zero uppers
    free = 1.0 - sum(row)
    return 0.0 if free < TOL else free


def _argmax(values: Sequence[float], candidates: Sequence[int]) -> int:
    best = candidates[0]
    for i in candidates[1:]:
        if values[i] > values[best]:
            best = i
    return best


def _argmin(values: Sequence[float], candidates: Sequence[int]) -> int:
    best = candidates[0]
    for i in candidates[1:]:
        if values[i] < values[best]:
            best = i
    return best


def contraction_bounds(
    b_row: Sequence[float],
    lows: Sequence[float],
    highs: Sequence[float],
    *,
    pick_low: int | None = None,
    pick_high: int | None = None,
) -> tuple[float, float]:
    """Tightest interval for sum(v[y] * p[y]) with p dominating ``b_row`` and
    each v[y] inside [lows[y], highs[y]].

    The extremes put the free mass 1 - sum(b) on the outcome with the worst
    (best) interval endpoint, with values at the matching box corner.
    """
    free = _free_mass(b_row)
    everyone = range(len(b_row))
    s = pick_low if pick_low is not None else _argmin(lows, list(everyone))
    r = pick_high if pick_high is not None else _argmax(highs, list(everyone))
    lo = sum(lows[i] * b_row[i] for i in everyone) + free * lows[s]
    hi = sum(highs[i] * b_row[i] for i in everyone) + free * highs[r]
    return lo, hi


def mixture_lower_bound(
    coeffs: Sequence[float],
    b_row: Sequence[float],
    *,
    pick: int | None = None,
) -> float:
    """Greatest lower bound of sum(c[y] * p[y]) for p dominating ``b_row``,
    with fixed nonnegative coefficients: free mass lands on the smallest
    coefficient."""
    free = _free_mass(b_row)
    m = pick if pick is not None else _argmin(coeffs, list(range(len(coeffs))))
    return sum(c * b for c, b in zip(coeffs, b_row)) + free * coeffs[m]


def posterior_lower_bound(
    b_x: Sequence[float],
    u_x: Sequence[float],
    b_y: Sequence[float],
    y: int,
    *,
    pick: int | None = None,
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
    free_y = _free_mass(b_y)
    others = [i for i in range(len(b_y)) if i != y]
    s = pick if pick is not None else _argmax(u_x, others)
    w = b_x[y] * b_y[y] + u_x[s] * (b_y[s] + free_y)
    rest = [i for i in others if i != s]
    w += sum(u_x[i] * b_y[i] for i in rest)
    if w > 0.0:
        return b_x[y] * b_y[y] / w, "ok"
    if any(u_x[j] * (b_y[j] + free_y) > 0.0 for j in rest):
        return 0.0, "convention_zero"
    return 0.0, "indeterminate"


# ---------------------------------------------------------------------------
# Table plumbing. Tables are flat row lists in mixed-radix order (last parent
# fastest). A step walks the rows of the table it produces and finds each
# source row through a precomputed row map; the rows for the outcomes of a
# summed-out variable sit one stride apart from the mapped base row.
# ---------------------------------------------------------------------------

def _merge_parents(primary: Sequence[str], drop: str, extra: Sequence[str]) -> tuple[str, ...]:
    kept = [p for p in primary if p != drop]
    return tuple(kept + [p for p in extra if p not in kept])


def _checked(diagram: InfluenceDiagram, *produced: str) -> InfluenceDiagram:
    """Check ``diagram`` after a step and return it: the whole-diagram
    invariants plus the tables the step produced. Every other node is the
    very object the step's input held, and that input was already checked."""
    check_graph(diagram)
    for name in produced:
        check_table(diagram, diagram.nodes[name])
    return diagram


# ---------------------------------------------------------------------------
# Transformations
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
    node = diagram.node(name)
    value = diagram.value_node
    if node.kind is not NodeKind.CHANCE:
        raise NotRemovable(f"{name!r} is not a chance node")
    if diagram.successors(name) != (value.name,):
        raise NotRemovable(f"{name!r} has successors besides the value node")

    cpt = node.chance_table
    vt = value.value_table
    assert cpt is not None and vt is not None
    new_parents = _merge_parents(vt.parents, name, cpt.parents)
    new_cards = diagram.cards_of(new_parents)

    stride = stride_of(vt.parents, vt.cards, name)
    span = node.cardinality * stride
    rows = []
    for b_idx, base in zip(
        row_map(new_parents, new_cards, cpt.parents, cpt.cards),
        row_map(new_parents, new_cards, vt.parents, vt.cards),
    ):
        cell = vt.rows[base : base + span : stride]
        rows.append(contraction_bounds(
            cpt.rows[b_idx], [lo for lo, _ in cell], [hi for _, hi in cell]
        ))

    new_value = Node(
        value.name,
        NodeKind.VALUE,
        None,
        new_parents,
        value_table=IntervalValueTable(new_parents, new_cards, tuple(rows)),
    )
    out = _checked(diagram.replace_nodes({value.name: new_value}, remove=[name]), value.name)
    step = TransformStep(StepKind.REMOVE_CHANCE_INTO_VALUE, node=name, into=value.name)
    return out, step


def _admissible(intervals: Sequence[tuple[float, float]]) -> tuple[int, ...]:
    floor = max(lo for lo, _ in intervals)
    return tuple(d for d, (_, hi) in enumerate(intervals) if hi >= floor)


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
    return _admissible([
        table.interval_for({**info_assignment, decision: d}) for d in range(card)
    ])


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
    node = diagram.node(name)
    value = diagram.value_node
    if node.kind is not NodeKind.DECISION:
        raise NotRemovable(f"{name!r} is not a decision node")
    if diagram.successors(name) != (value.name,):
        raise NotRemovable(f"{name!r} has successors besides the value node")
    vt = value.value_table
    assert vt is not None
    unobserved = [p for p in vt.parents if p != name and p not in node.parents]
    if unobserved:
        raise NotRemovable(
            f"value parents not observed at {name!r}: {', '.join(unobserved)}"
        )

    info_parents = tuple(p for p in vt.parents if p != name)
    info_cards = diagram.cards_of(info_parents)
    stride = stride_of(vt.parents, vt.cards, name)
    span = node.cardinality * stride

    rows, sets = [], []
    worst_gap = 0.0
    for base in row_map(info_parents, info_cards, vt.parents, vt.cards):
        intervals = vt.rows[base : base + span : stride]
        admitted = _admissible(intervals)
        lo = min(intervals[d][0] for d in admitted)
        hi = max(intervals[d][1] for d in admitted)
        rows.append((lo, hi))
        sets.append(admitted)
        # The reported hull minimum can sit below the best attainable floor
        # (max over all alternatives of the lower endpoint); track the gap.
        worst_gap = max(worst_gap, max(iv[0] for iv in intervals) - lo)

    admissible = AdmissibleSet(
        decision=name,
        alternatives=node.variable.outcomes,
        info_parents=info_parents,
        info_cards=info_cards,
        sets=tuple(sets),
    )
    new_value = Node(
        value.name,
        NodeKind.VALUE,
        None,
        info_parents,
        value_table=IntervalValueTable(info_parents, info_cards, tuple(rows)),
    )
    out = _checked(diagram.replace_nodes({value.name: new_value}, remove=[name]), value.name)
    step = TransformStep(
        StepKind.REMOVE_DECISION,
        node=name,
        into=value.name,
        admissible=admissible,
        lower_gap=worst_gap,
    )
    return out, step


def _marginal_rows(
    y_node: Node,
    x_node: Node,
    new_parents: tuple[str, ...],
    new_cards: tuple[int, ...],
) -> tuple[tuple[float, ...], ...]:
    """Lower bounds for x with y summed out: per target outcome, the minimum
    of a fixed-coefficient mixture over the prior's admitted distributions."""
    y_cpt, x_cpt = y_node.chance_table, x_node.chance_table
    assert y_cpt is not None and x_cpt is not None
    stride = stride_of(x_cpt.parents, x_cpt.cards, y_node.name)
    span = y_node.cardinality * stride
    outcomes = range(x_node.cardinality)
    rows = []
    for b_idx, base in zip(
        row_map(new_parents, new_cards, y_cpt.parents, y_cpt.cards),
        row_map(new_parents, new_cards, x_cpt.parents, x_cpt.cards),
    ):
        b_y = y_cpt.rows[b_idx]
        x_rows = x_cpt.rows[base : base + span : stride]
        rows.append(tuple(
            mixture_lower_bound([x_row[x] for x_row in x_rows], b_y) for x in outcomes
        ))
    return tuple(rows)


def marginalize_chance(
    diagram: InfluenceDiagram, name: str
) -> tuple[InfluenceDiagram, TransformStep]:
    """Remove chance node ``name`` by summing it out of its single chance
    successor, which inherits its parents."""
    node = diagram.node(name)
    if node.kind is not NodeKind.CHANCE:
        raise NotRemovable(f"{name!r} is not a chance node")
    succs = diagram.successors(name)
    if len(succs) != 1 or diagram.node(succs[0]).kind is not NodeKind.CHANCE:
        raise NotRemovable(
            f"{name!r} needs exactly one successor, a chance node; has {list(succs)}"
        )
    x_node = diagram.node(succs[0])
    x_cpt = x_node.chance_table
    assert x_cpt is not None

    new_parents = _merge_parents(x_cpt.parents, name, node.chance_table.parents)
    new_cards = diagram.cards_of(new_parents)
    rows = _marginal_rows(node, x_node, new_parents, new_cards)

    new_x = Node(
        x_node.name,
        NodeKind.CHANCE,
        x_node.variable,
        new_parents,
        chance_table=LowerCPT(new_parents, new_cards, rows),
    )
    out = _checked(diagram.replace_nodes({x_node.name: new_x}, remove=[name]), x_node.name)
    step = TransformStep(StepKind.MARGINALIZE_CHANCE, node=name, into=x_node.name)
    return out, step


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
    x_node, y_node = diagram.node(x), diagram.node(y)
    if x_node.kind is not NodeKind.CHANCE or y_node.kind is not NodeKind.CHANCE:
        raise NotRemovable("arc reversal applies to chance nodes only")
    x_cpt, y_cpt = x_node.chance_table, y_node.chance_table
    assert x_cpt is not None and y_cpt is not None
    if y not in x_cpt.parents:
        raise ArcMissing(f"no arc {y} -> {x}")
    if diagram.has_path(y, x, skip_arc=(y, x)):
        raise WouldCreateCycle(f"another directed path {y} -> {x} exists")

    k_x, k_y = x_node.cardinality, y_node.cardinality
    new_x_parents = _merge_parents(x_cpt.parents, y, y_cpt.parents)
    new_x_cards = diagram.cards_of(new_x_parents)
    new_y_parents = (x,) + _merge_parents(y_cpt.parents, y, [p for p in x_cpt.parents if p != y])
    new_y_cards = diagram.cards_of(new_y_parents)

    # x is the first parent of y's new table, so its rows come in k_x blocks
    # of one row per assignment of the other parents.
    rest, rest_cards = new_y_parents[1:], new_y_cards[1:]
    y_map = row_map(rest, rest_cards, y_cpt.parents, y_cpt.cards)
    x_map = row_map(rest, rest_cards, x_cpt.parents, x_cpt.cards)
    stride = stride_of(x_cpt.parents, x_cpt.cards, y)
    span = k_y * stride
    free_x = [_free_mass(row) for row in x_cpt.rows]

    notes: list[BoundNote] = []
    y_rows = []
    row_idx = 0
    for x_val in range(k_x):
        for b_idx, base in zip(y_map, x_map):
            b_y = y_cpt.rows[b_idx]
            b_x = [row[x_val] for row in x_cpt.rows[base : base + span : stride]]
            u_x = [b + free for b, free in zip(b_x, free_x[base : base + span : stride])]
            row = []
            for y_out in range(k_y):
                bound, flag = posterior_lower_bound(b_x, u_x, b_y, y_out)
                if flag != "ok":
                    notes.append(BoundNote(flag, y, row_idx, y_out))
                row.append(bound)
            y_rows.append(tuple(row))
            row_idx += 1

    x_rows = _marginal_rows(y_node, x_node, new_x_parents, new_x_cards)

    new_x = Node(
        x, NodeKind.CHANCE, x_node.variable, new_x_parents,
        chance_table=LowerCPT(new_x_parents, new_x_cards, x_rows),
    )
    new_y = Node(
        y, NodeKind.CHANCE, y_node.variable, new_y_parents,
        chance_table=LowerCPT(new_y_parents, new_y_cards, tuple(y_rows)),
    )
    out = _checked(diagram.replace_nodes({x: new_x, y: new_y}), x, y)
    step = TransformStep(StepKind.REVERSE_ARC, node=y, into=x, notes=tuple(notes))
    return out, step


def remove_barren(
    diagram: InfluenceDiagram, name: str
) -> tuple[InfluenceDiagram, TransformStep]:
    """Drop a chance or decision node with no successors; every other table
    is untouched."""
    node = diagram.node(name)
    if node.kind is NodeKind.VALUE:
        raise NotBarren("the value node is never barren")
    if diagram.successors(name):
        raise NotBarren(f"{name!r} has successors")
    out = _checked(diagram.replace_nodes(remove=[name]))
    return out, TransformStep(StepKind.REMOVE_BARREN, node=name)
