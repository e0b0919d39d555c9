"""Data model for influence diagrams with lower-bounded probabilities.

A diagram couples a DAG of chance, decision, and value nodes with numeric
tables. Chance nodes store, per parent configuration, lower bounds on their
conditional distribution; the matching upper bounds are never stored and are
always recomputed as 1 minus the other outcomes' lower bounds, so the two can
never disagree. The single value node stores a [low, high] interval per
parent configuration. ``build_diagram`` validates everything up front and
returns an immutable diagram; it never returns a partially valid one.

Model objects are immutable by construction: a mutable sequence given for a
variable's outcomes, a node's or table's parents, a table's cards, rows or a
row, or a diagram's decision order is stored as a tuple, and a diagram's
``nodes`` mapping as a read-only view of its own copy. A value of any other
type is kept as given, for the checks to judge.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, MutableSequence, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from math import isfinite
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from .errors import (
    CycleDetected,
    IntervalInverted,
    MalformedSpec,
    MultipleValueNodes,
    NegativeBound,
    NoValueNode,
    OutOfRange,
    ParentMismatch,
    RowSumExceedsOne,
    UnorderedDecisions,
)

if TYPE_CHECKING:  # transforms imports this module
    from .transforms import StepShape

# Absolute tolerance for row-sum and interval checks; all arithmetic is
# double precision.
TOL = 1e-12


def _freeze(obj: Any, field: str) -> None:
    """Store a mutable sequence (a list, an array, a deque, ...) held in
    ``field`` of the frozen dataclass ``obj`` as a tuple; a value of any
    other type stays as it is."""
    value = getattr(obj, field)
    if isinstance(value, MutableSequence):
        object.__setattr__(obj, field, tuple(value))


class NodeKind(Enum):
    CHANCE = "chance"
    DECISION = "decision"
    VALUE = "value"


@dataclass(frozen=True)
class Variable:
    """A named discrete quantity with an ordered list of at least 2 outcomes."""

    name: str
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if type(self.outcomes) is not tuple:
            _freeze(self, "outcomes")
        if len(self.outcomes) < 2:
            raise MalformedSpec(f"variable {self.name!r} needs >= 2 outcomes")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise MalformedSpec(f"variable {self.name!r} has duplicate outcomes")

    @property
    def cardinality(self) -> int:
        return len(self.outcomes)


# ---------------------------------------------------------------------------
# Parent configurations: mixed-radix indexing, last declared parent fastest.
# ---------------------------------------------------------------------------

def config_count(cards: Sequence[int]) -> int:
    n = 1
    for c in cards:
        n *= c
    return n


def config_index(assignment: Sequence[int], cards: Sequence[int]) -> int:
    """Map an outcome-index tuple to its mixed-radix row index."""
    if len(assignment) != len(cards):
        raise OutOfRange(
            f"assignment covers {len(assignment)} parents, expected {len(cards)}"
        )
    index = 0
    for value, card in zip(assignment, cards):
        if not 0 <= value < card:
            raise OutOfRange(f"outcome index {value} outside [0, {card})")
        index = index * card + value
    return index


def config_assignment(index: int, cards: Sequence[int]) -> tuple[int, ...]:
    """Inverse of :func:`config_index`."""
    total = config_count(cards)
    if not 0 <= index < total:
        raise OutOfRange(f"config index {index} outside [0, {total})")
    out = []
    for card in reversed(cards):
        out.append(index % card)
        index //= card
    return tuple(reversed(out))


def strides(parents: Sequence[str], cards: Sequence[int]) -> dict[str, int]:
    """Row-index step of each parent of a table over ``parents`` (``cards``
    outcomes each): the product of the cards after it, so the rows for its
    outcomes 0, 1, ... sit that far apart."""
    out = {}
    step = 1
    for parent, card in zip(reversed(parents), reversed(cards)):
        out[parent] = step
        step *= card
    return out


def row_map(parents: Sequence[str], cards: Sequence[int], steps: Mapping[str, int]) -> list[int]:
    """For every row of a table over ``parents`` (``cards`` outcomes each),
    in mixed-radix order, the index of the matching row of a source table
    whose :func:`strides` are ``steps``.

    A parent the source lacks has no stride there, so each source row
    repeats once per outcome of it; a source parent missing from
    ``parents`` is held at outcome 0, so adding ``k * steps[name]`` to an
    entry selects its outcome ``k``.
    """
    rows = [0]
    for parent, card in zip(parents, cards):
        step = steps.get(parent)
        if step is None:
            rows = list(chain.from_iterable(zip(*[rows] * card)))
        else:
            offsets = range(0, card * step, step)
            rows = [base + offset for base in rows for offset in offsets]
    return rows


def running_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0: the sum every float
    reduction of the package uses. The built-in ``sum`` is compensated from
    Python 3.12 on and would change last digits between versions."""
    total = 0.0
    for x in values:
        total += x
    return total


def is_point_row(row: Sequence[float]) -> bool:
    return abs(running_sum(row) - 1.0) <= TOL


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

_JUST_TUPLE = frozenset({tuple})


@dataclass(frozen=True)
class _Table:
    """The fields of a table: its parents, their cards and one row per
    parent configuration. A mutable sequence given for any of them, or for
    a row, is stored as a tuple."""

    parents: tuple[str, ...]
    cards: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if type(self.parents) is not tuple:
            _freeze(self, "parents")
        if type(self.cards) is not tuple:
            _freeze(self, "cards")
        if type(self.rows) is not tuple:
            _freeze(self, "rows")
        rows = self.rows
        # one scan in C for the common case, rows that are all tuples
        if type(rows) is tuple and set(map(type, rows)) != _JUST_TUPLE:
            rows = tuple([
                tuple(row) if isinstance(row, MutableSequence) else row for row in rows
            ])
            object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class LowerCPT(_Table):
    """Per parent-configuration lower bounds for a chance node's distribution.

    ``rows[i]`` is the vector of lower bounds over the node's outcomes for
    the parent configuration with mixed-radix index ``i``.
    """


@dataclass(frozen=True)
class IntervalValueTable(_Table):
    """Per parent-configuration [low, high] value intervals for the value node."""

    def interval_for(self, assignment: Mapping[str, int]) -> tuple[float, float]:
        idx = config_index([assignment[p] for p in self.parents], self.cards)
        return self.rows[idx]


@dataclass(frozen=True)
class Node:
    """A named node: kind, outcome variable (None for the value node),
    ordered parents, and the table matching its kind."""

    name: str
    kind: NodeKind
    variable: Variable | None
    parents: tuple[str, ...]
    chance_table: LowerCPT | None = None
    value_table: IntervalValueTable | None = None

    def __post_init__(self) -> None:
        if type(self.parents) is not tuple:
            _freeze(self, "parents")

    @property
    def cardinality(self) -> int:
        if self.variable is None:
            raise MalformedSpec(f"node {self.name!r} has no outcomes")
        return self.variable.cardinality


@dataclass(frozen=True)
class InfluenceDiagram:
    """An immutable, validated influence diagram.

    ``nodes`` preserves declaration order, which fixes all deterministic
    tie-breaking downstream. A mapping given for it is stored as a read-only
    view of the diagram's own copy, so the diagram never changes; a changed
    diagram is a new one.
    """

    nodes: Mapping[str, Node]
    decision_order: tuple[str, ...]
    added_information_arcs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        nodes = self.nodes
        if type(nodes) is dict or isinstance(nodes, Mapping):  # a dict skips the ABC check
            object.__setattr__(self, "nodes", MappingProxyType(dict(nodes)))
        if type(self.decision_order) is not tuple:
            _freeze(self, "decision_order")

    # -- lookups ------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise MalformedSpec(f"unknown node {name!r}") from None

    @cached_property
    def value_node(self) -> Node:
        for node in self.nodes.values():
            if node.kind is NodeKind.VALUE:
                return node
        raise NoValueNode("diagram has no value node")

    def names(self, kind: NodeKind | None = None) -> tuple[str, ...]:
        if kind is None:
            return tuple(self.nodes)
        return tuple(n for n, node in self.nodes.items() if node.kind is kind)

    def card(self, name: str) -> int:
        return self.node(name).cardinality

    def cards_of(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.card(n) for n in names)

    # -- derived structure ---------------------------------------------------

    def replace_nodes(
        self,
        updates: Mapping[str, Node] = (),
        remove: Iterable[str] = (),
    ) -> "InfluenceDiagram":
        """New diagram with some nodes swapped out and/or dropped; declaration
        order of the survivors is preserved. An update whose key names no
        node is ignored."""
        dropped = set(remove)
        nodes = self.nodes.copy()  # dict() reads a read-only view item by item
        for name, node in dict(updates).items():
            if name in nodes:
                nodes[name] = node
        order = self.decision_order
        if dropped:
            for name in dropped:
                nodes.pop(name, None)
            order = tuple(d for d in order if d not in dropped)
        return InfluenceDiagram(nodes, order, self.added_information_arcs)


class _Graph:
    """The structure of a diagram as the graph check and the reduction rules
    read it: per node, in declaration order, its parents, its children
    (``successors``), kind and outcome count (None without outcomes), plus
    the value node's name and the decision order. It holds no table. No
    rule reads the order of a node's children, so a child list keeps none;
    a parent that is no node gets a child list too, which
    :func:`check_graph` refuses as part of a cycle.

    :func:`check_graph` builds one and returns it once every graph
    invariant holds. ``solver.solve`` plans every step of a reduction on
    the graph its check returned, and :meth:`apply` updates it in place
    from each step's shape; ``solver.next_step`` and the public transforms
    plan one step on it."""

    def __init__(self, diagram: InfluenceDiagram):
        nodes = diagram.nodes
        self.parents = {name: node.parents for name, node in nodes.items()}
        self.kinds = {name: node.kind for name, node in nodes.items()}
        self.cards = {
            name: None if node.variable is None else node.variable.cardinality
            for name, node in nodes.items()
        }
        self.successors: dict[str, list[str]] = {name: [] for name in nodes}
        for name, parents in self.parents.items():
            for p in parents:
                try:
                    self.successors[p].append(name)
                except KeyError:
                    self.successors[p] = [name]
        self.value = diagram.value_node.name  # NoValueNode if missing
        self.decisions = list(diagram.decision_order)

    def kind(self, name: str) -> NodeKind:
        kind = self.kinds.get(name)
        if kind is None:
            raise MalformedSpec(f"unknown node {name!r}")
        return kind

    def strides_of(self, parents: Sequence[str]) -> dict[str, int]:
        """:func:`strides` of a table over ``parents``, with their cards read
        off this graph; every parent must have outcomes."""
        cards = self.cards
        return strides(parents, [cards[p] for p in parents])

    def has_path(self, src: str, dst: str, skip_arc: tuple[str, str] | None = None) -> bool:
        """Whether a directed path leads from ``src`` to ``dst``, optionally
        ignoring one specific arc."""
        successors = self.successors
        stack, seen = [src], set()
        while stack:
            cur = stack.pop()
            if cur == dst:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            for nxt in successors.get(cur, ()):
                if skip_arc is not None and (cur, nxt) == skip_arc:
                    continue
                stack.append(nxt)
        return False

    def topological_order(self) -> tuple[str, ...]:
        """The nodes in topological order by Kahn's algorithm: each round
        places the earliest-declared node whose parents are all placed. A
        parent that is no node is never placed, so a node naming one counts
        as part of a cycle."""
        names = list(self.parents)
        position = {n: i for i, n in enumerate(names)}
        indeg = {n: len(parents) for n, parents in self.parents.items()}
        ready = [position[n] for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            head = names[heapq.heappop(ready)]
            order.append(head)
            for succ in self.successors[head]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(ready, position[succ])
        if len(order) != len(names):
            raise CycleDetected("arcs contain a directed cycle")
        return tuple(order)

    def ordered_decisions(self, topo: Sequence[str]) -> tuple[str, ...]:
        """The decisions in the order of ``topo``, this graph's topological
        order: the one order the arcs allow. Raises when no directed path
        leads from one decision to the next."""
        kinds, parents, decision = self.kinds, self.parents, NodeKind.DECISION
        ordered = tuple([n for n in topo if kinds[n] is decision])
        for earlier, later in zip(ordered, ordered[1:]):
            # an arc is the usual path: build_diagram adds the no-forgetting arcs
            if earlier not in parents[later] and not self.has_path(earlier, later):
                raise UnorderedDecisions(
                    f"no directed path orders decisions {earlier!r} and {later!r}"
                )
        return ordered

    def apply(self, shape: StepShape) -> None:
        """The graph after ``shape``: each produced node gets its new
        parents, then the removed nodes go."""
        for table in shape.produced:
            name, old, new = table.name, self.parents[table.name], table.parents
            for p in old:
                if p not in new:
                    self.successors[p].remove(name)
            for p in new:
                if p not in old:
                    self.successors[p].append(name)
            self.parents[name] = new
        for name in shape.removed:
            for p in self.parents.pop(name):
                self.successors[p].remove(name)
            del self.successors[name], self.kinds[name], self.cards[name]
            if name in self.decisions:
                self.decisions.remove(name)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def _want(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    """``mapping[key]``. Each document, variable and node entry is checked to
    be a mapping once, where its first field is read, so not here."""
    if key not in mapping:
        raise MalformedSpec(f"{where}: missing field {key!r}")
    return mapping[key]


def _want_name(entry: Any, where: str) -> str:
    """The name of a variable or node entry: its first field read, so the
    entry is checked to be a mapping here."""
    if not isinstance(entry, Mapping):
        raise MalformedSpec(f"{where}: missing field 'name'")
    name = _want(entry, "name", where)
    if not isinstance(name, str):
        raise MalformedSpec(f"{where}: name must be a string")
    return name


def _check_number(x: Any, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise MalformedSpec(f"{where}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an int too large for a float
        raise MalformedSpec(f"{where}: non-finite number") from None


def _is_list(raw: Any) -> bool:
    """A JSON array: a sequence, but not a string, which is one too. A
    ``list``, what ``json.loads`` makes, is settled before the ABC check."""
    return type(raw) is list or (
        isinstance(raw, Sequence) and not isinstance(raw, (str, bytes))
    )


def _check_labels(raw: Any, where: str) -> tuple[str, ...]:
    if not _is_list(raw):
        raise MalformedSpec(f"{where}: expected a list of labels")
    labels = []
    for item in raw:
        if not isinstance(item, str):
            raise MalformedSpec(f"{where}: label {item!r} is not a string")
        labels.append(item)
    return tuple(labels)


def build_diagram(data: Mapping[str, Any]) -> InfluenceDiagram:
    """Build and validate a diagram from its plain-data description.

    ``data`` has the same shape as the on-disk JSON document: a "variables"
    list giving each chance node's outcomes and a "nodes" list giving every
    node's kind, parents, and table. Decision nodes carry their alternatives
    inline. Raises a specific :class:`~iidiag.errors.DiagramError` subclass on
    the first violated invariant.

    Missing no-forgetting information arcs (each decision seeing every earlier
    decision and its information) are added automatically and reported via
    ``added_information_arcs``.
    """
    if not isinstance(data, Mapping):
        raise MalformedSpec("document: missing field 'variables'")
    raw_vars = _want(data, "variables", "document")
    raw_nodes = _want(data, "nodes", "document")
    if not _is_list(raw_vars) or not _is_list(raw_nodes):
        raise MalformedSpec("document: 'variables' and 'nodes' must be lists")

    variables: dict[str, Variable] = {}
    for i, rv in enumerate(raw_vars):
        name = _want_name(rv, f"variables[{i}]")
        outcomes = _check_labels(_want(rv, "outcomes", f"variables[{i}]"), f"variables[{i}].outcomes")
        if name in variables:
            raise MalformedSpec(f"variables[{i}]: duplicate variable {name!r}")
        variables[name] = Variable(name=name, outcomes=outcomes)

    # First pass: names, kinds, parents (tables need all cardinalities, so
    # they are checked in a second pass).
    decls: list[tuple[str, NodeKind, tuple[str, ...], Any]] = []
    seen: set[str] = set()
    for i, rn in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        name = _want_name(rn, where)
        if name in seen:
            raise MalformedSpec(f"{where}: duplicate node {name!r}")
        seen.add(name)
        kind_raw = _want(rn, "kind", where)
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            raise MalformedSpec(f"{where}: unknown kind {kind_raw!r}") from None
        parents = _check_labels(_want(rn, "parents", where), f"{where}.parents")
        if len(set(parents)) != len(parents):
            raise MalformedSpec(f"{where}: duplicate parents")
        decls.append((name, kind, parents, rn))

    names = {d[0] for d in decls}
    value_names = [d[0] for d in decls if d[1] is NodeKind.VALUE]
    if len(value_names) > 1:
        raise MultipleValueNodes(f"value nodes: {', '.join(value_names)}")
    if not value_names:
        raise NoValueNode("declare exactly one value node")
    value_name = value_names[0]

    cards: dict[str, int] = {}
    for i, (name, kind, parents, rn) in enumerate(decls):
        where = f"nodes[{i}] ({name})"
        for p in parents:
            if p not in names:
                raise MalformedSpec(f"{where}: unknown parent {p!r}")
            if p == name:
                raise CycleDetected(f"{where}: node is its own parent")
            if p == value_name:
                raise MalformedSpec(f"{where}: the value node cannot have successors")
        if kind is NodeKind.CHANCE:
            if name not in variables:
                raise MalformedSpec(f"{where}: chance node has no 'variables' entry")
            cards[name] = variables[name].cardinality
        elif kind is NodeKind.DECISION:
            if name in variables:
                raise MalformedSpec(f"{where}: decision outcomes belong in 'alternatives'")
            alts = _check_labels(_want(rn, "alternatives", where), f"{where}.alternatives")
            variables[name] = Variable(name=name, outcomes=alts)
            cards[name] = len(alts)
        else:
            if name in variables:
                raise MalformedSpec(f"{where}: the value node has no outcomes")
            if "table" not in rn:
                raise MalformedSpec(f"{where}: value node needs a table")

    unused = [v for v in variables if v not in names]
    if unused:
        raise MalformedSpec(f"variables without a matching node: {', '.join(unused)}")

    # Second pass: tables.
    nodes: dict[str, Node] = {}
    for i, (name, kind, parents, rn) in enumerate(decls):
        where = f"nodes[{i}] ({name})"
        parent_cards = tuple(cards[p] for p in parents)
        n_rows = config_count(parent_cards)
        if kind is NodeKind.CHANCE:
            rows = _parse_chance_rows(
                _want(rn, "table", where), n_rows, cards[name], where
            )
            table = LowerCPT(parents=parents, cards=parent_cards, rows=rows)
            nodes[name] = Node(name, kind, variables[name], parents, chance_table=table)
        elif kind is NodeKind.DECISION:
            if "table" in rn:
                raise MalformedSpec(f"{where}: decision nodes carry no table")
            nodes[name] = Node(name, kind, variables[name], parents)
        else:
            rows = _parse_value_rows(_want(rn, "table", where), n_rows, where)
            table = IntervalValueTable(parents=parents, cards=parent_cards, rows=rows)
            nodes[name] = Node(name, kind, None, parents, value_table=table)

    diagram = InfluenceDiagram(nodes=nodes, decision_order=())
    graph = _Graph(diagram)
    order = graph.ordered_decisions(graph.topological_order())  # CycleDetected on a cycle
    diagram, added = _add_no_forgetting(diagram, order)
    # No closing check_structure: each table was checked as it was parsed
    # and every graph invariant above. An added information arc makes no
    # cycle, as it stands for a directed path already in the graph.
    return InfluenceDiagram(
        nodes=diagram.nodes, decision_order=order, added_information_arcs=added
    )


# The entry types of a row the fast path takes; float subclasses and ints,
# which float() would convert, take the per-entry check.
_JUST_FLOAT = frozenset({float})


def _parse_chance_rows(raw: Any, n_rows: int, k: int, where: str) -> tuple[tuple[float, ...], ...]:
    if not _is_list(raw):
        raise MalformedSpec(f"{where}.table: expected a list of rows")
    if len(raw) != n_rows:
        raise ParentMismatch(f"{where}.table: expected {n_rows} rows, got {len(raw)}")
    rows = []
    for r, raw_row in enumerate(raw):
        # Fast path: a list of floats, as json.loads gives them, is stored
        # as it is; check_rows below holds it to the same invariants.
        if type(raw_row) is list:
            row = tuple(raw_row)
            if set(map(type, row)) == _JUST_FLOAT:  # empty rows fail this
                # A NaN can hide a negative bound from min(), but check_rows
                # rejects its row whatever the clamp stores.
                if min(row) < 0.0:
                    row = _clamp(row)
                rows.append(row)
                continue
        at = f"{where}.table[{r}]"
        # _is_list, inlined: this runs once per row
        if not isinstance(raw_row, Sequence) or isinstance(raw_row, (str, bytes)):
            raise MalformedSpec(f"{at}: expected a list of bounds")
        rows.append(_clamp(tuple(_check_number(x, at) for x in raw_row)))
    check_rows(rows, k, f"{where}.table")
    return tuple(rows)


def _clamp(row: tuple[float, ...]) -> tuple[float, ...]:
    """Bounds within TOL below 0 stored as 0; -0.0 stays -0.0, and
    check_rows reads the stored numbers."""
    return tuple(0.0 if -TOL <= b < 0.0 else b for b in row)


def _parse_value_rows(raw: Any, n_rows: int, where: str) -> tuple[tuple[float, float], ...]:
    if not _is_list(raw):
        raise MalformedSpec(f"{where}.table: expected a list of [low, high] rows")
    if len(raw) != n_rows:
        raise ParentMismatch(f"{where}.table: expected {n_rows} rows, got {len(raw)}")
    rows = []
    for r, raw_row in enumerate(raw):
        # Fast path: a list of two floats, as json.loads gives them.
        if type(raw_row) is list and len(raw_row) == 2:
            lo, hi = raw_row
            if type(lo) is float and type(hi) is float:
                rows.append((lo, hi))
                continue
        at = f"{where}.table[{r}]"
        # _is_list, inlined: this runs once per row
        if (not isinstance(raw_row, Sequence) or isinstance(raw_row, (str, bytes))
                or len(raw_row) != 2):
            raise MalformedSpec(f"{at}: expected a [low, high] pair")
        rows.append((_check_number(raw_row[0], at), _check_number(raw_row[1], at)))
    check_rows(rows, None, f"{where}.table")
    return tuple(rows)


def _add_no_forgetting(
    diagram: InfluenceDiagram, order: tuple[str, ...]
) -> tuple[InfluenceDiagram, tuple[tuple[str, str], ...]]:
    added: list[tuple[str, str]] = []
    updates: dict[str, Node] = {}
    known: list[str] = []  # earlier decisions and their information, in order
    for name in order:
        node = updates.get(name, diagram.nodes[name])
        parents = list(node.parents)
        for p in known:
            if p not in parents:
                parents.append(p)
                added.append((p, name))
        if len(parents) != len(node.parents):
            updates[name] = Node(name, node.kind, node.variable, tuple(parents))
        for p in parents:
            if p not in known:
                known.append(p)
        if name not in known:
            known.append(name)
    return diagram.replace_nodes(updates), tuple(added)


def check_rows(rows: Sequence[Sequence[float]], k: int | None, where: str) -> None:
    """Row invariants of one table, naming the first bad row as ``where[r]``.

    Every number is finite. Chance rows (``k`` outcomes) hold ``k`` lower
    bounds, none below 0, that sum to at most 1. Value rows (``k`` is None)
    are [low, high] pairs with low <= high. Everything within :data:`TOL`.

    A row's sum is finite only if every entry is, so one ``isfinite`` per
    row suffices; the entries are looked at one by one only when the sum is
    not finite, which finite entries can cause by overflowing.
    """
    if k is None:
        try:
            for r, (lo, hi) in enumerate(rows):
                if not isfinite(lo + hi) and not (isfinite(lo) and isfinite(hi)):
                    raise MalformedSpec(f"{where}[{r}]: non-finite number")
                if lo > hi + TOL:
                    raise IntervalInverted(f"{where}[{r}]: low {lo} > high {hi}")
        except ValueError:  # only unpacking a row that is not a pair raises it
            r = next(r for r, row in enumerate(rows) if len(row) != 2)
            raise ParentMismatch(f"{where}[{r}]: expected a [low, high] pair") from None
        return
    for r, row in enumerate(rows):
        if len(row) != k:
            raise ParentMismatch(f"{where}[{r}]: expected {k} bounds, got {len(row)}")
        # one pass for the sum (left to right, as running_sum) and the least
        # bound; the first negative bound is looked for only if there is one
        total = least = 0.0
        for b in row:
            total += b
            if b < least:
                least = b
        if not isfinite(total) and not all(map(isfinite, row)):
            raise MalformedSpec(f"{where}[{r}]: non-finite number")
        if least < -TOL:
            b = next(b for b in row if b < -TOL)
            raise NegativeBound(f"{where}[{r}]: lower bound {b} < 0")
        if total > 1.0 + TOL:
            raise RowSumExceedsOne(f"{where}[{r}]: bounds sum to {total} > 1")


def check_graph(diagram: InfluenceDiagram) -> _Graph:
    """Whole-diagram invariants that involve no table, checked on one
    :class:`_Graph` of the diagram, which is returned: one value node and
    no successors of it, outcomes on every other node, acyclic arcs between
    known nodes (an unknown parent reads as a cycle), a decision order
    covering exactly the decisions, every node named as its key, and a
    decision order that follows the arcs."""
    graph = _Graph(diagram)  # NoValueNode if missing
    # local names: an enum member read off its class costs a lookup per use
    kinds, value, decision = graph.kinds, NodeKind.VALUE, NodeKind.DECISION
    if [*kinds.values()].count(value) > 1:
        raise MultipleValueNodes("more than one value node")
    if graph.successors.get(graph.value):
        raise MalformedSpec("the value node cannot have successors")
    for name, card in graph.cards.items():
        if card is None and kinds[name] is not value:
            raise MalformedSpec(f"node {diagram.nodes[name].name!r} has no outcomes")
    topo = graph.topological_order()

    order = diagram.decision_order
    if set(order) != {n for n, kind in kinds.items() if kind is decision}:
        raise MalformedSpec("decision_order out of sync with the node set")
    for key, node in diagram.nodes.items():
        if node.name != key:
            raise MalformedSpec(f"node {key!r} is named {node.name!r}")
    arcs_order = graph.ordered_decisions(topo)  # UnorderedDecisions if no path orders two
    if tuple(order) != arcs_order:
        raise MalformedSpec(
            f"decision_order {list(order)} does not follow the arcs, "
            f"which order the decisions {list(arcs_order)}"
        )
    return graph


def check_table_rows(
    name: str, rows: Sequence[Sequence[float]], cards: Sequence[int], k: int | None
) -> None:
    """The checks of a table that read its numbers: one row per parent
    configuration, and every row holds (:func:`check_rows`)."""
    if len(rows) != config_count(cards):
        raise ParentMismatch(f"{name}: wrong row count")
    check_rows(rows, k, f"{name}.table")


def check_structure(
    diagram: InfluenceDiagram,
) -> tuple[_Graph, dict[str, tuple[tuple[float, ...], ...]]]:
    """Full invariant sweep: :func:`check_graph`, then :func:`checked_rows`
    on every chance and value node in declaration order. Returns the graph
    :func:`check_graph` built and the checked rows by node name. Run on
    every diagram a solve compiles a plan for."""
    graph = check_graph(diagram)
    cards = graph.cards
    rows = {
        name: checked_rows(node, cards)
        for name, node in diagram.nodes.items()
        if node.kind is not NodeKind.DECISION
    }
    return graph, rows


def checked_rows(
    node: Node, cards: Mapping[str, int | None]
) -> tuple[tuple[float, ...], ...]:
    """The rows of chance or value node ``node``'s table, once the table is
    of the model's type for the node's kind (a ``LowerCPT`` or an
    ``IntervalValueTable``), its parents match the node's arcs, its cards
    match its parents' cardinalities (``cards``, by name) and it passes
    :func:`check_table_rows`. Run only on a node whose graph passed
    :func:`check_graph`, so every parent has outcomes."""
    if node.kind is NodeKind.CHANCE:
        table, kind = node.chance_table, LowerCPT
    else:
        table, kind = node.value_table, IntervalValueTable
    if type(table) is not kind and table is not None:
        raise MalformedSpec(
            f"{node.name}: table of type {type(table).__name__}, expected {kind.__name__}"
        )
    if table is None or table.parents != node.parents:
        raise ParentMismatch(f"{node.name}: table parents disagree with arcs")
    if table.cards != tuple([cards[p] for p in node.parents]):
        raise ParentMismatch(f"{node.name}: table cards disagree with parents")
    k = node.cardinality if kind is LowerCPT else None
    check_table_rows(node.name, table.rows, table.cards, k)
    return table.rows
