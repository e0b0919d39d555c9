"""Reduces a diagram to its bare value node, collecting the expected-value
interval and one admissible-alternatives table per decision.

The reduction rule is a fixed priority order, tied by node declaration
order, so identical diagrams always produce identical reports and step logs:

1. drop any barren node;
2. remove the last remaining decision once every other value-node parent is
   among its information predecessors;
3. fold any chance node whose only successor is the value node;
4. sum out any chance node whose only successor is a single chance node;
5. otherwise take the first chance parent of the value node all of whose
   successors are chance nodes or the value node, and reverse the arc to its
   topologically earliest chance successor, repeating until rule 3 applies.

:func:`next_step` applies the rule to a diagram's structure and returns the
:class:`~iidiag.transforms.StepShape` of the step it picks; :func:`apply_step`
runs one on the diagram's tables, and :func:`solve` runs a compiled plan of
them. Every policy, including the all-admissible one of a dropped barren
decision, comes from the completed step.

The module keeps no state: a plain :func:`solve` compiles its plan and drops
it; a :class:`StepMemo`, held by the caller, keeps one structure's plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Unsolvable
from .model import (
    InfluenceDiagram,
    Node,
    NodeKind,
    _Graph,
    check_graph,
    check_structure,
    checked_rows,
)
from .transforms import (  # apply_step is re-exported for step-by-step callers
    AdmissibleSet,
    StepKind,
    StepShape,
    TransformStep,
    _barren_shape,
    _decision_shape,
    _fold_shape,
    _marginal_shape,
    _reversal_shape,
    apply_step,
    fmt,
)


@dataclass(frozen=True)
class SolveReport:
    """Final expected-value interval, admissible policies, and the audit log."""

    final_interval: tuple[float, float]
    policies: dict[str, AdmissibleSet]
    steps: tuple[TransformStep, ...]
    notes: tuple[str, ...]


def next_step(diagram: InfluenceDiagram) -> StepShape:
    """The shape of the step :func:`solve` would apply next, ready for
    :func:`apply_step`, planned on the graph
    :func:`~iidiag.model.check_graph` returns; a pure function of the
    diagram's structure, so tables may be absent."""
    return _first_step(check_graph(diagram))


def _first_step(graph: _Graph) -> StepShape:
    """The step the reduction rule picks on ``graph``."""
    if len(graph.parents) == 1:
        raise Unsolvable("only the value node remains")
    value, kinds, succs = graph.value, graph.kinds, graph.successors
    # local names: an enum member read off its class costs a lookup per use
    chance, decision, value_kind = NodeKind.CHANCE, NodeKind.DECISION, NodeKind.VALUE

    # one pass finds a barren node, or else the first candidates of rules 3
    # and 4, which apply only if rule 2 does not
    into_value = [value]
    fold = marginal = None
    for name, children in succs.items():
        if not children:
            if kinds[name] is not value_kind:
                return _barren_shape(graph, name)
        elif kinds[name] is chance:
            if children == into_value:
                if fold is None:
                    fold = name
            elif marginal is None and len(children) == 1 and kinds[children[0]] is chance:
                marginal = name

    if graph.decisions:
        last = graph.decisions[-1]
        observed = set(graph.parents[last])
        if succs[last] == into_value and all(
            p in observed for p in graph.parents[value] if p != last
        ):
            return _decision_shape(graph, last)
    if fold is not None:
        return _fold_shape(graph, fold)
    if marginal is not None:
        return _marginal_shape(graph, marginal)

    topo = {n: i for i, n in enumerate(graph.topological_order())}
    v_parents = graph.parents[value]
    for name, kind in kinds.items():
        if kind is not chance or name not in v_parents:
            continue
        if any(kinds[s] is decision for s in succs[name]):
            continue  # cannot reach rule 3 until that decision goes
        heads = sorted((s for s in succs[name] if kinds[s] is chance), key=topo.__getitem__)
        for head in heads:
            if not graph.has_path(name, head, skip_arc=(name, head)):
                return _reversal_shape(graph, head, name)

    raise Unsolvable("no reduction rule applies; invalid information structure")


def structure_key(diagram: InfluenceDiagram) -> tuple:
    """Everything a plan and :func:`~iidiag.model.check_graph` depend on:
    per node in declaration order its key, its ``Node.name`` (a hand-built
    diagram can set the two apart), kind, parents and cardinality (None for
    a node without outcomes), plus the decision order."""
    nodes = tuple([_node_entry(name, node) for name, node in diagram.nodes.items()])
    return nodes, diagram.decision_order


def _node_entry(name: str, node: Node) -> tuple:
    """The entry of :func:`structure_key` for ``node``, kept under ``name``."""
    return (name, node.name, node.kind, node.parents,
            None if node.variable is None else len(node.variable.outcomes))


def compile_plan(diagram: InfluenceDiagram) -> tuple[StepShape, ...]:
    """The plan of ``diagram``'s structure: the shape of every step of its
    reduction, in order. It holds no table entries and no outcome labels, so
    it serves every diagram with the same :func:`structure_key`.

    The structure's graph is checked (:func:`~iidiag.model.check_graph`)
    and the plan is made on the graph the check returns."""
    return _compile(check_graph(diagram))


def _compile(graph: _Graph) -> tuple[StepShape, ...]:
    """The plan made on the checked ``graph``: the reduction rule runs on
    it, and each step updates it in place from its shape; no table is read.
    The graph is not checked again: each step keeps a valid graph valid."""
    shapes: list[StepShape] = []
    arcs = sum(len(parents) for parents in graph.parents.values())
    budget = 2 * (len(graph.parents) + arcs) ** 2 + 10
    while len(graph.parents) > 1:
        if len(shapes) > budget:
            raise Unsolvable("step budget exceeded; reduction is not converging")
        shape = _first_step(graph)
        graph.apply(shape)
        shapes.append(shape)
    return tuple(shapes)


class StepMemo:
    """What the solves given one memo remember of each other, for as long
    as the caller holds it; :func:`~iidiag.sensitivity.sweep` holds one for
    the length of a call. It serves one structure at a time: that
    structure's node keys, decision order, plan, value node name, decision
    count and cardinality of each node by name, and per node its
    :func:`structure_key` entry. Per node, every ``Node`` object it checked,
    with its rows. Per step, one record for every distinct input it ran on:
    the rows of its node and target and the decision ``Variable``, with the
    rows it produced and the step it completed. All of them are model
    objects, which are immutable, so nothing the memo keeps can change.

    Admitted objects and records are looked up by the ids of their inputs
    and hold the objects themselves, so no id is reused while the memo
    lives. A solve of another structure checks it and, once the check
    passes, compiles it and empties the memo; a failed compile leaves the
    memo serving no structure. It is not for sharing between threads."""

    def __init__(self) -> None:
        self._names: tuple[str, ...] | None = None  # None: serves no structure
        self._order: tuple[str, ...] = ()
        self._plan: tuple[StepShape, ...] = ()
        self._value = ""
        self._decisions = 0
        self._cards: dict[str, int | None] = {}
        # per node: admitted Nodes by id, with their rows, and the
        # structure_key entry
        self._slots: tuple[tuple[dict, tuple], ...] = ()
        self._records: list[dict] = []

    def _tables(self, diagram: InfluenceDiagram) -> dict:
        """Check ``diagram``; return its rows by node name.

        A diagram with the served node keys and decision order whose nodes
        the memo all admitted has the served structure and checked tables,
        so it is not checked again. A node new to the memo is compared with
        its entry of the served structure; when every new node matches, each
        new node's table goes through :func:`~iidiag.model.checked_rows`.
        Otherwise the structure is another one: the diagram is checked in
        full and the memo serves it."""
        nodes = diagram.nodes
        if tuple(nodes) == self._names and diagram.decision_order == self._order:
            tables, fresh = {}, []
            for (name, node), slot in zip(nodes.items(), self._slots):
                admitted = slot[0].get(id(node))
                if admitted is None:
                    fresh.append((name, node, slot))
                elif admitted[1] is not None:
                    tables[name] = admitted[1]
            if not fresh:
                return tables
            # the structure of every new node before any table, in the
            # order check_structure checks them
            if all(_node_entry(name, node) == slot[1] for name, node, slot in fresh):
                cards, decision = self._cards, NodeKind.DECISION
                for name, node, (admitted, _) in fresh:
                    rows = None
                    if node.kind is not decision:
                        rows = tables[name] = checked_rows(node, cards)
                    admitted[id(node)] = (node, rows)
                return tables
        checked = check_structure(diagram)
        self.serve(diagram, checked)
        return checked[1]

    def serve(self, diagram: InfluenceDiagram, checked: tuple[_Graph, dict]) -> None:
        """Serve the structure of ``diagram``, which the caller checked:
        ``checked`` must be what :func:`~iidiag.model.check_structure`
        returned for this very diagram, as nothing is checked here. The
        memo compiles the plan on its graph and admits every node of the
        diagram with its checked rows.

        The saving needs the later diagrams to keep the structure of
        ``diagram``: its node keys and decision order and, per node, the
        name, kind, parents and cardinality. A solve given this memo then
        checks no graph. :func:`~iidiag.sensitivity.inject_range` keeps it,
        as it swaps only chance tables. A diagram of another structure is
        checked in full, as after any solve of ``diagram``."""
        graph, rows = checked
        self._names = None  # serves no structure until the compile succeeds
        # read before _compile edits the graph
        cards, value, decisions = dict(graph.cards), graph.value, len(graph.decisions)
        self._plan = _compile(graph)
        key = structure_key(diagram)
        self._slots = tuple(
            ({id(node): (node, rows.get(name))}, entry)
            for (name, node), entry in zip(diagram.nodes.items(), key[0])
        )
        self._records = [{} for _ in self._plan]
        self._cards, self._value, self._decisions = cards, value, decisions
        self._order = key[1]
        self._names = tuple(diagram.nodes)


def solve(diagram: InfluenceDiagram, *, memo: StepMemo | None = None) -> SolveReport:
    """Evaluate the diagram: bounded expected value plus admissible policies.

    Every decision of the input diagram appears exactly once in
    ``policies``; a decision dropped as barren never influences value, so
    its step reports every alternative admissible at the empty information
    state.

    The input is validated first, so a hand-built diagram or one derived
    without :func:`~iidiag.model.build_diagram` is held to the same
    invariants. The step sequence depends on structure only: it is compiled
    into a plan (:func:`compile_plan`) and replayed over the input's tables,
    checking every table a step produces. Without a ``memo`` the call checks
    the whole diagram, compiles a plan on the graph its check returns,
    replays it on the rows the check returns, and keeps nothing.

    A ``memo`` (a :class:`StepMemo`) keeps the plan of the structure it
    serves, so a run of solves over one structure checks the graph and
    compiles once. It checks a node and its table's rows once per ``Node``
    object, and a step whose input rows and decision ``Variable`` are the
    very objects of a run the memo recorded takes that run's checked output
    and completed step instead of running again: kernels are pure, and
    model objects are immutable, so the report is the same.
    """
    if memo is None:
        graph, tables = check_structure(diagram)
        value, decisions = graph.value, len(graph.decisions)
        plan, records = _compile(graph), None
    else:
        tables = memo._tables(diagram)
        plan, value, decisions, records = memo._plan, memo._value, memo._decisions, memo._records
    nodes = diagram.nodes
    steps: list[TransformStep] = []
    policies: dict[str, AdmissibleSet] = {}
    notes: list[str] = []

    for i, shape in enumerate(plan):
        if records is None:
            produced, step = shape.run_checked(tables, diagram)
        else:
            # all a kernel reads: the rows of its node and target, and the
            # node's Variable for a decision's alternatives
            a, b = tables.get(shape.node), tables.get(shape.into)
            variable = nodes[shape.node].variable
            inputs = (id(a), id(b), id(variable))
            record = records[i].get(inputs)
            if record is None:
                produced, step = shape.run_checked(tables, diagram)
                records[i][inputs] = (a, b, variable, produced, step)
            else:
                produced, step = record[3], record[4]
        for table, rows in zip(shape.produced, produced):
            tables[table.name] = rows
        steps.append(step)

        if step.admissible is not None:
            policies[step.node] = step.admissible
            if step.kind is StepKind.REMOVE_BARREN:
                notes.append(f"{step.node}: barren decision, any alternative is optimal")
            elif step.lower_gap > 0:
                notes.append(
                    f"{step.node}: admissible-set hull lower bound sits "
                    f"{fmt(step.lower_gap)} below the best attainable floor"
                )
        if step.notes:
            ind = sum(1 for n in step.notes if n.kind == "indeterminate")
            conv = len(step.notes) - ind
            notes.append(
                f"{step.node}->{step.into}: {conv} convention-zero and "
                f"{ind} indeterminate posterior bounds stored as 0"
            )

    final = tables[value]
    assert len(final) == 1
    assert len(policies) == decisions, f"decisions without a policy: {decisions - len(policies)}"
    return SolveReport(
        final_interval=final[0],
        policies=policies,
        steps=tuple(steps),
        notes=tuple(notes),
    )
