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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Unsolvable
from .model import InfluenceDiagram, NodeKind, check_structure, check_tables
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
    table_rows,
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
    :func:`apply_step`; a pure function of the diagram's structure, so
    tables may be absent."""
    value = diagram.value_node
    if len(diagram.nodes) == 1:
        raise Unsolvable("only the value node remains")

    for name, node in diagram.nodes.items():
        if node.kind is not NodeKind.VALUE and not diagram.successors(name):
            return _barren_shape(diagram, name)

    if diagram.decision_order:
        last = diagram.decision_order[-1]
        observed = set(diagram.node(last).parents)
        if diagram.successors(last) == (value.name,) and all(
            p in observed for p in value.parents if p != last
        ):
            return _decision_shape(diagram, last)

    for name in diagram.names(NodeKind.CHANCE):
        if diagram.successors(name) == (value.name,):
            return _fold_shape(diagram, name)

    for name in diagram.names(NodeKind.CHANCE):
        succs = diagram.successors(name)
        if len(succs) == 1 and diagram.node(succs[0]).kind is NodeKind.CHANCE:
            return _marginal_shape(diagram, name)

    topo = {n: i for i, n in enumerate(diagram.topological_order())}
    for name in diagram.names(NodeKind.CHANCE):
        if name not in value.parents:
            continue
        succs = diagram.successors(name)
        kinds = [diagram.node(s).kind for s in succs]
        if any(k is NodeKind.DECISION for k in kinds):
            continue  # cannot reach rule 3 until that decision goes
        heads = sorted(
            (s for s, k in zip(succs, kinds) if k is NodeKind.CHANCE),
            key=topo.__getitem__,
        )
        for head in heads:
            if not diagram.has_path(name, head, skip_arc=(name, head)):
                return _reversal_shape(diagram, head, name)

    raise Unsolvable("no reduction rule applies; invalid information structure")


def structure_key(diagram: InfluenceDiagram) -> tuple:
    """Everything a plan and the graph half of
    :func:`~iidiag.model.check_structure` depend on: per node in declaration
    order its key, its ``Node.name`` (a hand-built diagram can set the two
    apart), kind, parents and cardinality (None for a node without
    outcomes), plus the decision order."""
    nodes = tuple(
        (name, node.name, node.kind, node.parents,
         None if node.variable is None else len(node.variable.outcomes))
        for name, node in diagram.nodes.items()
    )
    return nodes, diagram.decision_order


def compile_plan(diagram: InfluenceDiagram) -> tuple[StepShape, ...]:
    """The plan of ``diagram``'s structure: the shape of every step of its
    reduction, in order. It holds no table entries and no outcome labels, so
    it serves every diagram with the same :func:`structure_key`.

    :func:`next_step` is replayed on the structure alone. No table is read:
    a produced node is rebuilt without one, and the nodes a step leaves in
    place are never looked at past their arcs. The graph is not checked
    again: each step keeps a valid graph valid."""
    shapes: list[StepShape] = []
    budget = 2 * (len(diagram.nodes) + len(diagram.arcs())) ** 2 + 10
    while len(diagram.nodes) > 1:
        if len(shapes) > budget:
            raise Unsolvable("step budget exceeded; reduction is not converging")
        shape = next_step(diagram)
        diagram = shape.successor(diagram)
        shapes.append(shape)
    return tuple(shapes)


# The plan of the most recently solved structure, as one (key, plan) tuple
# so that threads read and replace it whole. Failed compiles are not kept.
_cached_plan: tuple[tuple, tuple[StepShape, ...]] | None = None


def clear_plan_cache() -> None:
    """Forget the cached plan, so the next :func:`solve` compiles afresh."""
    global _cached_plan
    _cached_plan = None


def _checked_plan(diagram: InfluenceDiagram) -> tuple[StepShape, ...]:
    """Check ``diagram`` and return its plan. The graph check reads nothing
    outside :func:`structure_key`, so it runs only when a plan is compiled;
    the tables are checked on every call."""
    global _cached_plan
    key = structure_key(diagram)
    entry = _cached_plan
    if entry is not None and entry[0] == key:
        check_tables(diagram)
        return entry[1]
    check_structure(diagram)
    _cached_plan = None  # never hold two plans at once
    plan = compile_plan(diagram)
    _cached_plan = (key, plan)
    return plan


def solve(diagram: InfluenceDiagram) -> SolveReport:
    """Evaluate the diagram: bounded expected value plus admissible policies.

    Every decision of the input diagram appears exactly once in
    ``policies``; a decision dropped as barren never influences value, so
    its step reports every alternative admissible at the empty information
    state.

    The input is validated in full first, so a hand-built diagram or one
    derived without :func:`~iidiag.model.build_diagram` is held to the same
    invariants. The step sequence depends on structure only: it is compiled
    into a plan (:func:`compile_plan`, kept for the most recent structure,
    so a run of solves over one structure compiles once) and replayed over
    the input's tables, checking every table a step produces. The graph is
    checked once per compiled plan, every input table on every call.
    """
    plan = _checked_plan(diagram)
    tables = table_rows(diagram)
    steps: list[TransformStep] = []
    policies: dict[str, AdmissibleSet] = {}
    notes: list[str] = []

    for shape in plan:
        produced, step = shape.run_checked(tables, diagram)
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

    final = tables[diagram.value_node.name]
    assert len(final) == 1
    report = SolveReport(
        final_interval=final[0],
        policies=policies,
        steps=tuple(steps),
        notes=tuple(notes),
    )
    missing = [d for d in diagram.names(NodeKind.DECISION) if d not in report.policies]
    assert not missing, f"decisions without a policy: {missing}"
    return report
