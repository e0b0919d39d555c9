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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Unsolvable
from .model import (
    InfluenceDiagram,
    NodeKind,
    check_graph,
    check_structure,
    check_table_rows,
)
from .transforms import (
    AdmissibleSet,
    StepKind,
    StepShape,
    TransformStep,
    apply_shape,
    step_shape,
    table_rows,
)


@dataclass(frozen=True)
class SolveReport:
    """Final expected-value interval, admissible policies, and the audit log."""

    final_interval: tuple[float, float]
    policies: dict[str, AdmissibleSet]
    steps: tuple[TransformStep, ...]
    notes: tuple[str, ...]


def next_step(diagram: InfluenceDiagram) -> TransformStep:
    """The step :func:`solve` would apply next; a pure function of the diagram."""
    value = diagram.value_node
    if len(diagram.nodes) == 1:
        raise Unsolvable("only the value node remains")

    for name, node in diagram.nodes.items():
        if node.kind is not NodeKind.VALUE and not diagram.successors(name):
            return TransformStep(StepKind.REMOVE_BARREN, node=name)

    if diagram.decision_order:
        last = diagram.decision_order[-1]
        observed = set(diagram.node(last).parents)
        others = [p for p in value.parents if p != last]
        if (
            last in value.parents
            and diagram.successors(last) == (value.name,)
            and all(p in observed for p in others)
        ):
            return TransformStep(StepKind.REMOVE_DECISION, node=last, into=value.name)

    for name in diagram.names(NodeKind.CHANCE):
        if diagram.successors(name) == (value.name,):
            return TransformStep(
                StepKind.REMOVE_CHANCE_INTO_VALUE, node=name, into=value.name
            )

    for name in diagram.names(NodeKind.CHANCE):
        succs = diagram.successors(name)
        if len(succs) == 1 and diagram.node(succs[0]).kind is NodeKind.CHANCE:
            return TransformStep(StepKind.MARGINALIZE_CHANCE, node=name, into=succs[0])

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
                return TransformStep(StepKind.REVERSE_ARC, node=name, into=head)

    raise Unsolvable("no reduction rule applies; invalid information structure")


def apply_step(
    diagram: InfluenceDiagram, step: TransformStep
) -> tuple[InfluenceDiagram, TransformStep]:
    """Run one step descriptor, returning the new diagram and the completed
    step (with admissible sets / notes filled in)."""
    return apply_shape(diagram, step_shape(diagram, step))


def structure_key(diagram: InfluenceDiagram) -> tuple:
    """Everything a plan depends on: per node in declaration order its name,
    kind, parents and cardinality, plus the decision order."""
    nodes = tuple(
        (name, node.kind, node.parents,
         None if node.variable is None else len(node.variable.outcomes))
        for name, node in diagram.nodes.items()
    )
    return nodes, diagram.decision_order


def compile_plan(diagram: InfluenceDiagram) -> tuple[StepShape, ...]:
    """The plan of ``diagram``'s structure: the shape of every step of its
    reduction, in order. It holds no table entries and no outcome labels, so
    it serves every diagram with the same :func:`structure_key`.

    :func:`next_step` is replayed on the structure alone, checking the graph
    of every intermediate structure as the transforms do. No table is read:
    a produced node is rebuilt without one, and the nodes a step leaves in
    place are never looked at past their arcs."""
    shapes: list[StepShape] = []
    budget = 2 * (len(diagram.nodes) + len(diagram.arcs())) ** 2 + 10
    while len(diagram.nodes) > 1:
        if len(shapes) > budget:
            raise Unsolvable("step budget exceeded; reduction is not converging")
        shape = step_shape(diagram, next_step(diagram))
        diagram = shape.successor(diagram)
        check_graph(diagram)
        shapes.append(shape)
    return tuple(shapes)


# The plan of the most recently solved structure, as one (key, plan) tuple
# so that threads read and replace it whole. Failed compiles are not kept.
_cached_plan: tuple[tuple, tuple[StepShape, ...]] | None = None


def clear_plan_cache() -> None:
    """Forget the cached plan, so the next :func:`solve` compiles afresh."""
    global _cached_plan
    _cached_plan = None


def _plan_of(diagram: InfluenceDiagram) -> tuple[StepShape, ...]:
    global _cached_plan
    key = structure_key(diagram)
    entry = _cached_plan
    if entry is not None and entry[0] == key:
        return entry[1]
    _cached_plan = None  # never hold two plans at once
    plan = compile_plan(diagram)
    _cached_plan = (key, plan)
    return plan


def solve(diagram: InfluenceDiagram) -> SolveReport:
    """Evaluate the diagram: bounded expected value plus admissible policies.

    Every decision of the input diagram appears exactly once in
    ``policies``; a decision dropped as barren never influences value, so it
    is reported with every alternative admissible at the empty information
    state.

    The input is validated in full first, so a hand-built diagram or one
    derived without :func:`~iidiag.model.build_diagram` is held to the same
    invariants. The step sequence depends on structure only: it is compiled
    into a plan (:func:`compile_plan`, kept for the most recent structure,
    so a run of solves over one structure compiles once) and replayed over
    the input's tables, checking every table a step produces.
    """
    check_structure(diagram)
    plan = _plan_of(diagram)
    tables = table_rows(diagram)
    steps: list[TransformStep] = []
    policies: dict[str, AdmissibleSet] = {}
    notes: list[str] = []

    for shape in plan:
        produced, step = shape.run(tables, diagram)
        for table, rows in zip(shape.produced, produced):
            check_table_rows(table.name, rows, table.cards, table.outcomes)
            tables[table.name] = rows
        steps.append(step)

        if step.admissible is not None:
            policies[step.node] = step.admissible
            if step.lower_gap and step.lower_gap > 0:
                notes.append(
                    f"{step.node}: admissible-set hull lower bound sits "
                    f"{step.lower_gap:.4g} below the best attainable floor"
                )
        elif step.kind is StepKind.REMOVE_BARREN and shape.decision:
            alternatives = diagram.node(step.node).variable.outcomes
            policies[step.node] = AdmissibleSet(
                decision=step.node,
                alternatives=alternatives,
                info_parents=(),
                info_cards=(),
                sets=(tuple(range(len(alternatives))),),
            )
            notes.append(f"{step.node}: barren decision, any alternative is optimal")
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
