"""The typed-error promise for diagrams built in memory, held by a mutation
fuzzer.

A library caller can hand any entry point an ``InfluenceDiagram`` that no
parser has seen. Each mutant is a shipped fixture or a generated diagram
with one or two edits to its nodes: two tables swapped, a table's cards or
parents changed, rows given as lists (valid, or one row too long or too
short), an entry made non-finite or out of range, a ``Node.name`` set apart
from its key, a variable's outcomes changed, a table dropped. Every entry
point either returns or raises a ``DiagramError``. A solve given a memo that
has just solved the unmutated diagram (so the warm checks run) ends as a
plain solve does. A second, separately seeded loop edits each base's
``decision_order`` instead (an entry repeated or dropped, the order
reversed, an unknown name added): every entry point refuses an order that
is not the base's, the one order its arcs allow. Seeds and counts are
fixed, so a run takes a few seconds and a failure names the seed and the
edits that caused it.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest

from iidiag import errors, solver
from iidiag.diagram_io import fixture_path, load_diagram
from iidiag.exact import exact_envelope, point_solve, sample_member, soundness_check
from iidiag.generate import random_chain_diagram, random_diagram
from iidiag.model import InfluenceDiagram, NodeKind, Variable
from iidiag.sensitivity import SensitivitySpec, sweep
from iidiag.solver import apply_step, next_step, solve

MUTANTS_PER_BASE = 150
ORDER_EDITS_PER_BASE = 40


def _bases():
    """Interval fixtures, and point diagrams that exact_envelope and sweep
    run on in full."""
    for name in ("minimal", "survey", "wildcatter"):
        yield name, load_diagram(fixture_path(name))
    for seed in range(3):
        yield f"random_diagram {seed}", random_diagram(Random(seed), max_nodes=6, point=True)
        yield f"random_chain_diagram {seed}", random_chain_diagram(Random(seed), point=True)


def _table(node):
    return node.chance_table or node.value_table


def _with_table(node, table):
    if node.kind is NodeKind.CHANCE:
        return replace(node, chance_table=table)
    return replace(node, value_table=table)


def _mutate(diagram, rng: Random):
    """One edit to ``diagram``'s nodes: the new nodes by key, and what the
    edit was."""
    nodes = diagram.nodes
    tabled = [n for n, node in nodes.items() if _table(node) is not None]
    op = rng.choice(("swap", "cards", "parents", "list rows", "row length",
                     "number", "name", "outcomes", "no table"))
    if not tabled:  # an earlier edit dropped the only table
        op = "name"
    else:
        name = rng.choice(tabled)
        node = nodes[name]
        table = _table(node)
    if op == "swap":
        other = rng.choice(tabled)
        return {name: _with_table(node, _table(nodes[other])),
                other: _with_table(nodes[other], table)}, f"swap {name} {other}"
    if op == "cards":
        cards = list(table.cards)
        if cards and rng.random() < 0.7:
            i = rng.randrange(len(cards))
            cards[i] += rng.choice((-1, 1))
        else:
            cards.append(2)
        return {name: _with_table(node, replace(table, cards=tuple(cards)))}, f"cards {name}"
    if op == "parents":
        parents = list(table.parents)
        if len(parents) > 1:
            parents.reverse()
        else:
            parents.append(rng.choice(list(nodes)))
        return {name: _with_table(node, replace(table, parents=tuple(parents)))}, f"parents {name}"
    if op == "list rows":
        rows = [list(row) for row in table.rows]
        return {name: _with_table(node, replace(table, rows=rows))}, f"list rows {name}"
    if op == "row length":
        rows = [list(row) for row in table.rows]
        row = rng.choice(rows)
        if rng.random() < 0.5:
            row.append(0.0)
        else:
            row.pop()
        return {name: _with_table(node, replace(table, rows=rows))}, f"row length {name}"
    if op == "number":
        rows = [list(row) for row in table.rows]
        row = rng.choice(rows)
        number = rng.choice((float("nan"), float("inf"), -0.5, 2.0, 1e308))
        row[rng.randrange(len(row))] = number
        return {name: _with_table(node, replace(table, rows=rows))}, f"number {number} in {name}"
    if op == "name":
        # a chance, decision or value node's name set apart from its key
        name = rng.choice(list(nodes))
        node = nodes[name]
        label = rng.choice([*nodes, "ghost"])
        return {name: replace(node, name=label)}, f"name {label} for {name}"
    if op == "outcomes":
        choosers = [n for n, node in nodes.items() if node.variable is not None]
        name = rng.choice(choosers)
        node = nodes[name]
        outcomes = node.variable.outcomes
        # a Variable holds at least two outcomes
        outcomes = outcomes[:-1] if len(outcomes) > 2 else (*outcomes, "extra")
        return {name: replace(node, variable=Variable(name, outcomes))}, f"outcomes {name}"
    return {name: _with_table(node, None)}, f"no table {name}"


def _outcome(call):
    """The call's result, or the error's type and message; anything but a
    ``DiagramError`` escapes."""
    try:
        return call()
    except errors.DiagramError as exc:
        return type(exc).__name__, str(exc)


BASES = dict(_bases())


@pytest.mark.parametrize("base_name", list(BASES))
def test_every_mutant_ends_typed(base_name):
    base = BASES[base_name]
    chance = base.names(NodeKind.CHANCE)
    varied = chance[:2]
    spec = SensitivitySpec(varied, (0.0, 0.05))
    member = sample_member(base, 0)
    shape = next_step(base)
    outcomes = set()
    for seed in range(MUTANTS_PER_BASE):
        rng = Random(f"{base_name}:{seed}")
        edits = []
        mutant = base
        for _ in range(rng.randint(1, 2)):
            updates, edit = _mutate(mutant, rng)
            mutant = mutant.replace_nodes(updates)
            edits.append(edit)
        where = f"base {base_name}, seed {seed}, edits {edits}"
        memo = solver.StepMemo()
        solve(base, memo=memo)
        calls = {
            "solve": lambda: repr(solve(mutant)),
            "warm solve": lambda: repr(solve(mutant, memo=memo)),
            "second warm solve": lambda: repr(solve(mutant, memo=memo)),
            "point_solve": lambda: point_solve(mutant, member),
            "exact_envelope": lambda: exact_envelope(mutant, varied, cap=500),
            "soundness_check": lambda: soundness_check(mutant, 3, seed=seed),
            "sweep": lambda: sweep(mutant, spec),
            "apply_step": lambda: apply_step(mutant, shape),
            "next_step": lambda: next_step(mutant),
        }
        got = _outcomes(calls, where)
        assert got["warm solve"] == got["second warm solve"] == got["solve"], where
        outcomes.add(isinstance(got["solve"], tuple))
    # the mutants reach both ends: some solve and some are refused
    assert outcomes == {True, False}


def _outcomes(calls, where):
    """Each call's :func:`_outcome` by name; any other exception fails the
    test and names the input."""
    got = {}
    for what, call in calls.items():
        try:
            got[what] = _outcome(call)
        except Exception as exc:  # the promise is broken: report the input
            pytest.fail(f"{what} raised {exc!r} on {where}")
    return got


def _edit_order(order, rng: Random):
    """One edit to a decision order: the new order, and what the edit was."""
    op = rng.choice(("repeat", "reverse", "drop", "unknown"))
    if not order:
        op = "unknown"
    if op == "reverse":
        return order[::-1], op
    i = rng.randrange(len(order) + (op == "unknown"))
    if op == "repeat":
        return order[:i + 1] + order[i:], f"repeat {order[i]}"
    if op == "drop":
        return order[:i] + order[i + 1:], f"drop {order[i]}"
    return order[:i] + ("ghost",) + order[i:], f"ghost at {i}"


@pytest.mark.parametrize("base_name", list(BASES))
def test_every_decision_order_but_the_arcs_is_refused(base_name):
    base = BASES[base_name]
    varied = base.names(NodeKind.CHANCE)[:2]
    spec = SensitivitySpec(varied, (0.0, 0.05))
    member = sample_member(base, 0)
    shape = next_step(base)
    edits = [_edit_order(base.decision_order, Random(f"order {base_name}:{seed}"))
             for seed in range(ORDER_EDITS_PER_BASE)]
    # reversed, the wildcatter's order once solved to a wrong value
    edits.append((base.decision_order[::-1], "reverse"))
    kept = 0
    for seed, (order, edit) in enumerate(edits):
        edited = InfluenceDiagram(base.nodes, order, base.added_information_arcs)
        where = f"base {base_name}, seed {seed}, edit {edit}: {order}"
        memo = solver.StepMemo()
        solve(base, memo=memo)
        got = _outcomes({
            "solve": lambda: repr(solve(edited)),
            "warm solve": lambda: repr(solve(edited, memo=memo)),
            "point_solve": lambda: point_solve(edited, member),
            "exact_envelope": lambda: exact_envelope(edited, varied, cap=500),
            "soundness_check": lambda: soundness_check(edited, 3, seed=seed),
            "sweep": lambda: sweep(edited, spec),
            "apply_step": lambda: apply_step(edited, shape),
            "next_step": lambda: next_step(edited),
        }, where)
        if order == base.decision_order:  # a one-decision order reversed
            kept += 1
            assert got["solve"] == got["warm solve"] == repr(solve(base)), where
            continue
        for what, outcome in got.items():
            assert isinstance(outcome, tuple), f"{what} returned on {where}"
    if len(base.decision_order) > 1:
        assert kept == 0
