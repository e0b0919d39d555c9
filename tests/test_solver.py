"""End-to-end reduction: rule priority, determinism, termination, policies."""

import gc
import itertools
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

from iidiag import errors, model, sensitivity, solver, transforms
from iidiag.diagram_io import fixture_path, load_diagram
from iidiag.exact import point_solve, soundness_check
from iidiag.generate import random_chain_diagram, random_diagram
from iidiag.model import (
    InfluenceDiagram,
    IntervalValueTable,
    LowerCPT,
    Node,
    NodeKind,
    Variable,
    _Graph,
    build_diagram,
    config_assignment,
    config_index,
)
from iidiag.sensitivity import SensitivitySpec, inject_range, report_to_dict, sweep
from iidiag.solver import apply_step, next_step, solve
from iidiag.transforms import StepKind, remove_barren
from conftest import chain_data
from test_outputs_pinned import WILDCATTER_TARGETS, every_subset, wildcatter_sweep_spec


class TestSolveValidatesItsInput:
    """solve() checks its whole input once; later steps check only the
    tables they produce, so an invalid table no step reads must still be
    caught up front."""

    def test_invalid_untouched_table_raises(self, minimal, monkeypatch):
        # B has no successors: solving drops it without reading its table
        barren = Node("B", NodeKind.CHANCE, minimal.node("C").variable, (),
                      chance_table=LowerCPT((), (), ((-0.5, 0.2),)))
        hand_built = InfluenceDiagram(
            nodes={"B": barren, **minimal.nodes}, decision_order=minimal.decision_order
        )
        with pytest.raises(errors.NegativeBound, match=r"B\.table\[0\]"):
            solve(hand_built)
        monkeypatch.setattr(model, "checked_rows",
                            lambda node, cards: (node.chance_table or node.value_table).rows)
        assert solve(hand_built).final_interval == solve(minimal).final_interval


class TestSolveExamples:
    def test_single_chance_node(self):
        d = build_diagram(
            {
                "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
                "nodes": [
                    {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
                    {
                        "name": "V",
                        "kind": "value",
                        "parents": ["C"],
                        "table": [[10, 10], [0, 0]],
                    },
                ],
            }
        )
        report = solve(d)
        assert report.final_interval == pytest.approx((5.0, 7.0))
        assert report.policies == {}
        assert [s.kind for s in report.steps] == [StepKind.REMOVE_CHANCE_INTO_VALUE]

    def test_decision_and_chance(self, minimal):
        report = solve(minimal)
        assert report.final_interval == pytest.approx((5.0, 7.0))
        assert report.policies["D"].sets == ((0,),)
        assert [s.kind for s in report.steps] == [
            StepKind.REMOVE_CHANCE_INTO_VALUE,
            StepKind.REMOVE_DECISION,
        ]

    def test_survey_regression(self, survey):
        # frozen from this solver; the reversal + folding path is also
        # covered relationally by the sampling and envelope suites
        report = solve(survey)
        assert report.final_interval == pytest.approx(
            (2.812121212121212, 8.352542372881356), abs=1e-12
        )
        assert [s.kind for s in report.steps] == [
            StepKind.REVERSE_ARC,
            StepKind.REMOVE_CHANCE_INTO_VALUE,
            StepKind.REMOVE_DECISION,
            StepKind.REMOVE_CHANCE_INTO_VALUE,
        ]
        act = report.policies["ACT"]
        assert act.info_parents == ("SIGNAL",)
        assert act.sets == ((0,), (0, 1))

    def test_wildcatter_point_diagram(self, wildcatter):
        report = solve(wildcatter)
        lo, hi = report.final_interval
        assert lo == pytest.approx(hi, abs=1e-9)
        assert lo == pytest.approx(32.99, abs=1e-9)
        assert report.policies["TEST"].sets == ((2,),)  # the thorough test
        drill = report.policies["DRILL"]
        assert drill.info_parents == ("TEST", "RESULT")
        # drilling is rejected exactly on discouraging survey readings
        no_drill = {
            idx for idx, s in enumerate(drill.sets) if s == (1,)
        }
        assert no_drill == {
            config_index((1, 0), drill.info_cards),  # cheap test, reads ns
            config_index((2, 0), drill.info_cards),  # thorough test, reads ns
        }

    def test_all_decisions_reported_even_barren(self):
        d = build_diagram(
            {
                "variables": [{"name": "C", "outcomes": ["a", "b"]}],
                "nodes": [
                    {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
                    {"name": "D", "kind": "decision", "parents": [], "alternatives": ["x", "y"]},
                    {"name": "V", "kind": "value", "parents": ["C"], "table": [[0, 1], [2, 3]]},
                ],
            }
        )
        report = solve(d)
        assert report.policies["D"].sets == ((0, 1),)
        assert report.policies["D"].info_parents == ()
        assert any("barren decision" in n for n in report.notes)


class TestNextStep:
    def test_single_candidate(self):
        d = build_diagram(
            {
                "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
                "nodes": [
                    {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
                    {"name": "V", "kind": "value", "parents": ["C"], "table": [[0, 1], [1, 2]]},
                ],
            }
        )
        step = next_step(d)
        assert step.kind is StepKind.REMOVE_CHANCE_INTO_VALUE
        assert step.node == "C"

    def test_bare_value_node_errors(self):
        d = build_diagram(
            {"variables": [], "nodes": [{"name": "V", "kind": "value", "parents": [], "table": [[0, 1]]}]}
        )
        with pytest.raises(errors.Unsolvable):
            next_step(d)

    def test_pure_function_of_diagram(self, survey):
        a = next_step(survey)
        b = next_step(survey)
        assert a == b

    def test_replaying_steps_reproduces_solve(self, wildcatter):
        report = solve(wildcatter)
        diagram = wildcatter
        for logged in report.steps:
            planned = next_step(diagram)
            assert planned.kind is logged.kind
            assert planned.node == logged.node
            assert planned.into == logged.into
            diagram, _ = apply_step(diagram, planned)
        assert len(diagram.nodes) == 1

    def test_barren_checked_first(self):
        d = build_diagram(
            {
                "variables": [
                    {"name": "C", "outcomes": ["a", "b"]},
                    {"name": "B", "outcomes": ["a", "b"]},
                ],
                "nodes": [
                    {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
                    {"name": "B", "kind": "chance", "parents": ["C"], "table": [[0.5, 0.5]] * 2},
                    {"name": "V", "kind": "value", "parents": ["C"], "table": [[0, 1], [2, 3]]},
                ],
            }
        )
        assert next_step(d).kind is StepKind.REMOVE_BARREN


class TestSolveProperties:
    def test_determinism(self):
        rng = Random(11)
        for _ in range(20):
            d = random_diagram(rng, max_nodes=5)
            r1, r2 = solve(d), solve(d)
            assert r1.final_interval == r2.final_interval
            assert [s.describe() for s in r1.steps] == [s.describe() for s in r2.steps]
            assert {k: v.sets for k, v in r1.policies.items()} == {
                k: v.sets for k, v in r2.policies.items()
            }

    def test_step_counts(self):
        rng = Random(12)
        for i in range(60):
            d = random_chain_diagram(rng) if i % 2 else random_diagram(rng)
            n_nodes = len(d.nodes)
            n_arcs = sum(len(node.parents) for node in d.nodes.values())
            report = solve(d)
            removals = sum(
                1 for s in report.steps if s.kind is not StepKind.REVERSE_ARC
            )
            reversals = len(report.steps) - removals
            assert removals <= n_nodes
            assert reversals <= n_arcs

    def test_policies_cover_every_decision(self):
        rng = Random(13)
        for _ in range(40):
            d = random_diagram(rng, max_nodes=5)
            report = solve(d)
            assert set(report.policies) == set(d.names(NodeKind.DECISION))
            for adm in report.policies.values():
                assert all(s for s in adm.sets)

    def test_final_interval_ordered(self):
        rng = Random(14)
        for i in range(40):
            d = random_chain_diagram(rng) if i % 2 else random_diagram(rng)
            lo, hi = solve(d).final_interval
            assert lo <= hi + 1e-12


class TestPointReductionEndToEnd:
    def test_degenerate_interval_equals_classical_optimum(self):
        rng = Random(15)
        for i in range(40):
            d = (
                random_chain_diagram(rng, point=True)
                if i % 2
                else random_diagram(rng, point=True)
            )
            report = solve(d)
            lo, hi = report.final_interval
            assert hi - lo <= 1e-9
            rows = {
                name: d.node(name).chance_table.rows
                for name in d.names(NodeKind.CHANCE)
            }
            from iidiag.exact import PointRealization

            member = PointRealization(
                chance=rows,
                values=tuple(v[0] for v in d.value_node.value_table.rows),
            )
            solution = point_solve(d, member)
            assert solution.expected_value == pytest.approx(lo, abs=1e-9)

    def test_classical_argmax_in_admissible_sets(self):
        rng = Random(16)
        for i in range(40):
            d = random_diagram(rng, max_nodes=5, point=True)
            report = solve(d)
            from iidiag.exact import PointRealization

            member = PointRealization(
                chance={
                    name: d.node(name).chance_table.rows
                    for name in d.names(NodeKind.CHANCE)
                },
                values=tuple(v[0] for v in d.value_node.value_table.rows),
            )
            solution = point_solve(d, member)
            for name, entries in solution.policy.items():
                adm = report.policies[name]
                parents = d.node(name).parents
                cards = d.cards_of(parents)
                positions = [parents.index(p) for p in adm.info_parents]
                for info_idx, entry in entries.items():
                    if not entry.reached:
                        continue
                    values = config_assignment(info_idx, cards)
                    reduced = config_index(
                        [values[p] for p in positions], adm.info_cards
                    )
                    assert set(entry.tied) <= set(adm.sets[reduced])


# ---------------------------------------------------------------------------
# Compiled plans: a StepMemo keeps the plan of the structure it serves, so
# the solves given it compile once per structure and replay only the row
# arithmetic. A warm solve (a second one with the same memo) must match a
# plain solve, which compiles afresh.
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _stepwise(diagram):
    """The reduction by next_step/apply_step, one rebuilt diagram per step."""
    steps, policies = [], {}
    while len(diagram.nodes) > 1:
        diagram, step = apply_step(diagram, next_step(diagram))
        steps.append(step)
        if step.admissible is not None:
            policies[step.node] = step.admissible
    return diagram.value_node.value_table.rows[0], tuple(steps), policies


def _outcome(diagram, memo=None):
    """The report's repr, or the error's type and message."""
    try:
        return repr(solve(diagram, memo=memo))
    except errors.DiagramError as exc:
        return type(exc).__name__, str(exc)


def _cold_sweep(diagram, spec, monkeypatch):
    """``report_to_dict`` of the sweep with every cell widened afresh and
    given a plain solve: nothing shared between cells but the code."""
    with monkeypatch.context() as m:
        m.setattr(sensitivity, "inject_range",
                  lambda d, nodes, range_, widened: inject_range(d, nodes, range_))
        m.setattr(sensitivity, "solve", lambda d, memo: solve(d))
        return report_to_dict(sweep(diagram, spec))


@pytest.fixture
def runs(monkeypatch):
    """A list that grows by one shape per step run, not per step reused."""
    shapes = []
    run_checked = transforms.StepShape.run_checked

    def counting(shape, tables, diagram):
        shapes.append(shape)
        return run_checked(shape, tables, diagram)

    monkeypatch.setattr(transforms.StepShape, "run_checked", counting)
    return shapes


@pytest.fixture
def compiles(monkeypatch):
    """A list that grows by one entry per plan compiled."""
    calls = []
    original = solver._compile

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(solver, "_compile", counting)
    return calls


def _golden_diagrams():
    names = ("minimal", "survey", "wildcatter")
    yield from ((n, load_diagram(fixture_path(n))) for n in names)
    for path in sorted(GOLDEN.glob("*.iid.json")):
        yield path.name, load_diagram(path)


class TestPlanReuse:
    def _assert_warm_equals_cold(self, warm_up, diagram, compiles):
        memo = solver.StepMemo()
        solve(warm_up, memo=memo)
        before = len(compiles)
        warm = solve(diagram, memo=memo)
        assert len(compiles) == before, "same structure must reuse the plan"
        cold = solve(diagram)
        assert warm == cold
        assert repr(warm) == repr(cold)
        interval, steps, policies = _stepwise(diagram)
        assert warm.final_interval == interval
        assert warm.steps == steps
        assert warm.policies == policies

    @pytest.mark.parametrize("range_", [0.0, 0.03, 0.2, 0.6])
    def test_golden_diagrams_with_new_numbers(self, range_, compiles):
        for name, diagram in _golden_diagrams():
            chance = diagram.names(NodeKind.CHANCE)
            renumbered = inject_range(diagram, chance, range_)
            self._assert_warm_equals_cold(diagram, renumbered, compiles)

    def test_widened_sweep_cells(self, wildcatter, compiles):
        rng = Random(21)
        bases = [(wildcatter, ("OIL", "SEISMIC", "COST"))]
        for _ in range(6):
            d = random_diagram(rng, max_nodes=6, point=True)
            bases.append((d, d.names(NodeKind.CHANCE)[:3]))
        for base, targets in bases:
            subsets = [
                tuple(n for i, n in enumerate(targets) if mask >> i & 1)
                for mask in range(1, 2 ** len(targets))
            ]
            for subset in subsets:
                for range_ in (0.0, 0.01, 0.05, 0.10, 0.3):
                    widened = inject_range(base, subset, range_)
                    self._assert_warm_equals_cold(base, widened, compiles)

    def test_labels_come_from_the_input(self, minimal_data, compiles):
        # outcome labels are not structure: the plan is shared, and each
        # report names its own diagram's alternatives
        first = build_diagram(minimal_data)
        minimal_data["nodes"][1]["alternatives"] = ["go", "stay"]
        second = build_diagram(minimal_data)
        memo = solver.StepMemo()
        solve(first, memo=memo)
        warm = solve(second, memo=memo)
        assert len(compiles) == 1
        assert warm.policies["D"].alternatives == ("go", "stay")
        assert repr(warm) == repr(solve(second))

    def test_threads_alternate_structures(self, minimal, survey):
        # a library caller may solve from several threads, each with its
        # own memo: alternating structures across more threads than cores
        # must never pair a key with another structure's plan
        expected = {id(d): repr(solve(d)) for d in (minimal, survey)}
        wrong = []

        def work(offset):
            memo = solver.StepMemo()
            for j in range(150):
                d = (minimal, survey)[(offset + j) % 2]
                try:
                    got = repr(solve(d, memo=memo))
                except Exception as exc:  # a thread's error is lost otherwise
                    got = exc
                if got != expected[id(d)]:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_one_plan_is_kept(self, minimal, survey, compiles):
        memo = solver.StepMemo()
        for diagram in (minimal, minimal, survey, minimal):
            solve(diagram, memo=memo)
        assert len(compiles) == 3


def _doc(cards=(2, 3), c_parents=("A", "B"), order=("A", "B", "C", "V")):
    """Roots A and B, chance C over ``c_parents``, value V over (C, A).
    C's rows are keyed by the outcome pair (a, b) in ``c_parents`` order,
    so a permuted parent order describes the same model."""
    card = dict(zip("AB", cards))
    k_c = 2
    c_rows = []
    for values in itertools.product(*(range(card[p]) for p in c_parents)):
        ab = dict(zip(c_parents, values))
        c_rows.append([0.1 + 0.05 * ab["A"], 0.3 + 0.1 * ab["B"] / card["B"]])
    nodes = {
        "A": {"name": "A", "kind": "chance", "parents": [],
              "table": [[0.2] + [0.7 / (card["A"] - 1)] * (card["A"] - 1)]},
        "B": {"name": "B", "kind": "chance", "parents": [],
              "table": [[0.9 / card["B"]] * card["B"]]},
        "C": {"name": "C", "kind": "chance", "parents": list(c_parents), "table": c_rows},
        "V": {"name": "V", "kind": "value", "parents": ["C", "A"],
              "table": [[i, i + 1 + i % 3] for i in range(k_c * card["A"])]},
    }
    variables = [
        {"name": n, "outcomes": [f"{n.lower()}{i}" for i in range(c)]}
        for n, c in (("A", card["A"]), ("B", card["B"]), ("C", k_c))
    ]
    return {"variables": variables, "nodes": [nodes[n] for n in order]}


def _two_decisions(order):
    """D1 seen by D2, both parents of V; ``order`` is the decision order as
    given, which build_diagram would derive as (D1, D2)."""
    d1 = Node("D1", NodeKind.DECISION, Variable("D1", ("x", "y")), ())
    d2 = Node("D2", NodeKind.DECISION, Variable("D2", ("u", "v")), ("D1",))
    v = Node("V", NodeKind.VALUE, None, ("D1", "D2"), value_table=IntervalValueTable(
        ("D1", "D2"), (2, 2), ((0.0, 1.0), (2.0, 2.5), (1.0, 3.0), (0.5, 0.5))
    ))
    return InfluenceDiagram({"D1": d1, "D2": d2, "V": v}, decision_order=order)


def _forgetful():
    """D2 sees D1 only through C, and forgets it: the arcs order the
    decisions and the graph check passes, but no reduction rule applies
    (build_diagram would add the arc D1 -> D2)."""
    d1 = Node("D1", NodeKind.DECISION, Variable("D1", ("x", "y")), ())
    c = Node("C", NodeKind.CHANCE, Variable("C", ("c1", "c2")), ("D1",),
             chance_table=LowerCPT(("D1",), (2,), ((0.5, 0.5), (0.2, 0.7))))
    d2 = Node("D2", NodeKind.DECISION, Variable("D2", ("u", "v")), ("C",))
    v = Node("V", NodeKind.VALUE, None, ("D1", "D2"), value_table=IntervalValueTable(
        ("D1", "D2"), (2, 2), ((0.0, 1.0), (2.0, 2.5), (1.0, 3.0), (0.5, 0.5))
    ))
    return InfluenceDiagram({"D1": d1, "C": c, "D2": d2, "V": v}, decision_order=("D1", "D2"))


class TestPlanKeyCompleteness:
    """Diagrams that differ in one structural detail never share a memo's
    plan, in either solve order, and each result equals a plain solve's."""

    VARIANTS = {
        "parent order": (_doc(), _doc(c_parents=("B", "A"))),
        "cardinality": (_doc(), _doc(cards=(3, 3))),
        "declaration order": (_doc(), _doc(order=("B", "A", "C", "V"))),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_structural_variants(self, variant, compiles):
        first, second = (build_diagram(doc) for doc in self.VARIANTS[variant])
        assert solver.structure_key(first) != solver.structure_key(second)
        for a, b in ((first, second), (second, first)):
            memo = solver.StepMemo()
            compiles.clear()
            _outcome(a, memo)
            got = _outcome(b, memo)
            assert len(compiles) == 2
            assert got == _outcome(b)

    def test_declaration_order_changes_the_step_log(self):
        # the variant above is a real test: the two orders fold differently
        a = solve(build_diagram(_doc()))
        b = solve(build_diagram(_doc(order=("B", "A", "C", "V"))))
        assert [s.describe() for s in a.steps] != [s.describe() for s in b.steps]

    def test_decision_order(self, compiles):
        # the order against the arcs is refused before any compile, warm
        # as cold
        good, bad = _two_decisions(("D1", "D2")), _two_decisions(("D2", "D1"))
        for a, b in ((good, bad), (bad, good)):
            memo = solver.StepMemo()
            compiles.clear()
            _outcome(a, memo)
            got = _outcome(b, memo)
            assert len(compiles) == 1
            assert got == _outcome(b)
        assert isinstance(solve(good), solver.SolveReport)
        with pytest.raises(errors.MalformedSpec, match="does not follow the arcs"):
            solve(bad)


class TestWarmSolveStillChecks:
    def _with_table(self, diagram, name, rows):
        node = diagram.node(name)
        if node.kind is NodeKind.VALUE:
            table = IntervalValueTable(node.parents, node.value_table.cards, rows)
            new = Node(name, node.kind, None, node.parents, value_table=table)
        else:
            table = LowerCPT(node.parents, node.chance_table.cards, rows)
            new = Node(name, node.kind, node.variable, node.parents, chance_table=table)
        return diagram.replace_nodes({name: new})

    def test_invalid_input_after_a_warm_hit(self, minimal, compiles):
        memo = solver.StepMemo()
        solve(minimal, memo=memo)
        inverted = self._with_table(
            minimal, "V", ((10.0, 10.0), (1.0, 0.0), (4.0, 4.0), (4.0, 4.0))
        )
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[1\]"):
            solve(inverted, memo=memo)
        overfull = self._with_table(minimal, "C", ((0.7, 0.5),))
        with pytest.raises(errors.RowSumExceedsOne, match=r"C\.table\[0\]"):
            solve(overfull, memo=memo)
        assert solve(minimal, memo=memo) == solve(minimal)
        assert len(compiles) == 2  # the memo's warm-up and the plain solve's

    def test_produced_tables_checked_cold_and_warm(self, minimal, monkeypatch, compiles):
        memo = solver.StepMemo()
        checked = solve(minimal, memo=memo)  # compiles, records every step
        v_rows = minimal.node("V").value_table.rows
        fresh = self._with_table(minimal, "V", tuple(tuple([*row]) for row in v_rows))
        monkeypatch.setattr(transforms, "contraction_bounds", lambda *a, **k: (1.0, 0.0))
        # the very objects the memo recorded: every step is reused, none runs
        assert repr(solve(minimal, memo=memo)) == repr(checked)
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[0\]"):
            solve(fresh, memo=memo)  # new rows: the fold runs and its output is checked
        assert len(compiles) == 1
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[0\]"):
            solve(minimal)  # a plain solve: compiles, and every step runs
        assert len(compiles) == 2

    def test_unsolvable_is_not_cached(self, compiles):
        # a failed compile leaves the memo serving no structure
        bad = _forgetful()
        memo = solver.StepMemo()
        for expected_compiles in (1, 2):
            with pytest.raises(errors.Unsolvable):
                solve(bad, memo=memo)
            assert len(compiles) == expected_compiles


class TestGraphCheckedOncePerStructure:
    """A warm solve does not check the graph again (the graph check reads
    nothing outside the memo's structure key), and checks only the rows
    objects new to the memo. A plain solve checks the graph and every
    table's rows. Either way it checks the tables of the steps that run."""

    def test_one_graph_check_per_structure(self, monkeypatch, compiles, runs):
        diagrams = list(_golden_diagrams())
        plans = [solver.compile_plan(diagram) for _, diagram in diagrams]
        compiles.clear()
        graph_checks, row_checks = [], []
        check_graph, check_rows = model.check_graph, model.check_rows

        def counting_graph(diagram):
            graph_checks.append(solver.structure_key(diagram))
            return check_graph(diagram)

        def counting_rows(rows, k, where):
            row_checks.append(where)
            check_rows(rows, k, where)

        monkeypatch.setattr(model, "check_graph", counting_graph)
        monkeypatch.setattr(model, "check_rows", counting_rows)
        previous, structures, skipped = None, 0, 0
        for (name, diagram), plan in zip(diagrams, plans):
            produced = sum(len(shape.produced) for shape in plan)
            chance = diagram.names(NodeKind.CHANCE)
            key = solver.structure_key(diagram)
            if key != previous:
                memo, admitted = solver.StepMemo(), {}  # admitted: what memo holds
            memo_graph_checks = []
            for range_ in (0.0, 0.03, 0.2, 0.6):
                widened = inject_range(diagram, chance, range_)
                rows = {n: (node.chance_table or node.value_table).rows
                        for n, node in widened.nodes.items() if node.kind is not NodeKind.DECISION}
                graph_checks.clear()
                row_checks.clear()
                runs.clear()
                solve(widened)  # the graph, every table and every step
                assert graph_checks == [key], (name, range_)
                assert len(row_checks) == len(rows) + produced, (name, range_)
                assert runs == list(plan), (name, range_)

                graph_checks.clear()
                row_checks.clear()
                runs.clear()
                solve(widened, memo=memo)
                memo_graph_checks += graph_checks
                new = 0
                for n, r in rows.items():
                    if not any(r is seen for seen in admitted.setdefault(n, [])):
                        admitted[n].append(r)
                        new += 1
                ran = sum(len(shape.produced) for shape in runs)
                assert len(row_checks) == new + ran, (name, range_)
                skipped += len(rows) + produced - len(row_checks)
            if key == previous:  # some golden diagrams share a structure
                assert memo_graph_checks == [], name
            else:
                # the input's structure only: a step keeps a valid graph
                # valid (TestStepsKeepTheGraphValid)
                assert memo_graph_checks == [key], name
                structures += 1
            previous = key
        assert len(compiles) == structures + 4 * len(diagrams)  # memos, plain solves
        assert structures > len(diagrams) // 2
        assert skipped > 0

    def test_value_node_named_apart_from_its_key(self, minimal, compiles):
        # the value node's Node.name names the chance node C; the graph check
        # reads it, so a warm solve after the well-formed twin must fail as
        # a plain one does
        v = minimal.node("V")
        renamed = Node("C", NodeKind.VALUE, None, v.parents, value_table=v.value_table)
        odd = minimal.replace_nodes({"V": renamed})
        assert list(odd.nodes) == list(minimal.nodes)
        cold = _outcome(odd)
        assert cold == ("MalformedSpec", "the value node cannot have successors")
        memo = solver.StepMemo()
        solve(minimal, memo=memo)
        assert _outcome(odd, memo) == cold
        assert _outcome(minimal, memo) == repr(solve(minimal))

    def test_one_graph_per_cold_solve(self, wildcatter, monkeypatch):
        # the graph check builds the graph the plan is made on; a warm
        # solve builds none
        built = []
        init = _Graph.__init__

        def counting(graph, diagram):
            built.append(diagram)
            init(graph, diagram)

        monkeypatch.setattr(_Graph, "__init__", counting)
        solve(wildcatter)
        assert built == [wildcatter]
        memo = solver.StepMemo()
        solve(wildcatter, memo=memo)  # a memo taking a new structure
        assert built == [wildcatter] * 2
        solve(wildcatter, memo=memo)
        assert built == [wildcatter] * 2

    def test_next_step_checks_the_graph(self, minimal):
        v = minimal.node("V")
        ghost = minimal.replace_nodes({"V": replace(v, name="ghost")})
        with pytest.raises(errors.MalformedSpec, match="^node 'V' is named 'ghost'$"):
            next_step(ghost)


class TestStepsKeepTheGraphValid:
    """compile_plan checks the input's graph only. Every step keeps a valid
    graph valid (one value node without successors, outcomes on the other
    nodes, acyclic arcs, a decision order covering the decisions), which
    this checks on every intermediate structure of the corpus. The plan is
    made on one graph updated in place; each of its steps is the step
    ``next_step`` picks on a graph built afresh from that structure. The
    walk takes each step with ``apply_step``, so every intermediate diagram
    carries the checked tables the step produced."""

    @staticmethod
    def _corpus():
        yield from _golden_diagrams()
        for seed in range(300):
            yield f"random_diagram {seed}", random_diagram(Random(seed), max_nodes=8)
            yield f"random_chain_diagram {seed}", random_chain_diagram(Random(seed))
        for n in (1, 2, 7, 60):
            yield f"chain_data({n})", build_diagram(chain_data(n))

    def test_every_intermediate_structure_is_valid(self):
        kinds = set()
        for name, diagram in self._corpus():
            model.check_graph(diagram)
            for shape in solver.compile_plan(diagram):
                assert solver.next_step(diagram) == shape, name
                diagram, _ = apply_step(diagram, shape)
                model.check_graph(diagram)
                kinds.add(shape.kind)
            assert list(diagram.nodes) == [diagram.value_node.name], name
        assert kinds == set(StepKind)

    def test_compiling_a_chain_sorts_nothing(self, monkeypatch):
        # rule 5, the only rule that ranks nodes, never fires on a chain;
        # the graph check ranks the input once, and planning uses its graph
        diagram = build_diagram(chain_data(200))
        calls = []
        topological_order = _Graph.topological_order

        def counting_rank(graph):
            calls.append(graph)
            return topological_order(graph)

        monkeypatch.setattr(_Graph, "topological_order", counting_rank)
        assert len(solver.compile_plan(diagram)) == 200
        assert len(calls) == 1  # the graph check's
        # the count sees a ranking where rule 5 fires: survey reverses an arc
        survey = load_diagram(fixture_path("survey"))
        calls.clear()
        solver.compile_plan(survey)
        assert len(calls) == 2 and calls[0] is calls[1]  # on the checked graph


class TestNodesWithoutOutcomes:
    """A chance or decision node without outcomes is refused by the graph
    check, before any step looks its outcomes up."""

    @pytest.fixture
    def bare_e(self, minimal):
        e = Node("E", NodeKind.DECISION, None, ("D",))
        return InfluenceDiagram(
            {**minimal.nodes, "E": e}, decision_order=minimal.decision_order + ("E",)
        )

    @pytest.mark.parametrize("call", [
        solve,
        lambda d: soundness_check(d, 2),
        lambda d: remove_barren(d, "E"),
    ], ids=["solve", "soundness_check", "remove_barren"])
    def test_decision_without_alternatives(self, bare_e, call, compiles):
        with pytest.raises(errors.MalformedSpec) as caught:
            call(bare_e)
        assert str(caught.value) == "node 'E' has no outcomes"

    def test_outcomes_are_in_the_structure_key(self, bare_e, compiles):
        # a warm solve skips the graph check, so the key must tell a node
        # without outcomes from one with them
        named = bare_e.replace_nodes(
            {"E": Node("E", NodeKind.DECISION, Variable("E", ("e1", "e2")), ("D",))}
        )
        assert solver.structure_key(named) != solver.structure_key(bare_e)
        memo = solver.StepMemo()
        solve(named, memo=memo)
        assert _outcome(bare_e, memo) == ("MalformedSpec", "node 'E' has no outcomes")
        assert len(compiles) == 1  # the twin's: bare_e is refused before


def _swapped_v_parents(minimal):
    v = minimal.node("V")
    table = IntervalValueTable(("C", "D"), (2, 2), v.value_table.rows)
    return Node("V", NodeKind.VALUE, None, v.parents, value_table=table)


def _tableless_c(minimal):
    return Node("C", NodeKind.CHANCE, minimal.node("C").variable, ())


def _wrong_v_cards(minimal):
    v = minimal.node("V")
    table = IntervalValueTable(v.parents, (2, 3), v.value_table.rows)
    return Node("V", NodeKind.VALUE, None, v.parents, value_table=table)


class TestTablesMatchTheirNodes:
    """``checked_rows`` refuses a hand-built table whose parents or cards
    differ from its node's: a warm solve after the well-formed twin fails as
    a plain one does. It reads the cards from one lookup per call."""

    @pytest.mark.parametrize("bad_node,message", [
        (_swapped_v_parents, "V: table parents disagree with arcs"),
        (_tableless_c, "C: table parents disagree with arcs"),
        (_wrong_v_cards, "V: table cards disagree with parents"),
    ])
    def test_mismatch_cold_and_warm(self, minimal, compiles, bad_node, message):
        node = bad_node(minimal)
        bad = minimal.replace_nodes({node.name: node})
        assert solver.structure_key(bad) == solver.structure_key(minimal)
        cold = _outcome(bad)
        assert cold == ("ParentMismatch", message)
        memo = solver.StepMemo()
        solve(minimal, memo=memo)
        assert _outcome(bad, memo) == cold
        assert len(compiles) == 1  # the twin's: the plain solve failed before it compiled

    def test_parent_without_outcomes(self, minimal):
        bare = minimal.replace_nodes({"D": Node("D", NodeKind.DECISION, None, ())})
        assert _outcome(bare) == ("MalformedSpec", "node 'D' has no outcomes")

    def test_warm_solve_calls_no_cards_of(self, monkeypatch, compiles):
        calls = []
        cards_of = InfluenceDiagram.cards_of

        def counting(diagram, names):
            calls.append(names)
            return cards_of(diagram, names)

        monkeypatch.setattr(InfluenceDiagram, "cards_of", counting)
        for name, diagram in _golden_diagrams():
            memo = solver.StepMemo()
            solve(diagram, memo=memo)
            calls.clear()
            solve(diagram, memo=memo)
            assert calls == [], name


@pytest.fixture
def table_checks(monkeypatch):
    """A list that grows by one node name per table ``checked_rows`` checks,
    wherever it is called from."""
    names = []
    checked_rows = model.checked_rows

    def counting(node, cards):
        names.append(node.name)
        return checked_rows(node, cards)

    for module in (model, solver, transforms):
        monkeypatch.setattr(module, "checked_rows", counting)
    return names


class TestOneCheckPerTable:
    """Every chance and value table a call reads is checked once, by
    ``model.checked_rows``, and the rows the call reads are the ones that
    check returned."""

    def test_solves(self, table_checks):
        for name, diagram in _golden_diagrams():
            tables = [n for n, node in diagram.nodes.items() if node.kind is not NodeKind.DECISION]
            solve(diagram)
            assert table_checks == tables, name
            table_checks.clear()
            memo = solver.StepMemo()
            solve(diagram, memo=memo)  # a memo's first solve
            assert table_checks == tables, name
            table_checks.clear()
            solve(diagram, memo=memo)  # every node admitted
            assert table_checks == [], name
            chance = diagram.names(NodeKind.CHANCE)
            if chance:  # a warm solve checks only the node it has not seen
                solve(inject_range(diagram, chance[-1:], 0.05), memo=memo)
                assert table_checks == [chance[-1]], name
                table_checks.clear()

    def test_apply_step_checks_only_its_tables(self, minimal, monkeypatch, table_checks):
        # B has no successors and an invalid table that no step but its own
        # drop reads
        barren = Node("B", NodeKind.CHANCE, minimal.node("C").variable, (),
                      chance_table=LowerCPT((), (), ((-0.5, 0.2),)))
        hand_built = InfluenceDiagram({"B": barren, **minimal.nodes}, minimal.decision_order)
        read = []
        run_checked = transforms.StepShape.run_checked

        def reading(shape, tables, diagram):
            read.append(sorted(tables))
            return run_checked(shape, tables, diagram)

        monkeypatch.setattr(transforms.StepShape, "run_checked", reading)
        fold, decision = solver.compile_plan(minimal)  # C into V, then D into V
        folded, _ = apply_step(hand_built, fold)
        assert table_checks == ["C", "V"] and read == [["C", "V"]]
        assert folded.node("B") is barren
        table_checks.clear()
        apply_step(folded, decision)
        assert table_checks == ["V"] and read[1:] == [["V"]]
        table_checks.clear()
        with pytest.raises(errors.NegativeBound, match=r"B\.table\[0\]"):
            apply_step(hand_built, next_step(hand_built))  # drops B
        assert table_checks == ["B"]


def _overfull_oil(diagram):
    """OIL, the first node, with bounds that sum past 1: a table error."""
    oil = diagram.node("OIL")
    return Node("OIL", NodeKind.CHANCE, oil.variable, (),
                chance_table=LowerCPT((), (), ((0.5, 0.4, 0.3),)))


def _cyclic_seismic(diagram):
    seismic = diagram.node("SEISMIC")
    return replace(seismic, parents=("OIL", "RESULT"))  # RESULT sees SEISMIC


def _cost_as_decision(diagram):
    return Node("COST", NodeKind.DECISION, diagram.node("COST").variable, ())


def _three_costs(diagram):
    cost = diagram.node("COST")
    return replace(cost, variable=Variable("COST", ("low", "mid", "high")))


def _cost_named_apart(diagram):
    return replace(diagram.node("COST"), name="PRICE")


class TestNodeAdmission:
    """A memo admits every ``Node`` object it checked: model objects are
    immutable. A warm solve whose nodes it all admitted reads no structure
    key and checks no table. A node new to it is compared with the served
    structure, every new node before any table, so a diagram that differs
    fails, or solves, exactly as a plain solve does."""

    def test_warm_solves_read_no_structure_key(self, monkeypatch, compiles, runs):
        keys, row_checks = [], []
        structure_key, check_rows = solver.structure_key, model.check_rows

        def counting_key(diagram):
            keys.append(diagram)
            return structure_key(diagram)

        def counting_rows(rows, k, where):
            row_checks.append(where)
            check_rows(rows, k, where)

        monkeypatch.setattr(solver, "structure_key", counting_key)
        monkeypatch.setattr(model, "check_rows", counting_rows)
        for name, diagram in _golden_diagrams():
            memo = solver.StepMemo()
            solve(diagram, memo=memo)
            assert keys == [diagram], name  # the cold solve's
            widened = inject_range(diagram, diagram.names(NodeKind.CHANCE), 0.05)
            for d in (widened, widened, diagram):
                assert repr(solve(d, memo=memo)) == repr(solve(d)), name
            row_checks.clear()
            runs.clear()
            solve(widened, memo=memo)
            assert (row_checks, runs) == ([], []), name  # every node and step known
            assert keys == [diagram], name
            keys.clear()

    MUTATIONS = {
        "parents": ("SEISMIC", _cyclic_seismic),
        "kind": ("COST", _cost_as_decision),
        "cardinality": ("COST", _three_costs),
        "Node.name": ("COST", _cost_named_apart),
    }

    @pytest.mark.parametrize("overfull", [False, True], ids=["", "overfull OIL"])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_new_node_fails_as_a_plain_solve(self, wildcatter, mutation, overfull):
        name, mutate = self.MUTATIONS[mutation]
        updates = {name: mutate(wildcatter)}
        if overfull:  # an earlier new node whose table fails
            updates["OIL"] = _overfull_oil(wildcatter)
        mutant = wildcatter.replace_nodes(updates)
        if mutation == "kind":
            assert mutant.decision_order == wildcatter.decision_order
        cold = _outcome(mutant)
        assert isinstance(cold, tuple), mutation  # every mutation fails
        if mutation != "cardinality":  # the graph check fails before any table
            assert cold[0] != "RowSumExceedsOne", cold
        memo = solver.StepMemo()
        solve(wildcatter, memo=memo)
        assert _outcome(mutant, memo) == cold
        assert _outcome(wildcatter, memo) == repr(solve(wildcatter))

    @pytest.mark.parametrize("overfull", [False, True], ids=["", "overfull OIL"])
    def test_reordered_nodes(self, wildcatter, overfull, compiles):
        base = wildcatter
        if overfull:
            base = wildcatter.replace_nodes({"OIL": _overfull_oil(wildcatter)})
        nodes = dict(base.nodes)
        reordered = InfluenceDiagram(
            {"COST": nodes.pop("COST"), **nodes}, decision_order=base.decision_order
        )
        memo = solver.StepMemo()
        solve(wildcatter, memo=memo)
        compiles.clear()
        assert _outcome(reordered, memo) == _outcome(reordered)
        # a new structure: the memo's solve and the plain one compile it,
        # or both fail at the check before
        assert len(compiles) == (0 if overfull else 2)

    def test_serve_takes_the_callers_check(self, monkeypatch, compiles):
        # a memo served a checked structure compiles it then, and a solve of
        # a diagram of that structure checks no graph and compiles nothing
        checks = []
        check_graph = model.check_graph

        def counting(diagram):
            checks.append(diagram)
            return check_graph(diagram)

        monkeypatch.setattr(model, "check_graph", counting)
        for name, diagram in _golden_diagrams():
            widened = inject_range(diagram, diagram.names(NodeKind.CHANCE), 0.05)
            plain = repr(solve(widened))
            memo = solver.StepMemo()
            memo.serve(diagram, model.check_structure(diagram))
            checks.clear()
            compiles.clear()
            assert repr(solve(widened, memo=memo)) == plain, name
            assert (checks, compiles) == ([], []), name


class TestWarmSolveReuse:
    """With a :class:`~iidiag.solver.StepMemo`, a step whose input rows and
    decision ``Variable`` are the very objects of a run the memo recorded
    takes that run's output instead of running again. Kernels are pure, so
    every report is the one a plain solve gives. Without a memo nothing is
    recorded or reused."""

    @staticmethod
    def _corpus():
        yield from _golden_diagrams()
        for seed in range(300):
            yield f"random_diagram {seed}", random_diagram(Random(seed), max_nodes=8)

    def test_warm_reports_equal_cold_twins(self, runs):
        steps = ran = 0
        for name, diagram in self._corpus():
            chance = diagram.names(NodeKind.CHANCE)
            for range_ in (0.0, 0.03, 0.2):
                for subset in (chance, chance[:1]):
                    widened = inject_range(diagram, subset, range_)
                    memo = solver.StepMemo()
                    solve(diagram, memo=memo)  # records every step
                    runs.clear()
                    # reuses the steps the widened nodes do not reach, then all
                    warm = [repr(solve(widened, memo=memo)), repr(solve(widened, memo=memo))]
                    ran += len(runs)
                    steps += 2 * len(solver.compile_plan(diagram))
                    assert warm == [repr(solve(widened))] * 2, (name, range_, subset)
        assert ran < steps / 2

    def test_reused_steps_carry_the_input_labels(self, minimal, compiles, runs):
        # E is a barren decision: its step reads E's alternatives only
        e = Node("E", NodeKind.DECISION, Variable("E", ("e1", "e2")), ("D",))
        base = InfluenceDiagram(
            {**minimal.nodes, "E": e}, decision_order=minimal.decision_order + ("E",)
        )
        d_parents = minimal.node("D").parents
        relabelled = base.replace_nodes({
            "D": Node("D", NodeKind.DECISION, Variable("D", ("go", "stay")), d_parents),
            "E": Node("E", NodeKind.DECISION, Variable("E", ("up", "down")), ("D",)),
        })
        memo = solver.StepMemo()
        solve(base, memo=memo)
        runs.clear()
        warm = solve(relabelled, memo=memo)
        assert len(compiles) == 1
        assert sorted(shape.node for shape in runs) == ["D", "E"]  # the fold of C is reused
        assert warm.policies["D"].alternatives == ("go", "stay")
        assert warm.policies["E"].alternatives == ("up", "down")
        assert repr(warm) == repr(solve(relabelled))

    def test_a_memo_follows_the_structure(self, minimal, survey, runs):
        # a memo given solves of two structures empties itself on each
        # switch; every report stays its cold twin's
        memo = solver.StepMemo()
        for diagram in (minimal, survey, minimal, minimal):
            assert repr(solve(diagram, memo=memo)) == repr(solve(diagram))
        runs.clear()
        solve(minimal, memo=memo)
        assert runs == []

    def test_plain_solves_keep_no_rows(self, wildcatter, runs, compiles):
        # a loop of plain solves over one structure, each on fresh rows,
        # compiles and runs every step each time and keeps no reference to
        # any input rows object
        diagrams = [
            inject_range(wildcatter, WILDCATTER_TARGETS, 0.001 * (i + 1)) for i in range(200)
        ]
        rows = [
            (node.chance_table or node.value_table).rows
            for diagram in diagrams for node in diagram.nodes.values()
            if node.kind is not NodeKind.DECISION
        ]
        references = [sys.getrefcount(r) for r in rows]
        for diagram in diagrams:
            solve(diagram)
        assert len(compiles) == 200
        assert len(runs) == 200 * len(solver.compile_plan(wildcatter))  # every step ran
        assert [sys.getrefcount(r) for r in rows] == references

    def test_threads_sweep_with_their_own_memos(self, wildcatter, monkeypatch):
        # four threads sweep the wildcatter at once, each sweep with its own
        # memo. Every report must stay its cold twin's.
        spec = wildcatter_sweep_spec(compare_exact=False)
        expected = repr(_cold_sweep(wildcatter, spec, monkeypatch))
        wrong = []

        def work():
            for _ in range(3):
                try:
                    got = repr(report_to_dict(sweep(wildcatter, spec)))
                except Exception as exc:  # a thread's error is lost otherwise
                    got = exc
                if got != expected:
                    wrong.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_wildcatter_sweep_runs_fewer_kernels(self, wildcatter, monkeypatch, runs, compiles):
        spec = wildcatter_sweep_spec(compare_exact=False)
        assert len(solver.compile_plan(wildcatter)) == 7
        inputs = set()  # (step, input rows, Variable) by value
        counting = transforms.StepShape.run_checked

        def keyed(shape, tables, diagram):
            variable = diagram.nodes[shape.node].variable
            inputs.add((shape, tables.get(shape.node), tables.get(shape.into), variable))
            return counting(shape, tables, diagram)

        monkeypatch.setattr(transforms.StepShape, "run_checked", keyed)
        cold = _cold_sweep(wildcatter, spec, monkeypatch)
        monkeypatch.setattr(transforms.StepShape, "run_checked", counting)
        assert len(runs) == 22 * 7  # 22 computed cells, none reused
        runs.clear()
        compiles.clear()
        assert report_to_dict(sweep(wildcatter, spec)) == cold
        assert len(runs) == len(inputs) < 22 * 7  # 106 of 154
        assert len(compiles) == 1


class TestSweepsEqualColdSolves:
    """A sweep's shared widened nodes and memo change no number: every
    report equals the same sweep with each cell solved cold."""

    @staticmethod
    def _corpus():
        # random diagrams bring barren decisions; they seldom reverse an
        # arc, so chains bring reversals and marginalizations
        for seed in range(30):
            yield f"random_diagram {seed}", random_diagram(Random(seed), max_nodes=8, point=True)
            yield f"random_chain_diagram {seed}", random_chain_diagram(Random(seed), point=True)

    def test_random_diagrams(self, monkeypatch):
        kinds = set()
        barren_decisions = 0
        for name, diagram in self._corpus():
            targets = diagram.names(NodeKind.CHANCE)[:3]
            spec = SensitivitySpec(targets, (0.0, 0.01, 0.1), subsets=every_subset(targets))
            kinds.update(shape.kind for shape in solver.compile_plan(diagram))
            cold = _cold_sweep(diagram, spec, monkeypatch)
            assert report_to_dict(sweep(diagram, spec)) == cold, name
            barren_decisions += any(
                step.kind is StepKind.REMOVE_BARREN and step.admissible is not None
                for step in solve(diagram).steps
            )
        assert kinds == set(StepKind)
        assert barren_decisions > 0

    def test_the_memo_goes_with_the_call(self, wildcatter, monkeypatch):
        memos = []
        solve_ = sensitivity.solve

        def keeping(diagram, *, memo):
            memos.append(weakref.ref(memo))
            return solve_(diagram, memo=memo)

        monkeypatch.setattr(sensitivity, "solve", keeping)
        sweep(wildcatter, wildcatter_sweep_spec(compare_exact=False))
        assert len(memos) == 22 and len({ref() for ref in memos}) == 1
        gc.collect()
        assert memos[0]() is None
