"""End-to-end reduction: rule priority, determinism, termination, policies."""

from random import Random

import pytest

from iidiag import errors, solver
from iidiag.exact import point_solve
from iidiag.generate import random_chain_diagram, random_diagram
from iidiag.model import (
    InfluenceDiagram,
    LowerCPT,
    Node,
    NodeKind,
    build_diagram,
    config_assignment,
    config_index,
)
from iidiag.solver import apply_step, next_step, solve
from iidiag.transforms import StepKind


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
        monkeypatch.setattr(solver, "check_structure", lambda diagram: None)
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
            n_nodes, n_arcs = len(d.nodes), len(d.arcs())
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
