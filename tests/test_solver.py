"""End-to-end reduction: rule priority, determinism, termination, policies."""

import itertools
import sys
import threading
from pathlib import Path
from random import Random

import pytest

from iidiag import errors, model, solver, transforms
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
    build_diagram,
    config_assignment,
    config_index,
)
from iidiag.sensitivity import inject_range
from iidiag.solver import apply_step, next_step, solve
from iidiag.transforms import StepKind, _Graph, remove_barren
from conftest import chain_data


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


# ---------------------------------------------------------------------------
# Compiled plans: solve() compiles the step sequence once per structure and
# replays only the row arithmetic, so a warm solve must match a cold one.
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


def _cold(diagram):
    solver.clear_plan_cache()
    return solve(diagram)


def _outcome(diagram):
    """The report's repr, or the error's type and message."""
    try:
        return repr(solve(diagram))
    except errors.DiagramError as exc:
        return type(exc).__name__, str(exc)


def _cold_outcome(diagram):
    solver.clear_plan_cache()
    return _outcome(diagram)


@pytest.fixture
def compiles(monkeypatch):
    """A list that grows by one entry per plan compiled."""
    calls = []
    original = solver.compile_plan

    def counting(diagram):
        calls.append(diagram)
        return original(diagram)

    monkeypatch.setattr(solver, "compile_plan", counting)
    solver.clear_plan_cache()
    yield calls
    solver.clear_plan_cache()


def _golden_diagrams():
    names = ("minimal", "survey", "wildcatter")
    yield from ((n, load_diagram(fixture_path(n))) for n in names)
    for path in sorted(GOLDEN.glob("*.iid.json")):
        yield path.name, load_diagram(path)


class TestPlanReuse:
    def _assert_warm_equals_cold(self, warm_up, diagram, compiles):
        solve(warm_up)
        before = len(compiles)
        warm = solve(diagram)
        assert len(compiles) == before, "same structure must reuse the plan"
        cold = _cold(diagram)
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
        solve(first)
        warm = solve(second)
        assert len(compiles) == 1
        assert warm.policies["D"].alternatives == ("go", "stay")
        assert repr(warm) == repr(_cold(second))

    def test_threads_share_the_cache(self, minimal, survey):
        # a library caller may solve from several threads: alternating
        # structures across more threads than cores must never pair a key
        # with another structure's plan
        expected = {id(d): repr(_cold(d)) for d in (minimal, survey)}
        wrong = []

        def work(offset):
            for j in range(150):
                d = (minimal, survey)[(offset + j) % 2]
                try:
                    got = repr(solve(d))
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
        solve(minimal)
        solve(minimal)
        solve(survey)
        solve(minimal)
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


class TestPlanKeyCompleteness:
    """Diagrams that differ in one structural detail never share a plan, in
    either solve order, and each result equals a cold solve."""

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
            solver.clear_plan_cache()
            compiles.clear()
            _outcome(a)
            got = _outcome(b)
            assert len(compiles) == 2
            assert got == _cold_outcome(b)

    def test_declaration_order_changes_the_step_log(self):
        # the variant above is a real test: the two orders fold differently
        a = solve(build_diagram(_doc()))
        b = solve(build_diagram(_doc(order=("B", "A", "C", "V"))))
        assert [s.describe() for s in a.steps] != [s.describe() for s in b.steps]

    def test_decision_order(self, compiles):
        good, bad = _two_decisions(("D1", "D2")), _two_decisions(("D2", "D1"))
        for a, b in ((good, bad), (bad, good)):
            solver.clear_plan_cache()
            compiles.clear()
            _outcome(a)
            got = _outcome(b)
            assert len(compiles) == 2
            assert got == _cold_outcome(b)
        assert isinstance(solve(good), solver.SolveReport)
        with pytest.raises(errors.Unsolvable):
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
        solve(minimal)
        inverted = self._with_table(
            minimal, "V", ((10.0, 10.0), (1.0, 0.0), (4.0, 4.0), (4.0, 4.0))
        )
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[1\]"):
            solve(inverted)
        overfull = self._with_table(minimal, "C", ((0.7, 0.5),))
        with pytest.raises(errors.RowSumExceedsOne, match=r"C\.table\[0\]"):
            solve(overfull)
        assert solve(minimal) == _cold(minimal)
        assert len(compiles) == 2  # one warm-up, one after _cold cleared

    def test_produced_tables_checked_cold_and_warm(self, minimal, monkeypatch, compiles):
        solve(minimal)  # compiles and keeps the plan
        monkeypatch.setattr(transforms, "contraction_bounds", lambda *a, **k: (1.0, 0.0))
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[0\]"):
            solve(minimal)  # warm
        assert len(compiles) == 1
        solver.clear_plan_cache()
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[0\]"):
            solve(minimal)  # cold
        assert len(compiles) == 2

    def test_unsolvable_is_not_cached(self, compiles):
        bad = _two_decisions(("D2", "D1"))
        for expected_compiles in (1, 2):
            with pytest.raises(errors.Unsolvable):
                solve(bad)
            assert len(compiles) == expected_compiles


class TestGraphCheckedOncePerStructure:
    """A warm solve checks every input table but not the graph again: the
    graph check reads nothing outside the plan's structure key."""

    def test_one_graph_check_per_structure(self, monkeypatch, compiles):
        diagrams = list(_golden_diagrams())
        plans = [solver.compile_plan(diagram) for _, diagram in diagrams]
        compiles.clear()
        graph_checks, row_checks = [], []
        check_graph, check_rows = model.check_graph, model.check_rows

        def counting_graph(diagram):
            graph_checks.append(solver.structure_key(diagram))
            check_graph(diagram)

        def counting_rows(rows, k, where):
            row_checks.append(where)
            check_rows(rows, k, where)

        monkeypatch.setattr(model, "check_graph", counting_graph)
        monkeypatch.setattr(model, "check_rows", counting_rows)
        previous, structures = None, 0
        for (name, diagram), plan in zip(diagrams, plans):
            tables = [n for n in diagram.nodes.values() if n.kind is not NodeKind.DECISION]
            produced = sum(len(shape.produced) for shape in plan)
            chance = diagram.names(NodeKind.CHANCE)
            graph_checks.clear()
            for range_ in (0.0, 0.03, 0.2, 0.6):
                row_checks.clear()
                solve(inject_range(diagram, chance, range_))
                assert len(row_checks) == len(tables) + produced, name
            key = solver.structure_key(diagram)
            if key == previous:  # some golden diagrams share a structure
                assert graph_checks == [], name
            else:
                # the input's structure only: a step keeps a valid graph
                # valid (TestStepsKeepTheGraphValid)
                assert graph_checks == [key], name
                structures += 1
            previous = key
        assert len(compiles) == structures
        assert structures > len(diagrams) // 2

    def test_value_node_named_apart_from_its_key(self, minimal, compiles):
        # the value node's Node.name names the chance node C; the graph check
        # reads it, so a warm solve after the well-formed twin must fail as
        # a cold one does
        v = minimal.node("V")
        renamed = Node("C", NodeKind.VALUE, None, v.parents, value_table=v.value_table)
        odd = minimal.replace_nodes({"V": renamed})
        assert list(odd.nodes) == list(minimal.nodes)
        cold = _cold_outcome(odd)
        assert cold == ("MalformedSpec", "the value node cannot have successors")
        solve(minimal)
        assert _outcome(odd) == cold
        assert _outcome(minimal) == repr(_cold(minimal))


class TestStepsKeepTheGraphValid:
    """compile_plan checks the input's graph only. Every step keeps a valid
    graph valid (one value node without successors, outcomes on the other
    nodes, acyclic arcs, a decision order covering the decisions), which
    this checks on every intermediate structure of the corpus. The plan is
    made on one graph updated in place; each of its steps is the step
    ``next_step`` picks on a graph built afresh from that structure."""

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
                diagram = shape.successor(diagram)
                model.check_graph(diagram)
                kinds.add(shape.kind)
            assert list(diagram.nodes) == [diagram.value_node.name], name
        assert kinds == set(StepKind)

    def test_compiling_a_chain_sorts_nothing(self, monkeypatch):
        # rule 5, the only rule that ranks nodes, never fires on a chain
        diagram = build_diagram(chain_data(200))
        calls = []
        topological_order, check_graph = _Graph.topological_order, model.check_graph

        def counting_rank(graph):
            calls.append("topological_order")
            return topological_order(graph)

        def counting_check(d):
            calls.append("check_graph")
            check_graph(d)

        monkeypatch.setattr(_Graph, "topological_order", counting_rank)
        monkeypatch.setattr(model, "check_graph", counting_check)
        assert len(solver.compile_plan(diagram)) == 200
        assert calls == []
        # the count sees a ranking where rule 5 fires: survey reverses an arc
        solver.compile_plan(load_diagram(fixture_path("survey")))
        assert calls == ["topological_order"]


class TestNodesWithoutOutcomes:
    """A chance or decision node without outcomes is refused by the graph
    check, before any step looks its outcomes up."""

    @pytest.fixture
    def bare_e(self, minimal):
        e = Node("E", NodeKind.DECISION, None, ())
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
            {"E": Node("E", NodeKind.DECISION, Variable("E", ("e1", "e2")), ())}
        )
        assert solver.structure_key(named) != solver.structure_key(bare_e)
        solve(named)
        assert _outcome(bare_e) == ("MalformedSpec", "node 'E' has no outcomes")
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
    """``check_tables`` refuses a hand-built table whose parents or cards
    differ from its node's: a warm solve after the well-formed twin fails as
    the cold one does. It reads the cards from one lookup per call."""

    @pytest.mark.parametrize("bad_node,message", [
        (_swapped_v_parents, "V: table parents disagree with arcs"),
        (_tableless_c, "C: table parents disagree with arcs"),
        (_wrong_v_cards, "V: table cards disagree with parents"),
    ])
    def test_mismatch_cold_and_warm(self, minimal, compiles, bad_node, message):
        node = bad_node(minimal)
        bad = minimal.replace_nodes({node.name: node})
        assert solver.structure_key(bad) == solver.structure_key(minimal)
        cold = _cold_outcome(bad)
        assert cold == ("ParentMismatch", message)
        solve(minimal)
        assert _outcome(bad) == cold
        assert len(compiles) == 1  # the twin's: the second failure was warm

    def test_parent_without_outcomes(self, minimal):
        bare = minimal.replace_nodes({"D": Node("D", NodeKind.DECISION, None, ())})
        assert _cold_outcome(bare) == ("MalformedSpec", "node 'D' has no outcomes")

    def test_warm_solve_calls_no_cards_of(self, monkeypatch, compiles):
        calls = []
        cards_of = InfluenceDiagram.cards_of

        def counting(diagram, names):
            calls.append(names)
            return cards_of(diagram, names)

        monkeypatch.setattr(InfluenceDiagram, "cards_of", counting)
        for name, diagram in _golden_diagrams():
            solve(diagram)
            calls.clear()
            solve(diagram)
            assert calls == [], name
