"""Diagram construction, validation, and configuration indexing."""

import copy
import math
import re
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from conftest import all_fixture_paths, golden_recorder
from iidiag import errors, model
from iidiag.diagram_io import diagram_to_data, fixture_path, load_diagram
from iidiag.exact import exact_envelope, point_solve, sample_member, soundness_check
from iidiag.generate import random_diagram
from iidiag.model import (
    InfluenceDiagram,
    IntervalValueTable,
    LowerCPT,
    Node,
    NodeKind,
    build_diagram,
    check_graph,
    check_structure,
    config_assignment,
    config_count,
    config_index,
    implied_upper,
    row_map,
    Variable,
    strides,
)
from iidiag.sensitivity import inject_range
from iidiag.solver import compile_plan, solve

GOLDEN = Path(__file__).parent / "golden"


class TestBuildDiagram:
    def test_minimal_chance_value(self):
        d = build_diagram(
            {
                "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
                "nodes": [
                    {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
                    {
                        "name": "V",
                        "kind": "value",
                        "parents": ["C"],
                        "table": [[0, 1], [2, 3]],
                    },
                ],
            }
        )
        assert d.names(NodeKind.CHANCE) == ("C",)
        assert d.value_node.name == "V"
        assert d.node("C").chance_table.rows == ((0.5, 0.3),)

    def test_row_sum_exceeds_one(self, minimal_data):
        minimal_data["nodes"][0]["table"] = [[0.6, 0.6]]
        with pytest.raises(errors.RowSumExceedsOne):
            build_diagram(minimal_data)

    def test_negative_bound(self, minimal_data):
        minimal_data["nodes"][0]["table"] = [[-0.1, 0.5]]
        with pytest.raises(errors.NegativeBound):
            build_diagram(minimal_data)

    def test_interval_inverted(self, minimal_data):
        minimal_data["nodes"][2]["table"][0] = [5, 4]
        with pytest.raises(errors.IntervalInverted):
            build_diagram(minimal_data)

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("node,row", [(0, [None, 0.3]), (0, [0.3, None]),
                                          (2, [None, 4.0]), (2, [4.0, None])])
    def test_non_finite_number(self, minimal_data, node, row, x):
        minimal_data["nodes"][node]["table"][0] = [x if b is None else b for b in row]
        with pytest.raises(errors.MalformedSpec, match=r"table\[0\]: non-finite number"):
            build_diagram(minimal_data)

    def test_bounds_just_below_zero_are_stored_as_zero(self, minimal_data):
        minimal_data["nodes"][0]["table"] = [[-1e-13, 0.5]]
        row = build_diagram(minimal_data).node("C").chance_table.rows[0]
        assert row == (0.0, 0.5) and math.copysign(1.0, row[0]) == 1.0
        minimal_data["nodes"][0]["table"] = [[-0.0, 0.5]]
        row = build_diagram(minimal_data).node("C").chance_table.rows[0]
        assert row == (0.0, 0.5) and math.copysign(1.0, row[0]) == -1.0

    def test_row_sum_is_checked_after_the_clamp(self, minimal_data):
        # the raw sum 1 + 0.5e-12 passes; stored as (0.0, 1 + 1.5e-12) it
        # sums above 1 + TOL, which build_diagram itself must refuse
        minimal_data["nodes"][0]["table"] = [[-1e-12, 1 + 1.5e-12]]
        with pytest.raises(errors.RowSumExceedsOne, match=r"table\[0\]"):
            build_diagram(minimal_data)

    @pytest.mark.parametrize("name", [["C"], 7, None])
    def test_variable_name_must_be_a_string(self, minimal_data, name):
        minimal_data["variables"][0]["name"] = name
        with pytest.raises(errors.MalformedSpec, match=r"^variables\[0\]: name must be a string$"):
            build_diagram(minimal_data)

    # A JSON string is a sequence to Python; where a list is wanted it is
    # refused as not a list, not read letter by letter.
    STRING_FOR_LIST = {
        "variables": (("variables",), r"^document: 'variables' and 'nodes' must be lists$"),
        "nodes": (("nodes",), r"^document: 'variables' and 'nodes' must be lists$"),
        "chance table": (("nodes", 0, "table"), r"^nodes\[0\] \(C\)\.table: expected a list of rows$"),
        "value table": (("nodes", 2, "table"),
                        r"^nodes\[2\] \(V\)\.table: expected a list of \[low, high\] rows$"),
        "value row": (("nodes", 2, "table", 1),
                      r"^nodes\[2\] \(V\)\.table\[1\]: expected a \[low, high\] pair$"),
    }

    @pytest.mark.parametrize("text", ["ab", "abcd"])
    @pytest.mark.parametrize("field", sorted(STRING_FOR_LIST))
    def test_string_where_a_list_is_wanted(self, minimal_data, field, text):
        path, message = self.STRING_FOR_LIST[field]
        holder = minimal_data
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = text
        with pytest.raises(errors.MalformedSpec, match=message):
            build_diagram(minimal_data)

    # An entry that is not a mapping has none of its fields; it is refused
    # as missing the first one read.
    @pytest.mark.parametrize("entry", [["C"], 7, "name", None])
    @pytest.mark.parametrize("where, first", [
        ("variables[0]", "name"), ("nodes[0]", "name"), ("nodes[2]", "name"),
        ("document", "variables"),
    ])
    def test_entry_that_is_not_a_mapping(self, minimal_data, where, first, entry):
        if where == "document":
            minimal_data = entry
        else:
            field, index = where.rstrip("]").split("[")
            minimal_data[field][int(index)] = entry
        message = rf"^{re.escape(where)}: missing field '{first}'$"
        with pytest.raises(errors.MalformedSpec, match=message):
            build_diagram(minimal_data)

    @pytest.mark.parametrize("path, where", [
        (("variables", 0, "outcomes"), "variables[0]"),
        (("nodes", 0, "name"), "nodes[0]"),
        (("nodes", 0, "kind"), "nodes[0]"),
        (("nodes", 0, "parents"), "nodes[0]"),
        (("nodes", 0, "table"), "nodes[0] (C)"),
        (("nodes", 1, "alternatives"), "nodes[1] (D)"),
    ])
    def test_missing_field(self, minimal_data, path, where):
        field, index, key = path
        del minimal_data[field][index][key]
        message = rf"^{re.escape(where)}: missing field '{key}'$"
        with pytest.raises(errors.MalformedSpec, match=message):
            build_diagram(minimal_data)

    def test_wrong_row_count(self, minimal_data):
        minimal_data["nodes"][2]["table"] = minimal_data["nodes"][2]["table"][:3]
        with pytest.raises(errors.ParentMismatch, match="expected 4 rows"):
            build_diagram(minimal_data)

    def test_wrong_row_length_names_row(self, minimal_data):
        minimal_data["nodes"][0]["table"] = [[0.5, 0.3, 0.1]]
        with pytest.raises(errors.ParentMismatch, match=r"table\[0\]"):
            build_diagram(minimal_data)

    def test_cycle_detected(self):
        data = {
            "variables": [
                {"name": "A", "outcomes": ["x", "y"]},
                {"name": "B", "outcomes": ["x", "y"]},
            ],
            "nodes": [
                {"name": "A", "kind": "chance", "parents": ["B"], "table": [[0.5, 0.5]] * 2},
                {"name": "B", "kind": "chance", "parents": ["A"], "table": [[0.5, 0.5]] * 2},
                {"name": "V", "kind": "value", "parents": ["A"], "table": [[0, 1], [0, 1]]},
            ],
        }
        with pytest.raises(errors.CycleDetected):
            build_diagram(data)

    def test_no_value_node(self):
        data = {
            "variables": [{"name": "C", "outcomes": ["a", "b"]}],
            "nodes": [{"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.5]]}],
        }
        with pytest.raises(errors.NoValueNode):
            build_diagram(data)

    def test_multiple_value_nodes(self, minimal_data):
        minimal_data["nodes"].append(
            {"name": "V2", "kind": "value", "parents": [], "table": [[0, 0]]}
        )
        with pytest.raises(errors.MultipleValueNodes):
            build_diagram(minimal_data)

    def test_unordered_decisions(self):
        data = {
            "variables": [],
            "nodes": [
                {"name": "D1", "kind": "decision", "parents": [], "alternatives": ["a", "b"]},
                {"name": "D2", "kind": "decision", "parents": [], "alternatives": ["a", "b"]},
                {
                    "name": "V",
                    "kind": "value",
                    "parents": ["D1", "D2"],
                    "table": [[0, 0]] * 4,
                },
            ],
        }
        with pytest.raises(errors.UnorderedDecisions):
            build_diagram(data)

    def test_value_node_cannot_have_successors(self, minimal_data):
        minimal_data["nodes"][0]["parents"] = ["V"]
        minimal_data["nodes"][0]["table"] = [[0.5, 0.3]] * 4
        with pytest.raises(errors.MalformedSpec):
            build_diagram(minimal_data)

    def test_point_row_accepted_at_exactly_one(self, minimal_data):
        minimal_data["nodes"][0]["table"] = [[0.6, 0.4]]
        d = build_diagram(minimal_data)
        assert d.node("C").chance_table.rows == ((0.6, 0.4),)

    def test_deterministic_construction(self, minimal_data):
        a = build_diagram(minimal_data)
        b = build_diagram(copy.deepcopy(minimal_data))
        assert list(a.nodes) == list(b.nodes)
        assert a.node("C").chance_table == b.node("C").chance_table
        assert a.decision_order == b.decision_order


class TestNoForgetting:
    def test_later_decision_inherits_earlier_information(self):
        data = {
            "variables": [{"name": "C", "outcomes": ["a", "b"]}],
            "nodes": [
                {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.5]]},
                {"name": "D1", "kind": "decision", "parents": ["C"], "alternatives": ["x", "y"]},
                {"name": "D2", "kind": "decision", "parents": ["D1"], "alternatives": ["x", "y"]},
                {
                    "name": "V",
                    "kind": "value",
                    "parents": ["D2"],
                    "table": [[0, 1], [1, 2]],
                },
            ],
        }
        d = build_diagram(data)
        assert d.decision_order == ("D1", "D2")
        assert set(d.node("D2").parents) == {"D1", "C"}
        assert ("C", "D2") in d.added_information_arcs

    def test_ordering_via_indirect_path_counts(self):
        # D1 -> C -> D2 orders the decisions without a direct arc
        data = {
            "variables": [{"name": "C", "outcomes": ["a", "b"]}],
            "nodes": [
                {"name": "D1", "kind": "decision", "parents": [], "alternatives": ["x", "y"]},
                {
                    "name": "C",
                    "kind": "chance",
                    "parents": ["D1"],
                    "table": [[0.5, 0.5], [0.2, 0.2]],
                },
                {"name": "D2", "kind": "decision", "parents": ["C"], "alternatives": ["x", "y"]},
                {"name": "V", "kind": "value", "parents": ["D2"], "table": [[0, 1], [1, 2]]},
            ],
        }
        d = build_diagram(data)
        assert d.decision_order == ("D1", "D2")
        assert "D1" in d.node("D2").parents


class TestImpliedUpper:
    @pytest.mark.parametrize(
        "row, outcome, expected",
        [
            ((0.5, 0.3), 0, 0.7),
            ((0.6, 0.4), 1, 0.4),
            ((0.2, 0.3, 0.1), 2, 0.5),
        ],
    )
    def test_examples(self, row, outcome, expected):
        assert implied_upper(row, outcome) == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.floats(0, 1), min_size=2, max_size=4).filter(
            lambda r: sum(r) <= 1
        ),
        st.data(),
    )
    def test_upper_dominates_lower(self, row, data):
        i = data.draw(st.integers(0, len(row) - 1))
        assert implied_upper(row, i) >= row[i] - 1e-12

    @given(
        st.lists(st.floats(0, 1), min_size=2, max_size=4).filter(
            lambda r: 0 < sum(r) <= 1
        )
    )
    def test_point_distribution_reachable(self, row):
        # {p >= b, sum p = 1} is nonempty whenever sum(b) <= 1
        free = 1 - sum(row)
        p = [row[0] + free] + list(row[1:])
        assert abs(sum(p) - 1) < 1e-9
        assert all(x >= b - 1e-12 for x, b in zip(p, row))


class TestConfigIndexing:
    def test_examples(self):
        cards = (3, 2)
        assert config_index((1, 0), cards) == 2
        assert config_assignment(5, cards) == (2, 1)
        assert config_index((), ()) == 0
        assert config_assignment(0, ()) == ()

    def test_out_of_range(self):
        with pytest.raises(errors.OutOfRange):
            config_assignment(6, (3, 2))
        with pytest.raises(errors.OutOfRange):
            config_index((3, 0), (3, 2))

    @given(st.lists(st.integers(2, 4), min_size=0, max_size=4), st.data())
    def test_roundtrip(self, cards, data):
        idx = data.draw(st.integers(0, config_count(cards) - 1))
        assert config_index(config_assignment(idx, cards), cards) == idx

    @given(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    def test_last_parent_fastest(self, cards):
        # consecutive indices differ in the last coordinate first
        a = config_assignment(0, cards)
        b = config_assignment(1, cards)
        assert b[-1] == a[-1] + 1
        assert a[:-1] == b[:-1]


@st.composite
def row_map_case(draw):
    """Parents of an output table and of a source table, each a random
    subset of the same names in random order: some output parents are
    missing from the source and some source parents from the output."""
    names = [f"P{i}" for i in range(draw(st.integers(0, 5)))]
    card = {n: draw(st.integers(2, 4)) for n in names}
    out_parents = draw(st.permutations([n for n in names if draw(st.booleans())]))
    src_parents = draw(st.permutations([n for n in names if draw(st.booleans())]))
    return out_parents, src_parents, card


class TestRowMap:
    def test_examples(self):
        # output (A, B) over source (B, A): the source runs A fastest
        assert row_map(("A", "B"), (2, 3), strides(("B", "A"), (3, 2))) == [0, 2, 4, 1, 3, 5]
        # a parent the source lacks repeats each source row
        assert row_map(("A", "B"), (2, 3), strides(("A",), (2,))) == [0, 0, 0, 1, 1, 1]
        assert row_map((), (), strides((), ())) == [0]
        assert row_map(("A",), (3,), strides((), ())) == [0, 0, 0]
        assert strides(("A", "B", "C"), (2, 3, 4)) == {"A": 12, "B": 4, "C": 1}

    @given(row_map_case())
    def test_matches_config_index_definition(self, case):
        out_parents, src_parents, card = case
        out_cards = [card[p] for p in out_parents]
        src_cards = [card[p] for p in src_parents]
        mapped = row_map(out_parents, out_cards, strides(src_parents, src_cards))
        assert len(mapped) == config_count(out_cards)
        for idx, src_idx in enumerate(mapped):
            assignment = dict(zip(out_parents, config_assignment(idx, out_cards)))
            # source parents absent from the output are held at outcome 0
            values = [assignment.get(p, 0) for p in src_parents]
            assert src_idx == config_index(values, src_cards)
            for p in src_parents:
                if p in assignment:
                    continue
                step = strides(src_parents, src_cards)[p]
                for k in range(card[p]):
                    shifted = [k if q == p else v for q, v in zip(src_parents, values)]
                    assert src_idx + k * step == config_index(shifted, src_cards)


class TestCheckStructure:
    def test_hand_built_bad_rows_are_caught(self, minimal):
        c, v = minimal.node("C"), minimal.node("V")
        bad_c = Node("C", NodeKind.CHANCE, c.variable, (),
                     chance_table=LowerCPT((), (), ((0.7, 0.6),)))
        with pytest.raises(errors.RowSumExceedsOne, match=r"C\.table\[0\]"):
            check_structure(minimal.replace_nodes({"C": bad_c}))
        rows = list(v.value_table.rows)
        rows[3] = (5.0, 4.0)
        bad_v = Node("V", NodeKind.VALUE, None, v.parents,
                     value_table=IntervalValueTable(v.parents, v.value_table.cards, tuple(rows)))
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[3\]"):
            check_structure(minimal.replace_nodes({"V": bad_v}))

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_hand_built_non_finite_numbers_are_not_solved(self, minimal, x):
        c, v = minimal.node("C"), minimal.node("V")
        bad_c = Node("C", NodeKind.CHANCE, c.variable, (),
                     chance_table=LowerCPT((), (), ((x, 0.3),)))
        with pytest.raises(errors.MalformedSpec, match=r"C\.table\[0\]: non-finite"):
            solve(minimal.replace_nodes({"C": bad_c}))
        rows = list(v.value_table.rows)
        rows[2] = (0.3, x)
        bad_v = Node("V", NodeKind.VALUE, None, v.parents,
                     value_table=IntervalValueTable(v.parents, v.value_table.cards, tuple(rows)))
        with pytest.raises(errors.MalformedSpec, match=r"V\.table\[2\]: non-finite"):
            solve(minimal.replace_nodes({"V": bad_v}))

    @pytest.mark.parametrize("row", [(1.0,), (1.0, 2.0, 3.0)])
    def test_hand_built_value_row_of_wrong_length(self, minimal, row):
        v = minimal.node("V")
        rows = list(v.value_table.rows)
        rows[1] = row
        bad_v = Node("V", NodeKind.VALUE, None, v.parents,
                     value_table=IntervalValueTable(v.parents, v.value_table.cards, tuple(rows)))
        with pytest.raises(errors.ParentMismatch, match=r"V\.table\[1\]: expected a \[low, high\] pair"):
            solve(minimal.replace_nodes({"V": bad_v}))

    @pytest.mark.parametrize("key", ["C", "D", "V"])
    def test_node_named_apart_from_its_key(self, minimal, key):
        # compile_plan reads nodes by key, the checks by Node.name
        node = minimal.node(key)
        odd = minimal.replace_nodes({key: Node("ghost", node.kind, node.variable, node.parents,
                                               node.chance_table, node.value_table)})
        with pytest.raises(errors.MalformedSpec, match=f"^node '{key}' is named 'ghost'$"):
            check_structure(odd)


class TestDecisionOrderFollowsTheArcs:
    """A hand-built diagram's ``decision_order`` is the one order the arcs
    allow, as ``build_diagram`` derives it; every entry point refuses
    another, where it once solved the decisions in the wrong order."""

    @staticmethod
    def _reordered(diagram, order):
        return InfluenceDiagram(nodes=diagram.nodes, decision_order=order)

    def test_order_against_the_arcs(self, wildcatter):
        assert wildcatter.decision_order == ("TEST", "DRILL")
        bad = self._reordered(wildcatter, ("DRILL", "TEST"))
        member = sample_member(wildcatter, 0)
        assert round(point_solve(wildcatter, member).expected_value, 2) == 32.99
        message = (r"^decision_order \['DRILL', 'TEST'\] does not follow the arcs, "
                   r"which order the decisions \['TEST', 'DRILL'\]$")
        for call in (check_structure, solve, lambda d: point_solve(d, member)):
            with pytest.raises(errors.MalformedSpec, match=message):
                call(bad)

    def test_envelope_of_the_reordered_wildcatter(self, wildcatter):
        widened = inject_range(wildcatter, ("OIL",), 0.05)
        report = exact_envelope(widened, ("OIL",))
        assert (round(report.ev_min, 2), round(report.ev_max, 2)) == (29.86, 40.54)
        with pytest.raises(errors.MalformedSpec, match="does not follow the arcs"):
            exact_envelope(self._reordered(widened, ("DRILL", "TEST")), ("OIL",))

    @pytest.mark.parametrize("call", [
        solve,
        lambda d: soundness_check(d, 3),
        lambda d: point_solve(d, sample_member(load_diagram(fixture_path("minimal")), 0)),
    ], ids=["solve", "soundness_check", "point_solve"])
    def test_repeated_decision(self, minimal, call):
        with pytest.raises(errors.MalformedSpec, match=r"^decision_order \['D', 'D'\]"):
            call(self._reordered(minimal, ("D", "D")))

    def test_decisions_no_path_orders(self):
        d1 = Node("D1", NodeKind.DECISION, Variable("D1", ("a", "b")), ())
        d2 = Node("D2", NodeKind.DECISION, Variable("D2", ("a", "b")), ())
        v = Node("V", NodeKind.VALUE, None, ("D1", "D2"), value_table=IntervalValueTable(
            ("D1", "D2"), (2, 2), ((0.0, 0.0),) * 4))
        hand_built = InfluenceDiagram({"D1": d1, "D2": d2, "V": v}, ("D1", "D2"))
        with pytest.raises(errors.UnorderedDecisions, match="'D1' and 'D2'"):
            check_structure(hand_built)

    @pytest.mark.parametrize("order", [(), ("D", "E")])
    def test_a_set_mismatch_keeps_its_message(self, minimal, order):
        with pytest.raises(errors.MalformedSpec,
                           match="^decision_order out of sync with the node set$"):
            check_structure(self._reordered(minimal, order))


class TestEachTableCheckedOnce:
    """The parser checks each input table once and ``build_diagram`` adds
    no closing pass; ``solve`` checks its input again, then every table a
    step produces."""

    def test_each_table_checked_once(self, monkeypatch):
        calls = []
        check_rows = model.check_rows

        def counting(rows, k, where):
            calls.append(where)
            check_rows(rows, k, where)

        monkeypatch.setattr(model, "check_rows", counting)
        counts = {}
        for path in all_fixture_paths():
            calls.clear()
            diagram = load_diagram(path)
            tables = [n for n in diagram.nodes.values() if n.kind is not NodeKind.DECISION]
            assert len(calls) == len(set(calls)) == len(tables), path.name
            loaded = len(calls)
            calls.clear()
            solve(diagram)
            produced = sum(len(shape.produced) for shape in compile_plan(diagram))
            assert len(calls) == len(tables) + produced, path.name
            counts[path.name] = (loaded, len(calls))
        assert counts["wildcatter.iid.json"] == (5, 13)

        # the closing pass build_diagram no longer runs would find nothing
        diagrams = [load_diagram(path) for path in all_fixture_paths()]
        diagrams += golden_recorder().generated().values()
        assert len(diagrams) == 3 + 33
        diagrams += [random_diagram(Random(seed)) for seed in range(300)]
        for diagram in diagrams:
            check_structure(build_diagram(diagram_to_data(diagram)))


class _Float(float):
    pass


HUGE = 10**400


def _with_row(data, node, row):
    """``data`` with row 0 of ``node`` ("C" or "V") replaced by ``row``."""
    data["nodes"][0 if node == "C" else 2]["table"][0] = row
    return data


class TestRowFastPath:
    """A row of exact floats skips the per-entry check; every other row
    takes it and gives what it gave before the fast path existed (the
    expected outcomes below were recorded then)."""

    C, V = "nodes[0] (C).table[0]", "nodes[2] (V).table[0]"

    @pytest.mark.parametrize("node,row,expected", [
        ("C", [1, 0.0], "(1.0, 0.0)"),
        ("V", [2, 3.0], "(2.0, 3.0)"),
        ("C", [0.5, True], ("MalformedSpec", f"{C}: expected a number, got True")),
        ("V", [True, 1.0], ("MalformedSpec", f"{V}: expected a number, got True")),
        ("C", [None, 0.3], ("MalformedSpec", f"{C}: expected a number, got None")),
        ("V", [1.0, None], ("MalformedSpec", f"{V}: expected a number, got None")),
        ("C", ["0.5", 0.3], ("MalformedSpec", f"{C}: expected a number, got '0.5'")),
        ("V", ["0.5", 1.0], ("MalformedSpec", f"{V}: expected a number, got '0.5'")),
        ("C", [[0.5], 0.3], ("MalformedSpec", f"{C}: expected a number, got [0.5]")),
        ("V", [[0.5], 1.0], ("MalformedSpec", f"{V}: expected a number, got [0.5]")),
        ("C", [HUGE, 0.0], ("MalformedSpec", f"{C}: non-finite number")),
        ("V", [0.0, HUGE], ("MalformedSpec", f"{V}: non-finite number")),
        ("C", [-1e-13, 0.3], "(0.0, 0.3)"),
        ("C", [-1e-13, 1.0], "(0.0, 1.0)"),
        ("C", [-1e-11, 0.3], ("NegativeBound", f"{C}: lower bound -1e-11 < 0")),
        ("V", [-1e-13, 1.0], "(-1e-13, 1.0)"),
        ("C", [-0.0, 0.3], "(-0.0, 0.3)"),
        ("V", [-0.0, 0.0], "(-0.0, 0.0)"),
        ("C", (0.5, 0.3), "(0.5, 0.3)"),
        ("V", (1.0, 2.0), "(1.0, 2.0)"),
        ("C", [_Float(0.5), 0.3], "(0.5, 0.3)"),
        ("V", [_Float(0.5), 1.0], "(0.5, 1.0)"),
        ("C", [0.5, 0.3, 0.1], ("ParentMismatch", f"{C}: expected 2 bounds, got 3")),
        ("V", [1.0, 2.0, 3.0], ("MalformedSpec", f"{V}: expected a [low, high] pair")),
        ("C", [], ("ParentMismatch", f"{C}: expected 2 bounds, got 0")),
        ("V", [], ("MalformedSpec", f"{V}: expected a [low, high] pair")),
    ])
    def test_entry_kinds(self, minimal_data, node, row, expected):
        try:
            diagram = build_diagram(_with_row(minimal_data, node, row))
        except errors.DiagramError as exc:
            assert (type(exc).__name__, str(exc)) == expected
            return
        table = diagram.node(node).chance_table or diagram.node(node).value_table
        assert repr(table.rows[0]) == expected
        assert all(type(x) is float for r in table.rows for x in r)

    def test_clamp_keeps_the_sign_of_zero(self, minimal_data):
        stored = build_diagram(_with_row(minimal_data, "C", [-1e-13, -0.0]))
        row = stored.node("C").chance_table.rows[0]
        assert [math.copysign(1.0, b) for b in row] == [1.0, -1.0]

    def test_json_floats_skip_the_per_entry_check(self, monkeypatch):
        calls = []
        check_number = model._check_number

        def counting(x, where):
            calls.append(where)
            return check_number(x, where)

        monkeypatch.setattr(model, "_check_number", counting)
        paths = all_fixture_paths() + sorted(GOLDEN.glob("*.iid.json"))
        assert len(paths) == 3 + 33
        for path in paths:
            build_diagram(diagram_to_data(load_diagram(path)))
        assert calls == []
        # the document of test_integers_canonicalize_to_floats
        build_diagram({
            "variables": [{"name": "C", "outcomes": ["a", "b"]}],
            "nodes": [
                {"name": "C", "kind": "chance", "parents": [], "table": [[1, 0]]},
                {"name": "V", "kind": "value", "parents": ["C"], "table": [[1, 2], [3, 4]]},
            ],
        })
        assert len(calls) == 6


class TestDiagramHelpers:
    def test_successors_in_declaration_order(self, minimal):
        graph = check_graph(minimal)
        assert graph.successors == {"C": ["V"], "D": ["V"], "V": []}

    def test_arcs(self, minimal):
        parents = check_graph(minimal).parents
        assert {(p, n) for n, ps in parents.items() for p in ps} == {("D", "V"), ("C", "V")}

    def test_replace_nodes_preserves_order(self, minimal):
        out = minimal.replace_nodes(remove=["C"])
        assert list(out.nodes) == ["D", "V"]

    def test_replace_nodes_without_removals(self, minimal):
        # a swap keeps every key in place; a key naming no node is ignored
        c = minimal.node("C")
        moved = Node("C", NodeKind.CHANCE, c.variable, (),
                     chance_table=LowerCPT((), (), ((0.5, 0.5),)))
        for updates in ({"C": moved}, {"X": moved, "C": moved}):
            out = minimal.replace_nodes(updates)
            assert list(out.nodes) == ["C", "D", "V"]
            assert out.node("C") is moved and out.node("D") is minimal.node("D")
            assert out.decision_order == minimal.decision_order
        assert minimal.node("C") is c
        assert minimal.replace_nodes({"X": moved}).nodes == minimal.nodes

    def test_replace_nodes_with_removals(self, minimal):
        # a removal wins over an update of the same node, and drops a
        # decision from the decision order
        c = minimal.node("C")
        moved = Node("C", NodeKind.CHANCE, c.variable, (),
                     chance_table=LowerCPT((), (), ((0.5, 0.5),)))
        out = minimal.replace_nodes({"C": moved}, remove=["D", "X"])
        assert list(out.nodes) == ["C", "V"] and out.node("C") is moved
        assert out.decision_order == ()
        assert list(minimal.replace_nodes({"C": moved}, remove=["C"]).nodes) == ["D", "V"]
