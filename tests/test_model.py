"""Diagram construction, validation, and configuration indexing."""

import copy

import pytest
from hypothesis import given, strategies as st

from iidiag import errors
from iidiag.model import (
    IntervalValueTable,
    LowerCPT,
    Node,
    NodeKind,
    build_diagram,
    check_structure,
    config_assignment,
    config_count,
    config_index,
    implied_upper,
    row_map,
    stride_of,
)
from iidiag.solver import solve


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
        assert row_map(("A", "B"), (2, 3), ("B", "A"), (3, 2)) == [0, 2, 4, 1, 3, 5]
        # a parent the source lacks repeats each source row
        assert row_map(("A", "B"), (2, 3), ("A",), (2,)) == [0, 0, 0, 1, 1, 1]
        assert row_map((), (), (), ()) == [0]
        assert row_map(("A",), (3,), (), ()) == [0, 0, 0]
        assert stride_of(("A", "B", "C"), (2, 3, 4), "A") == 12
        assert stride_of(("A", "B", "C"), (2, 3, 4), "C") == 1

    @given(row_map_case())
    def test_matches_config_index_definition(self, case):
        out_parents, src_parents, card = case
        out_cards = [card[p] for p in out_parents]
        src_cards = [card[p] for p in src_parents]
        mapped = row_map(out_parents, out_cards, src_parents, src_cards)
        assert len(mapped) == config_count(out_cards)
        for idx, src_idx in enumerate(mapped):
            assignment = dict(zip(out_parents, config_assignment(idx, out_cards)))
            # source parents absent from the output are held at outcome 0
            values = [assignment.get(p, 0) for p in src_parents]
            assert src_idx == config_index(values, src_cards)
            for p in src_parents:
                if p in assignment:
                    continue
                step = stride_of(src_parents, src_cards, p)
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


class TestDiagramHelpers:
    def test_successors_in_declaration_order(self, minimal):
        assert minimal.successors("C") == ("V",)
        assert minimal.successors("D") == ("V",)
        assert minimal.successors("V") == ()

    def test_arcs(self, minimal):
        assert set(minimal.arcs()) == {("D", "V"), ("C", "V")}

    def test_replace_nodes_preserves_order(self, minimal):
        out = minimal.replace_nodes(remove=["C"])
        assert list(out.nodes) == ["D", "V"]
