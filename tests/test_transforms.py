"""Transformation bounds against brute-force oracles, plus the structural
properties every operation must satisfy: soundness under sampling, bound
attainment, tie invariance, monotonicity, and point-case reduction."""

import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from iidiag import errors, model, transforms
from iidiag.exact import sample_member
from iidiag.generate import (
    chance_removal_instance,
    decision_removal_instance,
    marginalize_instance,
    reversal_instance,
)
from iidiag.model import (
    InfluenceDiagram,
    IntervalValueTable,
    LowerCPT,
    Node,
    NodeKind,
    build_diagram,
    check_graph,
)
from iidiag.transforms import (
    AdmissibleSet,
    admissible_set,
    contraction_bounds,
    marginalize_chance,
    mixture_lower_bound,
    posterior_lower_bound,
    remove_barren,
    remove_chance_into_value,
    remove_decision,
    reverse_arc,
)
from oracles import (
    chance_removal_oracle,
    expectation_envelope,
    marginal_oracle,
    posterior_oracle,
)


def keys_of(cards):
    return list(itertools.product(*[range(c) for c in cards]))


def swap(seq, i, j):
    """``seq`` as a list with entries ``i`` and ``j`` exchanged."""
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# Chance node removal into the value node
# ---------------------------------------------------------------------------

class TestChanceRemoval:
    def test_interval_values_frozen(self):
        # brute-force check: p(y1) in [0.3, 0.6], v at box corners
        assert expectation_envelope((0.3, 0.4), [(0, 1), (2, 3)]) == pytest.approx(
            (0.8, 2.4), abs=1e-12
        )
        assert contraction_bounds((0.3, 0.4), [(0, 1), (2, 3)]) == pytest.approx(
            (0.8, 2.4), abs=1e-12
        )

    def test_point_row_point_values(self):
        assert contraction_bounds((0.6, 0.4), [(10, 10), (0, 0)]) == pytest.approx(
            (6.0, 6.0), abs=1e-12
        )

    def test_bounded_row_point_values(self):
        # linear program over p(c1) in [0.5, 0.7]: min at 0.5, max at 0.7
        assert expectation_envelope((0.5, 0.3), [(10, 10), (0, 0)]) == pytest.approx(
            (5.0, 7.0), abs=1e-12
        )
        assert contraction_bounds((0.5, 0.3), [(10, 10), (0, 0)]) == pytest.approx(
            (5.0, 7.0), abs=1e-12
        )

    def test_diagram_level(self, minimal):
        out, step = remove_chance_into_value(minimal, "C")
        table = out.value_node.value_table
        assert table.parents == ("D",)
        assert table.rows[0] == pytest.approx((5.0, 7.0))
        assert table.rows[1] == pytest.approx((4.0, 4.0))

    def test_not_removable_with_other_successor(self, survey):
        # STATE also feeds SIGNAL
        with pytest.raises(errors.NotRemovable):
            remove_chance_into_value(survey, "STATE")

    def test_matches_oracle_on_random_instances(self):
        rng = Random(101)
        for _ in range(60):
            diagram, y = chance_removal_instance(rng)
            out, _ = remove_chance_into_value(diagram, y)
            table = out.value_node.value_table
            oracle = chance_removal_oracle(diagram, y, table.parents, table.cards)
            for idx, key in enumerate(keys_of(table.cards)):
                assert table.rows[idx] == pytest.approx(oracle[key], abs=1e-9)

    def test_result_is_valid_interval(self):
        rng = Random(102)
        for _ in range(40):
            diagram, y = chance_removal_instance(rng)
            out, _ = remove_chance_into_value(diagram, y)
            for lo, hi in out.value_node.value_table.rows:
                assert lo <= hi + 1e-12

    @given(
        st.lists(st.floats(0, 1), min_size=2, max_size=4).filter(lambda r: sum(r) <= 1),
        st.data(),
    )
    @settings(max_examples=200)
    def test_row_bounds_contain_every_member(self, b_row, data):
        k = len(b_row)
        lows = data.draw(st.lists(st.floats(-5, 5), min_size=k, max_size=k))
        widths = data.draw(st.lists(st.floats(0, 3), min_size=k, max_size=k))
        highs = [lo + w for lo, w in zip(lows, widths)]
        lo, hi = contraction_bounds(b_row, list(zip(lows, highs)))
        # arbitrary member: free mass spread unevenly, values mid-box
        free = max(0.0, 1 - sum(b_row))
        weights = data.draw(st.lists(st.floats(0.001, 1), min_size=k, max_size=k))
        total = sum(weights)
        p = [b + free * (w / total) for b, w in zip(b_row, weights)]
        ts = data.draw(st.lists(st.floats(0, 1), min_size=k, max_size=k))
        v = [lo_ + t * (hi_ - lo_) for lo_, hi_, t in zip(lows, highs, ts)]
        ev = sum(x * y for x, y in zip(p, v))
        assert lo - 1e-9 <= ev <= hi + 1e-9

    def test_tie_invariance(self):
        # Outcomes 0 and 1 tie for the best value, 0 and 2 for the worst.
        # The free mass goes to the lowest tied index, so swapping a tied
        # pair hands it to the other candidate. Every number is dyadic, so
        # each sum is exact in any order and the bounds must be equal.
        b_row = (0.25, 0.125, 0.125)
        lows = (-2.0, 0.5, -2.0)
        highs = (4.0, 4.0, 1.0)
        intervals = tuple(zip(lows, highs))
        base = contraction_bounds(b_row, intervals)
        for i, j in ((0, 1), (0, 2)):
            swapped = [swap(seq, i, j) for seq in (b_row, intervals)]
            assert contraction_bounds(*swapped) == base


# ---------------------------------------------------------------------------
# Admissible sets and decision removal
# ---------------------------------------------------------------------------

def decision_table(intervals):
    """Value table over a lone decision with the given per-alternative
    intervals."""
    k = len(intervals)
    data = {
        "variables": [],
        "nodes": [
            {
                "name": "D",
                "kind": "decision",
                "parents": [],
                "alternatives": [f"d{i + 1}" for i in range(k)],
            },
            {
                "name": "V",
                "kind": "value",
                "parents": ["D"],
                "table": [list(iv) for iv in intervals],
            },
        ],
    }
    return build_diagram(data)


class TestAdmissibleSet:
    def test_dominated_alternative_dropped(self):
        d = decision_table([(2, 5), (1, 1.8), (0.5, 3), (2.2, 4)])
        table = d.value_node.value_table
        assert admissible_set(table, "D", {}) == (0, 2, 3)

    def test_point_values_reduce_to_argmax(self):
        d = decision_table([(6, 6), (4, 4)])
        assert admissible_set(d.value_node.value_table, "D", {}) == (0,)

    def test_identical_intervals_all_admissible(self):
        d = decision_table([(1, 2)] * 3)
        assert admissible_set(d.value_node.value_table, "D", {}) == (0, 1, 2)

    def test_never_empty_and_contains_best_upper(self):
        rng = Random(7)
        for _ in range(200):
            k = rng.randint(2, 5)
            ivs = []
            for _ in range(k):
                lo = rng.uniform(-5, 5)
                ivs.append((lo, lo + rng.uniform(0, 4)))
            d = decision_table(ivs)
            s = admissible_set(d.value_node.value_table, "D", {})
            assert s
            best_upper = max(range(k), key=lambda i: ivs[i][1])
            assert best_upper in s

    def test_matches_pairwise_dominance_definition(self):
        rng = Random(8)
        for _ in range(200):
            k = rng.randint(2, 5)
            ivs = []
            for _ in range(k):
                lo = rng.uniform(-5, 5)
                ivs.append((lo, lo + rng.uniform(0, 4)))
            d = decision_table(ivs)
            s = set(admissible_set(d.value_node.value_table, "D", {}))
            direct = {
                i
                for i in range(k)
                if not any(ivs[i][1] < ivs[j][0] for j in range(k))
            }
            assert s == direct


class TestDecisionRemoval:
    @given(st.lists(
        st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.sampled_from([-0.0, 0.0, 1.0, 2.0]))
        .filter(lambda iv: iv[0] <= iv[1]),
        min_size=2, max_size=4,
    ))
    def test_state_matches_min_and_max_bit_for_bit(self, intervals):
        # the kernel's loops keep the value min and max would pick, signed
        # zeros included, as the definitions written with them do
        d = decision_table(intervals)
        out, step = remove_decision(d, "D")
        floor = max(lo for lo, _ in intervals)
        admitted = tuple(i for i, (_, hi) in enumerate(intervals) if hi >= floor)
        lo = min(intervals[i][0] for i in admitted)
        hi = max(intervals[i][1] for i in admitted)
        assert step.admissible.sets == (admitted,)
        assert repr(out.value_node.value_table.rows[0]) == repr((lo, hi))
        assert repr(step.lower_gap) == repr(max(0.0, floor - lo))

    def test_singleton_set(self):
        d = decision_table([(5, 7), (4, 4)])
        out, step = remove_decision(d, "D")
        assert step.admissible.sets == ((0,),)
        assert out.value_node.value_table.rows[0] == pytest.approx((5.0, 7.0))

    def test_hull_of_admissible(self):
        d = decision_table([(2, 5), (1, 1.8), (0.5, 3), (2.2, 4)])
        out, step = remove_decision(d, "D")
        assert step.admissible.sets == ((0, 2, 3),)
        assert out.value_node.value_table.rows[0] == pytest.approx((0.5, 5.0))

    def test_point_values_collapse_to_max(self):
        d = decision_table([(6, 6), (4, 4), (6, 6)])
        out, step = remove_decision(d, "D")
        assert step.admissible.sets == ((0, 2),)
        assert out.value_node.value_table.rows[0] == pytest.approx((6.0, 6.0))

    def test_unobserved_value_parent_blocks(self, minimal):
        # C feeds V but is not observed by D
        with pytest.raises(errors.NotRemovable):
            remove_decision(minimal, "D")

    def test_gap_recorded_when_hull_below_best_floor(self):
        d = decision_table([(2, 5), (0.5, 3)])
        out, step = remove_decision(d, "D")
        # hull minimum 0.5, best attainable floor 2
        assert step.lower_gap == pytest.approx(1.5)

    def test_per_state_sets(self):
        rng = Random(9)
        for _ in range(60):
            diagram, name = decision_removal_instance(rng)
            vt = diagram.value_node.value_table
            out, step = remove_decision(diagram, name)
            adm = step.admissible
            for idx, key in enumerate(keys_of(adm.info_cards)):
                assign = dict(zip(adm.info_parents, key))
                assert adm.sets[idx] == admissible_set(vt, name, assign)
                assert adm.sets[idx]


# ---------------------------------------------------------------------------
# Marginalization
# ---------------------------------------------------------------------------

class TestMarginalize:
    def test_frozen_example(self):
        # minimize 0.6 q + 0.2 (1 - q) over q in [0.5, 0.7]
        assert mixture_lower_bound([0.6, 0.2], (0.5, 0.3)) == pytest.approx(0.4)

    def test_point_tables_exact(self):
        assert mixture_lower_bound([0.9, 0.1], (0.4, 0.6)) == pytest.approx(0.42)

    def test_constant_conditional_invariant(self):
        for b in [(0.5, 0.3), (0.2, 0.2), (1.0, 0.0)]:
            assert mixture_lower_bound([0.3, 0.3], b) == pytest.approx(0.3)

    def test_matches_oracle_on_random_instances(self):
        rng = Random(201)
        for _ in range(60):
            diagram, x, y = marginalize_instance(rng)
            out, _ = marginalize_chance(diagram, y)
            table = out.node(x).chance_table
            oracle = marginal_oracle(diagram, x, y, table.parents, table.cards)
            for idx, key in enumerate(keys_of(table.cards)):
                assert table.rows[idx] == pytest.approx(oracle[key], abs=1e-9)

    def test_requires_single_chance_successor(self, minimal):
        with pytest.raises(errors.NotRemovable):
            marginalize_chance(minimal, "C")  # successor is the value node

    def test_row_sums_stay_valid(self):
        rng = Random(202)
        for _ in range(60):
            diagram, x, y = marginalize_instance(rng)
            out, _ = marginalize_chance(diagram, y)
            for row in out.node(x).chance_table.rows:
                assert sum(row) <= 1 + 1e-12
                assert all(b >= 0 for b in row)


# ---------------------------------------------------------------------------
# Arc reversal
# ---------------------------------------------------------------------------

def reversal_pair(b_y, x_rows):
    data = {
        "variables": [
            {"name": "Y", "outcomes": [f"y{i}" for i in range(len(b_y))]},
            {"name": "X", "outcomes": [f"x{i}" for i in range(len(x_rows[0]))]},
        ],
        "nodes": [
            {"name": "Y", "kind": "chance", "parents": [], "table": [list(b_y)]},
            {"name": "X", "kind": "chance", "parents": ["Y"], "table": [list(r) for r in x_rows]},
            {
                "name": "V",
                "kind": "value",
                "parents": ["X"],
                "table": [[0, 1]] * len(x_rows[0]),
            },
        ],
    }
    return build_diagram(data)


class TestReverseArc:
    def test_frozen_bounded_example(self):
        d = reversal_pair((0.5, 0.3), [(0.6, 0.3), (0.2, 0.5)])
        out, step = reverse_arc(d, "X", "Y")
        table = out.node("Y").chance_table
        assert table.parents == ("X",)
        # conditioning on x1: floor 0.30 against worst-case evidence 0.55
        assert table.rows[0][0] == pytest.approx(0.30 / 0.55, abs=1e-12)
        assert not step.notes

    def test_point_tables_give_exact_posterior(self):
        d = reversal_pair((0.4, 0.6), [(0.9, 0.1), (0.1, 0.9)])
        out, _ = reverse_arc(d, "X", "Y")
        assert out.node("Y").chance_table.rows[0][0] == pytest.approx(6 / 7)

    def test_impossible_outcome_is_indeterminate(self):
        # x1 impossible under both prior outcomes
        d = reversal_pair((0.5, 0.5), [(0.0, 1.0), (0.0, 1.0)])
        out, step = reverse_arc(d, "X", "Y")
        flagged = {(n.row_index, n.outcome): n.kind for n in step.notes}
        table = out.node("Y").chance_table
        # rows are ordered by x value; conditioning on x0 is indeterminate
        assert flagged == {(0, 0): "indeterminate", (0, 1): "indeterminate"}
        assert table.rows[0] == (0.0, 0.0)

    def test_graph_rewiring(self, survey):
        out, _ = reverse_arc(survey, "SIGNAL", "STATE")
        assert out.node("SIGNAL").chance_table.parents == ()
        assert out.node("STATE").chance_table.parents == ("SIGNAL",)
        assert "STATE" in check_graph(out).successors["SIGNAL"]

    def test_missing_arc(self, minimal):
        data = {
            "variables": [
                {"name": "A", "outcomes": ["1", "2"]},
                {"name": "B", "outcomes": ["1", "2"]},
            ],
            "nodes": [
                {"name": "A", "kind": "chance", "parents": [], "table": [[0.5, 0.5]]},
                {"name": "B", "kind": "chance", "parents": [], "table": [[0.5, 0.5]]},
                {"name": "V", "kind": "value", "parents": ["A", "B"], "table": [[0, 1]] * 4},
            ],
        }
        d = build_diagram(data)
        with pytest.raises(errors.ArcMissing):
            reverse_arc(d, "A", "B")

    def test_would_create_cycle(self):
        data = {
            "variables": [
                {"name": "A", "outcomes": ["1", "2"]},
                {"name": "B", "outcomes": ["1", "2"]},
                {"name": "C", "outcomes": ["1", "2"]},
            ],
            "nodes": [
                {"name": "A", "kind": "chance", "parents": [], "table": [[0.5, 0.5]]},
                {"name": "B", "kind": "chance", "parents": ["A"], "table": [[0.5, 0.5]] * 2},
                {
                    "name": "C",
                    "kind": "chance",
                    "parents": ["A", "B"],
                    "table": [[0.5, 0.5]] * 4,
                },
                {"name": "V", "kind": "value", "parents": ["C"], "table": [[0, 1]] * 2},
            ],
        }
        d = build_diagram(data)
        with pytest.raises(errors.WouldCreateCycle):
            reverse_arc(d, "C", "A")  # A -> B -> C remains

    def test_matches_oracle_on_random_instances(self):
        rng = Random(301)
        for _ in range(80):
            diagram, x, y = reversal_instance(rng)
            out, step = reverse_arc(diagram, x, y)
            table = out.node(y).chance_table
            oracle = posterior_oracle(diagram, x, y, table.parents, table.cards)
            flagged = {(n.row_index, n.outcome): n.kind for n in step.notes}
            for idx, key in enumerate(keys_of(table.cards)):
                for outcome in range(len(table.rows[idx])):
                    kind = flagged.get((idx, outcome))
                    expected = oracle[key][outcome]
                    if kind == "indeterminate":
                        # stored zero is vacuous; nothing numeric to compare
                        assert table.rows[idx][outcome] == 0.0
                        continue
                    assert kind is None  # convention zeros cannot arise here
                    assert expected is not None
                    assert table.rows[idx][outcome] == pytest.approx(
                        expected, abs=1e-9
                    )

    def test_marginal_side_matches_oracle(self):
        rng = Random(302)
        for _ in range(40):
            diagram, x, y = reversal_instance(rng)
            out, _ = reverse_arc(diagram, x, y)
            table = out.node(x).chance_table
            oracle = marginal_oracle(diagram, x, y, table.parents, table.cards)
            for idx, key in enumerate(keys_of(table.cards)):
                assert table.rows[idx] == pytest.approx(oracle[key], abs=1e-9)

    def test_posterior_rows_sum_below_one(self):
        rng = Random(303)
        for _ in range(60):
            diagram, x, y = reversal_instance(rng)
            out, _ = reverse_arc(diagram, x, y)
            for row in out.node(y).chance_table.rows:
                assert sum(row) <= 1 + 1e-12

    def test_tie_invariance_of_strongest_competitor(self):
        # Competitors 1 and 2 tie on their likelihood upper bound but not on
        # their prior floors. The lowest tied index takes the prior's free
        # mass, so swapping them hands it to the other; with dyadic numbers
        # every sum is exact and the bound must be equal.
        b_x = (0.25, 0.375, 0.5)
        u_x = (0.5, 0.75, 0.75)
        b_y = (0.25, 0.125, 0.375)
        base, flag = posterior_lower_bound(b_x, u_x, b_y, 0)
        assert flag == "ok"
        swapped = [swap(seq, 1, 2) for seq in (b_x, u_x, b_y)]
        assert posterior_lower_bound(*swapped, 0) == (base, "ok")


# ---------------------------------------------------------------------------
# Barren removal
# ---------------------------------------------------------------------------

class TestRemoveBarren:
    def test_chance_with_no_successors(self):
        data = {
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
        d = build_diagram(data)
        out, step = remove_barren(d, "B")
        assert "B" not in out.nodes
        assert out.value_node.value_table == d.value_node.value_table
        assert step.admissible is None

    def test_value_node_not_barren(self, minimal):
        with pytest.raises(errors.NotBarren):
            remove_barren(minimal, "V")

    def test_node_with_successors_not_barren(self, minimal):
        with pytest.raises(errors.NotBarren):
            remove_barren(minimal, "C")

    def test_barren_decision(self):
        data = {
            "variables": [{"name": "C", "outcomes": ["a", "b"]}],
            "nodes": [
                {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
                {"name": "D", "kind": "decision", "parents": [], "alternatives": ["x", "y"]},
                {"name": "V", "kind": "value", "parents": ["C"], "table": [[0, 1], [2, 3]]},
            ],
        }
        d = build_diagram(data)
        out, step = remove_barren(d, "D")
        assert "D" not in out.nodes
        assert out.decision_order == ()
        # the step reports the policy: every alternative, no information
        assert step.admissible == AdmissibleSet(
            decision="D", alternatives=("x", "y"), info_parents=(),
            info_cards=(), sets=((0, 1),),
        )


# ---------------------------------------------------------------------------
# Cross-cutting properties
# ---------------------------------------------------------------------------

def exact_chance_removal(diagram, y, member, out_parents, out_cards):
    """Exact transform of one member through chance-node folding."""
    y_node = diagram.node(y)
    value = diagram.value_node
    from oracles import table_lookup

    p_look = table_lookup(
        member.chance[y], y_node.chance_table.parents, y_node.chance_table.cards
    )
    v_look = table_lookup(
        member.values, value.value_table.parents, value.value_table.cards
    )
    out = {}
    for key in itertools.product(*[range(c) for c in out_cards]):
        assign = dict(zip(out_parents, key))
        p = p_look(assign)
        out[key] = sum(
            p[i] * v_look({**assign, y: i}) for i in range(y_node.cardinality)
        )
    return out


class TestProducedTablesAreChecked:
    """A step validates every table it produces, so broken row arithmetic
    surfaces as a typed error rather than a silently invalid diagram."""

    def test_inverted_fold_interval(self, minimal, monkeypatch):
        monkeypatch.setattr(transforms, "contraction_bounds", lambda *a, **k: (1.0, 0.0))
        with pytest.raises(errors.IntervalInverted, match=r"V\.table\[0\]"):
            remove_chance_into_value(minimal, "C")

    def test_marginal_row_above_one(self, monkeypatch):
        diagram, _, y = marginalize_instance(Random(5))
        monkeypatch.setattr(transforms, "mixture_lower_bound", lambda *a, **k: 0.9)
        with pytest.raises(errors.RowSumExceedsOne):
            marginalize_chance(diagram, y)

    def test_negative_posterior_bound(self, monkeypatch):
        d = reversal_pair((0.5, 0.3), [(0.6, 0.3), (0.2, 0.5)])
        monkeypatch.setattr(transforms, "posterior_lower_bound", lambda *a, **k: (-0.5, "ok"))
        with pytest.raises(errors.NegativeBound, match=r"Y\.table\[0\]"):
            reverse_arc(d, "X", "Y")


class TestStepInputsAreChecked:
    """A public step checks its input's graph and the tables it reads, so a
    hand-built diagram gives a typed error naming the table instead of a
    KeyError or ValueError from the row arithmetic."""

    def test_tableless_chance_node(self, minimal):
        c = minimal.node("C")
        bare = minimal.replace_nodes({"C": Node("C", NodeKind.CHANCE, c.variable, ())})
        with pytest.raises(errors.ParentMismatch) as caught:
            remove_chance_into_value(bare, "C")
        assert str(caught.value) == "C: table parents disagree with arcs"

    def test_value_table_with_one_row(self, minimal):
        v = minimal.node("V")
        table = IntervalValueTable(v.parents, v.value_table.cards, ((1.0, 2.0),))
        short = minimal.replace_nodes(
            {"V": Node("V", NodeKind.VALUE, None, v.parents, value_table=table)}
        )
        with pytest.raises(errors.ParentMismatch) as caught:
            remove_chance_into_value(short, "C")
        assert str(caught.value) == "V: wrong row count"

    def test_tables_the_step_does_not_read_stay_unchecked(self, minimal, monkeypatch):
        # a barren chance node B with a broken table: folding C reads only
        # C's and V's tables, so the step succeeds and B is carried over
        broken = Node("B", NodeKind.CHANCE, minimal.node("C").variable, (),
                      chance_table=LowerCPT((), (), ((0.9, 0.9),)))
        diagram = InfluenceDiagram({"B": broken, **minimal.nodes}, minimal.decision_order)
        checked = []
        check_rows = model.check_rows

        def counting(rows, k, where):
            checked.append(where)
            check_rows(rows, k, where)

        monkeypatch.setattr(model, "check_rows", counting)
        after, _ = remove_chance_into_value(diagram, "C")
        assert checked == ["C.table", "V.table", "V.table"]  # read, read, produced
        assert after.node("B") is broken


class TestSoundnessSampling:
    """Every exactly transformed member stays inside the produced bounds."""

    def test_chance_removal(self):
        rng = Random(401)
        checked = 0
        for i in range(25):
            diagram, y = chance_removal_instance(rng)
            out, _ = remove_chance_into_value(diagram, y)
            table = out.value_node.value_table
            for s in range(40):
                member = sample_member(diagram, seed=1000 * i + s)
                values = exact_chance_removal(
                    diagram, y, member, table.parents, table.cards
                )
                for idx, key in enumerate(keys_of(table.cards)):
                    lo, hi = table.rows[idx]
                    assert lo - 1e-9 <= values[key] <= hi + 1e-9
                    checked += 1
        assert checked >= 1000

    def test_reversal(self):
        from oracles import table_lookup

        rng = Random(402)
        checked = 0
        for i in range(25):
            diagram, x, y = reversal_instance(rng)
            out, _ = reverse_arc(diagram, x, y)
            y_table = out.node(y).chance_table
            x_table = out.node(x).chance_table
            x_node, y_node = diagram.node(x), diagram.node(y)
            for s in range(40):
                member = sample_member(diagram, seed=991 * i + s)
                lx = table_lookup(
                    member.chance[x], x_node.chance_table.parents, x_node.chance_table.cards
                )
                ly = table_lookup(
                    member.chance[y], y_node.chance_table.parents, y_node.chance_table.cards
                )
                for idx, key in enumerate(keys_of(y_table.cards)):
                    assign = dict(zip(y_table.parents, key))
                    prior = ly(assign)
                    x_val = assign[x]
                    den = sum(
                        lx({**assign, y: j})[x_val] * prior[j]
                        for j in range(y_node.cardinality)
                    )
                    if den <= 0:
                        continue
                    for outcome in range(y_node.cardinality):
                        post = lx({**assign, y: outcome})[x_val] * prior[outcome] / den
                        assert post >= y_table.rows[idx][outcome] - 1e-9
                        checked += 1
                for idx, key in enumerate(keys_of(x_table.cards)):
                    assign = dict(zip(x_table.parents, key))
                    prior = ly(assign)
                    for x_val in range(x_node.cardinality):
                        marg = sum(
                            lx({**assign, y: j})[x_val] * prior[j]
                            for j in range(y_node.cardinality)
                        )
                        assert marg >= x_table.rows[idx][x_val] - 1e-9
                        checked += 1
        assert checked >= 1000


class TestMonotonicity:
    """Weakening the input never tightens the output."""

    def test_chance_removal_interval_grows(self):
        rng = Random(501)
        for _ in range(40):
            diagram, y = chance_removal_instance(rng)
            out1, _ = remove_chance_into_value(diagram, y)
            weakened = _weaken(diagram, rng)
            out2, _ = remove_chance_into_value(weakened, y)
            t1, t2 = out1.value_node.value_table, out2.value_node.value_table
            for (lo1, hi1), (lo2, hi2) in zip(t1.rows, t2.rows):
                assert lo2 <= lo1 + 1e-9
                assert hi2 >= hi1 - 1e-9

    def test_decision_removal_set_grows(self):
        rng = Random(502)
        for _ in range(40):
            diagram, name = decision_removal_instance(rng)
            _, step1 = remove_decision(diagram, name)
            weakened = _weaken(diagram, rng)
            _, step2 = remove_decision(weakened, name)
            for s1, s2 in zip(step1.admissible.sets, step2.admissible.sets):
                assert set(s1) <= set(s2)

    def test_reversal_bounds_never_rise(self):
        rng = Random(503)
        for _ in range(40):
            diagram, x, y = reversal_instance(rng)
            out1, _ = reverse_arc(diagram, x, y)
            weakened = _weaken(diagram, rng, chance_only=True)
            out2, _ = reverse_arc(weakened, x, y)
            for r1, r2 in zip(
                out1.node(y).chance_table.rows, out2.node(y).chance_table.rows
            ):
                for b1, b2 in zip(r1, r2):
                    assert b2 <= b1 + 1e-9


def _weaken(diagram, rng, chance_only=False):
    """Scale one node's lower bounds down and/or widen one value interval."""
    from iidiag.model import IntervalValueTable, LowerCPT, Node, NodeKind

    updates = {}
    chance = diagram.names(NodeKind.CHANCE)
    if chance:
        name = chance[rng.randrange(len(chance))]
        node = diagram.node(name)
        factor = rng.uniform(0.3, 0.95)
        rows = tuple(tuple(b * factor for b in row) for row in node.chance_table.rows)
        updates[name] = Node(
            name, NodeKind.CHANCE, node.variable, node.parents,
            chance_table=LowerCPT(node.chance_table.parents, node.chance_table.cards, rows),
        )
    if not chance_only:
        value = diagram.value_node
        pad = rng.uniform(0.0, 2.0)
        rows = tuple((lo - pad, hi + pad) for lo, hi in value.value_table.rows)
        updates[value.name] = Node(
            value.name, NodeKind.VALUE, None, value.parents,
            value_table=IntervalValueTable(
                value.value_table.parents, value.value_table.cards, rows
            ),
        )
    return diagram.replace_nodes(updates)


class TestPointReduction:
    """Point rows and degenerate intervals reduce every operation to its
    classical counterpart."""

    def test_chance_removal(self):
        rng = Random(601)
        for _ in range(30):
            k = rng.randint(2, 4)
            p = [rng.random() for _ in range(k)]
            s = sum(p)
            p = [x / s for x in p]
            v = [rng.uniform(-5, 5) for _ in range(k)]
            lo, hi = contraction_bounds(p, [(x, x) for x in v])
            exact = sum(a * b for a, b in zip(p, v))
            assert lo == pytest.approx(exact, abs=1e-9)
            assert hi == pytest.approx(exact, abs=1e-9)

    def test_reversal_is_bayes_rule(self):
        rng = Random(602)
        for _ in range(30):
            p_y = [rng.random() for _ in range(2)]
            s = sum(p_y)
            p_y = [x / s for x in p_y]
            rows = []
            for _ in range(2):
                r = [rng.random() for _ in range(2)]
                t = sum(r)
                rows.append([x / t for x in r])
            d = reversal_pair(tuple(p_y), rows)
            out, _ = reverse_arc(d, "X", "Y")
            table = out.node("Y").chance_table
            for x_val in range(2):
                den = sum(rows[j][x_val] * p_y[j] for j in range(2))
                for y_val in range(2):
                    expected = rows[y_val][x_val] * p_y[y_val] / den
                    assert table.rows[x_val][y_val] == pytest.approx(expected, abs=1e-9)
                assert sum(table.rows[x_val]) == pytest.approx(1.0, abs=1e-9)
