"""Classical evaluation, vertex enumeration, envelopes, and the sampling
soundness harness."""

import dataclasses
import hashlib
import itertools
import math
from pathlib import Path
from random import Random

import pytest

from iidiag import errors, exact
from iidiag.diagram_io import load_diagram
from iidiag.exact import (
    PointRealization,
    eliminate,
    exact_envelope,
    point_solve,
    sample_member,
    soundness_check,
    vertex_realizations,
)
from iidiag.generate import _Doc, random_chain_diagram, random_diagram
from iidiag.model import LowerCPT, Node, NodeKind, build_diagram
from iidiag.sensitivity import SensitivitySpec, inject_range, sweep
from iidiag.solver import solve
from conftest import all_fixture_paths, chain_data, perfbench_corpus
from oracles import halfspace_vertices, recursive_point_solve, table_lookup


def point_member(diagram) -> PointRealization:
    return PointRealization(
        chance={
            name: diagram.node(name).chance_table.rows
            for name in diagram.names(NodeKind.CHANCE)
        },
        values=tuple(v[0] for v in diagram.value_node.value_table.rows),
    )


class TestPointSolve:
    def test_dot_product(self):
        d = build_diagram(
            {
                "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
                "nodes": [
                    {"name": "C", "kind": "chance", "parents": [], "table": [[0.6, 0.4]]},
                    {"name": "V", "kind": "value", "parents": ["C"], "table": [[10, 10], [0, 0]]},
                ],
            }
        )
        solution = point_solve(d, point_member(d))
        assert solution.expected_value == pytest.approx(6.0)

    def test_decision_maximizes(self, minimal):
        member = PointRealization(chance={"C": ((0.6, 0.4),)}, values=(10, 0, 4, 4))
        solution = point_solve(minimal, member)
        assert solution.expected_value == pytest.approx(6.0)
        assert solution.policy["D"][0].chosen == 0

    def test_exact_ties_reported(self):
        d = build_diagram(
            {
                "variables": [],
                "nodes": [
                    {"name": "D", "kind": "decision", "parents": [], "alternatives": ["a", "b", "c"]},
                    {"name": "V", "kind": "value", "parents": ["D"], "table": [[4, 4], [4, 4], [1, 1]]},
                ],
            }
        )
        solution = point_solve(d, PointRealization(chance={}, values=(4, 4, 1)))
        assert solution.policy["D"][0].tied == (0, 1)
        assert solution.policy["D"][0].chosen == 0

    def test_shape_mismatch(self, minimal):
        bad = PointRealization(chance={"C": ((0.6, 0.4), (0.5, 0.5))}, values=(10, 0, 4, 4))
        with pytest.raises(errors.ShapeMismatch):
            point_solve(minimal, bad)
        not_dist = PointRealization(chance={"C": ((0.6, 0.6),)}, values=(10, 0, 4, 4))
        with pytest.raises(errors.ShapeMismatch):
            point_solve(minimal, not_dist)

    @pytest.mark.parametrize(
        "chance, values",
        [
            (((0.6, 0.4),), (10, 0, math.inf, 4)),
            (((0.6, 0.4),), (10, math.nan, 4, 4)),
            (((0.6, 0.4),), (-math.inf, 0, 4, 4)),
            (((math.nan, 0.4),), (10, 0, 4, 4)),
        ],
    )
    def test_non_finite_realization_refused(self, minimal, chance, values):
        with pytest.raises(errors.ShapeMismatch):
            point_solve(minimal, PointRealization(chance={"C": chance}, values=values))

    def test_joint_past_the_limit_refused(self):
        # 2**1100 leaves: refused before the walk, which would otherwise
        # recurse once per outer level and overflow the stack
        d = build_diagram(chain_data(1100))
        with pytest.raises(errors.CombinatorialLimitExceeded, match="1100 variables"):
            point_solve(d, point_member(d))
        assert solve(d).final_interval == pytest.approx((2 / 3, 2 / 3))

    def test_unreached_states_marked(self):
        d = build_diagram(
            {
                "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
                "nodes": [
                    {"name": "C", "kind": "chance", "parents": [], "table": [[1.0, 0.0]]},
                    {"name": "D", "kind": "decision", "parents": ["C"], "alternatives": ["a", "b"]},
                    {
                        "name": "V",
                        "kind": "value",
                        "parents": ["C", "D"],
                        "table": [[1, 1], [0, 0], [5, 5], [2, 2]],
                    },
                ],
            }
        )
        solution = point_solve(d, point_member(d))
        assert solution.policy["D"][0].reached
        assert not solution.policy["D"][1].reached


def _one_hot_rows(member: PointRealization, rng: Random) -> PointRealization:
    """``member`` with one random row of every other chance node replaced by
    a one-hot distribution, so some states become unreachable."""
    chance = dict(member.chance)
    for name in list(chance)[::2]:
        rows = list(chance[name])
        r = rng.randrange(len(rows))
        hot = rng.randrange(len(rows[r]))
        rows[r] = tuple(1.0 if i == hot else 0.0 for i in range(len(rows[r])))
        chance[name] = tuple(rows)
    return PointRealization(chance=chance, values=member.values)


def _large_diagram(rng: Random):
    """Two observed decisions over seven three-outcome chance nodes: a joint
    of 8748 leaves, more than one inner block of the compiled plan."""
    def rows(n_rows):
        out = []
        for _ in range(n_rows):
            draws = [rng.random() + 0.05 for _ in range(3)]
            out.append([0.9 * d / sum(draws) for d in draws])
        return out

    parents = {
        "C1": [], "C2": ["C1", "D1"], "C3": ["C2"], "C4": ["C3", "D2"],
        "C5": ["C1"], "C6": ["C4"], "C7": [],
    }
    cards = {**{c: 3 for c in parents}, "D1": 2, "D2": 2}
    nodes = [
        {"name": "C1", "kind": "chance", "parents": [], "table": rows(1)},
        {"name": "D1", "kind": "decision", "parents": ["C1"], "alternatives": ["a", "b"]},
        {"name": "C2", "kind": "chance", "parents": ["C1", "D1"], "table": rows(6)},
        {"name": "D2", "kind": "decision", "parents": ["C2"], "alternatives": ["a", "b"]},
    ]
    for c in ("C3", "C4", "C5", "C6", "C7"):
        nodes.append({"name": c, "kind": "chance", "parents": parents[c],
                      "table": rows(math.prod(cards[p] for p in parents[c]))})
    v_parents = ["D2", "C3", "C6", "C7", "D1"]
    nodes.append({"name": "V", "kind": "value", "parents": v_parents,
                  "table": [[x, x] for x in (rng.uniform(-5, 5) for _ in
                                            range(math.prod(cards[p] for p in v_parents)))]})
    variables = [{"name": c, "outcomes": ["x", "y", "z"]} for c in parents]
    return build_diagram({"variables": variables, "nodes": nodes})


def _ladder(rng: Random, rung: int):
    """Chain H -> S1 .. S<rung> -> D with V(D, H), 3 outcomes everywhere and
    interval rows: a joint of 3**(rung + 2) leaves. The decision observes the
    last signal, so the sum/max order starts S<rung>, D."""
    doc = _Doc(rng)
    doc.chance("H", 3, [])
    prev = "H"
    for i in range(1, rung + 1):
        doc.chance(f"S{i}", 3, [prev])
        prev = f"S{i}"
    doc.decision("D", 3, [prev])
    doc.value(["D", "H"])
    return doc.build()


def _digest_diagrams():
    for rung in range(1, 8):
        yield f"ladder({rung})", _ladder(Random(700 + rung), rung)
    for n in range(10, 13):
        yield f"chain_data({n})", build_diagram(chain_data(n))
    yield "large", _large_diagram(Random(3002))


# Recorded before point_solve multiplied block-invariant columns once per call.
POINT_SOLVE_DIGEST = "d62d0f413886e83abfe69efcd1aba2ea37c6aeb4e22bb2dc8369c35058fa8950"


def test_point_solve_floats_are_pinned():
    """``repr`` of ``point_solve`` (float bits and policy dictionary order)
    for three sampled members of each diagram, most of them joints of many
    inner blocks, hashed into one digest."""
    h = hashlib.sha256()
    for label, diagram in _digest_diagrams():
        for seed in range(3):
            h.update(f"{label} {seed}\n".encode())
            h.update(repr(point_solve(diagram, sample_member(diagram, seed))).encode())
    assert h.hexdigest() == POINT_SOLVE_DIGEST


class TestPointSolveMatchesRecursiveWalk:
    """The compiled point solver against the recursive walk it replaced:
    the same floats and the same policy dictionaries, in the same order."""

    @staticmethod
    def _assert_same(diagram, member):
        got = point_solve(diagram, member)
        want = recursive_point_solve(diagram, member)
        assert got == want
        assert repr(got) == repr(want)  # float bits and dictionary order
        return got

    def test_random_members(self):
        rng = Random(3001)
        solved = 0
        seen = {"no decision": 0, "root decision": 0, "unreached": 0, "tie": 0,
                "ignored chance": 0}
        for i in range(120):
            diagram = (
                random_chain_diagram(rng)
                if i % 4 == 0
                else random_diagram(
                    rng, max_nodes=7, n_decisions=rng.choice([0, 1, 2, 3]),
                    duplicate_alternative=i % 3 == 0,
                )
            )
            chance = set(diagram.names(NodeKind.CHANCE))
            if chance - set(diagram.value_node.parents):
                seen["ignored chance"] += 1
            if not diagram.decision_order:
                seen["no decision"] += 1
            if any(not diagram.node(d).parents for d in diagram.decision_order):
                seen["root decision"] += 1
            for k in range(2):
                member = sample_member(diagram, 100 * i + k)
                if k == 1:
                    member = _one_hot_rows(member, rng)
                elif i % 5 == 0:
                    # all-zero payoffs of negative sign: each sum starts
                    # from 0.0, so the expected value is 0.0, never -0.0
                    member = PointRealization(
                        chance=member.chance, values=(-0.0,) * len(member.values)
                    )
                solution = self._assert_same(diagram, member)
                solved += 1
                entries = [e for per in solution.policy.values() for e in per.values()]
                seen["unreached"] += any(not e.reached for e in entries)
                seen["tie"] += any(len(e.tied) > 1 for e in entries)
        assert solved >= 200
        assert all(count > 0 for count in seen.values()), seen

    def test_joint_larger_than_one_block(self):
        rng = Random(3002)
        diagram = _large_diagram(rng)
        joint = math.prod(
            diagram.card(n) for n in diagram.names() if diagram.node(n).variable is not None
        )
        assert joint > exact._BLOCK_LEAVES
        plan = exact._plan_of(diagram)
        assert plan.outer and any(level.target >= 0 for level in plan.outer)
        assert any(level.target >= 0 for level in plan.inner)
        for k in range(4):
            member = sample_member(diagram, k)
            self._assert_same(diagram, _one_hot_rows(member, rng) if k % 2 else member)


    @staticmethod
    def _chain(n: int):
        """A root decision D, then an interval chain C0 -> ... -> C<n-1> of
        binary nodes, V(D, C<n-1>). The sum/max order is D, C0, ..., so for
        n = 10 the block is the whole chain below D, and for n = 11 C0 is
        walked outside it."""
        doc = _Doc(Random(3003 + n))
        doc.decision("D", 2, [])
        doc.chance("C0", 2, [])
        for i in range(1, n):
            doc.chance(f"C{i}", 2, [f"C{i - 1}"])
        doc.value(["D", f"C{n - 1}"])
        return doc.build()

    @staticmethod
    def _one_leaf_blocks():
        """C -> D, C -> B with B of 1100 outcomes, V(D, B): the last level of
        the sum/max order alone is past one block, so every block is a
        single leaf."""
        doc = _Doc(Random(3004))
        doc.chance("C", 3, [])
        doc.decision("D", 2, ["C"])
        doc.chance("B", 1100, ["C"])
        doc.value(["D", "B"])
        return doc.build()

    @pytest.mark.parametrize("case", ["all", "some", "none", "one-leaf blocks"])
    def test_block_invariant_columns(self, case):
        """The leading chance columns no outer level moves are multiplied
        once per call: all of them, some, none, and none with one-leaf
        blocks."""
        diagram = {
            "all": lambda: self._chain(10),
            "some": lambda: _ladder(Random(706), 6),
            "none": lambda: self._chain(11),
            "one-leaf blocks": self._one_leaf_blocks,
        }[case]()
        plan = exact._plan_of(diagram)
        assert plan.outer
        hoisted = {"all": len(plan.chance), "none": 0, "one-leaf blocks": 0}
        if case == "some":
            assert 0 < plan.hoisted < len(plan.chance)
        else:
            assert plan.hoisted == hoisted[case]
        assert (len(plan.ones) == 1) == (case == "one-leaf blocks")
        rng = Random(3005)
        for k in range(3):
            member = sample_member(diagram, k)
            self._assert_same(diagram, _one_hot_rows(member, rng) if k == 2 else member)

    def test_column_spanning_a_wide_window(self):
        """X's parents [A, B1..B13] run against the declaration order (A
        last), so A is walked inside the block while B1..B5 are walked
        outside it, and X's column spans far more entries than the block
        has leaves: it is read offset by offset, not through a window."""
        doc = _Doc(Random(3006))
        doc.decision("D", 2, [])
        bs = [f"B{i}" for i in range(1, 14)]
        for b in bs:
            doc.chance(b, 2, [])
        doc.chance("A", 2, [])
        doc.chance("X", 2, ["A", *bs])
        doc.value(["D", "X"])
        diagram = doc.build()
        plan = exact._plan_of(diagram)
        assert {"D", "B1", "B5"} <= {level.name for level in plan.outer}
        assert "A" in {level.name for level in plan.inner}
        span_of_a = 2 * 2**13  # X's step for A: 2 outcomes times 2**13 rows
        assert span_of_a > exact._WINDOW_SPAN * len(plan.ones)
        rng = Random(3007)
        for k in range(2):
            member = sample_member(diagram, k)
            self._assert_same(diagram, _one_hot_rows(member, rng) if k else member)


@pytest.fixture(scope="module")
def elimination_corpus():
    """(label, diagram) for every diagram the eliminator is held to
    ``point_solve`` on: the fixtures and golden diagrams, the diagrams of
    acceptance criteria 4 and 5 (drawn as those tests draw them), 300 seeds
    of each random generator, ladder rungs 1-7 and the benchmark's
    ``observed`` and ``small`` families."""
    golden = Path(__file__).parent / "golden"
    paths = [*all_fixture_paths(), *sorted(golden.glob("*.iid.json")),
             *sorted(golden.glob("*.diagram.json"))]
    out = [(path.name, load_diagram(path)) for path in paths]
    rng = Random(44001)
    for i in range(100):
        out.append((f"criterion 4, {i}", random_diagram(
            rng, max_nodes=5, point=True, duplicate_alternative=(i % 4 == 0))))
    rng = Random(55001)
    while len(out) < len(paths) + 200:
        done = len(out) - len(paths) - 100
        base = (random_chain_diagram(rng, point=True) if done % 3 == 0
                else random_diagram(rng, max_nodes=5, point=True))
        chance = base.names(NodeKind.CHANCE)
        if not chance:
            continue
        count = rng.randint(1, min(3, len(chance)))
        picked = list(chance)
        rng.shuffle(picked)
        subset = tuple(sorted(picked[:count]))
        out.append((f"criterion 5, {done}",
                    inject_range(base, subset, rng.choice([0.01, 0.05, 0.1, 0.25]))))
    for s in range(300):
        out.append((f"random_diagram({s})", random_diagram(Random(s), max_nodes=8)))
        out.append((f"random_chain_diagram({s})", random_chain_diagram(Random(s))))
    for rung in range(1, 8):
        out.append((f"ladder({rung})", _ladder(Random(700 + rung), rung)))
    corpus = perfbench_corpus()
    shape, values = Random("elimination:shape"), Random("elimination:values")
    for length in (1, 2, 3, 4) * 3:
        out.append((f"observed({length})",
                    build_diagram(corpus.observed(shape, values, length))))
    for n_chance, n_decision in ((2, 1), (3, 0), (3, 1), (4, 1), (4, 2)) * 3:
        out.append((f"small({n_chance}, {n_decision})",
                    build_diagram(corpus.small(shape, values, n_chance, n_decision))))
    return out


class TestEliminationMatchesPointSolve:
    """``eliminate`` against ``point_solve``: the expected value within
    1e-9, and the same tied set and the same ``reached`` at every state
    ``point_solve`` reaches; and ``soundness_check`` gives the same verdicts
    on either evaluator."""

    def test_same_value_and_policy(self, elimination_corpus):
        joints = set()
        for label, diagram in elimination_corpus:
            for seed in range(3):
                member = sample_member(diagram, seed)
                want = point_solve(diagram, member)
                got = eliminate(diagram, member)
                assert abs(got.expected_value - want.expected_value) <= 1e-9, (label, seed)
                assert got.policy.keys() == want.policy.keys()
                for name, entries in want.policy.items():
                    assert got.policy[name].keys() == entries.keys(), (label, name)
                    for info_idx, entry in entries.items():
                        if entry.reached:
                            mine = got.policy[name][info_idx]
                            assert (mine.tied, mine.reached) == (entry.tied, True), (
                                label, seed, name, info_idx)
            joints.add(math.prod(
                n.variable.cardinality for n in diagram.nodes.values() if n.variable
            ) > exact._ELIMINATION_LEAVES)
        assert joints == {False, True}

    def test_unreached_states_and_ties(self):
        """One-hot rows make states unreachable, and a duplicated
        alternative ties: both as ``point_solve`` marks them."""
        rng = Random(3010)
        seen = {"unreached": 0, "tie": 0}
        for i in range(60):
            diagram = random_diagram(
                rng, max_nodes=7, n_decisions=rng.choice([1, 2, 3]),
                duplicate_alternative=i % 2 == 0,
            )
            member = _one_hot_rows(sample_member(diagram, i), rng)
            want = point_solve(diagram, member)
            got = eliminate(diagram, member)
            assert abs(got.expected_value - want.expected_value) <= 1e-9
            for name, entries in want.policy.items():
                for info_idx, entry in entries.items():
                    mine = got.policy[name][info_idx]
                    assert mine.reached == entry.reached, (i, name, info_idx)
                    if entry.reached:
                        assert mine.tied == entry.tied, (i, name, info_idx)
                    seen["unreached"] += not entry.reached
                    seen["tie"] += entry.reached and len(entry.tied) > 1
        assert all(seen.values()), seen

    def test_soundness_check_either_way(self, elimination_corpus, monkeypatch):
        for label, diagram in elimination_corpus:
            report = solve(diagram)
            checks = []
            for boundary in (0, math.inf):  # elimination, then point_solve
                monkeypatch.setattr(exact, "_ELIMINATION_LEAVES", boundary)
                checks.append(soundness_check(diagram, samples=10, seed=5, report=report))
            by_elimination, by_point_solve = checks
            assert by_elimination.ev_violations == by_point_solve.ev_violations, label
            assert by_elimination.policy_violations == by_point_solve.policy_violations, label
            assert abs(by_elimination.sampled_min - by_point_solve.sampled_min) <= 1e-9, label
            assert abs(by_elimination.sampled_max - by_point_solve.sampled_max) <= 1e-9, label

    def test_elimination_path_checks_the_diagram_and_members(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exact, "check_structure", calls.append)
        monkeypatch.setattr(exact, "_ELIMINATION_LEAVES", 0)
        diagram = random_diagram(Random(7), max_nodes=6)
        soundness_check(diagram, 4, report=solve(diagram))
        assert calls == [diagram]
        assert id(diagram) not in exact._PLANS  # no enumeration plan compiled
        member = sample_member(diagram, 0)
        name = diagram.names(NodeKind.CHANCE)[0]
        short = PointRealization({**member.chance, name: member.chance[name][:-1]},
                                 member.values)
        with pytest.raises(errors.ShapeMismatch, match=f"{name}: wrong row count"):
            eliminate(diagram, short)

    def test_tables_past_the_limit_refused(self):
        # D observes 70 children of a hidden H, so summing H out multiplies
        # a table of 2**72 entries: refused before anything is tabulated
        doc = _Doc(Random(3011))
        doc.chance("H", 2, [])
        children = [f"C{i}" for i in range(70)]
        for child in children:
            doc.chance(child, 2, ["H"])
        doc.decision("D", 2, children)
        doc.value(["D", "H"])
        diagram = doc.build()
        member = sample_member(diagram, 0)
        with pytest.raises(errors.CombinatorialLimitExceeded, match=f"{2**72} entries"):
            eliminate(diagram, member)


class TestWildcatterRollout:
    """Independent decision-tree rollout of the shipped wildcatter tables."""

    @pytest.fixture
    def tables(self, wildcatter):
        d = wildcatter
        look = {}
        for name in ("SEISMIC", "RESULT"):
            t = d.node(name).chance_table
            look[name] = table_lookup(t.rows, t.parents, t.cards)
        v = d.value_node.value_table
        look["PROFIT"] = table_lookup(v.rows, v.parents, v.cards)
        return d, look

    def rollout(self, tables):
        d, look = tables
        p_oil = d.node("OIL").chance_table.rows[0]
        p_cost = d.node("COST").chance_table.rows[0]
        best, best_test, drill_choice = None, None, {}
        for t in range(3):
            ev_t = 0.0
            for r in range(3):
                contributions = []
                for drill in range(2):
                    total = 0.0
                    for o in range(3):
                        for s in range(3):
                            p = (
                                p_oil[o]
                                * look["SEISMIC"]({"OIL": o})[s]
                                * look["RESULT"]({"TEST": t, "SEISMIC": s})[r]
                            )
                            for c in range(2):
                                v = look["PROFIT"](
                                    {"TEST": t, "DRILL": drill, "OIL": o, "COST": c}
                                )[0]
                                total += p * p_cost[c] * v
                    contributions.append(total)
                pick = max(range(2), key=lambda i: contributions[i])
                drill_choice[(t, r)] = pick
                ev_t += contributions[pick]
            if best is None or ev_t > best:
                best, best_test = ev_t, t
        return best, best_test, drill_choice

    def test_point_solve_matches_rollout(self, tables):
        d, _ = tables
        ev, best_test, drill_choice = self.rollout(tables)
        solution = point_solve(d, point_member(d))
        assert solution.expected_value == pytest.approx(ev, abs=1e-9)
        assert solution.policy["TEST"][0].chosen == best_test
        for (t, r), pick in drill_choice.items():
            assert solution.policy["DRILL"][t * 3 + r].chosen == pick

    def test_frozen_regression_values(self, tables):
        ev, best_test, drill_choice = self.rollout(tables)
        assert ev == pytest.approx(32.99, abs=1e-9)
        assert best_test == 2  # the thorough survey pays for itself
        refusals = {key for key, pick in drill_choice.items() if pick == 1}
        assert refusals == {(1, 0), (2, 0)}  # informative tests reading "ns"


class TestVertexRealizations:
    def test_bounded_row(self):
        got = {tuple(round(x, 12) for x in v) for v in vertex_realizations((0.5, 0.3))}
        assert got == {(0.7, 0.3), (0.5, 0.5)}

    def test_point_row_single_member(self):
        assert vertex_realizations((0.6, 0.4)) == ((0.6, 0.4),)

    def test_three_outcomes(self):
        vs = vertex_realizations((0.2, 0.3, 0.1))
        assert len(vs) == 3
        for v in vs:
            assert sum(v) == pytest.approx(1.0)
            assert all(x >= b for x, b in zip(v, (0.2, 0.3, 0.1)))

    def test_matches_halfspace_enumeration(self):
        rng = Random(21)
        for _ in range(100):
            k = rng.randint(2, 3)
            raw = [rng.random() for _ in range(k)]
            scale = rng.uniform(0, 1) / sum(raw)
            row = tuple(x * scale for x in raw)
            ours = {tuple(round(x, 12) for x in v) for v in vertex_realizations(row)}
            assert ours == halfspace_vertices(row)


class TestExactEnvelope:
    def test_two_vertex_example(self, minimal):
        report = exact_envelope(minimal, ["C"])
        assert report.ev_min == pytest.approx(5.0)
        assert report.ev_max == pytest.approx(7.0)
        assert report.configurations_evaluated == 2
        assert report.admissible_union["D"][0] == (0,)

    def test_nothing_varied_degenerate(self, wildcatter):
        report = exact_envelope(wildcatter, [])
        assert report.configurations_evaluated == 1
        assert report.ev_min == pytest.approx(report.ev_max)

    @pytest.mark.parametrize("name", ["D", "V", "NOPE"])
    def test_varied_node_must_be_chance(self, minimal, name):
        with pytest.raises(errors.MalformedSpec, match="is not a chance node"):
            exact_envelope(minimal, ["C", name])

    def test_non_point_residual(self, minimal):
        with pytest.raises(errors.NonPointResidual):
            exact_envelope(minimal, [])  # C has slack but is not varied

    def test_value_box_needs_flag(self, survey):
        with pytest.raises(errors.NonPointResidual):
            exact_envelope(survey, ["STATE", "SIGNAL"])
        report = exact_envelope(survey, ["STATE", "SIGNAL"], include_value_box=True)
        # STATE: 1 row x 2 vertices; SIGNAL: 2 rows x 2; value rows: 2+2+1+1 corners
        assert report.configurations_evaluated == 2 * 2 * 2 * (2 * 2 * 1 * 1)

    def test_cap_exceeded(self, survey):
        with pytest.raises(errors.CombinatorialLimitExceeded):
            exact_envelope(survey, ["STATE", "SIGNAL"], include_value_box=True, cap=10)

    def test_negative_cap_is_malformed(self, minimal):
        # a negative cap is a bad argument, not a limit one configuration exceeds
        with pytest.raises(errors.MalformedSpec, match="cap -1 is negative"):
            exact_envelope(minimal, ["C"], cap=-1)

    @pytest.mark.parametrize("case", ["survey", "widened wildcatter"])
    def test_no_member_exceeds_ev_max(self, case, survey, wildcatter):
        # ev_max is exact: the optimum is convex in each row and in the
        # values, so no admitted model beats the best vertex combination
        if case == "survey":
            diagram, varied = survey, ("STATE", "SIGNAL")
        else:
            varied = ("OIL", "SEISMIC", "COST")
            diagram = inject_range(wildcatter, varied, 0.1)
        envelope = exact_envelope(diagram, varied, include_value_box=True)
        sampled = [
            point_solve(diagram, sample_member(diagram, seed)).expected_value
            for seed in range(500)
        ]
        assert max(sampled) <= envelope.ev_max + 1e-9

    def test_count_is_product_of_vertex_counts(self):
        rng = Random(22)
        for _ in range(20):
            d = random_diagram(rng, max_nodes=4)
            chance = d.names(NodeKind.CHANCE)
            if not chance:
                continue
            expected = 1
            for name in chance:
                for row in d.node(name).chance_table.rows:
                    expected *= len(vertex_realizations(row))
            for lo, hi in d.value_node.value_table.rows:
                expected *= 1 if hi - lo <= 1e-12 else 2
            report = exact_envelope(d, chance, include_value_box=True)
            assert report.configurations_evaluated == expected


class TestSampleMember:
    def test_deterministic_given_seed(self, survey):
        assert sample_member(survey, 42) == sample_member(survey, 42)
        assert sample_member(survey, 42) != sample_member(survey, 43)

    def test_point_rows_returned_unchanged(self, wildcatter):
        member = sample_member(wildcatter, 1)
        for name in wildcatter.names(NodeKind.CHANCE):
            assert member.chance[name] == wildcatter.node(name).chance_table.rows

    def test_membership(self, survey):
        for seed in range(50):
            member = sample_member(survey, seed)
            for name in survey.names(NodeKind.CHANCE):
                bounds = survey.node(name).chance_table.rows
                for row, b_row in zip(member.chance[name], bounds):
                    assert sum(row) == pytest.approx(1.0, abs=1e-9)
                    assert all(p >= b - 1e-12 for p, b in zip(row, b_row))
            for v, (lo, hi) in zip(member.values, survey.value_node.value_table.rows):
                assert lo - 1e-12 <= v <= hi + 1e-12


    def test_value_draw_is_uniforms(self):
        # the value draw spends one random() per interval row and is
        # Random.uniform's value whenever the width is finite
        for seed in range(200):
            rng = Random(seed)
            lo = rng.uniform(-1e6, 1e6)
            hi = lo + rng.choice([1e-9, 1.0, 3e5])
            a, b = Random(seed), Random(seed)
            assert exact._uniform(a, lo, hi) == b.uniform(lo, hi)
            assert a.random() == b.random()

    def test_value_width_past_the_float_range(self, minimal_data):
        for node in minimal_data["nodes"]:
            if node["kind"] == "value":
                node["table"] = [[-1e308, 1e308], [-1e308, 1.5e308], [-1.7e308, 1e308], [-1, 1]]
        diagram = build_diagram(minimal_data)
        rows = diagram.value_node.value_table.rows
        for seed in range(100):
            member = sample_member(diagram, seed)
            assert all(lo <= v <= hi for v, (lo, hi) in zip(member.values, rows))
        report = soundness_check(diagram, samples=20)
        assert report.passed
        assert -1e308 <= report.sampled_min <= report.sampled_max <= 1e308


class TestSoundnessCheck:
    def test_policy_violations_counted_at_the_projected_state(self):
        # D2's admissible table is keyed by (D1, C3), a reordered subset of
        # its parents (C1, C3, D1, C2): each state is projected by name
        diagram = random_diagram(Random(6), max_nodes=6, n_decisions=2)
        report = solve(diagram)
        adm = report.policies["D2"]
        assert adm.info_parents == ("D1", "C3")
        parents = diagram.node("D2").parents
        full_keys = list(itertools.product(*(range(diagram.card(p)) for p in parents)))
        info_keys = list(itertools.product(*(range(c) for c in adm.info_cards)))
        rng = Random(5)
        draw = exact._member_sampler(diagram)
        solutions = [recursive_point_solve(diagram, draw(rng)) for _ in range(30)]
        counted = 0
        for j in range(len(info_keys)):
            sets = list(adm.sets)
            sets[j] = (0,)
            narrowed = dataclasses.replace(
                report,
                policies={**report.policies, "D2": dataclasses.replace(adm, sets=tuple(sets))},
            )
            expected = sum(
                any(d != 0 for d in entry.tied)
                for solution in solutions
                for info_idx, entry in solution.policy["D2"].items()
                if entry.reached
                and info_keys.index(
                    tuple(full_keys[info_idx][parents.index(p)] for p in adm.info_parents)
                ) == j
            )
            got = soundness_check(diagram, samples=30, seed=5, report=narrowed)
            assert got.policy_violations == expected, j
            counted += expected
        assert counted > 0

    def test_zero_samples_vacuous(self, survey):
        report = soundness_check(survey, samples=0)
        assert report.passed
        assert report.sampled_min is None

    def test_negative_samples_are_malformed(self, survey):
        # a negative count checks nothing, so it must not read as a pass
        with pytest.raises(errors.MalformedSpec, match="sample count -3 is negative"):
            soundness_check(survey, samples=-3)

    def test_minimal_thousand_samples(self, minimal):
        report = soundness_check(minimal, samples=1000, seed=7)
        assert report.passed
        assert report.worst_ev_margin <= 0

    def test_gap_reporting(self, survey):
        report = soundness_check(survey, samples=200, seed=3)
        assert report.passed
        assert report.gap_below >= 0
        assert report.gap_above >= 0

    def test_random_diagrams(self):
        rng = Random(23)
        for i in range(25):
            d = random_chain_diagram(rng) if i % 2 else random_diagram(rng)
            report = soundness_check(d, samples=60, seed=i)
            assert report.passed, (i, report)


def _with_seismic(wildcatter, rows):
    """Wildcatter with SEISMIC's table given ``rows``, or none at all."""
    node = wildcatter.node("SEISMIC")
    table = None if rows is None else LowerCPT(node.parents, (3,), rows)
    seismic = Node("SEISMIC", NodeKind.CHANCE, node.variable, node.parents, chance_table=table)
    return wildcatter.replace_nodes({"SEISMIC": seismic})


class TestHandBuiltDiagramsAreChecked:
    """Every entry point of the reference layer checks a hand-built diagram
    before it reads a row, so a missing table or a short one is a typed
    error naming the node, not an AttributeError or IndexError."""

    BROKEN = {
        "no table": (None, "SEISMIC: table parents disagree with arcs"),
        "two of three rows": (((0.6, 0.3, 0.1), (0.3, 0.4, 0.3)), "SEISMIC: wrong row count"),
    }
    CALLS = {
        "point_solve": lambda d, member: point_solve(d, member),
        "exact_envelope": lambda d, member: exact_envelope(d, ["OIL"]),
        "soundness_check": lambda d, member: soundness_check(d, 2, report=solve(member)),
        "sample_member": lambda d, member: sample_member(d, 0),
        "sweep": lambda d, member: sweep(d, SensitivitySpec(("OIL",), (0.0, 0.1))),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("broken", sorted(BROKEN))
    def test_typed_error(self, wildcatter, broken, call):
        rows, message = self.BROKEN[broken]
        diagram = _with_seismic(wildcatter, rows)
        # soundness_check gets a valid report: solve() would refuse first
        member = wildcatter if call == "soundness_check" else point_member(wildcatter)
        with pytest.raises(errors.ParentMismatch) as caught:
            self.CALLS[call](diagram, member)
        assert str(caught.value) == message

    def test_sample_member_refuses_an_overfull_row(self, minimal):
        c = minimal.node("C")
        overfull = minimal.replace_nodes({"C": Node(
            "C", NodeKind.CHANCE, c.variable, (), chance_table=LowerCPT((), (), ((0.9, 0.9),))
        )})
        with pytest.raises(errors.RowSumExceedsOne, match=r"C\.table\[0\]"):
            sample_member(overfull, 0)

    def test_checked_once_per_diagram(self, wildcatter, monkeypatch):
        # point_solve checks when it compiles the diagram's plan, so a run
        # of calls on one diagram object checks it once
        calls = []
        monkeypatch.setattr(exact, "check_structure", calls.append)
        diagram = _with_seismic(wildcatter, wildcatter.node("SEISMIC").chance_table.rows)
        member = point_member(diagram)
        for _ in range(3):
            point_solve(diagram, member)
        exact_envelope(diagram, ["OIL"])
        soundness_check(diagram, 4, report=solve(diagram))
        assert calls == [diagram]
