"""Acceptance suite: the eight package-level criteria, one test each, and
sampling soundness on the benchmark's largest ``reduce`` diagrams.

Each test prints a single pass line (visible with ``pytest -s`` or ``-rA``)
so a run reads as a checklist. Tolerances are fixed here, not configurable:
1e-9 for vertex-oracle equivalence, bound attainment, and expected-value
containment; the posterior grid refinement must agree within the same 1e-9
because the extremal members sit on grid endpoints.
"""

import itertools
import math
import time
from random import Random

import pytest

from iidiag import exact
from iidiag.cli import main
from iidiag.diagram_io import fixture_path, load_diagram, parse_diagram, serialize_diagram
from iidiag.exact import (
    PointRealization,
    exact_envelope,
    point_solve,
    soundness_check,
    vertex_realizations,
)
from iidiag.generate import (
    chance_removal_instance,
    decision_removal_instance,
    marginalize_instance,
    random_chain_diagram,
    random_diagram,
    reversal_instance,
)
from iidiag.model import NodeKind, build_diagram, config_assignment, config_index
from iidiag.sensitivity import SensitivitySpec, inject_range, sweep
from iidiag.solver import solve
from iidiag.transforms import (
    marginalize_chance,
    remove_chance_into_value,
    remove_decision,
    reverse_arc,
)
from conftest import all_fixture_paths, perfbench_corpus
from oracles import (
    chance_removal_oracle,
    marginal_grid_min,
    marginal_oracle,
    posterior_grid_min,
    posterior_oracle,
)

TOL = 1e-9
N_INSTANCES = 200


def keys_of(cards):
    return list(itertools.product(*[range(c) for c in cards]))


def _free(row):
    f = 1.0 - sum(row)
    return 0.0 if f < 1e-12 else f


def _project(diagram, decision, admitted):
    parents = diagram.node(decision).parents
    cards = diagram.cards_of(parents)
    positions = [parents.index(p) for p in admitted.info_parents]

    def go(idx):
        values = config_assignment(idx, cards)
        return config_index([values[p] for p in positions], admitted.info_cards)

    return go


# ---------------------------------------------------------------------------
# Criterion 1: transformation bounds match brute-force oracles
# ---------------------------------------------------------------------------

def test_criterion_1_transformation_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    grid_checks = 0

    rng = Random(11001)
    for _ in range(N_INSTANCES):
        diagram, y = chance_removal_instance(rng)
        out, _ = remove_chance_into_value(diagram, y)
        table = out.value_node.value_table
        oracle = chance_removal_oracle(diagram, y, table.parents, table.cards)
        for idx, key in enumerate(keys_of(table.cards)):
            lo, hi = oracle[key]
            worst = max(worst, abs(lo - table.rows[idx][0]), abs(hi - table.rows[idx][1]))
    assert worst <= TOL, f"chance removal deviates from oracle by {worst}"

    rng = Random(11002)
    for _ in range(N_INSTANCES):
        diagram, x, y = marginalize_instance(rng)
        out, _ = marginalize_chance(diagram, y)
        table = out.node(x).chance_table
        oracle = marginal_oracle(diagram, x, y, table.parents, table.cards)
        for idx, key in enumerate(keys_of(table.cards)):
            for x_out, bound in enumerate(table.rows[idx]):
                worst = max(worst, abs(oracle[key][x_out] - bound))
    assert worst <= TOL, f"marginalization deviates from oracle by {worst}"

    rng = Random(11003)
    for _ in range(N_INSTANCES):
        diagram, x, y = reversal_instance(rng)
        out, step = reverse_arc(diagram, x, y)
        y_table = out.node(y).chance_table
        x_table = out.node(x).chance_table
        flagged = {(n.row_index, n.outcome): n.kind for n in step.notes}
        oracle = posterior_oracle(diagram, x, y, y_table.parents, y_table.cards)
        k_y = diagram.node(y).cardinality
        binary_prior = k_y == 2
        y_cpt = diagram.node(y).chance_table
        x_cpt = diagram.node(x).chance_table

        for idx, key in enumerate(keys_of(y_table.cards)):
            assign = dict(zip(y_table.parents, key))
            for outcome, bound in enumerate(y_table.rows[idx]):
                if flagged.get((idx, outcome)) == "indeterminate":
                    continue  # vacuous zero row; nothing to compare
                expected = oracle[key][outcome]
                assert expected is not None
                worst = max(worst, abs(expected - bound))
                if binary_prior:
                    prior = y_cpt.rows[
                        config_index([assign[p] for p in y_cpt.parents], y_cpt.cards)
                    ]
                    rows = [
                        x_cpt.rows[
                            config_index(
                                [
                                    (i if p == y else assign[p])
                                    for p in x_cpt.parents
                                ],
                                x_cpt.cards,
                            )
                        ]
                        for i in range(2)
                    ]
                    x_val = assign[x]
                    b_x = [rows[i][x_val] for i in range(2)]
                    u_x = [b_x[i] + _free(rows[i]) for i in range(2)]
                    g = posterior_grid_min(b_x, u_x, prior, outcome, points=50)
                    assert g is not None
                    assert abs(g - bound) <= TOL
                    grid_checks += 1

        marg = marginal_oracle(diagram, x, y, x_table.parents, x_table.cards)
        for idx, key in enumerate(keys_of(x_table.cards)):
            assign = dict(zip(x_table.parents, key))
            for x_out, bound in enumerate(x_table.rows[idx]):
                worst = max(worst, abs(marg[key][x_out] - bound))
                if binary_prior:
                    prior = y_cpt.rows[
                        config_index([assign[p] for p in y_cpt.parents], y_cpt.cards)
                    ]
                    rows = [
                        x_cpt.rows[
                            config_index(
                                [
                                    (i if p == y else assign[p])
                                    for p in x_cpt.parents
                                ],
                                x_cpt.cards,
                            )
                        ]
                        for i in range(2)
                    ]
                    b_x = [rows[i][x_out] for i in range(2)]
                    u_x = [b_x[i] + _free(rows[i]) for i in range(2)]
                    g = marginal_grid_min(b_x, u_x, prior, points=50)
                    assert abs(g - bound) <= TOL
                    grid_checks += 1

    elapsed = time.perf_counter() - start
    assert worst <= TOL, f"reversal deviates from oracle by {worst}"
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"\n[acceptance] 1 transformation-oracle equivalence: PASS "
        f"({3 * N_INSTANCES} instances, worst dev {worst:.2e}, "
        f"{grid_checks} grid refinements, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# Criterion 2: sampling soundness on fixtures and random diagrams
# ---------------------------------------------------------------------------

def test_criterion_2_soundness_suite():
    start = time.perf_counter()
    for path in all_fixture_paths():
        report = soundness_check(load_diagram(path), samples=1000, seed=7)
        assert report.passed, f"{path.name}: {report}"

    rng = Random(22001)
    for i in range(100):
        diagram = random_chain_diagram(rng) if i % 3 == 0 else random_diagram(rng)
        report = soundness_check(diagram, samples=1000, seed=i)
        assert report.passed, f"random diagram {i}: {report}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    print(
        f"\n[acceptance] 2 soundness suite: PASS "
        f"({len(all_fixture_paths())} fixtures + 100 random diagrams x 1000 samples, "
        f"{elapsed:.1f}s)"
    )


def test_soundness_on_the_benchmark_families():
    """Sampling soundness at the benchmark's scale: the ``reduce`` families'
    largest sizes. Elimination never tabulates a joint, so point_solve
    evaluates chain(40)'s members too, a joint of 42 variables past 2**64
    leaves."""
    corpus = perfbench_corpus()
    start = time.perf_counter()
    for family, size in (("chain", 40), ("wide", 7), ("stages", 5)):
        doc = getattr(corpus, family)(Random(f"soundness:{family}"), Random(11), size)
        diagram = build_diagram(doc)
        leaves = math.prod(n.variable.cardinality for n in diagram.nodes.values() if n.variable)
        assert (leaves > exact._MAX_LEAVES) == (family == "chain")
        report = soundness_check(diagram, samples=200, seed=3)
        assert report.passed, f"{family}({size}): {report}"
    elapsed = time.perf_counter() - start
    print(f"\n[acceptance] soundness at benchmark scale: PASS "
          f"(chain(40), wide(7), stages(5) x 200 samples, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Criterion 3: every produced bound is attained by a constructed member
# ---------------------------------------------------------------------------

def test_criterion_3_minimality_attainment():
    worst = 0.0

    rng = Random(33001)
    for _ in range(N_INSTANCES):
        diagram, y = chance_removal_instance(rng)
        out, _ = remove_chance_into_value(diagram, y)
        table = out.value_node.value_table
        y_node = diagram.node(y)
        y_cpt = y_node.chance_table
        vt = diagram.value_node.value_table
        for idx, key in enumerate(keys_of(table.cards)):
            assign = dict(zip(table.parents, key))
            b_row = y_cpt.rows[
                config_index([assign[p] for p in y_cpt.parents], y_cpt.cards)
            ]
            ivs = [
                vt.rows[
                    config_index(
                        [(i if p == y else assign[p]) for p in vt.parents], vt.cards
                    )
                ]
                for i in range(y_node.cardinality)
            ]
            free = _free(b_row)
            for side in (0, 1):
                vals = [iv[side] for iv in ivs]
                pick = (
                    min(range(len(vals)), key=lambda i: vals[i])
                    if side == 0
                    else max(range(len(vals)), key=lambda i: vals[i])
                )
                member_p = [b + (free if i == pick else 0.0) for i, b in enumerate(b_row)]
                attained = sum(p * v for p, v in zip(member_p, vals))
                worst = max(worst, abs(attained - table.rows[idx][side]))
    assert worst <= TOL, f"chance-removal bound not attained within {worst}"

    rng = Random(33002)
    for _ in range(N_INSTANCES):
        diagram, x, y = marginalize_instance(rng)
        out, _ = marginalize_chance(diagram, y)
        table = out.node(x).chance_table
        worst = max(worst, _marginal_attainment(diagram, x, y, table))
    assert worst <= TOL, f"marginal bound not attained within {worst}"

    rng = Random(33003)
    skipped_indeterminate = 0
    for _ in range(N_INSTANCES):
        diagram, x, y = reversal_instance(rng)
        out, step = reverse_arc(diagram, x, y)
        y_table = out.node(y).chance_table
        x_table = out.node(x).chance_table
        flagged = {(n.row_index, n.outcome): n.kind for n in step.notes}
        y_node, x_node = diagram.node(y), diagram.node(x)
        y_cpt, x_cpt = y_node.chance_table, x_node.chance_table
        k_y = y_node.cardinality
        for idx, key in enumerate(keys_of(y_table.cards)):
            assign = dict(zip(y_table.parents, key))
            prior = y_cpt.rows[
                config_index([assign[p] for p in y_cpt.parents], y_cpt.cards)
            ]
            rows = [
                x_cpt.rows[
                    config_index(
                        [(i if p == y else assign[p]) for p in x_cpt.parents],
                        x_cpt.cards,
                    )
                ]
                for i in range(k_y)
            ]
            x_val = assign[x]
            b_x = [rows[i][x_val] for i in range(k_y)]
            u_x = [b_x[i] + _free(rows[i]) for i in range(k_y)]
            free = _free(prior)
            for outcome, bound in enumerate(y_table.rows[idx]):
                if flagged.get((idx, outcome)) == "indeterminate":
                    skipped_indeterminate += 1
                    continue
                others = [i for i in range(k_y) if i != outcome]
                y_s = min(others, key=lambda i: (-u_x[i], i))
                member_prior = [
                    b + (free if i == y_s else 0.0) for i, b in enumerate(prior)
                ]
                member_like = [
                    b_x[i] if i == outcome else u_x[i] for i in range(k_y)
                ]
                den = sum(member_like[i] * member_prior[i] for i in range(k_y))
                assert den > 0
                attained = member_like[outcome] * member_prior[outcome] / den
                worst = max(worst, abs(attained - bound))
        worst = max(worst, _marginal_attainment(diagram, x, y, x_table))
    assert worst <= TOL, f"posterior bound not attained within {worst}"

    # decision removal: the upper bound is attained; the reported lower
    # bound (minimum over the admissible set) can sit below the best
    # attainable floor, so it is exempted and its gap is measured instead.
    rng = Random(33004)
    gaps = []
    for _ in range(N_INSTANCES):
        diagram, name = decision_removal_instance(rng)
        out, step = remove_decision(diagram, name)
        table = out.value_node.value_table
        vt = diagram.value_node.value_table
        adm = step.admissible
        k = diagram.node(name).cardinality
        for idx, key in enumerate(keys_of(table.cards)):
            assign = dict(zip(table.parents, key))
            ivs = [
                vt.rows[
                    config_index(
                        [(d if p == name else assign[p]) for p in vt.parents],
                        vt.cards,
                    )
                ]
                for d in range(k)
            ]
            admitted = adm.sets[idx]
            d_hat = min(admitted, key=lambda d: (-ivs[d][1], d))
            member = [ivs[d][1] if d == d_hat else ivs[d][0] for d in range(k)]
            attained_hi = max(member)
            worst = max(worst, abs(attained_hi - table.rows[idx][1]))
            attainable_floor = max(iv[0] for iv in ivs)
            gap = attainable_floor - table.rows[idx][0]
            assert gap >= -TOL
            gaps.append(gap)
    assert worst <= TOL
    positive = [g for g in gaps if g > TOL]
    print(
        f"\n[acceptance] 3 minimality attainment: PASS "
        f"(worst attainment error {worst:.2e}; {skipped_indeterminate} vacuous "
        f"indeterminate bounds exempt; admissible-minimum lower bounds exempt "
        f"with gap > 0 in {len(positive)}/{len(gaps)} states, max gap "
        f"{max(gaps):.3g})"
    )


def _marginal_attainment(diagram, x, y, table):
    worst = 0.0
    y_node, x_node = diagram.node(y), diagram.node(x)
    y_cpt, x_cpt = y_node.chance_table, x_node.chance_table
    k_y = y_node.cardinality
    for idx, key in enumerate(keys_of(table.cards)):
        assign = dict(zip(table.parents, key))
        prior = y_cpt.rows[
            config_index([assign[p] for p in y_cpt.parents], y_cpt.cards)
        ]
        rows = [
            x_cpt.rows[
                config_index(
                    [(i if p == y else assign[p]) for p in x_cpt.parents],
                    x_cpt.cards,
                )
            ]
            for i in range(k_y)
        ]
        free = _free(prior)
        for x_out, bound in enumerate(table.rows[idx]):
            coeffs = [rows[i][x_out] for i in range(k_y)]
            y_m = min(range(k_y), key=lambda i: (coeffs[i], i))
            member_prior = [
                b + (free if i == y_m else 0.0) for i, b in enumerate(prior)
            ]
            attained = sum(coeffs[i] * member_prior[i] for i in range(k_y))
            worst = max(worst, abs(attained - bound))
    return worst


# ---------------------------------------------------------------------------
# Criterion 4: point diagrams reduce to the classical solution
# ---------------------------------------------------------------------------

def test_criterion_4_point_reduction():
    rng = Random(44001)
    for i in range(100):
        diagram = random_diagram(
            rng, max_nodes=5, point=True, duplicate_alternative=(i % 4 == 0)
        )
        report = solve(diagram)
        lo, hi = report.final_interval
        assert hi - lo <= TOL
        member = PointRealization(
            chance={
                name: diagram.node(name).chance_table.rows
                for name in diagram.names(NodeKind.CHANCE)
            },
            values=tuple(v[0] for v in diagram.value_node.value_table.rows),
        )
        solution = point_solve(diagram, member)
        assert solution.expected_value == pytest.approx(lo, abs=TOL)

        for name, entries in solution.policy.items():
            adm = report.policies[name]
            project = _project(diagram, name, adm)
            reached_by_state: dict[int, set] = {}
            for info_idx, entry in entries.items():
                if entry.reached:
                    reached_by_state.setdefault(project(info_idx), set()).update(
                        entry.tied
                    )
                    # the classical tie set is the same at every full
                    # information state refining the same value-relevant state
                    assert set(entry.tied) == set(adm.sets[project(info_idx)])
    print("\n[acceptance] 4 point reduction: PASS (100 diagrams, ties included)")


# ---------------------------------------------------------------------------
# Criterion 5: vertex envelopes sit inside the computed bounds
# ---------------------------------------------------------------------------

def test_criterion_5_envelope_containment():
    rng = Random(55001)
    done = 0
    while done < 100:
        base = (
            random_chain_diagram(rng, point=True)
            if done % 3 == 0
            else random_diagram(rng, max_nodes=5, point=True)
        )
        chance = base.names(NodeKind.CHANCE)
        if not chance:
            continue
        count = rng.randint(1, min(3, len(chance)))
        picked = list(chance)
        rng.shuffle(picked)
        subset = tuple(sorted(picked[:count]))
        diagram = inject_range(base, subset, rng.choice([0.01, 0.05, 0.1, 0.25]))
        report = solve(diagram)
        envelope = exact_envelope(diagram, subset)
        lo, hi = report.final_interval
        assert envelope.ev_min >= lo - TOL
        assert envelope.ev_max <= hi + TOL
        for name, per in envelope.admissible_union.items():
            adm = report.policies[name]
            project = _project(diagram, name, adm)
            for info_idx, members in per.items():
                allowed = set(adm.sets[project(info_idx)])
                assert set(members) <= allowed, (name, info_idx)
        done += 1
    print(
        "\n[acceptance] 5 envelope containment: PASS "
        "(100 diagrams, 1-3 widened nodes; union of optima always admissible)"
    )


# ---------------------------------------------------------------------------
# Criterion 6: sweep structure on the wildcatter fixture
# ---------------------------------------------------------------------------

def test_criterion_6_sweep_structure(wildcatter):
    ranges = (0.0, 0.01, 0.05, 0.10)
    subsets = (("OIL",), ("SEISMIC",), ("COST",), ("OIL", "SEISMIC", "COST"))
    spec = SensitivitySpec(
        target_nodes=("OIL", "SEISMIC", "COST"), ranges=ranges, subsets=subsets
    )
    report = sweep(wildcatter, spec)

    for subset in subsets:
        cells = [report.cell(subset, r) for r in ranges]
        # zero imprecision reproduces the classical solution exactly
        assert cells[0].width <= TOL
        assert cells[0].interval[0] == pytest.approx(report.point_value, abs=TOL)
        for tight, loose in zip(cells, cells[1:]):
            assert loose.width > tight.width, (subset, loose.range_)
            assert loose.interval[0] <= tight.interval[0] + TOL
            assert loose.interval[1] >= tight.interval[1] - TOL
            for name in ("TEST", "DRILL"):
                for s_t, s_l in zip(
                    tight.policies[name].sets, loose.policies[name].sets
                ):
                    assert set(s_t) <= set(s_l)
    print(
        "\n[acceptance] 6 sweep structure: PASS "
        "(4 subsets x 4 ranges: strict widths, nested intervals, "
        "nondecreasing admissible sets, degenerate base row)"
    )


# ---------------------------------------------------------------------------
# Criterion 7: one solve costs like one classical solve; enumeration does not
# ---------------------------------------------------------------------------

def _median_seconds(fn, repeats=15):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def test_criterion_7_cost_claim(wildcatter, capsys):
    member = PointRealization(
        chance={
            name: wildcatter.node(name).chance_table.rows
            for name in wildcatter.names(NodeKind.CHANCE)
        },
        values=tuple(v[0] for v in wildcatter.value_node.value_table.rows),
    )
    # The gate times a cold solve: a plain solve keeps nothing between
    # calls, so every timed call checks the diagram and compiles its step
    # sequence as well as replaying it.
    solve_t = _median_seconds(lambda: solve(wildcatter))
    point_t = _median_seconds(lambda: point_solve(wildcatter, member))
    ratio = solve_t / point_t
    assert solve_t <= 5 * point_t, f"solve {solve_t:.6f}s vs point {point_t:.6f}s"

    subset = ("OIL", "SEISMIC", "COST")
    widened = inject_range(wildcatter, subset, 0.05)
    analytic = 1
    for name in subset:
        for row in widened.node(name).chance_table.rows:
            analytic *= len(vertex_realizations(row))
    envelope = exact_envelope(widened, subset)
    assert envelope.configurations_evaluated == analytic

    rc = main(
        [
            "sweep",
            str(fixture_path("wildcatter")),
            "--nodes",
            "OIL,SEISMIC,COST",
            "--ranges",
            "0.05",
            "--exact",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert str(analytic) in captured.out  # configurations column
    assert "timing" in captured.err  # measured cost goes to stderr
    print(
        f"\n[acceptance] 7 cost claim: PASS "
        f"(cold solve/point ratio {ratio:.2f} <= 5; enumeration evaluates "
        f"{analytic} configurations as predicted)"
    )


# ---------------------------------------------------------------------------
# Criterion 8: on-disk format stability
# ---------------------------------------------------------------------------

def test_criterion_8_format_stability(tmp_path, capsys):
    for path in all_fixture_paths():
        text = path.read_text(encoding="utf-8")
        assert serialize_diagram(parse_diagram(text)) == text, path.name
        scratch = tmp_path / path.name
        scratch.write_text(text, encoding="utf-8")
        assert main(["fmt", str(scratch)]) == 0
        assert scratch.read_text(encoding="utf-8") == text
        assert main(["fmt", str(scratch)]) == 0
        assert scratch.read_text(encoding="utf-8") == text
    capsys.readouterr()
    print(
        f"\n[acceptance] 8 format stability: PASS "
        f"({len(all_fixture_paths())} fixtures byte-identical; fmt idempotent)"
    )
