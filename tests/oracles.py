"""Independent brute-force oracles the implementation is checked against.

Nothing here shares bound arithmetic with the package: envelopes come from
enumerating row-polytope vertices crossed with value-box corners (plus a
dense grid refinement for posteriors over binary priors), and table lookups
go through itertools.product rather than the package's mixed-radix indexing,
which independently pins down the row-order convention. Float sums go
through ``iidiag.model.running_sum``, plain left-to-right addition, so the
exact comparisons hold on every Python version.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from iidiag.exact import PointRealization, PointSolution, PolicyEntry
from iidiag.model import InfluenceDiagram, NodeKind, config_index, running_sum


def table_lookup(rows: Sequence, parent_names: Sequence[str], cards: Sequence[int]):
    """Map full assignment dicts to rows; last declared parent varies fastest."""
    keys = list(itertools.product(*[range(c) for c in cards]))
    assert len(keys) == len(rows)
    mapping = {key: row for key, row in zip(keys, rows)}

    def look(assignment: Mapping[str, int]):
        return mapping[tuple(assignment[p] for p in parent_names)]

    return look


def row_vertices(row: Sequence[float]) -> list[tuple[float, ...]]:
    """Vertices of {p >= row, sum p = 1} by brute force: every way of
    finishing the free mass on one coordinate."""
    free = 1.0 - running_sum(row)
    if free <= 1e-12:
        return [tuple(row)]
    return [
        tuple(b + (free if i == j else 0.0) for i, b in enumerate(row))
        for j in range(len(row))
    ]


def halfspace_vertices(row: Sequence[float]) -> set[tuple[float, ...]]:
    """Vertices of the same polytope via basic feasible solutions of the
    defining half-spaces, solved as little linear systems (dims <= 3)."""
    k = len(row)
    vertices = set()
    for active in itertools.combinations(range(k), k - 1):
        a = np.zeros((k, k))
        b = np.zeros(k)
        for r, i in enumerate(active):
            a[r, i] = 1.0
            b[r] = row[i]
        a[k - 1, :] = 1.0
        b[k - 1] = 1.0
        try:
            p = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if all(p[i] >= row[i] - 1e-12 for i in range(k)):
            vertices.add(tuple(round(x, 12) for x in p))
    return vertices


def interval_corners(intervals: Sequence[tuple[float, float]]):
    axes = [(lo,) if hi - lo <= 1e-15 else (lo, hi) for lo, hi in intervals]
    return itertools.product(*axes)


# ---------------------------------------------------------------------------
# Per-operation envelopes
# ---------------------------------------------------------------------------

def expectation_envelope(
    b_row: Sequence[float], intervals: Sequence[tuple[float, float]]
) -> tuple[float, float]:
    """Exact range of sum(v_i * p_i) over polytope vertices and box corners."""
    best_lo, best_hi = float("inf"), float("-inf")
    for p in row_vertices(b_row):
        for v in interval_corners(intervals):
            ev = running_sum(x * y for x, y in zip(v, p))
            best_lo = min(best_lo, ev)
            best_hi = max(best_hi, ev)
    return best_lo, best_hi


def marginal_lower_oracle(
    likelihoods: Sequence[Sequence[float]], prior_row: Sequence[float], x: int
) -> float:
    """Min over vertex combinations of sum_y p(x|y) p(y); ``likelihoods[y]``
    is the full conditional lower-bound row given that prior outcome."""
    best = float("inf")
    for prior in row_vertices(prior_row):
        for combo in itertools.product(*[row_vertices(r) for r in likelihoods]):
            total = running_sum(combo[y][x] * prior[y] for y in range(len(prior)))
            best = min(best, total)
    return best


def posterior_lower_oracle(
    likelihoods: Sequence[Sequence[float]],
    prior_row: Sequence[float],
    x: int,
    y: int,
) -> float | None:
    """Min of p(y|x) over vertex combinations with positive evidence;
    None when no combination gives the conditioning outcome positive mass."""
    best = None
    for prior in row_vertices(prior_row):
        for combo in itertools.product(*[row_vertices(r) for r in likelihoods]):
            den = running_sum(combo[i][x] * prior[i] for i in range(len(prior)))
            if den <= 0.0:
                continue
            val = combo[y][x] * prior[y] / den
            best = val if best is None else min(best, val)
    return best


def posterior_grid_min(
    b_x: Sequence[float],
    u_x: Sequence[float],
    prior_row: Sequence[float],
    y: int,
    points: int = 50,
) -> float | None:
    """Grid refinement for binary priors: sweep each free likelihood
    coordinate and the prior's free mass over ``points`` steps."""
    assert len(prior_row) == 2
    t = np.linspace(0.0, 1.0, points)
    like0 = b_x[0] + (u_x[0] - b_x[0]) * t
    like1 = b_x[1] + (u_x[1] - b_x[1]) * t
    free = 1.0 - running_sum(prior_row)
    p0 = prior_row[0] + free * t
    a, b, p = np.meshgrid(like0, like1, p0, indexing="ij")
    num = a * p if y == 0 else b * (1.0 - p)
    den = a * p + b * (1.0 - p)
    ok = den > 0
    if not ok.any():
        return None
    return float((num[ok] / den[ok]).min())


def marginal_grid_min(
    b_x: Sequence[float],
    u_x: Sequence[float],
    prior_row: Sequence[float],
    points: int = 50,
) -> float:
    assert len(prior_row) == 2
    t = np.linspace(0.0, 1.0, points)
    like0 = b_x[0] + (u_x[0] - b_x[0]) * t
    like1 = b_x[1] + (u_x[1] - b_x[1]) * t
    free = 1.0 - running_sum(prior_row)
    p0 = prior_row[0] + free * t
    a, b, p = np.meshgrid(like0, like1, p0, indexing="ij")
    return float((a * p + b * (1.0 - p)).min())


# ---------------------------------------------------------------------------
# Diagram-level wrappers: pull rows from the untransformed diagram with
# independent lookups and compare against the transformed tables.
# ---------------------------------------------------------------------------

def chance_removal_oracle(diagram, y_name: str, out_parents, out_cards):
    """Expected envelopes after folding ``y_name`` into the value node,
    keyed by assignment tuple over the transformed parent list."""
    y_node = diagram.node(y_name)
    value = diagram.value_node
    y_look = table_lookup(
        y_node.chance_table.rows, y_node.chance_table.parents, y_node.chance_table.cards
    )
    v_look = table_lookup(
        value.value_table.rows, value.value_table.parents, value.value_table.cards
    )
    out = {}
    for key in itertools.product(*[range(c) for c in out_cards]):
        assign = dict(zip(out_parents, key))
        b_row = y_look(assign)
        intervals = [
            v_look({**assign, y_name: i}) for i in range(y_node.cardinality)
        ]
        out[key] = expectation_envelope(b_row, intervals)
    return out


def marginal_oracle(diagram, x_name: str, y_name: str, out_parents, out_cards):
    """Lower-bound rows for x with y summed out, by vertex enumeration."""
    x_node, y_node = diagram.node(x_name), diagram.node(y_name)
    x_look = table_lookup(
        x_node.chance_table.rows, x_node.chance_table.parents, x_node.chance_table.cards
    )
    y_look = table_lookup(
        y_node.chance_table.rows, y_node.chance_table.parents, y_node.chance_table.cards
    )
    out = {}
    for key in itertools.product(*[range(c) for c in out_cards]):
        assign = dict(zip(out_parents, key))
        prior = y_look(assign)
        likelihoods = [
            x_look({**assign, y_name: i}) for i in range(y_node.cardinality)
        ]
        out[key] = tuple(
            marginal_lower_oracle(likelihoods, prior, x)
            for x in range(x_node.cardinality)
        )
    return out


def posterior_oracle(diagram, x_name: str, y_name: str, out_parents, out_cards):
    """Posterior lower-bound rows for y given x (and side parents), by
    vertex enumeration; entries are None where no vertex has evidence."""
    x_node, y_node = diagram.node(x_name), diagram.node(y_name)
    x_look = table_lookup(
        x_node.chance_table.rows, x_node.chance_table.parents, x_node.chance_table.cards
    )
    y_look = table_lookup(
        y_node.chance_table.rows, y_node.chance_table.parents, y_node.chance_table.cards
    )
    out = {}
    for key in itertools.product(*[range(c) for c in out_cards]):
        assign = dict(zip(out_parents, key))
        prior = y_look(assign)
        likelihoods = [
            x_look({**assign, y_name: i}) for i in range(y_node.cardinality)
        ]
        x_val = assign[x_name]
        out[key] = tuple(
            posterior_lower_oracle(likelihoods, prior, x_val, y)
            for y in range(y_node.cardinality)
        )
    return out


# ---------------------------------------------------------------------------
# Point solver: recursive walk over the full joint
# ---------------------------------------------------------------------------

def _sum_max_order(diagram: InfluenceDiagram) -> tuple[str, ...]:
    """Observation blocks interleaved with decisions, unobserved chance last."""
    chance = diagram.names(NodeKind.CHANCE)
    order: list[str] = []
    seen: set[str] = set()
    for d in diagram.decision_order:
        observed = set(diagram.node(d).parents)
        order += [c for c in chance if c in observed and c not in seen]
        order.append(d)
        seen.update(order)
    order += [c for c in chance if c not in seen]
    return tuple(order)


def recursive_point_solve(
    diagram: InfluenceDiagram, realization: PointRealization
) -> PointSolution:
    """The package's original point solver, kept as the reference for its
    compiled replacement: a depth-first walk over every joint assignment,
    with the leaf weight and value looked up through per-leaf assignment
    dictionaries. It must agree with ``exact.point_solve`` exactly, floats
    and policy dictionary order included."""
    order = _sum_max_order(diagram)
    value = diagram.value_node
    v_parents, v_cards = value.parents, value.value_table.cards
    chance_info = [
        (
            name,
            diagram.node(name).chance_table.parents,
            diagram.node(name).chance_table.cards,
            realization.chance[name],
        )
        for name in diagram.names(NodeKind.CHANCE)
    ]
    decision_info = {
        d: (diagram.node(d).parents, diagram.cards_of(diagram.node(d).parents))
        for d in diagram.decision_order
    }
    policy: dict[str, dict[int, PolicyEntry]] = {d: {} for d in diagram.decision_order}
    assign: dict[str, int] = {}

    def leaf() -> tuple[float, float]:
        weight = 1.0
        for name, parents, cards, rows in chance_info:
            idx = config_index([assign[p] for p in parents], cards)
            weight *= rows[idx][assign[name]]
        v_idx = config_index([assign[p] for p in v_parents], v_cards)
        return weight, weight * realization.values[v_idx]

    def walk(pos: int) -> tuple[float, float]:
        if pos == len(order):
            return leaf()
        name = order[pos]
        node = diagram.node(name)
        if node.kind is NodeKind.CHANCE:
            reach = total = 0.0
            for i in range(node.cardinality):
                assign[name] = i
                r, t = walk(pos + 1)
                reach += r
                total += t
            del assign[name]
            return reach, total
        # decision: maximize. Ties are detected with a tiny relative slack so
        # alternatives that are mathematically interchangeable (identical
        # rows, value-irrelevant decisions) stay tied despite float
        # summation noise.
        parents, cards = decision_info[name]
        info_idx = config_index([assign[p] for p in parents], cards)
        results = []
        for d in range(node.cardinality):
            assign[name] = d
            results.append(walk(pos + 1))
        del assign[name]
        best = max(t for _, t in results)
        slack = 1e-12 * max(1.0, abs(best))
        tied = tuple(d for d, (_, t) in enumerate(results) if best - t <= slack)
        reach = results[tied[0]][0]
        policy[name][info_idx] = PolicyEntry(tied[0], tied, reached=reach > 0.0)
        return reach, best

    _, total = walk(0)
    return PointSolution(expected_value=total, policy=policy)
