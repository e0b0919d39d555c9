"""Random diagram and single-transformation instance generators.

Used by the verification suite and the audit scripts: all randomness flows
through an explicit ``random.Random`` so every run is reproducible from its
seed. Probability rows are drawn as random points on the simplex and, unless
a point-valued diagram is requested, shrunk by a per-node factor so the rows
become genuine lower bounds with slack.
"""

from __future__ import annotations

from random import Random
from typing import Any

from .exact import simplex_point
from .model import InfluenceDiagram, build_diagram, config_assignment, config_index


def _chance_rows(rng: Random, n_rows: int, k: int, point: bool) -> list[list[float]]:
    rows = []
    for _ in range(n_rows):
        p = simplex_point(rng, k)
        if not point:
            p = [(1.0 - rng.uniform(0.0, 0.5)) * x for x in p]
        rows.append(p)
    return rows


def _value_rows(rng: Random, n_rows: int, point: bool) -> list[list[float]]:
    rows = []
    for _ in range(n_rows):
        lo = rng.uniform(-10.0, 10.0)
        width = 0.0 if point else rng.uniform(0.0, 5.0)
        rows.append([lo, lo + width])
    return rows


def random_diagram(
    rng: Random,
    *,
    max_nodes: int = 5,
    max_outcomes: int = 3,
    n_decisions: int | None = None,
    point: bool = False,
    duplicate_alternative: bool = False,
) -> InfluenceDiagram:
    """A random valid diagram with at most ``max_nodes`` nodes (value node
    included). Decisions are chained by direct arcs so they are always
    totally ordered. With ``duplicate_alternative`` one decision gets two
    alternatives made exactly interchangeable everywhere, forcing ties."""
    n_total = rng.randint(2, max_nodes)
    n_rest = n_total - 1
    if n_decisions is None:
        n_dec = rng.choice([0, 0, 1, 1, 2])
        n_dec = min(n_dec, n_rest)
    else:
        n_dec = min(n_decisions, n_rest)
    n_chance = n_rest - n_dec

    kinds = ["decision"] * n_dec + ["chance"] * n_chance
    rng.shuffle(kinds)
    names, cards = [], {}
    d_i = c_i = 0
    for kind in kinds:
        if kind == "decision":
            d_i += 1
            names.append((f"D{d_i}", kind))
        else:
            c_i += 1
            names.append((f"C{c_i}", kind))
    decisions = [n for n, k in names if k == "decision"]

    parents: dict[str, list[str]] = {}
    for i, (name, kind) in enumerate(names):
        pool = [n for n, _ in names[:i]]
        rng.shuffle(pool)
        fan_in = rng.randint(0, min(2, len(pool)))
        parents[name] = sorted(pool[:fan_in])
    for earlier, later in zip(decisions, decisions[1:]):
        if earlier not in parents[later]:
            parents[later].append(earlier)

    value_parents = [n for n, _ in names if rng.random() < 0.6]
    if not value_parents:
        value_parents = [names[rng.randrange(len(names))][0]]

    for name, kind in names:
        cards[name] = rng.randint(2, max_outcomes)

    variables = [
        {"name": n, "outcomes": [f"{n.lower()}_{j}" for j in range(cards[n])]}
        for n, k in names
        if k == "chance"
    ]
    nodes: list[dict[str, Any]] = []
    for name, kind in names:
        decl: dict[str, Any] = {"name": name, "kind": kind, "parents": parents[name]}
        if kind == "chance":
            n_rows = 1
            for p in parents[name]:
                n_rows *= cards[p]
            decl["table"] = _chance_rows(rng, n_rows, cards[name], point)
        else:
            decl["alternatives"] = [f"{name.lower()}_{j}" for j in range(cards[name])]
        nodes.append(decl)
    n_rows = 1
    for p in value_parents:
        n_rows *= cards[p]
    nodes.append(
        {
            "name": "V",
            "kind": "value",
            "parents": value_parents,
            "table": _value_rows(rng, n_rows, point),
        }
    )

    data = {"variables": variables, "nodes": nodes}
    if duplicate_alternative and decisions:
        _duplicate_alternative(rng, data, rng.choice(decisions), cards)
    return build_diagram(data)


def _duplicate_alternative(
    rng: Random, data: dict, decision: str, cards: dict[str, int]
) -> None:
    """Make two alternatives of ``decision`` exactly interchangeable by
    copying every table row conditioned on one onto the other."""
    k = cards[decision]
    a, b = 0, rng.randrange(1, k)
    for decl in data["nodes"]:
        if "table" not in decl or decision not in decl["parents"]:
            continue
        p_cards = [cards[p] for p in decl["parents"]]
        pos = decl["parents"].index(decision)
        table = decl["table"]
        for idx in range(len(table)):
            values = list(config_assignment(idx, p_cards))
            if values[pos] == b:
                values[pos] = a
                table[idx] = list(table[config_index(values, p_cards)])


def random_chain_diagram(rng: Random, *, point: bool = False) -> InfluenceDiagram:
    """A random partially observed diagram: a hidden chance state feeds the
    value node directly but is seen only through a chain of one or two signal
    nodes informing a decision. Solving these requires summing out and/or
    reversing arcs, paths the fully general generator rarely hits."""
    k = lambda: rng.randint(2, 3)
    chain_len = rng.randint(1, 2)
    cards = {"H": k(), "D": k(), **{f"S{i + 1}": k() for i in range(chain_len)}}

    variables = [{"name": "H", "outcomes": [f"h{j}" for j in range(cards["H"])]}]
    nodes: list[dict[str, Any]] = [
        {"name": "H", "kind": "chance", "parents": [],
         "table": _chance_rows(rng, 1, cards["H"], point)}
    ]
    prev = "H"
    for i in range(chain_len):
        name = f"S{i + 1}"
        variables.append(
            {"name": name, "outcomes": [f"s{i}{j}" for j in range(cards[name])]}
        )
        nodes.append(
            {"name": name, "kind": "chance", "parents": [prev],
             "table": _chance_rows(rng, cards[prev], cards[name], point)}
        )
        prev = name
    nodes.append(
        {"name": "D", "kind": "decision", "parents": [prev],
         "alternatives": [f"d{j}" for j in range(cards["D"])]}
    )
    v_parents = ["D", "H"]
    if rng.random() < 0.4:
        cards["C"] = k()
        variables.append(
            {"name": "C", "outcomes": [f"c{j}" for j in range(cards["C"])]}
        )
        nodes.append(
            {"name": "C", "kind": "chance", "parents": [],
             "table": _chance_rows(rng, 1, cards["C"], point)}
        )
        v_parents.append("C")
    n_v = 1
    for p in v_parents:
        n_v *= cards[p]
    nodes.append(
        {"name": "V", "kind": "value", "parents": v_parents,
         "table": _value_rows(rng, n_v, point)}
    )
    return build_diagram({"variables": variables, "nodes": nodes})


# ---------------------------------------------------------------------------
# Single-transformation instances (one focal operation plus minimal scaffold)
# ---------------------------------------------------------------------------

def _root_decl(rng: Random, name: str, kind: str, card: int, point: bool = False) -> tuple[dict, dict | None]:
    if kind == "decision":
        return (
            {"name": name, "kind": "decision", "parents": [],
             "alternatives": [f"{name.lower()}_{j}" for j in range(card)]},
            None,
        )
    return (
        {"name": name, "kind": "chance", "parents": [],
         "table": _chance_rows(rng, 1, card, point)},
        {"name": name, "outcomes": [f"{name.lower()}_{j}" for j in range(card)]},
    )


def chance_removal_instance(rng: Random) -> tuple[InfluenceDiagram, str]:
    """Diagram where chance node Y feeds only the value node; Y and the value
    node may share extra root parents."""
    variables, nodes = [], []
    card = lambda: rng.randint(2, 3)
    shared = rng.random() < 0.5
    extra_v = rng.random() < 0.5
    decision_used = False
    y_parents, v_parents = [], []
    if shared:
        kind = rng.choice(["chance", "decision"])
        decision_used = kind == "decision"
        decl, var = _root_decl(rng, "S", kind, card())
        nodes.append(decl)
        if var:
            variables.append(var)
        y_parents.append("S")
        if rng.random() < 0.5:
            v_parents.append("S")
    if extra_v:
        kind = "chance" if decision_used else rng.choice(["chance", "decision"])
        decl, var = _root_decl(rng, "W", kind, card())
        nodes.append(decl)
        if var:
            variables.append(var)
        v_parents.append("W")

    return _finish_chance_removal(rng, variables, nodes, y_parents, v_parents, card())


def _card_of(nodes: list[dict], variables: list[dict], name: str) -> int:
    for decl in nodes:
        if decl["name"] == name and "alternatives" in decl:
            return len(decl["alternatives"])
    for var in variables:
        if var["name"] == name:
            return len(var["outcomes"])
    raise KeyError(name)


def _finish_chance_removal(rng, variables, nodes, y_parents, v_parents, k_y):
    n_rows = 1
    for p in y_parents:
        n_rows *= _card_of(nodes, variables, p)
    variables.append({"name": "Y", "outcomes": [f"y{j}" for j in range(k_y)]})
    nodes.append(
        {"name": "Y", "kind": "chance", "parents": y_parents,
         "table": _chance_rows(rng, n_rows, k_y, point=False)}
    )
    v_parents = v_parents + ["Y"]
    n_v = 1
    for p in v_parents:
        n_v *= _card_of(nodes, variables, p)
    nodes.append(
        {"name": "V", "kind": "value", "parents": v_parents,
         "table": _value_rows(rng, n_v, point=False)}
    )
    return build_diagram({"variables": variables, "nodes": nodes}), "Y"


def decision_removal_instance(rng: Random) -> tuple[InfluenceDiagram, str]:
    """Diagram where decision D feeds only the value node and observes every
    other value parent. Value rows sometimes repeat exactly to exercise
    ties in the dominance comparison."""
    variables, nodes = [], []
    info = []
    for i in range(rng.randint(0, 2)):
        name = f"I{i + 1}"
        decl, var = _root_decl(rng, name, "chance", rng.randint(2, 3), point=False)
        nodes.append(decl)
        variables.append(var)
        info.append(name)
    k_d = rng.randint(2, 3)
    nodes.append(
        {"name": "D", "kind": "decision", "parents": list(info),
         "alternatives": [f"d{j}" for j in range(k_d)]}
    )
    v_parents = info + ["D"]
    n_v = 1
    for p in v_parents:
        n_v *= _card_of(nodes, variables, p)
    rows = _value_rows(rng, n_v, point=False)
    if rng.random() < 0.3 and k_d >= 2:
        # clone one alternative's intervals onto another
        stride = 1  # D is the last parent, so it varies fastest
        for base in range(0, n_v, k_d):
            rows[base + 1] = list(rows[base])
    nodes.append({"name": "V", "kind": "value", "parents": v_parents, "table": rows})
    return build_diagram({"variables": variables, "nodes": nodes}), "D"


def reversal_instance(rng: Random) -> tuple[InfluenceDiagram, str, str]:
    """Diagram with chance arc Y -> X plus optional side parents: one seen
    only by Y, one shared, one seen only by X. Zero lower bounds appear with
    some probability so the degenerate conditioning paths get exercised."""
    variables, nodes = [], []
    side = {}
    decision_used = False
    for name, role in [("A", "y_only"), ("B", "shared"), ("Z", "x_only")]:
        if rng.random() < 0.4:
            kind = "chance" if decision_used else rng.choice(["chance", "decision"])
            decision_used = decision_used or kind == "decision"
            decl, var = _root_decl(rng, name, kind, 2)
            nodes.append(decl)
            if var:
                variables.append(var)
            side[role] = name
    y_parents = [side[r] for r in ("y_only", "shared") if r in side]
    x_side = [side[r] for r in ("shared", "x_only") if r in side]

    k_y, k_x = rng.randint(2, 3), rng.randint(2, 3)
    n_y = 1
    for p in y_parents:
        n_y *= _card_of(nodes, variables, p)
    y_rows = _chance_rows(rng, n_y, k_y, point=False)
    variables.append({"name": "Y", "outcomes": [f"y{j}" for j in range(k_y)]})
    nodes.append({"name": "Y", "kind": "chance", "parents": y_parents, "table": y_rows})

    x_parents = ["Y"] + x_side
    n_x = k_y
    for p in x_side:
        n_x *= _card_of(nodes, variables, p)
    x_rows = _chance_rows(rng, n_x, k_x, point=False)
    roll = rng.random()
    if roll < 0.15:
        # one outcome of X impossible: point likelihood rows with a zero
        # column, so conditioning on it is indeterminate
        col = rng.randrange(k_x)
        for i in range(len(x_rows)):
            rest = simplex_point(rng, k_x - 1)
            row = rest[:col] + [0.0] + rest[col:]
            x_rows[i] = row
    elif roll < 0.4:
        # zero lower bounds (with positive uppers) in one column
        col = rng.randrange(k_x)
        for row in x_rows:
            if rng.random() < 0.7:
                row[col] = 0.0
    variables.append({"name": "X", "outcomes": [f"x{j}" for j in range(k_x)]})
    nodes.append({"name": "X", "kind": "chance", "parents": x_parents, "table": x_rows})
    nodes.append(
        {"name": "V", "kind": "value", "parents": ["X"],
         "table": _value_rows(rng, k_x, point=False)}
    )
    return build_diagram({"variables": variables, "nodes": nodes}), "X", "Y"


def marginalize_instance(rng: Random) -> tuple[InfluenceDiagram, str, str]:
    """Diagram with chance Y whose only successor is chance X, with an
    optional parent shared between them and an optional X-only parent."""
    variables, nodes = [], []
    shared = x_only = None
    decision_used = False
    if rng.random() < 0.4:
        kind = rng.choice(["chance", "decision"])
        decision_used = kind == "decision"
        decl, var = _root_decl(rng, "B", kind, 2)
        nodes.append(decl)
        if var:
            variables.append(var)
        shared = "B"
    if rng.random() < 0.4:
        kind = "chance" if decision_used else rng.choice(["chance", "decision"])
        decl, var = _root_decl(rng, "Z", kind, 2)
        nodes.append(decl)
        if var:
            variables.append(var)
        x_only = "Z"

    k_y, k_x = rng.randint(2, 3), rng.randint(2, 3)
    y_parents = [shared] if shared else []
    n_y = 2 if shared else 1
    variables.append({"name": "Y", "outcomes": [f"y{j}" for j in range(k_y)]})
    nodes.append(
        {"name": "Y", "kind": "chance", "parents": y_parents,
         "table": _chance_rows(rng, n_y, k_y, point=False)}
    )
    x_parents = ["Y"] + ([shared] if shared else []) + ([x_only] if x_only else [])
    n_x = k_y * (2 if shared else 1) * (2 if x_only else 1)
    variables.append({"name": "X", "outcomes": [f"x{j}" for j in range(k_x)]})
    nodes.append(
        {"name": "X", "kind": "chance", "parents": x_parents,
         "table": _chance_rows(rng, n_x, k_x, point=False)}
    )
    nodes.append(
        {"name": "V", "kind": "value", "parents": ["X"],
         "table": _value_rows(rng, k_x, point=False)}
    )
    return build_diagram({"variables": variables, "nodes": nodes}), "X", "Y"
