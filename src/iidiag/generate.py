"""Random diagram and single-transformation instance generators.

Used by the verification suite and the audit scripts: all randomness flows
through an explicit ``random.Random`` so every run is reproducible from its
seed. Probability rows are drawn as random points on the simplex and, unless
a point-valued diagram is requested, shrunk by a per-node factor so the rows
become genuine lower bounds with slack.

Draw-order contract: a seed names one diagram. Each generator makes the same
``Random`` calls in the same order, with the same outcome labels, whatever
the code around them looks like; ``tests/test_generate.py`` pins this with a
digest over 300 seeds of every generator call the tests and the golden
recorder make. Every document is built by one ``_Doc``, which draws a node's
rows when the node is added, so declaring nodes in a different order draws
in a different order.
"""

from __future__ import annotations

from random import Random
from typing import Callable

from .exact import simplex_point
from .model import (
    InfluenceDiagram,
    build_diagram,
    config_assignment,
    config_count,
    config_index,
)


class _Doc:
    """A diagram document built node by node, in declaration order. Chance
    and value rows are drawn from ``rng`` when their node is added, shrunk
    into lower bounds and widened into intervals unless ``point``."""

    def __init__(self, rng: Random, point: bool = False):
        self.rng = rng
        self.point = point
        self.cards: dict[str, int] = {}
        self.variables: list[dict] = []
        self.nodes: list[dict] = []

    def _n_rows(self, parents: list[str]) -> int:
        return config_count([self.cards[p] for p in parents])

    def chance(
        self, name: str, card: int, parents: list[str], prefix: str | None = None
    ) -> list[list[float]]:
        """Add chance node ``name`` with outcomes ``<prefix><j>`` (the prefix
        defaults to ``<name>_`` in lower case) and return its rows."""
        rows = []
        for _ in range(self._n_rows(parents)):
            p = simplex_point(self.rng, card)
            if not self.point:
                p = [(1.0 - self.rng.uniform(0.0, 0.5)) * x for x in p]
            rows.append(p)
        self.cards[name] = card
        prefix = f"{name.lower()}_" if prefix is None else prefix
        self.variables.append({"name": name, "outcomes": [f"{prefix}{j}" for j in range(card)]})
        self.nodes.append({"name": name, "kind": "chance", "parents": list(parents), "table": rows})
        return rows

    def decision(
        self, name: str, card: int, parents: list[str], prefix: str | None = None
    ) -> None:
        """Add decision node ``name``; alternatives are labelled as outcomes
        are by :meth:`chance`."""
        self.cards[name] = card
        prefix = f"{name.lower()}_" if prefix is None else prefix
        self.nodes.append({
            "name": name, "kind": "decision", "parents": list(parents),
            "alternatives": [f"{prefix}{j}" for j in range(card)],
        })

    def root(self, name: str, card: Callable[[], int]) -> None:
        """Add a parentless node: a chance node if the document already has
        a decision, else either kind with even odds. ``card`` is called
        after the kind is drawn."""
        has_decision = any(decl["kind"] == "decision" for decl in self.nodes)
        kind = "chance" if has_decision else self.rng.choice(["chance", "decision"])
        getattr(self, kind)(name, card(), [])

    def value(self, parents: list[str]) -> list[list[float]]:
        """Add the value node ``V`` and return its rows."""
        rows = []
        for _ in range(self._n_rows(parents)):
            lo = self.rng.uniform(-10.0, 10.0)
            width = 0.0 if self.point else self.rng.uniform(0.0, 5.0)
            rows.append([lo, lo + width])
        self.nodes.append({"name": "V", "kind": "value", "parents": list(parents), "table": rows})
        return rows

    def build(self) -> InfluenceDiagram:
        return build_diagram({"variables": self.variables, "nodes": self.nodes})


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
    n_rest = rng.randint(2, max_nodes) - 1
    if n_decisions is None:
        n_decisions = rng.choice([0, 0, 1, 1, 2])
    n_dec = min(n_decisions, n_rest)
    kinds = ["decision"] * n_dec + ["chance"] * (n_rest - n_dec)
    rng.shuffle(kinds)
    counts = {"chance": 0, "decision": 0}
    names = []
    for kind in kinds:
        counts[kind] += 1
        names.append((f"{kind[0].upper()}{counts[kind]}", kind))
    decisions = [n for n, k in names if k == "decision"]

    parents: dict[str, list[str]] = {}
    for i, (name, _) in enumerate(names):
        pool = [n for n, _ in names[:i]]
        rng.shuffle(pool)
        parents[name] = sorted(pool[: rng.randint(0, min(2, len(pool)))])
    for earlier, later in zip(decisions, decisions[1:]):
        if earlier not in parents[later]:
            parents[later].append(earlier)

    value_parents = [n for n, _ in names if rng.random() < 0.6]
    if not value_parents:
        value_parents = [names[rng.randrange(len(names))][0]]

    cards = {name: rng.randint(2, max_outcomes) for name, _ in names}
    doc = _Doc(rng, point)
    for name, kind in names:
        getattr(doc, kind)(name, cards[name], parents[name])
    doc.value(value_parents)
    if duplicate_alternative and decisions:
        _duplicate_alternative(doc, rng.choice(decisions))
    return doc.build()


def _duplicate_alternative(doc: _Doc, decision: str) -> None:
    """Make two alternatives of ``decision`` exactly interchangeable by
    copying every table row conditioned on one onto the other."""
    a, b = 0, doc.rng.randrange(1, doc.cards[decision])
    for decl in doc.nodes:
        if "table" not in decl or decision not in decl["parents"]:
            continue
        p_cards = [doc.cards[p] for p in decl["parents"]]
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
    k_h, k_d = k(), k()
    k_signals = [k() for _ in range(chain_len)]
    doc = _Doc(rng, point)
    doc.chance("H", k_h, [], "h")
    prev = "H"
    for i, card in enumerate(k_signals):
        doc.chance(f"S{i + 1}", card, [prev], f"s{i}")
        prev = f"S{i + 1}"
    doc.decision("D", k_d, [prev], "d")
    v_parents = ["D", "H"]
    if rng.random() < 0.4:
        doc.chance("C", k(), [], "c")
        v_parents.append("C")
    doc.value(v_parents)
    return doc.build()


# ---------------------------------------------------------------------------
# Single-transformation instances (one focal operation plus minimal scaffold)
# ---------------------------------------------------------------------------

def chance_removal_instance(rng: Random) -> tuple[InfluenceDiagram, str]:
    """Diagram where chance node Y feeds only the value node; Y and the value
    node may share extra root parents."""
    doc = _Doc(rng)
    card = lambda: rng.randint(2, 3)
    shared = rng.random() < 0.5
    extra_v = rng.random() < 0.5
    y_parents, v_parents = [], []
    if shared:
        doc.root("S", card)
        y_parents.append("S")
        if rng.random() < 0.5:
            v_parents.append("S")
    if extra_v:
        doc.root("W", card)
        v_parents.append("W")
    doc.chance("Y", card(), y_parents, "y")
    doc.value(v_parents + ["Y"])
    return doc.build(), "Y"


def decision_removal_instance(rng: Random) -> tuple[InfluenceDiagram, str]:
    """Diagram where decision D feeds only the value node and observes every
    other value parent. Value rows sometimes repeat exactly to exercise
    ties in the dominance comparison."""
    doc = _Doc(rng)
    info = [f"I{i + 1}" for i in range(rng.randint(0, 2))]
    for name in info:
        doc.chance(name, rng.randint(2, 3), [])
    k_d = rng.randint(2, 3)
    doc.decision("D", k_d, info, "d")
    rows = doc.value(info + ["D"])
    if rng.random() < 0.3:
        # clone alternative 0's intervals onto alternative 1; D is the last
        # parent, so it varies fastest
        for base in range(0, len(rows), k_d):
            rows[base + 1] = list(rows[base])
    return doc.build(), "D"


def _chance_arc(rng: Random, sides: list[tuple[str, str]]) -> tuple[_Doc, list[list[float]]]:
    """Chance arc Y -> X, where each binary root ``(name, role)`` in
    ``sides`` is added with probability 0.4 as a parent of Y ("y_only"), of
    both ("shared") or of X ("x_only"). Returns the document, still without
    its value node, and X's rows."""
    doc = _Doc(rng)
    side = {}
    for name, role in sides:
        if rng.random() < 0.4:
            doc.root(name, lambda: 2)
            side[role] = name
    k_y, k_x = rng.randint(2, 3), rng.randint(2, 3)
    doc.chance("Y", k_y, [side[r] for r in ("y_only", "shared") if r in side], "y")
    x_parents = ["Y"] + [side[r] for r in ("shared", "x_only") if r in side]
    return doc, doc.chance("X", k_x, x_parents, "x")


def reversal_instance(rng: Random) -> tuple[InfluenceDiagram, str, str]:
    """Diagram with chance arc Y -> X plus optional side parents: one seen
    only by Y, one shared, one seen only by X. Zero lower bounds appear with
    some probability so the degenerate conditioning paths get exercised."""
    doc, x_rows = _chance_arc(rng, [("A", "y_only"), ("B", "shared"), ("Z", "x_only")])
    k_x = doc.cards["X"]
    roll = rng.random()
    if roll < 0.15:
        # one outcome of X impossible: point likelihood rows with a zero
        # column, so conditioning on it is indeterminate
        col = rng.randrange(k_x)
        for i in range(len(x_rows)):
            rest = simplex_point(rng, k_x - 1)
            x_rows[i] = rest[:col] + [0.0] + rest[col:]
    elif roll < 0.4:
        # zero lower bounds (with positive uppers) in one column
        col = rng.randrange(k_x)
        for row in x_rows:
            if rng.random() < 0.7:
                row[col] = 0.0
    doc.value(["X"])
    return doc.build(), "X", "Y"


def marginalize_instance(rng: Random) -> tuple[InfluenceDiagram, str, str]:
    """Diagram with chance Y whose only successor is chance X, with an
    optional parent shared between them and an optional X-only parent."""
    doc, _ = _chance_arc(rng, [("B", "shared"), ("Z", "x_only")])
    doc.value(["X"])
    return doc.build(), "X", "Y"
