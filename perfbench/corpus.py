"""Seeded diagram generators owned by the benchmark.

Everything here produces plain diagram documents (the on-disk JSON shape)
from explicit ``random.Random`` streams and imports nothing from the
package under test, so a refactor of the package cannot shift the
benchmark's inputs. The same seeds give a byte-identical corpus.

Every generator takes two streams: ``shape`` decides the structure (nodes,
arcs, cardinalities, parent order) and ``values`` draws every probability
and payoff. The workloads draw shapes from a fixed stream and values from
``--seed``, so the cost of a run, which the structure sets, does not depend
on the seed, while every seed solves different numbers.

Families:

* ``chain``: hidden state H observed through a chain S1 -> ... -> Sn of
  signals before one decision; V(D, H). Marginalize-heavy.
* ``wide``: one value node over m independent chance parents and a decision
  that observes one of them. Fold-heavy, tables up to 3^8 rows.
* ``stages``: a state X and nd signal/decision stages with explicit
  no-forgetting arcs. Reversal- and decision-heavy.
* ``small`` and ``observed``: small point-valued diagrams (random DAGs and
  partially observed chains) for the sweep and verify workloads.
* ``ladder``: point chains of growing joint size for the verify workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

DATA = Path(__file__).resolve().parent / "data"
FIXTURES = ("minimal", "survey", "wildcatter")


def canonical(doc: dict) -> str:
    """Canonical text of a document: fixed key order, two-space indent,
    trailing newline (the same layout the package writes)."""
    return json.dumps(doc, indent=2) + "\n"


def fixture(name: str) -> dict:
    return json.loads((DATA / f"{name}.iid.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------

def _distribution(rng: Random, k: int) -> list[float]:
    draws = [rng.expovariate(1.0) for _ in range(k)]
    total = sum(draws)
    return [d / total for d in draws]


def _chance_rows(rng: Random, n_rows: int, k: int, point: bool) -> list[list[float]]:
    """Point rows are distributions; interval rows are distributions shrunk
    by a random factor in (0.5, 1], leaving free mass."""
    rows = []
    for _ in range(n_rows):
        row = _distribution(rng, k)
        if not point:
            keep = 1.0 - rng.uniform(0.0, 0.5)
            row = [keep * p for p in row]
        rows.append(row)
    return rows


def _value_rows(rng: Random, n_rows: int, point: bool) -> list[list[float]]:
    rows = []
    for _ in range(n_rows):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo if point else lo + rng.uniform(0.0, 5.0)
        rows.append([lo, hi])
    return rows


class _Doc:
    """Accumulates variables and node declarations in declaration order."""

    def __init__(self, values: Random, point: bool):
        self.values = values
        self.point = point
        self.cards: dict[str, int] = {}
        self.variables: list[dict] = []
        self.nodes: list[dict] = []

    def _rows(self, parents: list[str]) -> int:
        n = 1
        for p in parents:
            n *= self.cards[p]
        return n

    def chance(self, name: str, card: int, parents: list[str]) -> None:
        self.cards[name] = card
        self.variables.append(
            {"name": name, "outcomes": [f"{name.lower()}{j}" for j in range(card)]}
        )
        self.nodes.append({
            "name": name, "kind": "chance", "parents": list(parents),
            "table": _chance_rows(self.values, self._rows(parents), card, self.point),
        })

    def decision(self, name: str, card: int, parents: list[str]) -> None:
        self.cards[name] = card
        self.nodes.append({
            "name": name, "kind": "decision", "parents": list(parents),
            "alternatives": [f"{name.lower()}{j}" for j in range(card)],
        })

    def value(self, parents: list[str]) -> dict:
        self.nodes.append({
            "name": "V", "kind": "value", "parents": list(parents),
            "table": _value_rows(self.values, self._rows(parents), self.point),
        })
        return {"variables": self.variables, "nodes": self.nodes}


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _shuffled(rng: Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# The reduce families draw cardinalities as a shuffled fixed multiset per
# size and randomize only arrangements, which arcs exist and parent order,
# so each size has many distinct structures of about the same cost.

def chain(shape: Random, values: Random, n: int) -> dict:
    """H -> S1 -> ... -> Sn -> D with V(D, H); 3 outcomes on average."""
    doc = _Doc(values, point=False)
    doc.chance("H", 3, [])
    third = n // 3
    cards = _shuffled(shape, [2] * third + [4] * third + [3] * (n - 2 * third))
    prev = "H"
    for i, card in enumerate(cards, start=1):
        doc.chance(f"S{i}", card, [prev])
        prev = f"S{i}"
    doc.decision("D", 3, [prev])
    return doc.value(["D", "H"])


WIDE_CARDS = {4: [2, 3, 3, 4], 5: [2, 3, 3, 3, 4], 6: [2, 2, 3, 3, 3, 3], 7: [3] * 7}


def wide(shape: Random, values: Random, m: int) -> dict:
    """V over a decision and m independent chance parents, in random order;
    the decision observes one of them and a barren chance node B hangs off
    another. m = 7 gives the largest table, 3^8 value rows."""
    doc = _Doc(values, point=False)
    names = [f"C{i}" for i in range(1, m + 1)]
    for name, card in zip(names, _shuffled(shape, WIDE_CARDS[m])):
        doc.chance(name, card, [])
    doc.chance("B", 2, [shape.choice(names)])
    doc.decision("D", 3, [shape.choice(names)])
    return doc.value(_shuffled(shape, ["D"] + names))


STAGE_CARDS = {3: ([2, 3, 3], [2, 2, 3]), 4: ([2, 2, 3, 3], [2] * 4), 5: ([2] * 5, [2] * 5)}


def stages(shape: Random, values: Random, nd: int) -> dict:
    """State X; stage i has signal Zi and decision Di, which observes every
    earlier signal and decision (no-forgetting arcs written out, in random
    order). (nd - 1) // 2 of the signals also depend on the previous
    decision."""
    doc = _Doc(values, point=False)
    doc.chance("X", 3, [])
    z_cards, d_cards = (_shuffled(shape, c) for c in STAGE_CARDS[nd])
    tested = set(shape.sample(range(2, nd + 1), (nd - 1) // 2))
    known: list[str] = []
    decisions: list[str] = []
    for i in range(1, nd + 1):
        doc.chance(f"Z{i}", z_cards[i - 1], ["X", f"D{i - 1}"] if i in tested else ["X"])
        known.append(f"Z{i}")
        doc.decision(f"D{i}", d_cards[i - 1], _shuffled(shape, known))
        known.append(f"D{i}")
        decisions.append(f"D{i}")
    return doc.value(_shuffled(shape, decisions + ["X"]))


def observed(shape: Random, values: Random, length: int) -> dict:
    """Partially observed chain: H feeds V directly but is seen only through
    ``length`` signals before the decision; sometimes one extra root C."""
    doc = _Doc(values, point=True)
    doc.chance("H", shape.choice((2, 3)), [])
    prev = "H"
    for i in range(1, length + 1):
        doc.chance(f"S{i}", shape.choice((2, 3)), [prev])
        prev = f"S{i}"
    doc.decision("D", shape.choice((2, 3)), [prev])
    v_parents = ["D", "H"]
    if shape.random() < 0.4:
        doc.chance("C", shape.choice((2, 3)), [])
        v_parents.append("C")
    return doc.value(v_parents)


def small(shape: Random, values: Random, n_chance: int, n_decision: int) -> dict:
    """Random DAG of the given chance and decision nodes (in random order,
    alternating 3 and 2 outcomes) plus V; each node has up to two earlier
    parents, and decisions are chained by direct arcs so they are totally
    ordered."""
    kinds = _shuffled(shape, ["chance"] * n_chance + ["decision"] * n_decision)
    cards = _shuffled(shape, [3 - i % 2 for i in range(len(kinds))])
    doc = _Doc(values, point=True)
    names: list[str] = []
    last_decision = None
    for i, (kind, card) in enumerate(zip(kinds, cards)):
        parents = sorted(shape.sample(names, shape.randint(0, min(2, i))), key=names.index)
        if kind == "decision":
            name = f"D{i}"
            if last_decision is not None and last_decision not in parents:
                parents.append(last_decision)
            doc.decision(name, card, parents)
            last_decision = name
        else:
            name = f"C{i}"
            doc.chance(name, card, parents)
        names.append(name)
    v_parents = [nm for nm in names if shape.random() < 0.6] or [shape.choice(names)]
    return doc.value(v_parents)


def ladder(values: Random, rung: int) -> dict:
    """Point chain H -> S1 .. S_rung -> D, V(D, H): 3 outcomes everywhere, so
    a full joint enumeration visits 3^(rung + 2) leaves."""
    doc = _Doc(values, point=True)
    doc.chance("H", 3, [])
    prev = "H"
    for i in range(1, rung + 1):
        doc.chance(f"S{i}", 3, [prev])
        prev = f"S{i}"
    doc.decision("D", 3, [prev])
    return doc.value(["D", "H"])


# ---------------------------------------------------------------------------
# Document helpers
# ---------------------------------------------------------------------------

def structure(doc: dict) -> tuple:
    """Everything about a document except its numbers."""
    cards = {v["name"]: len(v["outcomes"]) for v in doc["variables"]}
    return tuple(
        (n["name"], n["kind"], tuple(n["parents"]),
         len(n["alternatives"]) if "alternatives" in n else cards.get(n["name"]))
        for n in doc["nodes"]
    )


def chance_names(doc: dict) -> list[str]:
    return [n["name"] for n in doc["nodes"] if n["kind"] == "chance"]


def widen(doc: dict, names, range_: float) -> dict:
    """Copy of a point document with every row of ``names`` shrunk by the
    factor (1 - range_), leaving exactly ``range_`` free mass per row."""
    out = json.loads(json.dumps(doc))
    for node in out["nodes"]:
        if node["name"] in names:
            node["table"] = [[(1.0 - range_) * p for p in row] for row in node["table"]]
    return out
