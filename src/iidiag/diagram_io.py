"""On-disk diagram format: canonical JSON, round-trip stable.

A diagram file is a UTF-8 JSON document::

    {
      "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
      "nodes": [
        {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
        {"name": "D", "kind": "decision", "parents": [], "alternatives": ["d1", "d2"]},
        {"name": "V", "kind": "value", "parents": ["D", "C"],
         "table": [[10.0, 10.0], [0.0, 0.0], [4.0, 4.0], [4.0, 4.0]]}
      ]
    }

Chance tables are rows of lower bounds, value tables rows of [low, high]
pairs, both ordered by the mixed-radix parent index with the last declared
parent varying fastest. Decision nodes list their information predecessors
as parents and carry their alternatives inline. The canonical form fixes key
order, renders numbers shortest-round-trip, indents by two spaces, and ends
with a newline, so serialize(parse(text)) is byte-identical on canonical
files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DiagramSyntaxError
from .model import InfluenceDiagram, NodeKind, build_diagram


def _reject_constant(name: str):
    raise DiagramSyntaxError(f"non-finite number {name!r} is not allowed")


def parse_diagram(text: str) -> InfluenceDiagram:
    """Parse and fully validate a diagram document."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DiagramSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:
        # the one other ValueError json.loads raises: an integer literal
        # longer than the interpreter's int-string conversion limit
        raise DiagramSyntaxError("integer literal has too many digits") from None
    except RecursionError:
        raise DiagramSyntaxError("JSON nested too deeply") from None
    return build_diagram(data)


def diagram_to_data(diagram: InfluenceDiagram) -> dict:
    """Plain-data form of a diagram in canonical key order."""
    variables = [
        {"name": name, "outcomes": list(diagram.node(name).variable.outcomes)}
        for name in diagram.names(NodeKind.CHANCE)
    ]
    nodes = []
    for name, node in diagram.nodes.items():
        decl: dict = {"name": name, "kind": node.kind.value, "parents": list(node.parents)}
        if node.kind is NodeKind.CHANCE:
            decl["table"] = [[float(b) for b in row] for row in node.chance_table.rows]
        elif node.kind is NodeKind.DECISION:
            decl["alternatives"] = list(node.variable.outcomes)
        else:
            decl["table"] = [[float(lo), float(hi)] for lo, hi in node.value_table.rows]
        nodes.append(decl)
    return {"variables": variables, "nodes": nodes}


def serialize_diagram(diagram: InfluenceDiagram) -> str:
    """Canonical text form; parse(serialize(d)) rebuilds the same diagram."""
    return json.dumps(diagram_to_data(diagram), indent=2) + "\n"


def load_diagram(path: str | Path) -> InfluenceDiagram:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DiagramSyntaxError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from None
    return parse_diagram(text)


def save_diagram(diagram: InfluenceDiagram, path: str | Path) -> None:
    Path(path).write_text(serialize_diagram(diagram), encoding="utf-8")


def fixture_path(name: str) -> Path:
    """Path of a fixture shipped with the package, e.g. ``wildcatter``."""
    if not name.endswith(".iid.json"):
        name = f"{name}.iid.json"
    return Path(__file__).parent / "fixtures" / name
