"""Record the golden CLI outputs pinned by tests/test_golden.py.

Writes each generated diagram to tests/golden/<name>.iid.json, and for every
golden diagram (the three shipped fixtures plus the generated ones) the
stdout of ``iidiag solve FILE --json`` and ``iidiag solve FILE --trace`` to
tests/golden/<name>.json.out and tests/golden/<name>.trace.out.

The outputs are a regression reference: record them once, at a commit whose
outputs are trusted, and never re-record to make a failing golden test pass.

Usage: python scripts/record_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from random import Random

from iidiag import cli
from iidiag.diagram_io import fixture_path, save_diagram
from iidiag.generate import (
    chance_removal_instance,
    decision_removal_instance,
    marginalize_instance,
    random_chain_diagram,
    random_diagram,
    reversal_instance,
)
from iidiag.model import InfluenceDiagram, build_diagram

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
FIXTURES = ("minimal", "survey", "wildcatter")


# A chain whose signal S has an impossible outcome s2, so reversing H -> S
# conditions on an event of zero upper probability and stores a flagged bound.
INDETERMINATE = {
    "variables": [
        {"name": "H", "outcomes": ["h0", "h1", "h2"]},
        {"name": "S", "outcomes": ["s0", "s1", "s2"]},
    ],
    "nodes": [
        {"name": "H", "kind": "chance", "parents": [], "table": [[0.5, 0.0, 0.5]]},
        {"name": "S", "kind": "chance", "parents": ["H"],
         "table": [[0.5, 0.5, 0.0], [0.3, 0.2, 0.0], [0.5, 0.0, 0.0]]},
        {"name": "D", "kind": "decision", "parents": ["S"], "alternatives": ["a", "b"]},
        {"name": "V", "kind": "value", "parents": ["D", "H"],
         "table": [[1, 2], [0, 3], [4, 4], [2, 2], [1, 5], [3, 3]]},
    ],
}


def generated() -> dict[str, InfluenceDiagram]:
    """Name -> diagram for the generated members of the golden set."""
    out = {"indeterminate": build_diagram(INDETERMINATE)}
    for seed in range(6):
        out[f"chain_{seed}"] = random_chain_diagram(Random(seed))
    for seed in range(2):
        out[f"chain_point_{seed}"] = random_chain_diagram(Random(seed), point=True)
    for seed in range(4):
        out[f"reversal_{seed}"] = reversal_instance(Random(seed))[0]
    for seed in range(3):
        out[f"decision_{seed}"] = decision_removal_instance(Random(seed))[0]
    for seed in range(2):
        out[f"marginalize_{seed}"] = marginalize_instance(Random(seed))[0]
        out[f"fold_{seed}"] = chance_removal_instance(Random(seed))[0]
    for seed in range(6):
        out[f"random_{seed}"] = random_diagram(Random(seed), max_nodes=7, n_decisions=2)
    for seed in range(2):
        out[f"wide_{seed}"] = random_diagram(Random(seed), max_nodes=8, n_decisions=1)
    return out


def solve_stdout(path: Path, flag: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["solve", str(path), flag])
    if code != 0:
        raise SystemExit(f"solve {path} {flag} exited {code}")
    return buf.getvalue()


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    paths = {name: fixture_path(name) for name in FIXTURES}
    for name, diagram in generated().items():
        paths[name] = GOLDEN / f"{name}.iid.json"
        save_diagram(diagram, paths[name])
    for name, path in paths.items():
        (GOLDEN / f"{name}.json.out").write_text(solve_stdout(path, "--json"))
        (GOLDEN / f"{name}.trace.out").write_text(solve_stdout(path, "--trace"))
    print(f"recorded {len(paths)} diagrams in {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
