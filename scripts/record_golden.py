"""Record the golden CLI outputs pinned by tests/test_golden.py.

Writes each generated diagram to tests/golden/<name>.iid.json, and for every
golden diagram (the three shipped fixtures plus the generated ones) the
stdout of ``iidiag solve FILE --json`` and ``iidiag solve FILE --trace`` to
tests/golden/<name>.json.out and tests/golden/<name>.trace.out.

The reference layer is pinned the same way: ``iidiag check`` (text and
``--json``) on every golden diagram, ``iidiag exact`` (text and ``--json``)
on the fixtures and on the widened generated diagrams, and one exhaustive
``iidiag sweep --subsets --exact --json`` on the wildcatter fixture. These
commands are listed in tests/golden/commands.json, one entry per output
file, which the test replays.

The outputs are a regression reference: record them once, at a commit whose
outputs are trusted, and never re-record to make a failing golden test pass.

Usage: python scripts/record_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
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
from iidiag.model import InfluenceDiagram, NodeKind, build_diagram
from iidiag.sensitivity import inject_range

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
    out.update(widened())
    return out


def widened() -> dict[str, InfluenceDiagram]:
    """Point diagrams with one to three chance nodes widened, as in
    acceptance criterion 5; the widened names are recorded in each
    diagram's ``exact --nodes`` command."""
    out = {}
    seed = 0
    while len(out) < 5:
        rng = Random(seed)
        seed += 1
        base = (
            random_chain_diagram(rng, point=True)
            if len(out) % 2 == 0
            else random_diagram(rng, max_nodes=6, n_decisions=2, point=True)
        )
        chance = list(base.names(NodeKind.CHANCE))
        if len(chance) < 2:
            continue
        rng.shuffle(chance)
        subset = tuple(sorted(chance[: rng.randint(2, min(3, len(chance)))]))
        out[f"widened_{len(out)}"] = inject_range(base, subset, rng.choice([0.05, 0.1, 0.25]))
    return out


def varied_nodes(diagram: InfluenceDiagram) -> str:
    """The chance nodes with a non-point row, comma-separated."""
    return ",".join(
        name
        for name in diagram.names(NodeKind.CHANCE)
        if any(sum(row) < 1.0 - 1e-9 for row in diagram.node(name).chance_table.rows)
    )


def commands(names: list[str], generated: dict[str, InfluenceDiagram]) -> list[dict]:
    """One entry per reference-layer output file: the subcommand, the golden
    diagram it reads and the arguments after the file name."""
    out = []

    def add(suffix, diagram, command, *args):
        out.append({"out": f"{diagram}.{suffix}.out", "diagram": diagram,
                    "command": command, "args": list(args)})

    for name in names:
        add("check", name, "check", "--samples", "200", "--seed", "7")
        add("check.json", name, "check", "--samples", "200", "--seed", "7", "--json")
    exact = {
        "minimal": ("--nodes", "C"),
        "survey": ("--nodes", "STATE,SIGNAL", "--include-value-box"),
    }
    for name, diagram in generated.items():
        if name.startswith("widened_"):
            exact[name] = ("--nodes", varied_nodes(diagram))
    for name, args in exact.items():
        add("exact", name, "exact", *args)
        add("exact.json", name, "exact", *args, "--json")
    add("sweep.json", "wildcatter", "sweep", "--nodes", "OIL,SEISMIC,COST",
        "--ranges", "0,0.01,0.05,0.10", "--subsets", "--exact", "--json")
    return out


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    paths = {name: fixture_path(name) for name in FIXTURES}
    diagrams = generated()
    for name, diagram in diagrams.items():
        paths[name] = GOLDEN / f"{name}.iid.json"
        save_diagram(diagram, paths[name])
    for name, path in paths.items():
        (GOLDEN / f"{name}.json.out").write_text(stdout_of(["solve", str(path), "--json"]))
        (GOLDEN / f"{name}.trace.out").write_text(stdout_of(["solve", str(path), "--trace"]))
    cases = commands(list(paths), diagrams)
    for case in cases:
        argv = [case["command"], str(paths[case["diagram"]]), *case["args"]]
        (GOLDEN / case["out"]).write_text(stdout_of(argv))
    listing = ",\n".join(f"  {json.dumps(case)}" for case in cases)
    (GOLDEN / "commands.json").write_text(f"[\n{listing}\n]\n")
    print(f"recorded {len(paths)} diagrams and {len(cases)} reference-layer outputs in {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
