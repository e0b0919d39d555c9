"""Byte-identical CLI output on a pinned set of diagrams.

``tests/golden`` holds the stdout of ``iidiag solve FILE --json`` and
``iidiag solve FILE --trace`` for the shipped fixtures and for seeded
generated diagrams (chains with arc reversals, decision, fold and
marginalization instances, multi-decision random diagrams), recorded by
``scripts/record_golden.py`` before the stride-indexed transform kernel
replaced the per-row assignment dictionaries. Any change to the transforms'
arithmetic, tie-breaking or rendering shows up here as a diff.

The reference layer is pinned the same way, recorded before the point solver
was compiled into flat offset tables: ``check`` on every golden diagram,
``exact`` on the fixtures and on widened generated diagrams, and the
exhaustive wildcatter ``sweep --subsets --exact`` (``--json`` and text).
``tests/golden/commands.json`` lists each of these commands with the file its
stdout is compared with.

The generators are pinned too: regenerating the golden diagrams with the
recorder's own calls, and a few diagrams with a duplicated alternative
(``tests/golden/duplicate_<seed>.diagram.json``), must give the stored text.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from iidiag import cli
from iidiag.diagram_io import fixture_path, serialize_diagram

GOLDEN = Path(__file__).parent / "golden"
RECORDER = Path(__file__).resolve().parent.parent / "scripts" / "record_golden.py"
FIXTURES = ("minimal", "survey", "wildcatter")
GENERATED = tuple(sorted(p.name[: -len(".iid.json")] for p in GOLDEN.glob("*.iid.json")))
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


def _input(name: str) -> Path:
    return fixture_path(name) if name in FIXTURES else GOLDEN / f"{name}.iid.json"


def test_golden_set_is_complete():
    assert len(GENERATED) >= 20
    for name in FIXTURES + GENERATED:
        assert (GOLDEN / f"{name}.json.out").is_file(), name
        assert (GOLDEN / f"{name}.trace.out").is_file(), name
        assert (GOLDEN / f"{name}.check.out").is_file(), name
        assert (GOLDEN / f"{name}.check.json.out").is_file(), name
    exact = {case["diagram"] for case in COMMANDS if case["command"] == "exact"}
    assert {"minimal", "survey"} <= exact
    assert len([name for name in exact if name.startswith("widened_")]) >= 4
    assert any(case["command"] == "sweep" for case in COMMANDS)
    for case in COMMANDS:
        assert (GOLDEN / case["out"]).is_file(), case["out"]


@pytest.mark.parametrize("flag,suffix", [("--json", "json"), ("--trace", "trace")])
@pytest.mark.parametrize("name", FIXTURES + GENERATED)
def test_solve_stdout_is_byte_identical(name, flag, suffix, capsys):
    assert cli.main(["solve", str(_input(name)), flag]) == 0
    expected = (GOLDEN / f"{name}.{suffix}.out").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("case", COMMANDS, ids=[case["out"] for case in COMMANDS])
def test_reference_layer_stdout_is_byte_identical(case, capsys):
    argv = [case["command"], str(_input(case["diagram"])), *case["args"]]
    assert cli.main(argv) == 0
    expected = (GOLDEN / case["out"]).read_text()
    assert capsys.readouterr().out == expected


def _recorder():
    spec = importlib.util.spec_from_file_location("record_golden", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generators_reproduce_the_golden_diagrams():
    recorder = _recorder()
    generated = recorder.generated()
    assert sorted(generated) == list(GENERATED)
    for name, diagram in generated.items():
        assert serialize_diagram(diagram) == (GOLDEN / f"{name}.iid.json").read_text(), name
    duplicated = recorder.duplicated()
    assert len(duplicated) == len(recorder.DUPLICATE_SEEDS)
    for stem, diagram in duplicated.items():
        assert serialize_diagram(diagram) == (GOLDEN / f"{stem}.diagram.json").read_text(), stem
