"""Byte-identical CLI output on a pinned set of diagrams.

``tests/golden`` holds the stdout of ``iidiag solve FILE --json`` and
``iidiag solve FILE --trace`` for the shipped fixtures and for seeded
generated diagrams (chains with arc reversals, decision, fold and
marginalization instances, multi-decision random diagrams), recorded by
``scripts/record_golden.py`` before the stride-indexed transform kernel
replaced the per-row assignment dictionaries. Any change to the transforms'
arithmetic, tie-breaking or rendering shows up here as a diff.

The reference layer is pinned the same way, recorded again when the point
solver began to evaluate by variable elimination: ``check`` on every golden
diagram, ``exact`` on the fixtures and on widened generated diagrams, and
the exhaustive wildcatter ``sweep --subsets --exact`` (``--json`` and
text).
``tests/golden/commands.json`` lists each of these commands with the file its
stdout is compared with.

``scripts/wildcatter_tables.py`` (the paper's wildcatter study as three
tables) is pinned by ``tests/golden/wildcatter_tables.out``, its stdout with
no arguments; record it with ``python scripts/wildcatter_tables.py >
tests/golden/wildcatter_tables.out``.

The generators are pinned too: regenerating the golden diagrams with the
recorder's own calls, and a few diagrams with a duplicated alternative
(``tests/golden/duplicate_<seed>.diagram.json``), must give the stored text.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from math import isfinite
from pathlib import Path

import pytest

import iidiag
from conftest import golden_recorder, wildcatter_tables
from iidiag import cli
from iidiag.diagram_io import fixture_path, serialize_diagram
from iidiag.model import running_sum

GOLDEN = Path(__file__).parent / "golden"
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


SOLVE_FLAGS = (("--json", "json"), ("--trace", "trace"))


def _check_solve(name, flag, suffix, capsys):
    assert cli.main(["solve", str(_input(name)), flag]) == 0
    expected = (GOLDEN / f"{name}.{suffix}.out").read_text()
    assert capsys.readouterr().out == expected, (name, flag)


def _check_reference(case, capsys):
    argv = [case["command"], str(_input(case["diagram"])), *case["args"]]
    assert cli.main(argv) == 0
    expected = (GOLDEN / case["out"]).read_text()
    assert capsys.readouterr().out == expected, case["out"]


@pytest.mark.parametrize("flag,suffix", SOLVE_FLAGS)
@pytest.mark.parametrize("name", FIXTURES + GENERATED)
def test_solve_stdout_is_byte_identical(name, flag, suffix, capsys):
    _check_solve(name, flag, suffix, capsys)


@pytest.mark.parametrize("case", COMMANDS, ids=[case["out"] for case in COMMANDS])
def test_reference_layer_stdout_is_byte_identical(case, capsys):
    _check_reference(case, capsys)


def test_wildcatter_tables_stdout_is_byte_identical(capsys):
    assert wildcatter_tables().main([]) == 0
    expected = (GOLDEN / "wildcatter_tables.out").read_text()
    assert capsys.readouterr().out == expected


def test_generators_reproduce_the_golden_diagrams():
    _check_generators()


def _check_generators():
    recorder = golden_recorder()
    generated = recorder.generated()
    assert sorted(generated) == list(GENERATED)
    for name, diagram in generated.items():
        assert serialize_diagram(diagram) == (GOLDEN / f"{name}.iid.json").read_text(), name
    duplicated = recorder.duplicated()
    assert len(duplicated) == len(recorder.DUPLICATE_SEEDS)
    for stem, diagram in duplicated.items():
        assert serialize_diagram(diagram) == (GOLDEN / f"{stem}.diagram.json").read_text(), stem


def compensated_sum(iterable, /, start=0):
    """``sum`` as CPython 3.12 and later compute it: ints add exactly until
    the total is a float, later floats add with Neumaier's compensation."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is not float:
            total = total + x
        elif type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total += float(x)
    if c and isfinite(c):
        total += c
    return total


def test_golden_set_with_compensated_sum(monkeypatch, capsys):
    """Every golden output comes out the same when the built-in ``sum`` of
    every ``iidiag`` module is the 3.12 one: the package adds floats left to
    right itself, so no output depends on the interpreter's ``sum``."""
    assert compensated_sum([0.1] * 10) == 1.0 != running_sum([0.1] * 10)
    assert compensated_sum([1, 2]) == 3 and compensated_sum([], 0.5) == 0.5
    names = [m.name for m in pkgutil.walk_packages(iidiag.__path__, "iidiag.")]
    assert "iidiag.transforms" in names
    for name in names:
        monkeypatch.setattr(importlib.import_module(name), "sum", compensated_sum, raising=False)
    for name in FIXTURES + GENERATED:
        for flag, suffix in SOLVE_FLAGS:
            _check_solve(name, flag, suffix, capsys)
    for case in COMMANDS:
        _check_reference(case, capsys)
    _check_generators()
