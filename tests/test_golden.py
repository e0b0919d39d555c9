"""Byte-identical CLI output on a pinned set of diagrams.

``tests/golden`` holds the stdout of ``iidiag solve FILE --json`` and
``iidiag solve FILE --trace`` for the shipped fixtures and for seeded
generated diagrams (chains with arc reversals, decision, fold and
marginalization instances, multi-decision random diagrams), recorded by
``scripts/record_golden.py`` before the stride-indexed transform kernel
replaced the per-row assignment dictionaries. Any change to the transforms'
arithmetic, tie-breaking or rendering shows up here as a diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from iidiag import cli
from iidiag.diagram_io import fixture_path

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ("minimal", "survey", "wildcatter")
GENERATED = tuple(sorted(p.name[: -len(".iid.json")] for p in GOLDEN.glob("*.iid.json")))


def _input(name: str) -> Path:
    return fixture_path(name) if name in FIXTURES else GOLDEN / f"{name}.iid.json"


def test_golden_set_is_complete():
    assert len(GENERATED) >= 20
    for name in FIXTURES + GENERATED:
        assert (GOLDEN / f"{name}.json.out").is_file(), name
        assert (GOLDEN / f"{name}.trace.out").is_file(), name


@pytest.mark.parametrize("flag,suffix", [("--json", "json"), ("--trace", "trace")])
@pytest.mark.parametrize("name", FIXTURES + GENERATED)
def test_solve_stdout_is_byte_identical(name, flag, suffix, capsys):
    assert cli.main(["solve", str(_input(name)), flag]) == 0
    expected = (GOLDEN / f"{name}.{suffix}.out").read_text()
    assert capsys.readouterr().out == expected
