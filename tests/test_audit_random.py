"""Argument checks of ``scripts/audit_random.py``."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "audit_random.py"
_SPEC = importlib.util.spec_from_file_location("audit_random", _PATH)
audit_random = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(audit_random)


@pytest.mark.parametrize(
    "argv, message",
    [
        # no diagram audited must not read as "violations: 0"
        (["--diagrams", "0"], "--diagrams must be at least 1"),
        (["--diagrams", "-1"], "--diagrams must be at least 1"),
        (["--samples", "-1"], "--samples must be at least 0"),
    ],
)
def test_bad_counts_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as caught:
        audit_random.main(argv)
    assert caught.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""

