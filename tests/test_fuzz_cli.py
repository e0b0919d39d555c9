"""The typed-error promise, held by a mutation fuzzer.

Every CLI command on any input file either succeeds (exit 0), fails with
exactly one ``error:`` line on stderr (exit 1), or reports a usage error
(exit 2); it never ends in a traceback. Each mutant is one of the shipped
fixtures with one to three structure-aware edits: a value replaced by NaN,
an infinity, an overflowing literal, a string, null, a list or an object; a
field or list entry deleted or duplicated; a field or a node reference
renamed. Seeds and counts are fixed, so a run takes a few seconds and a
failure names the seed and the mutant that caused it.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest

from iidiag import cli
from iidiag.diagram_io import fixture_path

FIXTURES = {
    "minimal": ("C",),
    "survey": ("STATE", "SIGNAL"),
    "wildcatter": ("OIL", "SEISMIC", "COST"),
}
MUTANTS_PER_FIXTURE = 150

REPLACEMENTS = (
    float("nan"), float("inf"), float("-inf"), 10**400, 1e308, -0.0,
    "0.5", "", None, [], {}, [0.5], {"name": "C"}, True,
)


class _Object:
    """A JSON object as a list of [key, value] fields, so that a field can
    repeat, which a dict cannot hold."""

    def __init__(self, fields):
        self.fields = fields


def _tree(obj):
    """Parsed JSON with every object made an :class:`_Object`."""
    if isinstance(obj, dict):
        return _Object([[k, _tree(v)] for k, v in obj.items()])
    if isinstance(obj, list):
        return [_tree(v) for v in obj]
    return obj


def _dump(obj) -> str:
    """JSON text of a :func:`_tree`; NaN and the infinities are written as
    Python's ``json`` writes them."""
    if isinstance(obj, _Object):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj.fields) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    return json.dumps(obj)


def _containers(doc):
    """Every object and list in ``doc``, the document itself first."""
    out, stack = [], [doc]
    while stack:
        obj = stack.pop()
        if isinstance(obj, _Object):
            out.append(obj)
            stack.extend(v for _, v in obj.fields)
        elif isinstance(obj, list):
            out.append(obj)
            stack.extend(obj)
    return out


def _replacement(rng: Random):
    """A fresh copy of one of :data:`REPLACEMENTS`, so no edit changes it."""
    return _tree(rng.choice(REPLACEMENTS))


def _mutate(doc, rng: Random, names: list[str]) -> str:
    """Apply one edit to a random object or list of ``doc`` in place, and
    describe it."""
    box = rng.choice(_containers(doc))
    if isinstance(box, _Object):
        box = box.fields
        if not box:
            return "empty object left as is"
        i = rng.randrange(len(box))
        key = box[i][0]
        op = rng.choice(("replace", "delete", "rename", "reference", "duplicate"))
        if op == "replace":
            box[i][1] = _replacement(rng)
        elif op == "delete":
            del box[i]
        elif op == "rename":
            box[i][0] = key + "_"
        elif op == "reference":
            box[i][1] = rng.choice(names + ["NOPE"])
        else:  # a reader that keeps the last of two fields reads the copy
            box.append([key, rng.choice((_tree(json.loads(_dump(box[i][1]))),
                                         _replacement(rng)))])
        return f"{op} field {key!r}"
    if not box:
        box.append(_replacement(rng))
        return "append to an empty list"
    i = rng.randrange(len(box))
    op = rng.choice(("replace", "delete", "duplicate", "reference", "shuffle"))
    if op == "replace":
        box[i] = _replacement(rng)
    elif op == "delete":
        del box[i]
    elif op == "duplicate":
        box.insert(i, _tree(json.loads(_dump(box[i]))))
    elif op == "reference":
        box[i] = rng.choice(names + ["NOPE"])
    else:
        rng.shuffle(box)
    return f"{op} entry {i}"


def _commands(path, nodes):
    nodes = ",".join(nodes)
    return (
        ["solve", str(path), "--json"],
        ["check", str(path), "--samples", "8", "--seed", "3"],
        ["exact", str(path), "--nodes", nodes, "--include-value-box"],
        ["sweep", str(path), "--nodes", nodes, "--ranges", "0,0.05", "--subsets", "--exact"],
        ["fmt", str(path)],  # last: it rewrites the file
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_every_mutant_exits_with_a_typed_outcome(fixture, tmp_path):
    original = json.loads(fixture_path(fixture).read_text(encoding="utf-8"))
    names = [node["name"] for node in original["nodes"]]
    path = tmp_path / f"{fixture}.iid.json"
    passing = set()  # the commands that pass on the fixture itself
    for argv in _commands(path, FIXTURES[fixture]):
        path.write_text(_dump(_tree(original)), encoding="utf-8")
        if _run(argv)[0] == 0:
            passing.add(argv[0])
    assert {"solve", "check", "exact", "fmt"} <= passing
    outcomes = set()
    for seed in range(MUTANTS_PER_FIXTURE):
        rng = Random(f"{fixture}:{seed}")
        doc = _tree(original)
        edits = [_mutate(doc, rng, names) for _ in range(rng.randint(1, 3))]
        text = _dump(doc)
        where = f"fixture {fixture}, seed {seed}, edits {edits}, mutant:\n{text}"
        for argv in _commands(path, FIXTURES[fixture]):
            path.write_text(text, encoding="utf-8")
            try:
                code, err = _run(argv)
            except Exception as exc:  # the promise is broken: report the input
                pytest.fail(f"{argv[0]} raised {exc!r} on {where}")
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code in (0, 1, 2), f"{argv[0]} exited {code} on {where}"
            if code == 1:
                assert len(errors) == 1, f"{argv[0]} stderr {err!r} on {where}"
            elif code == 0:
                assert errors == [], f"{argv[0]} stderr {err!r} on {where}"
            outcomes.add((argv[0], code))
    # the mutants reach both ends: each of those commands passes on some
    # and refuses others
    assert outcomes >= {(command, code) for command in passing for code in (0, 1)}
