import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from iidiag.diagram_io import fixture_path, load_diagram


MINIMAL_DATA = {
    "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
    "nodes": [
        {"name": "C", "kind": "chance", "parents": [], "table": [[0.5, 0.3]]},
        {"name": "D", "kind": "decision", "parents": [], "alternatives": ["d1", "d2"]},
        {
            "name": "V",
            "kind": "value",
            "parents": ["D", "C"],
            "table": [[10, 10], [0, 0], [4, 4], [4, 4]],
        },
    ],
}


@pytest.fixture
def minimal_data():
    import copy

    return copy.deepcopy(MINIMAL_DATA)


@pytest.fixture
def minimal():
    from iidiag.model import build_diagram

    return build_diagram(MINIMAL_DATA)


@pytest.fixture
def survey():
    return load_diagram(fixture_path("survey"))


@pytest.fixture
def wildcatter():
    return load_diagram(fixture_path("wildcatter"))


def chain_data(n):
    """A chain C0 -> ... -> C{n-1} -> V of binary chance nodes: C0 is 'b'
    with probability 2/3, each later node copies its parent, and V pays 1
    on 'b', so the expected value is exactly 2/3 and the joint has 2**n
    leaves."""
    copy_rows = [[1.0, 0.0], [0.0, 1.0]]
    nodes = [{"name": "C0", "kind": "chance", "parents": [], "table": [[1 / 3, 2 / 3]]}]
    nodes += [
        {"name": f"C{i}", "kind": "chance", "parents": [f"C{i - 1}"], "table": copy_rows}
        for i in range(1, n)
    ]
    nodes.append({"name": "V", "kind": "value", "parents": [f"C{n - 1}"],
                  "table": [[0.0, 0.0], [1.0, 1.0]]})
    return {"variables": [{"name": f"C{i}", "outcomes": ["a", "b"]} for i in range(n)],
            "nodes": nodes}


def hidden_cause_diagram():
    """A hidden binary H with 70 binary children, all observed by a decision
    D, and V(D, H): summing H out multiplies a table of 2**72 entries."""
    from random import Random

    from iidiag.generate import _Doc

    doc = _Doc(Random(3011))
    doc.chance("H", 2, [])
    children = [f"C{i}" for i in range(70)]
    for child in children:
        doc.chance(child, 2, ["H"])
    doc.decision("D", 2, children)
    doc.value(["D", "H"])
    return doc.build()


def all_fixture_paths():
    return sorted(fixture_path("minimal").parent.glob("*.iid.json"))


def _module_at(name, relative):
    path = Path(__file__).resolve().parent.parent / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_recorder():
    """``scripts/record_golden.py`` as a module, for its diagram generators."""
    return _module_at("record_golden", "scripts/record_golden.py")


def wildcatter_tables():
    """``scripts/wildcatter_tables.py`` as a module: the paper's wildcatter
    study as three report tables."""
    return _module_at("wildcatter_tables", "scripts/wildcatter_tables.py")


def perfbench_corpus():
    """``perfbench/corpus.py`` as a module: the benchmark's own diagram
    generators, which import nothing from the package."""
    return _module_at("perfbench_corpus", "perfbench/corpus.py")
