"""The README's library example runs, the package root exports exactly the
names the README's Library and Sensitivity sections use, every test the
README cites as ``tests/<file>.py::<name>`` exists, and every package name
it quotes as ``module.name`` (or ``module.name.attr``) exists."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import iidiag

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


LIBRARY = _section("Library")
EXAMPLE = re.search(r"```python\n(.*?)```", LIBRARY, re.S).group(1)


def _names_used() -> set[str]:
    """Names imported in the example plus the lower-case identifiers the two
    sections quote, such as `sample_member` or `widen(row, R)`."""
    names = set(re.search(r"^from iidiag import (.+)$", EXAMPLE, re.M).group(1).split(", "))
    prose = re.sub(r"```.*?```", "", LIBRARY + _section("Sensitivity sweeps"), flags=re.S)
    for quoted in re.findall(r"`([^`]+)`", prose):
        head = quoted.split("(")[0]
        if head.isidentifier() and head.islower():
            names.add(head)
    return names


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(EXAMPLE, "README.md", "exec"), namespace)
    lo, hi = namespace["report"].final_interval
    assert (f"{lo:.4f}", f"{hi:.4f}") == ("2.8121", "8.3525")


def test_root_exports_the_names_the_readme_uses():
    exported = {
        name for name, value in vars(iidiag).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    used = _names_used()
    assert used == {
        "load_diagram", "fixture_path", "solve", "soundness_check", "sample_member",
        "point_solve", "exact_envelope", "sweep", "widen",
    }
    assert exported == used


def _defined(path: Path) -> set[str]:
    """The ``name`` and ``Class::name`` of every function and class defined
    at the top of ``path`` or in a top-level class."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_test_references_name_existing_tests():
    root = Path(__file__).resolve().parent.parent
    refs = re.findall(r"\b(tests/\w+\.py)::(\w+(?:::\w+)?)", README)
    assert refs  # the README does cite tests
    for path, name in refs:
        assert (root / path).is_file(), path
        assert name in _defined(root / path), f"{path}::{name}"


MODULES = ("model", "solver", "transforms", "exact", "sensitivity", "generate", "diagram_io", "cli")


def test_module_references_name_existing_attributes():
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    reference = re.compile(rf"({'|'.join(MODULES)})\.(\w+)(?:\.(\w+))?")
    refs = [m.groups() for quoted in re.findall(r"`([^`]+)`", prose)
            if (m := reference.match(quoted))]
    assert len(refs) >= 10  # the README does quote them
    for module, name, attr in refs:
        where = ".".join(filter(None, (module, name, attr)))
        value = getattr(importlib.import_module(f"iidiag.{module}"), name, None)
        assert value is not None, where
        assert attr is None or hasattr(value, attr), where
