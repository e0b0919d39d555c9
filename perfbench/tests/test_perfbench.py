"""Tests of the benchmark itself (not of the package it measures).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _family_docs(shape_seed: int, value_seed: int) -> list[str]:
    shape, values = Random(shape_seed), Random(value_seed)
    docs = [corpus.chain(shape, values, n) for n in (10, 40)]
    docs += [corpus.wide(shape, values, m) for m in (4, 7)]
    docs += [corpus.stages(shape, values, nd) for nd in (3, 5)]
    docs += [corpus.small(shape, values, 3, 1), corpus.observed(shape, values, 2)]
    docs += [corpus.ladder(values, 3)]
    return [corpus.canonical(doc) for doc in docs]


def test_generators_are_deterministic():
    assert _family_docs(7, 1) == _family_docs(7, 1)


def test_value_seed_changes_numbers_not_structure():
    first, second = _family_docs(7, 1), _family_docs(7, 2)
    for a, b in zip(first, second):
        assert a != b
        assert corpus.structure(json.loads(a)) == corpus.structure(json.loads(b))
    assert _family_docs(8, 1) != first


def test_generated_diagrams_are_valid():
    from iidiag.diagram_io import parse_diagram

    for text in _family_docs(3, 4):
        parse_diagram(text)


def test_workload_corpora_are_byte_identical(tmp_path):
    for name in ("sweep", "verify"):
        texts = []
        for rep in range(2):
            workdir = tmp_path / f"{name}{rep}"
            workdir.mkdir()
            workloads.WORKLOADS[name](5, workdir).setup()
            texts.append({p.name: p.read_bytes() for p in workdir.iterdir()})
        assert texts[0] == texts[1]


def test_reduce_stream_is_deterministic_and_never_repeats_a_structure(tmp_path):
    def stream(seed):
        reduce = workloads.Reduce(seed, tmp_path)
        reduce.reference, reduce.fixture_reference = [], {}
        docs = []
        for block, _ in zip(reduce.blocks(), range(30)):
            docs += [corpus.canonical(item[0]) for item in block]
        return docs

    first = stream(4)
    assert first == stream(4)
    structures = [corpus.structure(json.loads(text)) for text in first]
    assert len(set(structures)) == len(structures)


@pytest.mark.parametrize("seed", [0, 1, 6, 12345])
def test_every_seed_is_compared_with_the_reference(tmp_path, seed):
    reduce = workloads.Reduce(seed, tmp_path)
    reduce.setup()
    for block, _ in zip(reduce.blocks(), range(2)):
        for item in block:
            assert item[2] is not None
            reduce.check(item, reduce.run(item))
    assert reduce.compared == len(corpus.FIXTURES) + 2 * 15


def test_reference_check_rejects_a_wrong_interval(tmp_path):
    reduce = workloads.Reduce(5, tmp_path)
    reduce.setup()
    doc, path, (lo, hi, digest) = next(reduce.blocks())[-1]
    result = reduce.run((doc, path, None))
    with pytest.raises(workloads.CheckFailed):
        reduce.check((doc, path, (lo, hi + 1e-6, digest)), result)


class _Report:
    def __init__(self, point_value, intervals):
        self.point_value = point_value
        self.cells = [
            SimpleNamespace(subset=s, range_=r, interval=iv)
            for s, per in intervals.items() for r, iv in zip(workloads.RANGES, per)
        ]

    def cell(self, subset, range_):
        return next(c for c in self.cells if c.subset == subset and c.range_ == range_)


@pytest.mark.parametrize("cells, ok", [
    ([(1, 1), (0.9, 1.1), (0.5, 1.5), (0.0, 2.0)], True),
    ([(1, 1), (1.1, 1.2), (0.5, 1.5), (0.0, 2.0)], False),  # misses the point value
    ([(1, 1), (0.5, 1.5), (0.9, 1.1), (0.0, 2.0)], False),  # width shrinks
])
def test_sweep_check_covers_every_range(cells, ok):
    report = _Report(1.0, {("A",): cells})
    if ok:
        workloads.check_sweep(("A",), report)
    else:
        with pytest.raises(workloads.CheckFailed):
            workloads.check_sweep(("A",), report)


def test_spec_names_units_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(w["name"] for w in SPEC["workloads"]) == set(workloads.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric():
    groups = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))["groups"]
    mapped = [m for g in groups for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_traced_warm_up_reports_every_per_layer_metric(tmp_path):
    tracer = Tracer()
    workloads.Workload(0, tmp_path).warm_up(tracer)
    metrics = run.per_layer(tracer, 1)
    metrics["trace.overhead_ratio"] = (1.0, "ratio")
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec
    assert not tracer.nesting_errors()


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["parent", 0, 100, -1, 0],
        ["child", 10, 30, 0, 0],
        ["child", 50, 60, 0, 0],
        ["grandchild", 12, 20, 1, 0],
    ]
    assert tracer.self_times() == [70, 12, 10, 8]
    assert tracer.nesting_errors() == []
    tracer.spans.append(["late", 90, 120, 0, 0])
    assert tracer.nesting_errors()


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "3",
         "--seconds", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_of_its_mode(trace):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    kind = "per_layer" if trace == "1" else "end_to_end"
    spec = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
