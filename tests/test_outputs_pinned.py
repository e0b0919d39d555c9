"""Solve and sweep outputs, pinned bit for bit.

Kernel rewrites and sweep shortcuts must keep every float. The digests
below hash the ``repr`` of ``solve``'s interval, policies, notes and
per-step attainment gaps on seeded random diagrams and on long chains,
and ``report_to_dict`` of a wildcatter sweep over every nonempty subset of
three chance nodes, with the exact envelope beside it. ``repr`` of a float is exact, so any changed
bit changes a digest.
"""

from __future__ import annotations

import hashlib
from itertools import combinations
from random import Random

from conftest import chain_data

from iidiag.generate import random_diagram
from iidiag.model import build_diagram
from iidiag.sensitivity import SensitivitySpec, report_to_dict, sweep
from iidiag.solver import solve

# SOLVE_DIGEST was recorded before the sweep shared its range-0 cell and
# the fold and decision kernels were rewritten. SWEEP_DIGEST was recorded
# again when point_solve, which the exact envelope calls, began to evaluate
# by variable elimination.
SOLVE_DIGEST = "7be4ba068b56950a180fb799391b8e45cbdc6cd0b6970faa826fc27eddd59ef4"
SWEEP_DIGEST = "33af9edf8beb2ea08cda721061195ac0f3473202b3aca93556bb914b6b0f76cd"

WILDCATTER_TARGETS = ("OIL", "SEISMIC", "COST")


def every_subset(targets):
    return tuple(c for k in range(1, len(targets) + 1) for c in combinations(targets, k))


def wildcatter_sweep_spec(compare_exact=True):
    """Every nonempty subset of three chance nodes at four ranges: 28 cells,
    7 of them at range 0."""
    return SensitivitySpec(
        target_nodes=WILDCATTER_TARGETS,
        ranges=(0.0, 0.01, 0.05, 0.10),
        compare_exact=compare_exact,
        subsets=every_subset(WILDCATTER_TARGETS),
    )


def test_solve_outputs_keep_every_bit():
    h = hashlib.sha256()
    corpus = [(f"random_diagram {s}", random_diagram(Random(s), max_nodes=8)) for s in range(300)]
    corpus += [(f"chain_data({n})", build_diagram(chain_data(n))) for n in range(1, 41)]
    for label, diagram in corpus:
        report = solve(diagram)
        h.update(label.encode())
        gaps = [step.lower_gap for step in report.steps]
        h.update(repr((report.final_interval, report.policies, report.notes, gaps)).encode())
    assert h.hexdigest() == SOLVE_DIGEST


def test_sweep_output_keeps_every_bit(wildcatter):
    report = sweep(wildcatter, wildcatter_sweep_spec())
    digest = hashlib.sha256(repr(report_to_dict(report)).encode()).hexdigest()
    assert digest == SWEEP_DIGEST
