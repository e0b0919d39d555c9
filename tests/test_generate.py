"""The random generators' draw-order contract.

Every diagram the acceptance criteria, ``scripts/audit_random.py`` and the
golden set check comes from ``iidiag.generate``. Each generator must keep
making the same ``Random`` calls in the same order with the same outcome
labels, so a seed names the same diagram across refactors. The digest below
pins that: for seeds 0-299 it hashes, for each generator call the golden
recorder and the tests make, the canonical text of the result, the names the
call returns and the next ``rng.random()`` after it.
"""

from __future__ import annotations

import hashlib
from random import Random

from iidiag.diagram_io import serialize_diagram
from iidiag.generate import (
    chance_removal_instance,
    decision_removal_instance,
    marginalize_instance,
    random_chain_diagram,
    random_diagram,
    reversal_instance,
)

CALLS = (
    ("random_diagram(7, 2)", lambda rng: random_diagram(rng, max_nodes=7, n_decisions=2)),
    ("random_diagram(8)", lambda rng: random_diagram(rng, max_nodes=8)),
    (
        "random_diagram(5, point, duplicate)",
        lambda rng: random_diagram(rng, max_nodes=5, point=True, duplicate_alternative=True),
    ),
    ("random_chain_diagram", random_chain_diagram),
    ("random_chain_diagram(point)", lambda rng: random_chain_diagram(rng, point=True)),
    ("chance_removal_instance", chance_removal_instance),
    ("decision_removal_instance", decision_removal_instance),
    ("reversal_instance", reversal_instance),
    ("marginalize_instance", marginalize_instance),
)

# Recorded before the generators were rewritten on `generate._Doc`.
DIGEST = "3bbfafa4970c2cf51447d69a3d9426c9e7813a71044ff6815d1df24de53da880"


def test_generators_keep_their_draw_order():
    h = hashlib.sha256()
    for seed in range(300):
        for label, call in CALLS:
            rng = Random(seed)
            out = call(rng)
            diagram, names = (out[0], out[1:]) if isinstance(out, tuple) else (out, ())
            h.update(f"{label} {seed}\n".encode())
            h.update(serialize_diagram(diagram).encode())
            h.update(repr((names, rng.random())).encode())
    assert h.hexdigest() == DIGEST
