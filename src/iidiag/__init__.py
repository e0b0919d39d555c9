"""Influence diagrams with lower-bounded probabilities and interval values.

Evaluating a diagram yields an interval on optimal expected value and, per
decision and information state, the set of alternatives not strictly
dominated given the stated imprecision.

The package root exports the names the README's library examples use; the
rest is imported from the submodules.
"""

from .diagram_io import fixture_path, load_diagram
from .exact import exact_envelope, point_solve, sample_member, soundness_check
from .sensitivity import sweep, widen
from .solver import solve

__version__ = "0.1.0"
