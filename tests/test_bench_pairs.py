"""The pair statistics of ``scripts/bench_pairs.py`` on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_pair_wins_count_neither_side_on_a_tie():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [12.0, 10.0, 8.0, 11.0]
    assert bench_pairs.pair_wins(parent, change, "higher") == 2
    assert bench_pairs.pair_wins(parent, change, "lower") == 1


def test_pair_ratios_divide_within_each_pair():
    # the parent drifts from 100 to 200 between pairs; the ratio does not
    parent = [100.0, 150.0, 200.0, 0.0]
    change = [125.0, 187.5, 250.0, 3.0]
    assert bench_pairs.pair_ratios(parent, change) == [1.25, 1.25, 1.25]
    ratios = bench_pairs.pair_ratios([4, 2, 4, 8], [2, 2, 6, 16])
    assert ratios == [0.5, 1.0, 1.5, 2.0]
    assert bench_pairs.quartiles(ratios) == (0.875, 1.25, 1.625)


@pytest.mark.parametrize(
    "change, better, gain",
    [
        # 10 of 10 won, medians 134.5 - 120.5 = 14 > parent IQR 121.75 - 119.25
        ([130 + i for i in range(10)], "higher", True),
        # the same numbers where lower is better: every pair lost
        ([130 + i for i in range(10)], "lower", False),
        # 9 of 10 won and far ahead: still a gain
        ([115] + [130 + i for i in range(9)], "higher", True),
        # 8 of 10 won: not a gain however far ahead
        ([115, 115] + [130 + i for i in range(8)], "higher", False),
        # every pair won, but by less than the parent's spread
        ([p + 1 for p in [121, 118, 125, 120, 119, 123, 117, 122, 121, 120]], "higher", False),
    ],
)
def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parents_spread(change, better, gain):
    parent = [121, 118, 125, 120, 119, 123, 117, 122, 121, 120]
    assert bench_pairs.is_gain(parent, change, better) is gain


PARENT = [121, 118, 125, 120, 119, 123, 117, 122, 121, 120]  # median 120.5, IQR 2.5


@pytest.mark.parametrize(
    "change, better, bound, worse",
    [
        # the same runs: not worse
        (PARENT, "higher", 0.1, "no"),
        # median 106 is 12% below 120.5: worse than a 10% bound
        ([p - 14.5 for p in PARENT], "higher", 0.1, "yes"),
        # the same drop where lower is better is a gain
        ([p - 14.5 for p in PARENT], "lower", 0.1, "no"),
        # 12% above where lower is better: worse
        ([p + 14.5 for p in PARENT], "lower", 0.1, "yes"),
        # a 1% drop inside a 10% bound
        ([p - 1.2 for p in PARENT], "higher", 0.1, "no"),
        # a 1% drop, but the parent's spread (2.5 of 120.5) exceeds a 1% bound
        ([p - 1.2 for p in PARENT], "higher", 0.01, "unresolved"),
        # the same spread, but every change run beats every parent run
        ([126 + i for i in range(10)], "higher", 0.01, "no"),
        ([110 - i for i in range(10)], "lower", 0.01, "no"),
    ],
)
def test_regression_verdict(change, better, bound, worse):
    assert bench_pairs.regression(PARENT, change, better, bound) == worse
