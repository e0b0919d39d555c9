"""Range injection and sweep reports."""

import pytest
from hypothesis import given, strategies as st

from iidiag import errors
from iidiag.cli import main
from iidiag.diagram_io import fixture_path
from iidiag.model import build_diagram
from iidiag.sensitivity import (
    SensitivitySpec,
    inject_range,
    render_text,
    report_to_dict,
    sweep,
    widen,
)

POINT_MINIMAL = {
    "variables": [{"name": "C", "outcomes": ["c1", "c2"]}],
    "nodes": [
        {"name": "C", "kind": "chance", "parents": [], "table": [[0.6, 0.4]]},
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
def point_minimal():
    return build_diagram(POINT_MINIMAL)


simplex_rows = st.lists(
    st.floats(0.001, 1.0), min_size=2, max_size=4
).map(lambda xs: tuple(x / sum(xs) for x in xs))


class TestWiden:
    def test_frozen_example(self):
        assert widen((0.6, 0.4), 0.05) == pytest.approx((0.57, 0.38), abs=1e-12)

    def test_zero_range_identity(self):
        assert widen((0.3, 0.7), 0.0) == (0.3, 0.7)

    def test_symmetric(self):
        assert widen((0.5, 0.5), 0.1) == pytest.approx((0.45, 0.45))

    @given(simplex_rows, st.floats(0, 0.99))
    def test_slack_is_exactly_the_range(self, row, r):
        b = widen(row, r)
        assert 1 - sum(b) == pytest.approx(r, abs=1e-9)
        assert all(x >= y - 1e-15 for x, y in zip(row, b))
        assert all(y >= 0 for y in b)

    @given(simplex_rows, st.floats(0, 0.9), st.floats(0, 0.9))
    def test_nested_in_range(self, row, r1, r2):
        lo_r, hi_r = sorted((r1, r2))
        tighter = widen(row, lo_r)
        looser = widen(row, hi_r)
        assert all(a >= b - 1e-12 for a, b in zip(tighter, looser))

    def test_rejects_bad_range(self):
        with pytest.raises(errors.MalformedSpec):
            widen((0.5, 0.5), 1.0)

    def test_inject_range_only_touches_targets(self, point_minimal):
        out = inject_range(point_minimal, ["C"], 0.05)
        assert out.node("C").chance_table.rows[0] == pytest.approx((0.57, 0.38))
        assert out.value_node.value_table == point_minimal.value_node.value_table


class TestSweep:
    def test_minimal_cells(self, point_minimal):
        spec = SensitivitySpec(target_nodes=("C",), ranges=(0.0, 0.05))
        report = sweep(point_minimal, spec)
        flat = report.cell(("C",), 0.0)
        assert flat.interval == pytest.approx((6.0, 6.0))
        assert flat.policies["D"].sets == ((0,),)
        widened = report.cell(("C",), 0.05)
        assert widened.interval == pytest.approx((5.7, 6.2))
        assert widened.policies["D"].sets == ((0,),)  # dominance persists

    def test_empty_ranges_gives_empty_report(self, point_minimal):
        spec = SensitivitySpec(target_nodes=("C",), ranges=())
        report = sweep(point_minimal, spec)
        assert report.cells == ()

    def test_requires_point_diagram(self, minimal):
        spec = SensitivitySpec(target_nodes=("C",), ranges=(0.05,))
        with pytest.raises(errors.NonPointResidual):
            sweep(minimal, spec)

    def test_zero_range_matches_point_solve(self, wildcatter):
        spec = SensitivitySpec(target_nodes=("OIL", "SEISMIC", "COST"), ranges=(0.0,))
        report = sweep(wildcatter, spec)
        lo, hi = report.cells[0].interval
        assert lo == pytest.approx(report.point_value, abs=1e-9)
        assert hi == pytest.approx(report.point_value, abs=1e-9)

    def test_interval_nesting_and_width_growth(self, wildcatter):
        spec = SensitivitySpec(
            target_nodes=("OIL", "SEISMIC", "COST"), ranges=(0.0, 0.01, 0.05, 0.10)
        )
        report = sweep(wildcatter, spec)
        cells = sorted(report.cells, key=lambda c: c.range_)
        for tight, loose in zip(cells, cells[1:]):
            assert loose.interval[0] <= tight.interval[0] + 1e-9
            assert loose.interval[1] >= tight.interval[1] - 1e-9
            assert loose.width > tight.width

    def test_admissible_sets_nondecreasing(self, wildcatter):
        spec = SensitivitySpec(
            target_nodes=("OIL", "SEISMIC", "COST"), ranges=(0.0, 0.01, 0.05)
        )
        report = sweep(wildcatter, spec)
        cells = sorted(report.cells, key=lambda c: c.range_)
        for tight, loose in zip(cells, cells[1:]):
            for name in ("TEST", "DRILL"):
                for s_tight, s_loose in zip(
                    tight.policies[name].sets, loose.policies[name].sets
                ):
                    assert set(s_tight) <= set(s_loose)

    def test_exact_envelope_inside_interval(self, wildcatter):
        spec = SensitivitySpec(
            target_nodes=("OIL", "COST"), ranges=(0.01, 0.05), compare_exact=True
        )
        report = sweep(wildcatter, spec)
        for cell in report.cells:
            assert cell.envelope is not None
            lo, hi = cell.interval
            assert cell.envelope.ev_min >= lo - 1e-9
            assert cell.envelope.ev_max <= hi + 1e-9

    def test_exact_skipped_when_capped(self, wildcatter):
        spec = SensitivitySpec(
            target_nodes=("OIL", "SEISMIC"),
            ranges=(0.05,),
            compare_exact=True,
            exact_cap=3,
        )
        report = sweep(wildcatter, spec)
        cell = report.cells[0]
        assert cell.exact_skipped
        assert cell.envelope is None
        assert cell.interval[0] < cell.interval[1]  # IID results still produced

    def test_subsets(self, wildcatter):
        spec = SensitivitySpec(
            target_nodes=("OIL", "COST"),
            ranges=(0.05,),
            subsets=(("OIL",), ("COST",), ("OIL", "COST")),
        )
        report = sweep(wildcatter, spec)
        assert len(report.cells) == 3
        # the pair dominates each single subset
        pair = report.cell(("OIL", "COST"), 0.05)
        for single in (("OIL",), ("COST",)):
            cell = report.cell(single, 0.05)
            assert pair.interval[0] <= cell.interval[0] + 1e-9
            assert pair.interval[1] >= cell.interval[1] - 1e-9

    def test_jobs_other_than_one_is_refused(self, wildcatter, capsys):
        # cells always run in order: the keyword accepts only 1 and the
        # CLI has no --jobs flag
        spec = SensitivitySpec(target_nodes=("OIL",), ranges=(0.05,))
        with pytest.raises(errors.MalformedSpec, match="jobs"):
            sweep(wildcatter, spec, jobs=4)
        assert len(sweep(wildcatter, spec, jobs=1).cells) == 1
        argv = ["sweep", str(fixture_path("wildcatter")), "--nodes", "OIL",
                "--ranges", "0.05", "--jobs", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--jobs" in captured.err and captured.out == ""

    def test_render_and_dict(self, wildcatter):
        spec = SensitivitySpec(
            target_nodes=("OIL",), ranges=(0.0, 0.05), compare_exact=True
        )
        report = sweep(wildcatter, spec)
        text = render_text(report, wildcatter)
        assert "OIL" in text and "range" in text
        data = report_to_dict(report)
        assert len(data["cells"]) == 2
        assert data["cells"][1]["exact"]["configurations_evaluated"] == 3
