"""File format round-trips, canonical stability, and the command line."""

import json
from pathlib import Path

import pytest

from conftest import all_fixture_paths, chain_data, hidden_cause_diagram
from iidiag import cli, errors
from iidiag.cli import main
from iidiag.diagram_io import (
    fixture_path,
    load_diagram,
    parse_diagram,
    save_diagram,
    serialize_diagram,
)
from iidiag.exact import soundness_check
from iidiag.model import build_diagram

GOLDEN = Path(__file__).parent / "golden"


class TestParseSerialize:
    def test_minimal_file_parses(self):
        d = load_diagram(fixture_path("minimal"))
        assert list(d.nodes) == ["C", "D", "V"]

    def test_shipped_fixtures_are_canonical(self):
        for path in all_fixture_paths():
            text = path.read_text(encoding="utf-8")
            assert serialize_diagram(parse_diagram(text)) == text, path.name

    def test_roundtrip_is_fixed_point(self):
        for path in all_fixture_paths():
            once = serialize_diagram(load_diagram(path))
            twice = serialize_diagram(parse_diagram(once))
            assert once == twice

    def test_syntax_error_carries_location(self):
        with pytest.raises(errors.DiagramSyntaxError, match=r"line \d+"):
            parse_diagram('{"variables": [,]}')

    def test_nan_rejected(self):
        text = fixture_path("minimal").read_text().replace("0.5", "NaN")
        with pytest.raises(errors.DiagramSyntaxError):
            parse_diagram(text)

    def test_overflowing_literal_rejected(self, tmp_path, capsys):
        # 1e999 is valid JSON that decodes to inf, and an integer literal can
        # be too large for a float; the model refuses both without echoing them
        huge = "1" + "0" * 400
        minimal = fixture_path("minimal").read_text()
        for old, new, where in [
            ("0.5", "1e999", "nodes[0] (C)"),
            ("0.5", huge, "nodes[0] (C)"),
            ("0.3", "-" + huge, "nodes[0] (C)"),
            ("10.0", huge, "nodes[2] (V)"),
        ]:
            text = minimal.replace(old, new, 1)
            with pytest.raises(errors.MalformedSpec, match="non-finite number"):
                parse_diagram(text)
            path = tmp_path / "huge.iid.json"
            path.write_text(text)
            assert main(["solve", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {where}.table[0]: non-finite number\n"

    def test_semantic_error_names_field(self):
        data = json.loads(fixture_path("minimal").read_text())
        data["nodes"][0]["table"] = [[0.5, 0.3, 0.2]]
        with pytest.raises(errors.ParentMismatch, match=r"nodes\[0\].*table\[0\]"):
            parse_diagram(json.dumps(data))

    def test_integers_canonicalize_to_floats(self):
        data = {
            "variables": [{"name": "C", "outcomes": ["a", "b"]}],
            "nodes": [
                {"name": "C", "kind": "chance", "parents": [], "table": [[1, 0]]},
                {"name": "V", "kind": "value", "parents": ["C"], "table": [[1, 2], [3, 4]]},
            ],
        }
        text = serialize_diagram(parse_diagram(json.dumps(data)))
        assert '"table": [\n        [\n          1.0,\n          0.0\n        ]' in text


class TestCli:
    def test_solve_minimal(self, capsys):
        assert main(["solve", str(fixture_path("minimal"))]) == 0
        out = capsys.readouterr().out
        assert "expected value: [5, 7]" in out
        assert "S = {d1}" in out

    def test_solve_trace(self, capsys):
        assert main(["solve", str(fixture_path("survey")), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "reverse_arc STATE -> SIGNAL" in out

    def test_solve_json(self, capsys):
        assert main(["solve", str(fixture_path("minimal")), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["interval"] == [5.0, 7.0]
        assert data["policies"]["D"]["sets"] == [[0]]

    def test_check_passes(self, capsys):
        rc = main(
            ["check", str(fixture_path("minimal")), "--samples", "500", "--seed", "7"]
        )
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_json(self, capsys):
        rc = main(
            [
                "check",
                str(fixture_path("survey")),
                "--samples",
                "200",
                "--seed",
                "1",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["ev_violations"] == 0

    def test_exact_command_point_diagram(self, capsys):
        # every wildcatter row is a point row, so there is one configuration
        rc = main(
            ["exact", str(fixture_path("wildcatter")), "--nodes", "OIL,COST", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["configurations_evaluated"] == 1
        assert data["ev_min"] == pytest.approx(data["ev_max"])

    def test_exact_command_bounded_diagram(self, capsys):
        rc = main(
            [
                "exact",
                str(fixture_path("survey")),
                "--nodes",
                "STATE,SIGNAL",
                "--include-value-box",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        # STATE 1 row x 2 vertices, SIGNAL 2 rows x 2, value corners 2*2*1*1
        assert data["configurations_evaluated"] == 32

    def test_sweep_table(self, capsys):
        rc = main(
            [
                "sweep",
                str(fixture_path("wildcatter")),
                "--nodes",
                "OIL,COST",
                "--ranges",
                "0.01,0.05",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OIL,COST" in out
        assert "TEST admissible" in out

    def test_sweep_subsets_json(self, capsys):
        rc = main(
            [
                "sweep",
                str(fixture_path("wildcatter")),
                "--nodes",
                "OIL,COST",
                "--ranges",
                "0.05",
                "--subsets",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [c["subset"] for c in data["cells"]] == [["OIL"], ["COST"], ["OIL", "COST"]]

    def test_sweep_bad_ranges_usage_error(self, capsys):
        rc = main(
            ["sweep", str(fixture_path("wildcatter")), "--nodes", "OIL", "--ranges", "oops"]
        )
        assert rc == 2
        assert "--ranges" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "wildcatter", "--nodes", "OIL", "--cap", "-5"],
            ["sweep", "wildcatter", "--nodes", "OIL", "--ranges", "0.1", "--exact", "--cap", "-1"],
            ["exact", "wildcatter", "--nodes", "OIL", "--cap", "many"],
        ],
    )
    def test_bad_cap_usage_error(self, argv, capsys):
        argv = [argv[0], str(fixture_path(argv[1])), *argv[2:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--cap" in captured.err
        assert captured.out == ""

    def test_check_with_a_value_width_past_the_float_range(self, minimal_data, tmp_path, capsys):
        for node in minimal_data["nodes"]:
            if node["kind"] == "value":
                node["table"] = [[-1e308, 1e308] for _ in node["table"]]
        path = tmp_path / "huge.iid.json"
        path.write_text(json.dumps(minimal_data), encoding="utf-8")
        assert main(["solve", str(path)]) == 0
        assert "[-1e+308, 1e+308]" in capsys.readouterr().out
        assert main(["check", str(path), "--samples", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_negative_samples_usage_error(self, capsys):
        path = str(fixture_path("minimal"))
        assert main(["check", path, "--samples", "-3"]) == 2
        captured = capsys.readouterr()
        assert "--samples" in captured.err
        assert captured.out == ""
        assert main(["check", path, "--samples", "0"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["exact", "minimal", "--nodes", "C,C"],
            ["sweep", "wildcatter", "--nodes", "OIL,OIL", "--ranges", "0.1", "--subsets"],
            ["sweep", "wildcatter", "--nodes", "OIL, COST,OIL", "--ranges", "0.1"],
        ],
    )
    def test_duplicate_nodes_usage_error(self, argv, capsys):
        argv = [argv[0], str(fixture_path(argv[1])), *argv[2:]]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "node named twice: " in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("ranges", ["0.1,0.1", "0,0.05,0.0", "0.0, -0.0", "0.01,0.1,.1"])
    def test_duplicate_ranges_usage_error(self, ranges, capsys):
        # a repeated range would print the same cell twice
        argv = ["sweep", str(fixture_path("wildcatter")), "--nodes", "OIL", "--ranges", ranges]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--ranges" in captured.err
        assert "range given twice: " in captured.err
        assert captured.out == ""

    def test_reused_parser_keeps_no_state(self, monkeypatch, capsys):
        # one process, one parser: a flag or a failed parse must not carry
        # over to the next call
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        path = str(fixture_path("survey"))
        traced = (GOLDEN / "survey.trace.out").read_text()
        assert main(["solve", path, "--trace"]) == 0
        assert capsys.readouterr().out == traced
        assert main(["solve", path, "--trace", "--no-such-flag"]) == 2
        assert capsys.readouterr().out == ""
        assert main(["solve", path]) == 0
        plain = capsys.readouterr().out
        assert plain == traced[: traced.index("steps:\n")]
        assert "steps:" not in plain.splitlines()
        assert main(["solve", path, "--json"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "survey.json.out").read_text()
        assert len(builds) == 1

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_file_fails(self, capsys):
        assert main(["solve", "no/such/file.iid.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_diagram_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.iid.json"
        data = json.loads(fixture_path("minimal").read_text())
        data["nodes"][0]["table"] = [[0.9, 0.9]]
        bad.write_text(json.dumps(data))
        assert main(["solve", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [["C"], 7, None])
    def test_non_string_variable_name_fails(self, name, tmp_path, capsys):
        bad = tmp_path / "bad.iid.json"
        data = json.loads(fixture_path("minimal").read_text())
        data["variables"][0]["name"] = name
        bad.write_text(json.dumps(data))
        assert main(["solve", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: variables[0]: name must be a string\n"

    def test_string_for_a_table_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.iid.json"
        data = json.loads(fixture_path("minimal").read_text())
        data["nodes"][0]["table"] = "ab"
        bad.write_text(json.dumps(data))
        assert main(["solve", str(bad)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: nodes[0] (C).table: expected a list of rows\n"

    def test_non_utf8_file_is_a_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.iid.json"
        bad.write_bytes('{"variables": [], "nodes": [], "x": "café"}'.encode("latin-1"))
        with pytest.raises(errors.DiagramSyntaxError, match="UTF-8"):
            load_diagram(bad)
        for command in ("solve", "fmt"):
            assert main([command, str(bad)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_deeply_nested_json_is_a_syntax_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.iid.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(errors.DiagramSyntaxError, match="nested"):
            load_diagram(deep)
        assert main(["solve", str(deep)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads refuses an integer literal over the int-string limit
        # (4300 digits by default) with a bare ValueError
        text = fixture_path("minimal").read_text().replace("0.5", "1" * 5000, 1)
        with pytest.raises(errors.DiagramSyntaxError, match="too many digits"):
            parse_diagram(text)
        path = tmp_path / "digits.iid.json"
        path.write_text(text)
        for argv in (["solve"], ["check", "--samples", "10"], ["fmt"]):
            assert main([*argv, str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: integer literal has too many digits\n"

    def test_joint_past_the_limit_fails(self, tmp_path, capsys):
        # evaluating a member would multiply a table of 2**72 entries
        path = tmp_path / "hidden.iid.json"
        save_diagram(hidden_cause_diagram(), path)
        assert main(["exact", str(path), "--nodes", "H"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{2**72} entries" in err

    def test_check_on_a_joint_past_the_limit(self, tmp_path, capsys):
        # 2**70 leaves: soundness sampling evaluates members by variable
        # elimination, which never enumerates the joint
        data = chain_data(70)
        report = soundness_check(build_diagram(data), samples=50, seed=7)
        assert report.passed
        assert report.sampled_min == pytest.approx(2 / 3, abs=1e-12)
        assert report.sampled_max == pytest.approx(2 / 3, abs=1e-12)
        chain = tmp_path / "chain.iid.json"
        chain.write_text(json.dumps(data))
        assert main(["check", str(chain), "--samples", "50", "--seed", "7", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert out["sampled_min"] == pytest.approx(2 / 3, abs=1e-12)
        assert out["sampled_max"] == pytest.approx(2 / 3, abs=1e-12)

    def test_fmt_idempotent(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.iid.json"
        data = json.loads(fixture_path("minimal").read_text())
        scratch.write_text(json.dumps(data))  # compact, non-canonical
        assert main(["fmt", str(scratch)]) == 0
        first = scratch.read_text()
        assert main(["fmt", str(scratch)]) == 0
        assert "already canonical" in capsys.readouterr().out
        assert scratch.read_text() == first
        assert first == fixture_path("minimal").read_text()
