"""Command-line behavior: subcommands, exit codes, determinism, streams."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import pytest

from ravkit.cli import dispatch


def run(*argv: str) -> tuple[int, bytes, bytes]:
    return dispatch(list(argv))


def scope_file(tmp_path, porosity: dict, controls: dict | None = None,
               limitations: dict | None = None):
    """A one-scope document; counts are written as given, so they may be huge."""
    path = tmp_path / "scope.json"
    path.write_text(json.dumps({
        "schema": "ravkit-scope/1",
        "scopes": [{"id": "x", "porosity": porosity, "controls": controls or {},
                    "limitations": limitations or {}}],
    }))
    return path


def assert_one_line_input_error(code: int, out: bytes, err: bytes) -> None:
    assert code == 1 and out == b""
    assert len(err.splitlines()) == 1 and b"Traceback" not in err
    assert err.startswith(b"ravkit: error: ")


class TestRavCommand:
    def test_toy_json_contains_published_value(self, fixtures):
        code, out, err = run("rav", str(fixtures / "toy.json"), "--format", "json")
        assert code == 0 and err == b""
        doc = json.loads(out)
        assert doc["breakdown"]["actsec"] == pytest.approx(-12.744, abs=0.01)
        assert doc["breakdown"]["seclim_sum"] == "176121/400"

    def test_empty_scope_scores_100(self, fixtures):
        code, out, err = run("rav", str(fixtures / "empty.json"))
        assert code == 0
        assert b"actsec       100.000000" in out

    def test_text_default_format(self, fixtures):
        code, out, _ = run("rav", str(fixtures / "toy.json"))
        assert code == 0
        assert out.startswith(b"rav report: toy")

    def test_missing_file_is_input_error(self):
        code, out, err = run("rav", "no-such-file.json")
        assert code == 1
        assert out == b""
        assert b"no-such-file.json" in err

    def test_invalid_scope_file_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"schema": "ravkit-scope/1", "scopes": [{"id": "x", "oops": 1}]}')
        code, out, err = run("rav", str(bad))
        assert code == 1 and out == b"" and b"oops" in err

    def test_zero_porosity_with_limitations_is_domain_error(self, tmp_path):
        bad = tmp_path / "degenerate.json"
        bad.write_bytes(
            b'{"schema": "ravkit-scope/1", "scopes": '
            b'[{"id": "x", "limitations": {"anomalies": 1}}]}'
        )
        code, out, err = run("rav", str(bad))
        assert code == 2 and out == b"" and b"porosity" in err

    @pytest.mark.parametrize("exponent", [307, 400])
    def test_counts_past_the_float_range_score(self, tmp_path, exponent):
        big = 10**exponent
        scope = tmp_path / "huge.json"
        scope.write_text(json.dumps({"schema": "ravkit-scope/1", "scopes": [
            {"id": "huge", "porosity": {"visibility": big},
             "limitations": {"vulnerabilities": big, "anomalies": 1}}]}))
        for fmt in ("text", "json"):
            code, out, err = run("rav", str(scope), "--format", fmt)
            assert code == 0 and err == b""
        assert math.isfinite(json.loads(out)["breakdown"]["actsec"])

    def test_byte_identical_across_runs(self, fixtures):
        for fmt in ("text", "json"):
            first = run("rav", str(fixtures / "toy.json"), "--format", fmt)
            second = run("rav", str(fixtures / "toy.json"), "--format", fmt)
            assert first == second


class TestImportNmap:
    def test_scan_to_scope_document(self, fixtures):
        code, out, err = run("import-nmap", str(fixtures / "scan_1host_3ports.xml"))
        assert code == 0 and err == b""
        doc = json.loads(out)
        assert doc["schema"] == "ravkit-scope/1"
        assert doc["scopes"][0]["porosity"] == {"visibility": 1, "access": 3, "trust": 0}

    def test_merge_reproduces_worked_example_end_to_end(self, fixtures, tmp_path):
        code, merged, err = run(
            "import-nmap", str(fixtures / "scan_1host_1port.xml"),
            "--merge", str(fixtures / "controls_limits.json"),
        )
        assert code == 0, err
        merged_path = tmp_path / "merged.json"
        merged_path.write_bytes(merged)
        code, out, err = run("rav", str(merged_path), "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["breakdown"]["actsec"] == pytest.approx(-12.744, abs=0.01)
        assert doc["scope"]["porosity"] == {"visibility": 1, "access": 1, "trust": 0}

    def test_malformed_xml_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<nmaprun><host>")
        code, _, err = run("import-nmap", str(bad))
        assert code == 1 and b"malformed" in err

    def test_merged_count_past_the_digit_limit_is_one_line_input_error(self, fixtures, tmp_path):
        # 4300 nines parse; one more scanned pore makes a 4301-digit count.
        base = scope_file(tmp_path, {"visibility": int("9" * 4300)})
        assert_one_line_input_error(*run(
            "import-nmap", str(fixtures / "scan_1host_1port.xml"), "--merge", str(base)
        ))


class TestAggregate:
    def test_fifty_plus_hundred_gives_150_targets(self, fixtures):
        code, out, err = run(
            "aggregate", str(fixtures / "fifty.json"), str(fixtures / "hundred.json"),
            "--format", "json",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["scope"]["porosity"]["visibility"] == 150
        assert doc["scope"]["channel"] == "aggregate"
        assert doc["scope"]["controls"]["authentication"] == 8
        assert doc["scope"]["limitations"]["vulnerabilities"] == 2
        assert doc["scope"]["limitations"]["weaknesses"] == 4

    def test_text_output(self, fixtures):
        code, out, _ = run("aggregate", str(fixtures / "fifty.json"),
                           str(fixtures / "hundred.json"))
        assert code == 0
        assert b"visibility=150" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_summed_count_past_the_digit_limit_is_one_line_input_error(self, tmp_path, fmt):
        path = scope_file(tmp_path, {"visibility": int("9" * 4300)})
        assert_one_line_input_error(
            *run("aggregate", str(path), str(path), "--format", fmt)
        )


class TestLoneSurrogates:
    """A JSON ``\\udXXX`` escape can put a lone surrogate into a scope string;
    no report can write it as UTF-8, so parsing rejects it, naming the path."""

    SCOPES = {
        "id": ({"id": "\ud800x", "porosity": {"visibility": 1}}, b"$.scopes[0].id"),
        "vector": ({"id": "x", "vector": "in\udfff"}, b"$.scopes[0].vector"),
        "unit": ({"id": "x", "units": {"visibility": "h\udc80"}}, b"$.scopes[0].units.visibility"),
        "field name": ({"id": "x", "\udcff": 1}, b"$.scopes[0]: field name"),
    }

    @pytest.mark.parametrize("case", sorted(SCOPES))
    @pytest.mark.parametrize(
        "command",
        [("rav",), ("rav", "--format", "json"), ("aggregate",), ("symbolic",)],
        ids=" ".join,
    )
    def test_rejected_with_the_json_path(self, tmp_path, command, case):
        scope, where = self.SCOPES[case]
        path = tmp_path / "scope.json"
        # json.dumps writes the surrogate as a \udXXX escape.
        path.write_text(json.dumps({"schema": "ravkit-scope/1", "scopes": [scope]}))
        code, out, err = run(command[0], str(path), *command[1:])
        assert_one_line_input_error(code, out, err)
        assert where in err and b"lone surrogate" in err

    def test_non_ascii_text_still_scores(self, tmp_path):
        path = tmp_path / "scope.json"
        path.write_text(json.dumps({
            "schema": "ravkit-scope/1",
            "scopes": [{"id": "na\u00efve-\U0001F512", "vector": "\u65e5\u672c"}],
        }))
        code, out, err = run("rav", str(path))
        assert code == 0, err
        assert "rav report: na\u00efve-\U0001F512\n".encode() in out


class TestTrustCommand:
    def test_average_mode(self, fixtures):
        code, out, err = run("trust", str(fixtures / "applicants.csv"), "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        by_id = {a["applicant_id"]: a for a in doc["applicants"]}
        assert by_id["conviction-case"]["combined"] == "1/32"
        assert by_id["community-case"]["per_property"]["porosity"] == "39/1250"
        assert by_id["mixed-case"]["per_property"]["consistency"] == "8/45"

    def test_max_mode_differs_from_average(self, fixtures):
        _, avg_out, _ = run("trust", str(fixtures / "applicants.csv"),
                            "--mode", "average", "--format", "json")
        _, max_out, _ = run("trust", str(fixtures / "applicants.csv"),
                            "--mode", "max", "--format", "json")
        avg = json.loads(avg_out)["applicants"][2]
        top = json.loads(max_out)["applicants"][2]
        assert avg["combined"] != top["combined"]

    def test_all_undefined_record_is_domain_error(self, tmp_path):
        csv = tmp_path / "undef.csv"
        csv.write_bytes(b"applicant_id,age_years\nghost,18\n")
        code, out, err = run("trust", str(csv))
        assert code == 2 and out == b"" and b"undefined" in err

    def test_bad_csv_is_input_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"applicant_id,age_years\nx,NaNish\n")
        code, _, err = run("trust", str(csv))
        assert code == 1 and b"line 2" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rule_value_past_the_float_range_is_one_line_input_error(self, tmp_path, fmt):
        csv = tmp_path / "huge.csv"
        csv.write_text(
            "applicant_id,criminal_offenses_known,age_years,legal_adult_age\n"
            f"x,{10**400},19,18\n"
        )
        code, out, err = run("trust", str(csv), "--format", fmt)
        assert_one_line_input_error(code, out, err)
        assert b"past the float range and cannot be rendered as a decimal" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rule_value_near_the_float_limit_renders(self, tmp_path, fmt):
        csv = tmp_path / "big.csv"
        csv.write_text(
            "applicant_id,criminal_offenses_known,age_years,legal_adult_age\n"
            f"x,{10**300},19,18\n"
        )
        code, out, err = run("trust", str(csv), "--format", fmt)
        assert code == 0 and err == b""
        assert f"{float(10**300):.6f}".encode() in out

    @staticmethod
    def references_csv(tmp_path, positive: str, neutral: str, negative: str, past: str):
        csv = tmp_path / "refs.csv"
        csv.write_text(
            "applicant_id,age_years,references_positive,references_neutral,"
            "references_negative,past_employer_count,working_hours_per_day\n"
            f"x,30,{positive},{neutral},{negative},{past},8\n"
        )
        return csv

    def test_reference_count_past_employers_fails_before_building_references(self, tmp_path):
        csv = self.references_csv(tmp_path, "2000000", "0", "0", "3")
        start = time.perf_counter()
        code, out, err = run("trust", str(csv))
        assert time.perf_counter() - start < 1.0
        assert_one_line_input_error(code, out, err)
        assert b"more references than past employers" in err

    def test_references_without_past_employers_rejected(self, tmp_path):
        code, out, err = run("trust", str(self.references_csv(tmp_path, "2000000", "", "", "0")))
        assert_one_line_input_error(code, out, err)
        assert b"references require at least one past employer" in err

    def test_400_digit_reference_counts_rejected(self, tmp_path):
        n = "9" * 400
        code, out, err = run("trust", str(self.references_csv(tmp_path, n, n, n, n)))
        assert_one_line_input_error(code, out, err)

    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    def test_negative_reference_count_names_the_column(self, tmp_path, column):
        cells = ["0", "0", "0", "2"]
        cells[column] = "-3"
        code, out, err = run("trust", str(self.references_csv(tmp_path, *cells)))
        assert_one_line_input_error(code, out, err)
        name = ("references_positive", "references_neutral", "references_negative",
                "past_employer_count")[column]
        assert f"{name} must be a non-negative integer, got -3".encode() in err


class TestSymbolicCommand:
    def test_renders_expression_and_unit_value(self, fixtures):
        code, out, err = run("symbolic", str(fixtures / "toy.json"))
        assert code == 0, err
        text = out.decode()
        assert "ln(" in text and ")^2" in text
        assert "at h=1, l=1, p=1: -12.743031" in text

    def test_eval_override(self, fixtures):
        code, out, _ = run("symbolic", str(fixtures / "toy.json"), "--eval", "h=2")
        assert code == 0
        assert "h=2" in out.decode()

    def test_deterministic(self, fixtures):
        assert run("symbolic", str(fixtures / "toy.json")) == run(
            "symbolic", str(fixtures / "toy.json")
        )

    def test_unit_scopes_golden(self, fixtures):
        # 12 scopes, 0-3 porosity units crossed with 5-8 unit variables,
        # evaluated at integers, non-integer rationals and defaulted ones.
        code, out, err = run("symbolic", str(fixtures / "units_symbolic.json"),
                             "--eval", "a=2,b=3/2,c=3,d=5/4,e=4,f=7/3")
        assert code == 0, err
        assert out == (fixtures / "units_symbolic.txt").read_bytes()

    def test_bad_eval_spec(self, fixtures):
        code, _, err = run("symbolic", str(fixtures / "toy.json"), "--eval", "h=two")
        assert code == 1 and b"rational" in err

    @pytest.mark.parametrize("value", ["1e9999", "-1e9999", "1e-9999"])
    def test_eval_value_beyond_float_range_never_crashes(self, fixtures, value):
        code, out, err = run("symbolic", str(fixtures / "toy.json"), "--eval", f"h={value}")
        assert code == 1 and out == b""
        assert len(err.splitlines()) == 1 and b"float range" in err

    def test_eval_value_whose_log_argument_overflows_a_float(self, fixtures):
        # 100*h exceeds the float range; the log is taken exactly instead.
        code, out, err = run("symbolic", str(fixtures / "toy.json"), "--eval", "h=1e307")
        assert code == 0, err
        value = float(out.decode().rsplit(": ", 1)[1])
        assert math.isfinite(value)

    def test_counts_past_the_digit_limit_are_one_line_input_error(self, tmp_path):
        # The rendered polynomial's coefficients pass the int-to-str limit.
        huge = int("9" * 2000)
        path = scope_file(
            tmp_path,
            {"visibility": huge, "access": 3, "trust": 1},
            {"authentication": huge, "alarm": 2},
            {"vulnerabilities": huge, "concerns": 1},
        )
        assert_one_line_input_error(*run("symbolic", str(path)))
        assert_one_line_input_error(*run("rav", str(path)))


class TestDemoCommand:
    def test_each_kind_runs(self):
        for kind in ("permutation", "formula", "trust"):
            code, out, err = run("demo", "--kind", kind)
            assert code == 0, err
            doc = json.loads(out)
            assert doc["schema"] == "ravkit-finding/1"
            assert doc["findings"]

    def test_collision_kind_small_bounds(self):
        code, out, err = run("demo", "--kind", "collision", "--bounds", "1")
        assert code == 0, err
        doc = json.loads(out)
        assert any(f["kind"] == "score-collision" for f in doc["findings"])

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_is_domain_error(self, epsilon):
        code, out, err = run("demo", "--kind", "collision", "--bounds", "1",
                             f"--epsilon={epsilon}")
        assert code == 2 and out == b""
        assert len(err.splitlines()) == 1 and b"epsilon" in err

    @pytest.mark.parametrize("epsilon", ["-1e-9", "-inf", "-.5E-3"])
    def test_negative_epsilon_without_equals_is_domain_error(self, epsilon):
        code, out, err = run("demo", "--kind", "collision", "--bounds", "1",
                             "--epsilon", epsilon)
        assert code == 2 and out == b""
        assert len(err.splitlines()) == 1 and b"epsilon" in err

    def test_deterministic_output(self):
        assert run("demo", "--kind", "formula") == run("demo", "--kind", "formula")

    def test_seed_env_fallback(self, monkeypatch, fixtures):
        monkeypatch.setenv("RAVKIT_SEED", "7")
        code, out, _ = run("demo", "--kind", "collision", "--bounds", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["findings"][0]["inputs"]["seed"] == 7

    @pytest.mark.parametrize(
        "value", ["abc", "1.5", "", pytest.param("7" * 5000, id="5000-digits")]
    )
    def test_non_integer_seed_env_is_one_line_input_error(self, monkeypatch, value):
        monkeypatch.setenv("RAVKIT_SEED", value)
        code, out, err = run("demo", "--kind", "formula")
        assert_one_line_input_error(code, out, err)
        assert b"RAVKIT_SEED" in err

    def test_seed_flag_overrides_a_bad_seed_env(self, monkeypatch):
        monkeypatch.setenv("RAVKIT_SEED", "abc")
        code, _, err = run("demo", "--kind", "formula", "--seed", "3")
        assert code == 0 and err == b""

    def test_huge_bounds_refused_at_once(self):
        start = time.perf_counter()
        code, out, err = run("demo", "--kind", "collision", "--bounds", str(10**20))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == b""
        assert len(err.splitlines()) == 1 and b"packed collision keys" in err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, out, err = run("frobnicate")
        assert code == 1 and out == b""
        assert b"usage" in err.lower()

    def test_unknown_flag(self, fixtures):
        code, _, err = run("rav", str(fixtures / "toy.json"), "--sideways")
        assert code == 1 and b"usage" in err.lower()

    def test_no_command_prints_usage(self):
        code, _, err = run()
        assert code == 1 and b"usage" in err.lower()


class TestNonUtf8Path:
    """A path that is not valid UTF-8 reaches ravkit surrogate-escaped; the
    error line gives its bytes back unchanged."""

    RAW = b"no-such-\xffdir/scope.json"

    def test_main_writes_one_line_with_the_raw_path(self, capsysbinary):
        from ravkit.cli import main

        path = self.RAW.decode("utf-8", "surrogateescape")
        assert main(["rav", path]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(b"ravkit: error: cannot read " + self.RAW + b": ")
        assert len(captured.err.splitlines()) == 1

    def test_subprocess_exits_one_with_one_line(self, tmp_path):
        raw = os.fsencode(tmp_path) + b"/" + self.RAW
        proc = subprocess.run(
            [sys.executable, "-m", "ravkit.cli", "rav", raw], capture_output=True
        )
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.startswith(b"ravkit: error: cannot read " + raw + b": ")
        assert len(proc.stderr.splitlines()) == 1 and b"Traceback" not in proc.stderr


class TestInstalledEntryPoint:
    def test_module_invocation_matches_dispatch(self, fixtures):
        proc = subprocess.run(
            [sys.executable, "-m", "ravkit.cli", "rav", str(fixtures / "toy.json")],
            capture_output=True,
        )
        code, out, err = run("rav", str(fixtures / "toy.json"))
        assert proc.returncode == code == 0
        assert proc.stdout == out
        assert proc.stderr == err == b""
