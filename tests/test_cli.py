"""Tests for the command-line interface."""

import argparse
import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigzeta import cli, closedforms, hurwitz, verify
from trigzeta.cli import (
    CSV_HEADER,
    FAMILIES,
    MAX_GRID,
    _emit_records,
    _join_x,
    build_parser,
    grid_points,
    main,
    make_records,
    parse_args,
    parse_m_range,
    parse_x,
)
from trigzeta.closedforms import CLOSED_FORM_EST
from trigzeta.errors import ConvergenceError, DomainError
from trigzeta.oracles import direct_sum_grid

CATALAN = 0.915965594177219


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _drift_taylor(monkeypatch, r):
    """Scale every coefficient of the kernel's Taylor rows by 1 + r."""
    rows = tuple(tuple(c * (1.0 + r) for c in row) for row in hurwitz._TAYLOR)
    monkeypatch.setattr(hurwitz, "_TAYLOR", rows)


def _gate_message(family, weights, xs):
    """The gate's message for the first entry off it, an entry at a time, or None."""
    oracles, errs = direct_sum_grid(family, weights, xs)[:2]
    closed = closedforms.closed_form_grid(family, weights, xs)
    for w, m in enumerate(weights):
        for j, x in enumerate(xs):
            gap = abs(closed[w, j] - oracles[w, j])
            est_closed = CLOSED_FORM_EST * (1.0 + abs(closed[w, j]))
            if not gap <= errs[w, j] + est_closed:
                return (f"{family} m={m} x={x!r}: |closed - oracle| {gap:.3e} exceeds "
                        f"est_oracle {errs[w, j]:.3e} + est_closed {est_closed:.3e}")
    return None


# every grid_points count of the CLI tests and the benchmark's counts
GATE_COUNTS = (1, 2, 3, 5, 7, 8, 9, 31, 33, 35, 127, 129, 131, 2000)


class TestParsing:
    def test_parse_x(self):
        assert parse_x("0.5pi") == pytest.approx(math.pi / 2.0)
        assert parse_x("pi") == math.pi
        assert parse_x("-pi") == -math.pi
        assert parse_x("-0.25pi") == pytest.approx(-math.pi / 4.0)
        assert parse_x("1.5") == 1.5
        assert parse_x(" 2 ") == 2.0

    def test_parse_m_range(self):
        assert parse_m_range("2") == [2]
        assert parse_m_range("1..3") == [1, 2, 3]
        assert parse_m_range("1,2,3") == [1, 2, 3]
        assert parse_m_range("2,4") == [2, 4]

    def test_parse_m_range_dedupes(self):
        # a repeated weight used to print every sweep row twice
        assert parse_m_range("1,1") == [1]
        assert parse_m_range("2,1,2") == [1, 2]

    def test_grid_points(self):
        pts = grid_points("T1", 9)
        assert len(pts) == 9
        lo, hi = 0.0, 2.0 * math.pi
        assert pts[0] == pytest.approx(lo + 0.05 * (hi - lo))
        assert pts[-1] == pytest.approx(lo + 0.95 * (hi - lo))
        assert grid_points("T3", 1) == [0.0]

    def test_grid_points_takes_integral_counts_only(self):
        assert grid_points("T1", 2.0) == grid_points("T1", 2)
        for count in (2.5, 1.5, 1.0 + 2**-52):
            with pytest.raises(DomainError, match="grid count must be an integer"):
                grid_points("T1", count)


class TestEval:
    def test_catalan_point(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--family", "T1", "--m", "1", "--x", "0.5pi"], capsys)
        assert code == 0
        value_line = [ln for ln in out.splitlines() if ln.startswith("value")][0]
        assert float(value_line.split("=")[1]) == pytest.approx(CATALAN, abs=1e-10)
        code, out, _ = run_cli(
            ["eval", "--family", "T1", "--m", "1", "--x", "0.5pi", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        value = doc["value"]
        assert abs(value - 0.915965594177219015) <= 1e-15
        assert len(doc["terms"]) == 2
        rebuilt = doc["prefactor"] * math.fsum(t["coeff"] * t["zeta_sderiv"] for t in doc["terms"])
        assert abs(rebuilt - value) <= 1e-15 * (1.0 + abs(value))

    def test_json_breakdown(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--family", "T2", "--m", "2", "--x", "1.0",
             "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "T2"
        assert doc["terms"]
        rebuilt = doc["prefactor"] * sum(
            t["coeff"] * t["zeta_sderiv"] for t in doc["terms"])
        assert rebuilt == pytest.approx(doc["value"], rel=1e-12)

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(
            ["eval", "--family", "T1", "--m", "1", "--x", "6.4"], capsys)
        assert code == 2
        assert "error" in err

    def test_os_error_exit_code(self, capsys, monkeypatch):
        def full_disk(spec, x):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "closed_form_eval", full_disk)
        code, out, err = run_cli(["eval", "--family", "T1", "--m", "1", "--x", "0.3"], capsys)
        assert (code, out, err) == (1, "", "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("x, want_code", [
        ("-0.25pi", 0), ("-0.5pi", 0), ("-0.1", 0), ("0.5pi", 0),
        # -pi is outside every family's open interval: refused by the
        # domain check, not by argparse
        ("-pi", 2),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_separate_x_value(self, x, want_code, fmt, capsys):
        # --x VALUE answers as --x=VALUE does, a negative pi-multiple too
        head = ["eval", "--family", "T3", "--m", "1"]
        joined = run_cli(head + [f"--x={x}", "--format", fmt], capsys)
        assert joined[0] == want_code
        assert run_cli(head + ["--x", x, "--format", fmt], capsys) == joined

    def test_zeta_values_are_computed_once(self, capsys, monkeypatch):
        # the printed zeta' values are the ones the value was summed from:
        # one kernel call per term of T3's four-term bracket, whichever
        # module holds the kernel's name
        calls = []
        kernel = hurwitz.hurwitz_zeta_sderiv

        def spy(s, a):
            calls.append((s, a))
            return kernel(s, a)

        for name, module in list(sys.modules.items()):
            if name.startswith("trigzeta") and vars(module).get("hurwitz_zeta_sderiv") is kernel:
                monkeypatch.setattr(module, "hurwitz_zeta_sderiv", spy)
        code, out, _ = run_cli(["eval", "--family", "T3", "--m", "2", "--x", "0.5pi"], capsys)
        assert code == 0
        assert out.count("  term ") == len(calls) == 4

    def test_missing_x_value(self, capsys):
        for argv in (["--x"], ["--x", "--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--family", "T3", "--m", "1"] + argv)
            assert exc.value.code == 2
            assert "argument --x: expected one argument" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "eval.txt"
        code, out, _ = run_cli(
            ["eval", "--family", "T1", "--m", "1", "--x", "0.5pi",
             "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert "value" in target.read_text()


class TestCompare:
    def test_csv_grid(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--family", "T2", "--m", "1", "--grid", "9",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",") == CSV_HEADER
        rows = list(csv.DictReader(io.StringIO(
            "\n".join(ln for ln in lines if not ln.startswith("max_rel_err")))))
        assert len(rows) == 9
        # the resonant midpoint x=pi must be present and served by the
        # partial sum with its tail summed by parts
        mid = [r for r in rows if abs(float(r["x"]) - math.pi) < 1e-12]
        assert mid and mid[0]["oracle_method"] == "direct"
        for r in rows:
            assert float(r["rel_err"]) <= 1e-8

    def test_json_records(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--family", "T7", "--m", "1", "--grid", "9",
             "--format", "json"], capsys)
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 9
        for d in docs:
            assert set(d) == set(CSV_HEADER)
            assert d["rel_err"] <= 1e-8

    def test_csv_json_numeric_equivalence(self, capsys):
        code, csv_out, _ = run_cli(
            ["compare", "--family", "T5", "--m", "2", "--grid", "5",
             "--format", "csv"], capsys)
        assert code == 0
        code, json_out, _ = run_cli(
            ["compare", "--family", "T5", "--m", "2", "--grid", "5",
             "--format", "json"], capsys)
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO("\n".join(
            ln for ln in csv_out.splitlines()
            if not ln.startswith("max_rel_err")))))
        json_rows = json.loads(json_out)
        for c, j in zip(csv_rows, json_rows):
            # 17 significant digits round-trips float64 exactly
            assert float(c["closed_form"]) == j["closed_form"]
            assert float(c["oracle"]) == j["oracle"]

    def test_tolerance_failure_exit_code(self, capsys, monkeypatch):
        # a drift of every Taylor coefficient by 1e-13 relative, some 450
        # eps, fails the gate on some benchmark grid of compare and of sweep.
        # Every record (and compare's max_rel_err line) is printed, then
        # stderr names the first entry off the gate and both its sides
        _drift_taylor(monkeypatch, 1e-13)
        for command, m, weights, counts in (("compare", "1", [1], (127, 131)),
                                            ("sweep", "1..8", list(range(1, 9)), (31, 35))):
            failed = 0
            for family in FAMILIES:
                for count in counts:
                    argv = [command, "--family", family, "--m", m, "--grid", str(count),
                            "--format", "csv"]
                    code, out, err = run_cli(argv, capsys)
                    lines = out.splitlines()
                    assert lines[0].split(",") == CSV_HEADER
                    assert len(lines) == 1 + len(weights) * count + (command == "compare")
                    if command == "compare":
                        assert lines[-1].startswith("max_rel_err = ")
                    want = _gate_message(family, weights, grid_points(family, count))
                    if want is None:
                        assert (code, err) == (0, ""), argv
                    else:
                        assert (code, err) == (4, f"error: {want}\n"), argv
                        failed += 1
            assert failed, command

    @pytest.mark.parametrize("count", GATE_COUNTS)
    def test_gate_holds_on_every_grid(self, count):
        # no drift: every family at every weight passes
        for family in FAMILIES:
            failure = make_records(family, list(range(1, 9)), grid_points(family, count))[1]
            assert failure is None, failure

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nan_rel_err_fails_the_gate(self, fmt, capsys, monkeypatch):
        grid = cli.closed_form_grid

        def with_nan(family, weights, xs):
            values = grid(family, weights, xs)
            values[0, 3] = math.nan
            return values

        monkeypatch.setattr(cli, "closed_form_grid", with_nan)
        code, out, err = run_cli(
            ["compare", "--family", "T1", "--m", "1", "--grid", "9",
             "--format", fmt], capsys)
        assert code == 4
        x = grid_points("T1", 9)[3]
        assert err.startswith(f"error: T1 m=1 x={x!r}: |closed - oracle| nan exceeds est_oracle ")
        if fmt == "text":
            assert out.splitlines()[-1] == "max_rel_err = nan"



class TestRefusal:
    # no real CLI grid is refused: grids keep 5% from the interval ends,
    # where every estimate is below the oracle's tolerance of 1e-10, so the
    # oracle is made to refuse
    MESSAGE = "direct summation reached error estimate 1.000e-09 > tol 1.000e-10"

    @pytest.mark.parametrize("argv", [
        ["compare", "--family", "T2", "--m", "1", "--grid", "9"],
        ["compare", "--family", "T2", "--m", "1", "--grid", "9", "--format", "json"],
        ["sweep", "--family", "T6", "--m", "1..3", "--grid", "9", "--format", "csv"],
        ["sweep", "--family", "T6", "--m", "1..3", "--grid", "9", "--format", "json"],
    ])
    def test_convergence_error_exits_3(self, argv, capsys, monkeypatch):
        def refuse(family, weights, xs):
            raise ConvergenceError(self.MESSAGE, best_value=0.5)

        monkeypatch.setattr(cli, "direct_sum_grid", refuse)
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [f"error: {self.MESSAGE}"]


class TestSweep:
    def test_row_count_and_determinism(self, capsys):
        argv = ["sweep", "--family", "T1", "--m", "1..3", "--grid", "9",
                "--format", "csv"]
        code, first, _ = run_cli(argv, capsys)
        assert code == 0
        lines = first.splitlines()
        assert lines[0].split(",") == CSV_HEADER
        assert len(lines) == 1 + 27
        code, second, _ = run_cli(argv, capsys)
        assert code == 0
        assert first == second

    def test_full_sweep_rows(self, capsys):
        # T3 on a 33-point grid reaches x = 0, where the oracle sums directly
        argv = ["sweep", "--family", "T3", "--m", "1..8", "--grid", "33"]
        code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 264 and all(len(row) == 9 for row in rows)
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 264 and all(list(row) == CSV_HEADER for row in rows)
        assert [row["oracle_method"] for row in rows if row["x"] == 0.0] == ["direct"] * 8

    def test_comma_m_list(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "T5", "--m", "1,3", "--grid", "3",
             "--format", "csv"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 6

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["sweep", "--family", "T7", "--m", "2", "--grid", "5",
                "--format", "csv"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        target = tmp_path / "sweep.csv"
        code2, piped, _ = run_cli(argv + ["--out", str(target)], capsys)
        assert code2 == 0
        assert piped == ""
        assert target.read_text() == out


def _csv_writer_reference(records):
    """The csv bytes as the standard library's writer gives them."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in zip(*(records[name] for name in CSV_HEADER)):
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buffer.getvalue()


class TestEmitRecords:
    # every record a sweep m = 1..8 on a 33-point grid gives, plus numbers
    # whose formats are easy to get wrong
    @pytest.fixture(scope="class")
    def records(self):
        records = {name: [] for name in CSV_HEADER}
        extra = [("T1", 1, -0.0, 5e-324, 1e300, 0.0, -0.0, "direct", 1),
                 ("T8", 8, 1e-300, -1e300, -5e-324, math.inf, 1e16, "euler_accelerated", 10**7)]
        # an x column that repeats one grid's float objects per weight, as
        # make_records builds it, with both zeros: they compare equal, but
        # each has its own text
        xs = [-0.0, 0.0, 0.5, -0.0]
        extra += [("T2", m, x, x, -x, 0.0, 0.0, "direct", m) for m in (1, 2, 3) for x in xs]
        for family in FAMILIES:
            columns = make_records(family, list(range(1, 9)), grid_points(family, 33))[0]
            assert list(columns) == CSV_HEADER
            for name in CSV_HEADER:
                records[name] += columns[name]
        for row in extra:
            for name, value in zip(CSV_HEADER, row):
                records[name].append(value)
        return records

    def test_csv_matches_the_csv_writer(self, records):
        out = io.StringIO()
        _emit_records(records, "csv", out)
        assert out.getvalue() == _csv_writer_reference(records)

    def test_json_keys_follow_the_header(self, records):
        out = io.StringIO()
        _emit_records(records, "json", out)
        want = io.StringIO()
        rows = zip(*(records[name] for name in CSV_HEADER))
        json.dump([dict(zip(CSV_HEADER, row)) for row in rows], want, indent=2)
        assert out.getvalue() == want.getvalue() + "\n"

    def test_columns_hold_python_numbers(self, records):
        # json.dump rejects numpy integers; floats must format as floats
        for name in ("m", "terms_used"):
            assert all(type(v) is int for v in records[name]), name
        for name in ("x", "closed_form", "oracle", "abs_err", "rel_err"):
            assert all(type(v) is float for v in records[name]), name


class TestRecordOrder:
    # nothing sorts the records: weights come sorted from parse_m_range and
    # grid_points ascends, and the rows follow them in (m, x) order
    @staticmethod
    def _keys(rows):
        return [(int(r["m"]), float(r["x"])) for r in rows]

    @pytest.mark.parametrize("family", ["T3", "T6"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_rows_ascend(self, family, fmt, capsys):
        code, out, _ = run_cli(["sweep", "--family", family, "--m", "3,1,2", "--grid", "7",
                                "--format", fmt], capsys)
        assert code == 0
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        keys = self._keys(rows)
        assert keys == sorted(keys)
        assert [m for m, _ in keys] == [1] * 7 + [2] * 7 + [3] * 7
        assert [x for _, x in keys[:7]] == grid_points(family, 7)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compare_rows_ascend(self, fmt, capsys):
        code, out, _ = run_cli(["compare", "--family", "T4", "--m", "2", "--grid", "7",
                                "--format", fmt], capsys)
        assert code == 0
        if fmt == "json":
            rows = json.loads(out)
        else:
            rows = list(csv.DictReader(io.StringIO(out.rsplit("max_rel_err", 1)[0])))
        keys = self._keys(rows)
        assert keys == sorted(keys) and len(set(keys)) == 7
        assert [x for _, x in keys] == grid_points("T4", 7)


class TestVerify:
    def test_special_values_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "special-values"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 30

    def test_identities_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "identities"], capsys)
        assert code == 0
        assert "FAIL" not in out
        code, out, _ = run_cli(["verify", "--suite", "identities", "--format", "json"], capsys)
        assert code == 0
        names = [c["check"] for c in json.loads(out) if c["passed"] is True]
        assert len(set(names)) == len(names) == 27
        assert sum(name.startswith("identity.hurwitz_formula(") for name in names) == 6

    def test_choi_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "choi-srivastava"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 60

    def test_table2_deviation_report(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "table2"], capsys)
        assert code == 0
        report_lines = [ln for ln in out.splitlines()
                        if ln.startswith("TABLE2-DEVIATION-REPORT ")]
        assert len(report_lines) == 1
        report = json.loads(report_lines[0].split(" ", 1)[1])
        rows = [d["row"] for d in report["deviations"]]
        assert rows == ["T8"]
        assert report["deviations"][0]["theorem_evaluator_passes"] is True
        assert report["deviations"][0]["interpretation"]
        assert report["deviations"][0]["erratum"] == {"j": 1, "sign": -1}

    def test_table2_fails_on_the_literal_t8_row(self, capsys, monkeypatch):
        # the theorem values of T8 read literally leave the limit series
        for m in range(1, 9):
            monkeypatch.setitem(closedforms._BRACKET_CONSTANTS, ("T8", m),
                                closedforms._LITERAL_CONSTANTS["T8", m])
        code, out, _ = run_cli(["verify", "--suite", "table2"], capsys)
        assert code == 4
        assert "FAIL table2.T8." in out

    def test_table2_fails_on_a_prefactor_off_by_1e12(self, capsys, monkeypatch):
        pref, s, terms = closedforms._BRACKET_CONSTANTS["T3", 2]
        monkeypatch.setitem(closedforms._BRACKET_CONSTANTS, ("T3", 2),
                            (pref * (1.0 + 1e-12), s, terms))
        code, out, _ = run_cli(["verify", "--suite", "table2"], capsys)
        assert code == 4
        assert "FAIL table2.T3.literal" in out

    def test_all_suites(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "all"], capsys)
        assert code == 0
        assert "FAIL" not in out
        summary = [ln for ln in out.splitlines() if "checks passed" in ln]
        assert summary

    def test_all_suite_check_names_are_unique(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "all", "--format", "json"], capsys)
        assert code == 0
        names = [c["check"] for c in json.loads(out.split("\n", 1)[1])]
        assert len(names) == 131
        assert len(set(names)) == len(names)

    def test_suite_choices_are_the_suites_and_all(self):
        # cli states the choices without importing verify, so tie the two lists
        options = dict(cli.COMMANDS["verify"][2])
        assert options["--suite"]["choices"] == (*verify.SUITES, "all")


class TestSharedWork:
    """Work the verify suites share, counted: each is done once."""

    def test_table2_makes_one_kernel_pass_per_order_set(self, capsys, monkeypatch):
        # one zeta' grid for the rows at p = 0 (orders 0, 2, .., 14) and one
        # for those at p = 1 (orders 1, 3, .., 15), T8's literal reading
        # included, and no per-point limit series call
        calls, limits = [], []
        kernel, limit = closedforms.hurwitz_zeta_sderiv_grid, verify.limit_series_eval

        def spy(orders, offsets):
            calls.append(sorted(int(n) for n in orders))
            return kernel(orders, offsets)

        def limit_spy(spec, x):
            limits.append((spec, x))
            return limit(spec, x)

        monkeypatch.setattr(closedforms, "hurwitz_zeta_sderiv_grid", spy)
        monkeypatch.setattr(verify, "limit_series_eval", limit_spy)
        code, _, _ = run_cli(["verify", "--suite", "table2"], capsys)
        assert code == 0
        assert sorted(calls) == [list(range(0, 16, 2)), list(range(1, 16, 2))]
        assert limits == []

    def test_table2_reads_literally_only_the_rows_that_differ(self, capsys, monkeypatch):
        # a theorem entry of T3 moved off its literal one gives T3 a literal
        # reading too, whose gap of 1e-12 is not a deviation but still fails
        # the limit check; the zeta' orders do not move, so the one grid
        # call still makes 2 kernel passes
        readings, kernels = [], []
        grid, kernel = verify._bracket_grid, closedforms.hurwitz_zeta_sderiv_grid

        def grid_spy(call, weights):
            readings.append([(family, constants is closedforms._LITERAL_CONSTANTS)
                             for constants, family, _ in call])
            return grid(call, weights)

        def kernel_spy(orders, offsets):
            kernels.append(len(offsets))
            return kernel(orders, offsets)

        monkeypatch.setattr(verify, "_bracket_grid", grid_spy)
        monkeypatch.setattr(closedforms, "hurwitz_zeta_sderiv_grid", kernel_spy)
        pref, s, terms = closedforms._BRACKET_CONSTANTS["T3", 2]
        monkeypatch.setitem(closedforms._BRACKET_CONSTANTS, ("T3", 2),
                            (pref * (1.0 + 1e-12), s, terms))
        code, out, _ = run_cli(["verify", "--suite", "table2"], capsys)
        assert code == 4
        assert "FAIL table2.T3.literal" in out
        passes, = readings
        assert [family for family, literal in passes if not literal] == list(FAMILIES)
        assert [family for family, literal in passes if literal] == ["T3", "T8"]
        assert len(kernels) == 2

    def test_identities_take_n_to_the_minus_s_once_per_order(self, capsys, monkeypatch):
        # the Hurwitz-formula sums at one s share n and n^-s over their offsets
        powers = []

        class Terms(np.ndarray):
            def __pow__(self, exponent):
                powers.append(exponent)
                return np.asarray(self) ** exponent

        arange = np.arange

        def terms(*args, **kwargs):
            return arange(*args, **kwargs).view(Terms)

        # the grid routes import numpy when called, so they read this arange
        monkeypatch.setattr(np, "arange", terms)
        code, _, _ = run_cli(["verify", "--suite", "identities"], capsys)
        assert code == 0
        assert powers == [-2.0, -3.0]

    def test_identities_run_each_lambda_probe_once(self, capsys, monkeypatch):
        # lambda(1 + s) at s = 1e-4, 1e-5, 1e-6 serves both the limit and
        # the Richardson check; lambda(1 + 1e-6) and eta(1 + 1e-6) each take
        # zeta(1 + 1e-6, 1), so one (s, a) repeats.  The Hurwitz-formula
        # checks read zeta(-1, a) and zeta(-2, a) from the Bernoulli rows
        calls = []
        em = hurwitz._em

        def spy(s, a):
            calls.append((s, a))
            return em(s, a)

        monkeypatch.setattr(hurwitz, "_em", spy)
        code, _, _ = run_cli(["verify", "--suite", "identities"], capsys)
        assert code == 0
        assert len(calls) == 9
        assert len(set(calls)) == 8


def test_cli_corpus_matches_the_golden_file(monkeypatch):
    # tests/cli_corpus.txt is the output of tests/cli_corpus.py; a change
    # that moves CLI bytes on purpose regenerates it
    here = Path(__file__).parent
    spec = importlib.util.spec_from_file_location("cli_corpus", here / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    monkeypatch.setenv("COLUMNS", "80")
    want = (here / "cli_corpus.txt").read_text().splitlines()
    got = [corpus.run(main, argv) for argv in corpus.corpus()]
    assert len(got) == len(want)
    mismatches = []
    for line, expected in zip(got, want):
        if line == expected:
            continue
        argv, _, fields = line.rpartition(" -> ")
        want_argv, _, want_fields = expected.rpartition(" -> ")
        (code, *digests), (want_code, *want_digests) = fields.split(), want_fields.split()
        streams = [name for name, new, old in zip(("stdout", "stderr"), digests, want_digests)
                   if new != old]
        mismatches.append(
            f"{argv}: exit {want_code} -> {code}, {' and '.join(streams) or 'no stream'} differs"
            + ("" if argv == want_argv else f" (expected argv {want_argv})")
        )
    assert not mismatches, "\n".join(mismatches)


class TestParseRoute:
    """``parse_args``, whose parser is reused, against a fresh ``build_parser()``.

    Both must give equal namespaces, or exit with the same code, stdout
    and stderr; COLUMNS fixes the width of help and usage text.
    """

    CORPUS = [
        [], ["-h"], ["--help"], ["--he"], ["-h", "sweep"], ["--", "sweep"],
        ["bogus"], ["evaluate"], ["--bogus"], ["--fam", "T1"],
        ["eval", "--help"], ["compare", "-h"], ["sweep", "-h"], ["verify", "-h"],
        ["sweep", "--family", "T1", "--m", "1..8", "--grid", "33", "--format", "csv"],
        ["sweep", "--family=T1", "--m=1..8", "--grid=3"],
        ["sweep", "--fam", "T1", "--m", "1"],
        ["sweep", "--f", "T1", "--m", "1"],
        ["sweep", "--family", "T1", "--m", "1", "--bogus"],
        ["sweep", "--family", "T1", "--m", "1", "extra"],
        ["sweep", "--family", "T9", "--m", "1"],
        ["sweep", "--family", "T1", "--m", "1", "--format", "xml"],
        ["sweep", "--family", "T1"],
        ["sweep", "--", "--family", "T1", "--m", "1"],
        ["sweep", "--family", "T1", "--m", "1", "--"],
        ["sweep", "--m", "1", "--family", "T1", "--family", "T2"],
        ["eval", "--family", "T1", "--m", "1", "--x", "-0.25pi"],
        ["eval", "--family", "T1", "--m", "1", "--x", "0.3", "--grid", "1"],
        ["eval", "--family", "T1", "--m", "1", "--x"],
        ["eval", "--family", "T1", "--m", "1..8", "--x", "0.3"],
        ["compare", "--family", "T1", "--m", "x"],
        ["compare", "--family", "T1", "--m", "1", "--grid", "3",
         "--out", "out.csv", "--format", "json"],
        ["compare", "--family", "T1", "--m", "1", "-h", "--bogus"],
        ["verify"], ["verify", "--suite", "table2", "--format", "json"],
        ["verify", "--suite", "nope"], ["verify", "--grid", "3"],
        ["verify", "--family", "T1"],
    ]

    # (option, value) pairs and single tokens, valid and not
    PAIRS = [
        ("--family", "T1"), ("--family", "T9"), ("--fam", "T5"), ("--f", "T1"),
        ("--format", "csv"), ("--format", "xml"), ("--out", "out.txt"),
        ("--m", "1"), ("--m", "1..8"), ("--m", "x"), ("--x", "-0.25pi"), ("--x", "0.3"),
        ("--grid", "3"), ("--grid", "-3"), ("--suite", "all"),
        ("--suite", "nope"),
    ]
    SINGLES = [("--",), ("-h",), ("--help",), ("extra",), ("--bogus",), ("sweep",),
               ("--family",), ("--x",)]
    REQUIRED = {
        "eval": [("--family", "T1"), ("--m", "1"), ("--x", "0.3")],
        "compare": [("--family", "T3"), ("--m", "2")],
        "sweep": [("--family", "T3"), ("--m", "1..8")],
    }

    @staticmethod
    def _outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = ("namespace", vars(parse(argv)))
            except SystemExit as exc:
                result = ("exit", exc.code)
        return result, out.getvalue(), err.getvalue()

    def assert_same_parse(self, tokens):
        argv = _join_x(tokens)
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            want = self._outcome(lambda a: build_parser().parse_args(a), argv)
            got = self._outcome(parse_args, argv)
        assert got == want, tokens

    @pytest.mark.parametrize("tokens", CORPUS)
    def test_corpus(self, tokens):
        self.assert_same_parse(tokens)

    @st.composite
    def _argvs(draw, pairs=PAIRS, singles=SINGLES, required=REQUIRED):
        # most start with a command, and most of those give its required options
        command = draw(st.sampled_from(
            [*cli.COMMANDS] * 3 + ["bogus", "-h", "--fam", "--", "-0.25pi"]))
        groups = draw(st.lists(st.sampled_from(pairs + singles), max_size=4))
        if command in required and draw(st.sampled_from([True, True, False])):
            groups += required[command]
        groups = draw(st.permutations(groups))
        return [command, *(token for group in groups for token in group)]

    @given(_argvs())
    @settings(max_examples=150, deadline=None)
    def test_token_sequences(self, tokens):
        self.assert_same_parse(tokens)

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        sweep = ["sweep", "--family", "T1", "--m", "1..8", "--grid", "3", "--format", "csv"]
        assert run_cli(sweep, capsys)[0] == 0
        assert built == ["trigzeta", *(f"trigzeta {name}" for name in cli.COMMANDS)]
        built.clear()
        assert run_cli(sweep, capsys)[0] == 0
        assert run_cli(["eval", "--family", "T2", "--m", "1", "--x", "0.3"], capsys)[0] == 0
        assert built == []

    def test_main_reuses_the_parser(self, capsys):
        # errors and help leave the reused parser as a fresh one would be
        argvs = [
            ["sweep", "--family", "T9", "--m", "1"],
            ["-h"],
            ["sweep", "--family", "T1", "--m", "1..2", "--grid", "3", "--format", "csv"],
            ["eval", "--family", "T1", "--m", "1", "--x", "0.5pi"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def fresh(argv):
            cli._parser.cache_clear()
            return outcome(argv)

        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            want = [fresh(argv) for argv in argvs]
            cli._parser.cache_clear()
            got = [outcome(argv) for argv in argvs]
        assert [code for code, _, _ in want] == [2, 0, 0, 0]
        assert got == want


# `trigzeta -h` and `trigzeta <command> -h` at COLUMNS=80, as argparse prints
# them on Python 3.10-3.12: an option dropped, renamed or moved changes them
HELP = {
    "": """\
usage: trigzeta [-h] {eval,compare,sweep,verify} ...

Closed forms of trigonometric series over Hurwitz zeta derivatives, with
independent summation oracles.

positional arguments:
  {eval,compare,sweep,verify}
    eval                closed form at one point
    compare             closed form vs oracle on a grid
    sweep               compare over a weight range, CSV/JSON
    verify              run property suites

options:
  -h, --help            show this help message and exit
""",
    "eval": """\
usage: trigzeta eval [-h] --family {T1,T2,T3,T4,T5,T6,T7,T8}
                     [--format {csv,json,text}] [--out OUT] --m M --x X

options:
  -h, --help            show this help message and exit
  --family {T1,T2,T3,T4,T5,T6,T7,T8}
  --format {csv,json,text}
  --out OUT             write output to this file
  --m M
  --x X                 number or pi-multiple, e.g. 0.5pi
""",
    "compare": """\
usage: trigzeta compare [-h] --family {T1,T2,T3,T4,T5,T6,T7,T8}
                        [--format {csv,json,text}] [--out OUT] --m M
                        [--grid GRID]

options:
  -h, --help            show this help message and exit
  --family {T1,T2,T3,T4,T5,T6,T7,T8}
  --format {csv,json,text}
  --out OUT             write output to this file
  --m M
  --grid GRID
""",
    "sweep": """\
usage: trigzeta sweep [-h] --family {T1,T2,T3,T4,T5,T6,T7,T8}
                      [--format {csv,json,text}] [--out OUT] --m M
                      [--grid GRID]

options:
  -h, --help            show this help message and exit
  --family {T1,T2,T3,T4,T5,T6,T7,T8}
  --format {csv,json,text}
  --out OUT             write output to this file
  --m M                 weight range: 2, 1..3, or 1,2,3
  --grid GRID
""",
    "verify": """\
usage: trigzeta verify [-h] [--format {csv,json,text}] [--out OUT]
                       [--suite {special-values,identities,choi-srivastava,table2,all}]

options:
  -h, --help            show this help message and exit
  --format {csv,json,text}
  --out OUT             write output to this file
  --suite {special-values,identities,choi-srivastava,table2,all}
""",
}


@pytest.mark.parametrize("command", HELP)
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"] if command else ["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


# digit-free text: float() reads none of it as a finite number, and
# without p/i none of it ends in the pi suffix
_NO_NUMBER = st.text(st.characters(
    blacklist_categories=("Nd", "Cs"), blacklist_characters="\x00pPiI"))
# the tolerances --tol and $TRIGZETA_TOL once took, and the text they refused
_ANY_TOL = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-400"]),
    st.floats(max_value=0.0).map(repr),
    _NO_NUMBER,
)
_BAD_GRID = st.one_of(
    st.integers(max_value=0), st.integers(min_value=MAX_GRID + 1)).map(str)
_BAD_X = st.one_of(  # every interval lies inside (-7, 7)
    st.floats(min_value=7.0).map(repr),
    st.floats(max_value=-7.0).map(repr),
    st.sampled_from(["nan", "nanpi", "1e400", "2pipi", "1..2"]),
    _NO_NUMBER,
)
_BAD_M = st.one_of(
    st.lists(st.integers(), min_size=1)
    .filter(lambda ms: not all(1 <= m <= 8 for m in ms))
    .map(lambda ms: ",".join(map(str, ms))),
    st.tuples(st.integers(), st.integers())
    .filter(lambda p: not 1 <= p[0] <= p[1] <= 8)
    .map(lambda p: f"{p[0]}..{p[1]}"),
    _NO_NUMBER,
)


def _run_main(argv):
    """main()'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_rejected(argv):
    """main() exits 2 with a single error line and raises nothing."""
    code, _, err = _run_main(argv)
    assert code == 2, argv
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestHostileInput:
    @pytest.mark.parametrize("argv", [
        ["eval", "--family", "T1", "--m", "1", "--x", "abc"],
        ["sweep", "--family", "T1", "--m", "x"],
        ["compare", "--family", "T1", "--m", "1", "--grid", "0"],
        ["sweep", "--family", "T1", "--m", "1", "--grid", "-3"],
        ["sweep", "--family", "T1", "--m", "1..100000000000"],
        ["sweep", "--family", "T4", "--m=--", "--grid", "1"],
        ["eval", "--family", "T1", "--m", "1", "--x=--"],
    ])
    def test_reproduced_cases(self, argv):
        assert_rejected(argv)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--family=--", "--m", "1"],
        ["sweep", "--family", "T1", "--m", "1", "--format=--"],
        ["sweep", "--family", "T1", "--m", "1", "--grid=--"],
        ["verify", "--suite=--"],
    ])
    def test_double_dash_value_is_checked(self, argv, capsys):
        # argparse before Python 3.13 stores [] for --opt=--, past its
        # choices and type checks
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--tol", "1e-6"],
        ["eval", "--family", "T1", "--m", "1", "--x", "1", "--tol", "1e-6"],
    ])
    def test_tol_only_where_read(self, argv, capsys):
        # eval and verify never read a tolerance, so they do not accept one
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    @given(st.sampled_from(["compare", "sweep"]), _ANY_TOL)
    @settings(max_examples=40, deadline=None)
    def test_bad_tol(self, command, tol):
        # no command takes a tolerance: argparse refuses --tol, whatever its value
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main([command, "--family", "T2", "--m", "1", "--grid", "1", f"--tol={tol}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol=" in err.getvalue()

    @given(_ANY_TOL)
    @settings(max_examples=40, deadline=None)
    def test_bad_env_tol(self, tol):
        # no command reads $TRIGZETA_TOL: whatever it holds, the bytes and
        # exit code are those of a run without it
        argv = ["compare", "--family", "T2", "--m", "1", "--grid", "1"]
        want = _run_main(argv)
        with mock.patch.dict(os.environ, {"TRIGZETA_TOL": tol}):
            assert _run_main(argv) == want

    @given(st.sampled_from(["compare", "sweep"]), _BAD_GRID)
    @settings(max_examples=40, deadline=None)
    def test_bad_grid(self, command, grid):
        assert_rejected([command, "--family", "T3", "--m", "1", f"--grid={grid}"])

    @given(st.sampled_from(FAMILIES), _BAD_X)
    @settings(max_examples=40, deadline=None)
    def test_bad_x(self, family, x):
        assert_rejected(["eval", "--family", family, "--m", "1", f"--x={x}"])

    @given(_BAD_M)
    @settings(max_examples=40, deadline=None)
    def test_bad_weights(self, weights):
        assert_rejected(["sweep", "--family", "T4", "--m=" + weights, "--grid", "1"])
