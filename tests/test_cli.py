"""CLI behaviour: output formats, determinism, exit codes, and the parser and
JSON writer against argparse's and json's own output."""

import argparse
import csv
import enum
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import semireg.cli
import semireg.exact
import semireg.krawtchouk
from semireg.bounds import DEFAULT_AIRY
from semireg.cli import ALL_COLUMNS, build_table_spec, compute_row, floor_n_log2_n, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- exact


def test_exact_report(capsys):
    code, out, _ = run_cli(capsys, "exact", "24", "12")
    assert code == 0
    assert out == "d_reg = 4\n"


def test_exact_with_coefficients(capsys):
    code, out, _ = run_cli(capsys, "exact", "24", "12", "--coefficients")
    assert code == 0
    assert "1 12 54 76" in out


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_exact_prints_coefficients_past_the_int_to_str_limit(capsys):
    # at the least limit, 640 digits, this command stopped after d_reg
    shape = semireg.exact.SystemShape(2200, 2199)
    limit = sys.get_int_max_str_digits()
    prefix = semireg.exact.hilbert_truncation(shape)
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(c) for c in prefix]
        sys.set_int_max_str_digits(640)
        code, out, err = run_cli(capsys, "exact", "2200", "2199", "--coefficients")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert max(map(len, expected)) > 640
    first, second = out.splitlines()
    assert first == "d_reg = 1101"
    assert second == f"coefficients (degrees 0..{len(prefix) - 1}): " + " ".join(expected)


def test_a_reader_closing_stdout_ends_the_command_quietly():
    # 3.9 MB of coefficients into a pipe whose reader leaves after 10 bytes
    env = {**os.environ, "PYTHONPATH": str(Path(semireg.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "semireg.cli", "exact", "6001", "6000",
                             "--coefficients"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"d_reg = 30"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (141, b"")


def test_exact_rejects_bad_shape(capsys):
    code, out, err = run_cli(capsys, "exact", "12", "24")
    assert code == 2
    assert "m > n" in err
    assert out == ""


# ---------------------------------------------------------------- bounds


def test_bounds_report(capsys):
    code, out, _ = run_cli(capsys, "bounds", "512", "256")
    assert code == 0
    assert "d_reg exact = 29" in out
    assert "KZ lower >= 22" in out
    assert "LS lower >= 28" in out
    assert "LS upper <= 100" in out
    assert "L  upper <= 46" in out
    assert "sandwich 22 <= 28 <= 29 <= 46 <= 100 : OK" in out


def test_bounds_and_the_sandwich_suite_take_one_verdict(capsys, monkeypatch):
    import semireg.verify

    def violated(dreg, *outcomes):
        return 1, None, False

    monkeypatch.setattr(semireg.cli, "sandwich_verdict", violated)
    monkeypatch.setattr(semireg.verify, "sandwich_verdict", violated)
    code, out, _ = run_cli(capsys, "bounds", "24", "12")
    assert code == 1
    assert out.splitlines()[-1].endswith(": VIOLATED")
    res = semireg.verify.check_sandwich([semireg.exact.SystemShape(24, 12)])
    assert (res.passed, res.checked) == (False, 0)
    assert res.detail.startswith("violated at m=24, n=12: d_reg=4, ")


def test_shapes_past_sys_maxsize(capsys):
    # t = 10^20 - 4 bounds the coefficient stream past sys.maxsize; c_2 = 6 - t < 0
    code, out, _ = run_cli(capsys, "exact", str(10**20), "4")
    assert (code, out) == (0, "d_reg = 2\n")
    code, out, _ = run_cli(capsys, "bounds", str(10**20), "4")
    assert code == 0
    assert "L  upper <= 3" in out
    assert "sandwich 1 <= 1 <= 2 <= 3 <= 3 : OK" in out


@pytest.mark.parametrize("m,n", [(2**150 + 3, 2**150), (10**309 + 1, 10**309)],
                         ids=["seed-off-past-maxsize", "past-float-range"])
def test_shapes_past_the_float_range(capsys, m, n):
    # the transposed search's float seed is off by more than sys.maxsize at
    # 2^150 and cannot be formed past about 1.8e308
    code, out, _ = run_cli(capsys, "exact", str(m), str(n))
    assert code == 0
    assert out.startswith("d_reg = ")
    d_reg = out.split()[-1]
    code, out, _ = run_cli(capsys, "bounds", str(m), str(n))
    assert code == 0
    assert f"d_reg exact = {d_reg}\n" in out
    assert "L  upper: not applicable (sextic_max_negative)" in out


def test_bounds_reports_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "bounds", "356", "256")
    assert code == 0
    assert "not applicable (negative_discriminant)" in out


def test_bounds_curve_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "24", "12", "--curve")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "kz_lower_bound", "ls_lower_bound",
                       "ls_upper_bound", "l_upper_bound"]
    assert len(rows) == 1 + 18  # k = 1 .. N/2
    k3 = rows[3]
    assert abs(float(k3[1]) - 12.2919) < 1e-3
    assert abs(float(k3[2]) - 12.4676) < 1e-3


# ---------------------------------------------------------------- table


def test_table_markdown_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "2n",
                           "--n-values", "256", "--format", "md")
    assert code == 0
    assert "| 256 | 512 |    29 |       22 |       28 |      100 |      46 |" in out


def test_table_nlog2n_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "nlog2n",
                           "--n-values", "256", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["256", "2048", "8", "5", "8", "20", "14"]


def test_table_families_read_signs_only(capsys, monkeypatch):
    # d_reg needs only signs: the published sweep never runs the divided stream
    calls = []
    stream = semireg.exact.krawtchouk_stream

    def counted(N, s):
        calls.append((N, s))
        return stream(N, s)

    monkeypatch.setattr(semireg.exact, "krawtchouk_stream", counted)
    monkeypatch.setattr(semireg.krawtchouk, "krawtchouk_stream", counted)
    for family in ("n+100", "n+256", "2n", "8n", "nlog2n"):
        code, out, _ = run_cli(capsys, "table", "--family", family, "--n-values",
                               "256,512,1024,2048,4096,8192,16384,32768", "--format", "json",
                               "--columns", "dreg,kz_lower,ls_lower,ls_upper,l_upper,f5_log2,"
                                            "ls_asymptotic")
        assert code == 0 and len(json.loads(out)["rows"]) == 8
    assert calls == []


_EXPLICIT_ALL_COLUMNS = ("table", "--family", "explicit", "--pairs", "2:1,12:8,40:39,43:35",
                         "--columns", ",".join(ALL_COLUMNS), "--airy-radius", "1/1000")


@pytest.mark.parametrize("argv,expected", [
    (_EXPLICIT_ALL_COLUMNS + ("--format", "md"),
     "family: explicit\n"
     "\n"
     "|  n |  m | d_reg | KZ_lower | LS_lower | LS_upper | L_upper | F5_log2 | LS_asymptotic |\n"
     "|---:|---:|------:|---------:|---------:|---------:|--------:|--------:|--------------:|\n"
     "|  1 |  2 |     2 |        1 |        2 |        3 |       - |    2.00 |          0.08 |\n"
     "|  8 | 12 |     4 |        2 |        4 |        8 |       9 |   25.44 |          1.00 |\n"
     "| 35 | 43 |    12 |        7 |      10? |        - |       - |   92.49 |          6.00 |\n"
     "| 39 | 40 |    21 |       15 |       14 |        - |       - |  133.60 |          9.27 |\n"),
    (_EXPLICIT_ALL_COLUMNS + ("--format", "csv"),
     "n,m,d_reg,KZ_lower,LS_lower,LS_upper,L_upper,F5_log2,LS_asymptotic\n"
     "1,2,2,1,2,3,-,2.00,0.08\n"
     "8,12,4,2,4,8,9,25.44,1.00\n"
     "35,43,12,7,10?,-,-,92.49,6.00\n"
     "39,40,21,15,14,-,-,133.60,9.27\n"),
    (("table", "--family", "nlog2n", "--n-values", "16", "--format", "md"),
     "family: m=n*log2(n)\n"
     "\n"
     "|  n |  m | d_reg | KZ_lower | LS_lower | LS_upper | L_upper |\n"
     "|---:|---:|------:|---------:|---------:|---------:|--------:|\n"
     "| 16 | 64 |     3 |        1 |        3 |        5 |       6 |\n"
     "\n"
     "m rounding: floor\n"),
    (("table", "--family", "nlog2n", "--n-values", "16", "--format", "csv"),
     "n,m,d_reg,KZ_lower,LS_lower,LS_upper,L_upper\n"
     "16,64,3,1,3,5,6\n"
     "# m_rounding: floor\n"),
], ids=["explicit-md", "explicit-csv", "nlog2n-md", "nlog2n-csv"])
def test_table_md_and_csv_bytes(capsys, argv, expected):
    # '-' cells from (2, 1) and (40, 39), the near-boundary '?' of (43, 35)
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_cells_look_their_functions_up_when_called(monkeypatch):
    names = ("kz_lower", "ls_lower", "ls_upper", "l_upper", "degree_of_regularity_exact",
             "f5_cost_log2", "ls_lower_asymptotic")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _real=getattr(semireg.cli, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(semireg.cli, name, counting)
    compute_row(24, 12, ALL_COLUMNS, DEFAULT_AIRY)
    assert calls == dict.fromkeys(names, 1)


def test_table_not_applicable_renders_dash(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "n+100",
                           "--n-values", "256", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][5] == "-"  # LS_upper column


@pytest.mark.parametrize("argv", [
    ("--family", "2n", "--n-values", ""),
    ("--family", "2n"),
    ("--family", "n+100", "--n-values", " , "),
], ids=["empty", "absent", "blank-chunks"])
def test_table_empty_n_values_refused(capsys, argv):
    # a sweep with no rows is a usage error, not an empty table
    code, out, err = run_cli(capsys, "table", *argv, "--format", "csv")
    assert code == 2
    assert out == ""
    assert "--n-values" in err


@pytest.mark.parametrize("argv", [("--pairs", ""), ("--pairs", ","), ()],
                         ids=["empty", "blank-chunks", "absent"])
def test_table_explicit_without_pairs_refused(capsys, argv):
    code, out, err = run_cli(capsys, "table", "--family", "explicit", *argv)
    assert code == 2
    assert out == ""
    assert "--pairs" in err


@pytest.mark.parametrize("argv,unread", [
    (("--family", "explicit", "--pairs", "24:12", "--n-values", "5"), "--n-values"),
    (("--family", "2n", "--n-values", "64", "--pairs", "24:12"), "--pairs"),
], ids=["explicit-n-values", "generated-pairs"])
def test_table_refuses_unread_option(capsys, argv, unread):
    # an option the family does not read is an error, not silently dropped
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"does not read {unread}" in err


def test_table_output_deterministic_all_formats(capsys):
    for fmt in ("md", "csv", "json"):
        args = ("table", "--family", "8n", "--n-values", "256,512", "--format", fmt)
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "2n",
                           "--n-values", "256,512", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2) + "\n" == out
    assert doc["family"] == "m=2n"
    row = doc["rows"][0]
    assert row["cells"]["dreg"] == 29
    assert row["cells"]["ls_upper"]["value"] == 100
    assert row["cells"]["kz_lower"]["near_boundary"] is False


def test_table_json_null_with_reason(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "n+100",
                           "--n-values", "256", "--format", "json")
    doc = json.loads(out)
    cell = doc["rows"][0]["cells"]["ls_upper"]
    assert cell["value"] is None
    assert cell["reason"] == "negative_discriminant"


def test_table_json_writer_is_json_dumps(monkeypatch, capsys):
    # the explicit table whose (40, 39) row has an inapplicable bound (a reason
    # string) and whose (43, 35) row a near-boundary ls_lower under
    # --airy-radius 1/1000; tests/test_golden.py pins the benchmark's tables
    docs, write = [], semireg.cli._json_text
    monkeypatch.setattr(semireg.cli, "_json_text", lambda doc: docs.append(doc) or write(doc))
    code, out, err = run_cli(capsys, *_EXPLICIT_ALL_COLUMNS, "--format", "json")
    [doc] = docs
    assert (code, err, out) == (0, "", json.dumps(doc, indent=2) + "\n")
    cells = {row["m"]: row["cells"] for row in doc["rows"]}
    assert cells[40]["ls_upper"]["reason"] == "negative_discriminant"
    assert cells[43]["ls_lower"]["near_boundary"] is True


# every scalar json writes (floats with NaN and +-inf, strings with control,
# non-ASCII and lone surrogate characters), nested in lists, tuples and
# str-keyed dicts
_JSON_TEXT = st.text(st.characters(exclude_categories=()))
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert semireg.cli._json_text(doc) == json.dumps(doc, indent=2)


class _Shouting(float):
    def __repr__(self):
        return "SHOUT"


def test_json_writer_spells_int_and_float_subclasses_as_json_does():
    # by int.__repr__ and float.__repr__, not by the subclass's own repr
    doc = {"flag": enum.IntFlag("Flag", "A B").B, "float": _Shouting(0.5), "bool": True}
    assert semireg.cli._json_text(doc) == json.dumps(doc, indent=2)
    assert '"flag": 2' in semireg.cli._json_text(doc)


@pytest.mark.parametrize("doc", [{1: 2}, [Fraction(1, 2)], {"a": {1, 2}}],
                         ids=["int-key", "fraction", "set"])
def test_json_writer_refuses_what_it_cannot_write(doc):
    # json.dumps would write the int key as "1"; the table's keys are all str
    with pytest.raises(TypeError):
        semireg.cli._json_text(doc)


def test_table_explicit_pairs_and_extra_columns(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "explicit",
                           "--pairs", "24:12", "--columns",
                           "dreg,f5_log2,ls_asymptotic", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "m", "d_reg", "F5_log2", "LS_asymptotic"]
    assert rows[1] == ["12", "24", "4", "31.30", "1.00"]


def test_table_repeated_rows_printed_once(capsys):
    # a repeated --pairs entry is one row, as a repeated --n-values entry is
    _, once, _ = run_cli(capsys, "table", "--family", "explicit", "--pairs", "8:4")
    code, out, _ = run_cli(capsys, "table", "--family", "explicit", "--pairs", "8:4,8:4")
    assert code == 0 and out == once
    _, once, _ = run_cli(capsys, "table", "--family", "2n", "--n-values", "4")
    code, out, _ = run_cli(capsys, "table", "--family", "2n", "--n-values", "4,4")
    assert code == 0 and out == once


def test_table_repeated_column_printed_once(capsys):
    _, once, _ = run_cli(capsys, "table", "--family", "2n", "--n-values", "8",
                         "--columns", "dreg")
    code, out, _ = run_cli(capsys, "table", "--family", "2n", "--n-values", "8",
                           "--columns", "dreg,dreg")
    assert code == 0 and out == once
    code, out, _ = run_cli(capsys, "table", "--family", "2n", "--n-values", "8",
                           "--columns", "dreg,f5_log2,dreg", "--format", "json")
    assert code == 0 and json.loads(out)["columns"] == ["dreg", "f5_log2"]


def test_table_families_never_build_the_exact_binomial(capsys, monkeypatch):
    # the F5 column of the published sweep comes from lgamma, not from C(a, b)
    calls, binomial = [], semireg.exact.binomial
    monkeypatch.setattr(semireg.exact, "binomial",
                        lambda a, b: calls.append((a, b)) or binomial(a, b))
    for family in ("n+100", "n+256", "2n", "8n", "nlog2n"):
        code, _, _ = run_cli(capsys, "table", "--family", family,
                             "--n-values", "256,512,1024,2048,4096,8192,16384,32768",
                             "--columns", ",".join(ALL_COLUMNS), "--format", "json")
        assert code == 0
    assert calls == []


def test_table_rejects_bad_family(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "kn", "--n-values", "16")
    assert code == 2
    assert "family" in err


def test_table_rejects_invalid_generated_shape(capsys):
    # n = 2 gives m = n log2(n) = 2 = n: not overdetermined
    code, _, err = run_cli(capsys, "table", "--family", "nlog2n", "--n-values", "2")
    assert code == 2
    assert "m > n" in err


@pytest.mark.parametrize("pairs", ["5", "5:x,24:12", "24:12:3"])
def test_table_rejects_malformed_pairs(capsys, pairs):
    code, out, err = run_cli(capsys, "table", "--family", "explicit", "--pairs", pairs)
    assert code == 2
    assert out == ""
    assert "--pairs" in err and "M:N" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("n_values", ["8,x", "256;512", "2.5"])
def test_table_rejects_malformed_n_values(capsys, n_values):
    code, out, err = run_cli(capsys, "table", "--family", "2n", "--n-values", n_values)
    assert code == 2
    assert out == ""
    bad = n_values.split(",")[-1]
    assert f"bad --n-values entry {bad!r}" in err and "integer" in err
    assert "invalid literal" not in err


def test_table_rejects_unknown_column(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "2n",
                           "--n-values", "16", "--columns", "bogus")
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize("columns", ["", ",", " , "])
def test_table_rejects_an_empty_column_list(capsys, columns):
    # an empty list names --columns instead of falling back to the defaults
    code, out, err = run_cli(capsys, "table", "--family", "2n",
                             "--n-values", "16", "--columns", columns)
    assert code == 2 and out == ""
    assert "--columns requires at least one of" in err
    with pytest.raises(ValueError, match="--columns"):
        build_table_spec("2n", [16], [])


def test_floor_n_log2_n_exact():
    import math

    assert floor_n_log2_n(256) == 2048
    assert floor_n_log2_n(1000) == math.floor(1000 * math.log2(1000))
    for n in (2, 3, 5, 17, 100, 1024):
        assert floor_n_log2_n(n) == math.floor(n * math.log2(n))


def test_build_table_spec_orders_rows_by_n():
    spec = build_table_spec("2n", [512, 256], ["dreg"])
    assert [n for _, n in spec.pairs] == [256, 512]
    assert spec.m_rounding is None
    spec2 = build_table_spec("nlog2n", [256], ["dreg"])
    assert spec2.m_rounding == "floor"


# ---------------------------------------------------------------- verify


def test_verify_small_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "12")
    assert code == 0
    assert "6/6 suites passed" in out


def test_verify_128_prints_its_recorded_bytes(capsys):
    # the md5 of the whole stdout, recorded before the two-degree sign kernel;
    # the benchmark's golden file pins only `verify 60`
    code, out, err = run_cli(capsys, "verify", "128")
    assert (code, err) == (0, "")
    assert hashlib.md5(out.encode()).hexdigest() == "efc475475e0b7076eaba04df8ad295de"


@pytest.mark.parametrize("max_n", ["0", "-3", "1", "2"])
def test_verify_trivial_max_n(capsys, max_n):
    # below 3 some suite would check no case, so nothing may read as PASS
    code, out, err = run_cli(capsys, "verify", max_n)
    assert code == 2
    assert "PASS" not in out
    assert f"MAX_N={max_n}" in err


def test_verify_ceiling_exceeded(capsys):
    code, _, err = run_cli(capsys, "verify", "1000000")
    assert code == 2
    assert "ceiling" in err


def test_verify_reports_failure_exit_code(capsys, monkeypatch):
    from semireg import cli as cli_mod
    from semireg.verify import CheckResult

    def fake_run_all(max_N):  # run_all's signature: a stale keyword fails
        return [CheckResult("interlacing", 3, True),
                CheckResult("sandwich", 7, False, "violated at m=9, n=4")]

    monkeypatch.setattr(cli_mod, "run_all", fake_run_all)
    code, out, _ = run_cli(capsys, "verify", "12")
    assert code == 1
    assert "sandwich: FAIL (7 cases)  violated at m=9, n=4" in out
    assert "1/2 suites passed" in out


def test_airy_override_flag(capsys):
    code, out, _ = run_cli(capsys, "bounds", "512", "256",
                           "--airy-i1", "3.3721341", "--airy-radius", "1e-6")
    assert code == 0
    assert "LS lower >= 28" in out


@pytest.mark.parametrize("i1", ["1/0", "x", "0", "-3"])
def test_airy_i1_rejects_non_positive_rationals(capsys, i1):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "24", "12", "--airy-i1", i1])
    assert exc.value.code == 2
    assert "--airy-i1" in capsys.readouterr().err


@pytest.mark.parametrize("i1", ["1e50", "1e120", "1e400"])
def test_airy_i1_huge_still_certifies_ls_lower(capsys, i1):
    # no float is formed from such i1: the certified bound is still
    # reported, and the sandwich breaks loudly
    code, out, err = run_cli(capsys, "bounds", "24", "12", "--airy-i1", i1)
    assert code == 1
    assert "LS lower >= " in out
    assert "sandwich" in out and "VIOLATED" in out
    assert err == ""


_BOUNDS = ["bounds", "24", "12"]
_TABLE = ["table", "--family", "2n", "--n-values", "12"]


@pytest.mark.parametrize("command,option", [
    pytest.param(_BOUNDS, ["--airy-radius", "10"], id="option0"),
    pytest.param(_BOUNDS, ["--airy-i1", "1e-6"], id="option1"),
    pytest.param(_TABLE, ["--airy-radius", "10"], id="table-option0"),
    pytest.param(_TABLE, ["--airy-i1", "1e-6"], id="table-option1"),
])
def test_airy_radius_reaching_i1_is_an_error(capsys, command, option):
    code, out, err = run_cli(capsys, *command, *option)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_airy_i1_overflowing_curve_is_an_error(capsys):
    code, out, err = run_cli(capsys, "bounds", "24", "12", "--curve", "--airy-i1", "1e400")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------- parser


def _parser_with_argparse_defaults():
    """The semireg parser as argparse builds it by default: no handed
    formatter width, no subcommand prog, and plain `ArgumentParser`
    subparsers, each given its arguments at once from `_SUBCOMMANDS`."""
    parser = argparse.ArgumentParser(prog="semireg",
                                     description=semireg.cli.build_parser().description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in semireg.cli._SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    assert all(type(p) is argparse.ArgumentParser for p in sub.choices.values())
    return parser


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_PARSER_ARGVS = [
    ["-h"], *([command, "-h"] for command in ("exact", "bounds", "table", "verify")),
    [], ["frobnicate"],
    ["exact", "x", "12"], ["bounds", "24", "12", "--frobnicate"], ["exact", "24"],
    ["verify", "10", "--precision", "-1"], ["verify", "10", "--precision", "1/3"],
    ["bounds", "24", "12", "-h"], ["table", "--help"], ["verify", "10", "--ceiling", "x"],
    # argv[0] names no subcommand, so every subparser gets its arguments
    ["--", "bounds", "24", "12"], ["-h", "bounds"], ["bound", "24", "12"],
    # the main parser reports what the bounds subparser left unparsed
    ["bounds"], ["bounds", "24", "12", "13"],
]


@pytest.mark.parametrize("columns", [None, "30", "60", "200"],
                         ids=["COLUMNS-unset", "COLUMNS-30", "COLUMNS-60", "COLUMNS-200"])
def test_parser_prints_what_argparse_defaults_print(monkeypatch, capsys, columns):
    # help, usage and error text, and the exit code, at every terminal width
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    for argv in _PARSER_ARGVS:
        got = _outcome(capsys, argv)
        reference = _parser_with_argparse_defaults()
        with monkeypatch.context() as patch:
            patch.setattr(semireg.cli, "build_parser", lambda argv: reference)
            assert got == _outcome(capsys, argv), argv
        assert got[0] == (0 if {"-h", "--help"} & set(argv) else 2)


def test_parser_asks_the_terminal_once(monkeypatch, capsys):
    calls, size = [], shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    code, out, _ = _outcome(capsys, ["table", "-h"])
    assert code == 0 and out.startswith("usage: semireg table ")
    assert len(calls) == 1


def test_build_parser_adds_the_arguments_of_the_command_argv_names():
    # every subparser is made; the one argv[0] names gets its arguments, and
    # all four do when argv[0] names none
    def dests(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(action.choices) == list(semireg.cli._SUBCOMMANDS)
        assert all(type(p) is argparse.ArgumentParser for p in action.choices.values())
        return {name: [a.dest for a in sub._actions] for name, sub in action.choices.items()}

    every = {"exact": ["help", "m", "n", "coefficients"],
             "bounds": ["help", "m", "n", "curve", "airy_i1", "airy_radius"],
             "table": ["help", "family", "n_values", "pairs", "columns", "format",
                       "precision", "airy_i1", "airy_radius"],
             "verify": ["help", "max_N", "ceiling"]}
    parser = semireg.cli.build_parser(["bounds", "24", "12"])
    assert dests(parser) == {name: every[name] if name == "bounds" else ["help"]
                             for name in every}
    args = parser.parse_args(["bounds", "24", "12"])
    assert (args.command, args.m, args.n, args.func) == ("bounds", 24, 12,
                                                         semireg.cli.cmd_bounds)
    for argv in ([], ["-h"], ["--", "bounds"], ["bound", "24", "12"]):
        assert dests(semireg.cli.build_parser(argv)) == every, argv
    assert dests(semireg.cli.build_parser()) == every
