"""CLI behaviour: output formats, determinism, exit codes."""

import csv
import io
import json

import pytest

import semireg.exact
from semireg.cli import ALL_COLUMNS, build_table_spec, floor_n_log2_n, main


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

    def fake_run_all(max_N, width=None):  # run_all's signature: a stale keyword fails
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
    # the quartic's float seed overflows or cancels at such i1 and is refused;
    # the certified bound is still reported, and the sandwich breaks loudly
    code, out, err = run_cli(capsys, "bounds", "24", "12", "--airy-i1", i1)
    assert code == 1
    assert "LS lower >= " in out
    assert "sandwich" in out and "VIOLATED" in out
    assert err == ""


@pytest.mark.parametrize("option", [["--airy-radius", "10"], ["--airy-i1", "1e-6"]])
def test_airy_radius_reaching_i1_is_an_error(capsys, option):
    code, out, err = run_cli(capsys, "bounds", "24", "12", *option)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_airy_i1_overflowing_curve_is_an_error(capsys):
    code, out, err = run_cli(capsys, "bounds", "24", "12", "--curve", "--airy-i1", "1e400")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
