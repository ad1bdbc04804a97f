"""Independent checks and workload generation."""

import json
from pathlib import Path

import pytest

from oracle import Oracle, digest, key_of, prefix_by_convolution
from workloads import EXACT_STRATA, BOUNDS_STRATA, grid_n, shape_pool, shape_reports

HERE = Path(__file__).resolve().parent


def expand(t, m):
    """Coefficients of (1-z)^t (1+z)^m by repeated multiplication."""
    coeffs = [1]
    for sign, times in ((-1, t), (1, m)):
        for _ in range(times):
            coeffs = [a + sign * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("m, n", [(2, 1), (9, 8), (24, 12), (40, 10), (101, 100), (300, 37)])
def test_convolution_prefix_matches_expansion(m, n):
    coeffs = expand(m - n, m)
    d = next(k for k, c in enumerate(coeffs) if c <= 0)
    assert prefix_by_convolution(m, n) == coeffs[:d]


def test_oracle_rejects_a_wrong_d_reg_even_with_a_matching_digest():
    text = "d_reg = 5\ncoefficients (degrees 0..4): 1 12 54 100 0\n"
    argv = ["exact", "24", "12", "--coefficients"]
    oracle = Oracle(HERE.parent, {"outputs": {key_of(argv): digest(text)},
                                  "verify_checked": {}})
    assert "convolution gives 4" in oracle.check(argv, 0, text)
    assert oracle.check(argv, 0, text + " ") == "stdout differs from the golden output"
    assert oracle.check(argv, 1, text) == "exit status 1"


def test_verify_that_checked_less_than_recorded_fails():
    lines = [f"{s}: PASS (1 cases)" for s in ("a", "b", "c", "d", "e", "f")]
    text = "\n".join(lines + ["6/6 suites passed"]) + "\n"
    recorded = {s: 2 for s in "abcdef"}
    oracle = Oracle(HERE.parent, {"outputs": {"verify 60": digest(text)},
                                  "verify_checked": {"60": recorded}})
    assert "recorded" in oracle.check(["verify", "60"], 0, text)


def test_grid_is_round_8_times_2_to_the_i_over_16():
    assert [grid_n(i) for i in range(129)] == [round(8 * 2 ** (i / 16)) for i in range(129)]


def test_shape_reports_are_seeded_stratified_and_recorded():
    golden = json.loads((HERE / "golden.json").read_text())["outputs"]
    first = shape_reports(1)
    assert first == shape_reports(1) and first != shape_reports(2)
    assert len(first) == 9 * (BOUNDS_STRATA + EXACT_STRATA)
    assert sum(argv[0] == "exact" for argv in first) == 9 * EXACT_STRATA
    pool = {key_of(argv) for argv in shape_pool()}
    for seed in range(5):
        assert {key_of(argv) for argv in shape_reports(seed)} <= pool
    assert pool <= set(golden)
