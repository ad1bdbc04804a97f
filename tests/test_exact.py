"""Tests for the exact coefficient stream and degree of regularity."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from semireg.exact import (
    SystemShape,
    binomial,
    coefficient,
    degree_of_regularity_exact,
    f5_cost_log2,
    hilbert_truncation,
)

from oracle_utils import convolution_coefficient, expand_product, pascal_binomial


# ---------------------------------------------------------------- shapes


def test_shape_derived_quantities():
    s = SystemShape(24, 12)
    assert (s.N, s.t) == (36, 12)


@pytest.mark.parametrize("m,n", [(12, 24), (5, 5), (1, 1), (3, 0), (2, -1), (3, True)])
def test_shape_rejects_non_overdetermined(m, n):
    with pytest.raises(ValueError):
        SystemShape(m, n)


# ---------------------------------------------------------------- binomial


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0


def test_binomial_rejects_negative_a():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_against_pascal_triangle():
    # derived value fixed by the addition-only oracle
    assert pascal_binomial(36, 4) == 58905
    assert binomial(36, 4) == 58905
    for a in range(0, 20):
        for b in range(0, a + 1):
            assert binomial(a, b) == pascal_binomial(a, b)


# ---------------------------------------------------------------- coefficients


def test_coefficient_examples():
    s = SystemShape(24, 12)
    assert coefficient(s, 0) == 1
    assert coefficient(s, 1) == 12
    assert coefficient(s, 4) == -231


def test_coefficient_matches_brute_force_expansion():
    for m, n in [(24, 12), (2, 1), (10, 4), (7, 6), (9, 3)]:
        s = SystemShape(m, n)
        expansion = expand_product(s.t, m)
        assert len(expansion) == s.N + 1
        for k in range(s.N + 1):
            assert coefficient(s, k) == expansion[k]


def test_coefficient_index_errors():
    s = SystemShape(24, 12)
    with pytest.raises(ValueError):
        coefficient(s, -1)
    with pytest.raises(ValueError):
        coefficient(s, 37)


def test_recurrence_equals_convolution_exhaustive_small():
    # all shapes with N <= 30, every index
    for n in range(1, 29):
        m = n + 1
        while 2 * m - n <= 30:
            s = SystemShape(m, n)
            for k in range(s.N + 1):
                assert coefficient(s, k) == convolution_coefficient(m, n, k)
            m += 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 29), st.data())
def test_recurrence_equals_convolution_sampled(n, data):
    m = data.draw(st.integers(n + 1, (60 + n) // 2))
    s = SystemShape(m, n)
    k = data.draw(st.integers(0, s.N))
    assert coefficient(s, k) == convolution_coefficient(m, n, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
def test_first_two_coefficients_and_dreg_floor(n, extra):
    s = SystemShape(n + extra, n)
    assert coefficient(s, 0) == 1
    assert coefficient(s, 1) == n
    assert degree_of_regularity_exact(s) >= 2


# ---------------------------------------------------------------- truncation


def test_hilbert_truncation_quartic_shape():
    assert hilbert_truncation(SystemShape(24, 12)) == [1, 12, 54, 76]


def test_hilbert_truncation_minimal_shape():
    prefix = hilbert_truncation(SystemShape(2, 1))
    assert prefix[:2] == [1, 1]


def test_hilbert_truncation_large_row():
    assert len(hilbert_truncation(SystemShape(512, 256))) == 29


def test_truncation_entries_positive_and_stop_is_nonpositive():
    for m, n in [(24, 12), (9, 2), (40, 39), (17, 8)]:
        s = SystemShape(m, n)
        prefix = hilbert_truncation(s)
        assert all(c > 0 for c in prefix)
        assert coefficient(s, len(prefix)) <= 0
        assert degree_of_regularity_exact(s) == len(prefix)


def test_degree_examples():
    assert degree_of_regularity_exact(SystemShape(24, 12)) == 4
    assert degree_of_regularity_exact(SystemShape(356, 256)) == 48
    assert degree_of_regularity_exact(SystemShape(2048, 256)) == 8


def test_zero_coefficient_counts_as_truncation():
    # (1-z)(1+z)^2 = 1 + z - z^2 - z^3 has no zero, so build one explicitly:
    # a shape whose first non-positive coefficient is exactly 0 must stop there.
    for n in range(1, 40):
        for m in range(n + 1, 42):
            s = SystemShape(m, n)
            d = degree_of_regularity_exact(s)
            if coefficient(s, d) == 0:
                assert len(hilbert_truncation(s)) == d
                return
    pytest.skip("no zero-coefficient shape in the scanned range")


# ---------------------------------------------------------------- F5 cost


def test_f5_cost_trivial_identity():
    s = SystemShape(24, 12)
    assert f5_cost_log2(s, 1, omega=1.0) == pytest.approx(math.log2(24 * 12))


def test_f5_cost_quartic_shape():
    # frozen from direct big-integer evaluation: C(15, 4) = 1365
    expected = math.log2(24) + math.log2(4) + 2.373 * math.log2(1365)
    got = f5_cost_log2(SystemShape(24, 12), 4)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(31.29901056529168, abs=1e-9)


def test_f5_cost_large_row_high_precision_oracle():
    import mpmath

    mpmath.mp.dps = 60
    c = math.comb(284, 29)
    expected = mpmath.log(512 * 29 * mpmath.mpf(c) ** mpmath.mpf("2.373"), 2)
    got = f5_cost_log2(SystemShape(512, 256), 29)
    assert abs(got - float(expected)) < 1e-8


def test_f5_cost_rejects_bad_dreg():
    with pytest.raises(ValueError):
        f5_cost_log2(SystemShape(24, 12), 0)
