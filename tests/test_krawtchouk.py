"""Tests for binary Krawtchouk evaluation and the classical identities."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semireg.exact import SystemShape, coefficient, krawtchouk_stream
from semireg.krawtchouk import (
    KrawtchoukParams,
    cleared_values,
    eval_exact,
    eval_integer,
    gf_identity_check,
    integer_values,
)
from semireg.bounds import kz_root_bound
from semireg.roots import _krawtchouk_slope

from oracle_utils import alternating_sum_value, eval_general_r, orthogonality_check


def test_params_validation():
    with pytest.raises(ValueError):
        KrawtchoukParams(0, 0)
    with pytest.raises(ValueError):
        KrawtchoukParams(5, 6)
    with pytest.raises(ValueError):
        KrawtchoukParams(5, -1)


# ---------------------------------------------------------------- evaluation


def test_eval_exact_examples():
    assert eval_exact(KrawtchoukParams(36, 1), 12) == 12
    assert eval_exact(KrawtchoukParams(40, 0), Fraction(7, 3)) == 1
    # degree-2 closed form: ((N - 2t)^2 - N) / 2
    assert eval_exact(KrawtchoukParams(36, 2), 12) == ((36 - 24) ** 2 - 36) // 2 == 54


def test_low_degree_closed_forms_at_generic_rational():
    # closed forms for degrees 1..4 in terms of y = N - 2t
    N = 36
    for t in (Fraction(5, 3), Fraction(12), Fraction(35, 2)):
        y = N - 2 * t
        assert eval_exact(KrawtchoukParams(N, 1), t) == y
        assert eval_exact(KrawtchoukParams(N, 2), t) == (y**2 - N) / 2
        assert eval_exact(KrawtchoukParams(N, 3), t) == (y**3 - (3 * N - 2) * y) / 6
        assert eval_exact(KrawtchoukParams(N, 4), t) == (
            y**4 - (6 * N - 8) * y**2 + 3 * (N - 2) * N
        ) / 24


def test_evaluations_at_threshold_match_closed_forms():
    # the four low-degree values at t = m - n, written in terms of m and n
    m, n = 24, 12
    N, t = 2 * m - n, m - n
    assert eval_exact(KrawtchoukParams(N, 1), t) == n
    assert eval_exact(KrawtchoukParams(N, 2), t) == Fraction(n**2 + n - 2 * m, 2)
    assert eval_exact(KrawtchoukParams(N, 3), t) == Fraction(
        n**3 + 3 * n**2 + 2 * n - 6 * m * n, 6
    )
    assert eval_exact(KrawtchoukParams(N, 4), t) == Fraction(
        n**4 + 6 * n**3 + (11 - 12 * m) * n**2 + (6 - 12 * m) * n + 12 * m * (m - 1),
        24,
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.data())
def test_eval_exact_matches_alternating_sum(N, data):
    k = data.draw(st.integers(0, N))
    t = Fraction(
        data.draw(st.integers(-2 * N, 4 * N)), data.draw(st.integers(1, 7))
    )
    assert eval_exact(KrawtchoukParams(N, k), t) == alternating_sum_value(N, k, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.data())
def test_general_r_recurrence_specializes_to_binary(N, data):
    k = data.draw(st.integers(0, N))
    t = Fraction(data.draw(st.integers(0, 3 * N)), data.draw(st.integers(1, 5)))
    assert eval_general_r(N, k, 2, t) == eval_exact(KrawtchoukParams(N, k), t)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.data())
def test_integer_argument_yields_integer(N, data):
    k = data.draw(st.integers(0, N))
    t = data.draw(st.integers(0, N))
    v = eval_exact(KrawtchoukParams(N, k), t)
    assert v.denominator == 1
    assert eval_integer(N, k, t) == v


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.data())
def test_cleared_kernel_matches_alternating_sum(N, data):
    # B_j = j! d^j K_j(x) at rational x = num/d, s = d (N - 2x), d2 = d^2
    k = data.draw(st.integers(0, N))
    x = Fraction(data.draw(st.integers(-3 * N, 3 * N)), data.draw(st.integers(1, 12)))
    d = x.denominator
    row = cleared_values(N, d * N - 2 * x.numerator, d * d, k)
    assert len(row) == k + 1
    for j, b in enumerate(row):
        assert b == math.factorial(j) * d ** j * alternating_sum_value(N, j, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.data())
def test_stream_matches_alternating_sum(N, data):
    x = data.draw(st.integers(-N, 2 * N))
    row = list(krawtchouk_stream(N, N - 2 * x))
    assert row == [alternating_sum_value(N, k, x) for k in range(N + 1)]


def test_stream_requires_integer_point():
    with pytest.raises(ValueError):
        next(krawtchouk_stream(36, 11))


def test_degree_one_linearity_in_rational_argument():
    for N in (5, 36, 101):
        for t in (Fraction(1, 3), Fraction(-7, 2), Fraction(99, 8)):
            assert eval_exact(KrawtchoukParams(N, 1), t) == N - 2 * t


def test_integer_values_row_matches_coefficient_series():
    shape = SystemShape(24, 12)
    row = integer_values(shape.N, shape.t, shape.N)
    assert [coefficient(shape, k) for k in range(shape.N + 1)] == row


# ---------------------------------------------------------------- float kernel
#
# _krawtchouk_slope(N, k, x) is the package's one float recurrence: it
# returns K_k(x) / C(N, k) and its derivative, and only ever seeds Newton.


def _exact_sequence(N, k, t):
    """K_0..K_k(t) and their derivatives by the exact differentiated recurrence."""
    vals, slopes = [Fraction(1), Fraction(N - 2 * t)], [Fraction(0), Fraction(-2)]
    for j in range(1, k):
        vals.append(((N - 2 * t) * vals[j] - (N - j + 1) * vals[j - 1]) / (j + 1))
        slopes.append(((N - 2 * t) * slopes[j] - 2 * vals[j]
                       - (N - j + 1) * slopes[j - 1]) / (j + 1))
    return vals[:k + 1], slopes[:k + 1]


def _cleared_slope(N, k, x):
    """k! d^k K_k'(x) in integers, x = num/d: the cleared recurrence differentiated."""
    d = x.denominator
    s, d2 = d * N - 2 * x.numerator, d * d
    b = cleared_values(N, s, d2, k)
    prev, cur = 0, -2 * d
    for j in range(1, k):
        prev, cur = cur, s * cur - j * (N - j + 1) * d2 * prev - 2 * d * b[j]
    return cur


def test_float_kernel_examples():
    assert _krawtchouk_slope(36, 1, 18.0) == (0.0, -2 / 36)
    value, _ = _krawtchouk_slope(36, 3, 12.85)
    assert abs(value * math.comb(36, 3)) < 0.2
    value, _ = _krawtchouk_slope(36, 4, 12.0)
    assert value * math.comb(36, 4) == pytest.approx(-231.0, rel=1e-12)


def test_float_kernel_stability_envelope():
    # Forward-recurrence envelope at documented scales: the absolute error
    # stays far below the largest intermediate value of the scaled sequence,
    # and the pointwise relative error is <= 1e-9 away from the cancellation
    # regime; the slope obeys the same absolute envelope.
    for N in (10, 36, 60, 100):
        for k in range(1, N + 1, max(1, N // 7)):
            for num in range(0, 2 * N + 1, max(1, N // 4)):
                t = Fraction(num, 2)
                vals, slopes = _exact_sequence(N, k, t)
                scaled = [v / math.comb(N, j) for j, v in enumerate(vals)]
                d_scaled = [v / math.comb(N, j) for j, v in enumerate(slopes)]
                value, slope = _krawtchouk_slope(N, k, float(t))
                path_max = max(1.0, max(abs(float(v)) for v in scaled))
                err = abs(value - float(scaled[-1]))
                assert err <= 1e-12 * path_max
                if abs(float(scaled[-1])) >= 1e-6 * path_max and scaled[-1] != 0:
                    assert err / abs(float(scaled[-1])) <= 1e-9
                d_max = max(1.0, max(abs(float(v)) for v in d_scaled))
                assert abs(slope - float(d_scaled[-1])) <= 1e-12 * d_max


@pytest.mark.parametrize("N", [512, 2048])
def test_float_kernel_left_of_smallest_root_at_large_N(N):
    # K_k(0) = C(N, k) passes 1e308 at N = 2048 (C(2048, 1024) ~ 1e615), so
    # the unscaled recurrence overflows there.  Left of the smallest root,
    # where the Newton seed evaluates the kernel, the scaled value lies in
    # (0, 1]; kz_root_bound is below d_k(1) when 2k < N.  Only the slope
    # can leave the float range, at N = 2048 for k = N.
    for k in (1, N // 8, N // 4, 3 * N // 8, N // 2, 3 * N // 4, N):
        points = [Fraction(0)]
        if 2 * k < N:
            bound = Fraction(kz_root_bound(N, k))
            points += [bound / 2, bound]
        for x in points:
            value, slope = _krawtchouk_slope(N, k, float(x))
            scale = math.comb(N, k)
            exact = eval_exact(KrawtchoukParams(N, k), x) / scale
            d_exact = Fraction(_cleared_slope(N, k, x),
                               math.factorial(k) * x.denominator ** k * scale)
            assert 0 < exact <= 1 and 0 < value <= 1
            assert abs(value - float(exact)) <= 1e-9 * float(exact)
            if abs(d_exact) < sys.float_info.max:
                assert abs(slope - float(d_exact)) <= 1e-9 * abs(float(d_exact))
            else:
                # the slope, about -1/d_k(1), leaves the float range with d_k(1)
                assert not math.isfinite(slope)


# ---------------------------------------------------------------- identities


def test_gf_identity_examples():
    assert gf_identity_check(24, 12, 36)
    assert gf_identity_check(2, 1, 3)
    assert gf_identity_check(10, 4, 16)


def test_gf_identity_rejects_out_of_range():
    with pytest.raises(ValueError):
        gf_identity_check(24, 12, 37)


def test_orthogonality_examples():
    assert orthogonality_check(8, 2, 2)
    assert orthogonality_check(8, 2, 3)
    assert orthogonality_check(1, 0, 0)


def test_orthogonality_diagonal_value():
    # the N = 8 diagonal pair sums to 2^8 * C(8, 2) = 7168
    total = sum(
        eval_integer(8, 2, i) ** 2 * __import__("math").comb(8, i) for i in range(9)
    )
    assert total == 7168


def test_orthogonality_exhaustive_small():
    for N in range(1, 13):
        for l in range(N + 1):
            for k in range(N + 1):
                assert orthogonality_check(N, l, k)


def test_orthogonality_rejects_bad_indices():
    with pytest.raises(ValueError):
        orthogonality_check(8, 9, 0)
