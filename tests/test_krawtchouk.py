"""Tests for binary Krawtchouk evaluation and the classical identities."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import semireg.krawtchouk as krawtchouk_mod
from semireg.exact import SystemShape, coefficient, krawtchouk_stream
from semireg.krawtchouk import eval_integer, gf_identity_check, integer_values
from semireg.bounds import kz_root_bound
from semireg.exact import _krawtchouk_ratios, _root_seed

from oracle_utils import (alternating_sum_value, cleared_values, eval_exact, eval_general_r,
                          gf_convolution_check, orthogonality_check)


# ---------------------------------------------------------------- evaluation


def test_eval_exact_examples():
    assert eval_exact(36, 1, 12) == 12
    assert eval_exact(40, 0, Fraction(7, 3)) == 1
    # degree-2 closed form: ((N - 2t)^2 - N) / 2
    assert eval_exact(36, 2, 12) == ((36 - 24) ** 2 - 36) // 2 == 54


def test_low_degree_closed_forms_at_generic_rational():
    # closed forms for degrees 1..4 in terms of y = N - 2t
    N = 36
    for t in (Fraction(5, 3), Fraction(12), Fraction(35, 2)):
        y = N - 2 * t
        assert eval_exact(N, 1, t) == y
        assert eval_exact(N, 2, t) == (y**2 - N) / 2
        assert eval_exact(N, 3, t) == (y**3 - (3 * N - 2) * y) / 6
        assert eval_exact(N, 4, t) == (
            y**4 - (6 * N - 8) * y**2 + 3 * (N - 2) * N
        ) / 24


def test_evaluations_at_threshold_match_closed_forms():
    # the four low-degree values at t = m - n, written in terms of m and n
    m, n = 24, 12
    N, t = 2 * m - n, m - n
    assert eval_exact(N, 1, t) == n
    assert eval_exact(N, 2, t) == Fraction(n**2 + n - 2 * m, 2)
    assert eval_exact(N, 3, t) == Fraction(
        n**3 + 3 * n**2 + 2 * n - 6 * m * n, 6
    )
    assert eval_exact(N, 4, t) == Fraction(
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
    assert eval_exact(N, k, t) == alternating_sum_value(N, k, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 50), st.data())
def test_general_r_recurrence_specializes_to_binary(N, data):
    k = data.draw(st.integers(0, N))
    t = Fraction(data.draw(st.integers(0, 3 * N)), data.draw(st.integers(1, 5)))
    assert eval_general_r(N, k, 2, t) == eval_exact(N, k, t)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.data())
def test_integer_argument_yields_integer(N, data):
    k = data.draw(st.integers(0, N))
    t = data.draw(st.integers(0, N))
    v = eval_exact(N, k, t)
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
            assert eval_exact(N, 1, t) == N - 2 * t


def test_integer_values_row_matches_coefficient_series():
    shape = SystemShape(24, 12)
    row = integer_values(shape.N, shape.t, shape.N)
    assert [coefficient(shape, k) for k in range(shape.N + 1)] == row


# ---------------------------------------------------------------- float kernel
#
# _krawtchouk_ratios(N, k, x) is the package's one float recurrence: it
# returns p'/p and p''/p for p = K_k, or None once some K_j(x), j <= k, is
# not positive, and only ever seeds Laguerre's method.


def _exact_sequence(N, k, t):
    """K_0..K_k(t) and their first and second derivatives, by the exact recurrence."""
    a = N - 2 * t
    vals, slopes, curves = [Fraction(1), Fraction(a)], [Fraction(0), Fraction(-2)], [Fraction(0)] * 2
    for j in range(1, k):
        vals.append((a * vals[j] - (N - j + 1) * vals[j - 1]) / (j + 1))
        slopes.append((a * slopes[j] - 2 * vals[j] - (N - j + 1) * slopes[j - 1]) / (j + 1))
        curves.append((a * curves[j] - 4 * slopes[j] - (N - j + 1) * curves[j - 1]) / (j + 1))
    return vals[:k + 1], slopes[:k + 1], curves[:k + 1]


def _cleared_ratios(N, k, x):
    """(K_k'/K_k, K_k''/K_k)(x) exactly, x = num/d, by the cleared recurrence differentiated.

    B_j = j! d^j K_j(x) and its x-derivatives B'_j, B''_j stay integers, and
    the common factor k! d^k cancels from both ratios.
    """
    d = x.denominator
    s, d2 = d * N - 2 * x.numerator, d * d
    b = cleared_values(N, s, d2, k)
    prev, cur, cprev, ccur = 0, -2 * d, 0, 0
    for j in range(1, k):
        c = j * (N - j + 1) * d2
        prev, cur, cprev, ccur = (cur, s * cur - c * prev - 2 * d * b[j],
                                  ccur, s * ccur - c * cprev - 4 * d * cur)
    return Fraction(cur, b[k]), Fraction(ccur, b[k])


def _assert_ratios(got, exact, rel):
    assert got is not None
    for value, ref in zip(got, exact):
        assert value == pytest.approx(float(ref), rel=rel, abs=0)


def test_float_kernel_examples():
    # K_1 = N - 2x: p'/p = -2/N and p'' = 0 at x = 0; K_1(18) = 0 at N = 36
    assert _krawtchouk_ratios(36, 1, 0.0) == (-2 / 36, 0.0)
    assert _krawtchouk_ratios(36, 1, 18.0) is None
    # 12.85 is just left of d_3^36(1) = (36 - sqrt(106)) / 2 = 12.852...,
    # where p'/p is about -1/(d_3(1) - x); 13 is right of it
    _assert_ratios(_krawtchouk_ratios(36, 3, 12.85), _cleared_ratios(36, 3, Fraction(12.85)), 1e-9)
    assert -700 < _krawtchouk_ratios(36, 3, 12.85)[0] < -400
    assert _krawtchouk_ratios(36, 3, 13.0) is None
    # K_4(12) = -231 < 0
    assert eval_exact(36, 4, 12) == -231
    assert _krawtchouk_ratios(36, 4, 12.0) is None


def test_float_kernel_stability_envelope():
    # On a grid of half-integer points at documented scales, both sides of
    # d_k(1): where K_0..K_k are all positive (left of d_k(1), by the Sturm
    # property) both ratios match the exact ones to 1e-9 relative, and
    # where one is not the kernel returns None.
    for N in (10, 36, 60, 100):
        for k in range(1, N + 1, max(1, N // 7)):
            for num in range(0, 2 * N + 1, max(1, N // 4)):
                t = Fraction(num, 2)
                vals, slopes, curves = _exact_sequence(N, k, t)
                got = _krawtchouk_ratios(N, k, float(t))
                if min(vals) <= 0:
                    assert got is None, (N, k, t)
                else:
                    _assert_ratios(got, (slopes[-1] / vals[-1], curves[-1] / vals[-1]), 1e-9)


@pytest.mark.parametrize("N,ks", [
    (512, None), (2048, None),
    # K_k / C(N, k) is below the smallest float at the right point here
    (33280, (512,)), (34768, (1000,)),
], ids=["512", "2048", "33280-512", "34768-1000"])
def test_float_kernel_left_of_smallest_root_at_large_N(N, ks):
    # K_k(0) = C(N, k) passes 1e308 at N = 2048 (C(2048, 1024) ~ 1e615), and
    # K_k / C(N, k) passes below 1e-308 left of d_512^33280(1): the carried
    # values are rescaled by powers of two, so neither stops the kernel.
    # Left of the smallest root, where the seed evaluates the kernel, both
    # ratios match the exact ones; kz_root_bound is below d_k(1) when 2k < N.
    for k in ks or (1, N // 8, N // 4, 3 * N // 8, N // 2, 3 * N // 4, N):
        points = [Fraction(0)]
        if 2 * k < N:
            bound = Fraction(kz_root_bound(N, k))
            points += [bound / 2, bound]
        for x in points:
            exact = _cleared_ratios(N, k, x)
            if abs(exact[0]) < sys.float_info.max:
                _assert_ratios(_krawtchouk_ratios(N, k, float(x)), exact, 1e-9)
            else:
                # p'/p is -sum_j 2^j / j, about -2^2038, at N = k = 2048 and
                # x = 0; d_k(1), about 2^-2038, is below every float, so the
                # ratio is no float and the seed stays at 0.0
                assert (N, k, x) == (2048, 2048, 0)
                assert not math.isfinite(_krawtchouk_ratios(N, k, 0.0)[0])
                assert _root_seed(N, k) == 0.0


# ---------------------------------------------------------------- identities


def test_gf_identity_examples():
    assert gf_identity_check(24, 12, 36)
    assert gf_identity_check(2, 1, 3)
    assert gf_identity_check(10, 4, 16)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gf_identity_matches_the_convolution(data):
    # the stepped-product check against the explicit convolution, on the
    # true stream and on one corrupted coefficient, for prefixes up_to < N
    n = data.draw(st.integers(1, 30), label="n")
    m = data.draw(st.integers(n + 1, 40), label="m")
    N = 2 * m - n
    up_to = data.draw(st.integers(0, N - 1), label="up_to")
    k = data.draw(st.integers(0, N), label="k")
    delta = data.draw(st.sampled_from([0, 1, -1, 1 << m, -(1 << (m + 2)), 3 << 90]),
                      label="delta")

    def corrupted(N_, s_):
        for j, value in enumerate(krawtchouk_stream(N_, s_)):
            yield value + delta if (N_, j) == (N, k) else value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krawtchouk_mod, "krawtchouk_stream", corrupted)
        expected = gf_convolution_check(m, n, up_to)
        assert expected == (delta == 0 or k > up_to)
        assert gf_identity_check(m, n, up_to) == expected


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
