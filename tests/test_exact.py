"""Tests for the exact coefficient stream and degree of regularity."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

import semireg.exact as exact_mod
from semireg.exact import (
    SystemShape,
    binomial,
    coefficient,
    degree_of_regularity_exact,
    f5_cost_log2,
    hilbert_truncation,
)

from oracle_utils import (alternating_sum_value, convolution_coefficient, direct_stream_dreg,
                          exact_f5_cost_log2, expand_product, pascal_binomial)
from reference_tables import FAMILIES


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


# ---------------------------------------------------------------- transposed route
#
# Once c_0..c_t (t = m - n) are all positive, degree_of_regularity_exact
# searches the transposed values K_t(k) instead of streaming on to d_reg.


def _counted_probes(monkeypatch):
    probes = []
    probe = exact_mod._probe

    def counted(N, t, x):
        probes.append(x)
        return probe(N, t, x)

    monkeypatch.setattr(exact_mod, "_probe", counted)
    return probes


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1900), st.data())
def test_transposed_route_matches_direct_stream(n, data):
    t = data.draw(st.integers(1, max(1, min(n // 4, (2000 - n) // 2))))
    shape = SystemShape(n + t, n)
    expected = direct_stream_dreg(shape)
    assume(t < expected)
    assert degree_of_regularity_exact(shape) == expected


def test_transposed_route_published_rows(monkeypatch):
    probes = _counted_probes(monkeypatch)
    transposed = 0
    for family in FAMILIES.values():
        for n, d_reg, *_ in family["rows"]:
            shape = SystemShape(family["m_of_n"](n), n)
            assert degree_of_regularity_exact(shape) == d_reg
            transposed += shape.t < d_reg
    assert transposed == 12  # the m = n + 100 and m = n + 256 rows with d_reg > t
    # the float seed lands about 12 below the root here: the search gallops
    # out from it, then bisects
    probes.clear()
    assert degree_of_regularity_exact(SystemShape(33768, 32768)) == 11639
    assert 2 < len(probes) <= 8


@pytest.mark.parametrize("seed", [
    lambda root, N: math.nan,
    lambda root, N: math.inf,
    lambda root, N: 0.0,
    lambda root, N: N - 1.0,
    lambda root, N: root - 5,
    lambda root, N: root + 5,
], ids=["nan", "inf", "zero", "N-1", "root-5", "root+5"])
@pytest.mark.parametrize("m,n", [(612, 512), (1124, 1024), (20, 18), (101, 100), (2304, 2048)])
def test_transposed_route_survives_a_refused_seed(monkeypatch, seed, m, n):
    shape = SystemShape(m, n)
    expected = direct_stream_dreg(shape)
    assert shape.t < expected  # the transposed search runs
    guess = seed(exact_mod._root_seed(shape.N, shape.t, 0.0, shape.N / 2), shape.N)
    probes = _counted_probes(monkeypatch)
    monkeypatch.setattr(exact_mod, "_root_seed", lambda N, k, lo, hi: guess)
    assert degree_of_regularity_exact(shape) == expected
    assert probes  # decided by exact probes, whatever the seed said


@pytest.mark.parametrize("m,n", [(2**150 + 3, 2**150), (10**309 + 1, 10**309)],
                         ids=["seed-off-past-maxsize", "past-float-range"])
def test_transposed_route_past_the_float_range(m, n):
    # at 2^150 the float seed is off by more than sys.maxsize, so the search
    # bisects a range that long; past about 1.8e308 the seed cannot be formed
    shape = SystemShape(m, n)
    N, t, d = shape.N, shape.t, degree_of_regularity_exact(shape)
    # c_k has the sign of K_t(k) (reciprocity), here by the explicit sum
    assert alternating_sum_value(N, t, d - 1) > 0 >= alternating_sum_value(N, t, d)


def test_transposed_route_refuses_a_positive_tail(monkeypatch):
    # (a) holds at d - 1, but a corrupted stream at d fails (a) with K_t(d)
    # > 0: Chihara's one-zero-per-gap theorem rules this out, so it raises
    shape = SystemShape(612, 512)
    N, t, d = shape.N, shape.t, direct_stream_dreg(shape)
    stream = exact_mod.krawtchouk_stream

    def corrupted(N_, s):
        for k, value in enumerate(stream(N_, s)):
            if s == N - 2 * d:
                value = 0 if k == 0 else abs(value) + 1 if k == t else value
            yield value

    monkeypatch.setattr(exact_mod, "krawtchouk_stream", corrupted)
    with pytest.raises(AssertionError, match="non-positive"):
        degree_of_regularity_exact(shape)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30_000), st.integers(1, 20_000), st.integers(1, 100))
def test_f5_cost_cell_matches_exact_binomial(n, dreg, extra):
    shape = SystemShape(n + extra, n)
    assert round(f5_cost_log2(shape, dreg), 2) == round(exact_f5_cost_log2(shape, dreg), 2)


def test_f5_cost_cells_of_the_published_rows():
    checked = 0
    for family in FAMILIES.values():
        for n, dreg, *_ in family["rows"]:
            shape = SystemShape(family["m_of_n"](n), n)
            assert (round(f5_cost_log2(shape, dreg), 2)
                    == round(exact_f5_cost_log2(shape, dreg), 2)), (shape, dreg)
            checked += 1
    assert checked == 40


def test_f5_estimate_error_within_a_sixteenth_of_its_radius():
    import random

    import mpmath

    rng = random.Random(12)
    with mpmath.workdps(50):
        for _ in range(300):
            a = rng.randint(1, 10**7)
            b = rng.randint(1, a)
            shape = SystemShape(a - b + 2, a - b + 1)  # n = a - b + 1, so a = n + b - 1
            v, r = exact_mod._f5_estimate(shape, b, 2.373)
            true = (mpmath.log(shape.m, 2) + mpmath.log(b, 2)
                    + mpmath.mpf(2.373) * mpmath.log(mpmath.binomial(a, b), 2))
            assert abs(v - true) <= r / 16, (a, b)


def test_f5_cost_rounding_boundary_takes_exact_binomial(monkeypatch):
    # an estimate on x.xx5 leaves the 2-decimal cell open: the exact route decides
    shape = SystemShape(24, 12)
    estimate = exact_mod._f5_estimate
    monkeypatch.setattr(exact_mod, "_f5_estimate",
                        lambda s, d, omega: (31.295, estimate(s, d, omega)[1]))
    calls = []
    monkeypatch.setattr(exact_mod, "binomial", lambda a, b: calls.append((a, b)) or binomial(a, b))
    assert f5_cost_log2(shape, 4) == exact_f5_cost_log2(shape, 4)
    assert calls == [(15, 4)]


def test_f5_cost_past_the_float_range_takes_exact_binomial():
    # lgamma cannot take n + dreg > 2^1024; the exact binomial still answers
    shape = SystemShape(10**400, 10**399)
    assert f5_cost_log2(shape, 5) == exact_f5_cost_log2(shape, 5)
