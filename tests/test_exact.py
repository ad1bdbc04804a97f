"""Tests for the exact coefficient stream and degree of regularity."""

import math
from fractions import Fraction

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
from semireg.verify import enumerate_shapes

from oracle_utils import (alternating_sum_value, convolution_coefficient, direct_stream_dreg,
                          eval_exact, exact_f5_cost_log2, expand_product, pascal_binomial)
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


# ---------------------------------------------------------------- sign stream
#
# _sign_stream(N, s) yields positive multiples of K_0..K_N at N - 2x = s,
# dividing exactly only once per _SIGN_BLOCK steps; the signs must be the
# divided stream's.


def _signs(values):
    return [(v > 0) - (v < 0) for v in values]


def _assert_signs_match(N, s):
    assert _signs(exact_mod._sign_stream(N, s)) == _signs(exact_mod.krawtchouk_stream(N, s))


@pytest.mark.parametrize("N", sorted({0, 1, 2, 3, 199, 200} | {
    j * exact_mod._SIGN_BLOCK + d for j in range(1, 4) for d in range(-2, 3)}))
def test_sign_stream_signs_match_divided_stream_around_block_ends(N):
    # every integer point 0 <= x <= N, and a few past each end (s < -N, s > N)
    for x in range(-3, N + 4):
        _assert_signs_match(N, N - 2 * x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.data())
def test_sign_stream_signs_match_divided_stream_sampled(N, data):
    # x past either end, inside and at the centre: s > N, s < -N, |s| <= N, s = 0
    x = data.draw(st.integers(-2, N + 2) | st.just(N // 2))
    _assert_signs_match(N, N - 2 * x)


def test_sign_stream_values_are_positive_multiples():
    N, s = 150, 30  # two block ends
    for b, c in zip(exact_mod._sign_stream(N, s), exact_mod.krawtchouk_stream(N, s)):
        assert (b == 0) if c == 0 else (b % c == 0 and b // c > 0)
    with pytest.raises(ValueError):
        next(exact_mod._sign_stream(5, 2))


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
    # at t = 512 and t = 1000, K_t / C(N, t) is below the smallest float near
    # the root; the rescaled float kernel still seeds d_reg - 1, so the search
    # makes its first two probes, x and x + 1, and no other
    for shape, d_reg in [(SystemShape(33280, 32768), 12841),
                         (SystemShape(33768, 32768), 11639)]:
        probes.clear()
        assert degree_of_regularity_exact(shape) == d_reg
        assert probes == [d_reg - 1, d_reg]


def _transposed_rows():
    """The 12 published rows with d_reg > t, and n = 32768 at t = 512 and t = 1000."""
    rows = [(SystemShape(family["m_of_n"](n), n), d_reg)
            for family in FAMILIES.values() for n, d_reg, *_ in family["rows"]]
    return [(shape, d) for shape, d in rows if shape.t < d] + [
        (SystemShape(33280, 32768), 12841), (SystemShape(33768, 32768), 11639)]


def test_transposed_route_probes_before_the_scan(monkeypatch):
    # kz_root_bound(N, t) > t + 1 on all 14 rows, so the first probe comes
    # first; it holds at d - 1 >= t, which proves c_0..c_t > 0, so no scan
    # runs; the seed needs only its integer, from two float evaluations
    rows = _transposed_rows()
    assert len(rows) == 14
    points = _recorded_ratios(monkeypatch)
    probes = _counted_probes(monkeypatch)
    streams = []
    stream = exact_mod._sign_stream
    monkeypatch.setattr(exact_mod, "_sign_stream", lambda N, s: streams.append(s) or stream(N, s))
    for shape, d_reg in rows:
        probes.clear()
        streams.clear()
        assert degree_of_regularity_exact(shape) == d_reg
        assert probes == [d_reg - 1, d_reg]
        assert shape.n not in streams  # neither the scan nor a probe at t
    assert len(points) == 28  # 42 when every seed stopped at a step of 2^-20 x


def test_transposed_route_keeps_a_failed_first_probe(monkeypatch):
    # a seed 5 right of the root fails the first probe: the scan runs, and the
    # search goes on below that probe, with no second seed
    calls = []
    seed = exact_mod._root_seed

    def late(N, k, *args, **kwargs):
        calls.append((N, k))
        return seed(N, k, *args, **kwargs) + 5

    monkeypatch.setattr(exact_mod, "_root_seed", late)
    probes = _counted_probes(monkeypatch)
    for shape, d_reg in _transposed_rows():
        calls.clear()
        probes.clear()
        assert degree_of_regularity_exact(shape) == d_reg
        assert calls == [(shape.N, shape.t)]
        assert probes.count(probes[0]) == 1 and probes[0] > d_reg


@pytest.mark.parametrize("bound,n_max", [(lambda N, k: 0.0, 32768), (lambda N, k: N / 2, 4096)],
                         ids=["scan-first", "probe-first"])
def test_transposed_route_ignores_a_lying_order(monkeypatch, bound, n_max):
    # kz_root_bound only orders the scan and the first probe: patched to say
    # "scan first" or "probe first" everywhere, every d_reg stays the same.
    # A lie costs time: where d_reg << t, a first probe runs all t + 1 terms
    # before the scan stops at d_reg (tens of seconds at m = n log2 n, n = 32768), so
    # "probe first" takes the published rows up to n = 4096
    monkeypatch.setattr(exact_mod, "kz_root_bound", bound)
    shapes = [shape for shape, _ in _transposed_rows()] + list(enumerate_shapes(60)) + [
        SystemShape(family["m_of_n"](n), n)
        for family in FAMILIES.values() for n, *_ in family["rows"] if n <= n_max]
    for shape in shapes:
        assert degree_of_regularity_exact(shape) == direct_stream_dreg(shape), shape


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
    guess = seed(exact_mod._root_seed(shape.N, shape.t), shape.N)
    probes = _counted_probes(monkeypatch)
    monkeypatch.setattr(exact_mod, "_root_seed", lambda N, k, **_: guess)
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
    # (a) holds at d - 1, but a corrupted sign stream at d fails (a) with
    # K_t(d) > 0: Chihara's one-zero-per-gap theorem rules this out, so it raises
    shape = SystemShape(612, 512)
    N, t, d = shape.N, shape.t, direct_stream_dreg(shape)
    stream = exact_mod._sign_stream

    def corrupted(N_, s):
        for k, value in enumerate(stream(N_, s)):
            if s == N - 2 * d:
                value = 0 if k == 0 else abs(value) + 1 if k == t else value
            yield value

    monkeypatch.setattr(exact_mod, "_sign_stream", corrupted)
    with pytest.raises(AssertionError, match="non-positive"):
        degree_of_regularity_exact(shape)


# ---------------------------------------------------------------- root seed
#
# _root_seed(N, k, lo, hi) is the package's one float seed: Laguerre iterates
# climbing to d_k^N(1) from its left, NaN where its floats cannot be formed.


def _recorded_ratios(monkeypatch):
    """The points at which _root_seed evaluates the float recurrence."""
    points = []
    ratios = exact_mod._krawtchouk_ratios

    def recorded(N, k, x):
        points.append(x)
        return ratios(N, k, x)

    monkeypatch.setattr(exact_mod, "_krawtchouk_ratios", recorded)
    return points


@pytest.mark.parametrize("N,k", [(36, 3), (36, 20), (200, 150), (512, 511), (2048, 700)])
def test_root_seed_stops_after_a_step_of_2_pow_minus_20(monkeypatch, N, k):
    # each step climbs from one evaluation to the next; the last is at most
    # 2^-20 max(1, |x|) (absolute below one: d_511^512(1) is about 1e-149),
    # so no evaluation follows it
    points = _recorded_ratios(monkeypatch)
    x = exact_mod._root_seed(N, k)
    steps = [(b - a, b) for a, b in zip(points, points[1:] + [x])]
    assert all(0 < step for step, _ in steps)
    assert all(b < a for (a, _), (b, _) in zip(steps, steps[1:]))
    assert steps[-1][0] <= 2.0 ** -20 * max(1.0, x)
    assert all(step > 2.0 ** -20 * max(1.0, b) for step, b in steps[:-1])
    # K_k changes sign within 1e-4 x of the seed, so d_k(1) is there (past
    # k = N/2 the float recurrence loses digits: d_150^200(1) to about 1e-5)
    r = Fraction(x)
    assert eval_exact(N, k, r * (1 - Fraction(1, 10**4))) > 0
    assert eval_exact(N, k, r * (1 + Fraction(1, 10**4))) < 0


def test_root_seed_returns_a_start_right_of_the_root_unmoved(monkeypatch):
    # d_3^36(1) = (36 - sqrt(106)) / 2 = 12.85...: at 13 the kernel finds
    # K_3 <= 0 and no step is taken, which the root chain's warm start reads as "the start lies
    # right of the root"
    points = _recorded_ratios(monkeypatch)
    assert exact_mod._root_seed(36, 3, 13.0, Fraction(18)) == 13.0
    assert points == [13.0]


@pytest.mark.parametrize("N,k,lo,hi", [
    (10**400, 2, 0, None),  # N / 2 past the float range
    (10**400, 2, 0, Fraction(10**400, 3)),  # a bracket end past it
    (3 * 10**308, 2, 0, None),  # N / 2 is a float, N is not
    (3 * 10**308, 3 * 10**308, 1.0, Fraction(10**300)),  # the recurrence's float(N)
])
def test_root_seed_past_the_float_range_is_nan(N, k, lo, hi):
    assert math.isnan(exact_mod._root_seed(N, k, lo, hi))


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
