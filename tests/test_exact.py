"""Tests for the exact coefficient stream and degree of regularity."""

import math
import re
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
                          eval_exact, exact_f5_cost_log2, expand_product, mutant,
                          pascal_binomial)
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


# ---------------------------------------------------------------- sign kernel
#
# _sign_scan(N, s, K) yields j, the first index <= K with K_j(x) <= 0 at
# N - 2x = s (K + 1 if none), then a positive multiple of K_K(x); it steps
# two degrees at a time and divides exactly once per _SIGN_BLOCK degrees.
# Both must agree with the divided stream, for every prefix K.


def _reference(values, K):
    """(first non-positive index <= K or K + 1, K_K) off the divided stream."""
    j = next((k for k, c in enumerate(values[:K + 1]) if c <= 0), K + 1)
    return j, values[K]


def _assert_scan_matches(N, s, prefixes):
    values = list(exact_mod.krawtchouk_stream(N, s))
    for K in prefixes:
        j, c = _reference(values, K)
        assert next(exact_mod._sign_scan(N, s, K)) == j, (N, s, K)
        got_j, v = exact_mod._sign_scan(N, s, K)
        assert got_j == j, (N, s, K)
        assert (v == 0) if c == 0 else (v % c == 0 and v // c > 0), (N, s, K)


@pytest.mark.parametrize("N", sorted({0, 1, 2, 3, 199, 200} | {
    j * 64 + d for j in range(1, 4) for d in range(-2, 3)}))
def test_sign_stream_signs_match_divided_stream_around_block_ends(monkeypatch, N):
    # every integer point 0 <= x <= N, and a few past each end (s < -N,
    # s > N, s <= 0), at a block of 64: the kernel divides after degree
    # 64 i + 2, which the prefixes K >= 64 i + 1 reach.  Up to N = 66 every
    # prefix; past it the prefixes around each division, around the first
    # non-positive index and at the end (the real block: the next test)
    monkeypatch.setattr(exact_mod, "_SIGN_BLOCK", 64)
    for x in range(-3, N + 4):
        s = N - 2 * x
        prefixes = set(range(N + 1))
        if N > 66:
            j, _ = _reference(list(exact_mod.krawtchouk_stream(N, s)), N)
            prefixes &= {*range(4), *range(j - 2, j + 3), *range(N - 2, N + 1), *(
                64 * i + d for i in range(1, N // 64 + 1) for d in range(-2, 4))}
        _assert_scan_matches(N, s, sorted(prefixes))


@pytest.mark.parametrize("N", [exact_mod._SIGN_BLOCK + 1, exact_mod._SIGN_BLOCK + 2])
def test_sign_scan_every_prefix_past_the_first_division(N):
    # the real block: the first division comes in the last prefixes
    for x in range(-3, N + 4):
        _assert_scan_matches(N, N - 2 * x, range(N + 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5000), st.data())
def test_sign_stream_signs_match_divided_stream_sampled(N, data):
    # x past either end, inside and at the centre: s > N, s < -N, |s| <= N, s = 0
    x = data.draw(st.integers(-2, N + 2) | st.just(N // 2))
    K = data.draw(st.integers(0, N))
    _assert_scan_matches(N, N - 2 * x, {K, N})


def test_sign_scan_decides_odd_degrees_and_zeros():
    # the parity rule's two outcomes: a first non-positive value at an odd
    # degree, and an exact zero at an odd and at an even one
    odd = zero_odd = zero_even = 0
    for N in range(1, 41):
        for x in range((N + 1) // 2):  # s >= 1
            s = N - 2 * x
            values = list(exact_mod.krawtchouk_stream(N, s))
            j, _ = _reference(values, N)
            assert next(exact_mod._sign_scan(N, s, N)) == j
            if j <= N:
                odd += j % 2
                zero_odd += j % 2 and values[j] == 0
                zero_even += not j % 2 and values[j] == 0
    assert (odd, zero_odd, zero_even) == (167, 16, 17)


def test_sign_scan_checks_its_divisions():
    # a divisor one too large leaves a remainder at the first division
    scan = mutant(exact_mod._sign_scan, "d = math.perm(k, _SIGN_BLOCK)",
                  "d = math.perm(k, _SIGN_BLOCK) + 1")
    block = exact_mod._SIGN_BLOCK
    with pytest.raises(AssertionError, match=re.escape(f"not divisible by {block}!/0!")):
        list(scan(300, 30, 300))


def test_sign_stream_values_are_positive_multiples():
    N, s = 300, 30  # two block ends, every prefix
    _assert_scan_matches(N, s, range(N + 1))
    with pytest.raises(ValueError):
        next(exact_mod._sign_scan(5, 2, 5))


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


def _counted_scans(monkeypatch):
    """The s of every `_sign_scan`; a probe at x = t reads the same s = n as the scan."""
    scans = []
    scan = exact_mod._sign_scan
    monkeypatch.setattr(exact_mod, "_sign_scan", lambda N, s, K: scans.append(s) or scan(N, s, K))
    return scans


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1900), st.data())
def test_transposed_route_matches_direct_stream(n, data):
    t = data.draw(st.integers(1, max(1, min(n // 4, (2000 - n) // 2))))
    shape = SystemShape(n + t, n)
    expected = direct_stream_dreg(shape)
    assume(t < expected)
    assert degree_of_regularity_exact(shape) == expected


def test_transposed_route_published_rows(monkeypatch):
    transposed = 0
    for family in FAMILIES.values():
        for n, d_reg, *_ in family["rows"]:
            shape = SystemShape(family["m_of_n"](n), n)
            assert degree_of_regularity_exact(shape) == d_reg
            transposed += shape.t < d_reg
    assert transposed == 12  # the m = n + 100 and m = n + 256 rows with d_reg > t
    # on those rows, and at t = 512 and t = 1000, where K_t / C(N, t) is below
    # the smallest float near the root, one Laguerre step of the rescaled
    # float kernel seeds d_reg - 1 or d_reg - 2, and the search probes from
    # there to d_reg and no further
    _assert_probes_from_the_floor(monkeypatch)


def _assert_probes_from_the_floor(monkeypatch):
    """Each of the 14 `_transposed_rows` probes [d - 1, d] or [d - 2, d - 1, d], 31 in all.

    The first probe holds at x >= t, which proves c_0..c_t > 0, so no scan
    runs, and there is no probe at t: nothing reads s = n.
    """
    probes = _counted_probes(monkeypatch)
    scans = _counted_scans(monkeypatch)
    total = 0
    for shape, d_reg in _transposed_rows():
        probes.clear()
        scans.clear()
        assert degree_of_regularity_exact(shape) == d_reg
        assert probes in ([d_reg - 1, d_reg], [d_reg - 2, d_reg - 1, d_reg]), shape
        assert shape.n not in scans
        total += len(probes)
    assert total == 31  # d_reg - 2 at m = 612, n = 512 and at t = 100 and 1000, n = 32768


def _transposed_rows():
    """The 12 published rows with d_reg > t, and n = 32768 at t = 512 and t = 1000."""
    rows = [(SystemShape(family["m_of_n"](n), n), d_reg)
            for family in FAMILIES.values() for n, d_reg, *_ in family["rows"]]
    return [(shape, d) for shape, d in rows if shape.t < d] + [
        (SystemShape(33280, 32768), 12841), (SystemShape(33768, 32768), 11639)]


def test_transposed_route_probes_before_the_scan(monkeypatch):
    # kz_root_bound(N, t) > t + 1 on all 14 rows, so the first probe comes
    # first, and no scan runs; the seed stops after one Laguerre step, one
    # float evaluation per row
    assert len(_transposed_rows()) == 14
    points = _recorded_ratios(monkeypatch)
    _assert_probes_from_the_floor(monkeypatch)
    assert len(points) == 14


@pytest.mark.parametrize("offset", [-9, -2, -1, 0, 1, 5, 9], ids=lambda offset: f"root{offset:+d}")
def test_transposed_route_gallops_from_an_offset_seed(monkeypatch, offset):
    # the seed moved by `offset`: a first probe x that holds proves
    # c_0..c_t > 0, so no scan runs; one that fails (x >= d) is kept, the
    # scan runs once, and the search goes on below x with no second seed.
    # Let j = d - 1 - x from an x that holds and j = x - d from one that
    # fails, and 2^(i-1) <= j < 2^i.  From x the gallop probes x +- 1, 2,
    # ..., 2^i, the first on the far side of d - 1/2, and leaves a gap of
    # 2^(i-1) that bisection closes in i - 1 probes: 1 + (i + 1) + (i - 1)
    # = 2 i + 1 <= 3 + 2 log2 j probes in all for j >= 1, and [d - 1, d] or
    # [d, d - 1] for j = 0; the ends of the range only cut the gallop short
    calls = []
    seed = exact_mod._root_seed

    def moved(N, k, *args, **kwargs):
        calls.append((N, k))
        return seed(N, k, *args, **kwargs) + offset

    monkeypatch.setattr(exact_mod, "_root_seed", moved)
    probes = _counted_probes(monkeypatch)
    scans = _counted_scans(monkeypatch)
    for shape, d_reg in _transposed_rows():
        calls.clear()
        probes.clear()
        scans.clear()
        assert degree_of_regularity_exact(shape) == d_reg
        assert calls == [(shape.N, shape.t)]
        x = probes[0]
        assert len(set(probes)) == len(probes)  # no probe is made twice
        if offset != 1:  # unmoved, the floor is d - 2 or d - 1
            assert (x < d_reg) == (offset <= 0)
        j = d_reg - 1 - x if x < d_reg else x - d_reg
        assert len(probes) <= (2 if j == 0 else 3 + 2 * math.log2(j)), (shape, x, probes)
        # every probe lies right of t, so only the direct scan reads s = n
        assert min(probes) > shape.t and scans.count(shape.n) == (x >= d_reg)


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
    # (a) holds at d - 1, but a corrupted sign kernel at d fails (a) with
    # K_t(d) > 0: Chihara's one-zero-per-gap theorem rules this out, so it raises
    shape = SystemShape(612, 512)
    N, t, d = shape.N, shape.t, direct_stream_dreg(shape)
    scan = exact_mod._sign_scan

    def corrupted(N_, s, K):
        if s != N - 2 * d:
            yield from scan(N_, s, K)
            return
        assert K == t
        _, value = scan(N_, s, K)
        yield from (0, abs(value) + 1)  # K_0 <= 0, and K_t > 0

    monkeypatch.setattr(exact_mod, "_sign_scan", corrupted)
    with pytest.raises(AssertionError, match="non-positive"):
        degree_of_regularity_exact(shape)


# ---------------------------------------------------------------- route 1 at scale
#
# Past the published rows, route 1 (the sign kernel's scan and probes) must
# still agree with the divided stream, a separate kernel.


# The m = n + 100 and m = n + 256 rows run the transposed search; their
# divided streams grow about quadratically (0.6-0.8 s at 2^16), so they stop there.
@pytest.mark.parametrize("n,family", [
    (n, family) for n in (2**16, 2**17) for family in ("m=2n", "m=8n", "m=n*log2(n)")
] + [(2**16, "m=n+100"), (2**16, "m=n+256")])
def test_route_1_at_scale_matches_the_divided_stream(n, family):
    shape = SystemShape(FAMILIES[family]["m_of_n"](n), n)
    assert degree_of_regularity_exact(shape) == len(hilbert_truncation(shape))


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
