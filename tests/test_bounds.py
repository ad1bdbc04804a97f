"""Tests for the four closed-form bounds and their certification machinery."""

import math
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from semireg.exact import SystemShape, degree_of_regularity_exact
from semireg.krawtchouk import eval_integer, integer_values
from semireg.bounds import (
    AiryConstant,
    BoundKind,
    CertificationMethod,
    DEFAULT_AIRY,
    NotApplicableReason,
    kz_lower,
    kz_root_bound,
    l_upper,
    l_upper_root_bound,
    ls_lower,
    ls_lower_asymptotic,
    ls_lower_asymptotic_case,
    ls_lower_root_bound,
    ls_upper,
    ls_upper_root_bound,
    sandwich_verdict,
)
import semireg.bounds as bounds_mod
from semireg.bounds import (_cube_field_norm, _l_accepts_degree, _l_degree_norm,
                            _l_max_resultant, _ls_refuses_degree)
from semireg.intervals import DyadicBracket, integer_bisect, iroot, nth_root_enclosure
from semireg.verify import enumerate_shapes

import reference_tables as ref
from oracle_utils import (
    LS_BITS_SCHEDULE,
    Interval,
    QuarticClosedForm,
    _cardano_w4,
    c_enclosure,
    fraction_ls_lower,
    i1_enclosure,
    interval_l_accepts_degree,
    interval_ls_refuses_degree,
    l_max_sign,
    l_sextic_peak,
    l_smallest_accepted_degree,
    one_minus_x_times_r_coefficients,
    s_derivative_coefficients,
    sextic_value,
)


def _grid_shapes():
    # deterministic sweep: n in [4, 64] step 6, several m per n up to 4n
    for n in range(4, 65, 6):
        for j in (1, 2, 5, 8):
            m = n + max(1, (j * 3 * n) // 8)
            if m <= 4 * n:
                yield SystemShape(m, n)


# ---------------------------------------------------------------- KZ lower


def test_kz_lower_examples():
    assert kz_lower(SystemShape(512, 256)).value == 22
    assert kz_lower(SystemShape(2048, 256)).value == 5
    assert kz_lower(SystemShape(24, 12)).value == 2


def test_kz_lower_certification_metadata():
    out = kz_lower(SystemShape(512, 256))
    assert out.kind is BoundKind.KZ_LOWER
    assert out.certification.method is CertificationMethod.EXACT_INTEGER_PREDICATE
    assert not out.certification.near_boundary


def test_kz_lower_matches_float_floor_away_from_boundary():
    for shape in _grid_shapes():
        theta = (shape.N - 2 * math.sqrt(shape.m * shape.t)) / 2
        if abs(theta - round(theta)) > 1e-6:
            assert kz_lower(shape).value == 1 + math.floor(theta)


def test_kz_lower_perfect_square_boundary():
    # m (m - n) a perfect square makes the floor argument hit exactly
    shape = SystemShape(8, 6)  # m t = 16, N = 10: theta = (10 - 8) / 2 = 1
    assert kz_lower(shape).value == 2


def test_kz_root_bound_figure_value():
    assert 12.28 <= kz_root_bound(36, 3) <= 12.30


# ---------------------------------------------------------------- LS lower


def test_ls_lower_examples():
    assert ls_lower(SystemShape(512, 256)).value == 28
    assert ls_lower(SystemShape(356, 256)).value == 44
    assert ls_lower(SystemShape(24, 12)).value == 4


def test_quartic_closed_form_figure_values():
    q = QuarticClosedForm.from_shape(SystemShape(24, 12))
    assert q.a == pytest.approx(12 / math.sqrt(72), rel=1e-12)
    assert q.b == pytest.approx(-1.85575, abs=5e-5)
    assert q.w4 == pytest.approx(1.3994, abs=2e-4)
    assert 3.25 <= q.half_w4_pow6_minus_1() <= 3.27


def test_quartic_residual_bound_on_grid():
    for shape in _grid_shapes():
        q = QuarticClosedForm.from_shape(shape)
        assert abs(q.residual()) <= 1e-9 * max(1.0, q.a)
        assert q.w4 > 0


def test_quartic_discriminant_negative_on_grid():
    # Disc(w^4 + q w + r) = 256 r^3 - 27 q^4 with q = -a, r = b
    for shape in _grid_shapes():
        qf = QuarticClosedForm.from_shape(shape)
        disc = 256 * qf.b**3 - 27 * qf.a**4
        assert disc < 0


def test_quartic_discriminant_closed_form_matches_sympy():
    w, a, b = sympy.symbols("w a b")
    disc = sympy.discriminant(w**4 - a * w + b, w)
    assert sympy.simplify(disc - (256 * b**3 - 27 * a**4)) == 0


def test_ls_lower_certified_interval_tightness():
    # the certified floor agrees with the float closed form away from integers
    for shape in _grid_shapes():
        v = QuarticClosedForm.from_shape(shape).half_w4_pow6_minus_1()
        if abs(v - round(v)) > 1e-4:
            assert ls_lower(shape).value == 1 + math.floor(v)


def _ls_key(shape, airy=DEFAULT_AIRY):
    out = ls_lower(shape, airy)
    cert = out.certification
    return out.value, cert.method, cert.near_boundary, cert.candidates


_NARROW_AIRY = AiryConstant(precision_radius=Fraction(1, 1000))
_WIDE_AIRY = AiryConstant(precision_radius=Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40_000), st.data())
def test_ls_lower_matches_the_fraction_floor_oracle(n, data):
    m = data.draw(st.one_of(st.integers(n + 1, 4 * n), st.integers(n + 1, n * n + 1)))
    airy = data.draw(st.sampled_from([DEFAULT_AIRY, _NARROW_AIRY]))
    shape = SystemShape(m, n)
    assert _ls_key(shape, airy) == fraction_ls_lower(shape, airy)


def test_ls_lower_matches_the_fraction_floor_oracle_where_flagged():
    for (m, n) in [*_LS_FLAGGED_AT_RADIUS_1E3, (512, 256), (24, 12), (5, 4), (132, 24)]:
        for airy in (DEFAULT_AIRY, _NARROW_AIRY, _WIDE_AIRY):
            shape = SystemShape(m, n)
            assert _ls_key(shape, airy) == fraction_ls_lower(shape, airy), (m, n, airy)


def _ls_flag_key(shape, airy):
    out = ls_lower(shape, airy)
    return out.value, out.certification.near_boundary, out.certification.candidates


def test_ls_lower_near_boundary_with_huge_radius():
    out = ls_lower(SystemShape(512, 256), _WIDE_AIRY)
    cert = out.certification
    assert cert.near_boundary
    assert cert.candidates is not None and len(cert.candidates) == 2
    assert out.value == cert.candidates[0] < cert.candidates[1]
    # (value, near_boundary, candidates); one integer in doubt or two
    for (m, n), key in {(512, 256): (27, True, (27, 29)), (24, 12): (3, True, (3, 4)),
                        (5, 4): (3, True, (3, 4)), (43, 35): (10, True, (10, 11)),
                        (132, 24): (3, False, None)}.items():
        assert _ls_flag_key(SystemShape(m, n), _WIDE_AIRY) == key, (m, n)


# Every shape with N <= 120 whose two Airy ends give ls_lower different
# floors at precision radius 1/1000: (value, near_boundary, candidates).
_LS_FLAGGED_AT_RADIUS_1E3 = {
    (43, 35): (10, True, (10, 11)), (47, 37): (10, True, (10, 11)),
    (51, 17): (3, True, (3, 4)), (53, 47): (14, True, (14, 15)),
    (60, 43): (10, True, (10, 11)), (66, 43): (9, True, (9, 10)),
    (72, 39): (7, True, (7, 8)), (73, 63): (17, True, (17, 18)),
}


def test_ls_lower_flagged_shapes_at_narrow_radius():
    airy = AiryConstant(precision_radius=Fraction(1, 1000))
    flagged = {}
    for shape in enumerate_shapes(120):
        key = _ls_flag_key(shape, airy)
        if key[1]:
            flagged[shape.m, shape.n] = key
    assert flagged == _LS_FLAGGED_AT_RADIUS_1E3


def _ls_ends(airy):
    """The two ends of the Airy enclosure as (P, Q) pairs."""
    return [(i.numerator, i.denominator) for i in i1_enclosure(airy)]


_COEFF = st.integers(-10**6, 10**6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6), _COEFF, _COEFF,
       _COEFF.filter(lambda c: c != 0))
def test_cube_field_norm_is_the_resultant(p, q, A, B, C):
    # Res_x(q x^3 - p, g) = q^2 g(mu) g(w mu) g(w^2 mu) for g of degree 2
    x = sympy.symbols("x")
    assert _cube_field_norm(p, q, A, B, C) == sympy.resultant(
        q * x**3 - p, A + B * x + C * x**2, x)


def _ls_top(N, n, P, Q):
    # the degree ls_lower proves refused at i1 = P/Q
    return (n * n // N + P * P // (Q * Q)) // 2 + 2


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**6), st.data())
def test_ls_refuses_degree_matches_interval_oracle(n, data):
    m = data.draw(st.one_of(st.integers(n + 1, 4 * n), st.integers(n + 1, n * n + 1)))
    N = 2 * m - n
    P, Q = data.draw(st.sampled_from(_ls_ends(DEFAULT_AIRY) + _ls_ends(_WIDE_AIRY)))
    # f within two of the acceptance edge floor((w4^6 - 1) / 2), found in floats
    w4 = _cardano_w4(n / math.sqrt(2 * N), -P / Q * 6.0 ** (-1.0 / 3.0))[2]
    edge = math.floor((w4 ** 6 - 1) / 2)
    f = data.draw(st.integers(max(0, edge - 2), edge + 2))
    assert _ls_refuses_degree(N, n, P, Q, f) == interval_ls_refuses_degree(N, n, Fraction(P, Q), f)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5000), st.data())
def test_ls_acceptance_is_monotone(n, data):
    # the premise of ls_lower's bisection: refusal reads False...False
    # True...True over f = 0..top, and top itself is refused
    m = data.draw(st.one_of(st.integers(n + 1, 4 * n), st.integers(n + 1, n * n + 1)))
    N = 2 * m - n
    P, Q = data.draw(st.sampled_from(_ls_ends(DEFAULT_AIRY) + _ls_ends(_WIDE_AIRY)))
    refused = [_ls_refuses_degree(N, n, P, Q, f) for f in range(_ls_top(N, n, P, Q) + 1)]
    assert refused[-1] and refused == sorted(refused)


def test_ls_lower_is_one_integer_search_per_end(monkeypatch):
    # no bracket step runs, and each end of the enclosure costs one bisection
    def no_step(self):
        raise AssertionError("ls_lower brackets no root")

    probes, test = [], bounds_mod._ls_refuses_degree
    monkeypatch.setattr(DyadicBracket, "step", no_step)
    monkeypatch.setattr(bounds_mod, "_ls_refuses_degree",
                        lambda *args: probes.append(args) or test(*args))
    huge = [SystemShape(2**150 + 3, 2**150), SystemShape(10**309 + 1, 10**309)]
    for airy in (DEFAULT_AIRY, _WIDE_AIRY,
                 AiryConstant(i1=Fraction(10**50), precision_radius=Fraction(1, 3))):
        top_end = _ls_ends(airy)[1]
        for shape in [*enumerate_shapes(30), *huge]:
            probes.clear()
            ls_lower(shape, airy)
            top = _ls_top(shape.N, shape.n, *top_end)
            assert 1 <= len(probes) <= 2 * (top.bit_length() + 2), (shape, airy)


def _ls_start_shapes(max_N):
    """enumerate_shapes(max_N), the published rows, and the families at n = 2^16..2^18."""
    return [*enumerate_shapes(max_N)] + [
        SystemShape(family["m_of_n"](n), n) for family in ref.FAMILIES.values()
        for n in [row[0] for row in family["rows"]] + [2**16, 2**17, 2**18]]


@pytest.mark.parametrize("lie", [
    lambda start, hi: 0,
    lambda start, hi: -1,
    lambda start, hi: hi + 5,
    lambda start, hi: start + 1,
    lambda start, hi: start - 1,
    lambda start, hi: start + 9,
    lambda start, hi: start - 9,
], ids=["zero", "minus-one", "top+5", "start+1", "start-1", "start+9", "start-9"])
def test_ls_lower_ignores_a_lying_start(monkeypatch, lie):
    # the integer start only picks where each end's search looks: moved
    # anywhere, at both ends, every outcome is the same
    shapes = _ls_start_shapes(60)
    expected = [ls_lower(shape) for shape in shapes]
    gallop = bounds_mod.integer_gallop
    monkeypatch.setattr(bounds_mod, "integer_gallop",
                        lambda lo, hi, accepts, start: gallop(lo, hi, accepts, lie(start, hi)))
    assert [ls_lower(shape) for shape in shapes] == expected


def test_ls_lower_start_lands_next_to_the_floor(monkeypatch):
    # the lower end's start is 0, 1 or 2 below its first refused degree, so
    # it makes 2 or 3 tests, and the upper end, starting just above the
    # lower end's floor, 1 where the floors agree: 3 or 4 tests a shape
    tests, test = [], bounds_mod._ls_refuses_degree
    monkeypatch.setattr(bounds_mod, "_ls_refuses_degree",
                        lambda *args: tests.append(args) or test(*args))
    for shape in _ls_start_shapes(120):
        tests.clear()
        assert not ls_lower(shape).certification.near_boundary
        assert len(tests) in (3, 4), shape


@pytest.mark.parametrize("m,n", [(2**150 + 3, 2**150), (10**309 + 1, 10**309)],
                         ids=["2^150", "10^309"])
def test_ls_lower_floors_of_huge_shapes_match_interval_oracle(m, n):
    # each reported floor is accepted, and the next degree refused, by the
    # interval oracle at its own end of the Airy enclosure
    out = ls_lower(SystemShape(m, n))
    cert = out.certification
    floors = (out.value - 1, (cert.candidates[1] if cert.near_boundary else out.value) - 1)
    N = 2 * m - n
    for f, i1 in zip(floors, i1_enclosure(DEFAULT_AIRY)):
        assert f > 0
        assert not interval_ls_refuses_degree(N, n, i1, f)
        assert interval_ls_refuses_degree(N, n, i1, f + 1)


def test_ls_lower_root_bound_figure_value():
    assert 12.46 <= ls_lower_root_bound(36, 3) <= 12.48


def test_airy_constant_default_contains_true_zero():
    import mpmath

    mpmath.mp.dps = 30
    true_i1 = mpmath.cbrt(3) * (-mpmath.airyaizero(1))
    airy = DEFAULT_AIRY
    enc = i1_enclosure(airy)
    assert float(enc.lo) < float(true_i1) < float(enc.hi)
    assert airy.c == pytest.approx(1.85575, abs=5e-5)


def test_airy_constant_validation():
    with pytest.raises(ValueError):
        AiryConstant(i1=Fraction(-1))
    with pytest.raises(ValueError):
        AiryConstant(precision_radius=Fraction(-1, 10))
    # a radius reaching i1 lets the enclosure of c touch zero, where the
    # per-degree test of ls_lower loses its c > 0
    for i1, radius in ((Fraction(1), Fraction(1)), (Fraction("3.37213"), Fraction(10))):
        with pytest.raises(ValueError):
            AiryConstant(i1=i1, precision_radius=radius)


def test_airy_constant_takes_its_fields_exactly():
    # a float or an int is read as the Fraction of equal value, so the
    # outcome is the same, and a float i1 no longer crashes ls_lower
    shapes = [SystemShape(24, 12), SystemShape(512, 256), SystemShape(43, 35)]
    for i1, radius in ((3.5, 0.5), (3, 0), (3.37213, 2.0 ** -10)):
        airy, exact = AiryConstant(i1, radius), AiryConstant(Fraction(i1), Fraction(radius))
        assert airy == exact and all(type(x) is Fraction for x in airy)
        assert [ls_lower(s, airy) for s in shapes] == [ls_lower(s, exact) for s in shapes]
    assert ls_lower(SystemShape(24, 12), AiryConstant(i1=3.37213)).value == 4


@pytest.mark.parametrize("field", ["i1", "precision_radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_airy_constant_refuses_non_finite_fields(field, value):
    # a NaN and an infinity alike are a ValueError, not an OverflowError
    with pytest.raises(ValueError):
        AiryConstant(**{field: value})


@pytest.mark.parametrize("airy", [
    DEFAULT_AIRY,
    AiryConstant(precision_radius=Fraction(0)),
    AiryConstant(precision_radius=Fraction(1, 2)),
    AiryConstant(i1=Fraction(7, 3), precision_radius=Fraction(7, 3) - Fraction(1, 10**9)),
    AiryConstant(i1=Fraction(10**50), precision_radius=Fraction(1, 3)),
], ids=["default", "radius-0", "radius-1/2", "radius-near-i1", "huge-i1"])
def test_c_enclosure_is_the_corner_product(airy):
    # the oracle's c = 6^(-1/3) i1 from two non-negative intervals, end by
    # end, against the smallest and largest of all four corner products
    for bits in LS_BITS_SCHEDULE:
        root = Interval.of(nth_root_enclosure(Fraction(1, 6), 3, bits))
        corners = root * Interval.of(i1_enclosure(airy))
        c = c_enclosure(airy, bits)
        assert (c.lo, c.hi) == (corners.lo, corners.hi)


# ------------------------------------------------------------ LS asymptotics


def test_ls_lower_asymptotic_examples():
    assert ls_lower_asymptotic(SystemShape(512, 256)) == pytest.approx(256**2 / (4 * 768))
    assert ls_lower_asymptotic(SystemShape(2048, 256)) == pytest.approx(256**2 / (4 * 3840))


def test_asymptotic_case_formulas():
    assert ls_lower_asymptotic_case("beta_n", 1024, 2) == pytest.approx(1024 / 12)
    assert ls_lower_asymptotic_case("n_plus_alpha", 512, 100) == pytest.approx(
        512 / (4 * (1 + 200 / 512))
    )
    assert ls_lower_asymptotic_case("n_pow_2_minus_gamma", 256, 1) == pytest.approx(32.0)
    assert ls_lower_asymptotic_case("n_log_n", 1024) == pytest.approx(
        1024 / (4 * (2 * math.log(1024) - 1))
    )


def test_asymptotic_case_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ls_lower_asymptotic_case("beta_n", 1024, 1)
    with pytest.raises(ValueError):
        ls_lower_asymptotic_case("n_plus_alpha", 512, 0)
    with pytest.raises(ValueError):
        ls_lower_asymptotic_case("n_pow_2_minus_gamma", 256, 1.5)
    with pytest.raises(ValueError):
        ls_lower_asymptotic_case("n_log_n", 1024, 2.0)
    with pytest.raises(ValueError):
        ls_lower_asymptotic_case("nope", 1024, 1)


@pytest.mark.parametrize("family,n,parameter", [
    ("beta_n", 4, math.nan), ("beta_n", 4, math.inf),
    ("n_plus_alpha", 16, math.nan), ("n_plus_alpha", 16, math.inf),
    ("n_pow_2_minus_gamma", 16, math.nan),
    ("n_log_n", math.nan, None), ("n_log_n", math.inf, None),
    ("beta_n", math.nan, 2), ("n_plus_alpha", math.inf, 100),
])
def test_asymptotic_case_refuses_non_finite_inputs(family, n, parameter):
    # each returned nan, inf or 0.0 before it was refused
    with pytest.raises(ValueError):
        ls_lower_asymptotic_case(family, n, parameter)


# ---------------------------------------------------------------- LS upper


def test_ls_upper_examples():
    assert ls_upper(SystemShape(512, 256)).value == 100
    assert ls_upper(SystemShape(2048, 256)).value == 20
    out = ls_upper(SystemShape(356, 256))
    assert not out.applicable
    assert out.not_applicable_reason is NotApplicableReason.NEGATIVE_DISCRIMINANT


def test_ls_upper_matches_ceiling_formula_away_from_boundary():
    for shape in _grid_shapes():
        out = ls_upper(shape)
        disc = (shape.N + 1) ** 2 - 4 * shape.n**2
        if disc < 0:
            assert not out.applicable
            continue
        val = (shape.N + 3 - math.sqrt(disc)) / 2
        if abs(val - round(val)) > 1e-6:
            assert out.value == 1 + math.ceil(val)


def test_ls_upper_root_bound_figure_value():
    assert 11.67 <= ls_upper_root_bound(36, 6) <= 11.69


# ---------------------------------------------------------------- L upper


def test_l_upper_examples():
    assert l_upper(SystemShape(24, 12)).value == 7
    assert l_upper(SystemShape(512, 256)).value == 46
    assert l_upper(SystemShape(356, 256)).value == 75


def test_l_upper_not_applicable_reasons():
    out = l_upper(SystemShape(2148, 2048))
    assert not out.applicable
    assert out.not_applicable_reason is NotApplicableReason.SEXTIC_MAX_NEGATIVE
    # the sextic maximum clears zero but its root cubes past floor(N/2)
    out = l_upper(SystemShape(4, 2))
    assert not out.applicable
    assert out.not_applicable_reason is NotApplicableReason.SEXTIC_ROOT_OUT_OF_RANGE


def test_l_upper_figure_vector_x5():
    out = l_upper(SystemShape(24, 12))
    # x5 in (1.80, 1.82): s changes sign there, at N = 36, n = 12
    assert sextic_value(36, 12, Fraction(9, 5)) < 0 < sextic_value(36, 12, Fraction(91, 50))
    assert out.value == 7


def _assert_l_upper_matches_predicate(shape):
    out = l_upper(shape)
    k = l_smallest_accepted_degree(shape)
    assert k == (out.value - 1 if out.applicable else None)


def test_l_upper_agrees_with_exact_per_degree_predicate():
    for shape in _grid_shapes():
        _assert_l_upper_matches_predicate(shape)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**4), st.data())
def test_l_upper_agrees_with_exact_per_degree_predicate_on_drawn_shapes(n, data):
    _assert_l_upper_matches_predicate(SystemShape(data.draw(st.integers(n + 1, 4 * n)), n))


def test_l_upper_integer_x5_shapes(monkeypatch):
    # x5 is an integer here: s(x5) = 0, so the norm at k = x5^3 is zero and
    # the ceiling is exact, with no bracket steps
    steps, step = [], DyadicBracket.step
    monkeypatch.setattr(DyadicBracket, "step", lambda self: steps.append(1) or step(self))
    for (m, n), value in {(12, 8): 9, (19, 12): 9, (28, 16): 9, (39, 20): 9,
                          (45, 36): 28}.items():
        steps.clear()
        out = l_upper(SystemShape(m, n))
        assert out.value == value
        assert out.certification.method is CertificationMethod.EXACT_INTEGER_PREDICATE
        x5 = iroot(value - 1, 3)
        assert x5 ** 3 == value - 1
        assert sextic_value(2 * m - n, n, Fraction(x5)) == 0
        assert steps == []


def test_l_upper_ceiling_inside_the_x5_bracket():
    # x5^3 is not an integer: the norm changes sign strictly between the
    # ceiling k and k - 1
    for (m, n), value in {(215, 43): 7, (235, 197): 88, (167, 32): 7,
                          (177, 153): 86}.items():
        out = l_upper(SystemShape(m, n))
        N, k = 2 * m - n, value - 1
        assert _l_degree_norm(N, n, k) > 0 > _l_degree_norm(N, n, k - 1)
        assert out.value == value
        assert out.certification.method is CertificationMethod.INTERVAL_CERTIFIED


@pytest.mark.parametrize("m,n", [(4, 2), (2148, 2048), (33024, 32768)])
def test_l_upper_max_sign_tie_is_out_of_range(monkeypatch, m, n):
    # no natural shape reaches the tie s(x4') = 0, where the resultant is
    # zero, so force it.  The outcome rests on x4' > (N/2)^(1/3): at the tie
    # s < 0 left of x4', so no degree k <= N/2 is accepted
    monkeypatch.setattr(bounds_mod, "_l_max_resultant", lambda N, c: 0)
    shape = SystemShape(m, n)
    out = l_upper(shape)
    assert out.not_applicable_reason is NotApplicableReason.SEXTIC_ROOT_OUT_OF_RANGE
    assert out.certification.method is CertificationMethod.EXACT_INTEGER_PREDICATE
    assert l_sextic_peak(shape.N)[0] ** 3 > shape.N / 2


def test_l_upper_method_follows_the_norm_at_its_ceiling():
    exact_shapes = 0
    for shape in enumerate_shapes(120):
        out = l_upper(shape)
        if not out.applicable:
            continue
        N, n, k = shape.N, shape.n, out.value - 1
        zero = _l_degree_norm(N, n, k) == 0
        exact = out.certification.method is CertificationMethod.EXACT_INTEGER_PREDICATE
        assert exact == zero, (shape.m, shape.n)
        # a zero norm is x5^3 = k: k is a cube u^3 with s(u) = 0
        u = iroot(k, 3)
        assert zero == (u ** 3 == k and 4 * (N - k) * (k + u - 2 * u * u) == n * n)
        exact_shapes += exact
    assert exact_shapes >= 5


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5000), st.data())
def test_l_acceptance_is_monotone_up_to_half_n(n, data):
    # the premise of l_upper's search: s increases over the cube roots of
    # k = 1..N/2, so acceptance reads False...False True...True, and
    # s(1) = -n^2/4 < 0 refuses k = 1
    shape = SystemShape(data.draw(st.integers(n + 1, max(n + 1, 10**4 // 2 + n // 2))), n)
    N = shape.N
    accepted = [_l_accepts_degree(N, n, k) for k in range(1, N // 2 + 1)]
    assert not accepted[0]
    assert accepted == sorted(accepted)


@pytest.mark.parametrize("m,n", [(24, 12), (512, 256), (10**20, 4)])
def test_l_upper_applicable_path_is_one_integer_search(monkeypatch, m, n):
    # an applicable shape needs neither the resultant nor a bracket step,
    # and the search over k = 1..N/2 reads O(log N) norms
    def refused(*args):
        raise AssertionError("not on the applicable path")

    norms, norm = [], bounds_mod._l_degree_norm
    monkeypatch.setattr(bounds_mod, "_l_max_resultant", refused)
    monkeypatch.setattr(DyadicBracket, "step", refused)
    monkeypatch.setattr(bounds_mod, "_l_degree_norm",
                        lambda *args: norms.append(args) or norm(*args))
    shape = SystemShape(m, n)
    assert l_upper(shape).applicable
    assert 1 <= len(norms) <= shape.N.bit_length() + 2


def _l_upper_by_cold_bisection(shape):
    """`l_upper` with its seeded gallop replaced by an integer bisection of [1, N/2]."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds_mod, "integer_gallop",
                      lambda lo, hi, accepts, start: integer_bisect(lo, hi, accepts))
        return l_upper(shape)


def test_l_upper_equals_the_cold_bisection():
    # value, method and flags, on every shape with N <= 200, the published
    # rows and the families at n = 2^16..2^18
    for shape in [*enumerate_shapes(200), *_ls_start_shapes(0)]:
        assert l_upper(shape) == _l_upper_by_cold_bisection(shape), shape


@pytest.mark.parametrize("lie", [
    lambda start, N: 0,
    lambda start, N: -1,
    lambda start, N: N,
    lambda start, N: 10**30,
    lambda start, N: start + 1,
    lambda start, N: start - 1,
    lambda start, N: start + 9,
    lambda start, N: start - 9,
], ids=["zero", "minus-one", "N", "10^30", "start+1", "start-1", "start+9", "start-9"])
def test_l_upper_ignores_a_lying_start(monkeypatch, lie):
    # the float start only picks where the search looks
    shapes = _ls_start_shapes(60)
    expected = [l_upper(shape) for shape in shapes]
    start = bounds_mod._l_start
    monkeypatch.setattr(bounds_mod, "_l_start", lambda N, n: lie(start(N, n), N))
    assert [l_upper(shape) for shape in shapes] == expected


def test_l_upper_start_lands_on_the_ceiling(monkeypatch):
    # the start is the first accepted degree, so after the test of N/2 two
    # norms decide (one where it is 2): on N <= 60, the published rows and
    # the far families
    norms, norm = [], bounds_mod._l_degree_norm
    monkeypatch.setattr(bounds_mod, "_l_degree_norm",
                        lambda *args: norms.append(args) or norm(*args))
    applicable = 0
    for shape in _ls_start_shapes(60):
        norms.clear()
        out = l_upper(shape)
        if out.applicable:
            applicable += 1
            assert bounds_mod._l_start(shape.N, shape.n) == out.value - 1, shape
            assert len(norms) in (3, 4), shape  # the method reads one more
    assert applicable == 547 + 32 + 9


@pytest.mark.parametrize("m,n", [(2 * 10**309, 10**309), (10**30, 10**15)],
                         ids=["10^309", "10^30"])
def test_l_upper_past_the_float_range_starts_in_the_middle(m, n):
    # n^2 / 4 overflows a float at n = 10^309, so the search starts where the
    # bisection did; at 10^30 the float start is formed
    shape = SystemShape(m, n)
    N = shape.N
    assert (bounds_mod._l_start(N, n) == (1 + N // 2) // 2) == (n > 10**300)
    out = l_upper(shape)
    assert out == _l_upper_by_cold_bisection(shape)
    k = out.value - 1
    assert _l_accepts_degree(N, n, k) and not _l_accepts_degree(N, n, k - 1)


def test_l_accepts_degree_exact_ties():
    # the integer-x5 shapes: alpha = 0 at k = x5^3, so k is accepted, and
    # one more variable tips it
    for (m, n), k in {(12, 8): 8, (19, 12): 8, (28, 16): 8, (39, 20): 8,
                      (45, 36): 27}.items():
        N = 2 * m - n
        assert 4 * (N - k) * (k + iroot(k, 3) - 2 * iroot(k, 3) ** 2) == n * n
        for v, accepted in ((n, True), (n + 1, False)):
            assert _l_accepts_degree(N, v, k) is accepted
            assert interval_l_accepts_degree(N, v, k) is accepted


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**6), st.data())
def test_l_accepts_degree_norm_matches_interval_oracle(N, data):
    top = N // 2
    k = data.draw(st.one_of(st.just(1), st.just(top),
                            st.integers(1, iroot(top, 3)).map(lambda c: c ** 3),
                            st.integers(1, top)))
    # n within two of the acceptance edge n^2 = 4 (N - k)(k + u - 2u^2)
    u = k ** (1 / 3)
    edge = math.isqrt(max(0, int(4 * (N - k) * (k + u - 2 * u * u))))
    n = data.draw(st.integers(max(1, edge - 2), edge + 2))
    assert _l_accepts_degree(N, n, k) == interval_l_accepts_degree(N, n, k)


CERTIFIED = (kz_lower, ls_lower, ls_upper, l_upper)


@pytest.mark.parametrize("refuse", ["narrow"])
def test_seeded_bounds_fall_back_to_bisection(monkeypatch, refuse):
    # the four certified bounds need no seeded window: with every
    # `DyadicBracket.narrow` refused, each outcome over N <= 40 is the same
    shapes = list(enumerate_shapes(40))
    expected = [[bound(shape) for bound in CERTIFIED] for shape in shapes]
    monkeypatch.setattr(DyadicBracket, refuse, lambda self, guess: False)
    assert [[bound(shape) for bound in CERTIFIED] for shape in shapes] == expected


def test_certified_bounds_decide_in_integers(monkeypatch):
    # the four certified bounds read no float: with `bounds.math` reduced to
    # the one integer function they use, every outcome over N <= 40 is the same
    shapes = list(enumerate_shapes(40))
    expected = [[bound(shape) for bound in CERTIFIED] for shape in shapes]
    monkeypatch.setattr(bounds_mod, "math", SimpleNamespace(isqrt=math.isqrt))
    assert [[bound(shape) for bound in CERTIFIED] for shape in shapes] == expected


def test_l_upper_root_bound_figure_value():
    assert 11.96 <= l_upper_root_bound(36, 6) <= 11.98


@pytest.mark.parametrize("function,args,message", [
    (l_upper_root_bound, (36, 19), "requires 1 <= k <= N/2"),
    (ls_lower_root_bound, (10, 0), "requires 1 <= k <= N; got k=0, N=10"),
    (ls_upper_root_bound, (10, 11), "requires 1 <= k <= N; got k=11, N=10"),
    (kz_root_bound, (10, 5), "requires 1 <= k < N/2; got k=5, N=10"),
    (integer_values, (10, 2, 11), "requires 0 <= k_max <= N; got k_max=11, N=10"),
], ids=["l_upper_root_bound", "ls_lower_root_bound", "ls_upper_root_bound", "kz_root_bound",
        "integer_values"])
def test_degree_outside_the_range_refused(function, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        function(*args)


def test_sextic_derivative_factorization_identity():
    for N in (3, 36, 456, 1000):
        assert s_derivative_coefficients(N) == one_minus_x_times_r_coefficients(N)
    # cross-check the coefficient lists symbolically once
    x = sympy.Symbol("x")
    N_sym = sympy.Symbol("N", positive=True)
    n_sym = sympy.Symbol("n", positive=True)
    s = x * (x - 1) ** 2 * (N_sym - x**3) - n_sym**2 / 4
    r = 6 * x**4 - 4 * x**3 - 3 * N_sym * x + N_sym
    assert sympy.expand(sympy.diff(s, x) - (1 - x) * r) == 0


def test_quartic_factor_discriminant_closed_form():
    x = sympy.Symbol("x")
    for N in (3, 36, 456):
        r = 6 * x**4 - 4 * x**3 - 3 * N * x + N
        disc = sympy.discriminant(r, x)
        assert disc == -78732 * N**4 - 39744 * N**3 - 6912 * N**2
        assert disc < 0


def test_l_max_resultant_is_the_resultant():
    x, N, c = sympy.symbols("x N c")
    P = x * (x - 1) ** 2 * (N - x**3)
    r = 6 * x**4 - 4 * x**3 - 3 * N * x + N
    resultant = sympy.resultant(r, 4 * P - c, x)
    assert sympy.expand(resultant - 64 * _l_max_resultant(N, c)) == 0


def test_l_max_resultant_has_no_double_root_at_an_integer_n():
    # a real V = 4P(rho) at a complex root rho of r would be a double root
    # in c: the discriminant in c vanishes at no integer N >= 3
    N, c = sympy.symbols("N c")
    disc = sympy.discriminant(_l_max_resultant(N, c), c)
    quartic = 729 * N**4 - 3699 * N**3 - 1421 * N**2 + 133 * N - 8
    assert sympy.expand(disc + 5038848 * N**8 * (729 * N**2 + 368 * N + 64) ** 3
                        * quartic**2) == 0
    for factor in (N, 729 * N**2 + 368 * N + 64, quartic):
        poly = sympy.Poly(factor, N)
        for (lo, hi), _ in poly.intervals():
            assert all(poly.eval(k) != 0 for k in range(max(3, math.ceil(lo)),
                                                          math.floor(hi) + 1))


def test_l_upper_reason_needs_n_squared_above_16n_over_27():
    # on the not-applicable branch the resultant's sign is -s(x4') once
    # 27 n^2 > 16 N, which the proof gives for N >= 8; the rest down to
    # N = 4 is this enumeration.  Refusal of floor(N/2) and 27 n^2 > 16 N
    # both grow with n, so the smallest refused n of each N suffices
    for N in range(4, 2000):
        n = next(n for n in range(2 - N % 2, N, 2) if not _l_accepts_degree(N, n, N // 2))
        assert 27 * n * n > 16 * N, (N, n)


def test_l_upper_n3_is_max_negative():
    # (2, 1) is the one shape with N = 3, and there n^2 = 1 < V0: the
    # resultant is negative, yet the maximum of s is negative too
    out = l_upper(SystemShape(2, 1))
    assert out.not_applicable_reason is NotApplicableReason.SEXTIC_MAX_NEGATIVE
    assert out.certification.method is CertificationMethod.EXACT_INTEGER_PREDICATE
    assert _l_max_resultant(3, 1) < 0
    assert l_max_sign(3, 1) < 0


_L_REASON = {1: NotApplicableReason.SEXTIC_ROOT_OUT_OF_RANGE,
             -1: NotApplicableReason.SEXTIC_MAX_NEGATIVE}


def test_l_upper_reason_matches_mpmath_up_to_200():
    checked = 0
    for shape in enumerate_shapes(200):
        out = l_upper(shape)
        if out.applicable:
            continue
        assert out.not_applicable_reason is _L_REASON[l_max_sign(shape.N, shape.n)], shape
        checked += 1
    assert checked > 1000


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10**15), st.integers(-2, 2))
def test_l_upper_reason_matches_mpmath_at_the_edge(N, offset):
    # n within two of the edge floor(sqrt(4P(x4'))), where s(x4') changes sign
    n = math.isqrt(int(l_sextic_peak(N)[1])) + offset
    assume(1 <= n < N and (N - n) % 2 == 0)
    out = l_upper(SystemShape((N + n) // 2, n))
    sign = l_max_sign(N, n)
    if out.applicable:
        assert sign > 0  # an accepted degree has s >= 0, so its maximum is too
    else:
        assert out.not_applicable_reason is _L_REASON[sign]


# ------------------------------------------------------------ sandwich et al


def test_sandwich_on_grid():
    for shape in _grid_shapes():
        d = degree_of_regularity_exact(shape)
        assert kz_lower(shape).value <= d
        assert ls_lower(shape).value <= d
        for out in (ls_upper(shape), l_upper(shape)):
            if out.applicable:
                assert d <= out.value


def test_sandwich_verdict_agrees_with_the_decisions_it_replaced():
    # `semireg bounds` and the sandwich suite each decided in their own code;
    # both decisions are replayed at d_reg and just past each end
    for shape in enumerate_shapes(60):
        kz, lsl, lsu, lu = kz_lower(shape), ls_lower(shape), ls_upper(shape), l_upper(shape)
        uppers = [o.value for o in (lu, lsu) if o.applicable]
        lower, upper, _ = sandwich_verdict(1, kz, lsl, lsu, lu)
        assert (lower, upper) == (max(kz.value, lsl.value), min(uppers, default=None))
        d_reg = degree_of_regularity_exact(shape)
        for d in {d_reg, lower - 1, lower, *(u + i for u in uppers for i in (0, 1))}:
            cli = kz.value <= d and lsl.value <= d and all(d <= v for v in uppers)
            suite = kz.value <= d and lsl.value <= d
            if lsu.applicable:
                suite = suite and d <= lsu.value
            if lu.applicable:
                suite = suite and d <= lu.value
            assert sandwich_verdict(d, kz, lsl, lsu, lu)[2] == cli == suite, (shape, d)


def test_transfer_soundness_on_grid():
    # lower bounds: every accepted degree has a strictly positive value at t;
    # upper bounds: the accepted degree sees some non-positive value at or
    # below it (equivalently it is >= d_reg).
    for shape in _grid_shapes():
        d = degree_of_regularity_exact(shape)
        for out in (kz_lower(shape), ls_lower(shape)):
            accepted = out.value - 1
            assert accepted <= d - 1
            if accepted >= 1:
                assert eval_integer(shape.N, accepted, shape.t) > 0
        for out in (ls_upper(shape), l_upper(shape)):
            if out.applicable:
                assert out.value - 1 >= d
                assert any(
                    eval_integer(shape.N, l, shape.t) <= 0
                    for l in range(1, out.value)
                )


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 48), st.data())
def test_sandwich_sampled(n, data):
    m = data.draw(st.integers(n + 1, 4 * n))
    shape = SystemShape(m, n)
    d = degree_of_regularity_exact(shape)
    assert kz_lower(shape).value <= d
    assert ls_lower(shape).value <= d
    up = ls_upper(shape)
    if up.applicable:
        assert d <= up.value


@pytest.mark.parametrize("family", list(ref.FAMILIES.values()),
                         ids=[family["family_arg"] for family in ref.FAMILIES.values()])
def test_published_families_far_past_the_tables(family):
    # n = 2^16..2^18, eight to thirty-two times the last published n; the
    # published rows are left as they are
    i1, radius = DEFAULT_AIRY
    for n in (2**16, 2**17, 2**18):
        shape = SystemShape(family["m_of_n"](n), n)
        d = degree_of_regularity_exact(shape)
        kz, lsl, lsu, lu = outcomes = (kz_lower(shape), ls_lower(shape),
                                       ls_upper(shape), l_upper(shape))
        # no row this far out is certified near a boundary
        assert [out.certification.near_boundary for out in outcomes] == [False] * 4, n
        assert kz.value <= d and lsl.value <= d
        # the m = n + alpha families have no upper bound; the others have both
        assert lsu.applicable == lu.applicable == (family["family_arg"] in ("2n", "8n", "nlog2n"))
        assert all(d <= out.value for out in (lsu, lu) if out.applicable)
        # each end of the Airy enclosure alone: floors at most one apart,
        # and the certified bound is the lower end's
        ends = [ls_lower(shape, AiryConstant(i1 + sign * radius, 0)).value for sign in (-1, 1)]
        assert 0 <= ends[1] - ends[0] <= 1 and lsl.value == ends[0], n


def test_asymptotic_consistency_beta2():
    # ratio of the certified bound to n/12 approaches 1 for m = 2n
    ratios = []
    for e in range(10, 16):
        n = 1 << e
        value = ls_lower(SystemShape(2 * n, n)).value
        ratios.append(value / (n / 12))
    assert abs(ratios[-1] - 1) < 0.05
    assert abs(ratios[-1] - 1) <= abs(ratios[0] - 1) + 0.01


def test_quadratic_growth_pins_bound_at_two():
    for n in (64, 128, 256):
        assert ls_lower(SystemShape(n * n, n)).value == 2
