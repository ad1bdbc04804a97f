"""Tests for the four closed-form bounds and their certification machinery."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from semireg.exact import SystemShape, degree_of_regularity_exact
from semireg.krawtchouk import eval_integer
from semireg.bounds import (
    AiryConstant,
    BoundKind,
    CertificationMethod,
    DEFAULT_AIRY,
    NotApplicableReason,
    QuarticClosedForm,
    SexticForm,
    ThresholdDecision,
    kz_lower,
    kz_predicate_full,
    kz_root_bound,
    l_smallest_accepted_degree,
    l_upper,
    l_upper_root_bound,
    ls_lower,
    ls_lower_asymptotic,
    ls_lower_asymptotic_case,
    ls_lower_root_bound,
    ls_upper,
    ls_upper_root_bound,
)
import semireg.bounds as bounds_mod
from semireg.bounds import (_LS_BITS_SCHEDULE, _max_sign_margin, _quartic_positive_root,
                            _r_value_dyadic)
from semireg.intervals import DyadicBracket, iroot, sqrt_enclosure
from semireg.verify import enumerate_shapes

from oracle_utils import (
    enclosure_max_sign_margin,
    fraction_quartic_positive_root,
    one_minus_x_times_r_coefficients,
    s_derivative_coefficients,
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


def test_kz_predicate_full_examples():
    s = SystemShape(24, 12)
    # KZ_3 ~ 12.29 >= t = 12: degree 3 accepted by the corrected inequality
    assert kz_predicate_full(s, 3) is ThresholdDecision.ABOVE
    assert kz_predicate_full(s, 1) is ThresholdDecision.ABOVE
    big = SystemShape(512, 256)
    assert kz_predicate_full(big, 22) is not ThresholdDecision.UNDECIDED


def test_kz_predicate_validity_range():
    s = SystemShape(24, 12)
    with pytest.raises(ValueError):
        kz_predicate_full(s, 0)
    with pytest.raises(ValueError):
        kz_predicate_full(s, 18)  # k = N/2 out of range


def test_kz_full_predicate_at_least_as_sharp_as_floor():
    # the simplified inequality implies the corrected one, so the floor's
    # accepted degree must pass the full predicate
    for shape in _grid_shapes():
        f = kz_lower(shape).value - 1
        if 1 <= f and 2 * f < shape.N:
            assert kz_predicate_full(shape, f) is ThresholdDecision.ABOVE


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


def test_integer_quartic_bisection_matches_fraction_reference():
    # the corner quartics ls_lower bisects, at every width of its schedule
    shapes = [SystemShape(24, 12), SystemShape(512, 256), SystemShape(32868, 32768),
              SystemShape(65536, 32768), SystemShape(7, 6), *_grid_shapes()]
    for shape in shapes:
        a_sq = Fraction(shape.n * shape.n, 2 * shape.N)
        for bits in _LS_BITS_SCHEDULE:
            a_enc = sqrt_enclosure(a_sq, bits)
            b_enc = -DEFAULT_AIRY.c_enclosure(bits)
            width = Fraction(1, 1 << (bits // 2))
            for a, b in ((a_enc.lo, b_enc.hi), (a_enc.hi, b_enc.lo)):
                enc = _quartic_positive_root(a, b, width)
                assert (enc.lo, enc.hi) == fraction_quartic_positive_root(a, b, width)


def test_integer_quartic_bisection_exact_dyadic_root():
    # w^4 - w/2 - 1/2 vanishes at w = 1, the first midpoint of [0, 2]
    a, b = Fraction(1, 2), Fraction(-1, 2)
    width = Fraction(1, 1 << 20)
    assert fraction_quartic_positive_root(a, b, width) == (1, 1)
    assert _quartic_positive_root(a, b, width).is_point
    assert _quartic_positive_root(a, b, width).lo == 1


class _CountingBracket(DyadicBracket):
    """A DyadicBracket that counts the exact evaluations of its sign_at."""

    calls = 0

    def __init__(self, sign_at, *args, **kwargs):
        def counted(p, e):
            _CountingBracket.calls += 1
            return sign_at(p, e)

        super().__init__(counted, *args, **kwargs)


def test_seeded_quartic_root_costs_two_exact_evaluations(monkeypatch):
    monkeypatch.setattr(bounds_mod, "DyadicBracket", _CountingBracket)
    bits = _LS_BITS_SCHEDULE[0]  # the first width of the ls_lower schedule
    width = Fraction(1, 1 << (bits // 2))
    shapes = [SystemShape(24, 12), SystemShape(512, 256), SystemShape(32868, 32768),
              *_grid_shapes()]
    for shape in shapes:
        a_enc = sqrt_enclosure(Fraction(shape.n * shape.n, 2 * shape.N), bits)
        b_enc = -DEFAULT_AIRY.c_enclosure(bits)
        for a, b in ((a_enc.lo, b_enc.hi), (a_enc.hi, b_enc.lo)):
            _CountingBracket.calls = 0
            _quartic_positive_root(a, b, width)
            assert 0 < _CountingBracket.calls <= 2, (shape, a, b)


def test_ls_lower_certified_interval_tightness():
    # the certified floor agrees with the float closed form away from integers
    for shape in _grid_shapes():
        v = QuarticClosedForm.from_shape(shape).half_w4_pow6_minus_1()
        if abs(v - round(v)) > 1e-4:
            assert ls_lower(shape).value == 1 + math.floor(v)


def test_ls_lower_near_boundary_with_huge_radius():
    wide = AiryConstant(i1=Fraction("3.37213"), precision_radius=Fraction(1, 2))
    out = ls_lower(SystemShape(512, 256), wide)
    cert = out.certification
    assert cert.near_boundary
    assert cert.candidates is not None and len(cert.candidates) == 2
    assert out.value == cert.candidates[0] < cert.candidates[1]


def test_ls_lower_root_bound_figure_value():
    assert 12.46 <= ls_lower_root_bound(36, 3) <= 12.48


def test_airy_constant_default_contains_true_zero():
    import mpmath

    mpmath.mp.dps = 30
    true_i1 = mpmath.cbrt(3) * (-mpmath.airyaizero(1))
    airy = DEFAULT_AIRY
    enc = airy.i1_enclosure()
    assert float(enc.lo) < float(true_i1) < float(enc.hi)
    assert airy.c == pytest.approx(1.85575, abs=5e-5)


def test_airy_constant_validation():
    with pytest.raises(ValueError):
        AiryConstant(i1=Fraction(-1))
    with pytest.raises(ValueError):
        AiryConstant(precision_radius=Fraction(-1, 10))


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
    form = out.detail
    assert isinstance(form, SexticForm)
    assert Fraction("1.80") < form.x5.lo and form.x5.hi < Fraction("1.82")
    assert out.value == 7


def test_l_upper_agrees_with_exact_per_degree_predicate():
    for shape in _grid_shapes():
        out = l_upper(shape)
        k = l_smallest_accepted_degree(shape)
        if out.applicable:
            assert k == out.value - 1
        else:
            assert k is None


def test_l_upper_integer_x5_shapes():
    # x5 is an integer here; bisection of [1, witness] never lands on it, so
    # the ceiling falls to the exact per-degree predicate
    for (m, n), value in {(12, 8): 9, (19, 12): 9, (28, 16): 9, (39, 20): 9,
                          (45, 36): 28}.items():
        out = l_upper(SystemShape(m, n))
        assert out.value == value
        assert out.certification.method is CertificationMethod.EXACT_INTEGER_PREDICATE


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 10**6), st.integers(0, 40), st.data())
def test_max_sign_margin_matches_enclosure_formula(N, e, data):
    lo = data.draw(st.integers(1 << e, (iroot(N, 3) + 2) << e))
    hi = data.draw(st.integers(lo + 1, lo + (3 << e)))
    v = -data.draw(st.integers(0, 1 << (6 * e + 40)))
    assert _max_sign_margin(N, v, lo, hi, e) == enclosure_max_sign_margin(N, v, lo, hi, e)


def _bound_keys(shape):
    keys = []
    for out in (ls_lower(shape), l_upper(shape)):
        cert = out.certification
        keys.append((out.value, out.not_applicable_reason, cert.method,
                     cert.near_boundary, cert.candidates))
    return keys


@pytest.mark.parametrize("refuse", ["narrow", math.nan, math.inf, 1.5])
def test_seeded_bounds_fall_back_to_bisection(monkeypatch, refuse):
    # a refused or wrong seed costs bisection steps, never a different outcome
    shapes = list(enumerate_shapes(40))
    expected = [_bound_keys(shape) for shape in shapes]
    if refuse == "narrow":
        monkeypatch.setattr(DyadicBracket, "narrow", lambda self, guess, width: False)
    else:
        monkeypatch.setattr(bounds_mod, "newton_seed", lambda f, x, direction: refuse)
    assert [_bound_keys(shape) for shape in shapes] == expected


def test_l_upper_root_bound_figure_value():
    assert 11.96 <= l_upper_root_bound(36, 6) <= 11.98


def test_l_upper_root_bound_range():
    with pytest.raises(ValueError):
        l_upper_root_bound(36, 19)


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


def test_sextic_form_x4_bracket_signs():
    out = l_upper(SystemShape(24, 12))
    form = out.detail
    lo, hi = form.x4_prime.lo, form.x4_prime.hi
    # the endpoints are dyadic: p / 2^e with e read off the denominator
    assert _r_value_dyadic(36, lo.numerator, lo.denominator.bit_length() - 1) < 0
    assert _r_value_dyadic(36, hi.numerator, hi.denominator.bit_length() - 1) > 0


# ------------------------------------------------------------ sandwich et al


def test_sandwich_on_grid():
    for shape in _grid_shapes():
        d = degree_of_regularity_exact(shape)
        assert kz_lower(shape).value <= d
        assert ls_lower(shape).value <= d
        for out in (ls_upper(shape), l_upper(shape)):
            if out.applicable:
                assert d <= out.value


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
