"""Tests for the four closed-form bounds and their certification machinery."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from semireg.exact import SystemShape, degree_of_regularity_exact
from semireg.krawtchouk import eval_integer
from semireg.bounds import (
    AiryConstant,
    BoundKind,
    CertificationMethod,
    DEFAULT_AIRY,
    NotApplicableReason,
    QuarticClosedForm,
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
)
import semireg.bounds as bounds_mod
from semireg.bounds import (_LS_BITS_SCHEDULE, _l_accepts_degree, _l_degree_norm,
                            _l_max_resultant, _quartic_positive_root)
from semireg.intervals import DyadicBracket, iroot, nth_root_enclosure, sqrt_enclosure
from semireg.verify import enumerate_shapes

from oracle_utils import (
    Interval,
    fraction_ls_lower,
    fraction_quartic_positive_root,
    interval_l_accepts_degree,
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


def test_integer_quartic_bisection_matches_fraction_reference():
    # the corner quartics ls_lower bisects, at every width of its schedule
    shapes = [SystemShape(24, 12), SystemShape(512, 256), SystemShape(32868, 32768),
              SystemShape(65536, 32768), SystemShape(7, 6), *_grid_shapes()]
    for shape in shapes:
        a_sq = Fraction(shape.n * shape.n, 2 * shape.N)
        for bits in _LS_BITS_SCHEDULE:
            a_enc = sqrt_enclosure(a_sq, bits)
            c_enc = DEFAULT_AIRY.c_enclosure(bits)  # b = -c
            width = Fraction(1, 1 << (bits // 2))
            for a, b in ((a_enc.lo, -c_enc.lo), (a_enc.hi, -c_enc.hi)):
                br = _quartic_positive_root(a.as_integer_ratio(), b.as_integer_ratio(), width)
                assert (br.lo, br.hi) == fraction_quartic_positive_root(a, b, width)


def test_integer_quartic_bisection_exact_dyadic_root():
    # w^4 - w/2 - 1/2 vanishes at w = 1, the first midpoint of [0, 2]
    a, b = Fraction(1, 2), Fraction(-1, 2)
    width = Fraction(1, 1 << 20)
    assert fraction_quartic_positive_root(a, b, width) == (1, 1)
    br = _quartic_positive_root((1, 2), (-1, 2), width)
    assert br.exact and br.lo == br.hi == 1


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
        c_enc = DEFAULT_AIRY.c_enclosure(bits)  # b = -c
        for a, b in ((a_enc.lo, -c_enc.lo), (a_enc.hi, -c_enc.hi)):
            _CountingBracket.calls = 0
            _quartic_positive_root(a.as_integer_ratio(), b.as_integer_ratio(), width)
            assert 0 < _CountingBracket.calls <= 2, (shape, a, b)


def test_seeded_window_settles_every_corner_quartic_of_verify_60(monkeypatch):
    # the Cardano seed, descended by Newton, lands in the certified window of
    # both corner quartics at the first step of the schedule, for every shape
    narrowed, narrow = [], DyadicBracket.narrow
    monkeypatch.setattr(DyadicBracket, "narrow",
                        lambda self, guess, width: narrowed.append(narrow(self, guess, width))
                        or narrowed[-1])
    for shape in enumerate_shapes(60):
        ls_lower(shape)
    assert narrowed == [True] * 1740


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


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40_000), st.data())
def test_ls_lower_matches_the_fraction_floor_oracle(n, data):
    m = data.draw(st.one_of(st.integers(n + 1, 4 * n), st.integers(n + 1, n * n + 1)))
    airy = data.draw(st.sampled_from([DEFAULT_AIRY, _NARROW_AIRY]))
    shape = SystemShape(m, n)
    assert _ls_key(shape, airy) == fraction_ls_lower(shape, airy)


def test_ls_lower_matches_the_fraction_floor_oracle_where_flagged():
    wide = AiryConstant(i1=Fraction("3.37213"), precision_radius=Fraction(1, 2))
    for (m, n) in [*_LS_FLAGGED_AT_RADIUS_1E3, (512, 256), (24, 12), (5, 4), (132, 24)]:
        for airy in (DEFAULT_AIRY, _NARROW_AIRY, wide):
            shape = SystemShape(m, n)
            assert _ls_key(shape, airy) == fraction_ls_lower(shape, airy), (m, n, airy)


def _ls_flag_key(shape, airy):
    out = ls_lower(shape, airy)
    return out.value, out.certification.near_boundary, out.certification.candidates


def test_ls_lower_near_boundary_with_huge_radius():
    wide = AiryConstant(i1=Fraction("3.37213"), precision_radius=Fraction(1, 2))
    out = ls_lower(SystemShape(512, 256), wide)
    cert = out.certification
    assert cert.near_boundary
    assert cert.candidates is not None and len(cert.candidates) == 2
    assert out.value == cert.candidates[0] < cert.candidates[1]
    # (value, near_boundary, candidates); one integer in doubt or two
    for (m, n), key in {(512, 256): (27, True, (27, 29)), (24, 12): (3, True, (3, 4)),
                        (5, 4): (3, True, (3, 4)), (43, 35): (10, True, (10, 11)),
                        (132, 24): (3, False, None)}.items():
        assert _ls_flag_key(SystemShape(m, n), wide) == key, (m, n)


# Every shape with N <= 120 whose ls_lower floor the schedule cannot pin at
# precision radius 1/1000: (value, near_boundary, candidates).
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
    # a radius reaching i1 lets c's enclosure touch zero, where the quartic
    # w^4 - a w + b of ls_lower loses its b < 0
    for i1, radius in ((Fraction(1), Fraction(1)), (Fraction("3.37213"), Fraction(10))):
        with pytest.raises(ValueError):
            AiryConstant(i1=i1, precision_radius=radius)


@pytest.mark.parametrize("airy", [
    DEFAULT_AIRY,
    AiryConstant(precision_radius=Fraction(0)),
    AiryConstant(precision_radius=Fraction(1, 2)),
    AiryConstant(i1=Fraction(7, 3), precision_radius=Fraction(7, 3) - Fraction(1, 10**9)),
    AiryConstant(i1=Fraction(10**50), precision_radius=Fraction(1, 3)),
], ids=["default", "radius-0", "radius-1/2", "radius-near-i1", "huge-i1"])
def test_c_enclosure_is_the_corner_product(airy):
    # c = 6^(-1/3) i1 from two non-negative intervals, end by end; the oracle
    # takes the smallest and largest of all four corner products
    for bits in _LS_BITS_SCHEDULE:
        root = Interval.of(nth_root_enclosure(Fraction(1, 6), 3, bits))
        corners = root * Interval.of(airy.i1_enclosure())
        c = airy.c_enclosure(bits)
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
    # the premise of l_upper's bisection: s increases over the cube roots of
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
    # and the bisection over k = 1..N/2 reads O(log N) norms
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


def _bound_keys(shape):
    keys = []
    for out in (ls_lower(shape), l_upper(shape)):
        cert = out.certification
        keys.append((out.value, out.not_applicable_reason, cert.method,
                     cert.near_boundary, cert.candidates))
    return keys


def _domain_error(a, b):
    raise ValueError("math domain error")


@pytest.mark.parametrize("refuse", ["narrow", "closed form", math.nan, math.inf, 1.5])
def test_seeded_bounds_fall_back_to_bisection(monkeypatch, refuse):
    # a refused or wrong seed costs bisection steps, never a different outcome
    shapes = list(enumerate_shapes(40))
    expected = [_bound_keys(shape) for shape in shapes]
    if refuse == "narrow":
        monkeypatch.setattr(DyadicBracket, "narrow", lambda self, guess, width: False)
    elif refuse == "closed form":
        monkeypatch.setattr(bounds_mod, "_cardano_w4", _domain_error)
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
