"""Closed-form lower and upper bounds on the degree of regularity.

Four bounds are provided, each transferred from a published localization of
the smallest Krawtchouk root d_k^N(1) against the threshold t = m - n:

* kz_lower  : quadratic-root floor formula (simplified root localization),
  certified by an exact integer predicate.
* ls_lower  : floor of (w4^6 - 1)/2 where w4 is the unique positive root of
  the quartic w^4 - a w + b built from the first zero of an Airy-type
  function; certified by interval arithmetic around that constant.
* ls_upper  : ceiling formula from a quadratic discriminant condition,
  certified by an exact integer predicate; may be structurally inapplicable.
* l_upper   : ceiling of x5^3 where x5 is a root of a sextic located by
  exact-sign bisection below a stationary point x4 of it; two structural
  inapplicability reasons.

The quartic root of ls_lower and the stationary point x4 of l_upper are
bracketed from float Newton seeds, kept only when two exact signs certify
the seeded dyadic window, and bisected otherwise; no float decides.

Because the localizations in the literature are strict inequalities, a bound
is allowed to attain the threshold exactly (accept sets use >= / <=).

Floors and ceilings are never taken on floats: either the comparison reduces
to integers, or a rational enclosure is refined until the integer part is
unambiguous.  The raw per-degree bound values are also exposed (as floats)
for diagnostics and plotting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from .exact import SystemShape
from .intervals import (DyadicBracket, Enclosure, iroot, newton_seed, nth_root_enclosure,
                        sqrt_enclosure)

__all__ = [
    "BoundKind",
    "NotApplicableReason",
    "CertificationMethod",
    "ThresholdDecision",
    "Certification",
    "BoundOutcome",
    "AiryConstant",
    "DEFAULT_AIRY",
    "QuarticClosedForm",
    "SexticForm",
    "kz_lower",
    "kz_root_bound",
    "kz_predicate_full",
    "ls_lower",
    "ls_lower_root_bound",
    "ls_lower_asymptotic",
    "ls_lower_asymptotic_case",
    "ls_upper",
    "ls_upper_root_bound",
    "l_upper",
    "l_upper_root_bound",
    "l_smallest_accepted_degree",
]


class BoundKind(enum.Enum):
    KZ_LOWER = "kz_lower"
    LS_LOWER = "ls_lower"
    LS_UPPER = "ls_upper"
    L_UPPER = "l_upper"


class NotApplicableReason(enum.Enum):
    NEGATIVE_DISCRIMINANT = "negative_discriminant"
    SEXTIC_MAX_NEGATIVE = "sextic_max_negative"
    SEXTIC_ROOT_OUT_OF_RANGE = "sextic_root_out_of_range"


class CertificationMethod(enum.Enum):
    EXACT_INTEGER_PREDICATE = "exact_integer_predicate"
    INTERVAL_CERTIFIED = "interval_certified"


class ThresholdDecision(enum.Enum):
    ABOVE = "above"
    BELOW = "below"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Certification:
    method: CertificationMethod
    near_boundary: bool = False
    candidates: tuple[int, int] | None = None


@dataclass(frozen=True)
class BoundOutcome:
    """Either a certified integer bound or a structured inapplicability.

    Exactly one of value / not_applicable_reason is set.  When a floor or
    ceiling cannot be pinned at maximum precision the conservative candidate
    is reported as the value, near_boundary is flagged and both candidates
    are listed; a flagged value is still a valid bound of its kind.
    """

    kind: BoundKind
    value: int | None
    not_applicable_reason: NotApplicableReason | None
    certification: Certification
    detail: object | None = None

    def __post_init__(self) -> None:
        if (self.value is None) == (self.not_applicable_reason is None):
            raise ValueError("exactly one of value / not_applicable_reason required")
        if self.value is not None and self.value < 1:
            raise ValueError(f"bound value must be positive; got {self.value}")

    @property
    def applicable(self) -> bool:
        return self.value is not None


# --------------------------------------------------------------------------
# Airy-type constant feeding the Levenshtein/Szegoe lower bound
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AiryConstant:
    """First zero i1 of the Airy-type solution of y'' + x y / 3 = 0.

    Only six significant digits are pinned by default; precision_radius is
    the half-width of the certification interval around i1.  The derived
    constant c = 6^(-1/3) i1 is always computed from i1, never stored.
    """

    i1: Fraction = Fraction("3.37213")
    precision_radius: Fraction = Fraction(1, 100_000)

    def __post_init__(self) -> None:
        if self.i1 <= 0:
            raise ValueError("i1 must be positive")
        if self.precision_radius < 0:
            raise ValueError("precision_radius must be non-negative")

    @property
    def c(self) -> float:
        return float(self.i1) * 6.0 ** (-1.0 / 3.0)

    def i1_enclosure(self) -> Enclosure:
        return Enclosure(self.i1 - self.precision_radius, self.i1 + self.precision_radius)

    @lru_cache(maxsize=64)  # every shape asks for the same few (airy, bits)
    def c_enclosure(self, bits: int) -> Enclosure:
        return nth_root_enclosure(Fraction(1, 6), 3, bits) * self.i1_enclosure()


DEFAULT_AIRY = AiryConstant()


# --------------------------------------------------------------------------
# KZ lower bound
# --------------------------------------------------------------------------


def kz_lower(shape: SystemShape) -> BoundOutcome:
    """Lower bound 1 + floor((N - 2 sqrt(m (m-n))) / 2), exactly certified.

    The floor is the largest integer f with 2f <= N and (N - 2f)^2 >= 4 m (m-n),
    which integer square roots decide without any rounding.
    """
    N, m, t = shape.N, shape.m, shape.t
    target = 4 * m * t
    s = math.isqrt(target)
    if s * s < target:
        s += 1  # ceiling of sqrt(4 m t)
    f = (N - s) // 2
    if not (0 <= 2 * f <= N and (N - 2 * f) ** 2 >= target):
        raise AssertionError("integer floor certificate failed (lower side)")
    if 2 * (f + 1) <= N and (N - 2 * (f + 1)) ** 2 >= target:
        raise AssertionError("integer floor certificate failed (upper side)")
    return BoundOutcome(
        kind=BoundKind.KZ_LOWER,
        value=1 + f,
        not_applicable_reason=None,
        certification=Certification(CertificationMethod.EXACT_INTEGER_PREDICATE),
    )


def kz_root_bound(N: int, k: int) -> float:
    """Raw per-degree root lower bound with the (.)^(2/3) correction term.

    Valid for 1 <= k < N/2; diagnostics only.
    """
    if not (1 <= k and 2 * k < N):
        raise ValueError(f"requires 1 <= k < N/2; got k={k}, N={N}")
    rho = (N - 2 * k) / (2 * k * (N - k))
    return N / 2 - math.sqrt(k * (N - k)) * (1 - 1.5 * rho ** (2.0 / 3.0))


_PREDICATE_BITS = (32, 64, 128, 256)


def kz_predicate_full(shape: SystemShape, k: int) -> ThresholdDecision:
    """Interval-certified comparison of the full correction-term bound vs t.

    ABOVE means the per-degree lower bound clears the threshold (degree k is
    accepted, giving a bound at least as sharp as the floor formula), BELOW
    means it certifiably does not, UNDECIDED that maximum precision could not
    separate the two (the bound value sits on the threshold).
    """
    N, t = shape.N, shape.t
    if not (1 <= k and 2 * k < N):
        raise ValueError(f"requires 1 <= k < N/2; got k={k}, N={N}")
    rho = Fraction(N - 2 * k, 2 * k * (N - k))
    rho_sq = rho * rho
    for bits in _PREDICATE_BITS:
        sqrt_term = sqrt_enclosure(k * (N - k), bits)
        corr = nth_root_enclosure(rho_sq, 3, bits)  # rho^(2/3)
        rhs = Fraction(N, 2) - sqrt_term * (1 - Fraction(3, 2) * corr)
        if rhs.lo >= t:
            return ThresholdDecision.ABOVE
        if rhs.hi < t:
            return ThresholdDecision.BELOW
    return ThresholdDecision.UNDECIDED


# --------------------------------------------------------------------------
# LS lower bound (quartic / Airy constant)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticClosedForm:
    """Radical expression of the positive quartic root, float diagnostics.

    For q(w) = w^4 - a w + b (a > 0 > b) the resolvent cubic U^3 - 4 b U = a^2
    has the Cardano root U = T^(1/3) + (4b/3) T^(-1/3) with
    T = a^2/2 + sqrt(a^4 - (256/27) b^3)/2, and the unique positive root is

        w4 = (sqrt(U) + sqrt(2 a / sqrt(U) - U)) / 2.

    The radicand under the inner square root is positive because U^3 < a^2
    implies U^(3/2) < a < 2a.
    """

    a: float
    b: float
    t_value: float
    u_value: float
    w4: float

    @classmethod
    def from_shape(cls, shape: SystemShape, airy: AiryConstant = DEFAULT_AIRY) -> "QuarticClosedForm":
        a = shape.n / math.sqrt(2 * shape.N)
        b = -airy.c
        t_value = a * a / 2 + math.sqrt(a ** 4 - 256.0 / 27.0 * b ** 3) / 2
        p = t_value ** (1.0 / 3.0)
        u_value = p + (4 * b / 3) / p
        w4 = (math.sqrt(u_value) + math.sqrt(2 * a / math.sqrt(u_value) - u_value)) / 2
        return cls(a=a, b=b, t_value=t_value, u_value=u_value, w4=w4)

    def residual(self) -> float:
        return self.w4 ** 4 - self.a * self.w4 + self.b

    def half_w4_pow6_minus_1(self) -> float:
        return (self.w4 ** 6 - 1) / 2


def _quartic_positive_root(a: Fraction, b: Fraction, width: Fraction) -> Enclosure:
    """Unique positive root of w^4 - a w + b (a > 0 > b), exactly certified.

    With a = A/Da and b = B/Db, the sign of q(p/2^e) is the sign of the
    integer q(p/2^e) 2^(4e) Da Db = p^4 Da Db - A Db p 2^(3e) + B Da 2^(4e).
    The root w satisfies w^3 <= a - b when w >= 1, so w < 2^j for the first
    power of two 2^j >= 2 above a - b; the bracket [0, 2^j] is aligned, so a
    seeded window is the one bisection would reach.
    """
    A, Da, B, Db = a.numerator, a.denominator, b.numerator, b.denominator

    def q_scaled(p: int, e: int) -> int:
        return p ** 4 * Da * Db - (A * Db * p << 3 * e) + (B * Da << 4 * e)

    def seed() -> float:
        fa, fb = float(a), float(b)
        return newton_seed(lambda w: (w ** 4 - fa * w + fb, 4 * w ** 3 - fa),
                           float(num_hi), -1)

    num_hi = 1 << max(1, math.floor(a - b).bit_length())
    bracket = DyadicBracket(q_scaled, 0, num_hi, 0)
    bracket.refine(width, seed)
    return bracket.enclosure()


def _quartic_detail(shape: SystemShape, airy: AiryConstant) -> QuarticClosedForm | None:
    # float diagnostics only: a huge i1 override overflows or cancels them,
    # which must not abort the certified bound
    try:
        return QuarticClosedForm.from_shape(shape, airy)
    except (ArithmeticError, ValueError):
        return None


def _ls_accepts_degree(shape: SystemShape, k: int, airy: AiryConstant) -> ThresholdDecision:
    # Eq.-level acceptance: a >= sqrt(2k+1) - c (2k+1)^(-1/6), interval-certified.
    a_sq = Fraction(shape.n * shape.n, 2 * shape.N)
    for bits in _PREDICATE_BITS:
        a_enc = sqrt_enclosure(a_sq, bits)
        c_enc = airy.c_enclosure(bits)
        root = sqrt_enclosure(2 * k + 1, bits)
        inv_sixth = nth_root_enclosure(Fraction(2 * k + 1), 6, bits).reciprocal()
        rhs = root - c_enc * inv_sixth
        if a_enc.lo >= rhs.hi:
            return ThresholdDecision.ABOVE
        if a_enc.hi < rhs.lo:
            return ThresholdDecision.BELOW
    return ThresholdDecision.UNDECIDED


_LS_BITS_SCHEDULE = (48, 96, 192)


def ls_lower(shape: SystemShape, airy: AiryConstant = DEFAULT_AIRY) -> BoundOutcome:
    """Lower bound 1 + floor((w4^6 - 1) / 2), certified around the Airy constant.

    The positive quartic root is monotone increasing in a and decreasing in b,
    so bisecting the two corner quartics (a_lo, b_hi) and (a_hi, b_lo) with
    exact rational coefficients traps (w4^6 - 1)/2 in a rational interval that
    accounts for the uncertainty radius of i1.  If the interval straddles an
    integer at maximum precision, the per-degree acceptance test is consulted;
    only if that is also undecided is the near-boundary flag raised.
    """
    a_sq = Fraction(shape.n * shape.n, 2 * shape.N)
    f_lo = f_hi = None
    for bits in _LS_BITS_SCHEDULE:
        a_enc = sqrt_enclosure(a_sq, bits)
        b_enc = -airy.c_enclosure(bits)
        width = Fraction(1, 1 << (bits // 2))
        w_low = _quartic_positive_root(a_enc.lo, b_enc.hi, width).lo
        w_high = _quartic_positive_root(a_enc.hi, b_enc.lo, width).hi
        val_lo = (w_low ** 6 - 1) / 2
        val_hi = (w_high ** 6 - 1) / 2
        # floors below 0 can only arise from degenerate constant overrides;
        # a clamped floor of 0 keeps the (vacuous) bound value 1 valid
        f_lo, f_hi = max(math.floor(val_lo), 0), max(math.floor(val_hi), 0)
        if f_lo == f_hi:
            return BoundOutcome(
                kind=BoundKind.LS_LOWER,
                value=1 + f_lo,
                not_applicable_reason=None,
                certification=Certification(CertificationMethod.INTERVAL_CERTIFIED),
                detail=_quartic_detail(shape, airy),
            )
    # The enclosure straddles an integer: ask the per-degree predicate, which
    # pins the floor exactly when only one integer is in doubt.
    detail = _quartic_detail(shape, airy)
    decision = (_ls_accepts_degree(shape, f_hi, airy)
                if f_hi == f_lo + 1 else ThresholdDecision.UNDECIDED)
    if decision is ThresholdDecision.ABOVE:
        value, flag = 1 + f_hi, False
    elif decision is ThresholdDecision.BELOW:
        value, flag = 1 + f_lo, False
    else:
        value, flag = 1 + f_lo, True  # conservative side stays a valid lower bound
    return BoundOutcome(
        kind=BoundKind.LS_LOWER,
        value=value,
        not_applicable_reason=None,
        certification=Certification(
            CertificationMethod.INTERVAL_CERTIFIED,
            near_boundary=flag,
            candidates=(1 + f_lo, 1 + f_hi) if flag else None,
        ),
        detail=detail,
    )


def ls_lower_root_bound(N: int, k: int, airy: AiryConstant = DEFAULT_AIRY) -> float:
    """Raw per-degree root lower bound N/2 - sqrt(N/2)(sqrt(2k+1) - c (2k+1)^(-1/6))."""
    if not 1 <= k <= N:
        raise ValueError(f"requires 1 <= k <= N; got k={k}, N={N}")
    c = airy.c
    u = 2 * k + 1
    return N / 2 - math.sqrt(N / 2) * (math.sqrt(u) - c * u ** (-1.0 / 6.0))


def ls_lower_asymptotic(shape: SystemShape) -> float:
    """Subquadratic-growth limit value n^2 / (4 (2m - n))."""
    return shape.n ** 2 / (4 * shape.N)


_ASYMPTOTIC_FAMILIES = ("n_plus_alpha", "beta_n", "n_log_n", "n_pow_2_minus_gamma")


def ls_lower_asymptotic_case(family: str, n: int, parameter: float | None = None) -> float:
    """Closed-form growth of the quartic lower bound for the named families.

    family is one of n_plus_alpha (m = n + alpha, alpha > 0), beta_n
    (m = beta n, beta > 1), n_log_n (m = n log n, natural log, no parameter)
    and n_pow_2_minus_gamma (m = n^(2-gamma), gamma in (0, 1]; gamma = 1 is
    the boundary case kept as a documented limit).
    """
    if n < 2:
        raise ValueError(f"requires n >= 2; got n={n}")
    if family == "n_plus_alpha":
        if parameter is None or parameter <= 0:
            raise ValueError(f"alpha must be positive; got {parameter}")
        return n / (4 * (1 + 2 * parameter / n))
    if family == "beta_n":
        if parameter is None or parameter <= 1:
            raise ValueError(f"beta must exceed 1; got {parameter}")
        return n / (4 * (2 * parameter - 1))
    if family == "n_log_n":
        if parameter is not None:
            raise ValueError("n_log_n takes no parameter")
        return n / (4 * (2 * math.log(n) - 1))
    if family == "n_pow_2_minus_gamma":
        if parameter is None or not 0 < parameter <= 1:
            raise ValueError(f"gamma must lie in (0, 1]; got {parameter}")
        return n ** parameter / 8
    raise ValueError(f"unknown family {family!r}; expected one of {_ASYMPTOTIC_FAMILIES}")


# --------------------------------------------------------------------------
# LS upper bound (quadratic discriminant)
# --------------------------------------------------------------------------


def ls_upper(shape: SystemShape) -> BoundOutcome:
    """Upper bound 1 + ceil((N + 3 - sqrt((N+1)^2 - 4 n^2)) / 2), or not applicable.

    Applicability requires the discriminant (N+1)^2 - 4 n^2 to be non-negative.
    The ceiling is certified as the smallest integer k with
    (N - k + 2)(k - 1) >= n^2, a pure integer comparison.
    """
    N, n = shape.N, shape.n
    disc = (N + 1) ** 2 - 4 * n * n
    if disc < 0:
        return BoundOutcome(
            kind=BoundKind.LS_UPPER,
            value=None,
            not_applicable_reason=NotApplicableReason.NEGATIVE_DISCRIMINANT,
            certification=Certification(CertificationMethod.EXACT_INTEGER_PREDICATE),
        )

    def accepts(k: int) -> bool:
        return (N - k + 2) * (k - 1) >= n * n

    s = math.isqrt(disc)
    k = max(2, (N + 3 - s) // 2 - 2)
    while not accepts(k):
        k += 1
    if accepts(k - 1):
        raise AssertionError("integer ceiling certificate failed")
    return BoundOutcome(
        kind=BoundKind.LS_UPPER,
        value=1 + k,
        not_applicable_reason=None,
        certification=Certification(CertificationMethod.EXACT_INTEGER_PREDICATE),
    )


def ls_upper_root_bound(N: int, k: int) -> float:
    """Raw per-degree root upper bound N/2 - sqrt((N-k+2)(k-1)) / 2."""
    if not 1 <= k <= N:
        raise ValueError(f"requires 1 <= k <= N; got k={k}, N={N}")
    return N / 2 - 0.5 * math.sqrt((N - k + 2) * (k - 1))


# --------------------------------------------------------------------------
# L upper bound (sextic)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SexticForm:
    """Located stationary point and root of s(x) = x(x-1)^2(N - x^3) - n^2/4.

    x4_prime encloses the interior local maximum of s (the unique root of the
    quartic factor r(x) = 6x^4 - 4x^3 - 3Nx + N in (1, N^(1/3))); x5 encloses
    the increasing-side root of s when it exists.
    """

    shape: SystemShape
    x4_prime: Enclosure
    x5: Enclosure | None


def _r_value_dyadic(N: int, p: int, e: int) -> int:
    # r(p/2^e) * 2^(4e), sign-exact
    two_e = 1 << e
    return 6 * p ** 4 - 4 * p ** 3 * two_e - 3 * N * p * two_e ** 3 + N * two_e ** 4


def _s4_value_dyadic(N: int, n: int, p: int, e: int) -> int:
    # 4 s(p/2^e) * 2^(6e), sign-exact
    two_e = 1 << e
    return 4 * p * (p - two_e) ** 2 * (N * two_e ** 3 - p ** 3) - n * n * two_e ** 6


def l_smallest_accepted_degree(shape: SystemShape) -> int | None:
    """Smallest degree k in [1, floor(N/2)] passing the per-degree upper test.

    Acceptance of k means n/2 <= (sqrt(k) - k^(1/6)) sqrt(N - k), decided by
    squaring to n^2/4 <= (k - 2 k^(2/3) + k^(1/3)) (N - k) and refining a
    rational enclosure of k^(1/3); perfect cubes compare exactly.  Fully
    decidable: for non-cube k the two sides can never be equal.
    """
    N, n = shape.N, shape.n
    lhs = Fraction(n * n, 4)
    for k in range(1, N // 2 + 1):
        if _l_accepts_degree(N, lhs, k):
            return k
    return None


def _l_accepts_degree(N: int, lhs: Fraction, k: int) -> bool:
    c = iroot(k, 3)
    if c ** 3 == k:
        rhs = Fraction((k + c - 2 * c * c) * (N - k))
        return lhs <= rhs
    bits = 32
    while True:
        u = nth_root_enclosure(k, 3, bits)
        rhs = (k + u - 2 * u * u) * (N - k)
        if rhs.lo >= lhs:
            return True
        if rhs.hi < lhs:
            return False
        bits *= 2


_L_WIDTH_CAP = Fraction(1, 1 << 128)


def l_upper(shape: SystemShape) -> BoundOutcome:
    """Upper bound 1 + ceil(x5^3) from the sextic localization, or not applicable.

    Pipeline: bracket the local-maximum location x4' in (1, N^(1/3)), the
    top root of the quartic factor r, from a float Newton seed; certify the
    sign of s at that maximum (negative means no bound); bisect s on the
    increasing side for x5; certify the range condition x5^3 <= floor(N/2)
    and the ceiling of x5^3 by refining the enclosure.  Algebraically degenerate ties fall back to the exact
    per-degree predicate, which is always decidable.
    """
    N, n = shape.N, shape.n
    bound_cap = N // 2

    hi0 = iroot(N, 3) + 1  # above the largest root of r
    if _r_value_dyadic(N, hi0, 0) <= 0:
        raise AssertionError("quartic factor must be positive beyond its top root")
    # r(1) = 2 - 2N < 0 and r(hi0) > 0: negative at lo, as DyadicBracket wants.
    # r is convex for x > 1/3, so Newton from hi0 descends onto x4'.
    x4 = DyadicBracket(partial(_r_value_dyadic, N), 1, hi0, 0)
    x4.refine(Fraction(1, 1 << 16), lambda: newton_seed(
        lambda x: (6 * x ** 4 - 4 * x ** 3 - 3 * N * x + N,
                   24 * x ** 3 - 12 * x * x - 3 * N), float(hi0), -1))

    applicable, witness = _certify_max_sign(shape, x4)
    if applicable is False:
        return BoundOutcome(
            kind=BoundKind.L_UPPER,
            value=None,
            not_applicable_reason=NotApplicableReason.SEXTIC_MAX_NEGATIVE,
            certification=Certification(CertificationMethod.INTERVAL_CERTIFIED),
            detail=SexticForm(shape, x4.enclosure(), None),
        )
    if applicable is None:
        return _l_upper_from_predicate(shape, x4)

    x5 = _locate_x5(shape, witness)
    if x5 is None:
        return _l_upper_from_predicate(shape, x4)

    # Range condition and ceiling, by refinement of the x5 enclosure.
    while True:
        if x5.exact:
            cube = x5.lo ** 3
            if cube > bound_cap:
                return _l_na_out_of_range(shape, x4, x5)
            return _l_value(shape, x4, x5, math.ceil(cube))
        lo3, hi3 = x5.lo ** 3, x5.hi ** 3
        if lo3 > bound_cap:
            return _l_na_out_of_range(shape, x4, x5)
        if hi3 <= bound_cap:
            c_lo, c_hi = math.ceil(lo3), math.ceil(hi3)
            if c_lo == c_hi:
                return _l_value(shape, x4, x5, c_lo)
        if x5._width_sign(_L_WIDTH_CAP) < 0:
            return _l_upper_from_predicate(shape, x4)
        x5.step()


def _certify_max_sign(shape: SystemShape, x4: DyadicBracket):
    """Sign of s at its interior maximum: (True, witness) / (False, None) / (None, None).

    True comes with a dyadic witness point where s >= 0 exactly; False is
    certified through a mean-value bound |s(x4') - s(p)| <= M * width with M
    an interval bound on |s'| over the bracket (`_max_sign_margin`); None
    signals the degenerate s(x4') = 0 tie left to the exact per-degree
    fallback.
    """
    N, n = shape.N, shape.n
    while True:
        if x4.exact:
            p, e = x4.num_lo, x4.e
            v = _s4_value_dyadic(N, n, p, e)
            if v >= 0:
                return True, (p, e)
            return False, None
        mid_num = x4.num_lo + x4.num_hi
        v = _s4_value_dyadic(N, n, mid_num, x4.e + 1)
        if v >= 0:
            return True, (mid_num, x4.e + 1)
        # s is negative at the midpoint; negative everywhere on the bracket
        # once M * width cannot lift it back to zero.
        if _max_sign_margin(N, v, x4.num_lo, x4.num_hi, x4.e) < 0:
            return False, None
        if x4._width_sign(_L_WIDTH_CAP) < 0:
            return None, None
        x4.step()


def _max_sign_margin(N: int, v: int, lo: int, hi: int, e: int) -> int:
    """v + 4 M w 2^(6e + 6) on the bracket [lo, hi] / 2^e of width w, lo >= 2^e.

    v is 4 s(mid) 2^(6e + 6); M = (x_hi - 1) max(|r_lo|, |r_hi|) bounds
    |s'| = (x - 1)|r(x)|, with r = 6x^4 - 4x^3 - 3Nx + N bounded term by
    term over the bracket.  With r_lo, r_hi scaled by 2^(4e), the 2^(6e)
    cancels and the margin is an integer.
    """
    two_e = 1 << e
    r_lo = 6 * lo ** 4 - 4 * hi ** 3 * two_e - 3 * N * hi * two_e ** 3 + N * two_e ** 4
    r_hi = 6 * hi ** 4 - 4 * lo ** 3 * two_e - 3 * N * lo * two_e ** 3 + N * two_e ** 4
    return v + 256 * (hi - two_e) * max(abs(r_lo), abs(r_hi)) * (hi - lo)


def _locate_x5(shape: SystemShape, witness: tuple[int, int]) -> DyadicBracket | None:
    """Bracket the increasing-side root of s below the positive witness."""
    s4 = partial(_s4_value_dyadic, shape.N, shape.n)
    p, e = witness
    if s4(p, e) == 0:
        # witness is itself a root; decide which side of the hump it is on
        left_num, left_e = 2 * p - 1, e + 1  # p - 2^-(e+1), still > 1 for p/2^e > 1
        lv = s4(left_num, left_e)
        if lv < 0:
            return DyadicBracket(s4, p, p, e, exact=True)
        if lv == 0:
            return None  # two roots within one dyadic step: degenerate tie
        p, e = left_num, left_e  # witness was the decreasing-side root
    # s(1) = -n^2/4 < 0 and s(witness) > 0: unique crossing in between.
    # Not seeded: an aligned window would land on integer roots x5 that
    # bisection of [1, witness] misses, changing the certification method.
    x5 = DyadicBracket(s4, 1 << e, p, e)
    x5.refine(Fraction(1, 1 << 16))
    return x5


def _l_na_out_of_range(shape, x4, x5) -> BoundOutcome:
    return BoundOutcome(
        kind=BoundKind.L_UPPER,
        value=None,
        not_applicable_reason=NotApplicableReason.SEXTIC_ROOT_OUT_OF_RANGE,
        certification=Certification(CertificationMethod.INTERVAL_CERTIFIED),
        detail=SexticForm(shape, x4.enclosure(), x5.enclosure()),
    )


def _l_value(shape, x4, x5, ceil_cube: int) -> BoundOutcome:
    return BoundOutcome(
        kind=BoundKind.L_UPPER,
        value=1 + ceil_cube,
        not_applicable_reason=None,
        certification=Certification(CertificationMethod.INTERVAL_CERTIFIED),
        detail=SexticForm(shape, x4.enclosure(), x5.enclosure()),
    )


def _l_upper_from_predicate(shape: SystemShape, x4: DyadicBracket) -> BoundOutcome:
    # Exact fallback for algebraically degenerate localizations.
    k = l_smallest_accepted_degree(shape)
    if k is not None:
        return BoundOutcome(
            kind=BoundKind.L_UPPER,
            value=1 + k,
            not_applicable_reason=None,
            certification=Certification(CertificationMethod.EXACT_INTEGER_PREDICATE),
            detail=SexticForm(shape, x4.enclosure(), None),
        )
    # No degree accepted: classify by where the (touching) maximum sits.
    reason = (
        NotApplicableReason.SEXTIC_ROOT_OUT_OF_RANGE
        if x4.enclosure().mid ** 3 > shape.N // 2
        else NotApplicableReason.SEXTIC_MAX_NEGATIVE
    )
    return BoundOutcome(
        kind=BoundKind.L_UPPER,
        value=None,
        not_applicable_reason=reason,
        certification=Certification(CertificationMethod.EXACT_INTEGER_PREDICATE),
        detail=SexticForm(shape, x4.enclosure(), None),
    )


def l_upper_root_bound(N: int, k: int) -> float:
    """Raw per-degree root upper bound N/2 - (sqrt(k) - k^(1/6)) sqrt(N - k).

    Valid for 1 <= k <= N/2.
    """
    if not (1 <= k and 2 * k <= N):
        raise ValueError(f"requires 1 <= k <= N/2; got k={k}, N={N}")
    return N / 2 - (math.sqrt(k) - k ** (1.0 / 6.0)) * math.sqrt(N - k)
