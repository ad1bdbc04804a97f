"""Closed-form lower and upper bounds on the degree of regularity.

Four bounds are provided, each transferred from a published localization of
the smallest Krawtchouk root d_k^N(1) against the threshold t = m - n:

* kz_lower  : quadratic-root floor formula (simplified root localization),
  certified by an exact integer predicate.
* ls_lower  : floor of (w4^6 - 1)/2 where w4 is the unique positive root of
  the quartic w^4 - a w + b built from the first zero of an Airy-type
  function; certified by interval arithmetic around that constant, and
  flagged near-boundary when its precision schedule cannot pin the floor.
* ls_upper  : ceiling formula from a quadratic discriminant condition,
  certified by an exact integer predicate; may be structurally inapplicable.
* l_upper   : ceiling of x5^3 where x5 is the root of a sextic on its
  increasing side; two structural inapplicability reasons.  The ceiling is
  the first degree that passes the per-degree test, decided by the sign of
  one integer (a field norm in Q(k^(1/3))); the test is monotone up to N/2,
  so one integer bisection finds it.  When no degree up to N/2 passes, the
  sign of one resultant names the reason.  No float is read.

The quartic root of ls_lower is bracketed from a float Newton seed, kept
only when two exact signs certify the seeded dyadic window, and bisected
otherwise; no float decides.

Because the localizations in the literature are strict inequalities, a bound
is allowed to attain the threshold exactly (accept sets use >= / <=).

Floors and ceilings are never taken on floats: either the comparison reduces
to integers, or a rational enclosure is refined until the integer part is
unambiguous (ls_lower flags what its schedule leaves ambiguous).  The raw
per-degree bound values are also exposed (as floats) for diagnostics and
plotting.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import SystemShape, kz_root_bound
from .intervals import DyadicBracket, Enclosure, integer_bisect, newton_seed, nth_root_enclosure

__all__ = [
    "BoundKind",
    "NotApplicableReason",
    "CertificationMethod",
    "Certification",
    "BoundOutcome",
    "AiryConstant",
    "DEFAULT_AIRY",
    "QuarticClosedForm",
    "kz_lower",
    "kz_root_bound",
    "ls_lower",
    "ls_lower_root_bound",
    "ls_lower_asymptotic",
    "ls_lower_asymptotic_case",
    "ls_upper",
    "ls_upper_root_bound",
    "l_upper",
    "l_upper_root_bound",
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
        if self.precision_radius >= self.i1:
            # keeps b = -c < 0 over the whole enclosure, as ls_lower's quartic needs
            raise ValueError("precision_radius must be smaller than i1")
        # c_enclosure's table by bits: looking the instance up in a shared
        # cache hashes its two Fractions, which costs more than the lookup
        object.__setattr__(self, "_c_by_bits", {})

    @property
    def c(self) -> float:
        return float(self.i1) * 6.0 ** (-1.0 / 3.0)

    def i1_enclosure(self) -> Enclosure:
        return Enclosure(self.i1 - self.precision_radius, self.i1 + self.precision_radius)

    def c_enclosure(self, bits: int) -> Enclosure:
        table = self._c_by_bits
        if bits not in table:
            table[bits] = _c_enclosure(self, bits)
        return table[bits]


@lru_cache(maxsize=64)  # equal constants share entries: the CLI builds one per command
def _c_enclosure(airy: AiryConstant, bits: int) -> Enclosure:
    # both factors are non-negative, so the product's ends are the ends' products
    root, i1 = nth_root_enclosure(Fraction(1, 6), 3, bits), airy.i1_enclosure()
    return Enclosure(root.lo * i1.lo, root.hi * i1.hi)


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
        a, b = shape.n / math.sqrt(2 * shape.N), -airy.c
        return cls(a, b, *_cardano_w4(a, b))

    def residual(self) -> float:
        return self.w4 ** 4 - self.a * self.w4 + self.b

    def half_w4_pow6_minus_1(self) -> float:
        return (self.w4 ** 6 - 1) / 2


def _cardano_w4(a: float, b: float) -> tuple[float, float, float]:
    """(T, U, w4) of `QuarticClosedForm`; the floats may leave the radicals' domain."""
    t_value = a * a / 2 + math.sqrt(a ** 4 - 256.0 / 27.0 * b ** 3) / 2
    p = t_value ** (1.0 / 3.0)
    u = p + (4 * b / 3) / p
    return t_value, u, (math.sqrt(u) + math.sqrt(2 * a / math.sqrt(u) - u)) / 2


def _quartic_positive_root(a: tuple, b: tuple, width: Fraction) -> DyadicBracket:
    """Unique positive root of w^4 - a w + b (a > 0 > b), exactly certified.

    With a = A/Da and b = B/Db given as integer pairs, the sign of q(p/2^e) is
    the sign of q(p/2^e) 2^(4e) Da Db = p^4 Da Db - A Db p 2^(3e) + B Da 2^(4e).
    The root w satisfies w^3 <= a - b when w >= 1, so w < 2^j for the first
    power of two 2^j >= 2 above a - b; the bracket [0, 2^j] is aligned, so a
    seeded window (Newton from the Cardano w4) is the one bisection would reach.
    """
    (A, Da), (B, Db) = a, b

    def q_scaled(p: int, e: int) -> int:
        return p ** 4 * Da * Db - (A * Db * p << 3 * e) + (B * Da << 4 * e)

    def seed() -> float:
        fa, fb = A / Da, B / Db
        return newton_seed(lambda w: (w ** 4 - fa * w + fb, 4 * w ** 3 - fa),
                           _cardano_w4(fa, fb)[2], -1)

    num_hi = 1 << max(1, ((A * Db - B * Da) // (Da * Db)).bit_length())
    bracket = DyadicBracket(q_scaled, 0, num_hi, 0)
    bracket.refine(width, seed)
    return bracket


_LS_BITS_SCHEDULE = (48, 96, 192)


def ls_lower(shape: SystemShape, airy: AiryConstant = DEFAULT_AIRY) -> BoundOutcome:
    """Lower bound 1 + floor((w4^6 - 1) / 2), certified around the Airy constant.

    The positive quartic root is monotone increasing in a and decreasing in b,
    so bisecting the two corner quartics (a_lo, b_hi) and (a_hi, b_lo) with
    exact rational coefficients traps (w4^6 - 1)/2 in a rational interval that
    accounts for the uncertainty radius of i1.  If the interval still straddles
    an integer after the last step of the schedule, the conservative floor is
    reported with the near-boundary flag and both candidates.  The float
    closed form is `QuarticClosedForm.from_shape(shape, airy)`.
    """
    n2, two_n = shape.n * shape.n, 2 * shape.N
    for bits in _LS_BITS_SCHEDULE:
        # a = n / sqrt(2N) is in [r, r_hi] / 2^bits, a point when r^2 2N = n^2 4^bits
        r = math.isqrt((n2 << 2 * bits) // two_n)
        r_hi = r + (r * r * two_n != n2 << 2 * bits)
        c = airy.c_enclosure(bits)
        width = Fraction(1, 1 << (bits // 2))
        low = _quartic_positive_root((r, 1 << bits), (-c.lo.numerator, c.lo.denominator), width)
        high = _quartic_positive_root((r_hi, 1 << bits), (-c.hi.numerator, c.hi.denominator), width)
        # floor((w^6 - 1) / 2) at w = p / 2^e; a floor below 0 only comes from a
        # degenerate constant override, and its clamp to 0 keeps the bound 1 valid
        f_lo, f_hi = (max((p ** 6 - (1 << 6 * e)) >> (6 * e + 1), 0)
                      for p, e in ((low.num_lo, low.e), (high.num_hi, high.e)))
        if f_lo == f_hi:
            break
    flag = f_lo != f_hi  # the lower candidate stays a valid lower bound
    return BoundOutcome(
        kind=BoundKind.LS_LOWER,
        value=1 + f_lo,
        not_applicable_reason=None,
        certification=Certification(
            CertificationMethod.INTERVAL_CERTIFIED,
            near_boundary=flag,
            candidates=(1 + f_lo, 1 + f_hi) if flag else None,
        ),
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


def _l_accepts_degree(N: int, n: int, k: int) -> bool:
    return _l_degree_norm(N, n, k) >= 0


def _l_degree_norm(N: int, n: int, k: int) -> int:
    """Field norm of alpha = A + B u + C u^2, u = k^(1/3), k < N: sign of alpha.

    With Q = 4 (N - k): A = Q k - n^2, B = Q, C = -2 Q, and acceptance of k
    is alpha >= 0; alpha = 4 s(u) for the sextic s of `l_upper`.  Since
    u^3 = k, alpha times its two conjugates over the cube roots of unity
    w, w^2 (u -> w u, w^2 u) is the integer A^3 + k B^3 + k^2 C^3 - 3 k A B C.
    The conjugates multiply to |alpha'|^2, and alpha' = A + B w u + C w^2 u^2
    has imaginary part (sqrt(3)/2) u (B - C u) > 0, so the norm has the sign
    of alpha and is zero exactly when alpha is.
    """
    Q = 4 * (N - k)
    A, B, C = Q * k - n * n, Q, -2 * Q
    return A ** 3 + k * B ** 3 + k * k * C ** 3 - 3 * k * A * B * C


def _l_max_resultant(N: int, c: int) -> int:
    """Res_x(r, 4P - c) / 64, P = x (x-1)^2 (N - x^3), r = 6x^4 - 4x^3 - 3Nx + N.

    r(0) = N > 0 > r(1), r((N/2)^(1/3)) = -N and r has discriminant
    -78732 N^4 - 39744 N^3 - 6912 N^2 < 0, so its roots are x0 in (0, 1),
    x4' > (N/2)^(1/3), where s = P - c/4 peaks on [1, oo), and a complex pair
    rho, conj(rho).  The resultant is 6^6 (c - V0)(c - V1)|c - V|^2 with
    V0 = 4P(x0) < 16N/27 (x (1-x)^2 <= 4/27), V1 = 4P(x4') and V = 4P(rho).
    A real V would be a double root in c, but the discriminant in c,
    -5038848 N^8 (729N^2 + 368N + 64)^3 (729N^4 - 3699N^3 - 1421N^2 + 133N - 8)^2,
    has the real roots 0, -0.44 and 5.43 only.  So for integers N >= 3 and
    c > 16N/27 the sign is that of c - V1 = -4 s(x4').
    """
    return ((((729 * c + 64 - 216 * N - 2187 * N * N) * c
              + 27 * N * N * (81 * N * N + 392 * N - 8)) * c
             - 27 * N ** 3 * (27 * N ** 3 - 32 * N * N + 280 * N - 32)) * c
            + 432 * N ** 4 * (N - 1) ** 3)


def l_upper(shape: SystemShape) -> BoundOutcome:
    """Upper bound 1 + ceil(x5^3) from the sextic localization, or not applicable.

    x5 is the root of s(x) = x(x-1)^2(N - x^3) - n^2/4 on its increasing
    side, so ceil(x5^3) is the first degree k whose per-degree test
    s(k^(1/3)) >= 0 (one exact integer sign, `_l_accepts_degree`) accepts.
    s' = (1 - x) r with r = 6x^4 - 4x^3 - 3Nx + N; r(1) = 2 - 2N < 0,
    r((N/2)^(1/3)) = -N < 0 and r is convex for x > 1/3, so r < 0 on
    [1, (N/2)^(1/3)] and s increases there: acceptance is monotone over
    k = 1..floor(N/2), and k = 1 is refused (s(1) = -n^2/4), so one integer
    bisection finds the first accepted k, an exact integer predicate when
    its norm is zero (x5^3 is that integer) and interval certified
    otherwise.  If floor(N/2) is refused, `_l_max_resultant` at c = n^2
    gives the sign of s at its maximum x4', as c > 16N/27: for N >= 8,
    c > 4P(u) >= 2N u (u-1)^2 > 1.09 N at u^3 = floor(N/2) >= 4, and
    4 <= N < 8 is checked by enumeration.  A tie s(x4') = 0 is out of
    range too: s < 0 left of x4' > (N/2)^(1/3), so the root cubes past N/2.
    """
    N, n = shape.N, shape.n
    if not _l_accepts_degree(N, n, N // 2):
        # N = 3 holds only (2, 1), where n^2 = 1 < V0 and the maximum is negative
        negative = N == 3 or _l_max_resultant(N, n * n) > 0
        reason = (NotApplicableReason.SEXTIC_MAX_NEGATIVE if negative
                  else NotApplicableReason.SEXTIC_ROOT_OUT_OF_RANGE)
        return BoundOutcome(kind=BoundKind.L_UPPER, value=None, not_applicable_reason=reason,
                            certification=Certification(CertificationMethod.EXACT_INTEGER_PREDICATE))
    k = integer_bisect(1, N // 2, lambda k: _l_accepts_degree(N, n, k))
    method = (CertificationMethod.EXACT_INTEGER_PREDICATE if _l_degree_norm(N, n, k) == 0
              else CertificationMethod.INTERVAL_CERTIFIED)
    return BoundOutcome(kind=BoundKind.L_UPPER, value=1 + k, not_applicable_reason=None,
                        certification=Certification(method))


def l_upper_root_bound(N: int, k: int) -> float:
    """Raw per-degree root upper bound N/2 - (sqrt(k) - k^(1/6)) sqrt(N - k).

    Valid for 1 <= k <= N/2.
    """
    if not (1 <= k and 2 * k <= N):
        raise ValueError(f"requires 1 <= k <= N/2; got k={k}, N={N}")
    return N / 2 - (math.sqrt(k) - k ** (1.0 / 6.0)) * math.sqrt(N - k)
