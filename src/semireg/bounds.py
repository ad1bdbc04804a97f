"""Closed-form lower and upper bounds on the degree of regularity.

Four bounds are provided, each transferred from a published localization of
the smallest Krawtchouk root d_k^N(1) against the threshold t = m - n:

* kz_lower  : quadratic-root floor formula (simplified root localization),
  certified by an exact integer predicate.
* ls_lower  : floor of (w4^6 - 1)/2 where w4 is the unique positive root of
  the quartic w^4 - a w - c built from the first zero of an Airy-type
  function.  The floor is the last degree that passes the per-degree test,
  decided by the sign of one integer (a field norm in Q((v/6)^(1/3))); one
  integer search per end of the Airy enclosure finds it, the lower end's
  from an integer estimate of its floor and the upper end's from the lower
  end's floor, so two to four tests decide most shapes.  The value is
  flagged near-boundary exactly when the two ends give different floors.
* ls_upper  : ceiling formula from a quadratic discriminant condition,
  certified by an exact integer predicate; may be structurally inapplicable.
* l_upper   : ceiling of x5^3 where x5 is the root of a sextic on its
  increasing side; two structural inapplicability reasons.  The ceiling is
  the first degree that passes the per-degree test, decided by the sign of
  one integer (a field norm in Q(k^(1/3))); the test is monotone up to N/2,
  so one integer search finds it, started at a float estimate that only
  picks where it looks.  When no degree up to N/2 passes, the sign of one
  resultant names the reason.  No float decides.

Because the localizations in the literature are strict inequalities, a bound
is allowed to attain the threshold exactly (accept sets use >= / <=).

Floors and ceilings are never taken on floats: every comparison reduces to
the sign of an integer.  The raw per-degree bound values are also exposed
(as floats) for diagnostics and plotting.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .exact import SystemShape, kz_root_bound
from .intervals import integer_gallop, iroot

__all__ = [
    "BoundKind",
    "NotApplicableReason",
    "CertificationMethod",
    "Certification",
    "BoundOutcome",
    "AiryConstant",
    "DEFAULT_AIRY",
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
    "sandwich_verdict",
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


class Certification(namedtuple("Certification", "method near_boundary candidates",
                                defaults=(False, None))):
    """How a bound was certified; a near-boundary value lists both candidates."""

    __slots__ = ()


class BoundOutcome(namedtuple("BoundOutcome",
                              "kind value not_applicable_reason certification")):
    """Either a certified integer bound or a structured inapplicability.

    Exactly one of value / not_applicable_reason is set.  near_boundary is
    set exactly when the two ends of the Airy enclosure give ls_lower
    different floors: the lower candidate is reported as the value and both
    candidates are listed; a flagged value is still a valid bound of its kind.
    """

    __slots__ = ()

    def __new__(cls, kind: BoundKind, value: int | None,
                not_applicable_reason: NotApplicableReason | None,
                certification: Certification) -> "BoundOutcome":
        if (value is None) == (not_applicable_reason is None):
            raise ValueError("exactly one of value / not_applicable_reason required")
        if value is not None and value < 1:
            raise ValueError(f"bound value must be positive; got {value}")
        return super().__new__(cls, kind, value, not_applicable_reason, certification)

    @property
    def applicable(self) -> bool:
        return self.value is not None


# --------------------------------------------------------------------------
# Airy-type constant feeding the Levenshtein/Szegoe lower bound
# --------------------------------------------------------------------------


class AiryConstant(namedtuple("AiryConstant", "i1 precision_radius")):
    """First zero i1 of the Airy-type solution of y'' + x y / 3 = 0.

    Only six significant digits are pinned by default; precision_radius is
    the half-width of the certification interval around i1.  Both fields
    are taken exactly as Fractions.  The derived constant c = 6^(-1/3) i1 is
    always computed from i1, never stored.
    """

    __slots__ = ()

    def __new__(cls, i1: Fraction = Fraction("3.37213"),
                precision_radius: Fraction = Fraction(1, 100_000)) -> "AiryConstant":
        i1, precision_radius = Fraction(i1), Fraction(precision_radius)
        if i1 <= 0:
            raise ValueError("i1 must be positive")
        if precision_radius < 0:
            raise ValueError("precision_radius must be non-negative")
        if precision_radius >= i1:
            # keeps c > 0 over the whole enclosure, as ls_lower's per-degree test needs
            raise ValueError("precision_radius must be smaller than i1")
        return super().__new__(cls, i1, precision_radius)

    @property
    def c(self) -> float:
        return float(self.i1) * 6.0 ** (-1.0 / 3.0)


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


def _cube_field_norm(p: int, q: int, A: int, B: int, C: int) -> int:
    """q^2 alpha alpha' alpha'' for alpha = A + B mu + C mu^2, mu^3 = p/q > 0.

    The conjugates alpha', alpha'' (mu -> w mu, w^2 mu over the cube roots of
    unity w, w^2) multiply to |alpha'|^2, and Im alpha' = (sqrt(3)/2) mu
    (B - C mu).  So where a caller shows B != C mu, the norm has the sign of
    alpha and is zero exactly when alpha is.
    """
    return q * q * A ** 3 + p * q * B ** 3 + p * p * C ** 3 - 3 * p * q * A * B * C


def _ls_refuses_degree(N: int, n: int, P: int, Q: int, f: int) -> bool:
    """Whether y^4 - a y - c > 0 at y = v^(1/6), v = 2f + 1, for i1 = P/Q > 0.

    a = n / sqrt(2N) and c = 6^(-1/3) P/Q.  If 6 v^2 Q^3 <= P^3 then y^4 <= c
    and f is accepted.  Otherwise both sides of y^4 - c <= a y are positive;
    squared, divided by y^2 and scaled by 2N v Q^2, with mu = (v/6)^(1/3)
    (so y^2 = 6^(1/3) mu, c y^2 = (P/Q) mu and c^2 / y^2 = (P/Q)^2 mu^2 / v),
    acceptance reads alpha = A + B mu + C mu^2 <= 0 with
    A = (2Nv - n^2) v Q^2, B = -4N P Q v and C = 2N P^2.  B < 0 < C, so
    B - C mu < 0 and `_cube_field_norm` has the sign of alpha.  It is never
    zero: v is odd, so v/6 is no rational cube, 1, mu, mu^2 are independent
    over Q, and B != 0.
    """
    v = 2 * f + 1
    if 6 * v * v * Q ** 3 <= P ** 3:
        return False
    A = (2 * N * v - n * n) * v * Q * Q
    return _cube_field_norm(v, 6, A, -4 * N * P * Q * v, 2 * N * P * P) > 0


def ls_lower(shape: SystemShape, airy: AiryConstant = DEFAULT_AIRY) -> BoundOutcome:
    """Lower bound 1 + floor((w4^6 - 1) / 2), certified over the Airy enclosure.

    w4 is the positive root of q(w) = w^4 - a w - c, a = n / sqrt(2N),
    c = 6^(-1/3) i1.  q < 0 on (0, w4) and q > 0 beyond, so
    floor((w4^6 - 1) / 2) >= f exactly when q((2f + 1)^(1/6)) <= 0, the
    exact per-degree test `_ls_refuses_degree`, and acceptance is monotone
    in f.  At i1 = P/Q, degree top = (n^2 // N + P^2 // Q^2) // 2 + 2 is
    refused: w4^6 < 1 or w4^3 <= a + c, and 2 top + 1 > n^2/N + i1^2 >
    (a + c)^2.  So one `integer_gallop` per end of the i1 enclosure finds
    its floor, the last accepted degree, clamped at 0 when degree 0 is
    refused (which keeps the bound 1 valid).  The lower end starts at an
    integer estimate of its first refused degree, (v + 1) // 2 for
    v = n^2 // (2N) + 2 iroot(n^2 P^3 // (12 N Q^3), 3): w4^3 = a + c / w4
    and w4 >= a^(1/3), so w4^6 is about a^2 + 2 c a^(2/3), and the first
    refused degree floor((w4^6 + 1) / 2).  On 6,540 shapes (N <= 120, and
    3,000 random ones up to n = 2^18) the start lands 0, 1 or 2 below it,
    where 2 or 3 tests decide.  w4 grows with c, so the upper end starts
    at the lower end's floor + 1, above a degree it accepts, and one test
    decides unless the floors differ.  The start only picks where the
    search looks: no float is read, and the tests decide.  Differing floors
    are flagged near-boundary with both candidates.  The ends of the Airy
    enclosure, i1 -+ r for i1 = P/Q and r = p/q, are read as the
    unreduced pairs (P q -+ p Q, Q q): the test is homogeneous in (P, Q),
    and top and the start read only integer quotients, so no Fraction is
    formed.
    """
    N, n = shape.N, shape.n

    def first_refused(P: int, Q: int, lo: int, start: int) -> int:
        top = (n * n // N + P * P // (Q * Q)) // 2 + 2
        return integer_gallop(lo, top, partial(_ls_refuses_degree, N, n, P, Q), start)

    (P, Q), (p, q) = airy.i1.as_integer_ratio(), airy.precision_radius.as_integer_ratio()
    P_lo, P_hi, Qq = P * q - p * Q, P * q + p * Q, Q * q
    v = n * n // (2 * N) + 2 * iroot(n * n * P_lo ** 3 // (12 * N * Qq ** 3), 3)
    f_lo = max(first_refused(P_lo, Qq, -1, (v + 1) // 2) - 1, 0)
    f_hi = first_refused(P_hi, Qq, f_lo, f_lo + 1) - 1
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
    is alpha >= 0; alpha = 4 s(u) for the sextic s of `l_upper`.  B - C u =
    Q (1 + 2u) > 0, so `_cube_field_norm` has the sign of alpha and is zero
    exactly when alpha is.
    """
    Q = 4 * (N - k)
    return _cube_field_norm(k, 1, Q * k - n * n, Q, -2 * Q)


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


def _l_start(N: int, n: int) -> int:
    """Where `l_upper`'s search starts: ceil(x^3) for a float estimate x of x5.

    x is four Newton steps on s(x) = x(x-1)^2(N - x^3) - n^2/4, s' = (1 - x) r,
    from (n^2 / (4N))^(1/3) + 1, the root of x^3 N = n^2/4 moved right of 1.
    On 7,397 of the 7,401 applicable shapes with N <= 200, and on every
    applicable published row, the start is the first accepted degree, so
    two tests decide.  A float that cannot be formed (overflow, a zero
    derivative, NaN) starts the search at the middle of [1, N/2] instead.
    The start only picks where the search looks; the exact tests decide.
    Plain float arithmetic, so that `math` stays out.
    """
    try:
        c, Nf = n * n / 4, float(N)
        x = (c / Nf) ** (1 / 3) + 1
        for _ in range(4):
            x2, d = x * x, x - 1  # x -= s / s', s' = -d r
            x += (x * d * d * (Nf - x2 * x) - c) / (d * (((6 * x - 4) * x2 - 3 * Nf) * x + Nf))
        cube = x * x * x
        k = int(cube)
        return k + (k < cube)  # ceil
    except (OverflowError, ZeroDivisionError, ValueError):
        return (1 + N // 2) // 2


def l_upper(shape: SystemShape) -> BoundOutcome:
    """Upper bound 1 + ceil(x5^3) from the sextic localization, or not applicable.

    x5 is the root of s(x) = x(x-1)^2(N - x^3) - n^2/4 on its increasing
    side, so ceil(x5^3) is the first degree k whose per-degree test
    s(k^(1/3)) >= 0 (one exact integer sign, `_l_accepts_degree`) accepts.
    s' = (1 - x) r with r = 6x^4 - 4x^3 - 3Nx + N; r(1) = 2 - 2N < 0,
    r((N/2)^(1/3)) = -N < 0 and r is convex for x > 1/3, so r < 0 on
    [1, (N/2)^(1/3)] and s increases there: acceptance is monotone over
    k = 1..floor(N/2), and k = 1 is refused (s(1) = -n^2/4), so one
    `integer_gallop` from `_l_start` finds the first accepted k, an exact
    integer predicate when its norm is zero (x5^3 is that integer) and
    interval certified otherwise.  If floor(N/2) is refused,
    `_l_max_resultant` at c = n^2 gives the sign of s at its maximum x4',
    as c > 16N/27: for N >= 8, c > 4P(u) >= 2N u (u-1)^2 > 1.09 N at
    u^3 = floor(N/2) >= 4, and 4 <= N < 8 is checked by enumeration.  A tie
    s(x4') = 0 is out of range too: s < 0 left of x4' > (N/2)^(1/3), so the
    root cubes past N/2.
    """
    N, n = shape.N, shape.n
    if not _l_accepts_degree(N, n, N // 2):
        # N = 3 holds only (2, 1), where n^2 = 1 < V0 and the maximum is negative
        negative = N == 3 or _l_max_resultant(N, n * n) > 0
        reason = (NotApplicableReason.SEXTIC_MAX_NEGATIVE if negative
                  else NotApplicableReason.SEXTIC_ROOT_OUT_OF_RANGE)
        return BoundOutcome(kind=BoundKind.L_UPPER, value=None, not_applicable_reason=reason,
                            certification=Certification(CertificationMethod.EXACT_INTEGER_PREDICATE))
    k = integer_gallop(1, N // 2, partial(_l_accepts_degree, N, n), _l_start(N, n))
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


def sandwich_verdict(dreg: int, kz: BoundOutcome, ls_low: BoundOutcome,
                     ls_up: BoundOutcome, l_up: BoundOutcome) -> tuple[int, int | None, bool]:
    """(greatest lower bound, least applicable upper bound, lower <= d_reg <= upper).

    kz_lower and ls_lower always apply.  The upper bound is None when
    neither ls_upper nor l_upper applies, and the verdict then reads the
    lower bound alone.  `semireg bounds` and the sandwich suite both decide
    by it.
    """
    lower = max(kz.value, ls_low.value)
    upper = min((o.value for o in (ls_up, l_up) if o.applicable), default=None)
    return lower, upper, lower <= dreg and (upper is None or dreg <= upper)
