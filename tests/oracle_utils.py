"""Independent oracles used across the test suite.

Each function here recomputes a quantity by a different route than the
production code: brute-force polynomial expansion, Pascal's triangle,
the explicit alternating sum, the general-alphabet recurrence, rational
bisection, interval arithmetic, mpmath root finding.  They exist so expected values in tests are
never produced by the code under test.  The references the package no
longer carries live here too: the cleared recurrence as a list
(`cleared_values`, `eval_exact`) and the float Cardano closed form of
`ls_lower` (`QuarticClosedForm`), beside one deliberately wrong root kernel
(`wrong_root_sign`) that the fault tests patch in, `mutant`, which compiles
a package function with one fragment of its source replaced, and a
`time_limit` that turns a hang into a failure.
"""

from __future__ import annotations

import inspect
import math
import signal
import sys
import textwrap
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from operator import mul

from dataclasses import dataclass

import mpmath

import semireg.verify
from semireg.bounds import DEFAULT_AIRY, AiryConstant, CertificationMethod, _l_accepts_degree
from semireg.exact import SystemShape, binomial, krawtchouk_stream
from semireg.intervals import Enclosure, iroot, nth_root_enclosure, sqrt_enclosure
from semireg.krawtchouk import integer_values
from semireg.roots import dreg_via_eigenvalues, dreg_via_roots, largest_eigenvalue
from semireg.verify import CheckResult, enumerate_shapes


class Interval(Enclosure):
    """An `Enclosure` with interval negation, sum, difference and product.

    Each result is the smallest interval holding every result of the
    operation on points of the operands; a bare number is a point.
    """

    __slots__ = ()

    @classmethod
    def of(cls, enc: Enclosure) -> "Interval":
        return cls(enc.lo, enc.hi)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other: "Enclosure | Fraction | int") -> "Interval":
        if isinstance(other, Enclosure):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __sub__(self, other: "Enclosure | Fraction | int") -> "Interval":
        return self + (-Interval.of(other) if isinstance(other, Enclosure) else -other)

    def __rsub__(self, other: "Fraction | int") -> "Interval":
        return -self + other

    def __mul__(self, other: "Enclosure | Fraction | int") -> "Interval":
        if not isinstance(other, Enclosure):
            other = Interval.point(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__


def cleared_values(N: int, s: int, d2: int, k: int) -> list[int]:
    """[B_0, ..., B_k] with B_j = j! d^j K_j^N(x), where s = d (N - 2x), d2 = d^2.

    The cleared recurrence B_{j+1} = s B_j - j (N - j + 1) d2 B_{j-1}, B_0 = 1,
    stays in integers at every rational x.  At s = p, d2 = 4^e the B_j are
    also the leading minors of the Golub-Kahan matrix at p / 2^e.
    """
    prev, cur = 1, s
    b = [1, s]
    for j in range(1, k):
        prev, cur = cur, s * cur - j * (N - j + 1) * d2 * prev
        b.append(cur)
    return b if k else [1]


def eval_exact(N: int, k: int, t: Fraction | int) -> Fraction:
    """K_k^N(t) in exact rational arithmetic."""
    t = Fraction(t)
    d = t.denominator
    b_k = cleared_values(N, d * N - 2 * t.numerator, d * d, k)[k]
    return Fraction(b_k, math.factorial(k) * d ** k)


def krawtchouk_ratios_reference(N: int, k: int, x: float) -> tuple[float, float] | None:
    """`exact._krawtchouk_ratios` as one loop over j, rescaling where j % 64 == 0.

    The package kernel runs the same float operations in the same order
    in blocks of `_RESCALE_BLOCK` = 64 steps, with no per-step remainder
    and no six-value tuple; its results must be bit-identical to these.
    """
    a = N - 2.0 * x
    prev, cur, dprev, dcur, sprev, scur = 1.0, a / N, 0.0, -2.0 / N, 0.0, 0.0
    for j in range(1, k):
        if cur <= 0:
            return None
        if not j % 64:
            e = -math.frexp(cur)[1]
            prev, cur = math.ldexp(prev, e), math.ldexp(cur, e)
            dprev, dcur = math.ldexp(dprev, e), math.ldexp(dcur, e)
            sprev, scur = math.ldexp(sprev, e), math.ldexp(scur, e)
        prev, cur, dprev, dcur, sprev, scur = (
            cur, (a * cur - j * prev) / (N - j),
            dcur, (a * dcur - 2.0 * cur - j * dprev) / (N - j),
            scur, (a * scur - 4.0 * dcur - j * sprev) / (N - j),
        )
    if cur <= 0:
        return None
    return dcur / cur, scur / cur


def wrong_root_sign(N: int, k: int):
    """A faulty `roots._root_sign`: j (N - j + 2) for j (N - j + 1), no tiny-root bounds.

    Its K_3^3(0) is -3, so the root chain's lift-off at N = 3 finds no
    positive value left of the previous root.
    """
    def sign(p: int, e: int) -> int:
        s, prev, cur = (N << e) - 2 * p, 1, (N << e) - 2 * p
        for j in range(1, k):
            prev, cur = cur, s * cur - (j * (N - j + 2) * prev << 2 * e)
        return -cur
    return sign


def mutant(function, old: str, new: str):
    """`function` compiled from its own source with the one `old` replaced by `new`.

    It runs in a copy of its module's namespace, taken now.  A source that
    no longer holds `old` exactly once fails here, so a mutant cannot
    silently become the original.
    """
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{function.__qualname__} does not hold {old!r} once"
    namespace = dict(vars(sys.modules[function.__module__]))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in a call that runs past `seconds`, instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def i1_enclosure(airy: AiryConstant) -> Enclosure:
    """The Airy enclosure [i1 - precision_radius, i1 + precision_radius]."""
    return Enclosure(airy.i1 - airy.precision_radius, airy.i1 + airy.precision_radius)


class QuarticClosedForm(namedtuple("QuarticClosedForm", "a b t_value u_value w4")):
    """Radical expression of the positive quartic root, float diagnostics.

    For q(w) = w^4 - a w + b (a > 0 > b) the resolvent cubic U^3 - 4 b U = a^2
    has the Cardano root U = T^(1/3) + (4b/3) T^(-1/3) with
    T = a^2/2 + sqrt(a^4 - (256/27) b^3)/2, and the unique positive root is

        w4 = (sqrt(U) + sqrt(2 a / sqrt(U) - U)) / 2.

    The radicand under the inner square root is positive because U^3 < a^2
    implies U^(3/2) < a < 2a.
    """

    __slots__ = ()

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


def pascal_binomial(a: int, b: int) -> int:
    """C(a, b) from Pascal's triangle, no multiplication."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def exact_f5_cost_log2(shape, dreg: int, omega: float = 2.373) -> float:
    """log2 of m * dreg * C(n+dreg-1, dreg)^omega, the binomial taken exactly."""
    c = math.comb(shape.n + dreg - 1, dreg)
    return math.log2(shape.m) + math.log2(dreg) + omega * math.log2(c)


def expand_product(t: int, m: int) -> list[int]:
    """Coefficients of (1 - z)^t (1 + z)^m by repeated polynomial multiplication."""
    coeffs = [1]
    for _ in range(t):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c
        coeffs = nxt
    for _ in range(m):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def direct_stream_dreg(shape) -> int:
    """Index of the first non-positive c_k, streamed directly from k = 0.

    The oracle of the transposed search: it reads c_k = K_k(m - n) in index
    order, never the transposed values K_{m-n}(k).
    """
    for k, c in enumerate(krawtchouk_stream(shape.N, shape.n)):
        if c <= 0:
            return k
    raise AssertionError("no non-positive coefficient found up to degree N")


def convolution_coefficient(m: int, n: int, k: int) -> int:
    """c_k = sum_j (-1)^j C(m-n, j) C(m, k-j), the explicit alternating sum."""
    t = m - n
    total = 0
    for j in range(0, min(k, t) + 1):
        term = math.comb(t, j) * math.comb(m, k - j)
        total += -term if j & 1 else term
    return total


def gf_convolution_check(m: int, n: int, up_to: int) -> bool:
    """`gf_identity_check` by explicit convolution of the binomial product.

    [z^k] (1-z^2)^(m-n) (1+z)^n = sum_i (-1)^i C(m-n, i) C(n, k-2i), compared
    term by term with the stream values K_k^{2m-n}(m-n) for k <= up_to.
    """
    t = m - n
    even = [(-1) ** i * binomial(t, i) for i in range(t + 1)]  # (1-z^2)^t
    plain = [binomial(n, j) for j in range(up_to + 1)]  # (1+z)^n
    series = [sum(map(mul, even, plain[k::-2])) for k in range(up_to + 1)]
    return series == integer_values(2 * m - n, t, up_to)


def generalized_binomial(x: Fraction, j: int) -> Fraction:
    """C(x, j) = x (x-1) ... (x-j+1) / j! for rational x."""
    num = Fraction(1)
    for i in range(j):
        num *= x - i
    return num / math.factorial(j)


def alternating_sum_value(N: int, k: int, t: Fraction, r: int = 2) -> Fraction:
    """The defining alternating sum of the degree-k polynomial at rational t."""
    t = Fraction(t)
    total = Fraction(0)
    for j in range(k + 1):
        term = ((r - 1) ** (k - j)
                * generalized_binomial(t, j)
                * generalized_binomial(N - t, k - j))
        total += -term if j & 1 else term
    return total


def eval_general_r(N: int, k: int, r: int, t: Fraction | int) -> Fraction:
    """Degree-k polynomial at rational t for alphabet size r, by recurrence."""
    t = Fraction(t)
    prev, cur = Fraction(1), N * (r - 1) - r * t
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, ((N * (r - 1) - j * (r - 2) - r * t) * cur
                          - (r - 1) * (N - j + 1) * prev) / (j + 1)
    return cur


def s_derivative_coefficients(N: int) -> list[int]:
    """Coefficients of s'(x) for s(x) = x(x-1)^2(N - x^3) - n^2/4, ascending."""
    return [N, -4 * N, 3 * N, -4, 10, -6]


def one_minus_x_times_r_coefficients(N: int) -> list[int]:
    """Coefficients of (1 - x) r(x), r(x) = 6x^4 - 4x^3 - 3Nx + N, ascending."""
    r = [N, -3 * N, 0, -4, 6]
    out = [0] * 6
    for i, c in enumerate(r):
        out[i] += c
        out[i + 1] -= c
    return out


def fraction_quartic_positive_root(a: Fraction, b: Fraction, width: Fraction):
    """(lo, hi) around the positive root of w^4 - a w + b by Fraction bisection.

    Starts from [0, 2], doubling hi until q(hi) > 0; lo == hi marks an exact
    dyadic root hit by a midpoint.
    """
    def q(w: Fraction) -> Fraction:
        return w ** 4 - a * w + b

    lo, hi = Fraction(0), Fraction(2)
    while q(hi) <= 0:
        hi *= 2
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = q(mid)
        if v == 0:
            return mid, mid
        if v < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# The precision steps of the quartic-bracket ls_lower this oracle replays.
LS_BITS_SCHEDULE = (48, 96, 192)


def c_enclosure(airy, bits: int) -> Enclosure:
    """Enclosure of c = 6^(-1/3) i1 over the Airy enclosure at `bits` bits.

    Both factors are non-negative, so the product's ends are the ends'
    products.
    """
    root, i1 = nth_root_enclosure(Fraction(1, 6), 3, bits), i1_enclosure(airy)
    return Enclosure(root.lo * i1.lo, root.hi * i1.hi)


def fraction_ls_lower(shape, airy=DEFAULT_AIRY):
    """(value, method, near_boundary, candidates) of ls_lower, floored in Fractions.

    The corners a = n / sqrt(2N) and b = -c come from `sqrt_enclosure` and
    `c_enclosure`, each corner quartic is bisected in Fractions
    (`fraction_quartic_positive_root`), and floor((w^6 - 1) / 2) is taken on
    the Fraction endpoints, step by step through `LS_BITS_SCHEDULE`.
    """
    a_sq = Fraction(shape.n * shape.n, 2 * shape.N)
    for bits in LS_BITS_SCHEDULE:
        a_enc = sqrt_enclosure(a_sq, bits)
        c_enc = c_enclosure(airy, bits)  # b = -c
        width = Fraction(1, 1 << (bits // 2))
        w_low = fraction_quartic_positive_root(a_enc.lo, -c_enc.lo, width)[0]
        w_high = fraction_quartic_positive_root(a_enc.hi, -c_enc.hi, width)[1]
        f_lo = max(math.floor((w_low ** 6 - 1) / 2), 0)
        f_hi = max(math.floor((w_high ** 6 - 1) / 2), 0)
        if f_lo == f_hi:
            break
    flag = f_lo != f_hi
    return (1 + f_lo, CertificationMethod.INTERVAL_CERTIFIED, flag,
            (1 + f_lo, 1 + f_hi) if flag else None)


def interval_ls_refuses_degree(N: int, n: int, i1: Fraction, f: int) -> bool:
    """Per-degree ls_lower refusal y^4 - a y - c > 0, y = (2f + 1)^(1/6).

    a = n / sqrt(2N) and c = 6^(-1/3) i1.  Fraction interval arithmetic on
    enclosures of y, a and 6^(-1/3), doubling their bits until the sign of
    the quartic is certain (it is never zero: v/6 is no rational cube).
    """
    v, a_sq = 2 * f + 1, Fraction(n * n, 2 * N)
    bits = 32
    while True:
        y = Interval.of(nth_root_enclosure(v, 6, bits))
        a = Interval.of(sqrt_enclosure(a_sq, bits))
        c = Interval.of(nth_root_enclosure(Fraction(1, 6), 3, bits)) * i1
        q = y * y * y * y - a * y - c
        if q.lo > 0:
            return True
        if q.hi < 0:
            return False
        bits *= 2


def sextic_value(N: int, n: int, x: Fraction) -> Fraction:
    """s(x) = x (x - 1)^2 (N - x^3) - n^2/4, the sextic of `l_upper`, in Fractions."""
    return x * (x - 1) ** 2 * (N - x ** 3) - Fraction(n * n, 4)


@lru_cache(maxsize=None)
def l_sextic_peak(N: int) -> tuple:
    """(x4', 4 x4' (x4' - 1)^2 (N - x4'^3)) as mpmath floats at 60 digits.

    x4' is the top root of r = 6x^4 - 4x^3 - 3Nx + N, the stationary point
    where the sextic s = x (x-1)^2 (N - x^3) - n^2/4 of `l_upper` peaks on
    [1, oo).  mpmath's Newton `findroot` starts at N^(1/3), where r is
    positive and convex, so it descends onto x4'.
    """
    with mpmath.workdps(60):
        x = mpmath.findroot(lambda x: 6 * x ** 4 - 4 * x ** 3 - 3 * N * x + N,
                            mpmath.cbrt(N), solver="newton",
                            df=lambda x: 24 * x ** 3 - 12 * x ** 2 - 3 * N)
        return x, 4 * x * (x - 1) ** 2 * (N - x ** 3)


def l_max_sign(N: int, n: int) -> int:
    """Sign of 4 s(x4') = 4P(x4') - n^2 from `l_sextic_peak`: 1 or -1.

    AssertionError if the two sides agree to 30 digits, where 60-digit
    arithmetic no longer settles the sign.
    """
    peak = l_sextic_peak(N)[1]
    gap = peak - n * n
    assert abs(gap) > peak * mpmath.mpf(10) ** -30, (N, n)
    return 1 if gap > 0 else -1


def interval_l_accepts_degree(N: int, n: int, k: int) -> bool:
    """Per-degree l_upper acceptance n^2/4 <= (k + u - 2u^2)(N - k), u = k^(1/3).

    Fraction interval arithmetic: a perfect cube k compares exactly, any
    other k refines an enclosure of u, doubling its bits until one side of
    the inequality is certain (for non-cube k the sides are never equal).
    """
    lhs = Fraction(n * n, 4)
    c = iroot(k, 3)
    if c ** 3 == k:
        return lhs <= (k + c - 2 * c * c) * (N - k)
    bits = 32
    while True:
        u = Interval.of(nth_root_enclosure(k, 3, bits))
        rhs = (k + u - 2 * u * u) * (N - k)
        if rhs.lo >= lhs:
            return True
        if rhs.hi < lhs:
            return False
        bits *= 2


def l_smallest_accepted_degree(shape) -> int | None:
    """Smallest degree k in [1, floor(N/2)] passing the per-degree l_upper test.

    Acceptance of k means n/2 <= (sqrt(k) - k^(1/6)) sqrt(N - k), squared to
    n^2/4 <= (k - 2 k^(2/3) + k^(1/3)) (N - k) and decided by the sign of one
    integer (`bounds._l_accepts_degree`); ties, which only perfect cubes k
    can reach, are accepted.  The linear scan that `l_upper`'s integer
    bisection replaces.
    """
    N, n = shape.N, shape.n
    for k in range(1, N // 2 + 1):
        if _l_accepts_degree(N, n, k):
            return k
    return None


def three_way_reference(max_N: int) -> CheckResult:
    """The three-way suite shape by shape in (n, m) order, each route from scratch.

    The exact route is read through `semireg.verify`, so a test that patches
    it there patches this reference too.  Where it reads past t = m - n, the
    direct stream's index is compared as well.
    """
    checked = 0
    for shape in enumerate_shapes(max_N):
        d_exact = semireg.verify.degree_of_regularity_exact(shape)
        d_direct = direct_stream_dreg(shape) if shape.t < d_exact else d_exact
        d_roots = dreg_via_roots(shape, ceiling=max_N)
        d_eigen = dreg_via_eigenvalues(shape, ceiling=max_N)
        if not d_direct == d_exact == d_roots == d_eigen:
            return CheckResult(
                "three_way_agreement", checked, False,
                f"m={shape.m}, n={shape.n}: exact={d_exact}, direct={d_direct}, "
                f"roots={d_roots}, eigenvalues={d_eigen}",
            )
        checked += 1
    return CheckResult("three_way_agreement", checked, True)


def gf_identity_reference(max_N: int) -> CheckResult:
    """The gf_identity suite shape by shape in (n, m) order, one convolution each."""
    checked = 0
    for shape in enumerate_shapes(max_N):
        if not gf_convolution_check(shape.m, shape.n, shape.N):
            return CheckResult("gf_identity", checked, False,
                               f"mismatch at m={shape.m}, n={shape.n}")
        checked += 1
    return CheckResult("gf_identity", checked, True)


def orthogonality_check(N: int, l: int, k: int) -> bool:
    """Exact check of sum_i K_l(i) K_k(i) C(N,i) == 2^N C(N,l) [l == k]."""
    if not (0 <= l <= N and 0 <= k <= N):
        raise ValueError(f"requires 0 <= l, k <= N; got l={l}, k={k}, N={N}")
    top = max(l, k)
    total = 0
    for i in range(N + 1):
        vals = integer_values(N, i, top)
        total += vals[l] * vals[k] * binomial(N, i)
    expected = (1 << N) * binomial(N, l) if l == k else 0
    return total == expected


def orthogonality_reference(max_N: int) -> CheckResult:
    """The orthogonality suite pair by pair, one scalar dot product per (l, k).

    The integer values are read through `semireg.verify`, so a test that
    patches them there patches this reference too.
    """
    top = min(max_N, semireg.verify.ORTHOGONALITY_ENVELOPE)
    checked = 0
    for N in range(1, top + 1):
        # cols[k][i] = K_k(i); each row l is weighted by C(N, i) once
        cols = list(zip(*(semireg.verify.integer_values(N, i, N) for i in range(N + 1))))
        weights = [binomial(N, i) for i in range(N + 1)]
        for l in range(N + 1):
            expected_diag = (1 << N) * binomial(N, l)
            wl = list(map(mul, cols[l], weights))
            for k in range(l, N + 1):
                total = sum(map(mul, wl, cols[k]))
                expected = expected_diag if l == k else 0
                if total != expected:
                    return CheckResult(
                        "orthogonality", checked, False,
                        f"failure at N={N}, l={l}, k={k}",
                    )
                checked += 1
    return CheckResult("orthogonality", checked, True)


def sturm_count_below(N: int, k: int, p: int, e: int) -> tuple[int, bool]:
    """Eigenvalues of the k x k Golub-Kahan matrix strictly below p / 2^e.

    The leading principal minors q_j = 2^(j e) p_j(x), with
    p_j(x) = x p_{j-1}(x) - (j-1)(N-j+2) p_{j-2}(x), are the cleared
    Krawtchouk values at s = p, d = 2^e.  Counting sign agreements of
    consecutive terms, where a zero term takes the sign opposite to its
    predecessor, yields the number of eigenvalues strictly below the
    evaluation point; the second return value reports whether the point is
    itself an eigenvalue.
    """
    count = 0
    sign_prev = 1
    q = cleared_values(N, p, 1 << (2 * e), k)
    for q_j in q[1:]:
        sign = (q_j > 0) - (q_j < 0)
        if sign == 0:
            sign = -sign_prev
        if sign == sign_prev:
            count += 1
        sign_prev = sign
    return count, q[-1] == 0


def eigenvalue_count_below(N: int, k: int, x: Fraction | int) -> int:
    """Number of eigenvalues of the k x k Golub-Kahan matrix strictly below x.

    x must have a power-of-two denominator (every bisection point does).
    """
    x = Fraction(x)
    den = x.denominator
    e = den.bit_length() - 1
    if 1 << e != den:
        raise ValueError(f"requires a dyadic rational; got denominator {den}")
    count, _ = sturm_count_below(N, k, x.numerator, e)
    return count


@dataclass(frozen=True)
class GolubKahanSpectrum:
    """The k x k zero-diagonal tridiagonal matrix and its top eigenvalue.

    Off-diagonal entries are sqrt of the stored integers (i+1)(N-i); only the
    squares are ever touched, which keeps Sturm counts exact.
    """

    N: int
    k: int
    squared_offdiagonals: tuple[int, ...]
    lambda_max: Enclosure

    @classmethod
    def compute(cls, N: int, k: int) -> "GolubKahanSpectrum":
        return cls(
            N=N,
            k=k,
            squared_offdiagonals=tuple((i + 1) * (N - i) for i in range(k - 1)),
            lambda_max=largest_eigenvalue(N, k),
        )
