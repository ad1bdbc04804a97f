"""Exact big-integer combinatorics and the ground-truth degree of regularity.

For an overdetermined homogeneous quadratic semi-regular system with m
equations in n variables the Hilbert series of the quotient algebra is the
truncation of

    (1 - z)^(m-n) * (1 + z)^m

at its first non-positive coefficient, and the degree of regularity is the
index of that coefficient.  Every truncation index is decided with exact
integer arithmetic.  A float may *seed* one (`_root_seed` proposes where the
transposed search of `degree_of_regularity_exact` looks first), but only
exact signs decide it.  This module is the base of the package: it imports
no other module of it but `intervals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterator

from .intervals import integer_bisect, newton_seed

__all__ = [
    "SystemShape",
    "krawtchouk_stream",
    "binomial",
    "coefficient",
    "hilbert_truncation",
    "degree_of_regularity_exact",
    "f5_cost_log2",
]


@dataclass(frozen=True)
class SystemShape:
    """Validated parameter pair (m, n) of an overdetermined quadratic system.

    m: number of equations, n: number of variables.  Requires m > n >= 1.
    The derived quantities N = 2m - n (degree of the coefficient-generating
    polynomial) and t = m - n (its evaluation offset) recur everywhere.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if not all(isinstance(v, int) and not isinstance(v, bool)
                   for v in (self.m, self.n)):
            raise ValueError("shape parameters m, n must be integers")
        if self.n < 1:
            raise ValueError(f"requires n >= 1 (at least one variable); got n={self.n}")
        if self.m <= self.n:
            raise ValueError(
                f"requires m > n (overdetermined system); got m={self.m}, n={self.n}"
            )

    @property
    def N(self) -> int:
        return 2 * self.m - self.n

    @property
    def t(self) -> int:
        return self.m - self.n


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b); 0 whenever b lies outside [0, a]."""
    if a < 0:
        raise ValueError(f"binomial requires a >= 0; got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def krawtchouk_stream(N: int, s: int) -> Iterator[int]:
    """K_0^N(x), ..., K_N^N(x) at the integer x with N - 2x = s, exactly.

    The divided three-term recurrence, seeded with K_{-1} = 0 and K_0 = 1:

        (k+1) K_{k+1} = s K_k - (N - k + 1) K_{k-1}

    Every division is checked to be exact; a non-zero remainder would mean
    the recurrence was seeded or indexed wrongly.  At x = m - n (so s = n)
    the values are the coefficients c_k of (1-z)^(m-n) (1+z)^m.
    """
    if (N - s) & 1:
        raise ValueError(f"requires N - s even (an integer point); got N={N}, s={s}")
    prev, cur = 0, 1
    for k in range(N):
        yield cur
        nxt, r = divmod(s * cur - (N - k + 1) * prev, k + 1)
        if r:
            raise AssertionError(f"recurrence division not exact at k={k + 1}")
        prev, cur = cur, nxt
    yield cur


def coefficient(shape: SystemShape, k: int) -> int:
    """k-th coefficient of (1-z)^(m-n) (1+z)^m, exact: K_k^N(m - n) off the stream."""
    if not 0 <= k <= shape.N:
        raise ValueError(f"coefficient index k={k} outside [0, N={shape.N}]")
    return next(islice(krawtchouk_stream(shape.N, shape.n), k, None))


def hilbert_truncation(shape: SystemShape) -> list[int]:
    """Coefficients of the truncated Hilbert series (all strictly positive).

    The maximal positive prefix of the stream.  The coefficients sum to
    (1-1)^t (1+1)^m = 0 with c_0 = 1 > 0, so a non-positive one exists.
    """
    prefix = []
    for c in krawtchouk_stream(shape.N, shape.n):
        if c <= 0:
            return prefix
        prefix.append(c)
    raise AssertionError("no non-positive coefficient found up to degree N")


def degree_of_regularity_exact(shape: SystemShape) -> int:
    """Index of the first non-positive coefficient, i.e. 1 + deg HS(z).

    Streams c_0, ..., c_t (t = m - n) with O(1) memory; if all are positive,
    `_transposed_dreg` finds the index in O(t) steps per probe, not O(d_reg).
    """
    N, t = shape.N, shape.t
    for k, c in zip(range(t + 1), krawtchouk_stream(N, shape.n)):
        if c <= 0:
            return k
    return _transposed_dreg(N, t)


def _probe(N: int, t: int, x: int) -> tuple[bool, int]:
    """(K_0(x), ..., K_t(x) are all positive, K_t(x)) at the integer x."""
    positive = True
    for _, value in zip(range(t + 1), krawtchouk_stream(N, N - 2 * x)):
        positive = positive and value > 0
    return positive, value


def _transposed_dreg(N: int, t: int) -> int:
    """The first integer k with K_t(k) <= 0, given K_t(k) > 0 for k <= t.

    By the reciprocity C(N, x) K_k(x) = C(N, k) K_x(k) (MacWilliams & Sloane,
    The Theory of Error-Correcting Codes, ch. 5 §7), c_k = K_k(t) has the
    sign of K_t(k), so this k is d_reg.  Predicate (a) at x, "K_0(x), ...,
    K_t(x) are all positive", holds exactly when x < d_t(1), the smallest
    root of K_t: by the Sturm property the sign agreements count the roots
    of K_t below x.  d = 1 + the largest x where (a) holds is certified by
    (a) at d - 1, so c_k > 0 for k < d, and (b) K_t(d) <= 0, the last term
    of the probe at d.  A gap between mass points holds at most one zero
    (T. S. Chihara, An Introduction to Orthogonal Polynomials, 1978, ch. I),
    so (b) follows; AssertionError reports it failing.  The float seed only
    picks where the search looks.
    """
    tail = {}

    def holds(x: int) -> bool:
        positive, tail[x] = _probe(N, t, x)
        return positive

    # c_0..c_t > 0 stands in for (a) at t; (a) fails where K_1 = N - 2x <= 0
    lo, hi = t, (N + 1) // 2
    try:  # a seed that is not finite, or N past the float range, starts at lo
        x = min(max(math.floor(_root_seed(N, t, 0.0, N / 2)), lo), hi - 1)
    except (ArithmeticError, ValueError):
        x = lo
    # probe x and x + 1, gallop away from x in doubling steps while the
    # answer lies further out, then bisect what is left
    step = 1
    if holds(x):
        lo = x
        while lo + step < hi and holds(lo + step):
            lo, step = lo + step, 2 * step
        hi = min(hi, lo + step)
    else:
        hi = x
        while hi - step > lo and not holds(hi - step):
            hi, step = hi - step, 2 * step
        lo = max(lo, hi - step)
    # d - 1 is the largest x in [lo, hi) where (a) holds; on -x, probes round up
    d = 1 - integer_bisect(-hi, -lo, lambda y: holds(-y))
    if (tail[d] if d in tail else _probe(N, t, d)[1]) > 0:
        raise AssertionError(f"K_t must be non-positive at {d}, next to its smallest root")
    return d


def _krawtchouk_slope(N: int, k: int, x: float) -> tuple[float, float]:
    """Float K_k^N(x) / C(N, k) and its derivative, for k >= 1.

    Dividing K_j by C(N, j) gives the recurrence
    (N - j) k_{j+1} = (N - 2x) k_j - j k_{j-1}.  For 0 <= x < d_k(1), where
    the seeds evaluate it, every k_j lies in (0, 1], so the value cannot
    overflow at any N; the slope, about -1/d_k(1), can once d_k(1) underflows
    (N = k = 2048), and a non-finite slope stops the Newton seed at its start.
    Right of d_k(1) it is no oracle: K_j can far exceed C(N, j) between
    integers, and past k = N/2 the recurrence can lose all accuracy.
    """
    a = N - 2.0 * x
    prev, cur, dprev, dcur = 1.0, a / N, 0.0, -2.0 / N
    for j in range(1, k):
        prev, cur, dprev, dcur = (
            cur, (a * cur - j * prev) / (N - j),
            dcur, (a * dcur - 2.0 * cur - j * dprev) / (N - j),
        )
    return cur, dcur


def _root_seed(N: int, k: int, lo: float, hi: float) -> float:
    """Float estimate of d_k^N(1) in [lo, hi] by Newton's method.

    It starts at kz_root_bound, which is below d_k(1), when 2k < N and the
    bound lies inside, else at lo, which a caller with a better start passes
    in (the root chain's warm start).  K_k has k real roots, so from any x
    left of the smallest one the Newton steps 1 / sum(1 / (r_i - x)) are
    positive and shrink as the iterates climb to it; from x just right of
    it the first step points down and x comes back unmoved.  Iteration
    stops once a step is at most 2^-40 max(1, |x|) (`newton_seed`).  Only
    a seed: nothing is decided from this value.
    """
    x = kz_root_bound(N, k) if 2 * k < N else lo
    if not lo < x < hi:
        x = lo
    return newton_seed(partial(_krawtchouk_slope, N, k), x, 1)


def kz_root_bound(N: int, k: int) -> float:
    """Raw per-degree root lower bound with the (.)^(2/3) correction term.

    Valid for 1 <= k < N/2; it starts the Newton seeds and is never decisive.
    """
    if not (1 <= k and 2 * k < N):
        raise ValueError(f"requires 1 <= k < N/2; got k={k}, N={N}")
    rho = (N - 2 * k) / (2 * k * (N - k))
    return N / 2 - math.sqrt(k * (N - k)) * (1 - 1.5 * rho ** (2.0 / 3.0))


def f5_cost_log2(shape: SystemShape, dreg: int, omega: float = 2.373) -> float:
    """log2 of the Groebner-basis cost bound m * dreg * C(n+dreg-1, dreg)^omega.

    The O(1) lgamma estimate v of `_f5_estimate` is returned when its error radius r
    keeps round(v - r, 2) == round(v + r, 2), so, round being monotone, the 2-decimal
    cell is the exact route's; at a rounding boundary, or past floats, C(a, b) decides.
    """
    if dreg < 1:
        raise ValueError(f"requires dreg >= 1; got {dreg}")
    try:
        v, r = _f5_estimate(shape, dreg, omega)
    except OverflowError:  # n + dreg beyond a float: nan fails the test below
        v = r = math.nan
    if round(v - r, 2) == round(v + r, 2):
        return v
    c = binomial(shape.n + dreg - 1, dreg)
    return math.log2(shape.m) + math.log2(dreg) + omega * math.log2(c)


def _f5_estimate(shape: SystemShape, dreg: int, omega: float) -> tuple[float, float]:
    """v = log2 m + log2 dreg + omega (ga - gb - gc) / ln 2 and its error radius r.

    ga, gb, gc = lgamma(a+1), lgamma(b+1), lgamma(a-b+1) erred by at most 1.72 eps S
    (S = |ga| + |gb| + |gc|, eps = 2^-52) against mpmath over 3,000 random (a, b), a <= 2e6;
    r = 32 eps S omega / ln 2, over 16 times that, plus 8 ulps of v for the exact route.
    """
    lg = (math.lgamma(shape.n + dreg), math.lgamma(dreg + 1), math.lgamma(shape.n))
    v = math.log2(shape.m) + math.log2(dreg) + omega * (lg[0] - lg[1] - lg[2]) / math.log(2)
    return v, omega / math.log(2) * 2.0 ** -47 * sum(map(abs, lg)) + 8 * math.ulp(v)
