"""Exact big-integer combinatorics and the ground-truth degree of regularity.

For an overdetermined homogeneous quadratic semi-regular system with m
equations in n variables the Hilbert series of the quotient algebra is the
truncation of

    (1 - z)^(m-n) * (1 + z)^m

at its first non-positive coefficient, and the degree of regularity is the
index of that coefficient.  Every truncation index is decided with exact
integer arithmetic, by two kernels of one recurrence: `krawtchouk_stream`
yields the values themselves, dividing exactly at every step, and
`_sign_scan` reads only their signs, for `degree_of_regularity_exact`.  It
steps two degrees at a time, on the even degrees alone, and divides once
per `_SIGN_BLOCK` degrees: for s > 0 a first non-positive value at an odd
degree makes the next even one negative, so the first non-positive even
value and the sign of one odd value beside it give the index.  A float
may *seed* one (`_root_seed` proposes where the transposed search of
`degree_of_regularity_exact` looks first, and `kz_root_bound` whether it
looks before the scan), but only exact signs decide it.  `_root_seed` is
the package's one Laguerre seed, a few Laguerre steps on the
power-of-two-rescaled float recurrence of `_krawtchouk_ratios`, for this
search and for the root brackets of `roots` (which seeds tiny roots from
its integer bounds instead, and makes the eigenvalue brackets from the
root brackets), and it forms every float it reads: a seed that cannot be
formed is NaN.
This module is the base of the package: it imports no other module of it
but `intervals`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice

from .intervals import DEFAULT_WIDTH, integer_gallop

__all__ = [
    "SystemShape",
    "krawtchouk_stream",
    "binomial",
    "coefficient",
    "hilbert_truncation",
    "degree_of_regularity_exact",
    "f5_cost_log2",
]


class SystemShape(namedtuple("SystemShape", "m n")):
    """Validated parameter pair (m, n) of an overdetermined quadratic system.

    m: number of equations, n: number of variables.  Requires m > n >= 1.
    The derived quantities N = 2m - n (degree of the coefficient-generating
    polynomial) and t = m - n (its evaluation offset) recur everywhere.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> "SystemShape":
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (m, n)):
            raise ValueError("shape parameters m, n must be integers")
        if n < 1:
            raise ValueError(f"requires n >= 1 (at least one variable); got n={n}")
        if m <= n:
            raise ValueError(f"requires m > n (overdetermined system); got m={m}, n={n}")
        return super().__new__(cls, m, n)

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


# Degrees between the exact divisions of `_sign_scan`; even, as the kernel
# steps two degrees at a time.  Over 40 alternating in-process passes of the
# five benchmark table commands, a pass took 28.0 ms at 64 and 27.8 ms at 96
# and at 128, and the `2n` command 11.4 ms at 64 and 11.1-11.2 ms at 96 to
# 192 (2-core x86-64, CPython 3.11): a division costs about the same per
# degree at any block, and a longer block carries wider values.
_SIGN_BLOCK = 128


def _sign_scan(N: int, s: int, K: int) -> Iterator[int]:
    """Signs of K_0^N(x), ..., K_K^N(x) at N - 2x = s, K <= N, two degrees a step.

    Yields two values, lazily: first j, the index of the first
    non-positive K_j(x) with j <= K, or K + 1 if all are positive; then a
    positive multiple of K_K(x) (zero where K_K(x) is).  The direct scan
    of `degree_of_regularity_exact` reads only j, and the kernel stops
    with it, at degree j or j + 1; `_probe` reads both, and the kernel
    runs to degree K.

    With B_k = (k!/b!) K_k for the last base b, the cleared recurrence
    B_{k+1} = s B_k - a_k B_{k-1}, a_k = k (N - k + 1), loses its odd
    terms, since s B_{k+1} = B_{k+2} + a_{k+1} B_k and
    s B_{k-1} = B_k + a_{k-1} B_{k-2}:

        B_{k+2} = (s^2 - a_k - a_{k+1}) B_k - a_k a_{k-1} B_{k-2},

    one multiply-subtract on wide integers per two degrees, not two.  The
    signs need only the even values.  Let s > 0.  If the first
    non-positive value is K_j at an odd j <= N, then
    (j + 1) K_{j+1} = s K_j - (N - j + 1) K_{j-1} < 0, as K_{j-1} > 0.
    So if k + 2 is the first even degree with B_{k+2} <= 0, the first
    non-positive value is at k + 1 or at k + 2: one at an odd degree
    below k + 1 would make an even one below k + 2 negative.  It is at
    k + 1 exactly when K_{k+1} <= 0, that is when
    B_{k+2} + a_{k+1} B_k = s B_{k+1} <= 0, which needs no division.  For
    s <= 0, K_1 = s is the first non-positive value, so j = 1 (= K + 1
    at K = 0).  The kernel runs to degree K, or K + 1 for odd K, where
    s (B_{K+1} + a_K B_{K-1}) = s^2 B_K is the multiple of K_K it yields.

    Every `_SIGN_BLOCK` degrees both carried values, B_k and B_{k+2}, are
    divided by k!/b!, which leaves (K_k, (k+2) (k+1) K_{k+2}), and k
    becomes the base; a non-zero remainder raises AssertionError, as in
    `krawtchouk_stream`.  No sign needs a division: a scan that stops
    inside its first block runs no such check, but skips no decision.
    """
    if (N - s) & 1:
        raise ValueError(f"requires N - s even (an integer point); got N={N}, s={s}")
    told = s <= 0
    if told:
        yield 1
    ss = s * s
    prev, cur, base, a_prev = 0, 1, 0, 0  # B_{k-2}, B_k, b, a_{k-1} at k = 0
    for k in range(0, K, 2):
        a0, a1 = k * (N - k + 1), (k + 1) * (N - k)
        prev, cur = cur, (ss - a0 - a1) * cur - a0 * a_prev * prev
        a_prev = a1
        if cur <= 0 and not told:
            j = k + 1 if cur + a1 * prev <= 0 else k + 2
            if j <= K:
                told = True
                yield j
        if k - base == _SIGN_BLOCK:
            d = math.perm(k, _SIGN_BLOCK)
            (prev, r), (cur, q) = divmod(prev, d), divmod(cur, d)
            if r or q:
                raise AssertionError(f"cleared recurrence not divisible by {k}!/{base}!")
            base = k
    if not told:
        yield K + 1
    yield s * (cur + K * (N - K + 1) * prev) if K & 1 else cur


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

    Scans the signs of c_0, ..., c_t (t = m - n) with `_sign_scan` in
    O(1) memory, up to the first non-positive one; if all are positive,
    `_transposed_dreg` finds the index in O(t) steps per probe, not
    O(d_reg).  Where the O(1) float `kz_root_bound(N, t)` exceeds t + 1,
    d_reg > t is likely, and the search's first probe comes before the
    scan.  A probe that holds at
    x >= t gives t <= x < d_t(1), so c_0, ..., c_t > 0 (the Sturm
    property, see `_transposed_dreg`) and the scan is skipped.  A probe
    that fails is kept, and the scan runs as before.  The float only picks
    the order; past the float range the scan comes first.
    """
    N, t = shape.N, shape.t
    first = None
    try:
        probe_first = kz_root_bound(N, t) > t + 1
    except OverflowError:  # past the float range
        probe_first = False
    if probe_first:
        x = _first_probe(N, t)
        first = x, _probe(N, t, x)
        if first[1][0]:  # (a) holds at x >= t: c_0..c_t > 0 without the scan
            return _transposed_dreg(N, t, first)
    d = next(_sign_scan(N, shape.n, t))
    return d if d <= t else _transposed_dreg(N, t, first)


def _probe(N: int, t: int, x: int) -> tuple[bool, int]:
    """(K_0(x), ..., K_t(x) are all positive, a positive multiple of K_t(x))."""
    j, value = _sign_scan(N, N - 2 * x, t)
    return j > t, value


def _first_probe(N: int, t: int) -> int:
    """Where the transposed search probes first: the floor of the seed of d_t(1).

    The seed stops after its first Laguerre step (`_root_seed`'s `accuracy`
    of infinity), one float evaluation at `kz_root_bound`.  Laguerre's
    iterates climb to the smallest root from its left, and on the 12
    transposed table rows, and at t = 512 and t = 1000 for n = 32768, that
    one step stops 0.03 to 0.41 short of it: the floor is d - 1 on 11 of
    those 14 rows and d - 2 on 3, which costs one more probe than d - 1.
    It is not rounded up: that puts the first probe at d about half the
    time, where it fails, and the scan runs.  The floor is clamped into
    [t, (N + 1) // 2 - 1], the search's range; a seed that is not finite
    (N past the float range) gives t.
    """
    seed = _root_seed(N, t, accuracy=math.inf)
    if not math.isfinite(seed):
        return t
    return min(max(math.floor(seed), t), (N + 1) // 2 - 1)


def _transposed_dreg(N: int, t: int, first: tuple[int, tuple[bool, int]] | None = None) -> int:
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
    so (b) follows; AssertionError reports it failing.  The search starts
    at `first`, a probe (x, `_probe(N, t, x)`) already made, which it does
    not make again; if None, it starts at `_first_probe(N, t)`.  From x,
    `intervals.integer_gallop` gallops outward to x +- 1, 2, 4, ..., each
    offset measured from x, while (a) says the answer lies further out, and
    then bisects the last gap.  It runs on -x, so that its answer is
    -(d - 1) and its bisection rounds each probe up.  A start j >= 1 places
    below d - 1, or above d, costs at most 3 + 2 log2 j probes, and one at
    d - 1 or d costs 2: from d - 1 the probes are [d - 1, d], and from
    d - 2 [d - 2, d - 1, d].  The float seed only picks where the search
    looks.
    """
    made = dict([first]) if first else {}

    def holds(x: int) -> bool:
        if x not in made:
            made[x] = _probe(N, t, x)
        return made[x][0]

    # d - 1 is the largest x in [t, (N + 1) // 2) where (a) holds: c_0..c_t
    # > 0 stands in for (a) at t, and (a) fails where K_1 = N - 2x <= 0
    x = first[0] if first else _first_probe(N, t)
    d = 1 - integer_gallop(-((N + 1) // 2), -t, lambda y: holds(-y), -x)
    holds(d)
    if made[d][1] > 0:
        raise AssertionError(f"K_t must be non-positive at {d}, next to its smallest root")
    return d


# Steps between the power-of-two rescalings of `_krawtchouk_ratios`.
_RESCALE_BLOCK = 64

# `_root_seed`'s default relative accuracy: the root chain's window width.
_SEED_ACCURACY = float(DEFAULT_WIDTH)


def _krawtchouk_ratios(N: int, k: int, x: float) -> tuple[float, float] | None:
    """(p'/p, p''/p) for p = K_k^N at x, k >= 1, or None if K_j(x) <= 0 for some j <= k.

    Dividing K_j by C(N, j) gives the recurrence
    (N - j) k_{j+1} = a k_j - j k_{j-1}, a = N - 2x, and differentiating it
    (a' = -2) gives (N - j) k'_{j+1} = a k'_j - 2 k_j - j k'_{j-1} and
    (N - j) k''_{j+1} = a k''_j - 4 k'_j - j k''_{j-1}.  The six carried
    floats are homogeneous in (k, k', k''), so at the start of every block
    of `_RESCALE_BLOCK` steps they are all multiplied by one exact power of
    two that brings k_j into [1/2, 1): rounding is unchanged, and neither
    underflow nor overflow can stop the recurrence at any N or k (K_512^33280(x) / C(N, 512) is
    below the smallest float near its root).  Only the two returned ratios
    can leave the float range, p'/p once d_k(1) is near 2^-1024.  A value
    k_j <= 0 ends the recurrence: by the Sturm property, K_0..K_k are all
    positive exactly left of d_k(1), so None reads "x >= d_k(1)", up to
    the rounding of a float recurrence.  Right of d_k(1) it is no oracle:
    K_j can far exceed C(N, j) between integers, and past k = N/2 the
    recurrence can lose all accuracy there.
    """
    a = N - 2.0 * x
    prev, cur, dprev, dcur, sprev, scur = 1.0, a / N, 0.0, -2.0 / N, 0.0, 0.0
    for block in range(0, k, _RESCALE_BLOCK):
        if block:  # the sign of cur is kept, and the step below reads it
            e = -math.frexp(cur)[1]
            prev, cur = math.ldexp(prev, e), math.ldexp(cur, e)
            dprev, dcur = math.ldexp(dprev, e), math.ldexp(dcur, e)
            sprev, scur = math.ldexp(sprev, e), math.ldexp(scur, e)
        # s reads the old dcur and d the old cur, so s steps first, then d
        for j in range(block or 1, min(block + _RESCALE_BLOCK, k)):
            if cur <= 0:
                return None
            w = N - j
            sprev, scur = scur, (a * scur - 4.0 * dcur - j * sprev) / w
            dprev, dcur = dcur, (a * dcur - 2.0 * cur - j * dprev) / w
            prev, cur = cur, (a * cur - j * prev) / w
    if cur <= 0:
        return None
    return dcur / cur, scur / cur


def _root_seed(N: int, k: int, lo: Fraction | float = 0,
               hi: Fraction | None = None, *, accuracy: float | None = None) -> float:
    """Float estimate of d_k^N(1) in [lo, hi] (hi = N / 2 if None) by Laguerre's method.

    It starts at kz_root_bound, which is below d_k(1), when 2k < N and the
    bound lies inside, else at lo, which a caller with a better start passes
    in (the root chain's warm start).  With G = p'/p and h = p''/p from
    `_krawtchouk_ratios`, each step is

        k / (|G| + sqrt((k - 1) ((k - 1) G^2 - k h))),

    written over 1/|G| so that G^2 is never formed.  K_k has k real roots,
    so from any x left of the smallest one the steps are positive and
    shrink as the iterates climb to it, with cubic convergence.  From x at
    or right of it the kernel returns None, and x comes back unmoved, as it
    does at the first step that is not positive and shorter than the last,
    where rounding has taken over.  Iteration stops right after a step of
    at most `accuracy`, which the caller sets to what it needs: the
    transposed search of `degree_of_regularity_exact` takes the floor of
    the first step's end and asks for infinity, one float evaluation: a
    second costs about as much as an exact probe, and would save one only
    where the floor is d - 2.  By default, for the root chain, it stops right
    after a step of at most DEFAULT_WIDTH max(1, |x|) (`_SEED_ACCURACY`): a
    further step would move x by about the cube of that, below a float's
    rounding.  Every float is
    formed here, so N or an end past the float range gives NaN.  Only a
    seed: nothing is decided from this value.
    """
    try:
        lo = float(lo)
        hi = N / 2 if hi is None else float(hi)
        x = kz_root_bound(N, k) if 2 * k < N else lo
        if not lo < x < hi:
            x = lo
        size = math.inf
        while True:
            ratios = _krawtchouk_ratios(N, k, x)
            if ratios is None:
                return x
            g, h = ratios
            u = -1.0 / g  # about the distance to the root; G < 0 left of it
            r = (k - 1) * ((k - 1) - k * h * u * u)
            step = k * u / (1.0 + math.sqrt(max(r, 0.0)))
            if not 0 < step < size:
                return x
            size = step
            x += step
            if step <= (_SEED_ACCURACY * max(1.0, abs(x)) if accuracy is None else accuracy):
                return x
    except (ArithmeticError, ValueError):
        return math.nan


def kz_root_bound(N: int, k: int) -> float:
    """Raw per-degree root lower bound with the (.)^(2/3) correction term.

    Valid for 1 <= k < N/2; it starts the Laguerre seeds and orders the scan and
    the first probe of `degree_of_regularity_exact`, and is never decisive.
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
    if not -math.inf < omega < math.inf:  # false for a NaN too
        raise ValueError(f"omega must be finite; got {omega}")
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
