"""Certified localization of smallest Krawtchouk roots and matching eigenvalues.

Two independent re-derivations of the degree of regularity live here:

* via roots: d_reg = 1 + max{k : d_k(1) > m-n}, where d_k(1) is the smallest
  root of K_k^N.  Roots are enclosed by exact-sign bisection inside brackets
  supplied by interlacing (d_k(1) < d_{k-1}(1) < d_k(2)).
* via eigenvalues: d_reg = 1 + max{k : lambda_k < n}, where lambda_k is the
  largest eigenvalue of the k x k Golub-Kahan matrix with zero diagonal and
  off-diagonal entries sqrt((i+1)(N-i)).  Eigenvalues are counted by Sturm
  sequences of the leading principal minors.

All evaluation points are dyadic rationals, so every sign and every count is
an exact integer computation.  Floats only seed: a Newton estimate of d_k(1)
on the package's one float recurrence, `_krawtchouk_slope`, picks a short
dyadic window (`DyadicBracket.narrow`), which is used only when two exact
signs, or two Sturm counts, certify it, and bisection takes over when they
do not; no decision reads a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .bounds import kz_root_bound
from .exact import SystemShape
from .intervals import DyadicBracket, Enclosure, newton_seed
from .krawtchouk import cleared_values

__all__ = [
    "DEFAULT_WIDTH",
    "CROSS_VALIDATION_CEILING",
    "smallest_root",
    "smallest_root_chain",
    "dreg_via_roots",
    "largest_eigenvalue",
    "dreg_via_eigenvalues",
]

DEFAULT_WIDTH = Fraction(1, 1 << 20)

# The root/eigenvalue paths exist to validate the coefficient stream, not to
# replace it; refuse accidental huge sweeps beyond this family size.
CROSS_VALIDATION_CEILING = 512


def _sign_at_dyadic(N: int, k: int, p: int, e: int) -> int:
    """An integer with the exact sign of K_k^N(p / 2^e): the cleared value at d = 2^e."""
    return cleared_values(N, (N << e) - 2 * p, 1 << (2 * e), k)[k]


def _root_sign(N: int, k: int):
    # K_k is positive left of d_k(1); the bracket wants negative at lo.
    return lambda p, e: -_sign_at_dyadic(N, k, p, e)


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
    bound lies inside, else at lo.  K_k has k real roots, so from any x left
    of the smallest one the Newton steps 1 / sum(1 / (r_i - x)) are positive
    and shrink as the iterates climb to it.  Only a seed: nothing is decided
    from this value.
    """
    x = kz_root_bound(N, k) if 2 * k < N else lo
    if not lo < x < hi:
        x = lo
    return newton_seed(partial(_krawtchouk_slope, N, k), x, 1)


def _guess_in(N: int, k: int, br: DyadicBracket) -> float:
    """Newton seed for d_k(1) from the float endpoints of its bracket."""
    scale = 1 << br.e
    return _root_seed(N, k, br.num_lo / scale, br.num_hi / scale)


class _RootChain:
    """Enclosures of d_k^N(1) for k = 1, 2, ... built through interlacing.

    Each bracket's right endpoint is certified below d_k(2) when it is made,
    and bisection or a seeded window only moves it left, so the enclosed
    sign change is the smallest root and no other.
    """

    def __init__(self, N: int):
        self.N = N
        self._brackets: list[DyadicBracket] = []

    def bracket(self, k: int) -> DyadicBracket:
        if not 1 <= k <= self.N:
            raise ValueError(f"requires 1 <= k <= N={self.N}; got k={k}")
        while len(self._brackets) < k:
            self._extend()
        return self._brackets[k - 1]

    def refine(self, k: int, width: Fraction | float) -> DyadicBracket:
        """Bracket k refined to `width`, then until lo > 0 certifies 0 < root."""
        N, br = self.N, self.bracket(k)
        br.refine(width, lambda: _guess_in(N, k, br))
        while not br.exact and br.num_lo == 0:
            br.step()
        return br

    def _extend(self) -> None:
        N = self.N
        k = len(self._brackets) + 1
        if k == 1:
            # K_1(0) = N > 0 and K_1(N) = -N < 0; the single root is inside.
            self._brackets.append(DyadicBracket(_root_sign(N, 1), 0, N, 0))
            return
        prev = self._brackets[-1]
        # prev.lo <= d_{k-1}(1) < d_k(2), so a window below prev.lo where K_k
        # changes sign isolates d_k(1); the seeded window is tried first.
        br = DyadicBracket(_root_sign(N, k), 0, prev.num_lo, prev.e)
        if br.narrow(_guess_in(N, k, br), DEFAULT_WIDTH):
            self._brackets.append(br)
            return
        while True:
            sign = _sign_at_dyadic(N, k, prev.num_lo, prev.e)
            if sign <= 0:
                # If K_k < 0 at prev.lo, the bracket (0, prev.lo) isolates
                # d_k(1); a root of K_k at or below d_{k-1}(1) can only be
                # d_k(1) itself.
                lo = 0 if sign < 0 else prev.num_lo
                self._brackets.append(DyadicBracket(
                    _root_sign(N, k), lo, prev.num_lo, prev.e, exact=sign == 0
                ))
                return
            if prev.exact:
                raise AssertionError(
                    "K_k must be negative at the exact previous smallest root"
                )
            prev.step()


def smallest_root(N: int, k: int, width: Fraction | float = DEFAULT_WIDTH) -> Enclosure:
    """Certified enclosure of d_k^N(1), 1 <= k <= N, with 0 < lo and hi - lo <= width.

    K_k is positive at lo and negative at hi; an exact rational hit (for
    instance d_1 = N/2) collapses to a point enclosure instead of failing.
    """
    return _RootChain(N).refine(k, width).enclosure()


def smallest_root_chain(
    N: int, k_max: int, width: Fraction | float = DEFAULT_WIDTH
) -> list[Enclosure]:
    """Enclosures of d_k^N(1) for all k = 1..k_max off one shared chain."""
    chain = _RootChain(N)
    return [chain.refine(k, width).enclosure() for k in range(1, k_max + 1)]


def dreg_via_roots(shape: SystemShape, ceiling: int = CROSS_VALIDATION_CEILING) -> int:
    """Degree of regularity recovered from certified smallest-root enclosures.

    Walks k = 1, 2, ... while the bracket of d_k(1) certifies d_k(1) > t,
    t = m - n.  The bracket decides by bisection; only when t stays inside it
    at DEFAULT_WIDTH does the exact sign at t settle the side, and a zero
    there is the tie d_k(1) = t, which the strict comparison excludes.
    """
    if shape.N > ceiling:
        raise ValueError(
            f"N={shape.N} exceeds the cross-validation ceiling {ceiling}"
        )
    return _dreg_from_chain(_RootChain(shape.N), shape.t)


def _dreg_from_chain(chain: _RootChain, t: int) -> int:
    """The first k whose bracket certifies d_k(1) <= t."""
    for k in range(1, chain.N + 1):
        if chain.bracket(k).compare(t, DEFAULT_WIDTH) <= 0:
            return k
    raise AssertionError("accept set cannot extend past degree N")


def _sturm_count_below(N: int, k: int, p: int, e: int) -> tuple[int, bool]:
    """Eigenvalues of the k x k Golub-Kahan matrix strictly below p / 2^e.

    The leading principal minors q_j = 2^(j e) p_j(x), with
    p_j(x) = x p_{j-1}(x) - (j-1)(N-j+2) p_{j-2}(x), are the cleared
    Krawtchouk values at s = p, d = 2^e: q_j = j! 2^(j e) K_j((N - x)/2).
    At the threshold x = n this reads q_j = j! c_j.  Counting sign agreements
    of consecutive terms, where a zero term takes the sign opposite to its
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


def _eigen_bracket(N: int, k: int) -> DyadicBracket:
    """Bracket [0, N] of lambda_k (k >= 2), signed by Sturm counts.

    The matrix has zero trace, so lambda_k > 0, and lambda_k = N - 2 d_k(1) < N.
    """

    def sign_at(p: int, e: int) -> int:
        # positive above lambda_k (all k eigenvalues lie below), zero at it
        count, singular = _sturm_count_below(N, k, p, e)
        if count == k:
            return 1
        return 0 if singular and count == k - 1 else -1

    return DyadicBracket(sign_at, 0, N, 0)


def _eigen_brackets(N: int) -> dict[int, DyadicBracket]:
    """The brackets of lambda_k for k = 2..N, keyed by k."""
    return {k: _eigen_bracket(N, k) for k in range(2, N + 1)}


def _refine_eigen(N: int, k: int, bracket: DyadicBracket,
                  width: Fraction | float) -> Enclosure:
    """Enclosure of lambda_k (k >= 2) from its bracket refined to `width`."""
    # lambda_k = N - 2 d_k(1) < N: the root's float seed seeds the
    # eigenvalue, kept below N where a tiny root would round it onto N
    bracket.refine(width, lambda: min(N - 2 * _root_seed(N, k, 0.0, N / 2),
                                      math.nextafter(N, 0)))
    return bracket.enclosure()


def largest_eigenvalue(N: int, k: int, width: Fraction | float = DEFAULT_WIDTH) -> Enclosure:
    """Certified enclosure of the largest eigenvalue lambda_k, width <= width.

    An exact rational eigenvalue hit collapses to a point enclosure.
    """
    if not 1 <= k <= N:
        raise ValueError(f"requires 1 <= k <= N={N}; got k={k}")
    if k == 1:
        return Enclosure.point(0)
    return _refine_eigen(N, k, _eigen_bracket(N, k), width)


def dreg_via_eigenvalues(shape: SystemShape, ceiling: int = CROSS_VALIDATION_CEILING) -> int:
    """Degree of regularity recovered from the Golub-Kahan eigenvalue test.

    lambda_1 = 0 < n always; for k >= 2 the bracket of lambda_k decides
    lambda_k < n by bisection, and only when n stays inside it at
    DEFAULT_WIDTH does the Sturm count at n settle the side.  A singular hit
    there is the tie lambda_k = n, which the strict inequality excludes.
    """
    if shape.N > ceiling:
        raise ValueError(
            f"N={shape.N} exceeds the cross-validation ceiling {ceiling}"
        )
    return _dreg_from_eigen(_eigen_brackets(shape.N), shape.n)


def _dreg_from_eigen(brackets: dict[int, DyadicBracket], n: int) -> int:
    """The first k >= 2 whose bracket certifies lambda_k >= n."""
    for k, bracket in brackets.items():
        if bracket.compare(n, DEFAULT_WIDTH) >= 0:
            return k
    raise AssertionError("accept set cannot extend past degree N")
