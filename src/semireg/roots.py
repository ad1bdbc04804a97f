"""Certified localization of smallest Krawtchouk roots and matching eigenvalues.

Two independent re-derivations of the degree of regularity live here:

* via roots: d_reg = 1 + max{k : d_k(1) > m-n}, where d_k(1) is the smallest
  root of K_k^N.  Roots are enclosed by exact-sign bisection inside brackets
  supplied by interlacing (d_k(1) < d_{k-1}(1) < d_k(2)); left of 1 two
  bounds of the explicit sum settle most signs without the recurrence.
* via eigenvalues: d_reg = 1 + max{k : lambda_k < n}, where lambda_k is the
  largest eigenvalue of the k x k Golub-Kahan matrix T_k with zero diagonal
  and off-diagonal entries sqrt((i+1)(N-i)).  Its sign is read off the
  leading minors of x I - T_k by Sylvester's criterion: x > lambda_k exactly
  when all of them are positive.

Both signs run the cleared recurrence of `krawtchouk.cleared_values` in one
loop that keeps only its last two values and multiplies by 4^e as a shift.

All evaluation points are dyadic rationals, so every sign is an exact
integer computation.  Floats only seed: a Newton estimate of d_k(1) on the
package's one float recurrence, `exact._krawtchouk_slope`, picks a short
dyadic window (`DyadicBracket.narrow`), which is used only when two exact
signs certify it, and bisection takes over when they do not; no decision
reads a float.  A chain built after those of N - 1 and N - 2 starts Newton
from their seeds (`_RootChain._seed`): d_k^(N-1)(1) is provably left of
d_k^N(1), and the extrapolation through both is tried first.  Newton stops
right after a step of at most 2^-40 max(1, |x|), so a seed takes about half
the float evaluations of a cold start.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from .exact import SystemShape, _root_seed
from .intervals import DyadicBracket, Enclosure, positive_width

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
    """B_k at s = N 2^e - 2p, d = 2^e: an integer with the sign of K_k^N(p / 2^e), k >= 1."""
    s, e2 = (N << e) - 2 * p, 2 * e
    prev, cur = 1, s
    for j in range(1, k):
        prev, cur = cur, s * cur - (j * (N - j + 1) * prev << e2)
    return cur


@lru_cache(maxsize=CROSS_VALIDATION_CEILING)
def _tiny_constants(k: int) -> tuple[int, int, tuple[int, ...]]:
    """L = lcm(1..k), H_{k-1} L and the weights (L // j) 2^j, j = 1..k, of `_root_sign`."""
    L = math.lcm(*range(1, k + 1))
    return L, sum(L // i for i in range(1, k)), tuple(L // j << j for j in range(1, k + 1))


def _root_sign(N: int, k: int):
    """The sign of -K_k^N at p / 2^e (negative left of d_k(1), as brackets want).

    For 0 <= x < 1 the explicit sum K_k(x) = sum_j (-2)^j C(N-j, k-j) C(x, j)
    (MacWilliams & Sloane, ch. 5 par. 7) reads C(N, k) - x B(x), where the
    j-th term of B is 2^j/j C(N-j, k-j) prod_{0<i<j} (1 - x/i) >= 0.  Each
    product lies in [1 - x H_{k-1}, 1] (Weierstrass), so B0 (1 - x H_{k-1})
    <= B(x) <= B0 = B(0): x B0 < C(N, k) proves K_k(x) > 0, and
    x B0 (1 - x H_{k-1}) > C(N, k) proves K_k(x) < 0.  Cleared of L = lcm(1..k)
    and 2^e both are integer comparisons.  Near a root neither holds; there,
    and at x >= 1, the cleared recurrence decides, so only it returns a zero.
    """
    tiny = []  # [C(N, k), L, B0 L, H_{k-1} L], built at the first x < 1

    def sign(p: int, e: int) -> int:
        if p >> e == 0:
            if not tiny:
                L, h, weights = _tiny_constants(k)
                b0, c = 0, 1  # c = C(N-j, k-j)
                for j in range(k, 0, -1):
                    b0 += weights[j - 1] * c
                    c = c * (N - j + 1) // (k - j + 1)
                tiny.extend((c, L, b0, h))
            c, L, b0, h = tiny
            lhs, rhs = p * b0, c * L << e
            if lhs < rhs:
                return -1
            if lhs * ((L << e) - p * h) > rhs * L << e:
                return 1
        return -_sign_at_dyadic(N, k, p, e)

    return sign


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
        self.seeds: dict[int, float] = {}  # k >= 2: the float seed of d_k(1), for lambda_k
        # the seeds of the chains of N - 1 and N - 2, set by a caller that built them
        self.warm: tuple[dict[int, float], dict[int, float]] = ({}, {})

    def bracket(self, k: int) -> DyadicBracket:
        if not 1 <= k <= self.N:
            raise ValueError(f"requires 1 <= k <= N={self.N}; got k={k}")
        while len(self._brackets) < k:
            self._extend()
        return self._brackets[k - 1]

    def refine(self, k: int, width: Fraction | float) -> DyadicBracket:
        """Bracket k refined to `width`; lo > 0 certifies 0 < root.

        Bracket k + 1 is made first, from bracket k at the exponent it was
        made at: made from the refined bracket, it would start at that
        exponent, and refining k by k would add the width's bits every k.
        """
        N, br = self.N, self.bracket(k)
        self.bracket(min(k + 1, N))
        br.refine(width, lambda: _guess_in(N, k, br))
        return br

    def _extend(self) -> None:
        N = self.N
        k = len(self._brackets) + 1
        if k == 1:
            # K_1(x) = N - 2x: the single root is the point N / 2
            self._brackets.append(DyadicBracket(_root_sign(N, 1), N, N, 1, exact=True))
            return
        prev = self._brackets[-1]
        # prev.lo <= d_{k-1}(1) < d_k(2), so a window below prev.lo where K_k
        # changes sign isolates d_k(1); the seeded window is tried first.
        sign_at = _root_sign(N, k)
        br = DyadicBracket(sign_at, 0, prev.num_lo, prev.e)
        self.seeds[k] = self._seed(k, br)
        if not br.narrow(self.seeds[k], DEFAULT_WIDTH):
            while (sign := sign_at(prev.num_lo, prev.e)) < 0:
                if prev.exact:
                    raise AssertionError(
                        "K_k must be negative at the exact previous smallest root"
                    )
                prev.step()
            # If K_k < 0 at prev.lo, the bracket (0, prev.lo) isolates
            # d_k(1); a root of K_k at or below d_{k-1}(1) can only be
            # d_k(1) itself.
            br = DyadicBracket(sign_at, 0 if sign > 0 else prev.num_lo, prev.num_lo,
                               prev.e, exact=sign == 0)
        # lo > 0 certifies 0 < root and leaves bracket k + 1 room below lo
        while not br.exact and br.num_lo == 0:
            br.step()
        self._brackets.append(br)

    def _seed(self, k: int, br: DyadicBracket) -> float:
        """Newton seed of d_k^N(1) in br, warm-started from the seeds of N - 1, N - 2.

        K_k^N = K_k^(N-1) + K_(k-1)^(N-1), and both terms are positive left
        of d_k^(N-1)(1) < d_(k-1)^(N-1)(1), so d_k^(N-1)(1) < d_k^N(1): a
        left start.  Newton starts at the extrapolation 2 d_k^(N-1) -
        d_k^(N-2) instead when K_k^N is positive there.  The first Newton
        evaluation is that test: right of d_k^N(1) the first step points
        down, so the seed comes back unmoved and Newton starts again at
        d_k^(N-1).  Without warm seeds Newton starts in the bracket.
        """
        last = self.warm[0].get(k)
        if last is None:
            return _guess_in(self.N, k, br)
        hi = br.num_hi / (1 << br.e)
        start = 2 * last - self.warm[1].get(k, last)
        seed = _root_seed(self.N, k, start, hi)
        if seed == start != last:
            seed = _root_seed(self.N, k, last, hi)
        return seed


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


def _eigen_sign(N: int, k: int, p: int, e: int) -> int:
    """An integer with the sign of x - lambda_k at x = p / 2^e, zero at lambda_k.

    The leading minors q_j = det(x I - T_j) obey q_j = x q_{j-1} -
    (j-1)(N-j+2) q_{j-2}, so 2^(j e) q_j is the cleared Krawtchouk value at
    s = p, d = 2^e: q_j = j! K_j((N - x)/2), which at the threshold x = n
    reads j! c_j.  By Sylvester's criterion x > lambda_k exactly when
    q_1..q_k are all positive.  The top eigenvalue of T_{j-1} lies strictly
    below that of T_j, so a non-positive q_j, j < k, puts x below lambda_k,
    and with q_1..q_{k-1} positive q_k has the sign of x - lambda_k.
    """
    e2 = 2 * e
    prev, cur = 1, p
    for j in range(1, k):
        if cur <= 0:
            return -1
        prev, cur = cur, p * cur - (j * (N - j + 1) * prev << e2)
    return cur


def _eigen_bracket(N: int, k: int) -> DyadicBracket:
    """Bracket [0, N] of lambda_k (k >= 2), signed by `_eigen_sign`.

    The matrix has zero trace, so lambda_k > 0, and lambda_k = N - 2 d_k(1) < N.
    """
    return DyadicBracket(partial(_eigen_sign, N, k), 0, N, 0)


def _eigen_brackets(N: int) -> dict[int, DyadicBracket]:
    """The brackets of lambda_k for k = 2..N, keyed by k."""
    return {k: _eigen_bracket(N, k) for k in range(2, N + 1)}


def _refine_eigen(N: int, k: int, bracket: DyadicBracket, width: Fraction | float,
                  root_seed: float) -> DyadicBracket:
    """The bracket of lambda_k (k >= 2), refined to `width`."""
    # lambda_k = N - 2 d_k(1) < N: the root's float seed seeds the
    # eigenvalue, kept below N where a tiny root would round it onto N
    bracket.refine(width, lambda: min(N - 2 * root_seed, math.nextafter(N, 0)))
    return bracket


def largest_eigenvalue(N: int, k: int, width: Fraction | float = DEFAULT_WIDTH) -> Enclosure:
    """Certified enclosure of the largest eigenvalue lambda_k, width <= width.

    An exact rational eigenvalue hit collapses to a point enclosure.
    """
    if not 1 <= k <= N:
        raise ValueError(f"requires 1 <= k <= N={N}; got k={k}")
    if k == 1:
        positive_width(width)  # refused like any k, though lambda_1 = 0 is exact
        return Enclosure.point(0)
    return _refine_eigen(N, k, _eigen_bracket(N, k), width,
                         _root_seed(N, k, 0.0, N / 2)).enclosure()


def dreg_via_eigenvalues(shape: SystemShape, ceiling: int = CROSS_VALIDATION_CEILING) -> int:
    """Degree of regularity recovered from the Golub-Kahan eigenvalue test.

    lambda_1 = 0 < n always; for k >= 2 the bracket of lambda_k decides
    lambda_k < n by bisection, and only when n stays inside it at
    DEFAULT_WIDTH does the eigen sign at n settle the side.  A zero there is
    the tie lambda_k = n, which the strict inequality excludes.
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
