"""Certified localization of smallest Krawtchouk roots and matching eigenvalues.

Two independent re-derivations of the degree of regularity live here:

* via roots: d_reg = 1 + max{k : d_k(1) > m-n}, where d_k(1) is the smallest
  root of K_k^N.  Roots are enclosed by exact-sign bisection inside brackets
  supplied by interlacing (d_k(1) < d_{k-1}(1) < d_k(2)).  Every sign is the
  explicit sum K_k(x) = sum_j (-2)^j C(N-j, k-j) C(x, j) (`_explicit_sum`);
  left of 1 two bounds of that sum settle most signs without evaluating it.
* via eigenvalues: d_reg = 1 + max{k : lambda_k < n}, where lambda_k is the
  largest eigenvalue of the k x k Golub-Kahan matrix T_k with zero diagonal
  and off-diagonal entries sqrt((i+1)(N-i)).  Its sign is read off the
  leading minors of x I - T_k by Sylvester's criterion: x > lambda_k exactly
  when all of them are positive.  lambda_k = N - 2 d_k(1), so its bracket is
  not searched: it is the root's bracket mirrored, accepted only when two
  minor signs confirm it (`_RootChain.eigen`).

The two kernels evaluate different formulas of one polynomial:
`_explicit_sum` runs Horner on the Newton form of the explicit sum,
`_eigen_sign` the three-term recurrence of the minors, keeping only its last
two values.  The tests check both against the list-returning reference
`tests/oracle_utils.cleared_values`.  One `_RootChain` per N makes the
brackets of both routes as they are asked for and answers both comparisons;
the functions here and `verify` read it.

All evaluation points are dyadic rationals, so every sign is an exact
integer computation.  Floats only seed root brackets: `exact._root_seed`,
the package's one Laguerre seed, estimates d_k(1) once, when its bracket is
made (a tiny root takes C(N, k) / B0 of its integer bounds instead), and
picks a short dyadic window (`DyadicBracket.narrow`), which is used only
when two exact signs certify it; bisection takes over when they do not, and
no decision reads a float.  Refining the bracket reuses that seed
(`_RootChain.seeds`).  The chain of N starts Laguerre from
the seeds of N - 1 and N - 2 (`_RootChain._seed`): d_k^(N-1)(1) is
provably left of d_k^N(1), and the extrapolation through both is tried
first, so a seed takes about 1.9 float evaluations against 2.7 cold.
A seed that cannot be formed is NaN, and bisection alone encloses the root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial

from .exact import SystemShape, _root_seed
from .intervals import DyadicBracket, Enclosure

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


def _explicit_sum(N: int, k: int, p: int, e: int) -> int:
    """k! 2^(e k) K_k^N(p / 2^e), k >= 1, from the explicit sum.

    K_k(x) = sum_j (-2)^j C(N-j, k-j) C(x, j) is in Newton form on the nodes
    0, 1, ..., k - 1, so Horner's R <- A_j + (x - j) R, from R = A_k down to
    j = 0, gives k! K_k(x), with A_j = (k!/j!) (-2)^j C(N-j, k-j)
    (MacWilliams & Sloane, ch. 5 par. 7).  Cleared of 2^(e (k-j)) it is
    R <- (A_j << e (k-j)) + (p - j 2^e) R.  The loop carries (-1)^j R, so
    each A_j enters as |A_j| = 2^j B_j, B_j = (k!/j!) C(N-j, k-j): B_j is
    formed as it is needed, B_(j+1) (j+1) (N-j) / (k-j) by an exact
    division, and no table of them is kept.
    """
    b, r = 1, 1 << k  # B_k and (-1)^k A_k
    for j in range(k - 1, -1, -1):
        b = b * ((j + 1) * (N - j)) // (k - j)
        r = (b << e * (k - j) + j) + ((j << e) - p) * r
    return r


@lru_cache(maxsize=512)  # one entry per degree k
def _tiny_constants(k: int) -> tuple[int, int, tuple[int, ...]]:
    """L = lcm(1..k), H_{k-1} L and the weights (L // j) 2^j, j = 1..k, of `_tiny_terms`."""
    L = math.lcm(*range(1, k + 1))
    return L, sum(L // i for i in range(1, k)), tuple(L // j << j for j in range(1, k + 1))


@lru_cache(maxsize=1024)  # the brackets of one N and of the next
def _tiny_terms(N: int, k: int) -> tuple[int, int, int, int]:
    """C(N, k), L, B0 L and H_{k-1} L of `_root_sign`, L = lcm(1..k)."""
    L, h, weights = _tiny_constants(k)
    b0, c = 0, 1  # c = C(N-j, k-j)
    for j in range(k, 0, -1):
        b0 += weights[j - 1] * c
        c = c * (N - j + 1) // (k - j + 1)
    return c, L, b0, h


def _root_sign(N: int, k: int):
    """The sign of -K_k^N at p / 2^e (negative left of d_k(1), as brackets want).

    For 0 <= x < 1 the explicit sum K_k(x) = sum_j (-2)^j C(N-j, k-j) C(x, j)
    (MacWilliams & Sloane, ch. 5 par. 7) reads C(N, k) - x B(x), where the
    j-th term of B is 2^j/j C(N-j, k-j) prod_{0<i<j} (1 - x/i) >= 0.  Each
    product lies in [1 - x H_{k-1}, 1] (Weierstrass), so B0 (1 - x H_{k-1})
    <= B(x) <= B0 = B(0): x B0 < C(N, k) proves K_k(x) > 0, and
    x B0 (1 - x H_{k-1}) > C(N, k) proves K_k(x) < 0.  Cleared of L = lcm(1..k)
    and 2^e both are integer comparisons.  Near a root neither holds; there,
    and at x >= 1, the sum itself decides (`_explicit_sum`), so only it
    returns a zero.
    """

    def sign(p: int, e: int) -> int:
        if p >> e == 0:
            c, L, b0, h = _tiny_terms(N, k)
            lhs, rhs = p * b0, c * L << e
            if lhs < rhs:
                return -1
            if lhs * ((L << e) - p * h) > rhs * L << e:
                return 1
        return -_explicit_sum(N, k, p, e)

    return sign


def _eigen_sign(N: int, k: int, p: int, e: int) -> int:
    """An integer with the sign of x - lambda_k at x = p / 2^e, zero at lambda_k.

    The leading minors q_j = det(x I - T_j) obey q_j = x q_{j-1} -
    (j-1)(N-j+2) q_{j-2}, so 2^(j e) q_j is the cleared Krawtchouk value at
    s = p, d = 2^e: q_j = j! K_j((N - x)/2), which at the threshold x = n
    reads j! c_j.  By Sylvester's criterion x > lambda_k exactly when
    q_1..q_k are all positive.  The top eigenvalue of T_{j-1} lies strictly
    below that of T_j, so a non-positive q_j, j < k, puts x below lambda_k,
    and with q_1..q_{k-1} positive q_k has the sign of x - lambda_k.  x is
    taken in lowest terms first, so a point of a coarse grid costs what that
    grid costs: the integer N, where a tiny root's mirrored bracket ends.
    """
    z = min((p & -p).bit_length() - 1, e) if p else e  # x in lowest terms
    p, e2 = p >> z, 2 * (e - z)
    prev, cur = 1, p
    for j in range(1, k):
        if cur <= 0:
            return -1
        prev, cur = cur, p * cur - (j * (N - j + 1) * prev << e2)
    return cur


class _RootChain:
    """The brackets of d_k^N(1) and of lambda_k, each made when first asked for.

    Root brackets are made in order through interlacing: each one's right
    endpoint is certified below d_k(2) when it is made, and bisection or a
    seeded window only moves it left, so it encloses the smallest root and
    no other.  Every root bracket is made at most `DEFAULT_WIDTH` wide, and
    the bracket of lambda_k is made from it (`eigen`).  d_1(1) = N/2 and
    lambda_1 = 0 (the 1 x 1 zero matrix) are points.  Of the chain of N - 1
    only the float seeds of N - 1 and N - 2 are kept (`warm`), so older
    chains can be freed.
    """

    def __init__(self, N: int, previous: _RootChain | None = None):
        self.N = N
        self._brackets: list[DyadicBracket] = []
        self._eigen: dict[int, DyadicBracket] = {}
        # the float seed of each d_k(1), kept to refine; the point d_1(1) has none
        self.seeds: dict[int, float] = {1: math.nan}
        self.warm = (previous.seeds, previous.warm[0]) if previous else ({}, {})

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
        br = self.bracket(k)
        self.bracket(min(k + 1, self.N))
        br.refine(width, self.seeds[k])
        return br

    def eigen(self, k: int) -> DyadicBracket:
        """The bracket of lambda_k: N - 2 bracket(k), checked by two minor signs.

        lambda_k = N - 2 d_k(1), so [N - 2 hi, N - 2 lo] of the root's
        bracket holds it.  Where that is finer than the 2^-21 grid it is
        rounded outward to the grid: a tiny root's bracket reaches exponents
        up to N, and a minor sign there costs as much.  It is kept only if
        `_eigen_sign` is negative at its lower end and positive at its upper
        end, or zero at a point; else route 3 refutes route 2's bracket,
        and AssertionError names the duality gap.  Each end lies within
        2^-21 of N - 2 bracket(k).
        """
        br = self._eigen.get(k)
        if br is None:
            root, N = self.bracket(k), self.N
            shift = max(root.e - 21, 0)  # onto the 2^-21 grid
            lo = ((N << root.e) - 2 * root.num_hi) >> shift  # floor
            hi = -((2 * root.num_lo - (N << root.e)) >> shift)  # ceiling
            sign_at, e = partial(_eigen_sign, N, k), root.e - shift
            if not (sign_at(lo, e) == 0 if lo == hi else sign_at(lo, e) < 0 < sign_at(hi, e)):
                raise AssertionError(f"duality gap at N={N}, k={k}")
            br = self._eigen[k] = DyadicBracket(sign_at, lo, hi, e, exact=lo == hi)
        return br

    def dreg(self, t: int) -> int:
        """The first k whose bracket certifies d_k(1) <= t: d_reg at t = m - n."""
        for k in range(1, self.N + 1):
            if self.bracket(k).compare(t) <= 0:
                return k
        raise AssertionError("accept set cannot extend past degree N")

    def dreg_eigen(self, n: int) -> int:
        """The first k whose bracket certifies lambda_k >= n, n >= 1."""
        for k in range(1, self.N + 1):
            if self.eigen(k).compare(n) >= 0:
                return k
        raise AssertionError("accept set cannot extend past degree N")

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
        seed = self.seeds[k] = self._seed(k, br)
        # A seed inside prev's bracket lies left of d_(k-1)(1) when it is
        # right (d_k(1) < d_(k-1)(1)), so stepping prev carries prev.lo past
        # it and the window below prev.lo can hold it; a wrong seed ends up
        # right of prev.hi, and is refused as before.  seed 2^e is exact and
        # compares exactly with the integer ends; a NaN is inside nothing, and
        # a seed that overflows the float range there is left as it is.  A
        # float has 53 bits, so within about 53 steps it is an end of prev or
        # outside it; the separation loop's budget bounds this loop too.
        e = prev.e
        try:
            while (prev.num_lo < math.ldexp(seed, prev.e) < prev.num_hi
                   and not _past_budget(prev)):
                prev.step()
        except OverflowError:
            pass
        if prev.e != e:
            br = DyadicBracket(sign_at, 0, prev.num_lo, prev.e)
        if not br.narrow(seed, DEFAULT_WIDTH):
            # d_k(1) < d_(k-1)(1), so stepping prev lifts prev.lo past d_k(1)
            # once prev is narrower than their gap.  Over k, the least gap is
            # 26% of min(1, d_(k-1)(1)) at N = 32 and 6.9% at N = 512,
            # shrinking about like N^(-1/2), so a prev narrower than 2^-64
            # min(1, lo) means a wrong kernel, not a narrow gap.  lo > 0
            # never falls, so the loop ends
            while (sign := sign_at(prev.num_lo, prev.e)) < 0:
                if prev.exact:
                    raise AssertionError(
                        "K_k must be negative at the exact previous smallest root"
                    )
                if _past_budget(prev):
                    raise AssertionError(
                        f"N={N}, k={k}: K_k > 0 at the lower end of the bracket of "
                        "d_(k-1)(1), narrower than 2^-64 min(1, lo)"
                    )
                prev.step()
            # If K_k < 0 at prev.lo, the bracket (0, prev.lo) isolates
            # d_k(1); a root of K_k at or below d_{k-1}(1) can only be
            # d_k(1) itself.
            br = DyadicBracket(sign_at, 0 if sign > 0 else prev.num_lo, prev.num_lo,
                               prev.e, exact=sign == 0)
        # lo > 0 certifies 0 < root and leaves bracket k + 1 room below lo
        if not br.exact and br.num_lo == 0:
            for _ in range(_lift_off_steps(N, k, br.num_hi, br.e)):
                br.step()
                if br.exact or br.num_lo:
                    break
            else:
                raise AssertionError(
                    f"N={N}, k={k}: lo stayed 0 past the lift-off bound, "
                    "but K_k > 0 below min(1, C(N, k) / B0)"
                )
        # a no-op where the seeded window was accepted
        br.refine(DEFAULT_WIDTH, seed)
        self._brackets.append(br)

    def _seed(self, k: int, br: DyadicBracket) -> float:
        """Float seed of d_k^N(1) in br: the tiny-root bound, or Laguerre, warm-started.

        Left of 1 the bounds of `_root_sign` put d_k(1) in [r, r / (1 - d H)],
        r = C(N, k) / B0 and H = H_{k-1}: from C(N, k) = d B(d) >=
        d B0 (1 - d H).  Where br.hi < 1 and r H < 2^-20, the relative
        accuracy `_root_seed` stops at, r itself is the seed, with no float
        recurrence: past k = N/2 that recurrence is unstable left of tiny
        roots, and its seeds there could land right of the root (refused
        windows: 493 of 65,280 at N <= 256 with Laguerre there, 1 with r).
        Elsewhere Laguerre runs.  K_k^N = K_k^(N-1) + K_(k-1)^(N-1), and both
        terms are positive left of d_k^(N-1)(1) < d_(k-1)^(N-1)(1), so
        d_k^(N-1)(1) < d_k^N(1): a left start.  Laguerre starts at the
        extrapolation 2 d_k^(N-1) - d_k^(N-2) instead when K_k^N is positive
        there.  The first float evaluation is that test: at or right of
        d_k^N(1) some K_j^N is not positive there, so the seed comes back
        unmoved and Laguerre starts again at d_k^(N-1).  Without warm seeds
        it starts in the bracket.
        """
        if br.num_hi >> br.e == 0:
            c, L, b0, h = _tiny_terms(self.N, k)
            if c * h << 20 < b0:  # r H < 2^-20, in integers
                return c * L / b0  # correctly rounded, and below 1
        last = self.warm[0].get(k)
        if last is None:
            return _root_seed(self.N, k, br.lo, br.hi)
        start = 2 * last - self.warm[1].get(k, last)
        seed = _root_seed(self.N, k, start, br.hi)
        if seed == start != last:
            seed = _root_seed(self.N, k, last, br.hi)
        return seed


def _past_budget(br: DyadicBracket) -> bool:
    """Whether br is narrower than 2^-64 min(1, lo), where `_extend` stops stepping it."""
    return (br.num_hi - br.num_lo) << 64 <= min(br.num_lo, 1 << br.e)


def _lift_off_steps(N: int, k: int, num_hi: int, e: int) -> int:
    """Bisection steps within which a bracket (0, num_hi / 2^e] of d_k(1) lifts lo off 0.

    For 0 <= x < 1, B(x) <= B0 in `_root_sign` gives K_k(x) >= C(N, k) - x B0,
    so d_k(1) >= r = min(1, C(N, k) / B0).  Each step halves hi while lo
    stays 0, and lo leaves 0 at the first step whose midpoint is below the
    root, so within ceil(log2(hi / r)) + 1 steps.
    """
    c, L, b0, _ = _tiny_terms(N, k)
    ratio = -(-num_hi * max(b0, c * L) // (c * L << e))  # ceil(hi / r)
    return (ratio - 1).bit_length() + 1


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


def largest_eigenvalue(N: int, k: int, width: Fraction | float = DEFAULT_WIDTH) -> Enclosure:
    """Certified enclosure of the largest eigenvalue lambda_k, 1 <= k <= N, width <= width.

    An exact rational eigenvalue hit (for instance lambda_1 = 0) collapses to
    a point enclosure.  The bracket is made from those of d_1(1)..d_k(1)
    (`_RootChain.eigen`) and bisected to `width`, so a coarser `width` gets
    the bracket as made.
    """
    br = _RootChain(N).eigen(k)
    br.refine(width)
    return br.enclosure()


def _chain(shape: SystemShape, ceiling: int) -> _RootChain:
    if shape.N > ceiling:
        raise ValueError(f"N={shape.N} exceeds the cross-validation ceiling {ceiling}")
    return _RootChain(shape.N)


def dreg_via_roots(shape: SystemShape, ceiling: int = CROSS_VALIDATION_CEILING) -> int:
    """Degree of regularity recovered from certified smallest-root enclosures.

    Walks k = 1, 2, ... while the bracket of d_k(1) certifies d_k(1) > t,
    t = m - n.  The bracket, at most DEFAULT_WIDTH wide, decides; only when t
    lies strictly inside it does the exact sign at t settle the side, and a
    zero there is the tie d_k(1) = t, which the strict comparison excludes.
    """
    return _chain(shape, ceiling).dreg(shape.t)


def dreg_via_eigenvalues(shape: SystemShape, ceiling: int = CROSS_VALIDATION_CEILING) -> int:
    """Degree of regularity recovered from the Golub-Kahan eigenvalue test.

    Walks k = 1, 2, ... while the bracket of lambda_k certifies lambda_k < n
    (lambda_1 = 0 < n always).  The bracket, that of d_k(1) mirrored by
    x -> N - 2x and checked by two eigen signs, decides, and only when n lies
    strictly inside it does the eigen sign at n settle the side.  A zero
    there is the tie lambda_k = n, which the strict inequality excludes.
    """
    return _chain(shape, ceiling).dreg_eigen(shape.n)
