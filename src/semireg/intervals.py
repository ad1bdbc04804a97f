"""Rational enclosures: directed integer roots, and the searches that find them.

Everything here manipulates pairs of exact rationals [lo, hi] guaranteed to
contain the target real number.  Widths shrink as the `bits` argument grows;
nothing is ever rounded in an uncontrolled direction.  Every certified root
is located by DyadicBracket, every edge of a monotone integer predicate by
`integer_bisect`, cold, or by `integer_gallop` from a caller's start, which
then bisects with `integer_bisect`.  A start only picks where the search
looks, and a float enters only as a guess, which `DyadicBracket.narrow`
tries as a window and two exact signs accept or refuse.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

__all__ = ["iroot", "integer_bisect", "integer_gallop", "Enclosure", "DyadicBracket",
           "positive_width", "sqrt_enclosure", "nth_root_enclosure"]


def iroot(x: int, r: int) -> int:
    """Floor a of the r-th root of a non-negative integer (Newton on integers).

    The step g -> floor(((r - 1) g + floor(x / g^(r-1))) / r) equals the
    floor of the real Newton step ((r - 1) g + x / g^(r-1)) / r, which by
    AM-GM is at least x^(1/r): no iterate drops below a.  While g > a,
    g^r > x makes the real step less than g, so the next iterate is smaller.
    The seed 2^ceil(bits(x) / r) exceeds x^(1/r), so the iterates fall
    strictly and the first that does not fall is a itself.
    """
    if x < 0:
        raise ValueError("iroot requires x >= 0")
    if r < 1:
        raise ValueError("iroot requires r >= 1")
    if x in (0, 1) or r == 1:
        return x
    if r == 2:
        return math.isqrt(x)
    guess = 1 << -(-x.bit_length() // r)
    while True:
        nxt = ((r - 1) * guess + x // guess ** (r - 1)) // r
        if nxt >= guess:
            return guess
        guess = nxt


def integer_bisect(lo: int, hi: int, accepts: Callable[[int], bool]) -> int:
    """The least x in (lo, hi] that a monotone predicate `accepts` takes.

    `accepts` must refuse lo and take hi; neither end is evaluated, and each
    probe is the midpoint rounded down.  A loop, since `bisect` takes the
    len() of a range, which overflows past sys.maxsize.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if accepts(mid):
            hi = mid
        else:
            lo = mid
    return hi


def integer_gallop(lo: int, hi: int, accepts: Callable[[int], bool], start: int) -> int:
    """The least x in (lo, hi] that a monotone predicate `accepts` takes, from `start`.

    As for `integer_bisect`, `accepts` must refuse lo and take hi, and lo is
    never evaluated.  The search probes `start`, clamped into (lo, hi] (so
    hi is evaluated only when start clamps to it), then gallops away
    from it to start -+ 1, 2, 4, ..., each offset measured from start,
    while the answer lies further out, and bisects the last gap.  A start
    at the answer or just below it costs at most 2 probes.  One j >= 1
    places below answer - 1, or above the answer, with 2^(i-1) <= j < 2^i,
    costs 1 + (i + 1) + (i - 1) = 2 i + 1 <= 3 + 2 log2 j: the gallop
    probes the offsets 1, ..., 2^i, the last on the far side of the
    answer, and leaves a gap of 2^(i-1) that bisection closes in i - 1
    probes.  The ends of the range only cut the gallop short.
    """
    x = min(max(start, lo + 1), hi)
    step = 1
    if accepts(x):
        hi = x
        while x - step > lo and accepts(x - step):
            hi, step = x - step, 2 * step
        lo = max(lo, x - step)
    else:
        lo = x
        while x + step < hi and not accepts(x + step):
            lo, step = x + step, 2 * step
        hi = min(hi, x + step)
    return integer_bisect(lo, hi, accepts)


class Enclosure(namedtuple("Enclosure", "lo hi")):
    """Closed rational interval [lo, hi] certified to contain a real value."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction) -> "Enclosure":
        if lo > hi:
            raise ValueError(f"empty enclosure: lo={lo} > hi={hi}")
        return super().__new__(cls, lo, hi)

    # a tuple's + and * concatenate and repeat; an enclosure has no algebra
    def __add__(self, other: object) -> object:
        return NotImplemented

    __mul__ = __rmul__ = __add__

    @classmethod
    def point(cls, q: Fraction | int) -> "Enclosure":
        q = Fraction(q)
        return cls(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


class DyadicBracket:
    """Sign-change bracket [num_lo, num_hi] / 2^e of an exact integer sign.

    sign_at(p, e) returns an integer with the exact sign of the target
    function at p / 2^e (only its sign is read); the target must be negative
    at lo and positive at hi.  Each step evaluates the midpoint and keeps the
    half that still changes sign.  A zero sign at a midpoint is an exact
    root: the bracket collapses to that point and `exact` is set.
    """

    __slots__ = ("sign_at", "num_lo", "num_hi", "e", "exact")

    def __init__(self, sign_at: Callable[[int, int], int], num_lo: int,
                 num_hi: int, e: int, exact: bool = False):
        self.sign_at = sign_at
        self.num_lo = num_lo
        self.num_hi = num_hi
        self.e = e
        self.exact = exact

    @property
    def lo(self) -> Fraction:
        return Fraction(self.num_lo, 1 << self.e)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.num_hi, 1 << self.e)

    def enclosure(self) -> Enclosure:
        return Enclosure(self.lo, self.hi)

    def _steps_to(self, width: Fraction) -> int:
        """Bisection steps until the width is at most `width` (0 if it already is).

        A step keeps num_hi - num_lo and raises e by one, so the count is
        known before any step: the least s >= 0 with
        (num_hi - num_lo) den <= num 2^(e + s), for width = num / den.
        """
        a = (self.num_hi - self.num_lo) * width.denominator
        b = width.numerator << self.e
        s = max(a.bit_length() - b.bit_length(), 0)
        return s + (a > b << s)

    def _cut(self, num: int, sign: int) -> None:
        """Move an endpoint to num / 2^e, a point where the target has `sign`."""
        if sign == 0:
            self.num_lo = self.num_hi = num
            self.exact = True
        elif sign < 0:
            self.num_lo = num
        else:
            self.num_hi = num

    def step(self) -> None:
        if self.exact:
            return
        mid = self.num_lo + self.num_hi  # numerator at exponent e + 1
        sign = self.sign_at(mid, self.e + 1)
        self.num_lo *= 2
        self.num_hi *= 2
        self.e += 1
        self._cut(mid, sign)

    def refine(self, width: Fraction | float, guess: float = math.nan) -> None:
        """Narrow until the width is at most `width` or the root is hit.

        `width` is taken exactly as a Fraction and must be positive.  While
        the bracket is wider than `width`, the float `guess` is tried first
        through `narrow`; a refused guess (NaN, the default, always is)
        leaves the work to bisection, whose step count `_steps_to` reads off
        the bracket once.
        """
        width = positive_width(width)
        steps = self._steps_to(width)
        if steps and self.narrow(guess, width):
            steps = self._steps_to(width)
        for _ in range(steps):
            self.step()

    def narrow(self, guess: float, width: Fraction) -> bool:
        """Jump to the dyadic window of width <= `width` holding a float guess.

        The window [a, a + 1] / 2^f, a = floor(guess 2^f), is accepted only
        when it lies inside the bracket and sign_at is exactly negative at its
        lo and positive at its hi; a zero at either end is an exact root and
        collapses the bracket onto it.  Otherwise the bracket is left
        untouched and False is returned, so the caller falls back to `step`:
        the float only seeds the bracket, the two exact signs decide it.  A
        non-finite guess, or a window outside the bracket, is rejected
        without evaluating.
        """
        if self.exact or not math.isfinite(guess):
            return False
        # the smallest f >= e with 2^-f <= width
        e = max(self.e, ((width.denominator - 1) // width.numerator).bit_length())
        num, den = guess.as_integer_ratio()
        lo = (num << e) // den
        shift = e - self.e
        if not self.num_lo << shift <= lo < self.num_hi << shift:
            return False
        sign_lo = self.sign_at(lo, e)
        if sign_lo > 0:
            return False
        sign_hi = 0 if sign_lo == 0 else self.sign_at(lo + 1, e)
        if sign_hi < 0:
            return False
        self.num_lo, self.num_hi, self.e = lo, lo + 1, e
        if sign_lo == 0:
            self._cut(lo, 0)
        elif sign_hi == 0:
            self._cut(lo + 1, 0)
        return True

    def compare(self, x: int) -> int:
        """Sign of (root - x) for an integer x, certified by the bracket.

        An x strictly inside the bracket is cut by its own exact sign: an
        endpoint moves onto x, and a zero is the tie root == x.  sign_at is
        only ever called inside the bracket.
        """
        x_num = x << self.e
        if self.num_lo < x_num < self.num_hi:
            self._cut(x_num, self.sign_at(x, 0))
        if self.exact:
            root = self.num_lo - x_num
            return (root > 0) - (root < 0)
        return 1 if x_num <= self.num_lo else -1


def positive_width(width: Fraction | float) -> Fraction:
    """`width` taken exactly as a Fraction; ValueError unless it is positive and finite."""
    if not isinstance(width, Fraction):
        try:
            width = Fraction(width)
        except (OverflowError, ValueError):  # +-inf, NaN
            raise ValueError(f"requires a positive width; got {width}") from None
    if width.numerator <= 0:
        raise ValueError(f"requires a positive width; got {width}")
    return width


def sqrt_enclosure(x: Fraction | int, bits: int) -> Enclosure:
    """Dyadic enclosure of sqrt(x) of width at most 2^-bits, x >= 0."""
    return nth_root_enclosure(x, 2, bits)


def nth_root_enclosure(x: Fraction | int, r: int, bits: int) -> Enclosure:
    """Dyadic enclosure of x^(1/r) of width at most 2^-bits.

    Requires x >= 0.  With scale = 2^bits and b = iroot(floor(x * scale^r), r)
    the bracket [b/scale, (b+1)/scale] always contains the root:
    b^r <= x*scale^r by construction, and (b+1)^r > floor(x*scale^r) forces
    (b+1)^r > x*scale^r because both sides of the strict comparison are
    integers.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"root of negative value {x}")
    scale = 1 << bits
    scaled = x * scale ** r
    b = iroot(scaled.numerator // scaled.denominator, r)
    lo = Fraction(b, scale)
    if lo ** r == x:
        return Enclosure.point(lo)
    return Enclosure(lo, Fraction(b + 1, scale))
