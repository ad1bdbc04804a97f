"""Rational enclosures: directed integer roots and the two bisection loops.

Everything here manipulates pairs of exact rationals [lo, hi] guaranteed to
contain the target real number.  Widths shrink as the `bits` argument grows;
nothing is ever rounded in an uncontrolled direction.  Every certified root
is located by DyadicBracket, every edge of a monotone integer predicate by
`integer_bisect`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

__all__ = ["iroot", "integer_bisect", "Enclosure", "DyadicBracket", "positive_width",
           "newton_seed", "sqrt_enclosure", "nth_root_enclosure"]


def iroot(x: int, r: int) -> int:
    """Floor of the r-th root of a non-negative integer (Newton on integers)."""
    if x < 0:
        raise ValueError("iroot requires x >= 0")
    if r < 1:
        raise ValueError("iroot requires r >= 1")
    if x in (0, 1) or r == 1:
        return x
    if r == 2:
        return math.isqrt(x)
    # Seed above the true root, then Newton descends monotonically.
    guess = 1 << -(-x.bit_length() // r)
    while True:
        nxt = ((r - 1) * guess + x // guess ** (r - 1)) // r
        if nxt >= guess:
            break
        guess = nxt
    while guess ** r > x:
        guess -= 1
    return guess


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


@dataclass(frozen=True)
class Enclosure:
    """Closed rational interval [lo, hi] certified to contain a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo={self.lo} > hi={self.hi}")

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

    def _width_sign(self, width: Fraction) -> int:
        """Sign of (hi - lo - width), compared in integers."""
        a = (self.num_hi - self.num_lo) * width.denominator
        b = width.numerator << self.e
        return (a > b) - (a < b)

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

    def refine(self, width: Fraction | float,
               seed: Callable[[], float] | None = None) -> None:
        """Narrow until the width is at most `width` or the root is hit.

        `width` is taken exactly as a Fraction and must be positive.  While
        the bracket is wider than `width`, the float guess of `seed()` is
        tried first through `narrow`; a refused guess, or a seed that fails
        in float arithmetic, leaves the work to bisection, whose step count
        `_steps_to` reads off the bracket once.
        """
        width = positive_width(width)
        steps = self._steps_to(width)
        if steps and seed is not None:
            try:
                guess = seed()
            except (ArithmeticError, ValueError):
                guess = math.nan
            if self.narrow(guess, width):
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
        if not self.num_lo << shift <= lo < lo + 1 <= self.num_hi << shift:
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

    def compare(self, x: int, width: Fraction) -> int:
        """Sign of (root - x) for an integer x, certified by the bracket.

        Bisects while x lies strictly inside a bracket wider than `width`.
        If x is still inside after that, x itself becomes the bisection
        point: its exact sign moves an endpoint onto x, and a zero is the
        tie root == x.  sign_at is only ever called inside the bracket.
        """
        while not self.exact:
            x_num = x << self.e
            if x_num <= self.num_lo:
                return 1
            if x_num >= self.num_hi:
                return -1
            if self._width_sign(width) > 0:
                self.step()
            else:
                self._cut(x_num, self.sign_at(x, 0))
        root = self.num_lo - (x << self.e)
        return (root > 0) - (root < 0)


def positive_width(width: Fraction | float) -> Fraction:
    """`width` taken exactly as a Fraction; ValueError unless it is positive."""
    if not isinstance(width, Fraction):
        width = Fraction(width)
    if width.numerator <= 0:
        raise ValueError(f"requires a positive width; got {width}")
    return width


_NEWTON_STOP = 2.0 ** -40


def newton_seed(f: Callable[[float], tuple[float, float]], x: float,
                direction: int) -> float:
    """Float Newton iterates of f from x, moving in `direction` (+1 up, -1 down).

    f(x) returns (value, slope).  Started on the side of a root where the
    iterates approach it monotonically, each step -value/slope moves x toward
    the root and shrinks; iteration stops at the first step that does not
    move in `direction` or does not shrink, where rounding has taken over,
    and right after a step of at most 2^-40 max(1, |x|): Newton converges
    quadratically there, so a further step would move x by about the square
    of that on the same scale, below a float's rounding.  Only a seed:
    nothing is decided from this value.
    """
    size = math.inf
    while True:
        value, slope = f(x)
        if not slope:
            return x
        step = -value / slope
        if not 0 < direction * step < size:
            return x
        size = direction * step
        x += step
        if size <= _NEWTON_STOP * max(1.0, abs(x)):
            return x


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
