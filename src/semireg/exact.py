"""Exact big-integer combinatorics and the ground-truth degree of regularity.

For an overdetermined homogeneous quadratic semi-regular system with m
equations in n variables the Hilbert series of the quotient algebra is the
truncation of

    (1 - z)^(m-n) * (1 + z)^m

at its first non-positive coefficient, and the degree of regularity is the
index of that coefficient.  Everything in this module is computed with exact
integer arithmetic; there is no floating point on any code path that decides
a truncation index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator

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


# Cache only small arguments; table sweeps reuse those heavily while huge
# binomials are one-shot and would bloat the cache.
_CACHE_ARG_LIMIT = 4096


@lru_cache(maxsize=1 << 16)
def _comb_small(a: int, b: int) -> int:
    return math.comb(a, b)


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b); 0 whenever b lies outside [0, a]."""
    if a < 0:
        raise ValueError(f"binomial requires a >= 0; got a={a}")
    if b < 0 or b > a:
        return 0
    if a <= _CACHE_ARG_LIMIT:
        return _comb_small(a, b)
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

    Streaming scan with O(1) memory; the big table rows keep only the two
    live coefficients (tens of kilobits each) instead of the whole prefix.
    """
    for k, c in enumerate(krawtchouk_stream(shape.N, shape.n)):
        if c <= 0:
            return k
    raise AssertionError("no non-positive coefficient found up to degree N")


def f5_cost_log2(shape: SystemShape, dreg: int, omega: float = 2.373) -> float:
    """log2 of the Groebner-basis cost bound m * dreg * C(n+dreg-1, dreg)^omega.

    The binomial is evaluated exactly before taking logarithms, so the result
    is accurate to float rounding even when the binomial has thousands of bits.
    """
    if dreg < 1:
        raise ValueError(f"requires dreg >= 1; got {dreg}")
    c = binomial(shape.n + dreg - 1, dreg)
    return math.log2(shape.m) + math.log2(dreg) + omega * math.log2(c)
