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

__all__ = [
    "SystemShape",
    "CoefficientSeries",
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


class CoefficientSeries:
    """Lazily extended coefficients c_k = [z^k] (1-z)^(m-n) (1+z)^m.

    Uses the three-term degree recurrence (with the alphabet parameter fixed
    at 2 and the evaluation point at t = m - n, so N - 2t = n):

        (k+1) c_{k+1} = n * c_k - (N - k + 1) * c_{k-1}

    Every division is checked to be exact; a non-zero remainder would mean
    the recurrence was seeded or indexed wrongly.

    The internal cache is not synchronized: share an instance across threads
    only with external locking.  The module-level functions build a fresh
    series per call and are therefore safe to call concurrently.
    """

    def __init__(self, shape: SystemShape):
        self.shape = shape
        self._c: list[int] = [1, shape.n]  # c_0 = 1, c_1 = n

    def coefficient(self, k: int) -> int:
        if k < 0 or k > self.shape.N:
            raise ValueError(
                f"coefficient index k={k} outside [0, N={self.shape.N}]"
            )
        self._extend_to(k)
        return self._c[k]

    def _extend_to(self, k: int) -> None:
        n, N = self.shape.n, self.shape.N
        c = self._c
        while len(c) <= k:
            j = len(c) - 1  # producing c_{j+1}
            num = n * c[j] - (N - j + 1) * c[j - 1]
            q, r = divmod(num, j + 1)
            if r:
                raise AssertionError(f"recurrence division not exact at k={j + 1}")
            c.append(q)

    def positive_prefix(self) -> list[int]:
        """The maximal prefix c_0, ..., c_d with every entry strictly > 0."""
        n, N = self.shape.n, self.shape.N
        self._extend_to(min(2, N))
        out = []
        for k in range(N + 1):
            self._extend_to(k)
            if self._c[k] <= 0:
                return out
            out.append(self._c[k])
        # The coefficients sum to (1-1)^t (1+1)^m = 0 with c_0 = 1 > 0, so a
        # non-positive entry exists among k <= N.
        raise AssertionError("no non-positive coefficient found up to degree N")


def coefficient(shape: SystemShape, k: int) -> int:
    """k-th coefficient of (1-z)^(m-n) (1+z)^m, exact."""
    return CoefficientSeries(shape).coefficient(k)


def hilbert_truncation(shape: SystemShape) -> list[int]:
    """Coefficients of the truncated Hilbert series (all strictly positive)."""
    return CoefficientSeries(shape).positive_prefix()


def degree_of_regularity_exact(shape: SystemShape) -> int:
    """Index of the first non-positive coefficient, i.e. 1 + deg HS(z).

    Streaming scan with O(1) memory; the big table rows keep only the two
    live coefficients (tens of kilobits each) instead of the whole prefix.
    """
    n, N = shape.n, shape.N
    prev, cur = 1, n
    k = 1
    while cur > 0:
        num = n * cur - (N - k + 1) * prev
        q, r = divmod(num, k + 1)
        if r:
            raise AssertionError(f"recurrence division not exact at k={k + 1}")
        prev, cur = cur, q
        k += 1
        if k > N:
            raise AssertionError("no non-positive coefficient found up to degree N")
    return k


def f5_cost_log2(shape: SystemShape, dreg: int, omega: float = 2.373) -> float:
    """log2 of the Groebner-basis cost bound m * dreg * C(n+dreg-1, dreg)^omega.

    The binomial is evaluated exactly before taking logarithms, so the result
    is accurate to float rounding even when the binomial has thousands of bits.
    """
    if dreg < 1:
        raise ValueError(f"requires dreg >= 1; got {dreg}")
    c = binomial(shape.n + dreg - 1, dreg)
    return math.log2(shape.m) + math.log2(dreg) + omega * math.log2(c)
