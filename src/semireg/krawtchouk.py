"""Binary Krawtchouk polynomial evaluation and its classical identities.

K_k^N is the discrete orthogonal polynomial of degree k associated to the
binomial distribution on {0, ..., N} with alphabet parameter 2.  Evaluation
goes through the three-term recurrence

    (k+1) K_{k+1}(t) = (N - 2t) K_k(t) - (N - k + 1) K_{k-1}(t),

seeded with K_0 = 1 and K_1 = N - 2t.  Exact evaluation has two integer
kernels: `exact.krawtchouk_stream` divides as it goes and yields the values
at integer points (`integer_values`, the Hilbert-series coefficients);
`cleared_values` clears factorials and denominators and serves rational
points.  The root and eigenvalue signs of `roots` run the recurrence of
`cleared_values` at d = 2^e in a loop that keeps only the last two values,
and the tests check them against it.  The degree of regularity reads only
signs, from `exact._sign_stream`, cleared too.  The one float recurrence is
`exact._krawtchouk_ratios`, divided by C(N, j) and rescaled by powers of
two, which only seeds Laguerre's method.  The explicit sum
K_k(x) = sum_j (-2)^j C(N-j, k-j) C(x, j) decides signs in production too:
left of x = 1, `roots._root_sign` bounds it from both sides in integers and
needs the recurrence only near a root.  In integers its cancellation costs
bits, not accuracy.  Tests evaluate the whole sum as an oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import add

from .exact import SystemShape, krawtchouk_stream

__all__ = [
    "KrawtchoukParams",
    "cleared_values",
    "eval_exact",
    "eval_integer",
    "integer_values",
    "gf_identity_check",
]


class KrawtchoukParams(namedtuple("KrawtchoukParams", "N k")):
    """Family size N and degree k, with the alphabet parameter pinned to 2."""

    __slots__ = ()

    def __new__(cls, N: int, k: int) -> "KrawtchoukParams":
        if N < 1:
            raise ValueError(f"requires N >= 1; got N={N}")
        if not 0 <= k <= N:
            raise ValueError(f"requires 0 <= k <= N; got k={k}, N={N}")
        return super().__new__(cls, N, k)


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


def eval_exact(params: KrawtchoukParams, t: Fraction | int) -> Fraction:
    """K_k^N(t) in exact rational arithmetic."""
    t = Fraction(t)
    d, k = t.denominator, params.k
    b_k = cleared_values(params.N, d * params.N - 2 * t.numerator, d * d, k)[k]
    return Fraction(b_k, math.factorial(k) * d ** k)


def integer_values(N: int, t: int, k_max: int) -> list[int]:
    """[K_0^N(t), ..., K_{k_max}^N(t)] for integer t, pure integer arithmetic."""
    if k_max < 0 or k_max > N:
        raise ValueError(f"requires 0 <= k_max <= N; got k_max={k_max}, N={N}")
    return list(islice(krawtchouk_stream(N, N - 2 * t), k_max + 1))


def eval_integer(N: int, k: int, t: int) -> int:
    """K_k^N(t) for integer t as an exact integer."""
    return integer_values(N, t, k)[k]


def gf_identity_check(m: int, n: int, up_to: int) -> bool:
    """Do the generating-function coefficients match the Krawtchouk values?

    True iff [z^k](1-z)^(m-n)(1+z)^m == K_k^{2m-n}(m-n) for all k <= up_to.
    The left side is the binomial product (1-z^2)^(m-n) (1+z)^n that
    `_gf_products` steps to, with no recurrence, so the check is independent
    of `krawtchouk_stream`.
    """
    shape = SystemShape(m, n)
    if up_to > shape.N:
        raise ValueError(f"requires up_to <= N={shape.N}; got {up_to}")
    product = next(coeffs for k, coeffs in _gf_products(shape.N) if k == n)
    return product[:up_to + 1] == integer_values(shape.N, shape.t, up_to)


def _gf_products(N: int) -> Iterator[tuple[int, list[int]]]:
    """(n, the N + 1 coefficients of (1-z^2)^t (1+z)^n) for every shape with 2m - n = N.

    n = N - 2t runs up from 1 or 2 to N - 2 (t = m - n >= 1).  The first
    product is built from binomials; each next one is the last times
    (1+z) / (1-z): the sums of adjacent coefficients, then their running
    sums.  Every product has degree N, so keeping N + 1 coefficients loses
    nothing, and no recurrence is read.
    """
    first = 2 - N % 2  # the smallest n at N
    t = (N - first) // 2
    coeffs = [0] * (N + 1)
    coeffs[:2 * t + 1:2] = [(-1) ** j * math.comb(t, j) for j in range(t + 1)]
    for _ in range(first):
        coeffs = list(_times_one_plus_z(coeffs))
    for n in range(first, N - 1, 2):
        if n > first:
            coeffs = list(accumulate(_times_one_plus_z(coeffs)))
        yield n, coeffs


def _times_one_plus_z(coeffs: list[int]) -> Iterator[int]:
    """The first len(coeffs) coefficients of the product with 1 + z."""
    return map(add, coeffs, chain((0,), coeffs))
