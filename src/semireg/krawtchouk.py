"""Binary Krawtchouk polynomial evaluation and its classical identities.

K_k^N is the discrete orthogonal polynomial of degree k associated to the
binomial distribution on {0, ..., N} with alphabet parameter 2.  Evaluation
goes through the three-term recurrence

    (k+1) K_{k+1}(t) = (N - 2t) K_k(t) - (N - k + 1) K_{k-1}(t),

seeded with K_0 = 1 and K_1 = N - 2t.  Exact evaluation has two integer
kernels: `exact.krawtchouk_stream` divides as it goes and serves integer
points; `cleared_values` clears factorials and denominators and serves
rational points, root signs and Sturm counts.  The one float recurrence is
`roots._krawtchouk_slope`, which only seeds.  The explicit alternating sum
is kept out of production on purpose (it cancels catastrophically); tests
use it as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul

from .exact import SystemShape, binomial, krawtchouk_stream

__all__ = [
    "KrawtchoukParams",
    "cleared_values",
    "eval_exact",
    "eval_integer",
    "integer_values",
    "gf_identity_check",
]


@dataclass(frozen=True)
class KrawtchoukParams:
    """Family size N and degree k, with the alphabet parameter pinned to 2."""

    N: int
    k: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"requires N >= 1; got N={self.N}")
        if not 0 <= self.k <= self.N:
            raise ValueError(f"requires 0 <= k <= N; got k={self.k}, N={self.N}")


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
    The left side is expanded as the binomial product (1-z^2)^(m-n) (1+z)^n,
    with no recurrence, so the check is independent of `krawtchouk_stream`.
    """
    shape = SystemShape(m, n)
    if up_to > shape.N:
        raise ValueError(f"requires up_to <= N={shape.N}; got {up_to}")
    t = shape.t
    even = [(-1) ** i * binomial(t, i) for i in range(t + 1)]  # (1-z^2)^t
    plain = [binomial(n, j) for j in range(up_to + 1)]  # (1+z)^n
    series = [sum(map(mul, even, plain[k::-2])) for k in range(up_to + 1)]
    return series == integer_values(shape.N, t, up_to)

