"""Binary Krawtchouk polynomial evaluation and its classical identities.

K_k^N is the discrete orthogonal polynomial of degree k associated to the
binomial distribution on {0, ..., N} with alphabet parameter 2.  Evaluation
goes through the three-term recurrence

    (k+1) K_{k+1}(t) = (N - 2t) K_k(t) - (N - k + 1) K_{k-1}(t),

seeded with K_0 = 1 and K_1 = N - 2t.  The explicit alternating sum is kept
out of production on purpose (it cancels catastrophically); tests use it as
an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .exact import SystemShape, binomial, CoefficientSeries

__all__ = [
    "KrawtchoukParams",
    "eval_exact",
    "eval_real",
    "eval_integer",
    "integer_values",
    "gf_identity_check",
    "orthogonality_check",
]


@dataclass(frozen=True)
class KrawtchoukParams:
    """Family size N and degree k, with the alphabet parameter pinned to 2."""

    N: int
    k: int
    r: ClassVar[int] = 2

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"requires N >= 1; got N={self.N}")
        if not 0 <= self.k <= self.N:
            raise ValueError(f"requires 0 <= k <= N; got k={self.k}, N={self.N}")


def eval_exact(params: KrawtchoukParams, t: Fraction | int) -> Fraction:
    """K_k^N(t) in exact rational arithmetic."""
    t = Fraction(t)
    N = params.N
    prev, cur = Fraction(1), N - 2 * t
    if params.k == 0:
        return prev
    for j in range(1, params.k):
        prev, cur = cur, ((N - 2 * t) * cur - (N - j + 1) * prev) / (j + 1)
    return cur


def eval_real(params: KrawtchoukParams, t: float) -> float:
    """Floating-point K_k^N(t); diagnostics and plotting only, never certification.

    The forward recurrence keeps the absolute error within a few ulps of the
    largest intermediate value, so the relative error degrades near roots and
    in the alternating tail where the value is tiny against its neighbours.
    """
    N = params.N
    prev, cur = 1.0, float(N) - 2.0 * t
    if params.k == 0:
        return prev
    for j in range(1, params.k):
        prev, cur = cur, ((N - 2 * t) * cur - (N - j + 1) * prev) / (j + 1)
    return cur


def integer_values(N: int, t: int, k_max: int) -> list[int]:
    """[K_0^N(t), ..., K_{k_max}^N(t)] for integer t, pure integer arithmetic.

    Runs the factorial-cleared recurrence A_{j+1} = (N-2t) A_j - j(N-j+1) A_{j-1}
    with A_j = j! * K_j(t), then divides out j! (always exact).
    """
    if k_max < 0 or k_max > N:
        raise ValueError(f"requires 0 <= k_max <= N; got k_max={k_max}, N={N}")
    s = N - 2 * t
    vals = [1]
    if k_max == 0:
        return vals
    a_prev, a_cur = 1, s  # A_0, A_1
    fact = 1
    for j in range(1, k_max + 1):
        fact *= j
        q, rem = divmod(a_cur, fact)
        if rem:
            raise AssertionError("factorial-cleared recurrence not divisible")
        vals.append(q)
        a_prev, a_cur = a_cur, s * a_cur - j * (N - j + 1) * a_prev
    return vals


def eval_integer(N: int, k: int, t: int) -> int:
    """K_k^N(t) for integer t as an exact integer."""
    return integer_values(N, t, k)[k]


def gf_identity_check(m: int, n: int, up_to: int) -> bool:
    """Do the generating-function coefficients match the Krawtchouk values?

    True iff [z^k](1-z)^(m-n)(1+z)^m == K_k^{2m-n}(m-n) for all k <= up_to.
    """
    shape = SystemShape(m, n)
    if up_to > shape.N:
        raise ValueError(f"requires up_to <= N={shape.N}; got {up_to}")
    series = CoefficientSeries(shape)
    values = integer_values(shape.N, shape.t, up_to)
    return all(series.coefficient(k) == values[k] for k in range(up_to + 1))


def orthogonality_check(N: int, l: int, k: int) -> bool:
    """Exact check of sum_i K_l(i) K_k(i) C(N,i) == 2^N C(N,l) [l == k]."""
    if not (0 <= l <= N and 0 <= k <= N):
        raise ValueError(f"requires 0 <= l, k <= N; got l={l}, k={k}, N={N}")
    top = max(l, k)
    total = 0
    for i in range(N + 1):
        vals = integer_values(N, i, top)
        total += vals[l] * vals[k] * binomial(N, i)
    expected = (1 << N) * binomial(N, l) if l == k else 0
    return total == expected
