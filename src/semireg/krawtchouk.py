"""Binary Krawtchouk polynomial evaluation and its classical identities.

K_k^N is the discrete orthogonal polynomial of degree k associated to the
binomial distribution on {0, ..., N} with alphabet parameter 2.  Evaluation
goes through the three-term recurrence

    (k+1) K_{k+1}(t) = (N - 2t) K_k(t) - (N - k + 1) K_{k-1}(t),

seeded with K_0 = 1 and K_1 = N - 2t.  Values are exact integers at integer
points only: `exact.krawtchouk_stream` divides as it goes and yields them
(`integer_values`, the Hilbert-series coefficients).  The other kernels
read signs.  The degree of regularity reads them from `exact._sign_scan`,
which steps the cleared recurrence two degrees at a time and reads the
even degrees alone; the roots and eigenvalues of `roots` from
`_sign_at_dyadic` and `_eigen_sign`, which run the recurrence cleared of
factorials and denominators at d = 2^e, keeping only the last two values.
The tests check them against a list-returning reference,
`tests/oracle_utils.cleared_values`.
The one float recurrence is `exact._krawtchouk_ratios`, divided by C(N, j)
and rescaled by powers of two, which only seeds Laguerre's method.  The
explicit sum K_k(x) = sum_j (-2)^j C(N-j, k-j) C(x, j) decides signs in
production too: left of x = 1, `roots._root_sign` bounds it from both sides
in integers and needs the recurrence only near a root.  In integers its
cancellation costs bits, not accuracy.  Tests evaluate the whole sum as an
oracle.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import accumulate, chain, islice
from operator import add

from .exact import SystemShape, krawtchouk_stream

__all__ = [
    "eval_integer",
    "integer_values",
    "gf_identity_check",
]


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
