"""Independent oracles used across the test suite.

Each function here recomputes a quantity by a different route than the
production code: brute-force polynomial expansion, Pascal's triangle,
the explicit alternating sum, the general-alphabet recurrence, rational
bisection.  They exist so expected values in tests are never produced by the
code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

import semireg.verify
from semireg.roots import dreg_via_eigenvalues, dreg_via_roots
from semireg.verify import CheckResult, enumerate_shapes


def pascal_binomial(a: int, b: int) -> int:
    """C(a, b) from Pascal's triangle, no multiplication."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def expand_product(t: int, m: int) -> list[int]:
    """Coefficients of (1 - z)^t (1 + z)^m by repeated polynomial multiplication."""
    coeffs = [1]
    for _ in range(t):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c
        coeffs = nxt
    for _ in range(m):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += c
        coeffs = nxt
    return coeffs


def convolution_coefficient(m: int, n: int, k: int) -> int:
    """c_k = sum_j (-1)^j C(m-n, j) C(m, k-j), the explicit alternating sum."""
    t = m - n
    total = 0
    for j in range(0, min(k, t) + 1):
        term = math.comb(t, j) * math.comb(m, k - j)
        total += -term if j & 1 else term
    return total


def generalized_binomial(x: Fraction, j: int) -> Fraction:
    """C(x, j) = x (x-1) ... (x-j+1) / j! for rational x."""
    num = Fraction(1)
    for i in range(j):
        num *= x - i
    return num / math.factorial(j)


def alternating_sum_value(N: int, k: int, t: Fraction, r: int = 2) -> Fraction:
    """The defining alternating sum of the degree-k polynomial at rational t."""
    t = Fraction(t)
    total = Fraction(0)
    for j in range(k + 1):
        term = ((r - 1) ** (k - j)
                * generalized_binomial(t, j)
                * generalized_binomial(N - t, k - j))
        total += -term if j & 1 else term
    return total


def eval_general_r(N: int, k: int, r: int, t: Fraction | int) -> Fraction:
    """Degree-k polynomial at rational t for alphabet size r, by recurrence."""
    t = Fraction(t)
    prev, cur = Fraction(1), N * (r - 1) - r * t
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, ((N * (r - 1) - j * (r - 2) - r * t) * cur
                          - (r - 1) * (N - j + 1) * prev) / (j + 1)
    return cur


def s_derivative_coefficients(N: int) -> list[int]:
    """Coefficients of s'(x) for s(x) = x(x-1)^2(N - x^3) - n^2/4, ascending."""
    return [N, -4 * N, 3 * N, -4, 10, -6]


def one_minus_x_times_r_coefficients(N: int) -> list[int]:
    """Coefficients of (1 - x) r(x), r(x) = 6x^4 - 4x^3 - 3Nx + N, ascending."""
    r = [N, -3 * N, 0, -4, 6]
    out = [0] * 6
    for i, c in enumerate(r):
        out[i] += c
        out[i + 1] -= c
    return out


def fraction_quartic_positive_root(a: Fraction, b: Fraction, width: Fraction):
    """(lo, hi) around the positive root of w^4 - a w + b by Fraction bisection.

    Starts from [0, 2], doubling hi until q(hi) > 0; lo == hi marks an exact
    dyadic root hit by a midpoint.
    """
    def q(w: Fraction) -> Fraction:
        return w ** 4 - a * w + b

    lo, hi = Fraction(0), Fraction(2)
    while q(hi) <= 0:
        hi *= 2
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = q(mid)
        if v == 0:
            return mid, mid
        if v < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def three_way_reference(max_N: int) -> CheckResult:
    """The three-way suite shape by shape in (n, m) order, each route from scratch.

    The exact route is read through `semireg.verify`, so a test that patches
    it there patches this reference too.
    """
    checked = 0
    for shape in enumerate_shapes(max_N):
        d_exact = semireg.verify.degree_of_regularity_exact(shape)
        d_roots = dreg_via_roots(shape, ceiling=max_N)
        d_eigen = dreg_via_eigenvalues(shape, ceiling=max_N)
        if not d_exact == d_roots == d_eigen:
            return CheckResult(
                "three_way_agreement", checked, False,
                f"m={shape.m}, n={shape.n}: exact={d_exact}, "
                f"roots={d_roots}, eigenvalues={d_eigen}",
            )
        checked += 1
    return CheckResult("three_way_agreement", checked, True)
