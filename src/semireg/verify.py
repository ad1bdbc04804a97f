"""Cross-validation suites tying the three characterizations together.

Each check returns a CheckResult naming the first counterexample if one is
found.  The suites are what `semireg verify` runs; the pytest acceptance
module drives the same functions at the scales fixed there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, mul
from typing import Iterable, Iterator

from .bounds import kz_lower, l_upper, ls_lower, ls_upper
from .exact import SystemShape, binomial, degree_of_regularity_exact, hilbert_truncation
from .krawtchouk import _gf_products, integer_values
from .roots import (DEFAULT_WIDTH, _RootChain, _dreg_from_chain, _dreg_from_eigen,
                    _eigen_brackets, _refine_eigen)

__all__ = [
    "CheckResult",
    "enumerate_shapes",
    "check_interlacing",
    "check_gf_identity",
    "check_orthogonality",
    "check_three_way_agreement",
    "check_eigenvalue_root_duality",
    "check_sandwich",
    "run_all",
]

ORTHOGONALITY_ENVELOPE = 40  # exact orthogonality sweep is asserted up to here
_nums = attrgetter("num_lo", "num_hi", "e")  # a bracket [num_lo, num_hi] / 2^e as a triple


@dataclass(frozen=True)
class CheckResult:
    name: str
    checked: int
    passed: bool
    detail: str = ""

    def __post_init__(self) -> None:
        # a suite that checked nothing has shown nothing
        if self.passed and self.checked == 0:
            object.__setattr__(self, "passed", False)
            object.__setattr__(self, "detail", "no cases checked")

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  {self.detail}" if self.detail else ""
        return f"{self.name}: {status} ({self.checked} cases){extra}"


def enumerate_shapes(max_N: int) -> Iterator[SystemShape]:
    """All valid shapes (m, n) with 2m - n <= max_N, ordered by (n, m)."""
    for n in range(1, max_N):
        m = n + 1
        while 2 * m - n <= max_N:
            yield SystemShape(m, n)
            m += 1


def _shapes_before(max_N: int, first: tuple[int, int]) -> int:
    """The shapes of enumerate_shapes(max_N) that come before (n, m) = `first`."""
    return sum((s.n, s.m) < first for s in enumerate_shapes(max_N))


def _chain_suites(max_N: int, width: Fraction, *suites) -> list[CheckResult]:
    """Run chain suites side by side off one pass per N = 2..max_N.

    The pass for N builds one root chain and one bracket of lambda_k per
    k >= 2; every suite reads the same ones, and only one N's brackets are
    alive at a time.  Each chain is warm-started from the float seeds of the
    chains of N - 1 and N - 2.  Each suite is (name, check) with
    check(chain, eigen, width) -> (cases passed, failure detail or ""), and
    stops at its first failure.
    """
    checked = [0] * len(suites)
    failure = [""] * len(suites)
    warm = ({}, {})
    for N in range(2, max_N + 1):
        chain, eigen = _RootChain(N), _eigen_brackets(N)
        chain.warm = warm
        for i, (_, check) in enumerate(suites):
            if not failure[i]:
                passed, failure[i] = check(chain, eigen, width)
                checked[i] += passed
        if all(failure):
            break
        warm = (chain.seeds, warm[0])
    return [CheckResult(name, n, not fail, fail)
            for (name, _), n, fail in zip(suites, checked, failure)]


def _interlacing(chain: _RootChain, eigen, width: Fraction) -> tuple[int, str]:
    N = chain.N
    for k in range(1, N + 1):
        chain.refine(k, width)
    for k in range(2, N + 1):
        if _overlaps(_nums(chain.bracket(k)), _nums(chain.bracket(k - 1))):
            return k - 2, f"could not separate roots at N={N}, k={k}"
    return N - 1, ""


def _duality(chain: _RootChain, eigen, width: Fraction) -> tuple[int, str]:
    N = chain.N
    for k in range(1, N + 1):
        root = _nums(chain.refine(k, width))
        # lambda_1 = 0, the only eigenvalue of the 1 x 1 zero matrix
        lam = _nums(_refine_eigen(N, k, eigen[k], width, chain.seeds[k])) if k > 1 else (0, 0, 0)
        if _duality_gap(N, root, lam):
            return k - 1, f"duality gap at N={N}, k={k}"
    return N, ""


def _overlaps(upper: tuple, lower: tuple) -> bool:
    """Do the brackets fail to certify root(upper) < root(lower)?

    For (num_lo, num_hi, e) triples, compared on numerators.  A bracket
    collapses to a point only at an exact root; otherwise the signs at its
    ends are non-zero and its root lies strictly inside.  So brackets that
    touch still certify the order unless both are points: the overlap is
    hi(upper) > lo(lower), or two points at one place.
    """
    (u_lo, hi, e), (lo, l_hi, f) = upper, lower
    a, b = hi << max(f - e, 0), lo << max(e - f, 0)
    return a > b or (a == b and u_lo == hi and lo == l_hi)


def _duality_gap(N: int, root: tuple, lam: tuple) -> bool:
    """|(N - 2 mid(root)) - mid(lam)| > 2 width(root) + width(lam), times 2^(max e + 1)."""
    (r_lo, r_hi, er), (l_lo, l_hi, el) = root, lam
    dr, dl = max(el - er, 0), max(er - el, 0)
    diff = (N << (max(er, el) + 1)) - ((r_lo + r_hi) << (dr + 1)) - ((l_lo + l_hi) << dl)
    return abs(diff) > ((r_hi - r_lo) << (dr + 2)) + ((l_hi - l_lo) << (dl + 1))


def _three_way(max_N: int, d_regs: dict[SystemShape, int]):
    """The three-way suite on the shared pass, as (name, check).

    A shape of smaller n can sit at a larger N, so the first failure in
    enumerate_shapes' (n, m) order is known only at N = max_N: the check
    reports nothing before then, and after a failure it checks only the
    shapes of smaller n.  Each exact d_reg it computes goes into `d_regs`.
    """
    first = (max_N, 0, "")  # n, m, detail of the first failure; n = max_N is past every shape

    def check(chain: _RootChain, eigen, width: Fraction) -> tuple[int, str]:
        nonlocal first
        N = chain.N
        for n in range(2 - N % 2, min(N, first[0]), 2):
            shape = SystemShape((N + n) // 2, n)
            d_exact = d_regs[shape] = degree_of_regularity_exact(shape)
            # past t the exact route searched transposed: check the direct stream
            d_direct = len(hilbert_truncation(shape)) if shape.t < d_exact else d_exact
            d_roots = _dreg_from_chain(chain, shape.t)
            d_eigen = _dreg_from_eigen(eigen, n)
            if not d_direct == d_exact == d_roots == d_eigen:
                first = (n, shape.m, f"m={shape.m}, n={n}: exact={d_exact}, direct={d_direct}, "
                                     f"roots={d_roots}, eigenvalues={d_eigen}")
                break
        if N < max_N:
            return 0, ""
        return _shapes_before(max_N, first[:2]), first[2]

    return "three_way_agreement", check


_INTERLACING = ("interlacing", _interlacing)
_DUALITY = ("eigenvalue_root_duality", _duality)


def check_interlacing(max_N: int, width: Fraction = Fraction(1, 1024)) -> CheckResult:
    """Strictly decreasing smallest roots: d_{k+1}(1) < d_k(1) for all k < N.

    Each bracket is refined to `width` once, and adjacent ones are compared
    as open intervals (`_overlaps`), so the comparison is certified, not
    approximate.
    """
    return _chain_suites(max_N, width, _INTERLACING)[0]


def check_gf_identity(max_N: int) -> CheckResult:
    """Krawtchouk value stream equals the generating-function product, exactly.

    For every shape, c_0..c_N of the stream equal the coefficients of the
    binomial product (1-z^2)^(m-n) (1+z)^n.  One product per N is stepped
    through its shapes (`krawtchouk._gf_products`).  The failure reported is
    the first in enumerate_shapes' (n, m) order: a later N holds an earlier
    shape only at a smaller n, so each N checks only the n below the first
    failure found so far.
    """
    first = (max_N, 0)  # n, m of the first mismatch; n = max_N is past every shape
    for N in range(3, max_N + 1):
        for n, product in _gf_products(N):
            if n >= first[0]:
                break
            t = (N - n) // 2
            if integer_values(N, t, N) != product:
                first = (n, n + t)
                break
    checked = _shapes_before(max_N, first)
    if first[0] == max_N:
        return CheckResult("gf_identity", checked, True)
    return CheckResult("gf_identity", checked, False, f"mismatch at m={first[1]}, n={first[0]}")


def check_orthogonality(max_N: int) -> CheckResult:
    """Exact binomial-weighted orthogonality for every pair (l, k), N <= 40."""
    top = min(max_N, ORTHOGONALITY_ENVELOPE)
    checked = 0
    for N in range(1, top + 1):
        # cols[k][i] = K_k(i); each row l is weighted by C(N, i) once
        cols = list(zip(*(integer_values(N, i, N) for i in range(N + 1))))
        weights = [binomial(N, i) for i in range(N + 1)]
        for l in range(N + 1):
            expected_diag = (1 << N) * binomial(N, l)
            wl = list(map(mul, cols[l], weights))
            for k in range(l, N + 1):
                total = sum(map(mul, wl, cols[k]))
                expected = expected_diag if l == k else 0
                if total != expected:
                    return CheckResult(
                        "orthogonality", checked, False,
                        f"failure at N={N}, l={l}, k={k}",
                    )
                checked += 1
    return CheckResult("orthogonality", checked, True)


def check_three_way_agreement(max_N: int) -> CheckResult:
    """degree_of_regularity_exact == dreg_via_roots == dreg_via_eigenvalues.

    Where the exact route searched transposed (t < d_reg), it must also
    equal the direct stream's index, `len(hilbert_truncation(shape))`.
    """
    return _chain_suites(max_N, DEFAULT_WIDTH, _three_way(max_N, {}))[0]


def check_eigenvalue_root_duality(
    max_N: int, width: Fraction = Fraction(1, 1024)
) -> CheckResult:
    """lambda_k = N - 2 d_k(1), checked on enclosures of width <= `width`.

    Passes when |(N - 2 mid(d_k(1))) - mid(lambda_k)| <= 2 width(d_k(1)) +
    width(lambda_k): the sum of the widths of the two enclosures of
    lambda_k, where N - 2 d_k(1) doubles the width of the root's enclosure
    (hence the factor 2).  Two enclosures of one value have midpoints at
    most half that sum apart, so a pass is certain when both enclosures hold.
    """
    return _chain_suites(max_N, width, _DUALITY)[0]


def check_sandwich(shapes: Iterable[SystemShape]) -> CheckResult:
    """kz_lower, ls_lower <= d_reg <= ls_upper, l_upper (where applicable)."""
    return _sandwich(shapes, {})


def _sandwich(shapes: Iterable[SystemShape], d_regs: dict[SystemShape, int]) -> CheckResult:
    """`check_sandwich`, reading d_reg from `d_regs` where it is there."""
    checked = 0
    for shape in shapes:
        d = d_regs.get(shape) or degree_of_regularity_exact(shape)
        lo_kz = kz_lower(shape).value
        lo_ls = ls_lower(shape).value
        up_ls = ls_upper(shape)
        up_l = l_upper(shape)
        ok = lo_kz <= d and lo_ls <= d
        if up_ls.applicable:
            ok = ok and d <= up_ls.value
        if up_l.applicable:
            ok = ok and d <= up_l.value
        if not ok:
            return CheckResult(
                "sandwich", checked, False,
                f"violated at m={shape.m}, n={shape.n}: d_reg={d}, "
                f"kz={lo_kz}, ls_lower={lo_ls}, "
                f"ls_upper={up_ls.value}, l_upper={up_l.value}",
            )
        checked += 1
    return CheckResult("sandwich", checked, True)


def run_all(max_N: int, width: Fraction = Fraction(1, 1024)) -> list[CheckResult]:
    """The verification battery behind `semireg verify`.

    `width` is the enclosure width of the interlacing and duality suites.
    """
    if max_N < 3:
        raise ValueError(f"MAX_N={max_N} is below 3, the smallest size "
                         f"at which every suite checks a case")
    # duality refines the eigen brackets before three-way compares on them;
    # the sandwich reads the d_reg three-way computed
    d_regs: dict[SystemShape, int] = {}
    interlacing, duality, three_way = _chain_suites(
        max_N, width, _INTERLACING, _DUALITY, _three_way(max_N, d_regs))
    return [
        interlacing,
        check_gf_identity(max_N),
        check_orthogonality(max_N),
        three_way,
        duality,
        _sandwich(enumerate_shapes(max_N), d_regs),
    ]
