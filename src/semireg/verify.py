"""Cross-validation suites tying the three characterizations together.

Each check returns a CheckResult naming the first counterexample if one is
found.  The suites are what `semireg verify` runs; the pytest acceptance
module drives the same functions at the scales fixed there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .bounds import kz_lower, l_upper, ls_lower, ls_upper
from .exact import SystemShape, binomial, degree_of_regularity_exact
from .krawtchouk import gf_identity_check, integer_values
from .roots import (
    _RootChain,
    dreg_via_eigenvalues,
    dreg_via_roots,
    largest_eigenvalue,
)

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


def _chain_suites(max_N: int, width: Fraction, *suites) -> list[CheckResult]:
    """Run chain suites side by side off one root chain per N = 2..max_N.

    Each suite is (name, check) with check(chain, width) -> (cases passed,
    failure detail or "").  Every bracket of a chain is refined to `width`
    once and read by all suites; a suite stops at its first failure, and
    only one N's chain is alive at a time.
    """
    checked = [0] * len(suites)
    failure = [""] * len(suites)
    for N in range(2, max_N + 1):
        chain = _RootChain(N)
        for k in range(1, N + 1):
            chain.refine(k, width)
        for i, (_, check) in enumerate(suites):
            if not failure[i]:
                passed, failure[i] = check(chain, width)
                checked[i] += passed
        if all(failure):
            break
    return [CheckResult(name, n, not fail, fail)
            for (name, _), n, fail in zip(suites, checked, failure)]


def _interlacing(chain: _RootChain, width: Fraction) -> tuple[int, str]:
    N = chain.N
    for k in range(2, N + 1):
        w = width
        while chain.bracket(k).hi >= chain.bracket(k - 1).lo:
            # overlap: sharpen both until the strict order is visible
            w /= 2
            chain.refine(k - 1, w)
            chain.refine(k, w)
            if w < Fraction(1, 1 << 128):
                return k - 2, f"could not separate roots at N={N}, k={k}"
    return N - 1, ""


def _duality(chain: _RootChain, width: Fraction) -> tuple[int, str]:
    N = chain.N
    for k in range(1, N + 1):
        root = chain.bracket(k).enclosure()
        lam = largest_eigenvalue(N, k, width)
        if abs((N - 2 * root.mid) - lam.mid) > 2 * root.width + lam.width:
            return k - 1, f"duality gap at N={N}, k={k}"
    return N, ""


_INTERLACING = ("interlacing", _interlacing)
_DUALITY = ("eigenvalue_root_duality", _duality)


def check_interlacing(max_N: int, width: Fraction = Fraction(1, 1024)) -> CheckResult:
    """Strictly decreasing smallest roots: d_{k+1}(1) < d_k(1) for all k < N.

    Adjacent enclosures are refined until disjoint, so the comparison is
    certified, not approximate.
    """
    return _chain_suites(max_N, width, _INTERLACING)[0]


def check_gf_identity(max_N: int) -> CheckResult:
    """Krawtchouk value stream equals the generating-function product, exactly."""
    checked = 0
    for shape in enumerate_shapes(max_N):
        if not gf_identity_check(shape.m, shape.n, shape.N):
            return CheckResult(
                "gf_identity", checked, False, f"mismatch at m={shape.m}, n={shape.n}"
            )
        checked += 1
    return CheckResult("gf_identity", checked, True)


def check_orthogonality(max_N: int) -> CheckResult:
    """Exact binomial-weighted orthogonality for every pair (l, k), N <= 40."""
    top = min(max_N, ORTHOGONALITY_ENVELOPE)
    checked = 0
    for N in range(1, top + 1):
        table = [integer_values(N, i, N) for i in range(N + 1)]
        weights = [binomial(N, i) for i in range(N + 1)]
        for l in range(N + 1):
            expected_diag = (1 << N) * binomial(N, l)
            for k in range(l, N + 1):
                total = sum(table[i][l] * table[i][k] * weights[i] for i in range(N + 1))
                expected = expected_diag if l == k else 0
                if total != expected:
                    return CheckResult(
                        "orthogonality", checked, False,
                        f"failure at N={N}, l={l}, k={k}",
                    )
                checked += 1
    return CheckResult("orthogonality", checked, True)


def check_three_way_agreement(max_N: int) -> CheckResult:
    """degree_of_regularity_exact == dreg_via_roots == dreg_via_eigenvalues."""
    checked = 0
    for shape in enumerate_shapes(max_N):
        d_exact = degree_of_regularity_exact(shape)
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
    checked = 0
    for shape in shapes:
        d = degree_of_regularity_exact(shape)
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
    # interlacing and duality read the same chains, built once per N
    interlacing, duality = _chain_suites(max_N, width, _INTERLACING, _DUALITY)
    return [
        interlacing,
        check_gf_identity(max_N),
        check_orthogonality(max_N),
        check_three_way_agreement(max_N),
        duality,
        check_sandwich(enumerate_shapes(max_N)),
    ]
