"""Cross-validation suites tying the three characterizations together.

Each check returns a CheckResult naming the first counterexample if one is
found.  The suites are what `semireg verify` runs; the pytest acceptance
module drives the same functions at the scales fixed there.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from operator import attrgetter, mul

from .bounds import kz_lower, l_upper, ls_lower, ls_upper, sandwich_verdict
from .exact import SystemShape, binomial, degree_of_regularity_exact, hilbert_truncation
from .krawtchouk import _gf_products, integer_values
from .roots import _RootChain

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


class CheckResult(namedtuple("CheckResult", "name checked passed detail")):
    """One suite's verdict, case count and first counterexample."""

    __slots__ = ()

    def __new__(cls, name: str, checked: int, passed: bool, detail: str = "") -> "CheckResult":
        # a suite that checked nothing has shown nothing
        if passed and checked == 0:
            passed, detail = False, "no cases checked"
        return super().__new__(cls, name, checked, passed, detail)

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
    """The shapes of enumerate_shapes(max_N) that come before (n, m) = `first`.

    Each n < max_N holds floor((max_N - n) / 2) shapes, m = n + 1..(max_N + n) // 2.
    """
    n, m = first
    earlier = sum((max_N - j) // 2 for j in range(1, min(n, max_N)))
    return earlier + max(min(m - 1, (max_N + n) // 2) - n, 0)


def _chain_suites(max_N: int, *suites) -> list[CheckResult]:
    """Run chain suites side by side off one pass per N = 2..max_N.

    The pass for N builds one `_RootChain`, which makes the brackets of
    d_k(1), and of lambda_k from them, as the suites ask for them; every
    suite reads the same ones, and only one N's brackets are alive at a
    time.  Each chain is built from that of N - 1, whose float seeds and
    those of N - 2 start its own.  Each suite is (name, check) with
    check(chain) -> (cases passed, failure detail or ""), and stops at its
    first failure.  An AssertionError raised while a suite reads the chain
    of N (a kernel fault, or a duality gap that `_RootChain.eigen` found) is
    that suite's failure, its message naming N, and the chain of N counts no
    case of it.
    """
    checked = [0] * len(suites)
    failure = [""] * len(suites)
    chain = None
    for N in range(2, max_N + 1):
        chain = _RootChain(N, chain)
        for i, (_, check) in enumerate(suites):
            if not failure[i]:
                try:
                    passed, failure[i] = check(chain)
                except AssertionError as exc:
                    # a kernel fault or a duality gap: this suite fails,
                    # and so does every other one that reads the same chain
                    passed, msg = 0, str(exc)
                    failure[i] = msg if f"N={N}," in msg else f"N={N}: {msg}"
                checked[i] += passed
        if all(failure):
            break
    return [CheckResult(name, n, not fail, fail)
            for (name, _), n, fail in zip(suites, checked, failure)]


def _interlacing(chain: _RootChain) -> tuple[int, str]:
    N = chain.N
    for k in range(2, N + 1):
        if _overlaps(_nums(chain.bracket(k)), _nums(chain.bracket(k - 1))):
            return k - 2, f"could not separate roots at N={N}, k={k}"
    return N - 1, ""


def _duality(chain: _RootChain) -> tuple[int, str]:
    for k in range(1, chain.N + 1):
        chain.eigen(k)  # raises the duality gap where route 3 refutes route 2
    return chain.N, ""


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


def _three_way(max_N: int, d_regs: dict[SystemShape, int]):
    """The three-way suite on the shared pass, as (name, check).

    A shape of smaller n can sit at a larger N, so the first failure in
    enumerate_shapes' (n, m) order is known only at N = max_N: the check
    reports nothing before then, and after a failure it checks only the
    shapes of smaller n.  Each exact d_reg it computes goes into `d_regs`.
    """
    first = (max_N, 0, "")  # n, m, detail of the first failure; n = max_N is past every shape

    def check(chain: _RootChain) -> tuple[int, str]:
        nonlocal first
        N = chain.N
        for n in range(2 - N % 2, min(N, first[0]), 2):
            shape = SystemShape((N + n) // 2, n)
            d_exact = d_regs[shape] = degree_of_regularity_exact(shape)
            # past t the exact route searched transposed: check the direct stream
            d_direct = len(hilbert_truncation(shape)) if shape.t < d_exact else d_exact
            d_roots, d_eigen = chain.dreg(shape.t), chain.dreg_eigen(n)
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


def check_interlacing(max_N: int) -> CheckResult:
    """Strictly decreasing smallest roots: d_{k+1}(1) < d_k(1) for all k < N.

    Each bracket is made at most `DEFAULT_WIDTH` wide, and adjacent ones are
    compared as open intervals (`_overlaps`), so the comparison is
    certified, not approximate.
    """
    return _chain_suites(max_N, _INTERLACING)[0]


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
    """Exact binomial-weighted orthogonality for every pair (l, k), N <= 40.

    G[l][k] = sum_i C(N, i) K_l(i) K_k(i) must equal 2^N C(N, l) [l == k].
    Each Gram row l is one packed integer: with X_i = sum_k K_k(i) 2^(B k),
    R_l = sum_i K_l(i) C(N, i) X_i holds G[l][k] in field k, and is
    compared whole with 2^N C(N, l) 2^(B l).  The stride B comes from the
    values read: with M the largest |K_k(i)|, |G| <= 2^N M^2 and the
    expected |E| <= 4^N, so B = max(N + 2 bits(M), 2N) + 2 keeps every
    signed field |G - E| below 2^(B - 1), and a wrong value cannot carry
    into a neighbouring field.  Rows are compared in order l = 0..N, and a
    pair (l, k) counts as checked for k >= l.  On a mismatch the fields
    below l are zero, since G[l][k] = G[k][l] passed in row k, so the first
    non-zero signed field from l upward, the failing k, holds the lowest
    set bit of the difference.
    """
    top = min(max_N, ORTHOGONALITY_ENVELOPE)
    checked = 0
    for N in range(1, top + 1):
        rows = [integer_values(N, i, N) for i in range(N + 1)]  # rows[i][k] = K_k(i)
        M = max(abs(v) for row in rows for v in row)
        B = max(N + 2 * M.bit_length(), 2 * N) + 2
        packed = []
        for i, row in enumerate(rows):
            x = 0
            for v in reversed(row):
                x = (x << B) + v
            packed.append(binomial(N, i) * x)
        for l, col in enumerate(zip(*rows)):
            diff = sum(map(mul, col, packed)) - (binomial(N, l) << (N + B * l))
            if diff:
                k = ((diff & -diff).bit_length() - 1) // B
                return CheckResult("orthogonality", checked + k - l, False,
                                   f"failure at N={N}, l={l}, k={k}")
            checked += N + 1 - l
    return CheckResult("orthogonality", checked, True)


def check_three_way_agreement(max_N: int) -> CheckResult:
    """degree_of_regularity_exact == dreg_via_roots == dreg_via_eigenvalues.

    Where the exact route searched transposed (t < d_reg), it must also
    equal the direct stream's index, `len(hilbert_truncation(shape))`.
    """
    return _chain_suites(max_N, _three_way(max_N, {}))[0]


def check_eigenvalue_root_duality(max_N: int) -> CheckResult:
    """lambda_k = N - 2 d_k(1), checked exactly on each bracket of d_k(1).

    `_RootChain.eigen` mirrors the bracket of d_k(1), made at most
    `DEFAULT_WIDTH` wide by the explicit sum, to N - 2 [hi, lo], rounded
    outward to 2^-21, and passes k only when the leading-minor sign of
    route 3 changes across it (or is zero at a point): a containment
    check, by a formula route 2 does not use.
    """
    return _chain_suites(max_N, _DUALITY)[0]


def check_sandwich(shapes: Iterable[SystemShape]) -> CheckResult:
    """kz_lower, ls_lower <= d_reg <= ls_upper, l_upper (where applicable)."""
    return _sandwich(shapes, {})


def _sandwich(shapes: Iterable[SystemShape], d_regs: dict[SystemShape, int]) -> CheckResult:
    """`check_sandwich`, reading d_reg from `d_regs` where it is there.

    An AssertionError raised while computing a shape's d_reg (a fault in
    route 1) is the suite's failure, its message naming m and n.
    """
    checked = 0
    for shape in shapes:
        try:
            d = d_regs.get(shape) or degree_of_regularity_exact(shape)
        except AssertionError as exc:
            return CheckResult("sandwich", checked, False, f"m={shape.m}, n={shape.n}: {exc}")
        outcomes = kz_lower(shape), ls_lower(shape), ls_upper(shape), l_upper(shape)
        if not sandwich_verdict(d, *outcomes)[2]:
            kz, lo_ls, up_ls, up_l = (o.value for o in outcomes)
            return CheckResult("sandwich", checked, False,
                               f"violated at m={shape.m}, n={shape.n}: d_reg={d}, kz={kz}, "
                               f"ls_lower={lo_ls}, ls_upper={up_ls}, l_upper={up_l}")
        checked += 1
    return CheckResult("sandwich", checked, True)


def run_all(max_N: int) -> list[CheckResult]:
    """The verification battery behind `semireg verify`.

    Interlacing, duality and three-way read the brackets as the chain makes
    them: those of d_k(1) at most `DEFAULT_WIDTH` wide, those of lambda_k
    mirrored from them.
    """
    if max_N < 3:
        raise ValueError(f"MAX_N={max_N} is below 3, the smallest size "
                         f"at which every suite checks a case")
    # duality reads the brackets before three-way's comparisons cut them;
    # the sandwich reads the d_reg three-way computed
    d_regs: dict[SystemShape, int] = {}
    interlacing, duality, three_way = _chain_suites(
        max_N, _INTERLACING, _DUALITY, _three_way(max_N, d_regs))
    return [
        interlacing,
        check_gf_identity(max_N),
        check_orthogonality(max_N),
        three_way,
        duality,
        _sandwich(enumerate_shapes(max_N), d_regs),
    ]
