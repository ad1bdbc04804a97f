"""The verify battery refuses to pass on nothing and catches a faulty stream."""

from collections import Counter

import pytest

import semireg.exact
import semireg.krawtchouk
import semireg.roots
import semireg.verify
import oracle_utils
from oracle_utils import gf_convolution_check, orthogonality_check, three_way_reference
from semireg.exact import SystemShape
from semireg.krawtchouk import gf_identity_check, integer_values
from semireg.verify import CheckResult, check_gf_identity, check_orthogonality, \
    check_sandwich, check_three_way_agreement, run_all


@pytest.mark.parametrize("max_n", [-3, 0, 1, 2])
def test_run_all_refuses_small_max_n(max_n):
    with pytest.raises(ValueError, match=f"MAX_N={max_n} is below 3"):
        run_all(max_n)


def test_empty_suite_reads_fail():
    res = check_sandwich([])
    assert not res.passed
    assert res.summary() == "sandwich: FAIL (0 cases)  no cases checked"
    assert not check_orthogonality(0).passed


def test_check_result_keeps_failure_detail():
    res = CheckResult("interlacing", 0, False, "could not separate roots")
    assert res.detail == "could not separate roots"
    assert CheckResult("interlacing", 1, True).summary() == "interlacing: PASS (1 cases)"


def test_gf_identity_catches_corrupted_stream(monkeypatch):
    # Corrupt c_3 of one shape wherever the Krawtchouk stream is read.  A
    # check whose two sides share the stream would still pass.
    stream = semireg.exact.krawtchouk_stream

    def corrupted(N, s):
        for k, value in enumerate(stream(N, s)):
            yield value + 1 if (N, s, k) == (16, 4, 3) else value

    monkeypatch.setattr(semireg.exact, "krawtchouk_stream", corrupted)
    monkeypatch.setattr(semireg.krawtchouk, "krawtchouk_stream", corrupted)
    res = check_gf_identity(20)
    assert not res.passed
    assert res.detail == "mismatch at m=10, n=4"
    assert check_gf_identity(15).passed  # below the corrupted shape


def _corrupt_stream(monkeypatch, N, s, deltas):
    """Add deltas[k] to c_k of the stream at (N, s) wherever it is read."""
    stream = semireg.exact.krawtchouk_stream

    def corrupted(N_, s_):
        for k, value in enumerate(stream(N_, s_)):
            yield value + deltas.get(k, 0) if (N_, s_) == (N, s) else value

    monkeypatch.setattr(semireg.exact, "krawtchouk_stream", corrupted)
    monkeypatch.setattr(semireg.krawtchouk, "krawtchouk_stream", corrupted)


# B of the Kronecker packing at (m, n) = (10, 4): max(m, widest c_k) + 2
GF_B = max(10, *(c.bit_length() for c in integer_values(16, 6, 16))) + 2


@pytest.mark.parametrize("deltas", [
    {3: 1 << 200},                 # far wider than 2^m
    {3: -(1 << 200) - 7},
    {3: 1 << GF_B},                # one carry into c_4 at a fixed B
    {3: -(1 << GF_B)},
    {3: 1 << GF_B, 4: -1},         # the pair a fixed B would pack unchanged
    {16: 1 << GF_B},               # the top coefficient
], ids=["wide", "wide-negative", "plus-2^B", "minus-2^B", "aliased-pair", "top"])
def test_gf_identity_catches_wide_corruptions(monkeypatch, deltas):
    # B is read from the stream, so no corruption aliases with the product
    _corrupt_stream(monkeypatch, 16, 4, deltas)
    assert not gf_identity_check(10, 4, 16)
    assert not gf_convolution_check(10, 4, 16)
    res = check_gf_identity(20)
    assert (res.passed, res.detail) == (False, "mismatch at m=10, n=4")
    assert gf_identity_check(10, 4, min(deltas) - 1)  # the prefix before it


@pytest.mark.parametrize("N, i, k", [(5, 0, 0), (12, 7, 9), (40, 40, 40)])
def test_orthogonality_reports_the_pair_the_oracle_finds(monkeypatch, N, i, k):
    # one table entry K_k(i) at family size N is off by one: the suite must
    # stop at the first pair (l, k) the per-pair oracle rejects, in its order
    def corrupted(N_, i_, k_max):
        row = integer_values(N_, i_, k_max)
        if (N_, i_) == (N, i) and k <= k_max:
            row[k] += 1
        return row

    monkeypatch.setattr(semireg.verify, "integer_values", corrupted)
    monkeypatch.setattr(oracle_utils, "integer_values", corrupted)
    pairs = [(l, k_) for l in range(N + 1) for k_ in range(l, N + 1)]
    j = next(j for j, pair in enumerate(pairs) if not orthogonality_check(N, *pair))
    l, k_ = pairs[j]
    before = sum((M + 1) * (M + 2) // 2 for M in range(1, N))  # the pairs of smaller N
    assert check_orthogonality(60) == CheckResult(
        "orthogonality", before + j, False, f"failure at N={N}, l={l}, k={k_}")


def test_chain_suites_share_one_chain_per_n(monkeypatch):
    # interlacing, duality and three-way read the same brackets: one root
    # chain per N and one eigen bracket per (N, k), not one per suite or shape
    built = Counter()
    eigen = Counter()
    chain_class = semireg.verify._RootChain
    eigen_bracket = semireg.roots._eigen_bracket

    class Counted(chain_class):
        def __init__(self, N):
            built[N] += 1
            super().__init__(N)

    def counted_eigen(N, k):
        eigen[N, k] += 1
        return eigen_bracket(N, k)

    monkeypatch.setattr(semireg.verify, "_RootChain", Counted)
    monkeypatch.setattr(semireg.roots, "_RootChain", Counted)
    monkeypatch.setattr(semireg.roots, "_eigen_bracket", counted_eigen)
    results = run_all(30)
    assert all(r.passed for r in results)
    assert built == Counter(range(2, 31))
    assert eigen == Counter((N, k) for N in range(2, 31) for k in range(2, N + 1))


@pytest.mark.parametrize("failing", [
    [(20, 3), (10, 5)],  # n = 3 comes first in (n, m) order, N = 15 in N order
    [(10, 5)],
    [(4, 1), (10, 5)],   # first in both orders: the later failure must not replace it
    [(6, 5), (4, 1)],    # both at N = 7
])
def test_three_way_reports_the_first_failure_in_shape_order(monkeypatch, failing):
    # A wrong exact route on a few shapes: the suite must report the shape
    # and count of the shape-by-shape reference, whatever N the failures sit at.
    exact = semireg.verify.degree_of_regularity_exact
    wrong = {SystemShape(m, n) for m, n in failing}

    def misreported(shape):
        return exact(shape) + (shape in wrong)

    monkeypatch.setattr(semireg.verify, "degree_of_regularity_exact", misreported)
    expected = three_way_reference(40)
    assert not expected.passed
    assert check_three_way_agreement(40) == expected
    assert run_all(40)[3] == expected
