"""The verify battery refuses to pass on nothing and catches a faulty stream."""

from collections import Counter

import pytest

import semireg.exact
import semireg.krawtchouk
import semireg.roots
import semireg.verify
from oracle_utils import three_way_reference
from semireg.exact import SystemShape
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
