"""The verify battery refuses to pass on nothing and catches a faulty stream."""

from collections import Counter

import pytest

import semireg.exact
import semireg.krawtchouk
import semireg.verify
from semireg.verify import CheckResult, check_gf_identity, check_orthogonality, \
    check_sandwich, run_all


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
    # interlacing and duality read the same root chain: one per N, not two
    built = Counter()
    chain_class = semireg.verify._RootChain

    class Counted(chain_class):
        def __init__(self, N):
            built[N] += 1
            super().__init__(N)

    monkeypatch.setattr(semireg.verify, "_RootChain", Counted)
    results = run_all(30)
    assert all(r.passed for r in results)
    assert built == Counter(range(2, 31))
