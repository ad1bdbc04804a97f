"""The verify battery refuses to pass on nothing and catches a faulty stream."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import semireg.exact
import semireg.krawtchouk
import semireg.roots
import semireg.verify
from semireg import cli
import oracle_utils
from oracle_utils import cleared_values, gf_convolution_check, gf_identity_reference, \
    orthogonality_check, orthogonality_reference, three_way_reference, wrong_root_sign
from semireg.exact import SystemShape
from semireg.intervals import DyadicBracket
from semireg.krawtchouk import gf_identity_check, integer_values
from semireg.verify import CheckResult, _interlacing, _nums, _overlaps, \
    _shapes_before, check_eigenvalue_root_duality, check_gf_identity, check_orthogonality, \
    check_sandwich, check_three_way_agreement, enumerate_shapes, run_all


@pytest.mark.parametrize("max_n", [-3, 0, 1, 2])
def test_run_all_refuses_small_max_n(max_n):
    with pytest.raises(ValueError, match=f"MAX_N={max_n} is below 3"):
        run_all(max_n)


def test_empty_suite_reads_fail():
    res = check_sandwich([])
    assert not res.passed
    assert res.summary() == "sandwich: FAIL (0 cases)  no cases checked"
    assert not check_orthogonality(0).passed


def test_shapes_before_counts_the_enumeration():
    for max_N in range(1, 61):
        shapes = [(s.n, s.m) for s in enumerate_shapes(max_N)]
        assert shapes == sorted(shapes)
        for i, first in enumerate(shapes):
            assert _shapes_before(max_N, first) == i, (max_N, first)
        # n = max_N is past every shape: the sentinel of the suites that found no failure
        assert _shapes_before(max_N, (max_N, 0)) == len(shapes)


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
    _corrupt_streams(monkeypatch, {(N, s): deltas})


def _corrupt_streams(monkeypatch, corruptions):
    """Add corruptions[N, s][k] to c_k of the stream at each (N, s) wherever it is read."""
    stream = semireg.exact.krawtchouk_stream

    def corrupted(N_, s_):
        deltas = corruptions.get((N_, s_), {})
        for k, value in enumerate(stream(N_, s_)):
            yield value + deltas.get(k, 0)

    monkeypatch.setattr(semireg.exact, "krawtchouk_stream", corrupted)
    monkeypatch.setattr(semireg.krawtchouk, "krawtchouk_stream", corrupted)


# a digit width B at (m, n) = (10, 4), max(m, widest c_k) + 2: corruptions by
# 2^B would alias in a check that packed the coefficients B bits apart
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
    # the coefficients are compared one by one, so no corruption aliases
    _corrupt_stream(monkeypatch, 16, 4, deltas)
    assert not gf_identity_check(10, 4, 16)
    assert not gf_convolution_check(10, 4, 16)
    res = check_gf_identity(20)
    assert (res.passed, res.detail) == (False, "mismatch at m=10, n=4")
    assert gf_identity_check(10, 4, min(deltas) - 1)  # the prefix before it


@st.composite
def _stream_corruption(draw):
    """((N, s), {k: delta}) for a shape with N <= 30: its stream at s = n, one value off."""
    N = draw(st.integers(3, 30), label="N")
    n = draw(st.sampled_from(range(2 - N % 2, N - 1, 2)), label="n")
    k = draw(st.integers(0, N), label="k")
    delta = draw(st.sampled_from([1, -1, 1 << 200, -(1 << 200) - 7, 1 << (N + 2)]), label="delta")
    return (N, n), {k: delta}


@settings(max_examples=100, deadline=None)
@given(st.lists(_stream_corruption(), min_size=1, max_size=3), st.integers(3, 30))
def test_gf_identity_reports_the_first_failure_in_shape_order(corruptions, max_N):
    # one product per N, stepped through its shapes, must report what the
    # shape-by-shape check reports in (n, m) order, wherever the failures sit
    with pytest.MonkeyPatch.context() as mp:
        _corrupt_streams(mp, dict(corruptions))
        expected = gf_identity_reference(max_N)
        assert check_gf_identity(max_N) == expected
    assert expected.passed == all(N > max_N for (N, _), _ in corruptions)


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


def _aliased_pair(N, i, k, shift):
    """{(N, i, k): K_k(i) + 2^shift, (N, i, k - 1): K_(k-1)(i) - 2^(shift + B)}.

    B is the stride the true values give at N, a stride fixed by N alone;
    at B the two entries pack to the true row.
    """
    true = [integer_values(N, j, N) for j in range(N + 1)]
    B = max(N + 2 * max(abs(v) for row in true for v in row).bit_length(), 2 * N) + 2
    return {(N, i, k): true[i][k] + (1 << shift), (N, i, k - 1): true[i][k - 1] - (1 << shift + B)}


@st.composite
def _table_corruption(draw):
    """(max_N, {(N, i, k): value}): 1 to 3 entries K_k(i) replaced, at N <= max_N <= 40."""
    max_N = draw(st.integers(1, 40), label="max_N")
    values = {}
    for _ in range(draw(st.integers(1, 3), label="entries")):
        N = draw(st.integers(1, max_N), label="N")
        i, k = draw(st.integers(0, N), label="i"), draw(st.integers(0, N), label="k")
        values[N, i, k] = draw(st.one_of(
            st.integers(-8, 8), st.integers(-(1 << 300), 1 << 300),
            st.sampled_from([1 << 300, -(1 << 300), 1 << (2 * N + 2), -(1 << (2 * N + 2))]),
        ), label="value")
    return max_N, values


@settings(max_examples=60, deadline=None)
@given(_table_corruption())
@example((12, _aliased_pair(12, 7, 4, 0)))
@example((40, _aliased_pair(40, 0, 40, 300)))
def test_orthogonality_matches_the_scalar_sweep_under_wide_corruptions(corruption):
    # the packed rows must report what one dot product per pair reports,
    # however wide the values read: a stride fixed by N would alias them
    max_N, values = corruption

    def corrupted(N, i, k_max):
        row = integer_values(N, i, k_max)
        for k in range(k_max + 1):
            row[k] = values.get((N, i, k), row[k])
        return row

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semireg.verify, "integer_values", corrupted)
        expected = orthogonality_reference(max_N)
        assert check_orthogonality(max_N) == expected
    assert expected.passed == all(integer_values(N, i, N)[k] == v for (N, i, k), v in values.items())


@pytest.mark.parametrize("max_N, checked", [(0, 0), (1, 3), (2, 9), (3, 19), (20, 1770),
                                             (39, 11479), (40, 12340), (41, 12340), (60, 12340)])
def test_orthogonality_counts_every_pair_up_to_the_envelope(max_N, checked):
    assert checked == sum((N + 1) * (N + 2) // 2 for N in range(1, min(max_N, 40) + 1))
    res = check_orthogonality(max_N)
    assert (res.checked, res.passed) == (checked, checked > 0)
    assert res.detail == ("" if checked else "no cases checked")


def test_verify_reports_a_kernel_fault_as_a_failure(monkeypatch, capsys):
    # the j (N - j + 2) kernel of test_roots.py::test_lift_off_stops_a_wrong_kernel
    # makes the chain raise AssertionError at N = 3: a FAIL line, not a traceback.
    # Route 3's minor signs refute its bracket of d_2(1) at N = 2 already, and
    # three-way, whose eigenvalue route reads that check, fails on it at N = 3
    monkeypatch.setattr(semireg.roots, "_root_sign", wrong_root_sign)
    assert cli.main(["verify", "10"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:6]] == [
        "interlacing", "gf_identity", "orthogonality", "three_way_agreement",
        "eigenvalue_root_duality", "sandwich"]
    assert lines[0].startswith("interlacing: FAIL (1 cases)  N=3, k=3: lo stayed 0 ")
    assert lines[1] == "gf_identity: PASS (20 cases)"
    assert lines[2] == "orthogonality: PASS (285 cases)"
    assert lines[3] == "three_way_agreement: FAIL (0 cases)  duality gap at N=3, k=2"
    assert lines[4] == "eigenvalue_root_duality: FAIL (0 cases)  duality gap at N=2, k=2"
    assert lines[5:] == ["sandwich: PASS (20 cases)", "3/6 suites passed"]


def test_chain_suites_name_n_for_a_fault_without_it():
    # every suite that reads the faulty chain fails with the fault, named by N
    def faulty(chain):
        if chain.N == 4:
            raise AssertionError("K_k must be negative at the exact previous smallest root")
        return 1, ""

    res = semireg.verify._chain_suites(6, ("a", faulty), ("b", faulty))
    assert res == [CheckResult(name, 2, False, "N=4: K_k must be negative at the exact "
                                               "previous smallest root") for name in "ab"]


def _made_by(bracket, *factories):
    """Was the bracket's sign function made by, or a partial of, one of these functions of roots?"""
    sign = getattr(bracket.sign_at, "func", bracket.sign_at)
    return sign.__qualname__.split(".<locals>.")[0] in factories


def _counted_eigen_brackets(monkeypatch):
    """Count the brackets of lambda_k made, by (N, k)."""
    made, init = Counter(), DyadicBracket.__init__

    def counted(self, sign_at, *args, **kwargs):
        init(self, sign_at, *args, **kwargs)
        if _made_by(self, "_eigen_sign"):
            made[sign_at.args] += 1

    monkeypatch.setattr(DyadicBracket, "__init__", counted)
    return made


def test_chain_suites_share_one_chain_per_n(monkeypatch):
    # interlacing, duality and three-way read the same brackets: one root
    # chain per N and one eigen bracket per (N, k), not one per suite or shape
    built = Counter()
    chain_class = semireg.verify._RootChain

    class Counted(chain_class):
        def __init__(self, N, previous=None):
            built[N] += 1
            super().__init__(N, previous)

    eigen = _counted_eigen_brackets(monkeypatch)
    monkeypatch.setattr(semireg.verify, "_RootChain", Counted)
    monkeypatch.setattr(semireg.roots, "_RootChain", Counted)
    results = run_all(30)
    assert all(r.passed for r in results)
    assert built == Counter(range(2, 31))
    assert eigen == Counter((N, k) for N in range(2, 31) for k in range(1, N + 1))


def test_three_way_makes_eigen_brackets_up_to_the_degree_it_decides(monkeypatch):
    # alone, three-way asks each N's chain for lambda_k only until the
    # largest d_reg of that N's shapes is decided, not for all N of them
    eigen = _counted_eigen_brackets(monkeypatch)
    assert check_three_way_agreement(40).passed
    top = Counter()
    for shape in enumerate_shapes(40):
        top[shape.N] = max(top[shape.N], semireg.exact.degree_of_regularity_exact(shape))
    assert eigen == Counter((N, k) for N, d in top.items() for k in range(1, d + 1))
    assert sum(top.values()) == 418  # of the 817 an eager pass makes, N per N = 3..40


@pytest.fixture(scope="module")
def shared_pass_60():
    """run_all(60) with its root chains, its bracket narrows and its root bisection steps."""
    chains, narrows, root_steps = {}, [], []
    chain_class, narrow, step = semireg.verify._RootChain, DyadicBracket.narrow, DyadicBracket.step

    class Recorded(chain_class):
        def __init__(self, N, previous=None):
            super().__init__(N, previous)
            chains[N] = self

    def recorded_narrow(self, guess, width):
        accepted = narrow(self, guess, width)
        if _made_by(self, "_root_sign", "_eigen_sign"):
            narrows.append(accepted)
        return accepted

    def recorded_step(self):
        if _made_by(self, "_root_sign"):
            root_steps.append((self.num_lo, self.num_hi, self.e))
        step(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semireg.verify, "_RootChain", Recorded)
        mp.setattr(DyadicBracket, "narrow", recorded_narrow)
        mp.setattr(DyadicBracket, "step", recorded_step)
        results = run_all(60)
    assert all(r.passed for r in results)
    return chains, narrows, root_steps


def test_warm_start_is_left_of_the_root(shared_pass_60):
    # d_k^(N-1)(1) < d_k^N(1), so the float seed of N - 1 is a left start:
    # K_k^N at it, read as a rational p/q, is positive
    chains = shared_pass_60[0]
    for N in range(3, 61):
        for k in range(2, N):
            p, q = chains[N - 1].seeds[k].as_integer_ratio()
            assert cleared_values(N, q * N - 2 * p, q * q, k)[k] > 0, (N, k)


def test_shared_pass_accepts_every_seeded_window(shared_pass_60):
    # every root bracket of degree k >= 2 is settled by its seeded window,
    # no eigenvalue bracket tries one (each is its root's bracket mirrored),
    # and a root bracket is bisected only to lift its lower end off 0 (a root
    # below the window), and never once it is narrower than 1/1024
    _, narrows, root_steps = shared_pass_60
    assert len(narrows) == sum(N - 1 for N in range(2, 61)) and all(narrows)
    width = Fraction(1, 1024)
    assert all(lo == 0 or Fraction(hi - lo, 1 << e) > width for lo, hi, e in root_steps)


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


def _counted_exact(monkeypatch):
    """Count the calls of degree_of_regularity_exact the suites make, by shape."""
    calls, exact = Counter(), semireg.verify.degree_of_regularity_exact

    def counted(shape):
        calls[shape] += 1
        return exact(shape)

    monkeypatch.setattr(semireg.verify, "degree_of_regularity_exact", counted)
    return calls


def test_run_all_computes_each_d_reg_once(monkeypatch):
    # the sandwich reads the d_reg three-way computed
    calls = _counted_exact(monkeypatch)
    assert all(r.passed for r in run_all(20))
    assert calls == Counter(enumerate_shapes(20))
    assert sum(calls.values()) == 90


def test_sandwich_computes_the_d_reg_three_way_skipped(monkeypatch):
    # after a failure at N = 7, n = 1, three-way checks no shape of larger n,
    # so the sandwich computes those d_reg itself and still checks them all
    calls = _counted_exact(monkeypatch)
    dreg = semireg.roots._RootChain.dreg
    monkeypatch.setattr(semireg.roots._RootChain, "dreg",
                        lambda chain, t: dreg(chain, t) + (chain.N == 7))
    results = run_all(20)
    assert not results[3].passed
    assert results[5] == CheckResult("sandwich", 90, True)
    assert set(calls) == set(enumerate_shapes(20)) and sum(calls.values()) < 180


def _brackets(max_e=40):
    """Random dyadic brackets (num_lo, num_hi, e), point brackets included."""
    def build(e, lo, span):
        return lo, lo + span, e
    return st.integers(0, max_e).flatmap(lambda e: st.builds(
        build, st.just(e), st.integers(0, 64 << e),
        st.one_of(st.just(0), st.integers(0, 4 << e))))


def _frac(p, e):
    return Fraction(p, 1 << e)


@settings(max_examples=300, deadline=None)
@given(_brackets(), _brackets(), st.integers(0, 3), st.booleans())
def test_overlap_matches_the_fraction_comparison(upper, lower, shift, touch):
    if touch:
        # lower starts where upper ends, on a grid as fine or finer
        start = upper[1] << shift
        lower = (start, start + lower[1] - lower[0], upper[2] + shift)
    u_lo, u_hi = _frac(upper[0], upper[2]), _frac(upper[1], upper[2])
    l_lo, l_hi = _frac(lower[0], lower[2]), _frac(lower[1], lower[2])
    # a bracket that is not a point holds its root strictly inside
    both_points = u_lo == u_hi and l_lo == l_hi
    assert _overlaps(upper, lower) == (u_hi > l_lo or (u_hi == l_lo and both_points))


def test_overlap_of_touching_brackets():
    assert not _overlaps((1, 2, 3), (4, 9, 4))  # [1, 2]/8 and [4, 9]/16 touch at 1/4
    assert not _overlaps((2, 2, 3), (4, 9, 4))  # an exact root at the end of a bracket
    assert not _overlaps((1, 2, 3), (2, 2, 3))
    assert _overlaps((2, 2, 3), (4, 4, 4))      # two exact roots at one place
    assert _overlaps((1, 3, 3), (4, 9, 4))


def test_interlacing_passes_touching_brackets_at_470():
    # d_377^470(1) ~ 7.4e-40 is bisected off 0 inside [0, lo(376)] =
    # [0, 2^-129], so its bracket ends where that of d_376(1) starts and
    # neither is a point: the order is certified, where halving both
    # brackets down to 2^-128 did not separate them
    chain = semireg.roots._RootChain(470)
    assert _interlacing(chain) == (469, "")
    upper, lower = chain.bracket(377), chain.bracket(376)
    assert upper.hi == lower.lo == Fraction(1, 1 << 129)
    assert not upper.exact and not lower.exact
    assert not _overlaps(_nums(upper), _nums(lower))


def test_duality_reports_a_shifted_eigen_bracket(monkeypatch):
    # lambda_4 at N = 10 moved up by one in the minor signs that check it:
    # both ends of the mirrored root bracket then read negative, and the
    # suite must stop there
    eigen_sign = semireg.roots._eigen_sign

    def shifted(N, k, p, e):
        return eigen_sign(N, k, p - (((N, k) == (10, 4)) << e), e)

    monkeypatch.setattr(semireg.roots, "_eigen_sign", shifted)
    res = check_eigenvalue_root_duality(12)
    assert (res.passed, res.detail) == (False, "duality gap at N=10, k=4")
    assert res.checked == sum(range(2, 10))  # a chain that fails counts no case
    # the library routes that read that bracket raise the same gap
    for route in (lambda: semireg.roots.largest_eigenvalue(10, 4),
                  lambda: semireg.roots.dreg_via_eigenvalues(SystemShape(9, 8))):
        with pytest.raises(AssertionError, match=r"^duality gap at N=10, k=4$"):
            route()
    assert semireg.roots.dreg_via_eigenvalues(SystemShape(7, 4)) == 3  # decided below k = 4
