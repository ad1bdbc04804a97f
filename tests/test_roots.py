"""Tests for certified root enclosures and Golub-Kahan eigenvalue counting."""

import functools
import math
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semireg.roots as roots_mod
from semireg.exact import SystemShape, degree_of_regularity_exact
from semireg.krawtchouk import KrawtchoukParams, cleared_values, eval_exact, eval_integer
from semireg.roots import (
    dreg_via_eigenvalues,
    dreg_via_roots,
    largest_eigenvalue,
    smallest_root,
    smallest_root_chain,
)
from semireg.verify import check_three_way_agreement, enumerate_shapes, run_all

from oracle_utils import GolubKahanSpectrum, eigenvalue_count_below, sturm_count_below

WIDTH = Fraction(1, 10**6)


# ---------------------------------------------------------------- roots


def test_smallest_root_k1_is_exact_half():
    ri = smallest_root(36, 1, WIDTH)
    assert ri.is_point
    assert ri.lo == 18


def test_smallest_root_figure_values():
    r3 = smallest_root(36, 3, Fraction(1, 100))
    assert Fraction("12.84") < r3.lo and r3.hi < Fraction("12.86")
    r6 = smallest_root(36, 6, Fraction(1, 100))
    assert Fraction("8.44") < r6.lo and r6.hi < Fraction("8.46")


def test_smallest_root_d3_closed_form():
    # K_3^36 roots solve (36 - 2t)^2 = 106: smallest root (36 - sqrt(106)) / 2
    ri = smallest_root(36, 3, Fraction(1, 10**9))
    target = (36 - math.sqrt(106)) / 2
    assert abs(float(ri.mid) - target) < 1e-8


def test_smallest_root_width_and_signs():
    for N, k in [(20, 2), (36, 5), (47, 11), (61, 30)]:
        ri = smallest_root(N, k, WIDTH)
        assert ri.width <= WIDTH
        if not ri.is_point:
            assert eval_exact(KrawtchoukParams(N, k), ri.lo) > 0
            assert eval_exact(KrawtchoukParams(N, k), ri.hi) < 0
        else:
            assert eval_exact(KrawtchoukParams(N, k), ri.lo) == 0


def test_smallest_root_validates_k():
    with pytest.raises(ValueError):
        smallest_root(36, 0)
    with pytest.raises(ValueError):
        smallest_root(36, 37)


@contextmanager
def _deadline(seconds):
    # a call that never returns fails the test instead of stalling the suite
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("width", [0, Fraction(-1, 2), -1e-3],
                         ids=["zero", "negative", "negative-float"])
def test_non_positive_width_refused(width):
    with _deadline(30):
        with pytest.raises(ValueError, match="positive width"):
            smallest_root(36, 3, width)
        with pytest.raises(ValueError, match="positive width"):
            largest_eigenvalue(36, 3, width)
        with pytest.raises(ValueError, match="positive width"):
            largest_eigenvalue(36, 1, width)
        with pytest.raises(ValueError, match="positive width"):
            run_all(5, width)


def test_float_width_taken_exactly():
    with _deadline(60):
        assert smallest_root(36, 3, 1e-3) == smallest_root(36, 3, Fraction(1e-3))
        assert largest_eigenvalue(36, 3, 1e-3) == largest_eigenvalue(36, 3, Fraction(1e-3))
        assert run_all(12, 1e-3) == run_all(12, Fraction(1e-3)) == run_all(12, Fraction(1, 1000))


def test_chain_is_strictly_decreasing():
    for N in (12, 36, 53):
        chain = smallest_root_chain(N, N, Fraction(1, 4096))
        for prev, cur in zip(chain, chain[1:]):
            assert cur.hi < prev.lo or (cur.is_point and prev.is_point and cur.lo < prev.lo)
        # every root lies in (0, N): the chain certifies lo > 0 at its smallest
        assert 0 < chain[-1].lo and chain[0].hi < N


def test_refining_k_by_k_does_not_compound_the_exponent():
    # each bracket is made before the one it is built from is refined, so
    # refining k = 1, 2, ... to 2^-200 leaves every exponent near 200, not
    # about 200 k
    chain = roots_mod._RootChain(24)
    width = Fraction(1, 1 << 200)
    with _deadline(60):
        for k in range(1, 25):
            br = chain.refine(k, width)
            assert br.hi - br.lo <= width
    assert max(chain.bracket(k).e for k in range(1, 25)) <= 208
    assert chain.bracket(1).exact and chain.bracket(1).lo == 12


def test_dreg_via_roots_examples():
    assert dreg_via_roots(SystemShape(24, 12)) == 4
    assert dreg_via_roots(SystemShape(2, 1)) == degree_of_regularity_exact(SystemShape(2, 1))
    assert dreg_via_roots(SystemShape(512, 256), ceiling=1024) == 29


def test_dreg_via_roots_respects_ceiling():
    with pytest.raises(ValueError):
        dreg_via_roots(SystemShape(512, 256))  # N = 768 > default 512


# ---------------------------------------------------------------- eigenvalues


def test_largest_eigenvalue_trivial_sizes():
    assert largest_eigenvalue(36, 1, WIDTH).is_point
    assert largest_eigenvalue(36, 1, WIDTH).lo == 0
    e2 = largest_eigenvalue(36, 2, WIDTH)
    assert e2.lo <= 6 <= e2.hi  # eigenvalues of the 2x2 matrix are +-6
    e2_16 = largest_eigenvalue(16, 2, WIDTH)
    assert e2_16.lo <= 4 <= e2_16.hi


def test_largest_eigenvalue_hand_oracles():
    # k = 3: lambda^3 - 106 lambda = 0 -> sqrt(106)
    e3 = largest_eigenvalue(36, 3, Fraction(1, 10**6))
    assert abs(float(e3.mid) - math.sqrt(106)) < 1e-5
    # k = 4: lambda^4 - 208 lambda^2 + 3672 = 0 -> sqrt((208 + sqrt(28576)) / 2)
    e4 = largest_eigenvalue(36, 4, Fraction(1, 10**6))
    target = math.sqrt((208 + math.sqrt(208**2 - 4 * 3672)) / 2)
    assert abs(float(e4.mid) - target) < 1e-5


def test_eigenvalue_width_honored():
    for N, k in [(36, 5), (61, 13), (100, 40)]:
        enc = largest_eigenvalue(N, k, WIDTH)
        assert enc.width <= WIDTH


def _dense_matrix(N, k):
    a = np.zeros((k, k))
    for i in range(k - 1):
        b = math.sqrt((i + 1) * (N - i))
        a[i, i + 1] = a[i + 1, i] = b
    return a


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.data())
def test_sturm_count_matches_numpy(N, data):
    k = data.draw(st.integers(1, min(N, 9)))
    num = data.draw(st.integers(-N * 8, N * 8))
    x = Fraction(num, 8)
    eigs = np.linalg.eigvalsh(_dense_matrix(N, k))
    if min(abs(float(x) - ev) for ev in eigs) < 1e-6:
        return  # too close to an eigenvalue for the float oracle to arbitrate
    assert eigenvalue_count_below(N, k, x) == int((eigs < float(x)).sum())


def test_count_below_at_exact_eigenvalue_is_strict():
    # 2x2 with N = 16 has eigenvalues -4, 4: strictly-below counts at the
    # eigenvalues themselves must exclude them.
    assert eigenvalue_count_below(16, 2, 4) == 1
    assert eigenvalue_count_below(16, 2, -4) == 0
    assert eigenvalue_count_below(16, 2, 0) == 1


def test_golub_kahan_spectrum_record():
    gk = GolubKahanSpectrum.compute(36, 4, WIDTH)
    assert gk.squared_offdiagonals == (36, 70, 102)
    lam = gk.lambda_max
    d4 = smallest_root(36, 4, WIDTH)
    # duality lambda = N - 2 d_k(1) within combined widths
    assert abs(float((36 - 2 * d4.mid) - lam.mid)) <= float(2 * d4.width + lam.width)


def test_dreg_via_eigenvalues_examples():
    assert dreg_via_eigenvalues(SystemShape(24, 12)) == 4
    s = SystemShape(2, 1)
    assert dreg_via_eigenvalues(s) == degree_of_regularity_exact(s)
    assert dreg_via_eigenvalues(SystemShape(356, 256)) == 48  # N = 456 within ceiling


def test_dreg_via_eigenvalues_respects_ceiling():
    with pytest.raises(ValueError):
        dreg_via_eigenvalues(SystemShape(512, 256))  # N = 768 > default 512


def test_tie_shapes_where_threshold_is_hit_exactly():
    # (3, 2) has K_2^4(1) = 0: the smallest root sits exactly on t and the
    # top eigenvalue exactly on n, so both strict tests must exclude k = 2.
    for m, n in [(3, 2), (6, 3), (5, 4), (10, 4)]:
        s = SystemShape(m, n)
        d = degree_of_regularity_exact(s)
        assert eval_exact(KrawtchoukParams(s.N, d), s.t) == 0
        assert dreg_via_roots(s) == d
        assert dreg_via_eigenvalues(s) == d


def _misleading_kernels(monkeypatch, at_threshold):
    """Negate and record the root and eigen signs at the thresholds at_threshold(N, n) picks.

    The root sign at x = t (p = t, e = 0, so N 2^e - 2p = n) and the eigen
    sign at x = n are evaluations at the integer threshold: k! c_k, the
    integers the exact route reads.  Negated, they would mislead a route
    that decides from them.
    """
    real_root, real_eigen = roots_mod._sign_at_dyadic, roots_mod._eigen_sign
    reads = []

    def root(N, k, p, e):
        out = real_root(N, k, p, e)
        if e == 0 and at_threshold(N, N - 2 * p):
            reads.append((N, N - 2 * p))
            return -out
        return out

    def eigen(N, k, p, e):
        out = real_eigen(N, k, p, e)
        if e == 0 and at_threshold(N, p):
            reads.append((N, p))
            return -out
        return out

    monkeypatch.setattr(roots_mod, "_sign_at_dyadic", root)
    monkeypatch.setattr(roots_mod, "_eigen_sign", eigen)
    return reads


def test_routes_decide_from_their_brackets_not_the_threshold(monkeypatch):
    # away from a tie neither route may read its threshold sign at all
    current = {}
    threshold_reads = _misleading_kernels(
        monkeypatch, lambda N, n: (N, n) == (current["shape"].N, current["shape"].n))
    checked = 0
    for shape in enumerate_shapes(30):
        d = degree_of_regularity_exact(shape)
        if eval_integer(shape.N, d, shape.t) == 0:
            continue  # a tie: the pivot must read the threshold
        current["shape"] = shape
        assert dreg_via_roots(shape) == d, shape
        assert dreg_via_eigenvalues(shape) == d, shape
        checked += 1
    assert checked == 186
    assert threshold_reads == []


def test_shared_pass_decides_from_its_brackets_not_the_threshold(monkeypatch):
    # The suite path of the test above: every shape of one N reads that N's
    # shared brackets.  The threshold evaluations of the non-tie shapes are
    # negated; the tie shapes keep theirs, which their pivots must read.
    shapes = list(enumerate_shapes(30))
    non_tie = {(s.N, s.n) for s in shapes
               if eval_integer(s.N, degree_of_regularity_exact(s), s.t) != 0}
    assert len(non_tie) == 186
    threshold_reads = _misleading_kernels(monkeypatch, lambda N, n: (N, n) in non_tie)
    res = check_three_way_agreement(30)
    assert (res.checked, res.passed) == (len(shapes), True)
    assert run_all(30)[3] == res
    assert threshold_reads == []


# ---------------------------------------------------------------- float seeds

SEED_WIDTH = Fraction(1, 1 << 20)
# (suite, cases, passed) of run_all(20); bisection alone gives the same
RUN_ALL_20 = [("interlacing", 190, True), ("gf_identity", 90, True),
              ("orthogonality", 1770, True), ("three_way_agreement", 90, True),
              ("eigenvalue_root_duality", 209, True), ("sandwich", 90, True)]


def _overlap(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


def _refuse_windows(mp):
    mp.setattr(roots_mod.DyadicBracket, "narrow", lambda self, guess, width: False)


@pytest.fixture(scope="module")
def bisected():
    """Root and eigenvalue enclosures at N = 36 by bisection alone."""
    with pytest.MonkeyPatch.context() as mp:
        _refuse_windows(mp)
        chain = smallest_root_chain(36, 36, SEED_WIDTH)
        eigen = [largest_eigenvalue(36, k, SEED_WIDTH) for k in range(1, 37)]
        assert [(r.name, r.checked, r.passed) for r in run_all(20)] == RUN_ALL_20
    return chain, eigen


@pytest.mark.parametrize("seed", [
    lambda N, k, lo, hi: lo + 0.375,  # wrong: a window away from the root
    lambda N, k, lo, hi: math.nan,
    lambda N, k, lo, hi: math.inf,
    lambda N, k, lo, hi: -1.0,        # outside every root and eigenvalue bracket
], ids=["wrong", "nan", "inf", "outside"])
def test_bad_float_seed_falls_back_to_bisection(monkeypatch, bisected, seed):
    accepted = []
    narrow = roots_mod.DyadicBracket.narrow

    def recorded(self, guess, width):
        accepted.append(narrow(self, guess, width))
        return accepted[-1]

    monkeypatch.setattr(roots_mod, "_root_seed", seed)
    monkeypatch.setattr(roots_mod.DyadicBracket, "narrow", recorded)
    chain_ref, eigen_ref = bisected
    chain = smallest_root_chain(36, 36, SEED_WIDTH)
    for ri, ref in zip(chain, chain_ref):
        assert ri.width <= SEED_WIDTH and _overlap(ri, ref)
    for k, ref in enumerate(eigen_ref, 1):
        enc = largest_eigenvalue(36, k, SEED_WIDTH)
        assert enc.width <= SEED_WIDTH and _overlap(enc, ref)
    assert False in accepted  # the fallback path ran
    assert [(r.name, r.checked, r.passed) for r in run_all(20)] == RUN_ALL_20


def test_float_seed_settles_most_brackets(monkeypatch):
    # the real seed's windows are accepted: two signs per bracket instead of
    # about twenty bisection steps
    evaluations = []
    real = roots_mod._sign_at_dyadic

    def counted(*args):
        evaluations.append(args)
        return real(*args)

    monkeypatch.setattr(roots_mod, "_sign_at_dyadic", counted)
    assert [(r.name, r.checked, r.passed) for r in run_all(20)] == RUN_ALL_20
    del evaluations[:]
    smallest_root_chain(36, 36, SEED_WIDTH)
    seeded = len(evaluations)
    _refuse_windows(monkeypatch)
    del evaluations[:]
    smallest_root_chain(36, 36, SEED_WIDTH)
    assert 3 * seeded < len(evaluations)


def test_warm_start_right_of_the_root_restarts_at_the_last_root(monkeypatch):
    # an extrapolation just right of d_5^30(1) comes back from Newton
    # unmoved, so the seed restarts at d_5^29(1), which is left of it
    def refined(chain):  # brackets 1..5, each refined before the next is made
        for k in range(1, 6):
            chain.refine(k, SEED_WIDTH)
        return chain

    last = refined(roots_mod._RootChain(29)).seeds[5]
    root = refined(roots_mod._RootChain(30)).seeds[5]
    chain = roots_mod._RootChain(30)
    chain.warm = ({5: last}, {5: 2 * last - (root + 0.01)})  # starts at root + 0.01
    starts = []
    real = roots_mod._root_seed

    def recorded(N, k, lo, hi):
        starts.append((k, lo))
        return real(N, k, lo, hi)

    monkeypatch.setattr(roots_mod, "_root_seed", recorded)
    br = refined(chain).bracket(5)
    assert [lo for k, lo in starts if k == 5] == [root + 0.01, last]
    assert abs(chain.seeds[5] - root) < 1e-9
    assert br.hi - br.lo == SEED_WIDTH and br.lo < Fraction(root) < br.hi


# ---------------------------------------------------------------- tiny-root signs

BAND_WIDTH = Fraction(1, 1 << 100)


def _sign(v):
    return (v > 0) - (v < 0)


def _recurrence_sign(N, k):
    """The root sign with the tiny-root bounds taken out: the recurrence alone."""
    return lambda p, e: -cleared_values(N, (N << e) - 2 * p, 1 << (2 * e), k)[k]


@functools.lru_cache(maxsize=None)
def _bracket_ends(N):
    """(k, p, e) at both ends of each bracket of d_k^N(1) < 1 refined to 2^-100.

    The ends lie within 2^-100 of a root, mostly in the band where neither
    bound decides the sign.
    """
    chain = roots_mod._RootChain(N)
    chain.bracket(N)  # every bracket is made before any is refined past the seed
    ends = []
    for k in range(1, N + 1):
        br = chain.refine(k, BAND_WIDTH)
        if br.num_hi >> br.e == 0:
            ends += [(k, br.num_lo, br.e), (k, br.num_hi, br.e)]
    return tuple(ends)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_tiny_root_sign_matches_the_recurrence(data):
    if data.draw(st.booleans(), label="at a bracket end"):
        N = 60
        k, p, e = data.draw(st.sampled_from(_bracket_ends(N)), label="end")
        p += data.draw(st.integers(-2, 2), label="offset")
    else:
        N = data.draw(st.integers(1, 120), label="N")
        k = data.draw(st.integers(1, N), label="k")
        e = data.draw(st.integers(0, 160), label="e")
        p = data.draw(st.integers(0, (1 << e) - 1), label="p")
    assert _sign(roots_mod._root_sign(N, k)(p, e)) == _sign(_recurrence_sign(N, k)(p, e))


def test_tiny_root_sign_falls_back_in_the_band(monkeypatch):
    # at the ends of a narrow bracket of d_40^60(1) ~ 0.031 neither bound
    # decides, so the recurrence must; twice the root or half of it, a bound does
    calls = []
    real = roots_mod._sign_at_dyadic
    monkeypatch.setattr(roots_mod, "_sign_at_dyadic", lambda *a: calls.append(a) or real(*a))
    br = roots_mod._RootChain(60).refine(40, BAND_WIDTH)
    assert 0 < br.lo < br.hi < 1
    sign = roots_mod._root_sign(60, 40)
    calls.clear()
    assert sign(br.num_lo, br.e) < 0 < sign(br.num_hi, br.e)
    assert len(calls) == 2
    calls.clear()
    assert sign(br.num_lo // 2, br.e) < 0 < sign(2 * br.num_hi, br.e)
    assert calls == []


def test_chain_fallback_reads_the_bracket_sign(monkeypatch):
    # with every seeded window refused, _extend's fallback loop decides
    # where d_k(1) lies; it must read the one sign function its bracket
    # keeps, so the tiny-root bounds serve it too
    made, inside = {}, []
    real_root_sign, real_sign_at = roots_mod._root_sign, roots_mod._sign_at_dyadic

    def root_sign(N, k):
        real = real_root_sign(N, k)

        def sign(p, e):
            inside.append(k)
            try:
                return real(p, e)
            finally:
                inside.pop()

        made.setdefault(k, []).append(sign)
        return sign

    def sign_at_dyadic(N, k, p, e):
        assert inside == [k], "a root sign read past the bracket's sign function"
        return real_sign_at(N, k, p, e)

    _refuse_windows(monkeypatch)
    monkeypatch.setattr(roots_mod, "_root_sign", root_sign)
    monkeypatch.setattr(roots_mod, "_sign_at_dyadic", sign_at_dyadic)
    chain = roots_mod._RootChain(40)
    for k in range(1, 41):
        sign_at = chain.bracket(k).sign_at
        assert made[k] == [sign_at]
    assert chain.bracket(40).hi < 1


def test_tiny_root_signs_skip_the_recurrence_at_256(monkeypatch):
    # the full chain at N = 256: most signs left of 1 never run the recurrence
    below_one, recurrence = [0], [0]
    real_root_sign, real = roots_mod._root_sign, roots_mod._sign_at_dyadic

    def root_sign(N, k):
        inner = real_root_sign(N, k)

        def sign(p, e):
            below_one[0] += p >> e == 0
            return inner(p, e)
        return sign

    def sign_at_dyadic(N, k, p, e):
        recurrence[0] += p >> e == 0
        return real(N, k, p, e)

    monkeypatch.setattr(roots_mod, "_root_sign", root_sign)
    monkeypatch.setattr(roots_mod, "_sign_at_dyadic", sign_at_dyadic)
    smallest_root_chain(256, 256)
    assert below_one[0] > 400
    assert recurrence[0] <= 0.2 * below_one[0]


def test_tiny_root_bounds_leave_the_enclosures_unchanged(monkeypatch):
    fast = smallest_root_chain(128, 128)
    monkeypatch.setattr(roots_mod, "_root_sign", _recurrence_sign)
    assert smallest_root_chain(128, 128) == fast


# ---------------------------------------------------------------- sign kernels


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_root_kernel_matches_the_cleared_values(data):
    N = data.draw(st.integers(1, 120), label="N")
    k = data.draw(st.integers(1, N), label="k")
    e = data.draw(st.integers(0, 160), label="e")
    p = data.draw(st.integers(0, N << e), label="p")
    assert roots_mod._sign_at_dyadic(N, k, p, e) == cleared_values(
        N, (N << e) - 2 * p, 1 << (2 * e), k)[k]


@functools.lru_cache(maxsize=None)
def _eigen_ends(N):
    """(k, p, e) at both ends of each bracket of lambda_k^N refined to 2^-100."""
    ends = []
    for k in range(2, N + 1):
        br = roots_mod._eigen_bracket(N, k)
        br.refine(BAND_WIDTH)
        ends += [(k, br.num_lo, br.e), (k, br.num_hi, br.e)]
    return tuple(ends)


@st.composite
def _eigen_points(draw):
    """(N, k, p, e): near a bracket end of lambda_k^40, or anywhere in [-N, N]."""
    if draw(st.booleans(), label="at a bracket end"):
        k, p, e = draw(st.sampled_from(_eigen_ends(40)), label="end")
        return 40, k, p + draw(st.integers(-2, 2), label="offset"), e
    N = draw(st.integers(1, 60), label="N")
    k = draw(st.integers(1, N), label="k")
    e = draw(st.integers(0, 80), label="e")
    return N, k, draw(st.integers(-N << e, N << e), label="p"), e


@settings(max_examples=200, deadline=None)
@given(_eigen_points())
@example((4, 2, 2, 0))  # T_2 at N = 4 has eigenvalues -2, 2
@example((9, 2, 3, 0))  # and at N = 9, -3, 3
def test_eigen_sign_matches_the_sturm_count(point):
    # Sylvester's criterion read in one pass gives the sign the Sturm count
    # gives: positive above lambda_k, zero exactly at it, negative below
    N, k, p, e = point
    count, singular = sturm_count_below(N, k, p, e)
    expected = 1 if count == k else 0 if singular and count == k - 1 else -1
    assert _sign(roots_mod._eigen_sign(N, k, p, e)) == expected
