"""Tests for certified root enclosures and Golub-Kahan eigenvalue counting."""

import functools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semireg.exact
import semireg.roots as roots_mod
from semireg.exact import SystemShape, degree_of_regularity_exact, krawtchouk_stream
from semireg.intervals import Enclosure
from semireg.krawtchouk import eval_integer
from semireg.roots import (
    DEFAULT_WIDTH,
    dreg_via_eigenvalues,
    dreg_via_roots,
    largest_eigenvalue,
    smallest_root,
    smallest_root_chain,
)
from semireg.verify import check_three_way_agreement, enumerate_shapes, run_all

from oracle_utils import (GolubKahanSpectrum, cleared_values, eigenvalue_count_below, eval_exact,
                          sturm_count_below, time_limit, wrong_root_sign)

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
            assert eval_exact(N, k, ri.lo) > 0
            assert eval_exact(N, k, ri.hi) < 0
        else:
            assert eval_exact(N, k, ri.lo) == 0


def test_smallest_root_validates_k():
    with pytest.raises(ValueError):
        smallest_root(36, 0)
    with pytest.raises(ValueError):
        smallest_root(36, 37)


@pytest.mark.parametrize("width", [0, Fraction(-1, 2), -1e-3, math.inf, -math.inf, math.nan],
                         ids=["zero", "negative", "negative-float", "inf", "minus-inf", "nan"])
def test_non_positive_width_refused(width):
    with time_limit(30):
        with pytest.raises(ValueError, match="positive width"):
            smallest_root(36, 3, width)
        with pytest.raises(ValueError, match="positive width"):
            largest_eigenvalue(36, 3, width)
        with pytest.raises(ValueError, match="positive width"):
            largest_eigenvalue(36, 1, width)


def test_float_width_taken_exactly():
    with time_limit(60):
        assert smallest_root(36, 3, 1e-3) == smallest_root(36, 3, Fraction(1e-3))
        assert largest_eigenvalue(36, 3, 1e-3) == largest_eigenvalue(36, 3, Fraction(1e-3))


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
    with time_limit(60):
        for k in range(1, 25):
            br = chain.refine(k, width)
            assert br.hi - br.lo <= width
    assert max(chain.bracket(k).e for k in range(1, 25)) <= 208
    assert chain.bracket(1).exact and chain.bracket(1).lo == 12


def test_extend_takes_an_exact_zero_at_the_previous_lo(monkeypatch):
    # K_3^6(x) = s (s^2 - 16) / 6 with s = 6 - 2x, so d_3^6(1) = 1 exactly.
    # Given bracket 2 = [1, 2] and no seeded window, bracket 3 meets that zero
    # at bracket 2's lo: it is the exact point 1, and bracket 2 is not bisected
    _refuse_windows(monkeypatch)
    chain = roots_mod._RootChain(6)
    chain.bracket(1)
    chain._brackets.append(roots_mod.DyadicBracket(roots_mod._root_sign(6, 2), 1, 2, 0))
    br = chain.bracket(3)
    assert br.exact and (br.num_lo, br.num_hi, br.e) == (1, 1, 0)
    assert (chain.bracket(2).num_lo, chain.bracket(2).num_hi, chain.bracket(2).e) == (1, 2, 0)


def test_dreg_via_roots_examples():
    assert dreg_via_roots(SystemShape(24, 12)) == 4
    assert dreg_via_roots(SystemShape(2, 1)) == degree_of_regularity_exact(SystemShape(2, 1))
    assert dreg_via_roots(SystemShape(512, 256), ceiling=1024) == 29


def test_dreg_via_roots_respects_ceiling():
    with pytest.raises(ValueError):
        dreg_via_roots(SystemShape(512, 256))  # N = 768 > default 512


# ---------------------------------------------------------------- eigenvalues


def test_largest_eigenvalue_trivial_sizes():
    # lambda_1 = 0 is made an exact point, at any N and width
    for N, width in [(36, WIDTH), (1, 1e-30), (10**400, Fraction(1, 3))]:
        assert largest_eigenvalue(N, 1, width) == Enclosure.point(0)
    assert roots_mod._RootChain(36).eigen(1).exact
    e2 = largest_eigenvalue(36, 2, WIDTH)
    assert e2.lo <= 6 <= e2.hi  # eigenvalues of the 2x2 matrix are +-6
    e2_16 = largest_eigenvalue(16, 2, WIDTH)
    assert e2_16.lo <= 4 <= e2_16.hi


@pytest.mark.parametrize("k", [0, -1, 37])
def test_eigen_refuses_k_outside_1_to_n(k):
    chain = roots_mod._RootChain(36)
    for ask in (lambda: chain.eigen(k), lambda: largest_eigenvalue(36, k, 0)):
        with pytest.raises(ValueError, match=f"requires 1 <= k <= N=36; got k={k}"):
            ask()


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "every-seed-NaN"])
def test_every_bracket_is_made_at_most_default_width_wide(monkeypatch, seeded):
    # verify and the routes pass no width: the chain makes every bracket of
    # d_k(1) that narrow, cold and warm from the chain of N - 1, also where no
    # seeded window is accepted and bisection does it all.  The bracket of
    # lambda_k holds N - 2 times it, each end less than 2^-21 outside, and is
    # rounded to the 2^-21 grid where it is finer: its minor signs never run
    # at a tiny root's exponent
    if not seeded:
        monkeypatch.setattr(roots_mod._RootChain, "_seed", lambda self, k, br: math.nan)
    grid = Fraction(1, 1 << 21)
    previous = None
    for N in range(2, 81 if seeded else 25):
        cold, previous = roots_mod._RootChain(N), roots_mod._RootChain(N, previous)
        for chain in (cold, previous):
            for k in range(1, N + 1):
                root, lam = chain.bracket(k), chain.eigen(k)
                assert root.hi - root.lo <= DEFAULT_WIDTH, (N, k)
                assert 0 <= (N - 2 * root.hi) - lam.lo < grid, (N, k)
                assert 0 <= lam.hi - (N - 2 * root.lo) < grid, (N, k)
                assert lam.e == min(root.e, 21), (N, k)


def test_routes_make_brackets_only_up_to_the_degree_they_decide(monkeypatch):
    chains = []

    class Recorded(roots_mod._RootChain):
        def __init__(self, N, previous=None):
            super().__init__(N, previous)
            chains.append(self)

    monkeypatch.setattr(roots_mod, "_RootChain", Recorded)
    for shape in enumerate_shapes(30):
        d = degree_of_regularity_exact(shape)
        assert dreg_via_eigenvalues(shape) == d
        assert sorted(chains.pop()._eigen) == list(range(1, d + 1))
        assert dreg_via_roots(shape) == d
        assert len(chains.pop()._brackets) == d


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
        assert eval_exact(s.N, d, s.t) == 0
        assert dreg_via_roots(s) == d
        assert dreg_via_eigenvalues(s) == d


def _misleading_kernels(monkeypatch, at_threshold):
    """Negate and record the root and eigen signs at the thresholds at_threshold(N, n) picks.

    The root sign at x = t (p = t, e = 0, so N 2^e - 2p = n) and the eigen
    sign at x = n are evaluations at the integer threshold: k! c_k, the
    integers the exact route reads.  Negated, they would mislead a route
    that decides from them.
    """
    real_root, real_eigen = roots_mod._explicit_sum, roots_mod._eigen_sign
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

    monkeypatch.setattr(roots_mod, "_explicit_sum", root)
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
    lambda N, k, lo=0, hi=None: lo + 0.375,  # wrong: a window away from the root
    lambda N, k, lo=0, hi=None: math.nan,
    lambda N, k, lo=0, hi=None: math.inf,
    lambda N, k, lo=0, hi=None: -1.0,        # outside every root and eigenvalue bracket
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
    real = roots_mod._explicit_sum

    def counted(*args):
        evaluations.append(args)
        return real(*args)

    monkeypatch.setattr(roots_mod, "_explicit_sum", counted)
    assert [(r.name, r.checked, r.passed) for r in run_all(20)] == RUN_ALL_20
    del evaluations[:]
    smallest_root_chain(36, 36, SEED_WIDTH)
    seeded = len(evaluations)
    _refuse_windows(monkeypatch)
    del evaluations[:]
    smallest_root_chain(36, 36, SEED_WIDTH)
    assert 3 * seeded < len(evaluations)


def test_warm_start_right_of_the_root_restarts_at_the_last_root(monkeypatch):
    # an extrapolation just right of d_5^30(1) comes back from the seed
    # unmoved, so the seed restarts at d_5^29(1), which is left of it
    def refined(chain):  # brackets 1..5, each refined before the next is made
        for k in range(1, 6):
            chain.refine(k, SEED_WIDTH)
        return chain

    last = refined(roots_mod._RootChain(29)).seeds[5]
    root = refined(roots_mod._RootChain(30)).seeds[5]
    # a chain of N - 1 whose seeds start the extrapolation at root + 0.01
    previous = SimpleNamespace(seeds={5: last}, warm=({5: 2 * last - (root + 0.01)},))
    chain = roots_mod._RootChain(30, previous)
    starts = []
    real = roots_mod._root_seed

    def recorded(N, k, lo=0, hi=None):
        starts.append((k, lo))
        return real(N, k, lo, hi)

    monkeypatch.setattr(roots_mod, "_root_seed", recorded)
    br = refined(chain).bracket(5)
    assert [lo for k, lo in starts if k == 5] == [root + 0.01, last]
    assert abs(chain.seeds[5] - root) < 1e-9
    assert br.hi - br.lo == SEED_WIDTH and br.lo < Fraction(root) < br.hi


def test_refining_a_made_bracket_runs_no_newton(monkeypatch):
    # each bracket keeps the seed it was made with; refining past its 2^-20
    # window tries that float again, so no float recurrence runs
    chain = roots_mod._RootChain(36)
    chain.bracket(36)
    evaluations = []
    real = roots_mod._explicit_sum

    def counted(*args):
        evaluations.append(args)
        return real(*args)

    monkeypatch.setattr(semireg.exact, "_krawtchouk_ratios",
                        lambda N, k, x: pytest.fail("a float seed ran"))
    monkeypatch.setattr(roots_mod, "_explicit_sum", counted)
    width = Fraction(1, 1 << 40)
    for k in range(1, 37):
        assert chain.refine(k, width).enclosure().width <= width
    assert len(evaluations) <= 2 * 35  # the kept seeds' windows are accepted


@pytest.mark.parametrize("max_N,accepted", [(60, 1770), (128, 8128)])
def test_every_seeded_window_is_accepted(monkeypatch, max_N, accepted):
    # every root bracket of degree k >= 2 that run_all makes tries its float
    # seed's window once, and two exact signs accept each: a float kernel or
    # a seed that lands worse shows here as a refused window.  No eigenvalue
    # bracket tries one: each is its root's bracket mirrored
    results = []
    narrow = roots_mod.DyadicBracket.narrow
    monkeypatch.setattr(roots_mod.DyadicBracket, "narrow",
                        lambda self, guess, width: results.append(narrow(self, guess, width))
                        or results[-1])
    run_all(max_N)
    assert (results.count(True), results.count(False)) == (accepted, 0)


@pytest.mark.parametrize("N", [171, 200, 256, 320, 512])
def test_tiny_roots_are_seeded_by_the_tiny_root_bound(monkeypatch, N):
    # past k = N/2 the float recurrence is unstable left of tiny roots, and
    # Laguerre seeds from warm starts landed right of them (N = 171,
    # k = 138: 9.31e-15 against a bracket hi of 7.11e-15).  Where hi < 1
    # and r H_(k-1) < 2^-20, r = C(N, k) / B0 <= d_k(1) seeds instead.  That
    # r can lie right of the bracket's hi = prev.lo, inside the bracket of
    # d_(k-1)(1) (N = 320, k = 208; N = 512, k = 318..338), and prev is
    # stepped until its lo passes r.  So in the chains verify makes, warm
    # from N - 2 and N - 1, no window of degree k >= 2 is refused
    chain = roots_mod._RootChain(N - 1, roots_mod._RootChain(N - 2))
    chain.bracket(N - 1)
    results = []
    narrow = roots_mod.DyadicBracket.narrow
    monkeypatch.setattr(roots_mod.DyadicBracket, "narrow",
                        lambda self, guess, width: results.append(narrow(self, guess, width))
                        or results[-1])
    chain = roots_mod._RootChain(N, chain)
    chain.bracket(N)
    assert results == [True] * (N - 1)
    tiny = 0
    for k in range(2, N + 1):
        br = chain.bracket(k)
        c, L, b0, h = roots_mod._tiny_terms(N, k)
        if br.num_hi >> br.e == 0 and c * h << 20 < b0:
            tiny += 1
            assert chain.seeds[k] == c * L / b0 and Fraction(c * L, b0) <= br.hi
    assert tiny >= N // 4


def _prev_point(where):
    """A `_RootChain._seed` stand-in: `where` of the bracket of d_(k-1)(1), as a float."""
    return lambda self, k, br: float(where(self._brackets[-1]))


@pytest.mark.parametrize("where", [
    lambda prev: prev.lo,
    lambda prev: prev.hi,
    lambda prev: (prev.lo + prev.hi) / 2,
    lambda prev: prev.lo + (prev.hi - prev.lo) / 1000,
    lambda prev: prev.hi - (prev.hi - prev.lo) / 1000,
    lambda prev: 2 * prev.hi,
    lambda prev: 1e308,  # seed 2^e overflows a float
], ids=["lo", "hi", "middle", "just-right-of-lo", "just-left-of-hi", "past-hi", "1e308"])
def test_seed_at_the_previous_bracket_falls_back(monkeypatch, where):
    # a seed inside the bracket of d_(k-1)(1) steps it until the seed is
    # outside; a seed that is wrong, or on or past its ends, is refused and
    # bisection takes over, and every bracket still encloses its root
    N = 40
    reference = smallest_root_chain(N, N, SEED_WIDTH)
    monkeypatch.setattr(roots_mod._RootChain, "_seed", _prev_point(where))
    chain = roots_mod._RootChain(N)
    for k, ref in enumerate(reference, 1):
        enc = chain.refine(k, SEED_WIDTH).enclosure()
        assert enc.width <= SEED_WIDTH and _overlap(enc, ref), k


def test_seed_next_to_the_previous_root_ends_the_stepping(monkeypatch):
    # bracket 5 stands in for a root 2^-100 right of the seed.  A float has
    # 53 bits, so stepping makes the seed prev's lower end long before prev
    # is narrower than the 2^-64 min(1, lo) budget; the window at the seed
    # is then refused, bisection takes over and nothing raises
    N, k = 40, 6
    reference = smallest_root(N, k, SEED_WIDTH)
    chain = roots_mod._RootChain(N)
    prev = chain.bracket(k - 1)
    seed = float(prev.lo + (prev.hi - prev.lo) / 3)
    root = Fraction(seed) + Fraction(1, 1 << 100)
    prev.sign_at = lambda p, e: (Fraction(p, 1 << e) > root) - (Fraction(p, 1 << e) < root)
    monkeypatch.setattr(roots_mod._RootChain, "_seed", lambda self, k, br: seed)
    enc = chain.refine(k, SEED_WIDTH).enclosure()
    assert enc.width <= SEED_WIDTH and _overlap(enc, reference)
    assert prev.lo == seed
    assert (prev.num_hi - prev.num_lo) << 64 > min(prev.num_lo, 1 << prev.e)


def test_lift_off_bound_holds_at_512_511():
    # d_511^512(1) is about 1e-149: bisecting (0, 1] lifts lo off 0 within
    # the proven ceil(log2(B0 / C(N, k))) + 1 steps, and the bound is tight
    N, k = 512, 511
    budget = roots_mod._lift_off_steps(N, k, 1, 0)
    br = roots_mod.DyadicBracket(roots_mod._root_sign(N, k), 0, 1, 0)
    steps = 0
    while br.num_lo == 0:
        br.step()
        steps += 1
    assert budget - 1 <= steps <= budget
    assert 1e-150 < br.lo < 1e-148
    # the chain's own lift-off loop at the same degree stays within its bound
    budgets, real = [], roots_mod._lift_off_steps

    def recorded(*args):
        budgets.append(real(*args))
        return budgets[-1]

    chain = roots_mod._RootChain(N)
    chain.bracket(k - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots_mod, "_lift_off_steps", recorded)
        assert 1e-150 < chain.bracket(k).lo < 1e-148
    assert budgets and budgets[0] > 0


def test_lift_off_stops_a_wrong_kernel(monkeypatch):
    # with j (N - j + 2) for j (N - j + 1) and no tiny-root bounds, the wrong
    # K_3^3(0) is -3: bisection of (0, prev.lo] would halve toward 0 forever
    monkeypatch.setattr(roots_mod, "_root_sign", wrong_root_sign)
    with pytest.raises(AssertionError, match="N=3, k=3: lo stayed 0"):
        roots_mod._RootChain(3).bracket(3)


def _never_positive_at(degree):
    """`roots._root_sign` with K_degree > 0 everywhere: its bracket's sign never turns."""
    real = roots_mod._root_sign
    return lambda N, k: (lambda p, e: -1) if k == degree else real(N, k)


def test_separation_loop_stops_a_kernel_that_never_turns_positive(monkeypatch):
    # a refused window sends _extend to step bracket k - 1 until K_k <= 0 at
    # its lower end; a K_k that stays positive would step it forever
    monkeypatch.setattr(roots_mod, "_root_sign", _never_positive_at(5))
    chain = roots_mod._RootChain(12)
    prev = chain.bracket(4)
    before = prev.e
    with time_limit(60), pytest.raises(AssertionError, match="N=12, k=5: K_k > 0 at the lower end"):
        chain.bracket(5)
    # it stops once bracket 4 is narrower than 2^-64 of its lower end
    assert (prev.num_hi - prev.num_lo) << 64 <= min(prev.num_lo, 1 << prev.e)
    assert prev.e - before <= 64 + 24


def test_verify_fails_a_kernel_that_never_turns_positive(monkeypatch, capsys):
    import semireg.cli as cli

    monkeypatch.setattr(roots_mod, "_root_sign", _never_positive_at(5))
    with time_limit(60):
        assert cli.main(["verify", "12"]) == 1
    # the three suites that read the chain fail, each naming where; the
    # sandwich reads route 1 alone
    fault = "K_k > 0 at the lower end of the bracket of d_(k-1)(1), narrower than 2^-64 min(1, lo)"
    assert capsys.readouterr().out.splitlines() == [
        f"interlacing: FAIL (6 cases)  N=5, k=5: {fault}",
        "gf_identity: PASS (30 cases)",
        "orthogonality: PASS (454 cases)",
        f"three_way_agreement: FAIL (0 cases)  N=9, k=5: {fault}",
        f"eigenvalue_root_duality: FAIL (9 cases)  N=5, k=5: {fault}",
        "sandwich: PASS (30 cases)",
        "3/6 suites passed",
    ]


def _encloses_sqrt(lo, hi, N):
    """lo <= sqrt(N) <= hi for rationals 0 <= lo <= hi, by integer comparisons."""
    return (lo.numerator ** 2 <= N * lo.denominator ** 2
            and N * hi.denominator ** 2 <= hi.numerator ** 2)


def test_smallest_root_past_the_float_range():
    # K_2(x) = ((N - 2x)^2 - N) / 2, so d_2(1) = (N - sqrt(N)) / 2; the float
    # seed cannot be formed at this N and bisection alone encloses the root
    N = 10**400
    enc = smallest_root(N, 2)
    assert enc.width <= DEFAULT_WIDTH and 0 <= N - 2 * enc.hi
    assert _encloses_sqrt(N - 2 * enc.hi, N - 2 * enc.lo, N)


def test_largest_eigenvalue_past_the_float_range():
    # T_2 = [[0, sqrt(N)], [sqrt(N), 0]]
    N = 10**400
    enc = largest_eigenvalue(N, 2)
    assert enc.width <= DEFAULT_WIDTH and _encloses_sqrt(enc.lo, enc.hi, N)


def test_smallest_root_chain_past_the_float_range():
    # K_2 and K_3 in s = N - 2x are (s^2 - N) / 2 and s (s^2 - 3N + 2) / 6;
    # d_1(1) = N / 2 and d_2(1) = (N - 2^550) / 2 are exact points
    N = 2**1100
    kernels = [lambda s: s * s - N, lambda s: s * (s * s - 3 * N + 2)]
    chain = smallest_root_chain(N, 3)
    assert chain[:2] == [Enclosure.point(Fraction(N, 2)), Enclosure.point((N - 2**550) // 2)]
    for kernel, upper, enc in zip(kernels, chain, chain[1:]):
        assert 0 < enc.lo <= enc.hi < upper.lo and enc.width <= DEFAULT_WIDTH
        if enc.is_point:
            assert kernel(N - 2 * enc.lo) == 0
        else:
            assert kernel(N - 2 * enc.lo) > 0 > kernel(N - 2 * enc.hi)


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
    # decides, so the explicit sum must; twice the root or half of it, a bound does
    calls = []
    real = roots_mod._explicit_sum
    monkeypatch.setattr(roots_mod, "_explicit_sum", lambda *a: calls.append(a) or real(*a))
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
    real_root_sign, real_sign_at = roots_mod._root_sign, roots_mod._explicit_sum

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

    def explicit_sum(N, k, p, e):
        assert inside == [k], "a root sign read past the bracket's sign function"
        return real_sign_at(N, k, p, e)

    _refuse_windows(monkeypatch)
    monkeypatch.setattr(roots_mod, "_root_sign", root_sign)
    monkeypatch.setattr(roots_mod, "_explicit_sum", explicit_sum)
    chain = roots_mod._RootChain(40)
    for k in range(1, 41):
        sign_at = chain.bracket(k).sign_at
        assert made[k] == [sign_at]
    assert chain.bracket(40).hi < 1


def test_tiny_root_signs_skip_the_recurrence_at_256(monkeypatch):
    # the full chain at N = 256: most signs left of 1 never evaluate the
    # explicit sum's Horner recurrence
    below_one, evaluated = [0], [0]
    real_root_sign, real = roots_mod._root_sign, roots_mod._explicit_sum

    def root_sign(N, k):
        inner = real_root_sign(N, k)

        def sign(p, e):
            below_one[0] += p >> e == 0
            return inner(p, e)
        return sign

    def explicit_sum(N, k, p, e):
        evaluated[0] += p >> e == 0
        return real(N, k, p, e)

    monkeypatch.setattr(roots_mod, "_root_sign", root_sign)
    monkeypatch.setattr(roots_mod, "_explicit_sum", explicit_sum)
    smallest_root_chain(256, 256)
    assert below_one[0] > 400
    assert evaluated[0] <= 0.2 * below_one[0]


def test_tiny_root_bounds_leave_the_enclosures_unchanged(monkeypatch):
    fast = smallest_root_chain(128, 128)
    monkeypatch.setattr(roots_mod, "_root_sign", _recurrence_sign)
    assert smallest_root_chain(128, 128) == fast


# ---------------------------------------------------------------- sign kernels


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_root_kernel_matches_the_cleared_values(data):
    # the explicit sum in Horner form against the three-term recurrence:
    # both are k! 2^(e k) K_k(p / 2^e)
    N = data.draw(st.integers(1, 120), label="N")
    k = data.draw(st.integers(1, N), label="k")
    e = data.draw(st.integers(0, 160), label="e")
    p = data.draw(st.integers(0, N << e), label="p")
    assert roots_mod._explicit_sum(N, k, p, e) == cleared_values(
        N, (N << e) - 2 * p, 1 << (2 * e), k)[k]


def test_root_kernel_at_integer_points_is_k_factorial_times_the_stream():
    # at e = 0 the kernel is k! K_k(x), and the divided stream yields K_k(x)
    for N in (1, 2, 7, 36, 61):
        for x in range(N + 1):
            values = list(krawtchouk_stream(N, N - 2 * x))
            for k in range(1, N + 1):
                assert roots_mod._explicit_sum(N, k, x, 0) == math.factorial(k) * values[k]


@functools.lru_cache(maxsize=None)
def _eigen_ends(N):
    """(k, p, e) at both ends of each bracket of lambda_k^N refined to 2^-100."""
    ends = []
    chain = roots_mod._RootChain(N)
    for k in range(2, N + 1):
        br = chain.eigen(k)
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


def _leading_minor(N, k, p, e):
    """2^(k e) det(x I - T_k) at x = p / 2^e: `_eigen_sign`'s recurrence, no early exit."""
    prev, cur = 1, p
    for j in range(1, k):
        prev, cur = cur, p * cur - (j * (N - j + 1) * prev << 2 * e)
    return cur


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leading_minor_is_the_root_kernel_at_the_mirrored_point(data):
    # the eigenvalue route is the root route under lambda = N - 2x: the k-th
    # leading minor at p / 2^e, times 2^k, is the root kernel's integer at
    # x = (N 2^e - p) / 2^(e + 1)
    N = data.draw(st.integers(1, 200), label="N")
    k = data.draw(st.integers(1, N), label="k")
    e = data.draw(st.integers(0, 40), label="e")
    p = data.draw(st.integers(-N << e, N << e), label="p")
    assert _leading_minor(N, k, p, e) << k == roots_mod._explicit_sum(N, k, (N << e) - p, e + 1)
