"""Unit tests for integer roots, rational enclosures and the dyadic bracket."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from semireg.intervals import (
    DyadicBracket,
    Enclosure,
    integer_bisect,
    integer_gallop,
    iroot,
    nth_root_enclosure,
    sqrt_enclosure,
)

from oracle_utils import Interval


# ---------------------------------------------------------------- iroot


def test_iroot_small_exhaustive():
    # Newton lands on the floor with no correction step: every x below 2^12,
    # and each side of every perfect power up to 300^r
    for r in range(1, 10):
        xs = set(range(1 << 12)) | {b**r + d for b in range(2, 300) for d in (-1, 0, 1)}
        for x in xs:
            b = iroot(x, r)
            assert b**r <= x < (b + 1) ** r


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**4000), st.integers(2, 2**500), st.integers(-2, 2))
def test_iroot_defining_property(r, x, b, delta):
    # x anywhere below 2^4000, and x next to the perfect power b^r
    for x in (x, b**r + delta):
        a = iroot(x, r)
        assert a**r <= x < (a + 1) ** r


def test_iroot_rejects_bad_arguments():
    with pytest.raises(ValueError):
        iroot(-1, 2)
    with pytest.raises(ValueError):
        iroot(5, 0)


# ---------------------------------------------------------------- integer_bisect


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(1, 10**30), st.data())
def test_integer_bisect_finds_the_edge_inside_the_ends(lo, span, data):
    # spans past sys.maxsize included; each probe halves the span, rounding down
    hi = lo + span
    edge = data.draw(st.integers(lo + 1, hi))
    probes = []
    assert integer_bisect(lo, hi, lambda x: probes.append(x) or x >= edge) == edge
    assert all(lo < x < hi for x in probes)
    assert len(probes) <= span.bit_length()
    probes.clear()
    assert integer_bisect(0, 6, lambda x: probes.append(x) or x >= 4) == 4
    assert probes == [3, 4]


# ---------------------------------------------------------------- integer_gallop


def _gallop_probe_bound(start, lo, hi, edge):
    """3 + 2 log2 j for a start j places below edge - 1 or above edge, else 2."""
    x = min(max(start, lo + 1), hi)
    j = edge - 1 - x if x < edge else x - edge
    return 2 if j <= 0 else 3 + 2 * math.log2(j)


def test_integer_gallop_is_integer_bisect_from_any_start():
    # every range up to 12 wide, every edge in it and every start from 3
    # below lo to 3 past hi: the same answer, lo never probed, hi only from
    # a start that clamps to it, no probe twice, and the gallop's probe bound
    for lo in range(-3, 3):
        for hi in range(lo + 1, lo + 13):
            for edge in range(lo + 1, hi + 1):
                expected = integer_bisect(lo, hi, lambda x: x >= edge)
                for start in range(lo - 3, hi + 4):
                    probes = []
                    got = integer_gallop(lo, hi, lambda x: probes.append(x) or x >= edge, start)
                    assert got == expected == edge, (lo, hi, edge, start)
                    assert all(lo < x <= hi for x in probes)
                    assert hi not in probes or min(max(start, lo + 1), hi) == hi
                    assert len(set(probes)) == len(probes)
                    assert len(probes) <= _gallop_probe_bound(start, lo, hi, edge)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(1, 10**30), st.data())
def test_integer_gallop_from_a_drawn_start(lo, span, data):
    # spans past sys.maxsize included, the start anywhere near the range
    hi = lo + span
    edge = data.draw(st.integers(lo + 1, hi))
    start = data.draw(st.one_of(st.integers(lo - 10, hi + 10), st.integers(edge - 9, edge + 9)))
    probes = []
    assert integer_gallop(lo, hi, lambda x: probes.append(x) or x >= edge, start) == edge
    assert all(lo < x <= hi for x in probes)
    assert len(probes) <= _gallop_probe_bound(start, lo, hi, edge)


def test_integer_gallop_probe_sequences():
    # from the edge or just below it, two probes; from further off, the
    # gallop measures each offset from the start, then bisects the gap
    def run(start, edge, lo=0, hi=100):
        probes = []
        integer_gallop(lo, hi, lambda x: probes.append(x) or x >= edge, start)
        return probes

    assert run(40, 40) == [40, 39]
    assert run(39, 40) == [39, 40]
    assert run(37, 40) == [37, 38, 39, 41, 40]
    assert run(45, 40) == [45, 44, 43, 41, 37, 39, 40]
    assert run(1, 1) == [1]  # lo = 0 is never probed
    assert run(150, 100) == [100, 99]  # a start past hi probes hi


# ---------------------------------------------------------------- enclosures


@settings(max_examples=150, deadline=None)
@given(
    st.fractions(min_value=0, max_value=10**9),
    st.integers(2, 6),
    st.integers(4, 64),
)
def test_nth_root_enclosure_contains_root(x, r, bits):
    enc = nth_root_enclosure(x, r, bits)
    assert enc.lo >= 0
    assert enc.lo**r <= x <= enc.hi**r
    assert enc.width <= Fraction(1, 1 << bits)


def test_nth_root_exact_hit_is_point():
    assert sqrt_enclosure(36, 8) == Enclosure.point(6)
    assert nth_root_enclosure(Fraction(27, 8), 3, 4).is_point


@pytest.mark.parametrize("r", [2, 3])
def test_root_of_negative_refused(r):
    with pytest.raises(ValueError, match="negative"):
        nth_root_enclosure(Fraction(-27), r, 8)


def test_enclosure_validation_and_predicates():
    with pytest.raises(ValueError):
        Enclosure(Fraction(2), Fraction(1))
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert (e.width, e.mid) == (Fraction(1, 6), Fraction(5, 12))
    assert not e.is_point and Enclosure.point(Fraction(1, 3)).is_point


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_enclosure_arithmetic_is_sound(data):
    # the interval algebra of the test oracles (`oracle_utils.Interval`)
    def enc_and_point(name):
        a = data.draw(st.fractions(min_value=-50, max_value=50), label=f"{name}_lo")
        w = data.draw(st.fractions(min_value=0, max_value=10), label=f"{name}_w")
        lam = data.draw(st.fractions(min_value=0, max_value=1), label=f"{name}_t")
        enc = Interval(a, a + w)
        return enc, a + lam * w

    def contains(enc, q):
        return enc.lo <= q <= enc.hi

    e1, p1 = enc_and_point("x")
    e2, p2 = enc_and_point("y")
    assert contains(e1 + e2, p1 + p2)
    assert contains(e1 - e2, p1 - p2)
    assert contains(e1 * e2, p1 * p2)
    assert contains(-e1, -p1)
    assert contains(e1 + Fraction(3, 7), p1 + Fraction(3, 7))
    assert contains(Fraction(2) * e1, 2 * p1)
    assert contains(Fraction(1, 2) - e1, Fraction(1, 2) - p1)


# ---------------------------------------------------------------- dyadic bracket


def _poly_sign(coeffs):
    """Sign callback of the integer polynomial sum c_i w^i (ascending) at p/2^e."""
    deg = len(coeffs) - 1

    def sign_at(p, e):
        v = sum(c * p ** i << (deg - i) * e for i, c in enumerate(coeffs))
        return (v > 0) - (v < 0)

    return sign_at


def test_dyadic_bracket_hits_exact_root():
    # w^4 + w - 2 vanishes at w = 1, the first midpoint of [0, 2]
    br = DyadicBracket(_poly_sign([-2, 1, 0, 0, 1]), 0, 2, 0)
    br.refine(Fraction(1, 1 << 30))
    assert br.exact
    assert (br.num_lo, br.num_hi, br.e) == (2, 2, 1)
    assert br.lo == br.hi == 1
    assert br.enclosure() == Enclosure.point(1)
    br.step()  # an exact bracket no longer moves
    assert br.enclosure() == Enclosure.point(1)


@pytest.mark.parametrize("coeffs,root", [
    ([-2, 0, 1], 2 ** 0.5),      # w^2 - 2 on [0, 2]
    ([3, 0, -1], -(3 ** 0.5)),  # 3 - w^2 on [-2, 0]: negative numerators
], ids=["sqrt2", "minus_sqrt3"])
def test_dyadic_bracket_keeps_sign_orientation(coeffs, root):
    sign_at = _poly_sign(coeffs)
    lo = -2 if root < 0 else 0
    br = DyadicBracket(sign_at, lo, lo + 2, 0)
    for _ in range(40):
        br.step()
        assert not br.exact
        assert sign_at(br.num_lo, br.e) < 0 < sign_at(br.num_hi, br.e)
        assert br.lo < root < br.hi
    assert br.hi - br.lo == Fraction(2, 1 << 40)


@pytest.mark.parametrize("bits", [0, 1, 7, 33])
def test_dyadic_bracket_refine_stops_at_width(bits):
    br = DyadicBracket(_poly_sign([-2, 0, 1]), 0, 3, 0)
    width = Fraction(1, 1 << bits)
    br.refine(width)
    assert br.hi - br.lo <= width < 2 * (br.hi - br.lo)
    e = br.e
    br.refine(width)  # already narrow enough: no further step
    assert br.e == e


def _width_target(data, width: Fraction, e: int) -> Fraction:
    kind = data.draw(st.sampled_from(["millionth", "random", "equal", "near"]))
    if kind == "millionth":
        return Fraction(1, 10**6)
    if kind == "random":
        return data.draw(st.fractions(min_value=0, max_value=1 << 72,
                                      max_denominator=10**30))
    if kind == "equal":
        return width
    # a non-dyadic target a hair off the width, on either side
    return width + data.draw(st.sampled_from([-1, 1])) * Fraction(1, 3 << (e + 4))


@settings(max_examples=400, deadline=None)
@given(st.integers(-(1 << 80), 1 << 80), st.integers(0, 1 << 80),
       st.integers(0, 300), st.data())
def test_steps_to_matches_halving_the_fraction_width(num_lo, span, e, data):
    # refine counts its bisection steps up front: each step halves the width
    br = DyadicBracket(lambda p, e: 1, num_lo, num_lo + span, e)
    width = _width_target(data, br.hi - br.lo, e)
    assume(width > 0)
    w, steps = br.hi - br.lo, 0
    while w > width:
        w, steps = w / 2, steps + 1
    assert br._steps_to(width) == steps


# ---------------------------------------------------------------- compare


def _recording(sign_at):
    """The callback, and the list of points p / 2^e it is evaluated at."""
    points = []

    def recorded(p, e):
        points.append(Fraction(p, 1 << e))
        return sign_at(p, e)

    return recorded, points


@pytest.mark.parametrize("x,expected", [(-1, 1), (0, 1), (2, -1), (5, -1)])
def test_compare_outside_the_bracket_evaluates_nothing(x, expected):
    # sqrt(2) in [0, 2]: x at or beyond an endpoint is decided at once
    sign_at, points = _recording(_poly_sign([-2, 0, 1]))
    br = DyadicBracket(sign_at, 0, 2, 0)
    assert br.compare(x) == expected
    assert points == []


def test_compare_never_bisects():
    # sqrt(2) in [0, 2^40]: however wide the bracket, x = 1 inside it is
    # decided by its own sign alone, and the exponent stays where it was
    sign_at, points = _recording(_poly_sign([-2, 0, 1]))
    br = DyadicBracket(sign_at, 0, 1 << 40, 0)
    assert br.compare(1) == 1
    assert points == [1]
    assert (br.num_lo, br.num_hi, br.e, br.exact) == (1, 1 << 40, 0, False)


def test_compare_x_hit_as_midpoint():
    # sqrt(2) in [0, 2]: x = 1, the midpoint, is cut by its sign, not stepped to
    sign_at, points = _recording(_poly_sign([-2, 0, 1]))
    br = DyadicBracket(sign_at, 0, 2, 0)
    assert br.compare(1) == 1
    assert points == [1]
    assert (br.num_lo, br.num_hi, br.e) == (1, 2, 0)


@pytest.mark.parametrize("x,expected,lo,hi", [(1, 1, 1, 3), (2, -1, 0, 2)])
def test_compare_pivot_moves_an_endpoint(x, expected, lo, hi):
    # sqrt(2) in [0, 3]: x itself is the pivot
    sign_at, points = _recording(_poly_sign([-2, 0, 1]))
    br = DyadicBracket(sign_at, 0, 3, 0)
    assert br.compare(x) == expected
    assert points == [x]
    assert (br.lo, br.hi, br.exact) == (lo, hi, False)


def test_compare_tie_settled_by_pivot():
    # root 1 in [1/4, 9/4]: the one sign, at x = 1, is the zero
    sign_at, points = _recording(_poly_sign([-1, 1]))
    br = DyadicBracket(sign_at, 1, 9, 2)
    assert br.compare(1) == 0
    assert points == [1]
    assert br.exact and br.lo == br.hi == 1
    # the collapsed bracket answers every later comparison without evaluating
    assert [br.compare(x) for x in (0, 1, 2)] == [1, 0, -1]
    assert points == [1]


# ---------------------------------------------------------------- narrow


def _square_sign(num, den):
    """Sign callback of w^2 - num/den at p/2^e, in integers: root sqrt(num/den)."""

    def sign_at(p, e):
        v = den * p * p - (num << 2 * e)
        return (v > 0) - (v < 0)

    return sign_at


def _encloses(br, num, den):
    # 0 <= lo <= sqrt(num/den) <= hi, compared through squares
    return 0 <= br.lo and den * br.lo ** 2 <= num <= den * br.hi ** 2


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([(2, 1), (9, 4), (9, 1)]),  # sqrt 2, 3/2, 3 in [0, 4]
    st.integers(0, 12),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-1, 5),
        st.tuples(st.just("near"), st.floats(-1e-4, 1e-4)),
        st.tuples(st.just("near"), st.floats(-1e-12, 1e-12)),
    ),
    st.integers(0, 60),
)
def test_narrow_keeps_the_root_and_evaluates_twice_at_most(root, steps, guess, bits):
    num, den = root
    if isinstance(guess, tuple):  # an offset from the float root
        guess = (num / den) ** 0.5 + guess[1]
    sign_at, points = _recording(_square_sign(num, den))
    br = DyadicBracket(sign_at, 0, 4, 0)
    for _ in range(steps):
        br.step()
    before = (br.num_lo, br.num_hi, br.e, br.exact)
    del points[:]
    width = Fraction(1, 1 << bits)
    accepted = br.narrow(guess, width)
    assert _encloses(br, num, den)
    assert len(points) <= 2
    if accepted:
        assert br.hi - br.lo <= width
        assert br.exact == (br.lo == br.hi)
    else:
        assert (br.num_lo, br.num_hi, br.e, br.exact) == before


@pytest.mark.parametrize("guess", [float("nan"), float("inf"), -float("inf"), -0.5, 4.5])
def test_narrow_rejects_unusable_guess_without_evaluating(guess):
    sign_at, points = _recording(_square_sign(2, 1))
    br = DyadicBracket(sign_at, 0, 4, 0)
    assert not br.narrow(guess, Fraction(1, 1 << 20))
    assert points == []
    assert (br.num_lo, br.num_hi, br.e) == (0, 4, 0)


def test_narrow_window_from_a_good_guess():
    sign_at, points = _recording(_square_sign(2, 1))
    br = DyadicBracket(sign_at, 0, 4, 0)
    assert br.narrow(2 ** 0.5, Fraction(1, 10 ** 6))
    assert len(points) == 2 and not br.exact
    assert br.e == 20 and br.num_hi - br.num_lo == 1  # 2^-20 <= 1e-6 < 2^-19
    assert br.lo ** 2 < 2 < br.hi ** 2


def test_narrow_wrong_guess_leaves_bracket():
    # w^2 - 2 is already positive at 1.5, the window's lo: one sign rejects it
    sign_at, points = _recording(_square_sign(2, 1))
    br = DyadicBracket(sign_at, 0, 4, 0)
    assert not br.narrow(1.5, Fraction(1, 1 << 20))
    assert points == [Fraction(3, 2)]
    assert (br.num_lo, br.num_hi, br.e) == (0, 4, 0)


def test_narrow_collapses_onto_an_exact_root():
    # 3/2 is dyadic: the window's lo lands on it and its zero collapses
    sign_at, points = _recording(_square_sign(9, 4))
    br = DyadicBracket(sign_at, 0, 4, 0)
    assert br.narrow(1.5, Fraction(1, 1 << 20))
    assert points == [Fraction(3, 2)]
    assert br.exact and br.lo == br.hi == Fraction(3, 2)


@pytest.mark.parametrize("guess, evaluations", [
    (2 ** 0.5, 2),  # accepted window: two exact signs
    (1.5, 1 + 22),  # refused by one sign, then bisection of [0, 4]
    (math.nan, 22),  # refused without evaluating: the default guess
    (math.inf, 22),
], ids=["accepted", "refused", "nan", "inf"])
def test_refine_tries_the_guess_then_bisects(guess, evaluations):
    sign_at, points = _recording(_square_sign(2, 1))
    br = DyadicBracket(sign_at, 0, 4, 0)
    width = Fraction(1, 1 << 20)
    br.refine(width, guess)
    assert len(points) == evaluations
    assert br.hi - br.lo == width and br.lo ** 2 < 2 < br.hi ** 2


def test_refine_calls_no_seed_on_a_narrow_bracket():
    # the guess 2 ** 0.5 would be accepted, but nothing is left to narrow
    sign_at, points = _recording(_square_sign(2, 1))
    br = DyadicBracket(sign_at, 0, 4, 0)
    br.refine(Fraction(4), 2 ** 0.5)
    assert points == [] and (br.num_lo, br.num_hi, br.e) == (0, 4, 0)
