"""What `semireg verify` catches: measured mutants of the package.

Each mutant is a monkeypatch.  A test runs the battery under it and
asserts the exact set of suites that FAIL; every suite that survives has
a one-line reason.  The README's table under `verify` reads from here.
"""

import re

import pytest

import semireg.bounds
import semireg.exact
import semireg.krawtchouk
import semireg.roots
import semireg.verify
from semireg import cli
from semireg.bounds import kz_lower, ls_lower
from semireg.exact import SystemShape
from semireg.verify import CheckResult, check_sandwich, enumerate_shapes, run_all

import reference_tables as ref
import test_acceptance
from oracle_utils import mutant, time_limit, wrong_root_sign


def _battery(max_N: int) -> dict[str, CheckResult]:
    with time_limit(60):  # a mutant that hangs fails here instead of stalling tier-1
        return {result.name: result for result in run_all(max_N)}


def _failed(results: dict[str, CheckResult]) -> set[str]:
    return {name for name, result in results.items() if not result.passed}


def test_wrong_root_kernel(monkeypatch):
    # j (N - j + 2) for j (N - j + 1), the tiny-root bounds off
    monkeypatch.setattr(semireg.roots, "_root_sign", wrong_root_sign)
    results = _battery(30)
    assert _failed(results) == {"interlacing", "three_way_agreement", "eigenvalue_root_duality"}
    assert results["interlacing"].detail.startswith("N=3, k=3: lo stayed 0 ")
    # route 3's minor signs refute the bracket of d_2(1) at N = 2, and
    # three-way's eigenvalue route reads that check at its first shape
    assert results["three_way_agreement"] == CheckResult(
        "three_way_agreement", 0, False, "duality gap at N=3, k=2")
    assert results["eigenvalue_root_duality"].detail == "duality gap at N=2, k=2"
    # survivors: gf_identity and orthogonality read only the divided stream,
    # and the sandwich compares the bounds with route 1's d_reg; none reads a root


def test_wrong_root_kernel_under_the_tiny_root_bounds(monkeypatch):
    # the term A_2 of `_explicit_sum` with its sign flipped, in the kernel
    # the tiny-root bounds of `_root_sign` consult where they cannot decide
    monkeypatch.setattr(semireg.roots, "_explicit_sum", mutant(
        semireg.roots._explicit_sum, "r = (b <<", "r = ((-b if j == 2 else b) <<"))
    results = _battery(30)
    assert _failed(results) == {"three_way_agreement", "eigenvalue_root_duality"}
    # the kernel is right at k <= 2, so route 3 first refutes the bracket
    # of d_3(1), at N = 3; three-way's first shape that reads it is at N = 5
    assert results["three_way_agreement"] == CheckResult(
        "three_way_agreement", 0, False, "duality gap at N=5, k=3")
    assert results["eigenvalue_root_duality"] == CheckResult(
        "eigenvalue_root_duality", 2, False, "duality gap at N=3, k=3")
    # survivors: interlacing, since `_extend` makes bracket k inside
    # [0, lo(k - 1)] whatever the kernel, and the bounds decide the signs
    # near x = 0, so every bracket lifts off 0
    assert results["interlacing"] == CheckResult("interlacing", 435, True)
    # gf_identity, orthogonality and the sandwich read no root, as above


def test_root_kernel_of_the_next_family(monkeypatch):
    # every root sign the tiny-root bounds leave open taken from K_k^(N+1)
    # in place of K_k^N
    explicit_sum = semireg.roots._explicit_sum
    monkeypatch.setattr(semireg.roots, "_explicit_sum",
                        lambda N, k, p, e: explicit_sum(N + 1, k, p, e))
    results = _battery(30)
    assert _failed(results) == {"three_way_agreement", "eigenvalue_root_duality"}
    assert results["three_way_agreement"] == CheckResult(
        "three_way_agreement", 0, False, "duality gap at N=3, k=2")
    assert results["eigenvalue_root_duality"].detail == "duality gap at N=2, k=2"
    # survivors: interlacing holds by construction, since `_extend` makes
    # bracket k inside [0, lo(k - 1)] whatever the kernel, so the wrong
    # family's roots interlace too (ROADMAP item 2's open gap)
    assert results["interlacing"] == CheckResult("interlacing", 435, True)
    # gf_identity, orthogonality and the sandwich read no root, as above


def test_wrong_eigen_kernel(monkeypatch):
    # j (N - j + 2) for j (N - j + 1) in the leading-minor recurrence that
    # decides every eigenvalue sign
    monkeypatch.setattr(semireg.roots, "_eigen_sign", mutant(
        semireg.roots._eigen_sign, "(N - j + 1)", "(N - j + 2)"))
    results = _battery(30)
    assert _failed(results) == {"three_way_agreement", "eigenvalue_root_duality"}
    # the wrong minors refute the true bracket of d_2(1) at N = 2, where
    # duality stops; three-way's eigenvalue route reads that check at N = 3
    assert results["three_way_agreement"] == CheckResult(
        "three_way_agreement", 0, False, "duality gap at N=3, k=2")
    assert results["eigenvalue_root_duality"].detail == "duality gap at N=2, k=2"
    # survivors: interlacing reads only root brackets, gf_identity and
    # orthogonality only the divided stream, and the sandwich route 1's d_reg;
    # none reads an eigenvalue
    assert results["interlacing"] == CheckResult("interlacing", 435, True)
    assert results["sandwich"] == CheckResult("sandwich", 210, True)


def test_probe_that_always_holds(monkeypatch, capsys):
    # route 1's predicate (a) reported true whatever K_0..K_t are: the
    # transposed search runs to the end of its range
    probe = semireg.exact._probe
    monkeypatch.setattr(semireg.exact, "_probe", lambda N, t, x: (True, probe(N, t, x)[1]))
    results = _battery(30)
    assert _failed(results) == {"three_way_agreement", "sandwich"}
    assert results["three_way_agreement"].detail == \
        "m=5, n=3: exact=4, direct=3, roots=3, eigenvalues=3"
    # a shape three-way skipped after its failure: the search's own check
    # raises, and the sandwich reports it instead of ending the run
    assert results["sandwich"] == CheckResult(
        "sandwich", 80, False,
        "m=10, n=7: K_t must be non-positive at 7, next to its smallest root")
    # survivors: gf_identity, orthogonality and the three root suites read
    # no d_reg of route 1
    assert cli.main(["verify", "30"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "interlacing", "gf_identity", "orthogonality", "three_way_agreement",
        "eigenvalue_root_duality", "sandwich", "4/6 suites passed"]


def test_sign_kernel_odd_rule_off_by_one(monkeypatch):
    # route 1's parity rule always takes the even degree k + 2, where the
    # first non-positive value at the odd degree k + 1 belongs
    monkeypatch.setattr(semireg.exact, "_sign_scan", mutant(
        semireg.exact._sign_scan,
        "j = k + 1 if cur + a1 * prev <= 0 else k + 2", "j = k + 2"))
    results = _battery(30)
    assert _failed(results) == {"three_way_agreement"}
    assert results["three_way_agreement"].detail == \
        "m=7, n=4: exact=4, direct=3, roots=3, eigenvalues=3"
    # survivors: the sandwich, since every d_reg the mutant gives for these
    # 210 shapes still lies inside the four bounds; the other four suites
    # read no sign of route 1
    assert results["sandwich"] == CheckResult("sandwich", 210, True)


def test_divided_stream_wrong_at_one_degree(monkeypatch):
    # K_3 one too large at every point, wherever the divided stream is read
    stream = semireg.exact.krawtchouk_stream

    def wrong(N, s):
        for k, value in enumerate(stream(N, s)):
            yield value + (k == 3)

    monkeypatch.setattr(semireg.exact, "krawtchouk_stream", wrong)
    monkeypatch.setattr(semireg.krawtchouk, "krawtchouk_stream", wrong)
    results = _battery(30)
    assert _failed(results) == {"gf_identity", "orthogonality", "three_way_agreement"}
    assert results["gf_identity"] == CheckResult("gf_identity", 0, False, "mismatch at m=2, n=1")
    assert results["orthogonality"].detail == "failure at N=3, l=0, k=3"
    assert results["three_way_agreement"].detail == \
        "m=5, n=4: exact=3, direct=4, roots=3, eigenvalues=3"
    # survivors: route 1 reads its own sign kernel, not this stream, so the
    # sandwich passes; interlacing and duality read only root kernels
    assert results["sandwich"] == CheckResult("sandwich", 210, True)


def test_gf_product_step_without_running_sums(monkeypatch):
    # each next product times (1+z) alone, not (1+z)/(1-z)
    monkeypatch.setattr(semireg.verify, "_gf_products", mutant(
        semireg.krawtchouk._gf_products,
        "coeffs = list(accumulate(_times_one_plus_z(coeffs)))",
        "coeffs = list(_times_one_plus_z(coeffs))"))
    results = _battery(30)
    assert _failed(results) == {"gf_identity"}
    # the first product of each N is built from binomials, so the first
    # wrong one is the second: n = 3 at N = 5
    assert results["gf_identity"] == CheckResult("gf_identity", 28, False, "mismatch at m=4, n=3")
    # survivors: no other suite reads the products


def test_kz_lower_plus_two_violates_the_sandwich(monkeypatch):
    def kz_plus_two(shape):
        out = kz_lower(shape)
        return out._replace(value=out.value + 2)

    monkeypatch.setattr(semireg.verify, "kz_lower", kz_plus_two)
    results = _battery(30)
    assert _failed(results) == {"sandwich"}
    # kz_lower = d_reg - 1 on the first shape, so two more is above d_reg
    assert results["sandwich"] == CheckResult(
        "sandwich", 0, False,
        "violated at m=2, n=1: d_reg=2, kz=3, ls_lower=2, ls_upper=3, l_upper=None")
    # survivors: no other suite reads a bound


@pytest.mark.parametrize("name,mutant", [
    ("_overlaps", lambda upper, lower: False),
], ids=["overlaps-never"])
def test_expected_survivors(monkeypatch, name, mutant):
    monkeypatch.setattr(semireg.verify, name, mutant)
    assert _failed(_battery(30)) == set()
    # _overlaps: `_RootChain._extend` makes bracket k inside [0, lo(k - 1)],
    # so it fires only when two brackets are one exact point (ROADMAP item 2)


def test_kz_lower_plus_one_is_caught_by_the_tables_not_the_sandwich(monkeypatch):
    def kz_plus_one(shape):
        out = kz_lower(shape)
        return out._replace(value=out.value + 1)

    # kz_lower never equals d_reg on these shapes, so one more stays below it
    monkeypatch.setattr(semireg.verify, "kz_lower", kz_plus_one)
    assert check_sandwich(enumerate_shapes(60)) == CheckResult("sandwich", 870, True)
    # tier-1's comparison with the published tables is the check that catches
    # it, in its first row: only the kz column differs
    monkeypatch.setattr(test_acceptance, "kz_lower", kz_plus_one)
    first_row = "m=n+100 n=256: got (48, 41, 44, None, 75), expected (48, 40, 44, None, 75)"
    with pytest.raises(AssertionError, match=re.escape(first_row)):
        test_acceptance.test_criterion_1_table_reproduction()


def test_float_a_in_the_ls_test_survives(monkeypatch):
    # `_ls_refuses_degree` deciding q(y) = y^4 - a y - c > 0 in floats, with
    # a = n / sqrt(2N), in place of the integer field norm
    float_test = mutant(
        semireg.bounds._ls_refuses_degree,
        "return _cube_field_norm(v, 6, A, -4 * N * P * Q * v, 2 * N * P * P) > 0",
        "return v ** (4 / 6) - n / math.sqrt(2 * N) * v ** (1 / 6) - 6 ** (-1 / 3) * P / Q > 0")
    shapes = [SystemShape(family["m_of_n"](n), n)
              for family in ref.FAMILIES.values() for n in (2**16, 2**17, 2**18)]
    shapes += enumerate_shapes(120)
    expected = [ls_lower(shape) for shape in shapes]
    monkeypatch.setattr(semireg.bounds, "_ls_refuses_degree", float_test)
    assert [ls_lower(shape) for shape in shapes] == expected
    assert _failed(_battery(30)) == set()
    # survivor: at the floor f and at f + 1, |q| is at least 9.0e-8 of
    # y^4 + a y + c at each end of the default Airy enclosure on the 15
    # far-family rows (least at m = n + 100, n = 2^16), and 3.8e-6 on N <= 120,
    # where a float errs by about 1e-16; no such row tells them apart
