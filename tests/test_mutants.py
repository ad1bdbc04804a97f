"""What `semireg verify` catches: measured mutants of the package.

Each mutant is a monkeypatch.  A test runs the battery under it and
asserts the exact set of suites that FAIL; every suite that survives has
a one-line reason.  The README's table under `verify` reads from here.
"""

import re

import pytest

import semireg.exact
import semireg.krawtchouk
import semireg.roots
import semireg.verify
from semireg import cli
from semireg.bounds import kz_lower
from semireg.verify import CheckResult, check_sandwich, enumerate_shapes, run_all

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
    assert results["three_way_agreement"].detail == \
        "m=9, n=6: exact=4, direct=4, roots=3, eigenvalues=4"
    assert results["eigenvalue_root_duality"].detail == "duality gap at N=2, k=2"
    # survivors: gf_identity and orthogonality read only the divided stream,
    # and the sandwich compares the bounds with route 1's d_reg; none reads a root


def test_root_kernel_of_the_next_family(monkeypatch):
    # every root sign taken from K_k^(N+1) in place of K_k^N
    sign_at_dyadic = semireg.roots._sign_at_dyadic
    monkeypatch.setattr(semireg.roots, "_sign_at_dyadic",
                        lambda N, k, p, e: sign_at_dyadic(N + 1, k, p, e))
    results = _battery(30)
    assert _failed(results) == {"three_way_agreement", "eigenvalue_root_duality"}
    assert results["three_way_agreement"].detail == \
        "m=3, n=2: exact=2, direct=2, roots=3, eigenvalues=2"
    assert results["eigenvalue_root_duality"].detail == "duality gap at N=2, k=2"
    # survivors: interlacing holds by construction, since `_extend` makes
    # bracket k inside [0, lo(k - 1)] whatever the kernel, so the wrong
    # family's roots interlace too (ROADMAP item 2's open gap)
    assert results["interlacing"] == CheckResult("interlacing", 435, True)
    # gf_identity, orthogonality and the sandwich read no root, as above


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


def _duality_gap_without_factor_2(N, root, lam):
    """`verify._duality_gap` with width(root) where 2 width(root) belongs."""
    (r_lo, r_hi, er), (l_lo, l_hi, el) = root, lam
    dr, dl = max(el - er, 0), max(er - el, 0)
    diff = (N << (max(er, el) + 1)) - ((r_lo + r_hi) << (dr + 1)) - ((l_lo + l_hi) << dl)
    return abs(diff) > ((r_hi - r_lo) << (dr + 1)) + ((l_hi - l_lo) << (dl + 1))


@pytest.mark.parametrize("name,mutant", [
    ("_duality_gap", _duality_gap_without_factor_2),
    ("_overlaps", lambda upper, lower: False),
], ids=["duality-gap-without-factor-2", "overlaps-never"])
def test_expected_survivors(monkeypatch, name, mutant):
    monkeypatch.setattr(semireg.verify, name, mutant)
    assert _failed(_battery(30)) == set()
    # _duality_gap: N - 2 d_k(1) and lambda_k lie in enclosures of widths
    # 2 width(root) and width(lam), so true midpoints are at most
    # width(root) + width(lam) / 2 apart, inside even the mutant's
    # width(root) + width(lam); the suite's threshold is twice what it needs.
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
