"""Acceptance suite: the five exit criteria, one test per criterion.

Each test prints a single CRITERION line on success (visible with pytest -s
or -v plus -rP); tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction

from semireg.bounds import (
    QuarticClosedForm,
    kz_lower,
    kz_root_bound,
    l_upper,
    l_upper_root_bound,
    ls_lower,
    ls_lower_root_bound,
    ls_upper,
    ls_upper_root_bound,
)
from semireg.exact import SystemShape, degree_of_regularity_exact
from semireg.roots import dreg_via_eigenvalues, dreg_via_roots, smallest_root
from semireg.verify import (
    check_eigenvalue_root_duality,
    check_gf_identity,
    check_interlacing,
    check_orthogonality,
    check_sandwich,
)

import reference_tables as ref
from oracle_utils import sextic_value


def _report(line: str) -> None:
    print(line)


def _bound_value(outcome):
    return outcome.value if outcome.applicable else None


def test_criterion_1_table_reproduction():
    """Five benchmark tables, all columns exact (one documented correction)."""
    t0 = time.time()
    for label, family in ref.FAMILIES.items():
        for n, dreg, kz, lsl, lsu, lu in family["rows"]:
            m = family["m_of_n"](n)
            shape = SystemShape(m, n)
            got = (
                degree_of_regularity_exact(shape),
                _bound_value(kz_lower(shape)),
                _bound_value(ls_lower(shape)),
                _bound_value(ls_upper(shape)),
                _bound_value(l_upper(shape)),
            )
            assert got == (dreg, kz, lsl, lsu, lu), (
                f"{label} n={n}: got {got}, expected {(dreg, kz, lsl, lsu, lu)}"
            )
            if lsu is None:
                out = ls_upper(shape)
                assert out.not_applicable_reason.value == ref.LS_UPPER_NA_REASON
            if lu is None:
                out = l_upper(shape)
                assert out.not_applicable_reason.value == ref.L_UPPER_NA_REASON
            lsl_out = ls_lower(shape)
            assert not lsl_out.certification.near_boundary
    elapsed = time.time() - t0
    assert elapsed < 60, f"five-table sweep took {elapsed:.1f} s (budget 60 s)"
    _report(
        f"CRITERION 1 table reproduction: PASS "
        f"(5 families x 8 rows x 5 columns, {elapsed:.1f} s; "
        f"one published d_reg cell corrected per reference_tables docstring)"
    )


def test_criterion_2_figure_vectors():
    """Single-shape numeric vectors from the worked example m=24, n=12."""
    t0 = time.time()
    shape = SystemShape(24, 12)
    assert degree_of_regularity_exact(shape) == 4

    half = QuarticClosedForm.from_shape(shape).half_w4_pow6_minus_1()
    assert 3.25 <= half <= 3.27

    # x5 in (1.80, 1.82): s changes sign there, at N = 36, n = 12
    assert sextic_value(36, 12, Fraction("1.80")) < 0 < sextic_value(36, 12, Fraction("1.82"))
    assert l_upper(shape).value == 7

    d3 = smallest_root(36, 3, Fraction(1, 10**4))
    assert Fraction("12.84") <= d3.lo and d3.hi <= Fraction("12.86")
    d6 = smallest_root(36, 6, Fraction(1, 10**4))
    assert Fraction("8.44") <= d6.lo and d6.hi <= Fraction("8.46")

    assert 12.46 <= ls_lower_root_bound(36, 3) <= 12.48
    assert 12.28 <= kz_root_bound(36, 3) <= 12.30
    assert 11.67 <= ls_upper_root_bound(36, 6) <= 11.69
    assert 11.96 <= l_upper_root_bound(36, 6) <= 11.98
    elapsed = time.time() - t0
    assert elapsed < 1, f"figure vectors took {elapsed:.2f} s (budget 1 s)"
    _report(f"CRITERION 2 figure vectors: PASS (10 checks, {elapsed:.2f} s)")


def test_criterion_3_three_method_agreement():
    """Exact == roots == eigenvalues for all 2 <= n < m <= 60."""
    t0 = time.time()
    count = 0
    for n in range(2, 60):
        for m in range(n + 1, 61):
            shape = SystemShape(m, n)
            d_exact = degree_of_regularity_exact(shape)
            d_roots = dreg_via_roots(shape)
            d_eigen = dreg_via_eigenvalues(shape)
            assert d_exact == d_roots == d_eigen, (
                f"m={m}, n={n}: exact={d_exact}, roots={d_roots}, eig={d_eigen}"
            )
            count += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"agreement sweep took {elapsed:.1f} s (budget 300 s)"
    _report(f"CRITERION 3 three-method agreement: PASS ({count} shapes, {elapsed:.1f} s)")


def _sandwich_grid():
    # >= 500 deterministic pairs with n in [4, 256], m in (n, 4n]
    shapes = []
    for n in range(4, 257, 4):
        seen = set()
        for j in range(1, 9):
            m = n + max(1, (j * 3 * n) // 8)
            if m <= 4 * n and m not in seen:
                seen.add(m)
                shapes.append(SystemShape(m, n))
    return shapes


def test_criterion_4_property_suites():
    """Interlacing, GF identity, orthogonality, duality, sandwich."""
    t0 = time.time()
    results = [
        check_interlacing(60),
        check_gf_identity(60),
        check_orthogonality(40),
        check_eigenvalue_root_duality(60),
    ]
    grid = _sandwich_grid()
    assert len(grid) >= 500
    results.append(check_sandwich(grid))
    for res in results:
        assert res.passed, res.summary()
    elapsed = time.time() - t0
    assert elapsed < 600, f"property suites took {elapsed:.1f} s (budget 600 s)"
    detail = ", ".join(f"{r.name}={r.checked}" for r in results)
    _report(f"CRITERION 4 property suites: PASS ({detail}, {elapsed:.1f} s)")


def test_criterion_5_asymptotic_checks():
    """Asymptotic ratios at n = 2^15 and the quadratic-growth pin at 2."""
    t0 = time.time()
    n = 1 << 15
    ratio_2n = ls_lower(SystemShape(2 * n, n)).value / (n / (4 * (2 * 2 - 1)))
    assert abs(ratio_2n - 1) <= 0.05, ratio_2n
    ratio_8n = ls_lower(SystemShape(8 * n, n)).value / (n / (4 * (2 * 8 - 1)))
    assert abs(ratio_8n - 1) <= 0.05, ratio_8n
    for small_n in (64, 128, 256):
        assert ls_lower(SystemShape(small_n * small_n, small_n)).value == 2
    elapsed = time.time() - t0
    assert elapsed < 10, f"asymptotic checks took {elapsed:.1f} s (budget 10 s)"
    _report(
        f"CRITERION 5 asymptotic checks: PASS "
        f"(ratios {ratio_2n:.4f}, {ratio_8n:.4f}; quadratic families pinned at 2; "
        f"{elapsed:.1f} s)"
    )
