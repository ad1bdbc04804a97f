"""The record types: validation, equality, hash, repr and immutability.

Seven records are the package's; `QuarticClosedForm`, the float oracle of
`ls_lower`, is the tests' own.  Each record is a named tuple, so it unpacks
and equals the plain tuple of its fields; `Enclosure` still refuses the
tuple's + and *.
"""

from fractions import Fraction

import pytest

from semireg.bounds import (AiryConstant, BoundKind, BoundOutcome, Certification,
                            CertificationMethod, NotApplicableReason)
from semireg.cli import TableSpec
from semireg.exact import SystemShape
from semireg.intervals import Enclosure
from semireg.verify import CheckResult

from oracle_utils import QuarticClosedForm

EXACT = Certification(CertificationMethod.EXACT_INTEGER_PREDICATE)


# (a maker of one instance, that instance's repr) for each type
RECORDS = [
    (lambda: SystemShape(24, 12), "SystemShape(m=24, n=12)"),
    (lambda: Enclosure(Fraction(1, 3), Fraction(1, 2)),
     "Enclosure(lo=Fraction(1, 3), hi=Fraction(1, 2))"),
    (lambda: Certification(CertificationMethod.INTERVAL_CERTIFIED, True, (3, 4)),
     "Certification(method=<CertificationMethod.INTERVAL_CERTIFIED: 'interval_certified'>, "
     "near_boundary=True, candidates=(3, 4))"),
    (lambda: BoundOutcome(BoundKind.LS_UPPER, None,
                          NotApplicableReason.NEGATIVE_DISCRIMINANT, EXACT),
     "BoundOutcome(kind=<BoundKind.LS_UPPER: 'ls_upper'>, value=None, "
     "not_applicable_reason=<NotApplicableReason.NEGATIVE_DISCRIMINANT: "
     "'negative_discriminant'>, certification=Certification(method="
     "<CertificationMethod.EXACT_INTEGER_PREDICATE: 'exact_integer_predicate'>, "
     "near_boundary=False, candidates=None))"),
    (lambda: AiryConstant(),
     "AiryConstant(i1=Fraction(337213, 100000), precision_radius=Fraction(1, 100000))"),
    (lambda: QuarticClosedForm(1.5, -2.0, 3.0, 4.0, 0.5),
     "QuarticClosedForm(a=1.5, b=-2.0, t_value=3.0, u_value=4.0, w4=0.5)"),
    (lambda: CheckResult("sandwich", 7, True), "CheckResult(name='sandwich', checked=7, "
                                               "passed=True, detail='')"),
    (lambda: TableSpec("m=2n", ((16, 8),), ("dreg",)),
     "TableSpec(family='m=2n', pairs=((16, 8),), columns=('dreg',), m_rounding=None)"),
]
IDS = [make().__class__.__name__ for make, _ in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_names_every_field(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equal_fields_mean_equal_records_and_hashes(make, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    # a named tuple equals the plain tuple of its fields
    assert a == tuple(a) and type(a)(*a) == a


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(make, text):
    record = make()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_records_carry_no_instance_dict(make, text):
    record = make()
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_different_fields_mean_different_records():
    assert SystemShape(25, 12) != SystemShape(24, 12)
    assert Enclosure(Fraction(0), Fraction(1)) != Enclosure(Fraction(0), Fraction(2))
    assert AiryConstant(precision_radius=Fraction(0)) != AiryConstant()
    assert CheckResult("a", 1, True) != CheckResult("a", 1, False, "x")


def test_d_regs_keyed_by_shape():
    d_regs = {SystemShape(m, n): m - n for m, n in ((24, 12), (25, 12), (24, 13))}
    assert d_regs[SystemShape(24, 12)] == 12 and len(d_regs) == 3
    m, n = SystemShape(24, 12)
    assert (m, n) == (24, 12)


def test_defaults():
    assert Certification(CertificationMethod.EXACT_INTEGER_PREDICATE) == \
        (CertificationMethod.EXACT_INTEGER_PREDICATE, False, None)
    assert AiryConstant() == (Fraction("3.37213"), Fraction(1, 100_000))
    assert CheckResult("a", 1, True).detail == ""
    assert TableSpec("f", (), ()).m_rounding is None
    assert SystemShape(m=24, n=12) == SystemShape(24, 12)


@pytest.mark.parametrize("build, message", [
    (lambda: SystemShape(2.0, 1), "shape parameters m, n must be integers"),
    (lambda: SystemShape(2, True), "shape parameters m, n must be integers"),
    (lambda: SystemShape(2, 0), r"requires n >= 1 \(at least one variable\); got n=0"),
    (lambda: SystemShape(3, 3), r"requires m > n \(overdetermined system\); got m=3, n=3"),
    (lambda: Enclosure(Fraction(2), Fraction(1)), "empty enclosure: lo=2 > hi=1"),
    (lambda: BoundOutcome(BoundKind.KZ_LOWER, None, None, EXACT),
     "exactly one of value / not_applicable_reason required"),
    (lambda: BoundOutcome(BoundKind.LS_UPPER, 3, NotApplicableReason.NEGATIVE_DISCRIMINANT,
                          EXACT), "exactly one of value / not_applicable_reason required"),
    (lambda: BoundOutcome(BoundKind.KZ_LOWER, 0, None, EXACT),
     "bound value must be positive; got 0"),
    (lambda: AiryConstant(i1=Fraction(0)), "i1 must be positive"),
    (lambda: AiryConstant(precision_radius=Fraction(-1, 10)),
     "precision_radius must be non-negative"),
    (lambda: AiryConstant(Fraction(1), Fraction(1)), "precision_radius must be smaller than i1"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_a_check_of_nothing_reads_fail():
    res = CheckResult("sandwich", 0, True)
    assert not res.passed and res.detail == "no cases checked"
    assert res.summary() == "sandwich: FAIL (0 cases)  no cases checked"
    # a failure keeps its own detail, and a real pass stays a pass
    assert CheckResult("sandwich", 0, False, "x") == ("sandwich", 0, False, "x")
    assert CheckResult("sandwich", 1, True).passed


@pytest.mark.parametrize("operation", [
    lambda e: e + e,
    lambda e: e + 1,
    lambda e: e - e,
    lambda e: e - 1,
    lambda e: 1 - e,
    lambda e: e * 2,
    lambda e: 2 * e,
    lambda e: e * e,
], ids=["e+e", "e+1", "e-e", "e-1", "1-e", "e*2", "2*e", "e*e"])
def test_enclosure_has_no_arithmetic(operation):
    with pytest.raises(TypeError):
        operation(Enclosure(Fraction(1), Fraction(2)))
