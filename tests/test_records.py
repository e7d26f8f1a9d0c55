"""The package's records as immutable named tuples, and the float
constants built from the Bernoulli pairs, checked bit for bit against
exact rational arithmetic."""

import math
from fractions import Fraction

import pytest

from lerchphi._types import EngineReport, LerchPoint
from lerchphi.coefficients import CoefficientTable, _boole_rows
from lerchphi.errors import ConditioningError, DomainError
from lerchphi.factorial_series import FactorialSeriesState
from lerchphi.oracle import ReferenceValue
from lerchphi.special_kernel import (_BERNOULLI, _DIGAMMA_FACT, _EM_FACT,
                                     _STIRLING, BranchedLog)

# (class, positional arguments, field names)
RECORDS = [
    (LerchPoint, (-5.0 + 0j, 0.75 + 0j, 0.3 + 0j, "below"),
     ("z", "s", "a", "cut_side")),
    (EngineReport, (1.5 + 0.5j, 1e-14, 12, 3, "direct", ("w",)),
     ("value", "abs_err_estimate", "n_terms", "m_terms", "engine",
      "warnings")),
    (BranchedLog, (1.6 - 3.1j, "off-cut"), ("value", "side")),
    (CoefficientTable, (0.3 + 0j, -1, (1.0j, 2.0j), "recurrence"),
     ("a", "N", "values", "method")),
    (ReferenceValue, (2.0 + 1j, 1e-12, "quadrature"),
     ("value", "err_bar", "method")),
    (FactorialSeriesState, (0.4 + 0j, 0.75 + 0j, 0.3 + 0j, 1.1 - 0.2j, 7,
                            1e-9),
     ("x", "s", "a", "partial", "n_terms", "last_term_mag")),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, args, fields", RECORDS, ids=RECORD_IDS)
def test_record_behaves_as_a_frozen_record(cls, args, fields):
    assert cls._fields == fields
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert tuple(by_position) == args and len(by_position) == len(fields)
    for name, value in zip(fields, args):
        assert getattr(by_position, name) == value
    with pytest.raises(AttributeError):
        setattr(by_position, fields[0], args[0])
    with pytest.raises(AttributeError):
        by_position.extra = 1  # no instance dictionary
    assert repr(by_position).startswith(f"{cls.__name__}({fields[0]}=")
    assert by_position._replace() == by_position


def test_record_defaults():
    p = LerchPoint(-5, 0.75, 0.3)
    assert p.cut_side == "above"
    assert p == LerchPoint(-5.0 + 0j, 0.75 + 0j, 0.3 + 0j, "above")
    assert isinstance(p.z, complex) and isinstance(p.a, complex)
    assert EngineReport(1.0 + 0j, 0.0, 1, 0, "direct").warnings == ()


def test_lerch_point_validation_unchanged():
    with pytest.raises(ValueError, match=r"^cut_side must be one of "
                       r"\('above', 'below'\), got 'left'$"):
        LerchPoint(0.5, 1.0, 0.5, cut_side="left")
    for bad_a in (0, -1, -2.0):
        with pytest.raises(DomainError, match=r"makes a term of the "
                           r"defining series singular$"):
            LerchPoint(0.5, 1.0, bad_a)
    with pytest.raises(DomainError, match=r"^z = 1 is the branch point"):
        LerchPoint(1.0, 0.75, 0.3)
    # _make and _replace build through the same checks
    p = LerchPoint(0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        p._replace(cut_side="left")
    with pytest.raises(DomainError):
        LerchPoint._make((0.5, 1.0, -3.0, "above"))
    assert LerchPoint(1.5, 0.5, 0.3).on_cut


def test_engine_report_validation_unchanged():
    with pytest.raises(ValueError, match=r"^abs_err_estimate must be "
                       r">= 0, got "):
        EngineReport(1.0 + 0j, -1e-3, 0, 0, "direct")
    # a value or an estimate past the double range is a conditioning
    # error, whichever engine reports it
    for value, est in ((1.0 + 0j, math.nan), (1.0 + 0j, math.inf),
                       (complex(math.nan, 0.0), 1e-12),
                       (complex(1.0, math.inf), 1e-12)):
        with pytest.raises(ConditioningError, match=r"^the direct value "):
            EngineReport(value, est, 0, 0, "direct")
    rep = EngineReport(1.0 + 0j, 1e-12, 4, 2, "direct")
    with pytest.raises(ValueError):
        rep._replace(abs_err_estimate=-1.0)


def _bernoulli(k):
    return Fraction(*_BERNOULLI[k])


def test_bernoulli_floats_match_exact_rationals():
    # each constant is the double nearest its exact value; == on floats
    # compares the bits
    assert [_bernoulli(k) for k in (0, 1, 5, 11)] == [
        Fraction(1, 6), Fraction(-1, 30), Fraction(-691, 2730),
        Fraction(-236364091, 2730)]
    n = len(_BERNOULLI)
    assert _STIRLING == [float(_bernoulli(k) / ((2 * k + 1) * (2 * k + 2)))
                         for k in range(n)]
    assert _EM_FACT == [float(_bernoulli(k) / math.factorial(2 * k + 2))
                        for k in range(n)]
    assert _DIGAMMA_FACT == [float(_bernoulli(k) / (2 * k + 2))
                             for k in range(8)]


def test_boole_rows_match_exact_rationals():
    rows = _boole_rows(30)
    assert rows is _boole_rows(30)  # built once per count
    assert len(rows) == len(_BERNOULLI)
    for m, row in enumerate(rows):
        j = 2 * m + 1
        w = float((2 ** (j + 1) - 1) * _bernoulli(m) / math.factorial(j + 1))
        rising = [float(p) for p in range(1, 31)]
        for i in range(1, m + 1):
            jj = 2 * i + 1
            rising = [r * (p + jj - 2) * (p + jj - 1)
                      for p, r in enumerate(rising, 1)]
        assert row == tuple(w * r for r in rising)
