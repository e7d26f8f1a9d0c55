"""Parameter and report records shared by the engines and the oracle.

Every record in the package (these two, BranchedLog, CoefficientTable,
ReferenceValue and FactorialSeriesState) is an immutable named tuple:
fields read by name, assignment raises AttributeError, equal records
hash alike and the repr reads ``LerchPoint(z=..., s=..., ...)``.  Being
tuples, they also unpack (``value, est, n, m, engine, warnings = rep``),
have a ``len`` and compare equal to a plain tuple holding the same
fields.  LerchPoint and EngineReport convert and validate in
``__new__``, and ``_make``/``_replace`` go through it too.
"""

import cmath
import math
from collections import namedtuple

from .errors import ConditioningError, DomainError

_CUT_SIDES = ("above", "below")
_tuple_new = tuple.__new__


class LerchPoint(namedtuple("LerchPoint", "z s a cut_side")):
    """Validated (z, s, a) triple plus the branch side used on the cut.

    cut_side selects the limit taken when z lands exactly on [1, inf):
    "above" means the limit from Im z > 0, which fixes arg(-z) = -pi
    there.  Off the cut the flag is ignored.
    """

    __slots__ = ()

    def __new__(cls, z, s, a, cut_side="above"):
        z, s, a = complex(z), complex(s), complex(a)
        if cut_side not in _CUT_SIDES:
            raise ValueError(f"cut_side must be one of {_CUT_SIDES}, "
                             f"got {cut_side!r}")
        if a.imag == 0.0 and a.real <= 0.0 and a.real == round(a.real):
            raise DomainError(f"a = {a} makes a term of the defining "
                              "series singular")
        if z == 1.0 and s.real <= 1.0:
            raise DomainError("z = 1 is the branch point; no finite value "
                              "for Re s <= 1")
        return _tuple_new(cls, (z, s, a, cut_side))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def on_cut(self):
        return self.z.imag == 0.0 and self.z.real >= 1.0


class EngineReport(namedtuple("EngineReport", "value abs_err_estimate "
                                              "n_terms m_terms engine "
                                              "warnings")):
    """A computed value together with the engine's own accounting.

    A value or estimate past the double range (inf or nan) is refused
    with ConditioningError, so no engine answers with one."""

    __slots__ = ()

    def __new__(cls, value, abs_err_estimate, n_terms, m_terms, engine,
                warnings=()):
        if not (cmath.isfinite(value) and math.isfinite(abs_err_estimate)):
            raise ConditioningError(f"the {engine} value {value} or its "
                                    f"estimate {abs_err_estimate} is past "
                                    "the double range")
        if not abs_err_estimate >= 0.0:
            raise ValueError(f"abs_err_estimate must be >= 0, "
                             f"got {abs_err_estimate}")
        return _tuple_new(cls, (value, abs_err_estimate, n_terms, m_terms,
                                engine, warnings))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)
