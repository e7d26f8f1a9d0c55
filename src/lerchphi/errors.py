"""Exception taxonomy shared by every module in the package.

The split matters for the CLI exit codes: domain problems (including poles
and hopeless conditioning) are caller errors, accuracy problems mean the
requested tolerance could not be certified.

Past the double range, private helpers let an OverflowError through (or
a ZeroDivisionError: CPython's complex ** at an integer exponent up to
100 divides 1 by a product that can underflow to 0), and each public
function converts it once, at its own boundary (overflow_is_conditioning).
eval_series_direct, eval_abel_plana and eval_integer_s_large_z, one or
two of which eval_auto calls per point, keep an inline try: a wrapper
frame costs about 130 ns (270 ns by keyword, Python 3.11 on a shared
two-core Xeon), 2-3% of the sweep's median point.
"""

import cmath
import functools


class LerchError(Exception):
    """Base class for everything raised by this package on purpose."""


class DomainError(LerchError):
    """Input outside the domain of the requested evaluation route."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole.

    ``pole`` carries the integer location when one is known (e.g. the
    non-positive integer where the gamma function blew up, or 1 for the
    Hurwitz zeta in s).
    """

    def __init__(self, message, pole=None):
        super().__init__(message)
        self.pole = pole


class ConditioningError(LerchError):
    """The requested point is so ill-conditioned for this route that no
    meaningful digits would survive in double precision."""


class AccuracyError(LerchError):
    """An iteration failed to certify the requested tolerance.

    ``achieved`` carries the best error estimate reached, when available.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def overflow_is_conditioning(fn):
    """Decorator for a public function: an OverflowError or a
    ZeroDivisionError inside fn (a power, an exponential or a factorial
    past the double range) leaves it as ConditioningError, and so does a
    complex value of inf or nan."""
    @functools.wraps(fn)
    def typed(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ConditioningError(f"{fn.__name__}: a quantity is past "
                                    f"the double range ({exc})") from None
        if isinstance(value, complex) and not cmath.isfinite(value):
            raise ConditioningError(f"{fn.__name__}: the value {value} is "
                                    "past the double range")
        return value
    return typed
