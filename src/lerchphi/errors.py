"""Exception taxonomy shared by every module in the package.

The split matters for the CLI exit codes: domain problems (including poles
and hopeless conditioning) are caller errors, accuracy problems mean the
requested tolerance could not be certified.
"""

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
    """Decorator: an OverflowError inside fn (a power, an exponential or
    a factorial past the double range) leaves it as ConditioningError."""
    @functools.wraps(fn)
    def typed(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise ConditioningError(f"{fn.__name__}: a quantity is past "
                                    f"the double range ({exc})") from None
    return typed
