"""The failure rule and the digit count, shared by run.py and the tests.

An evaluation fails when eval_auto raises, when its value is not finite,
or when its distance from the reference exceeds the larger of its own
abs_err_estimate and the target (1e-10 of max(1, |ref|)), plus the
reference's error bar.  The last test is the README's promise that
estimates are "honest rather than flattering".
"""

import cmath
import math

TARGET_TOL = 1e-10
# a reference stored as a double carries up to half an ulp of rounding
_DOUBLE_ULP = 2.0 ** -53


def failed(value, estimate, ref, ref_err):
    """True when a returned value breaks the rule; value None means the
    call raised."""
    if value is None or not cmath.isfinite(value):
        return True
    allowed = max(estimate, TARGET_TOL * max(1.0, abs(ref))) + ref_err
    return abs(value - ref) > allowed


def digits(value, ref, ref_err):
    """Correct digits -log10(|value - ref| / max(1, |ref|)), capped where
    the reference's own error bar (and its rounding to a double) stops
    the count.  A non-finite value has none."""
    if not cmath.isfinite(value):
        return 0.0
    scale = max(1.0, abs(ref))
    err = max(abs(value - ref), ref_err + _DOUBLE_ULP * abs(ref))
    return -math.log10(err / scale)
