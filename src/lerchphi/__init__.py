"""Lerch transcendent Phi(z, s, a) across the complex z-plane.

Convergent power series for |z| < 1, a logarithm-based expansion near
z = 1, large-z asymptotic and convergent expansions built from incomplete
gamma functions, a factorial-type convergent series, and independent
reference oracles for cross-checking all of them.
"""

from .errors import (AccuracyError, ConditioningError, DomainError,
                     LerchError, PoleError)
from .special_kernel import (BranchedLog, digamma, gamma, gamma_star,
                             gauss_2f1_unit_b, hurwitz_zeta, log_gamma,
                             log_neg_z, reciprocal_gamma, signed_pi,
                             upper_incomplete_gamma)

__version__ = "0.1.0"
