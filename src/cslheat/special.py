"""Elementary kernels entering the analytic mass-density form factors.

All three have removable singularities at x = 0, accept scalars or numpy
arrays and return float64 results of the same shape.  sin(x)/x and
2 J1(x)/x keep their direct forms, which do not cancel at small x; only
the sphere kernel's does, so it alone has a Taylor-series branch, and
each point takes exactly one of its two branches.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from scipy.special import j1 as _bessel_j1

# 3 (sin x - x cos x)/x^3 = sum_m c_m x^(2m), c_m = 3 (-1)^m (2m+2)/(2m+3)!.
# The direct form loses ~ 3*eps/x^2 relative accuracy to cancellation, so
# the series branch must extend to x = 1 (14 terms converge to < 1e-30
# there); switching at 1e-4 would leave ~1e-8 errors just above the switch.
_SPHERE_SWITCH = 1.0
_SPHERE_COEF = np.array(
    [3.0 * (-1) ** m * (2 * m + 2) / factorial(2 * m + 3) for m in range(14)]
)

# sin(x)/x and 2 J1(x)/x round to 1 below here (their x^2 terms are under
# eps/4); setting 1 also avoids J1 of subnormal x, which underflows to 0
_UNIT_BELOW = 1e-8


def _ratio_or_one(num, x):
    """num / x, or 1 where |x| < _UNIT_BELOW (the limit at 0); NaN stays NaN."""
    out = np.ones_like(x)
    np.divide(num, x, out=out, where=~(np.abs(x) < _UNIT_BELOW))
    return out if out.ndim else float(out)


def sinc(x):
    """sin(x)/x with sinc(0) = 1 (unnormalized convention)."""
    x = np.asarray(x, dtype=float)
    return _ratio_or_one(np.sin(x), x)


def sphere_form_kernel(x):
    """3 (sin x - x cos x)/x^3, the uniform-sphere form-factor kernel.

    Equals 1 at x = 0, first zero at the first positive root of tan x = x
    (x = 4.4934094579...).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < _SPHERE_SWITCH
    xs, xl = x[small], x[~small]
    out[small] = np.polynomial.polynomial.polyval(xs * xs, _SPHERE_COEF)
    out[~small] = 3.0 * (np.sin(xl) - xl * np.cos(xl)) / xl**3
    return out if out.ndim else float(out)


def two_j1_over_x(x):
    """2 J1(x)/x, the disc (circular cross-section) form-factor kernel.

    J1 is the cylindrical Bessel function of the first kind from scipy's
    Cephes approximation (|error| ~ 2.6e-16 over [0, 30]; x times a ratio
    of polynomials in x^2 below 5).  Equals 1 at x = 0, first zero at
    the first zero of J1 (x = 3.8317059702...).
    """
    x = np.asarray(x, dtype=float)
    return _ratio_or_one(2.0 * _bessel_j1(x), x)
