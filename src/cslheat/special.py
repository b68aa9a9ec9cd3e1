"""Elementary kernels of the form factors and the 1D moments of the rates.

The form-factor kernels sinc, sphere_form_kernel and two_j1_over_x have
removable singularities at x = 0, accept scalars or numpy arrays and
return float64 results of the same shape.  sin(x)/x and 2 J1(x)/x keep
their direct forms, which do not cancel at small x; only the sphere
kernel's does, so it alone has a Taylor-series branch, and each point
takes exactly one of its two branches.

The moment kernels _profile_ab (1D layered profile), _disc_ab (disc) and
_sphere_reduction (ball) are the pieces of each shape's closed-form I3 in
geometry (see heating); each turns to a series where it would cancel.

scipy.special, which costs more to import than the rest of the package
with numpy, is imported on first use and only by the three branches that
call it: erf in the direct (non-series) branch of _pair_sums, i0e/i1e in
the direct branch of _disc_ab, and j1 in two_j1_over_x.  Series profiles,
spheres, point masses and the disc series never load it.
"""

from __future__ import annotations

from math import exp, factorial, fsum, pi, sqrt

import numpy as np

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

_RT_PI = sqrt(pi)

# Below a profile width of 2 r_c the kernels Phi - 2 - x^2/2 and
# g - 1 + x^2/4 are summed as series from x^4 on (< 1e-19 at x = 2): the
# direct sums cancel to ~eps / width^2, or ~eps * layers for thin layers.
_PROFILE_SWITCH = 2.0
_PHI_SERIES = np.array([(-1) ** (k - 1) / (4.0 ** (k - 1) * factorial(k - 1)
                                           * 2 * k * (2 * k - 1)) for k in range(2, 22)])
_G_SERIES = np.array([(-1) ** k / (4.0**k * factorial(k)) for k in range(2, 22)])
_PAIR_BLOCK = 1 << 20  # pair-matrix entries per block: bounds memory

# (2 J1(y)/y)^2 = sum_k (-1)^k (2k+2)! / (k! (k+2)! (k+1)!^2) (y/2)^(2k),
# integrated against u e^(-u^2) (A) and u^3 e^(-u^2) (B); the direct
# forms cancel to ~2 eps / s^2, so the series runs to s = 1.
_DISC_SWITCH = 1.0
_A_PERP_SERIES = np.array([(-1) ** k * factorial(2 * k + 2) / (
    2 * factorial(k + 2) * factorial(k + 1) ** 2 * 4.0**k) for k in range(24)])
_B_PERP_SERIES = np.array([(-1) ** k * factorial(2 * k + 2) / (
    2 * factorial(k) * factorial(k + 2) * factorial(k + 1) * 4.0**k) for k in range(24)])

# ball: 6 sum_m (-1)^m (m+1) s^(2m) / (m+3)!, below s = 1 where the direct
# form cancels to ~12 eps / s^6
_BALL_SWITCH = 1.0
_BALL_SERIES = np.array([6.0 * (-1) ** m * (m + 1) / factorial(m + 3) for m in range(25)])


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
    from scipy.special import j1

    x = np.asarray(x, dtype=float)
    return _ratio_or_one(2.0 * j1(x), x)


def _pair_sums(z: np.ndarray, c: np.ndarray, series: bool) -> tuple[float, float]:
    """c^T K(|z_p - z_q|) c for the A and B kernels, in row blocks."""
    step = max(1, _PAIR_BLOCK // len(z))
    sum_a = sum_b = 0.0
    for i in range(0, len(z), step):
        d = np.abs(z[i : i + step, None] - z[None, :])
        if series:
            d2 = d * d
            d4 = d2 * d2
            ka = d4 * np.polynomial.polynomial.polyval(d2, _PHI_SERIES)
            kb = d4 * np.polynomial.polynomial.polyval(d2, _G_SERIES)
        else:
            from scipy.special import erf

            kb = np.exp(-0.25 * d * d)
            ka = _RT_PI * d * erf(0.5 * d) + 2.0 * kb
        sum_a += float(c[i : i + step] @ ka @ c)
        sum_b += float(c[i : i + step] @ kb @ c)
    return sum_a, sum_b


def _profile_ab(widths, densities) -> tuple[float, float]:
    """A = int du e^(-u^2) |f|^2 and B = int du e^(-u^2) u^2 |f|^2 over all u.

    f is the normalized Fourier transform of a 1D density made of layers
    of the given widths (in r_c) and densities, side by side.  Integrating
    by parts twice turns both integrals into sums over pairs of the
    density jumps c_p at the layer edges z_p:

      A = -(sqrt(pi) / sigma^2) c^T Phi(|z_p - z_q|) c,
          Phi(x) = sqrt(pi) x erf(x/2) + 2 e^(-x^2/4),
      B =  (sqrt(pi) / sigma^2) c^T g(|z_p - z_q|) c,   g(x) = e^(-x^2/4),

    with sigma = sum_j rho_j t_j.  As sum_p c_p = 0 and
    c^T D^2 c = -2 sigma^2, narrow profiles use the cancellation-free
    A = sqrt(pi) (1 - c^T (Phi - 2 - x^2/2) c / sigma^2) and
    B = sqrt(pi) (1/2 + c^T (g - 1 + x^2/4) c / sigma^2).
    """
    t = np.asarray(widths, dtype=float)
    rho = np.asarray(densities, dtype=float)
    rho = rho / rho.max()
    z = np.concatenate(([0.0], np.cumsum(t)))
    c = np.diff(rho, prepend=0.0, append=0.0)
    sigma = fsum(rho * t)
    series = z[-1] < _PROFILE_SWITCH
    sum_a, sum_b = _pair_sums(z, c, series)
    sum_a, sum_b = sum_a / sigma / sigma, sum_b / sigma / sigma
    if series:
        return _RT_PI * (1.0 - sum_a), _RT_PI * (0.5 + sum_b)
    return -_RT_PI * sum_a, _RT_PI * sum_b


def _disc_ab(s: float) -> tuple[float, float]:
    """A_perp = int_0^inf u e^(-u^2) |2 J1(us)/(us)|^2 du and B_perp (u^3)."""
    if s < _DISC_SWITCH:
        s2 = s * s
        return (
            float(np.polynomial.polynomial.polyval(s2, _A_PERP_SERIES)),
            float(np.polynomial.polynomial.polyval(s2, _B_PERP_SERIES)),
        )
    from scipy.special import i0e, i1e

    x = 0.5 * s * s
    i1 = float(i1e(x))
    return 2.0 * (1.0 - float(i0e(x)) - i1) / s / s, 2.0 * i1 / s / s


def _sphere_reduction(s: float) -> float:
    """Reduction factor of a uniform ball of radius s r_c."""
    y = s * s
    if s < _BALL_SWITCH:
        return float(np.polynomial.polynomial.polyval(y, _BALL_SERIES))
    return 6.0 * ((y - 2.0) + (y + 2.0) * exp(-y)) / y / y / y
