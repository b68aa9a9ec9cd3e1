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
Every series is one Horner helper in numpy polyval's order (so its bits),
and a one-layer profile takes its two-edge closed form in floats.

A layered profile that repeats one cell of layers folds its pair sums
into lag sums over the cell's edges (_profile_ab), n (m + 1)^2 kernel
values for n copies of m layers in place of (nm + 1)^2, summed in a fixed
order with no BLAS reduction, so they do not depend on the BLAS thread
count.  Aperiodic profiles keep the dense pair sum, reduced through BLAS.

scipy.special, which costs more to import than the rest of the package
with numpy, is imported on first use and only by the three branches that
call it: erf in the direct kernels (_kernels) of profiles at least 2 r_c
high, dense or folded into cells at least 2 r_c wide, i0e/i1e in the
direct branch of _disc_ab, and j1 in two_j1_over_x.  Series profiles,
periodic profiles of thinner cells (whose lags are moment series),
spheres, point masses and the disc series never load it.
"""

from __future__ import annotations

from math import exp, factorial, fsum, isqrt, pi, sqrt

import numpy as np

# 3 (sin x - x cos x)/x^3 = sum_m c_m x^(2m), c_m = 3 (-1)^m (2m+2)/(2m+3)!.
# The direct form loses ~ 3*eps/x^2 relative accuracy to cancellation, so
# the series branch must extend to x = 1 (14 terms converge to < 1e-30
# there); switching at 1e-4 would leave ~1e-8 errors just above the switch.
_SPHERE_SWITCH = 1.0
_SPHERE_COEF = tuple(3.0 * (-1) ** m * (2 * m + 2) / factorial(2 * m + 3) for m in range(14))

# sin(x)/x and 2 J1(x)/x round to 1 below here (their x^2 terms are under
# eps/4); setting 1 also avoids J1 of subnormal x, which underflows to 0
_UNIT_BELOW = 1e-8

_RT_PI = sqrt(pi)

# Below a profile width of 2 r_c the kernels Phi - 2 - x^2/2 and
# g - 1 + x^2/4 are summed as series from x^4 on (< 1e-19 at x = 2): the
# direct sums cancel to ~eps / width^2, or ~eps * layers for thin layers.
_PROFILE_SWITCH = 2.0
_PHI_SERIES = tuple((-1) ** (k - 1) / (4.0 ** (k - 1) * factorial(k - 1) * 2 * k * (2 * k - 1))
                    for k in range(2, 22))
_G_SERIES = tuple((-1) ** k / (4.0**k * factorial(k)) for k in range(2, 22))
_PAIR_BLOCK = 1 << 20  # pair-matrix entries per block: bounds memory

# Periodic profiles fold into lag sums (_folded_sums) from _FOLD_MIN layers
# on; shorter ones stay one cell, as the fold's fixed cost of about 0.1 ms
# beats their dense pair matrix only from about 24 layers (cells at least
# 2 r_c wide) to 64 (thinner cells).  Past a distance of _FAR, Phi is linear
# and g zero to e^(-225), so lags whose nearest pair is farther add
# nothing.  Thin cells sum their lags as moment series, to the first order
# (at most _LAG_ORDER) whose omitted terms stay below _LAG_TOL relative.
_FOLD_MIN = 32
_FAR = 30.0
_LAG_ORDER = 60
_LAG_TOL = 1e-17
_LAG_SPREAD = sqrt(2.0 * pi)  # sum_l e^(-(l P)^2 / 8) <= 1 + _LAG_SPREAD / P
_INV_FACT = np.array([1.0 / factorial(a) for a in range(_LAG_ORDER + 1)])
_ALTERNATE = np.array([(-1.0) ** a for a in range(_LAG_ORDER + 1)])
# 4 * 1.09 / sqrt(k! 2^k): |g^(k)| <= 1.09 sqrt(k! / 2^k) e^(-x^2/8)
# (Cramer's inequality) and |C_k| / k! <= (sum |c|)^2 P^k / k!; doubled for
# the lag weights 2 (n - l) against n, and for the terms past the first
# omitted one
_TAIL = [4.4 / sqrt(factorial(k) * 2.0**k) for k in range(_LAG_ORDER + 1)]

# (2 J1(y)/y)^2 = sum_k (-1)^k (2k+2)! / (k! (k+2)! (k+1)!^2) (y/2)^(2k),
# integrated against u e^(-u^2) (A) and u^3 e^(-u^2) (B); the direct
# forms cancel to ~2 eps / s^2, so the series runs to s = 1.
_DISC_SWITCH = 1.0
_A_PERP_SERIES = tuple((-1) ** k * factorial(2 * k + 2) / (
    2 * factorial(k + 2) * factorial(k + 1) ** 2 * 4.0**k) for k in range(24))
_B_PERP_SERIES = tuple((-1) ** k * factorial(2 * k + 2) / (
    2 * factorial(k) * factorial(k + 2) * factorial(k + 1) * 4.0**k) for k in range(24))

# ball: 6 sum_m (-1)^m (m+1) s^(2m) / (m+3)!, below s = 1 where the direct
# form cancels to ~12 eps / s^6
_BALL_SWITCH = 1.0
_BALL_SERIES = tuple(6.0 * (-1) ** m * (m + 1) / factorial(m + 3) for m in range(25))


def _horner(x, coef):
    """sum_k coef[k] x^k for a float or an array x, in the order of numpy's
    polyval (so to its bits): Horner's rule from coef[-1] + x * 0."""
    out = coef[-1] + x * 0
    for c in coef[-2::-1]:
        out = c + out * x
    return out


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
    out[small] = _horner(xs * xs, _SPHERE_COEF)
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


def _kernels(d, series: bool):
    """The A and B pair kernels at distances d (an array or a float): Phi
    and g, or their series parts Phi - 2 - x^2/2 and g - 1 + x^2/4."""
    if series:
        d2 = d * d
        d4 = d2 * d2
        return d4 * _horner(d2, _PHI_SERIES), d4 * _horner(d2, _G_SERIES)
    from scipy.special import erf

    kb = np.exp(-0.25 * d * d)
    return _RT_PI * d * erf(0.5 * d) + 2.0 * kb, kb


def _pair_sums(z: np.ndarray, c: np.ndarray, series: bool) -> tuple[float, float]:
    """c^T K(|z_p - z_q|) c for the A and B kernels, in row blocks."""
    step = max(1, _PAIR_BLOCK // len(z))
    sum_a = sum_b = 0.0
    for i in range(0, len(z), step):
        ka, kb = _kernels(np.abs(z[i : i + step, None] - z[None, :]), series)
        sum_a += float(c[i : i + step] @ ka @ c)
        sum_b += float(c[i : i + step] @ kb @ c)
    return sum_a, sum_b


def _cell(widths, densities) -> int:
    """Layers in the shortest cell the profile repeats whole, or all of them.

    Only divisors of the layer count are tried, each by comparing the
    profile with itself shifted by that many layers, exactly.  Profiles
    under _FOLD_MIN layers, and cells whose pair matrix exceeds
    _PAIR_BLOCK entries, count as one cell.
    """
    layers = len(widths)
    if layers < _FOLD_MIN:
        return layers
    widths, densities = tuple(widths), tuple(densities)
    small = [d for d in range(1, isqrt(layers) + 1) if layers % d == 0]
    for m in small + [layers // d for d in reversed(small) if d * d != layers]:
        if (m + 1) ** 2 > _PAIR_BLOCK:
            break
        if m < layers and widths[m:] == widths[:-m] and densities[m:] == densities[:-m]:
            return m
    return layers


def _jump_moments(z: np.ndarray, c: np.ndarray, kmax: int) -> np.ndarray:
    """C_k / k! for k = 0..kmax, C_k = sum_pq c_p c_q (z_p - z_q)^k.

    With M_a = sum_p c_p y_p^a about the cell's midpoint, C_k / k! is the
    Cauchy product of M_a / a! and (-1)^a M_a / a!; M_0 = sum_p c_p = 0.
    """
    powers = np.vander(z - 0.5 * z[-1], kmax + 1, increasing=True)
    moments = np.einsum("p,pa->a", c, powers) * _INV_FACT[: kmax + 1]
    moments[0] = 0.0
    return np.convolve(moments, moments * _ALTERNATE[: kmax + 1])[: kmax + 1]


def _gauss_even_derivatives(x: np.ndarray, kmax: int) -> np.ndarray:
    """Rows j = 0..kmax/2: g^(2j)(x), g^(k)(x) = (-1/2)^k H_k(x/2) e^(-x^2/4),
    by the Hermite recurrence taken two orders at a time,
    g^(k+2) = (x^2/4 - k - 1/2) g^(k) - k (k-1)/4 g^(k-2)."""
    q = 0.25 * x * x
    out = np.empty((kmax // 2 + 1, len(x)))
    out[0] = np.exp(-q)
    np.multiply(q - 0.5, out[0], out=out[1])
    for k in range(2, kmax, 2):
        row = out[k // 2 + 1]
        np.multiply(q - (k + 0.5), out[k // 2], out=row)
        row -= (0.25 * k * (k - 1)) * out[k // 2 - 1]
    return out


def _folded_sums(z: np.ndarray, c: np.ndarray, copies: int, series: bool) -> tuple[float, float]:
    """c^T K c of `copies` copies of one cell (edges z, jumps c) side by side,
    as lag sums over the cell's edges (see _profile_ab)."""
    width = z[-1]
    lags = np.arange(0.0, min(copies - 1, _FAR // width + 1) + 1)
    if width < _PROFILE_SWITCH:
        # every lag, 0 too, as the moment series, to the first even order
        # whose omitted terms over all lags stay below _LAG_TOL of the
        # k = 2 term at lag 0, C_2 / 2 = -sigma_cell^2 = -(c . z)^2
        spread = float(np.abs(c).sum()) * width / float(np.einsum("p,p->", c, z))
        head = spread * spread * (width + _LAG_SPREAD) / _LAG_TOL
        kmax = next((k for k in range(4, _LAG_ORDER, 2)
                     if head * width ** (k - 1) * _TAIL[k + 2] < 1.0), _LAG_ORDER)
        coef = _jump_moments(z, c, kmax)
        x = width * lags
        g = _gauss_even_derivatives(x, kmax)
        if series:
            # k = 2 terms of the series kernels, whose second derivatives
            # are g - 1 and g'' + 1/2
            em1 = np.expm1(-0.25 * x * x)
            near_a, near_b = coef[2] * em1, coef[2] * (0.25 * x * x * g[0] - 0.5 * em1)
        else:
            near_a, near_b = coef[2] * g[0], coef[2] * g[1]
        far = coef[4 : kmax + 1 : 2]
        lag_a = near_a + np.einsum("k,kl->l", far, g[1:-1])
        lag_b = near_b + np.einsum("k,kl->l", far, g[2:])
    else:
        lag_a, lag_b = np.empty(len(lags)), np.empty(len(lags))
        d = z[:, None] - z[None, :]
        step = max(1, _PAIR_BLOCK // d.size)
        for i in range(0, len(lags), step):
            ka, kb = _kernels(np.abs(d + width * lags[i : i + step, None, None]), False)
            lag_a[i : i + step] = np.einsum("p,lpq,q->l", c, ka, c)
            lag_b[i : i + step] = np.einsum("p,lpq,q->l", c, kb, c)
    weight = 2.0 * (copies - lags)
    weight[0] = copies
    return fsum((weight * lag_a).tolist()), fsum((weight * lag_b).tolist())


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

    One layer of width w has z = (0, w), c = (1, -1) and sigma = w, so

      A = 2 sqrt(pi) (Phi(w) - 2) / w^2,   B = 2 sqrt(pi) (1 - g(w)) / w^2,

    or the same two-edge terms of the series kernels below w = 2.  It is
    taken in floats, sum = 2 (K(0) - K(w)) then / w / w, with np.exp and
    scipy's erf on the scalar w: the dense route's operations in its
    order, so its bits.

    A profile that repeats a cell of m layers and width P whole, n times
    (_cell), is the sum of n shifted cells, rho(z) = sum_r rho_cell(z - rP),
    so each of its pair sums folds into lag sums over the cell's m + 1
    edges,

      c^T K c = n S_0 + sum_(l=1..n-1) 2 (n - l) S_l,
      S_l = sum_pq c_p c_q K(z_p - z_q + l P),

    n (m + 1)^2 kernel values in place of (nm + 1)^2.  Each S_l is formed
    before it is weighted, and the weighted lags are summed by fsum; no
    BLAS call reduces them.  Aperiodic profiles (n = 1), and periodic ones
    under _FOLD_MIN layers, keep the dense sum over all edge pairs.

    A cell at least 2 r_c wide takes the direct kernels at every lag, up to
    the last lag with a pair nearer than _FAR.  A thinner cell's lags,
    summed directly, would cancel to ~eps / P^2 each.  It takes each lag,
    lag 0 included, as the moment series

      S_l = sum_(k even >= 2) C_k / k! K^(k)(l P),
      C_k = sum_pq c_p c_q (z_p - z_q)^k,   Phi^(k) = g^(k-2),
      g^(k)(x) = (-1/2)^k H_k(x/2) e^(-x^2/4),

    which needs no erf; at lag 0 it is the Taylor series of the series
    kernels above, with their C_2 terms added back where the profile is at
    least 2 r_c high.
    """
    if len(widths) == 1:
        # z = (0, w), c = (1, -1) and sigma = w: c^T K c = 2 (K(0) - K(w)),
        # with K(0) = (2, 1) direct and 0 in series
        sigma = float(widths[0])
        series = sigma < _PROFILE_SWITCH
        ka, kb = _kernels(sigma, series)
        sum_a = 2.0 * ((0.0 if series else 2.0) - float(ka))
        sum_b = 2.0 * ((0.0 if series else 1.0) - float(kb))
    else:
        t = np.asarray(widths, dtype=float)
        rho = np.asarray(densities, dtype=float)
        rho = rho / rho.max()
        sigma = fsum(rho * t)
        m = _cell(widths, densities)
        copies = len(t) // m
        z = np.empty(m + 1)
        z[0] = 0.0
        np.cumsum(t[:m], out=z[1:])
        c = np.empty(m + 1)
        c[0], c[m] = rho[0], -rho[m - 1]
        np.subtract(rho[1:m], rho[: m - 1], out=c[1:m])
        series = z[-1] * copies < _PROFILE_SWITCH
        if copies == 1:
            sum_a, sum_b = _pair_sums(z, c, series)
        else:
            sum_a, sum_b = _folded_sums(z, c, copies, series)
    sum_a, sum_b = sum_a / sigma / sigma, sum_b / sigma / sigma
    if series:
        return _RT_PI * (1.0 - sum_a), _RT_PI * (0.5 + sum_b)
    return -_RT_PI * sum_a, _RT_PI * sum_b


def _disc_ab(s: float) -> tuple[float, float]:
    """A_perp = int_0^inf u e^(-u^2) |2 J1(us)/(us)|^2 du and B_perp (u^3)."""
    if s < _DISC_SWITCH:
        s2 = s * s
        return _horner(s2, _A_PERP_SERIES), _horner(s2, _B_PERP_SERIES)
    from scipy.special import i0e, i1e

    x = 0.5 * s * s
    i1 = float(i1e(x))
    return 2.0 * (1.0 - float(i0e(x)) - i1) / s / s, 2.0 * i1 / s / s


def _sphere_reduction(s: float) -> float:
    """Reduction factor of a uniform ball of radius s r_c."""
    y = s * s
    if s < _BALL_SWITCH:
        return _horner(y, _BALL_SERIES)
    return 6.0 * ((y - 2.0) + (y + 2.0) * exp(-y)) / y / y / y
