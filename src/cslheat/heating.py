"""Collapse-noise heating rates of a test mass.

Three rates, all in watts:

  gamma_total    closed form (3/4) hbar^2 lambda M / (m_N^2 r_c^2);
                 depends only on the total mass, never on shape.
  gamma_cm       the part exciting rigid center-of-mass motion: a
                 Gaussian-weighted wavevector integral of k^2 |mu_tilde(k)|^2,
                 always <= gamma_total since |mu_tilde| <= M.
  gamma_internal the remainder gamma_total - gamma_cm, exciting internal
                 (phonon-like) motion; dominant for bodies large compared
                 to r_c.

In the dimensionless variable u = r_c * k, gamma_cm = gamma_total * I3 /
I3_FREE with I3 = integral d^3u exp(-u^2) u^2 |f(u / r_c)|^2, f the
normalized form factor and I3_FREE = (3/2) pi^(3/2) its point-mass value.
The ratio I3 / I3_FREE is the reduction factor; it depends only on the
shape ratios (extent / r_c).

Each shape has one production route to I3, a closed form: the continuum
limit of the pairwise lattice sum E_pairs[(1 - D^2/6) exp(-D^2/4)].  A
point mass has reduction 1 and a ball of radius s r_c
6 [(s^2 - 2) + (s^2 + 2) e^(-s^2)] / s^6.  Cuboids and stacks factorize,
I3 = sum_i B_i prod_(j != i) A_j over the axes, with A and B the 1D
moments of each axis' layered density profile (_profile_ab); cylinders
combine the one-layer axial profile with Bessel-function transverse
moments.  Each form turns to a Taylor series where its direct expression
would cancel; the tests hold all of them to REL_ERROR against mpmath.
Adaptive quadrature, the lattice and Monte Carlo are oracles only.

The seeded Monte-Carlo estimator (gamma_cm_mc) importance-samples the
same integral from the Gaussian weight with numpy's counter-based Philox
generator and a fixed draw order, so it is bit-identical for a seed.
Offsets drop out of |mu_tilde|^2, and blocks of samples (together one
draw) merge by Chan's update, so memory is flat in mc_samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import exp, factorial, fsum, pi, sqrt
from typing import NamedTuple

import numpy as np
from scipy.special import erf, i0e, i1e

from .core import CONSTANTS, CslParams, QuadratureSpec
from .geometry import (
    Cuboid,
    Cylinder,
    LayeredStack,
    MassModel,
    PointMass,
    Sphere,
    mu_tilde,
    separable_factors,
    total_mass,
)

I3_FREE = 1.5 * pi**1.5  # integral of exp(-u^2) u^2 over all of R^3
# relative accuracy of the closed forms for extent / r_c in [1e-6, 1e5]
# and stacks of up to 256 layers, enforced against mpmath by the tests
REL_ERROR = 1e-12
_RT_PI = sqrt(pi)

# Below a profile width of 2 r_c the kernels Phi - 2 - x^2/2 and
# g - 1 + x^2/4 are summed as series from x^4 on (< 1e-19 at x = 2): the
# direct sums cancel to ~eps / width^2, or ~eps * layers for thin layers.
_PROFILE_SWITCH = 2.0
_PHI_SERIES = np.array([(-1) ** (k - 1) / (4.0 ** (k - 1) * factorial(k - 1)
                                           * 2 * k * (2 * k - 1)) for k in range(2, 22)])
_G_SERIES = np.array([(-1) ** k / (4.0**k * factorial(k)) for k in range(2, 22)])
_PAIR_BLOCK = 1 << 20  # pair-matrix entries per block: bounds memory
_MC_BLOCK = 1 << 14  # Monte-Carlo samples per block: temporaries stay in L2

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
_SPHERE_SWITCH = 1.0
_SPHERE_SERIES = np.array([6.0 * (-1) ** m * (m + 1) / factorial(m + 3) for m in range(25)])


class PowerEstimate(NamedTuple):
    """A power in W with a one-sigma-style absolute error estimate."""

    value: float
    error: float


@dataclass(frozen=True)
class HeatingReport:
    gamma_total: float
    gamma_cm: float
    gamma_int: float
    reduction_factor: float
    quadrature_estimate_error: float  # relative accuracy bound, REL_ERROR
    internal_clamped: bool = False

    def to_dict(self) -> dict:
        return {
            "gamma_total": self.gamma_total,
            "gamma_cm": self.gamma_cm,
            "gamma_int": self.gamma_int,
            "reduction_factor": self.reduction_factor,
            "quadrature_estimate_error": self.quadrature_estimate_error,
            "internal_clamped": self.internal_clamped,
        }


def gamma_total(mass: float, csl: CslParams) -> float:
    """Total heating rate [W]: geometry-independent closed form."""
    if not mass > 0:
        raise ValueError(f"mass must be > 0, got {mass}")
    c = CONSTANTS
    # divide by r_c twice: r_c**2 can overflow where the rate merely underflows
    return 0.75 * c.hbar**2 * csl.lambda_rate * mass / c.m_nucleon**2 / csl.r_c / csl.r_c


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
    x = 0.5 * s * s
    i1 = float(i1e(x))
    return 2.0 * (1.0 - float(i0e(x)) - i1) / s / s, 2.0 * i1 / s / s


def _sphere_reduction(s: float) -> float:
    """Reduction factor of a uniform ball of radius s r_c."""
    y = s * s
    if s < _SPHERE_SWITCH:
        return float(np.polynomial.polynomial.polyval(y, _SPHERE_SERIES))
    return 6.0 * ((y - 2.0) + (y + 2.0) * exp(-y)) / y / y / y


def _shape_integral(model: MassModel, r_c: float) -> float:
    """I3 = integral d^3u e^(-u^2) u^2 |f(u/r_c)|^2, in closed form."""
    if isinstance(model, PointMass):
        return I3_FREE
    if isinstance(model, Sphere):
        return I3_FREE * _sphere_reduction(model.radius / r_c)
    if isinstance(model, Cylinder):
        a_perp, b_perp = _disc_ab(model.radius / r_c)
        a_z, b_z = _profile_ab([model.height / r_c], [1.0])
        return 2.0 * pi * (b_perp * a_z + a_perp * b_z)
    if isinstance(model, Cuboid):
        axes = [_profile_ab([w / r_c], [1.0]) for w in (model.lx, model.ly, model.lz)]
    elif isinstance(model, LayeredStack):
        axes = [
            _profile_ab([model.lx / r_c], [1.0]),
            _profile_ab([model.ly / r_c], [1.0]),
            _profile_ab(
                [layer.thickness / r_c for layer in model.layers],
                [layer.material.density for layer in model.layers],
            ),
        ]
    else:
        raise TypeError(f"not a mass model: {model!r}")
    (a_x, b_x), (a_y, b_y), (a_z, b_z) = axes
    return b_x * a_y * a_z + a_x * b_y * a_z + a_x * a_y * b_z


def gamma_cm(
    model: MassModel, csl: CslParams, quad: QuadratureSpec
) -> PowerEstimate:
    """Center-of-mass heating rate [W] from the closed-form shape integral.

    The error is the value times REL_ERROR; quad is not read (the closed
    forms need no numerical controls).
    """
    value = gamma_total(total_mass(model), csl) * (
        _shape_integral(model, csl.r_c) / I3_FREE
    )
    return PowerEstimate(value, REL_ERROR * value)


def gamma_cm_mc(
    model: MassModel, csl: CslParams, quad: QuadratureSpec
) -> PowerEstimate:
    """Monte-Carlo center-of-mass heating rate [W] with standard error.

    Importance-samples wavevectors from the normalized Gaussian weight
    (pi^(3/2)/r_c^3) and averages k^2 |mu_tilde(k)|^2 of the centred body
    (the offset phase has modulus 1).  Deterministic for a fixed seed: one
    Philox stream, a fixed draw order, and a fixed reduction order, so
    results are bit-identical across runs.  Blocks of _MC_BLOCK samples,
    together one draw, merge by Chan's update: memory is flat in samples.

    For separable bodies (cuboid, layered stack) the estimator samples
    each wavevector component from its 1D Gaussian factor and estimates
    the exact per-axis factorization of the integral instead of the raw
    3D average.  The two estimators target the same integral with the
    same Gaussian proposal, but the 3D form is useless for extreme aspect
    ratios: for a 1mm x 1mm x 10um plate at r_c = 1e-7 m the dominant
    contribution lives where *both* transverse components fall inside
    sinc lobes of relative width ~1e-4, a corner that 3D sampling hits
    with probability ~5e-7 per sample, silently biasing both the mean and
    the reported standard error.  The per-axis estimator hits each lobe
    marginally and keeps honest statistics.
    """
    if quad.mc_samples < 1000:
        raise ValueError(f"mc_samples must be >= 1000, got {quad.mc_samples}")
    rng = np.random.Generator(np.random.Philox(quad.rng_seed))
    centred = replace(model, offset=(0.0, 0.0, 0.0))
    if isinstance(model, (Cuboid, LayeredStack)):
        return _mc_separable(centred, csl, quad, rng)
    return _mc_generic(centred, csl, quad, rng)


def _abs2(z) -> np.ndarray:
    z = np.asarray(z)
    return z.real**2 + z.imag**2


def _mc_mean_stderr(draw, f, n: int) -> tuple[float, float]:
    """Mean and standard error of f(draw(m)) over n samples, in blocks."""
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, _MC_BLOCK):
        g = f(draw(min(_MC_BLOCK, n - start)))
        block_mean = float(np.mean(g))
        block_m2 = float(np.square(g - block_mean).sum())
        # Chan's update; a running sum of squares would cancel
        delta, total = block_mean - mean, count + len(g)
        mean += delta * (len(g) / total)
        m2 += block_m2 + delta * delta * count * len(g) / total
        count = total
    return mean, sqrt(m2 / (n - 1) / n)


def _mc_generic(model, csl, quad, rng) -> PowerEstimate:
    sigma = 1.0 / (sqrt(2.0) * csl.r_c)
    mean, stderr = _mc_mean_stderr(
        lambda m: rng.normal(0.0, sigma, size=(m, 3)),
        lambda k: np.einsum("ij,ij->i", k, k) * _abs2(mu_tilde(model, k)),
        quad.mc_samples,
    )
    c = CONSTANTS
    pref = (
        csl.lambda_rate
        * c.hbar**2
        / (2.0 * total_mass(model) * c.m_nucleon**2)
    )
    return PowerEstimate(pref * mean, pref * stderr)


def _mc_separable(model, csl, quad, rng) -> PowerEstimate:
    # A_j = sqrt(pi) E[|f_j|^2], B_j = sqrt(pi) E[u^2 |f_j|^2] under the 1D
    # Gaussian u ~ N(0, 1/2); each of the six estimates gets its own batch
    # so they are independent and the delta-method error propagation is
    # exact to first order.
    n = quad.mc_samples
    rt_pi = sqrt(pi)
    est: dict[str, tuple[float, float, float, float]] = {}
    draw = partial(rng.normal, 0.0, sqrt(0.5))
    for axis in "xyz":

        def fa(u, axis=axis):
            return _abs2(separable_factors(model, axis, u / csl.r_c))

        a_val, a_se = _mc_mean_stderr(draw, fa, n)
        b_val, b_se = _mc_mean_stderr(draw, lambda u: u * u * fa(u), n)
        est[axis] = (rt_pi * a_val, rt_pi * a_se, rt_pi * b_val, rt_pi * b_se)
    i3 = var = 0.0
    for ax in "xyz":
        j, l = [o for o in "xyz" if o != ax]
        i3 += est[ax][2] * est[j][0] * est[l][0]
        d_a = est[j][2] * est[l][0] + est[l][2] * est[j][0]  # dI3/dA_ax
        d_b = est[j][0] * est[l][0]  # dI3/dB_ax
        var += (d_a * est[ax][1]) ** 2 + (d_b * est[ax][3]) ** 2
    pref = gamma_total(total_mass(model), csl) / I3_FREE
    return PowerEstimate(pref * i3, pref * sqrt(var))


def gamma_internal(
    model: MassModel, csl: CslParams, quad: QuadratureSpec
) -> float:
    """Internal heating rate [W]: gamma_total - gamma_cm, clamped at zero.

    See heating_report for the clamp.
    """
    return heating_report(model, csl, quad).gamma_int


def heating_report(
    model: MassModel, csl: CslParams, quad: QuadratureSpec
) -> HeatingReport:
    """All three rates plus the dimensionless reduction factor.

    The reduction factor is computed from the shape integral alone, so it
    stays defined (and shape-meaningful) even at lambda = 0 where all
    rates vanish.  A slightly negative internal rate (within quad.rel_tol
    of gamma_total) is rounding and is clamped to zero; anything more
    negative raises, since |mu_tilde| <= M makes the true value
    nonnegative.
    """
    reduction = _shape_integral(model, csl.r_c) / I3_FREE
    gt = gamma_total(total_mass(model), csl)
    gcm = gt * reduction
    diff = gt - gcm
    clamped = False
    if diff < 0.0:
        if diff < -quad.rel_tol * gt:
            raise ArithmeticError(
                f"gamma_cm exceeds gamma_total by {-diff:.3e} W, "
                f"beyond the tolerance {quad.rel_tol * gt:.3e} W"
            )
        diff, clamped = 0.0, True
    return HeatingReport(
        gamma_total=gt,
        gamma_cm=gcm,
        gamma_int=diff,
        reduction_factor=reduction,
        quadrature_estimate_error=REL_ERROR,
        internal_clamped=clamped,
    )
