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

Each shape has one production route to I3, its shape_integral in
geometry, a closed form: the continuum limit of the pairwise lattice sum
E_pairs[(1 - D^2/6) exp(-D^2/4)].  A point mass has reduction 1 and a
ball of radius s r_c 6 [(s^2 - 2) + (s^2 + 2) e^(-s^2)] / s^6.  Cuboids
and stacks factorize, I3 = sum_i B_i prod_(j != i) A_j over the axes,
with A and B the 1D moments of each axis' layered density profile
(special._profile_ab); cylinders combine the one-layer axial profile with
Bessel-function transverse moments (special._disc_ab).  Each form turns
to a Taylor series where its direct expression would cancel; the tests
hold all of them to REL_ERROR against mpmath.  Adaptive quadrature, the
lattice and Monte Carlo are oracles only.

The seeded Monte-Carlo estimator (gamma_cm_mc) importance-samples the
same integral from the Gaussian weight with numpy's counter-based Philox
generator and a fixed draw order, so it is bit-identical for a seed.
Offsets drop out of |mu_tilde|^2, and blocks of samples (together one
draw) merge by Chan's update, so memory is flat in mc_samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from math import pi, sqrt
from typing import NamedTuple

import numpy as np

from .core import CONSTANTS, CslParams, QuadratureSpec
from .geometry import I3_FREE, MassModel, mu_tilde, separable_factors, total_mass

# relative accuracy of the closed forms for extent / r_c in [1e-6, 1e5]
# and stacks of up to 256 layers, enforced against mpmath by the tests
REL_ERROR = 1e-12
_MC_BLOCK = 1 << 14  # Monte-Carlo samples per block: temporaries stay in L2


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


def gamma_total(mass: float, csl: CslParams) -> float:
    """Total heating rate [W]: geometry-independent closed form."""
    if not mass > 0:
        raise ValueError(f"mass must be > 0, got {mass}")
    c = CONSTANTS
    # divide by r_c twice: r_c**2 can overflow where the rate merely underflows
    return 0.75 * c.hbar**2 * csl.lambda_rate * mass / c.m_nucleon**2 / csl.r_c / csl.r_c


def gamma_cm(
    model: MassModel, csl: CslParams, quad: QuadratureSpec
) -> PowerEstimate:
    """Center-of-mass heating rate [W] from the closed-form shape integral.

    The error is the value times REL_ERROR; quad is not read (the closed
    forms need no numerical controls).
    """
    value = gamma_total(total_mass(model), csl) * (model.shape_integral(csl.r_c) / I3_FREE)
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
    if model.separable:
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
    reduction = model.shape_integral(csl.r_c) / I3_FREE
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
