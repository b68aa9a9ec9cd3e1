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
geometry: I3 = sum_f B_f prod_(g != f) A_g over the factors of its form
factor, fed the closed-form Gaussian moments of the special kernels, the
continuum limit of the pairwise lattice sum E_pairs[(1 - D^2/6)
exp(-D^2/4)].  A point mass has reduction 1, a ball of radius s r_c
6 [(s^2 - 2) + (s^2 + 2) e^(-s^2)] / s^6; line profiles and discs take
the moments of special._profile_ab and special._disc_ab.  Each turns to
a Taylor series where its direct expression would cancel; the tests hold
all of them to REL_ERROR against mpmath.  Adaptive quadrature, the
lattice and Monte Carlo are oracles only.

The seeded Monte-Carlo estimator (gamma_cm_mc) feeds the same formula
sampled moments, drawn with numpy's counter-based Philox generator in a
fixed order, so it is bit-identical for a seed; blocks of samples merge
by Chan's update, so memory is flat in mc_samples.  It draws each
sample's u^2 = |u|^2 of u ~ N(0, I_d / 2) from its exact law
Gamma(d / 2, 1): the square of one normal for a line, one standard
exponential for a disc, one standard_gamma(3/2) for a ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan, pi, sqrt
from typing import NamedTuple

import numpy as np

from .core import CslParams, QuadratureSpec, gamma_total
from .geometry import I3_FREE, MassModel, _i3, total_mass

# relative accuracy of the closed forms for extent / r_c in [1e-6, 1e5],
# aperiodic stacks of up to 256 layers and periodic ones of up to 1,024,
# enforced against mpmath by the tests
REL_ERROR = 1e-12
_MC_BLOCK = 1 << 14  # Monte-Carlo samples per block: temporaries stay in L2
_GAUSS_3D = pi**1.5  # integral of exp(-u^2) over R^3: I3 over _i3 of the sampled means


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

    Per factor of the body, in order, draws u^2 = |u|^2 of u ~ N(0, I_d / 2)
    from its law Gamma(d / 2, 1) and averages
    A = |f(k)|^2 and B = u^2 |f(k)|^2 at k = |u| / r_c over the same draws,
    keeping their covariance (a lone factor needs B alone).  The means go
    through the closed forms' formula, I3 = pi^(3/2) _i3(means), and the
    error through its exact partials (delta method).  No phase or offset
    enters.  Sampling factor by factor avoids the 3D corner where the sinc
    lobes of two plate axes meet (probability ~5e-7 per sample for a 1 mm
    plate at r_c = 1e-7 m), but a factor whose central lobe is far
    narrower than r_c is still missed: a 1 mm disc comes out low by tens
    of standard errors.
    """
    if quad.mc_samples < 1000:
        raise ValueError(f"mc_samples must be >= 1000, got {quad.mc_samples}")
    rng = np.random.Generator(np.random.Philox(quad.rng_seed))
    both = len(model.factors) > 1
    stats = [_mc_moments(rng, f, csl.r_c, quad.mc_samples, both) for f in model.factors]
    means = [tuple(mean.tolist()) if both else (nan, float(mean[0])) for mean, _ in stats]
    var = 0.0
    for f, (_, cov) in enumerate(stats):
        # the partials by the estimated moments: (A_f, B_f), or B_f alone
        units = ((1.0, 0.0), (0.0, 1.0))[-len(cov):]
        grad = np.array([_i3([unit if g == f else m for g, m in enumerate(means)], _GAUSS_3D)
                         for unit in units])
        var += float((np.outer(grad, grad) * cov).sum())  # no BLAS: fixed bits
    pref = gamma_total(total_mass(model), csl) / I3_FREE
    return PowerEstimate(pref * _i3(means, _GAUSS_3D), pref * sqrt(var))


def _mc_moments(rng, factor, r_c: float, n: int, both: bool):
    """Means of A = |f|^2 and B = u^2 |f|^2 (B alone unless both) over n
    draws of one factor, and the covariance matrix of those means."""
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n, _MC_BLOCK):
        m = min(_MC_BLOCK, n - start)
        # |u|^2 of u ~ N(0, I_d / 2) follows Gamma(d / 2, 1)
        if factor.dim == 1:
            u2 = np.square(rng.normal(0.0, sqrt(0.5), m))
        elif factor.dim == 2:
            u2 = rng.standard_exponential(m)
        else:
            u2 = rng.standard_gamma(1.5, m)
        f = factor.form(np.sqrt(u2) / r_c)  # |f| is even: |u| serves a line too
        f2 = f.real**2 + f.imag**2 if np.iscomplexobj(f) else f * f
        rows = (f2, u2 * f2) if both else (u2 * f2,)
        block_mean = np.array([row.mean() for row in rows])
        dev = [row - mu for row, mu in zip(rows, block_mean)]
        co = np.empty((len(rows), len(rows)))
        for x in range(len(rows)):
            for y in range(x + 1):
                co[x, y] = co[y, x] = (dev[x] * dev[y]).sum()
        # Chan's update of means and co-moments; running sums would cancel
        delta, total = block_mean - mean, count + m
        mean += delta * (m / total)
        m2 += co + np.outer(delta, delta) * (count * m / total)
        count = total
    return mean, m2 / (n - 1) / n


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
