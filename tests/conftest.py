"""Shared fixtures and independent oracles.

mu_oracle integrates exp(-i k . x) * rho(x) directly over the body with
tensor-product Gauss-Legendre rules in body-adapted coordinates (plus a
periodic trapezoid rule in the azimuth for curved bodies).  It never
touches the closed-form factors, so it is a genuinely independent check
of the geometry module.

i3_quadrature integrates the shape integral I3 of the heating rate by
adaptive Gauss-Kronrod quadrature of the analytic form factors, the
route the closed forms in cslheat.heating replaced; gamma_cm_quadrature
turns it into a rate.

full_grid_lattice and gamma_cm_pair_tensor are the straightforward
lattice constructions that cslheat.lattice replaced: a meshgrid of every
candidate site masked by N x 3 coordinate tests, and the pair sum from
the full (N, N, 3) difference tensor.  mu_tilde_site_matrix is the site
sum from one full (N, M) phase matrix.

gamma_cm_mc_oneshot is the Monte-Carlo estimator of cslheat.heating
without its blocks and without its shared formula: one draw of every
sample's |u|^2 per factor (by its Gamma(d / 2, 1) law), numpy's means and
covariances over all samples, and each shape's combination of the
factors' moments and its partials written out.
"""

from __future__ import annotations

from math import ceil, pi, sqrt

import numpy as np
import pytest

from cslheat import (
    CONSTANTS,
    Cuboid,
    Cylinder,
    Layer,
    LayeredStack,
    Material,
    PointMass,
    PowerEstimate,
    Sphere,
    extents,
    gamma_total,
    separable_factors,
    total_mass,
)
from cslheat.heating import I3_FREE
from cslheat.quadrature import adaptive_gk
from cslheat.special import sinc, sphere_form_kernel, two_j1_over_x

R_C = 1e-7


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def _leggauss(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def _phase_sum(points, weights, k):
    """sum_j w_j exp(-i k . x_j) for one k (3,) or a batch (M, 3)."""
    k = np.asarray(k, dtype=float)
    if k.ndim == 1:
        return np.sum(weights * np.exp(-1j * (points @ k)))
    out = np.empty(len(k), dtype=complex)
    chunk = max(1, 4_000_000 // len(points))
    for i in range(0, len(k), chunk):
        out[i : i + chunk] = weights @ np.exp(-1j * (points @ k[i : i + chunk].T))
    return out


def mu_oracle(model, k, n=48):
    """Direct 3D numerical integration of exp(-i k.x) rho(x) over the body."""
    k = np.asarray(k, dtype=float)
    off = np.asarray(model.offset, dtype=float)

    if isinstance(model, PointMass):
        pos = np.asarray(model.position, float) + off
        return model.mass * np.exp(-1j * (k @ pos))

    if isinstance(model, Cuboid):
        xs, wx = _leggauss(n, -0.5 * model.lx, 0.5 * model.lx)
        ys, wy = _leggauss(n, -0.5 * model.ly, 0.5 * model.ly)
        zs, wz = _leggauss(n, -0.5 * model.lz, 0.5 * model.lz)
        grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
        w = (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).ravel()
        return model.material.density * _phase_sum(grid + off, w, k)

    if isinstance(model, LayeredStack):
        xs, wx = _leggauss(n, -0.5 * model.lx, 0.5 * model.lx)
        ys, wy = _leggauss(n, -0.5 * model.ly, 0.5 * model.ly)
        zs_parts, wz_parts = [], []
        z0 = -0.5 * model.height
        for layer in model.layers:
            zs_l, wz_l = _leggauss(n, z0, z0 + layer.thickness)
            zs_parts.append(zs_l)
            wz_parts.append(wz_l * layer.material.density)
            z0 += layer.thickness
        zs = np.concatenate(zs_parts)
        wz = np.concatenate(wz_parts)
        grid = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
        w = (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).ravel()
        return _phase_sum(grid + off, w, k)

    if isinstance(model, Sphere):
        rs, wr = _leggauss(n, 0.0, model.radius)
        mus, wmu = _leggauss(n, -1.0, 1.0)
        nphi = 2 * n
        phis = 2.0 * np.pi * np.arange(nphi) / nphi
        wphi = 2.0 * np.pi / nphi
        sin_t = np.sqrt(1.0 - mus**2)
        x = rs[:, None, None] * sin_t[None, :, None] * np.cos(phis)[None, None, :]
        y = rs[:, None, None] * sin_t[None, :, None] * np.sin(phis)[None, None, :]
        z = rs[:, None, None] * mus[None, :, None] * np.ones(nphi)[None, None, :]
        grid = np.stack([x, y, z], axis=-1).reshape(-1, 3)
        w = (
            (wr * rs**2)[:, None, None] * wmu[None, :, None] * wphi
            * np.ones(nphi)[None, None, :]
        ).ravel()
        return model.material.density * _phase_sum(grid + off, w, k)

    if isinstance(model, Cylinder):
        ss, ws = _leggauss(n, 0.0, model.radius)
        zs, wz = _leggauss(n, -0.5 * model.height, 0.5 * model.height)
        nphi = 2 * n
        phis = 2.0 * np.pi * np.arange(nphi) / nphi
        wphi = 2.0 * np.pi / nphi
        x = ss[:, None, None] * np.cos(phis)[None, :, None] * np.ones(n)[None, None, :]
        y = ss[:, None, None] * np.sin(phis)[None, :, None] * np.ones(n)[None, None, :]
        z = np.ones(n)[:, None, None] * np.ones(nphi)[None, :, None] * zs[None, None, :]
        grid = np.stack([x, y, z], axis=-1).reshape(-1, 3)
        w = (
            (ws * ss)[:, None, None] * wphi * np.ones(nphi)[None, :, None]
            * wz[None, None, :]
        ).ravel()
        return model.material.density * _phase_sum(grid + off, w, k)

    raise TypeError(f"no oracle for {model!r}")


def random_material(rng) -> Material:
    return Material("m", float(rng.uniform(100.0, 20000.0)))


def random_model(rng, r_c=R_C, with_offset=True):
    """A random mass model with dimensions within a few r_c."""
    offset = (
        tuple(rng.uniform(-2.0 * r_c, 2.0 * r_c, 3)) if with_offset else (0.0, 0.0, 0.0)
    )
    kind = rng.integers(0, 5)
    dim = lambda: float(rng.uniform(0.2, 5.0) * r_c)
    if kind == 0:
        return PointMass(
            float(rng.uniform(1e-12, 1e-6)),
            tuple(rng.uniform(-r_c, r_c, 3)),
            offset,
        )
    if kind == 1:
        return Cuboid(dim(), dim(), dim(), random_material(rng), offset)
    if kind == 2:
        return Sphere(dim(), random_material(rng), offset)
    if kind == 3:
        return Cylinder(dim(), dim(), random_material(rng), offset)
    n_layers = int(rng.integers(1, 7))
    layers = tuple(
        Layer(random_material(rng), float(rng.uniform(0.1, 1.5) * r_c))
        for _ in range(n_layers)
    )
    return LayeredStack(dim(), dim(), layers, offset)


def random_k(rng, r_c=R_C, n=1):
    """Wavevectors with |k| * r_c <= 8, uniform in magnitude and direction."""
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    mag = rng.uniform(0.0, 8.0 / r_c, size=(n, 1))
    k = direction * mag
    return k[0] if n == 1 else k


def _abs2(z) -> np.ndarray:
    z = np.asarray(z)
    return z.real**2 + z.imag**2


def i3_quadrature(model, r_c, quad):
    """I3 = integral d^3u e^(-u^2) u^2 |f(u/r_c)|^2 by adaptive quadrature.

    Returns (value, absolute error estimate).  Every 1D integral runs on
    [0, quad.u_max] with initial panels no wider than half the form-factor
    oscillation period (pi * r_c / extent in u); QuadratureNotConverged
    propagates.
    """

    def gk(f, extent_over_rc):
        panel = pi / extent_over_rc if extent_over_rc > 0 else None
        res = adaptive_gk(f, 0.0, quad.u_max, quad.rel_tol, max_panel_width=panel)
        return res.value, res.error

    if isinstance(model, PointMass):
        val, err = gk(lambda u: np.exp(-u * u) * u**4, 0.0)
        return 4.0 * pi * val, 4.0 * pi * err

    if isinstance(model, Sphere):
        scale = model.radius / r_c

        def radial(u):
            return np.exp(-u * u) * u**4 * _abs2(sphere_form_kernel(u * scale))

        val, err = gk(radial, 2.0 * scale)
        return 4.0 * pi * val, 4.0 * pi * err

    if isinstance(model, Cylinder):
        rscale = model.radius / r_c
        hscale = model.height / r_c

        def fperp2(u):
            return _abs2(two_j1_over_x(u * rscale))

        def fz2(u):
            return _abs2(sinc(0.5 * u * hscale))

        a_perp, da_perp = gk(lambda u: np.exp(-u * u) * u * fperp2(u), 2.0 * rscale)
        b_perp, db_perp = gk(lambda u: np.exp(-u * u) * u**3 * fperp2(u), 2.0 * rscale)
        a_z, da_z = gk(lambda u: np.exp(-u * u) * fz2(u), hscale)
        b_z, db_z = gk(lambda u: np.exp(-u * u) * u * u * fz2(u), hscale)
        a_z, da_z, b_z, db_z = 2.0 * a_z, 2.0 * da_z, 2.0 * b_z, 2.0 * db_z
        val = 2.0 * pi * (b_perp * a_z + a_perp * b_z)
        err = 2.0 * pi * (
            db_perp * a_z + b_perp * da_z + da_perp * b_z + a_perp * db_z
        )
        return val, err

    ab = {}
    for axis, ext in zip("xyz", (e / r_c for e in extents(model))):

        def f2(u, axis=axis):
            return _abs2(separable_factors(model, axis, u / r_c))

        a, da = gk(lambda u: np.exp(-u * u) * f2(u), ext)
        b, db = gk(lambda u: np.exp(-u * u) * u * u * f2(u), ext)
        ab[axis] = (2.0 * a, 2.0 * da, 2.0 * b, 2.0 * db)
    val = 0.0
    err = 0.0
    for i in "xyz":
        (a1, da1, _, _), (a2, da2, _, _) = [ab[j] for j in "xyz" if j != i]
        _, _, bi, dbi = ab[i]
        val += bi * a1 * a2
        err += dbi * a1 * a2 + bi * da1 * a2 + bi * a1 * da2
    return val, err


def gamma_cm_quadrature(model, csl, quad) -> PowerEstimate:
    """Center-of-mass heating rate [W] through i3_quadrature."""
    i3, err = i3_quadrature(model, csl.r_c, quad)
    pref = gamma_total(total_mass(model), csl) / I3_FREE
    return PowerEstimate(pref * i3, pref * err)


def full_grid_lattice(model, spacing):
    """(positions, masses) of build_lattice, from the full candidate grid."""

    def axis_centers(center, extent):
        n = max(1, ceil(extent / spacing - 1e-9))
        return center + (np.arange(n) - 0.5 * (n - 1)) * spacing

    ext = extents(model)
    center = np.asarray(model.offset, dtype=float)
    axes = [axis_centers(center[i], ext[i]) for i in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    pos = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    rel = pos - center
    if isinstance(model, Sphere):
        inside = np.einsum("ij,ij->i", rel, rel) <= model.radius**2
    elif isinstance(model, Cylinder):
        inside = (rel[:, 0] ** 2 + rel[:, 1] ** 2 <= model.radius**2) & (
            np.abs(rel[:, 2]) <= 0.5 * model.height
        )
    else:
        inside = np.all(np.abs(rel) <= 0.5 * np.asarray(ext), axis=1)
    if isinstance(model, LayeredStack):
        bounds = -0.5 * model.height + np.cumsum(
            [0.0] + [l.thickness for l in model.layers]
        )
        rho = np.array([l.material.density for l in model.layers])
        idx = np.clip(
            np.searchsorted(bounds, rel[:, 2], side="right") - 1, 0, len(rho) - 1
        )
        density = rho[idx]
    else:
        density = np.full(len(pos), model.material.density)
    pos = pos[inside]
    masses = density[inside] * spacing**3
    masses *= total_mass(model) / np.sum(masses)
    return pos, masses


def gamma_cm_pair_tensor(lat, csl) -> float:
    """gamma_cm_discrete from the full (N, N, 3) pair-difference tensor."""
    diff = lat.positions[:, None, :] - lat.positions[None, :, :]
    q = np.einsum("ijk,ijk->ij", diff, diff) / (4.0 * csl.r_c**2)
    s = lat.masses @ (np.exp(-q) * (1.5 - q)) @ lat.masses
    c = CONSTANTS
    return (
        csl.lambda_rate * c.hbar**2 / (2.0 * lat.total_mass * c.m_nucleon**2)
        / csl.r_c**2 * s
    )


def mu_tilde_site_matrix(lat, k):
    """mu_tilde_discrete from one (N, M) complex phase matrix."""
    k = np.asarray(k, dtype=float)
    out = lat.masses @ np.exp(-1j * (lat.positions @ k.reshape(-1, 3).T))
    return out.reshape(k.shape[:-1])


def gamma_cm_mc_oneshot(model, csl, quad) -> PowerEstimate:
    """gamma_cm_mc from one draw of all quad.mc_samples samples per factor."""
    rng = np.random.Generator(np.random.Philox(quad.rng_seed))
    n = quad.mc_samples

    def moments(dim, form):
        """Means of |f|^2 and u^2 |f|^2 and the covariance of the means."""
        # |u|^2 of u ~ N(0, I_dim / 2) is Gamma(dim / 2, 1)
        if dim == 1:
            u = rng.normal(0.0, sqrt(0.5), n)
            u2 = u * u
        else:
            u2 = rng.standard_exponential(n) if dim == 2 else rng.standard_gamma(1.5, n)
            u = np.sqrt(u2)
        f2 = _abs2(form(u / csl.r_c)) * np.ones(n)
        g = np.stack((f2, u2 * f2))
        return np.mean(g, axis=1), np.cov(g) / n

    def grad_var(cov, d_a, d_b):
        return d_a * d_a * cov[0, 0] + 2.0 * d_a * d_b * cov[0, 1] + d_b * d_b * cov[1, 1]

    if isinstance(model, (Cuboid, LayeredStack)):
        est = [moments(1, lambda k, axis=axis: separable_factors(model, axis, k))
               for axis in "xyz"]
        (a_x, b_x), (a_y, b_y), (a_z, b_z) = (mean for mean, _ in est)
        i3 = b_x * a_y * a_z + a_x * b_y * a_z + a_x * a_y * b_z
        var = (grad_var(est[0][1], b_y * a_z + a_y * b_z, a_y * a_z)
               + grad_var(est[1][1], b_x * a_z + a_x * b_z, a_x * a_z)
               + grad_var(est[2][1], b_x * a_y + a_x * b_y, a_x * a_y))
    elif isinstance(model, Cylinder):
        (a_p, b_p), cov_p = moments(2, lambda k: two_j1_over_x(k * model.radius))
        (a_z, b_z), cov_z = moments(1, lambda k: sinc(0.5 * k * model.height))
        i3 = b_p * a_z + a_p * b_z
        var = grad_var(cov_p, b_z, a_z) + grad_var(cov_z, b_p, a_p)
    elif isinstance(model, Sphere):
        (_, b), cov = moments(3, lambda k: sphere_form_kernel(k * model.radius))
        i3, var = b, cov[1, 1]
    else:  # a point mass: |f| = 1
        (_, b), cov = moments(3, lambda k: 1.0)
        i3, var = b, cov[1, 1]
    # the Gaussian of the draws integrates to pi^(3/2) over R^3
    pref = gamma_total(total_mass(model), csl) / I3_FREE * pi**1.5
    return PowerEstimate(pref * i3, pref * sqrt(var))
