"""Discrete-lattice oracles for the continuum heating formulas.

A Lattice is a flat list of (mass, equilibrium position) sites.  Three
brute-force checks live here:

  * mu_tilde_discrete: the direct site sum  sum_l m_l exp(-i k . R_l),
    which converges to the continuum form factor as O(spacing^2).
  * f_double_commutator: the site-wise canonical-commutator evaluation of
    the double commutator Tr(rho [mu^+, [mu, H]]) for the linearized
    coupling.  Only [u_a, p_b] = i hbar delta_ab enters; the potential
    commutes with positions, so the result is the state-independent
    c-number -hbar^2 (sum_l m_l) k^2 regardless of site positions.
  * gamma_cm_discrete / gamma_cm_discrete_separable: the center-of-mass
    heating rate evaluated exactly for the discrete mass distribution.
    The Gaussian-weighted wavevector integral of the pair phases has the
    closed form

        gamma_cm = lambda hbar^2 / (2 M m_N^2 r_c^2)
                   * sum_{l,l'} m_l m_l' exp(-D^2/4) (3/2 - D^2/4),

    with D = |R_l - R_l'| / r_c, so this route involves no quadrature at
    all; its only deviation from the continuum value is the lattice
    discretization itself.  The general pair sum takes row blocks of
    bounded size.  For product-grid lattices (cuboids, layered stacks) it
    factorizes over axes into 1D marginal sums, banded by index offset
    on every axis of uniform pitch.

Sites are filled on a simple cubic grid (cell centers inside the body,
tested on the three broadcast 1D axes) and the site masses are rescaled
by one overall factor so the lattice mass matches the model exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import ceil, fsum, sqrt

import numpy as np

from .core import CONSTANTS, CslParams
from .geometry import Cuboid, MassModel, Material, NotSeparable, PointMass
from .geometry import extents, mu_tilde, total_mass
from .heating import gamma_total

SITE_CAP = 100_000_000  # candidate sites of build_lattice: 0.8 GB per coordinate
PAIR_CAP = 2**28  # site pairs of gamma_cm_discrete
# pair-phase Gaussian exp(-D^2/4) with the (3/2 - D^2/4) polynomial is
# below 1e-16 relative for D > 14
_PAIR_BAND_D = 16.0
# pair entries (site phases) per block of gamma_cm_discrete (mu_tilde_discrete):
# the work buffers stay in cache; pair blocks of 2^20 entries ran 1.4-2x slower
_PAIR_BLOCK = 1 << 16


# lattice_check's probe: a cube of side 2 r_c, mass M = 8 rho r_c^3, on
# 12^3 sites (pitch r_c / 6).  Its pair sum multiplies two site masses of
# M / 12^3 and adds up to 3/2 M^2: its rate is a normal float only for r_c
# in LATTICE_CHECK_RC (m), 0 below and overflowing above.
_PROBE = Material("probe", 2329.0)
LATTICE_CHECK_RC = tuple((mass / (8.0 * _PROBE.density)) ** (1.0 / 3.0) for mass in
                         (12**3 * sqrt(sys.float_info.min), sqrt(sys.float_info.max / 1.5)))


class TooManySites(RuntimeError):
    pass


@dataclass(frozen=True)
class Lattice:
    """Immutable site list; masses in kg, positions in m, shape (N,), (N, 3)."""

    masses: np.ndarray
    positions: np.ndarray
    cell_volume: float

    @property
    def n_cells(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


def _axis_centers(center: float, extent: float, d: float) -> np.ndarray:
    n = max(1, ceil(extent / d - 1e-9))
    return center + (np.arange(n) - 0.5 * (n - 1)) * d


def build_lattice(model: MassModel, spacing: float) -> Lattice:
    """Fill the body with a simple-cubic grid of pitch `spacing`.

    Cell centers inside the body become sites with mass density * d^3,
    then all masses are rescaled by one factor so the total equals
    total_mass(model) exactly.  Raises TooManySites, before allocating
    the grid, when it would exceed SITE_CAP candidate sites.
    """
    if not spacing > 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if isinstance(model, PointMass):
        pos = np.asarray(model.position, float) + np.asarray(model.offset, float)
        return Lattice(
            masses=np.array([model.mass]),
            positions=pos.reshape(1, 3),
            cell_volume=spacing**3,
        )

    ext = extents(model)
    if spacing >= min(ext):
        raise ValueError(
            f"spacing {spacing} must be smaller than every body dimension {ext}"
        )
    center = np.asarray(model.offset, dtype=float)
    axes = [_axis_centers(center[i], ext[i], spacing) for i in range(3)]
    n_total = len(axes[0]) * len(axes[1]) * len(axes[2])
    if n_total > SITE_CAP:
        raise TooManySites(
            f"grid of {n_total} candidate sites exceeds the cap {SITE_CAP}"
        )
    x, y, z = np.ix_(*(a - c for a, c in zip(axes, center)))
    inside = model.inside(x, y, z)
    if model.separable:
        widths, rho = model.z_profile()
        bounds = -0.5 * ext[2] + np.cumsum([0.0, *widths])
        idx = np.clip(np.searchsorted(bounds, z.ravel(), side="right") - 1,
                      0, len(rho) - 1)
        density = np.asarray(rho)[idx]  # per z plane
    else:
        density = model.material.density

    n_sites = np.count_nonzero(inside)
    if n_sites == 0:
        raise ValueError("no lattice site fell inside the body; reduce spacing")
    # masking the broadcast axes gathers the sites in C (x-major) order
    pos = np.empty((n_sites, 3))
    for k, a in enumerate(np.ix_(*axes)):
        pos[:, k] = np.broadcast_to(a, inside.shape)[inside]
    masses = np.broadcast_to(density, inside.shape)[inside] * spacing**3
    masses *= total_mass(model) / np.sum(masses)
    return Lattice(masses=masses, positions=pos, cell_volume=spacing**3)


def mu_tilde_discrete(lat: Lattice, k):
    """Direct geometry-factor sum over sites: sum_l m_l exp(-i k . R_l).

    Summed as m cos(k . R) - i m sin(k . R) over site blocks of about
    _PAIR_BLOCK phases, so memory does not grow with the site count.  Each
    block reduces site by site in a fixed order, not by a BLAS product,
    whose order (and so whose last bits) would follow the thread count.
    """
    k = np.asarray(k, dtype=float)
    single = k.shape == (3,)
    kk = k.reshape(-1, 3)
    re, im = np.zeros(len(kk)), np.zeros(len(kk))
    step = max(1, _PAIR_BLOCK // max(len(kk), 1))
    for i in range(0, len(lat.masses), step):
        phases = lat.positions[i : i + step] @ kk.T
        m_blk = lat.masses[i : i + step, None]
        re += (m_blk * np.cos(phases)).sum(axis=0)
        im -= (m_blk * np.sin(phases)).sum(axis=0)
    out = re + 1j * im
    return complex(out[0]) if single else out.reshape(k.shape[:-1])


def f_double_commutator(lat: Lattice, k) -> float:
    """Tr(rho [mu^+, [mu, H]]) for the linearized coupling, by site algebra.

    Steps, using only canonical commutators:
      1. mu's operator part carries displacement coefficients
         a_{l,a} = -i m_l exp(-i k . R_l) k_a.
      2. [u_{l,a}, H] = i hbar p_{l,a} / m_l (the potential commutes with
         positions), so [mu, H] has momentum coefficients
         c_{l,a} = hbar exp(-i k . R_l) k_a.
      3. Contracting mu^+'s displacement coefficients
         b_{l,a} = +i m_l exp(+i k . R_l) k_a against c through
         [u_{l',b}, p_{l,a}] = i hbar delta_{ll'} delta_{ab} gives the
         c-number F = i hbar sum_{l,a} b_{l,a} c_{l,a}.

    The site phases cancel pairwise, so F = -hbar^2 (sum_l m_l) k^2
    independent of the positions.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (3,):
        raise ValueError(f"expected a single wavevector of shape (3,), got {k.shape}")
    hbar = CONSTANTS.hbar
    phase = lat.positions @ k
    c = hbar * np.exp(-1j * phase)[:, None] * k[None, :]
    b = 1j * lat.masses[:, None] * np.exp(1j * phase)[:, None] * k[None, :]
    f_val = 1j * hbar * np.sum(b * c)
    return float(f_val.real)


def gamma_total_discrete(lat: Lattice, csl: CslParams) -> float:
    """Total heating rate [W] of the lattice; exact for any site layout."""
    return gamma_total(lat.total_mass, csl)


def gamma_cm_discrete(lat: Lattice, csl: CslParams) -> float:
    """Center-of-mass heating rate [W] by the exact pairwise Gaussian sum.

    O(N^2) time over site pairs, taken in row blocks of _PAIR_BLOCK pair
    entries, so memory is bounded per block and does not grow with N^2;
    use gamma_cm_discrete_separable for fine lattices of separable bodies.
    Raises TooManySites, before any work, beyond PAIR_CAP site pairs.
    """
    m, n = lat.masses, len(lat.masses)
    if n * n > PAIR_CAP:
        raise TooManySites(f"{n}^2 site pairs exceed the cap {PAIR_CAP}")
    # summed per-axis differences, not |x|^2 + |y|^2 - 2 x.y, which cancels
    # for bodies much larger than r_c; centered before scaling, so rounding
    # scales with the body size, not with its distance from the origin
    centered = lat.positions - lat.positions[0]
    axes = np.ascontiguousarray(centered.T / (2.0 * csl.r_c))
    step = max(1, _PAIR_BLOCK // n)
    q_buf, t_buf = np.empty((2, min(step, n), n))
    parts = []
    for i in range(0, n, step):
        q, t = q_buf[: n - i], t_buf[: n - i]
        q.fill(0.0)
        for u in axes:
            q += np.square(np.subtract.outer(u[i : i + step], u, out=t), out=t)
        np.exp(np.negative(q, out=t), out=t)
        np.multiply(np.subtract(1.5, q, out=q), t, out=q)  # e^-q (3/2 - q)
        parts.append(float(m[i : i + step] @ q @ m))
    s = fsum(parts)
    c = CONSTANTS
    return (
        csl.lambda_rate
        * c.hbar**2
        / (2.0 * lat.total_mass * c.m_nucleon**2)
        / csl.r_c
        / csl.r_c
        * s
    )


def _axis_pair_sums(
    positions: np.ndarray, weights: np.ndarray, r_c: float, pitch: float | None
) -> tuple[float, float]:
    """(Q, P) = sum_{ab} w_a w_b e^{-d^2/4} {1, (1/2 - d^2/4)}, d in r_c units.

    On an axis of uniform `pitch` the pair distance depends only on the
    index offset, and the Gaussian kills offsets beyond _PAIR_BAND_D r_c:
    one dot product per offset in the band, O(n * band) time and O(n)
    memory (np.correlate over all offsets would be O(n^2)).  Only an axis
    of mixed pitches (pitch None) takes the dense n x n pair matrix.
    """
    w = weights / np.sum(weights)
    n = len(w)
    if pitch is None:
        q = ((positions[:, None] - positions[None, :]) / r_c) ** 2 / 4.0
        g = np.exp(-q)
        return float(w @ g @ w), float(w @ ((0.5 - q) * g) @ w)
    offsets = np.arange(min(n - 1, ceil(_PAIR_BAND_D * r_c / pitch)) + 1)
    q = (offsets * pitch / r_c) ** 2 / 4.0
    g = np.exp(-q)
    corr = np.array([w[: n - o] @ w[o:] for o in offsets])
    corr[1:] *= 2.0  # offsets +o and -o
    return float(corr @ g), float(corr @ ((0.5 - q) * g))


def _axis_marginals(model, spacing):
    """Per-axis 1D site marginals (positions, weights, pitch) for a product grid.

    A z profile of several layers gets a grid aligned to the layer
    boundaries (per-layer pitch close to `spacing`), so no cell straddles
    a density jump and the discretization error stays O(spacing^2); a
    single layer takes the uniform grid of the x and y axes.
    """
    def uniform(center, length):
        n = max(1, round(length / spacing))
        p = length / n
        pos = center + (np.arange(n) - 0.5 * (n - 1)) * p
        return pos, np.full(n, 1.0 / n), p

    if not model.separable:
        raise NotSeparable(
            f"{type(model).__name__} has no product-grid lattice factorization"
        )
    off = model.offset
    xy = uniform(off[0], model.lx), uniform(off[1], model.ly)
    widths, rho = model.z_profile()
    if len(widths) == 1:
        return (*xy, uniform(off[2], widths[0]))
    zpos, zw = [], []
    z = -0.5 * sum(widths)
    pitches = []
    for t, density in zip(widths, rho):
        n = max(1, round(t / spacing))
        p = t / n
        pitches.append(p)
        zpos.append(z + (np.arange(n) + 0.5) * p)
        zw.append(np.full(n, density * p))
        z += t
    # a single pitch is required by the banded pair sum; fall back to
    # the direct sum when layers discretize to different pitches
    zpitch = pitches[0] if len(set(pitches)) == 1 else None
    return (*xy, (np.concatenate(zpos) + off[2], np.concatenate(zw), zpitch))


def gamma_cm_discrete_separable(
    model: MassModel, csl: CslParams, spacing: float
) -> float:
    """Pairwise-Gaussian gamma_cm [W] for a product-grid lattice of the model.

    Exact for the discrete mass distribution (no quadrature); differs from
    the continuum rate only by the O(spacing^2) lattice discretization.
    Supports point masses, cuboids, and layered stacks.
    """
    if isinstance(model, PointMass):
        return gamma_total(model.mass, csl)
    (q_x, p_x), (q_y, p_y), (q_z, p_z) = (
        _axis_pair_sums(pos, w, csl.r_c, pitch)
        for pos, w, pitch in _axis_marginals(model, spacing)
    )
    shape_sum = p_x * q_y * q_z + p_y * q_x * q_z + p_z * q_x * q_y
    c = CONSTANTS
    return (
        csl.lambda_rate
        * c.hbar**2
        * total_mass(model)
        / (2.0 * c.m_nucleon**2)
        / csl.r_c
        / csl.r_c
        * shape_sum
    )


def _random_lattice(rng: np.random.Generator, n: int, scale: float) -> Lattice:
    masses = rng.uniform(0.5, 2.0, n) * 1e-18
    positions = rng.uniform(-scale, scale, (n, 3))
    return Lattice(masses=masses, positions=positions, cell_volume=scale**3)


def lattice_check(seed: int = 0, r_c: float = 1e-7) -> dict:
    """Run the lattice property suite and return a JSON-ready report."""
    rng = np.random.Generator(np.random.Philox(seed))
    hbar = CONSTANTS.hbar
    checks = []

    # double-commutator identity on arbitrary site configurations
    worst = 0.0
    for _ in range(30):
        lat = _random_lattice(rng, int(rng.integers(1, 60)), 1e-7)
        k = rng.normal(0.0, 1.0 / r_c, 3)
        expected = -hbar**2 * lat.total_mass * float(k @ k)
        got = f_double_commutator(lat, k)
        if expected != 0.0:
            worst = max(worst, abs(got - expected) / abs(expected))
    checks.append(
        {
            "name": "double_commutator_identity",
            "passed": worst <= 1e-14,
            "max_rel_error": worst,
        }
    )

    # position independence: same masses, rearranged positions
    lat0 = _random_lattice(rng, 40, 1e-7)
    k = rng.normal(0.0, 1.0 / r_c, 3)
    ref = f_double_commutator(lat0, k)
    spread = 0.0
    for _ in range(10):
        moved = Lattice(
            masses=lat0.masses,
            positions=rng.uniform(-1e-6, 1e-6, lat0.positions.shape),
            cell_volume=lat0.cell_volume,
        )
        spread = max(spread, abs(f_double_commutator(moved, k) - ref) / abs(ref))
    checks.append(
        {
            "name": "double_commutator_position_independence",
            "passed": spread <= 1e-14,
            "max_rel_spread": spread,
        }
    )

    # |mu_discrete| <= sum of masses
    worst_bound = 0.0
    for _ in range(20):
        lat = _random_lattice(rng, int(rng.integers(1, 200)), 3e-7)
        kk = rng.normal(0.0, 1.0 / r_c, (50, 3))
        ratio = np.abs(mu_tilde_discrete(lat, kk)) / lat.total_mass
        worst_bound = max(worst_bound, float(ratio.max()))
    checks.append(
        {
            "name": "geometry_factor_bound",
            "passed": worst_bound <= 1.0 + 1e-12,
            "max_ratio": worst_bound,
        }
    )

    # discrete -> continuum convergence, O(d^2)
    cube = Cuboid(2 * r_c, 2 * r_c, 2 * r_c, _PROBE)
    direction = rng.normal(0.0, 1.0, 3)
    kvec = direction / np.linalg.norm(direction) / r_c
    mass = total_mass(cube)
    exact = mu_tilde(cube, kvec)
    errs, spacings = [], []
    for n in (16, 32, 64, 128):
        d = 2 * r_c / n
        lat = build_lattice(cube, d)
        errs.append(abs(mu_tilde_discrete(lat, kvec) - exact) / mass)
        spacings.append(d)
    slope = float(
        np.polyfit(np.log(np.asarray(spacings)), np.log(np.asarray(errs)), 1)[0]
    )
    checks.append(
        {
            "name": "discrete_continuum_convergence",
            "passed": abs(slope - 2.0) <= 0.3,
            "slope": slope,
            "rel_errors": [float(e) for e in errs],
        }
    )

    # total rate equals the closed form exactly
    lat = _random_lattice(rng, 25, 1e-7)
    csl = CslParams(1e-16, r_c)
    same = gamma_total_discrete(lat, csl) == gamma_total(lat.total_mass, csl)
    checks.append({"name": "total_rate_identity", "passed": bool(same)})

    # pairwise gamma_cm: direct O(N^2) sum vs factorized marginals
    lat_small = build_lattice(cube, r_c / 6.0)
    g_full = gamma_cm_discrete(lat_small, csl)
    g_marg = gamma_cm_discrete_separable(cube, csl, r_c / 6.0)
    rel = abs(g_full - g_marg) / g_full
    checks.append(
        {
            "name": "pairwise_vs_marginal_gamma_cm",
            "passed": rel <= 1e-11,
            "rel_difference": rel,
        }
    )

    return {
        "seed": seed,
        "r_c": r_c,
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
