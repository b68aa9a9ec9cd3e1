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

        gamma_cm = gamma_total(M) * S / (3/2 M^2),
        S = sum_{l,l'} m_l m_l' exp(-D^2/4) (3/2 - D^2/4),

    with D = |R_l - R_l'| / r_c and gamma_total the closed form of
    core.gamma_total, so this module sums only the sites and involves no
    quadrature at all; its only deviation from the continuum value is the
    lattice discretization itself.  The general pair sum takes row blocks
    of bounded size and, the kernel being symmetric, each unordered site
    pair once.  For product-grid lattices, only of bodies whose factors
    are all lines (cuboids and layered stacks), S / M^2 factorizes over
    axes into one 1D pair sum per line, and the three sums go through the
    I3 formula of geometry._i3.  Each axis sum picks its route from its
    sites: banded by index offset, in one correlation of the weights, when
    they lie on one pitch, the dense pair matrix in row blocks when they
    do not.

Sites are filled on a simple cubic grid (cell centers inside the body,
tested on the three broadcast 1D axes) and the site masses are rescaled
by one overall factor so the lattice mass matches the model exactly.
The grid is taken one slab of whole x planes at a time (_slabs), so no
full-grid mask exists: build_lattice counts the sites, then fills its two
arrays slab by slab, and lattice_check sums its 128^3 convergence probe
slab by slab without ever building it.
The lattice reads a body through its factors (their extents, and the
profile, layer widths and densities, of a last factor that is a line)
and, where that last factor is not a line (a sphere), through
model.material.density.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import ceil, fsum, sqrt

import numpy as np

from .core import CONSTANTS, CslParams, gamma_total
from .geometry import Cuboid, Factor, MassModel, Material, PointMass
from .geometry import _i3, _lines, extents, mu_tilde, total_mass

# candidate sites of build_lattice: its output, 32 B a site, stays under
# 3.2 GB; the candidate grid is only ever held a slab at a time
SITE_CAP = 100_000_000
PAIR_CAP = 2**28  # site pairs of gamma_cm_discrete
# pair-phase Gaussian exp(-D^2/4) with the (3/2 - D^2/4) polynomial is
# below 1e-16 relative for D > 14
_PAIR_BAND_D = 16.0
# pair entries (site phases) per block of gamma_cm_discrete and of the dense
# route of _axis_pair_sums (mu_tilde_discrete): the work buffers stay in
# cache; pair blocks of 2^20 entries ran 1.4-2x slower.  Also the candidate
# sites of a slab of _slabs (at least one x plane): a 128^3 grid goes in
# slabs of 4 planes, one mu_tilde_discrete block each
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

    @property
    def n_cells(self) -> int:
        return len(self.masses)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


def _axis_centers(center: float, extent: float, d: float) -> np.ndarray:
    n = max(1, ceil(extent / d - 1e-9))
    return center + (np.arange(n) - 0.5 * (n - 1)) * d


def _slabs(model: MassModel, spacing: float):
    """Yield the candidate grid of build_lattice one slab of whole x planes
    at a time, as (inside, axes, density).

    A slab holds at most _PAIR_BLOCK candidate sites and at least one x
    plane.  `inside` is its cell-centre mask, `axes` its three site axes
    broadcast against the mask, `density` the density of each z plane (a
    scalar for a body whose last factor is not a line).  For a spacing > 0;
    raises, before any slab exists, for one not below every extent, and
    TooManySites beyond SITE_CAP candidate sites.
    """
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
    last = model.factors[-1]
    if last.dim == 1:  # a z line: its layers set the density per z plane
        widths, rho = last.profile
        bounds = -0.5 * ext[2] + np.cumsum([0.0, *widths])
        idx = np.clip(np.searchsorted(bounds, z.ravel(), side="right") - 1,
                      0, len(rho) - 1)
        density = np.asarray(rho)[idx]
    else:
        density = model.material.density
    ax, ay, az = np.ix_(*axes)
    step = max(1, _PAIR_BLOCK // (len(axes[1]) * len(axes[2])))
    for i in range(0, len(axes[0]), step):
        yield model.inside(x[i : i + step], y, z), (ax[i : i + step], ay, az), density


def _fill(slab, spacing: float, masses: np.ndarray, positions: np.ndarray) -> None:
    """Write a slab's sites, before the rescale, into masses (n,) and
    positions (n, 3); masking the broadcast axes keeps C (x-major) order."""
    inside, axes, density = slab
    for k, a in enumerate(axes):
        positions[:, k] = np.broadcast_to(a, inside.shape)[inside]
    np.multiply(np.broadcast_to(density, inside.shape)[inside], spacing**3, out=masses)


def build_lattice(model: MassModel, spacing: float) -> Lattice:
    """Fill the body with a simple-cubic grid of pitch `spacing`.

    Cell centers inside the body become sites with mass density * d^3,
    then all masses are rescaled by one factor so the total equals
    total_mass(model) exactly.  The grid is taken in slabs of whole x
    planes (_slabs): one pass counts the sites, a second fills the two
    output arrays, allocated once, so no full-grid mask or gather
    temporary exists.  Raises TooManySites, before allocating anything,
    when the grid would exceed SITE_CAP candidate sites.
    """
    if not spacing > 0:
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if isinstance(model, PointMass):
        pos = np.asarray(model.position, float) + np.asarray(model.offset, float)
        return Lattice(masses=np.array([model.mass]), positions=pos.reshape(1, 3))

    n_sites = sum(np.count_nonzero(slab[0]) for slab in _slabs(model, spacing))
    if n_sites == 0:
        raise ValueError("no lattice site fell inside the body; reduce spacing")
    masses, positions = np.empty(n_sites), np.empty((n_sites, 3))
    i = 0
    for slab in _slabs(model, spacing):
        j = i + np.count_nonzero(slab[0])
        _fill(slab, spacing, masses[i:j], positions[i:j])
        i = j
    masses *= total_mass(model) / np.sum(masses)
    return Lattice(masses=masses, positions=positions)


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

    O(N^2) time over site pairs, taken in row blocks of at most _PAIR_BLOCK
    pair entries, so memory is bounded per block and does not grow with
    N^2.  Each block of rows runs only against the columns from its first
    row on: N (N + 1) / 2 pairs, the symmetric half of the square;
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
    q_buf, t_buf = np.empty((2, min(step, n) * n))
    parts = []
    for i in range(0, n, step):
        # the diagonal block counts whole, the pairs right of it twice
        j = min(i + step, n)
        size = (j - i) * (n - i)
        q, t = q_buf[:size].reshape(j - i, n - i), t_buf[:size].reshape(j - i, n - i)
        q.fill(0.0)
        for u in axes:
            q += np.square(np.subtract.outer(u[i:j], u[i:], out=t), out=t)
        np.exp(np.negative(q, out=t), out=t)
        np.multiply(np.subtract(1.5, q, out=q), t, out=q)  # e^-q (3/2 - q)
        row = m[i:j] @ q
        parts += [float(row[: j - i] @ m[i:j]), 2.0 * float(row[j - i :] @ m[j:])]
    mass = lat.total_mass
    return gamma_total(mass, csl) * (fsum(parts) / mass / mass / 1.5)


def _axis_pair_sums(
    positions: np.ndarray, weights: np.ndarray, r_c: float
) -> tuple[float, float]:
    """(Q, P) = sum_{ab} w_a w_b e^{-d^2/4} {1, (1/2 - d^2/4)}, d in r_c units,
    for the weights normalized to sum 1.

    Both sums take the raw weights and are divided once by the squared
    weight sum, taken exactly (fsum): weights normalized first sum to 1
    only to rounding, which biases Q and P by about 5e-16.

    Sites on one pitch, to 64 eps of the largest |position| (the scale of
    their rounding, far above eps times the pitch on long or offset axes),
    have a pair distance that depends only on the index offset, and the
    Gaussian kills offsets beyond _PAIR_BAND_D r_c: the band's weight
    autocorrelations come from one 'valid' np.correlate of the weights
    padded by band - 1 zeros, O(n * band) time and O(n) memory ('full'
    mode would take every offset, O(n^2)).  Only sites of mixed pitches take
    the dense pair matrix, in row blocks of _PAIR_BLOCK entries whose sums
    fsum adds, so memory does not grow as n^2.
    """
    n = len(positions)
    if n == 1:
        return 1.0, 0.5
    norm = fsum(weights.tolist()) ** 2
    pitch = (positions[-1] - positions[0]) / (n - 1)
    drift = np.abs(positions - (positions[0] + np.arange(n) * pitch))
    if np.max(drift) > 64 * sys.float_info.epsilon * np.max(np.abs(positions)):
        step = max(1, _PAIR_BLOCK // n)
        q_parts, p_parts = [], []
        for i in range(0, n, step):
            q = (np.subtract.outer(positions[i : i + step], positions) / r_c) ** 2 / 4.0
            g = np.exp(-q)
            q_parts.append(float(weights[i : i + step] @ g @ weights))
            p_parts.append(float(weights[i : i + step] @ ((0.5 - q) * g) @ weights))
        return fsum(q_parts) / norm, fsum(p_parts) / norm
    offsets = np.arange(min(n - 1, ceil(_PAIR_BAND_D * r_c / pitch)) + 1)
    q = (offsets * pitch / r_c) ** 2 / 4.0
    g = np.exp(-q)
    corr = np.correlate(np.concatenate((weights, np.zeros(len(offsets) - 1))), weights)
    corr[1:] *= 2.0  # offsets +o and -o
    return float(corr @ g) / norm, float(corr @ ((0.5 - q) * g)) / norm


def _line_grid(line: Factor, center: float, spacing: float):
    """The 1D site marginal (positions, weights) of a line factor.

    Each layer gets its own whole number of cells, close to `spacing`,
    so no cell straddles a density jump and the discretization error
    stays O(spacing^2).
    """
    zpos, zw = [], []
    z = -0.5 * line.extent
    for t, density in zip(*line.profile):
        n = max(1, round(t / spacing))
        p = t / n
        zpos.append(z + (np.arange(n) + 0.5) * p)
        zw.append(np.full(n, density * p))
        z += t
    return np.concatenate(zpos) + center, np.concatenate(zw)


def gamma_cm_discrete_separable(
    model: MassModel, csl: CslParams, spacing: float
) -> float:
    """Pairwise-Gaussian gamma_cm [W] for a product-grid lattice of the model.

    Exact for the discrete mass distribution (no quadrature); differs from
    the continuum rate only by the O(spacing^2) lattice discretization.
    Cuboids and layered stacks only: any other body raises NotSeparable.
    """
    shape_sum = _i3([_axis_pair_sums(*_line_grid(line, c, spacing), csl.r_c)
                     for line, c in zip(_lines(model), model.offset)])
    return gamma_total(total_mass(model), csl) * (shape_sum / 1.5)


def _slab_mu_tilde(model: MassModel, spacing: float, k) -> complex:
    """mu_tilde_discrete(build_lattice(model, spacing), k), one slab at a
    time: the lattice never exists whole.  The slabs' unscaled sums are
    scaled once by the mass over the exact sum (fsum) of the slab masses.
    """
    mu, sums = 0j, []
    for slab in _slabs(model, spacing):
        n = np.count_nonzero(slab[0])
        part = Lattice(np.empty(n), np.empty((n, 3)))
        _fill(slab, spacing, part.masses, part.positions)
        mu += mu_tilde_discrete(part, k)
        sums.append(part.total_mass)
    return mu * (total_mass(model) / fsum(sums))


def _random_lattice(rng: np.random.Generator, n: int, scale: float) -> Lattice:
    masses = rng.uniform(0.5, 2.0, n) * 1e-18
    positions = rng.uniform(-scale, scale, (n, 3))
    return Lattice(masses=masses, positions=positions)


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
        moved = Lattice(lat0.masses, rng.uniform(-1e-6, 1e-6, lat0.positions.shape))
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
        errs.append(abs(_slab_mu_tilde(cube, d, kvec) - exact) / mass)
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
