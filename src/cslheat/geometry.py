"""Continuum mass-density models, one frozen dataclass per shape.

The central quantity is mu_tilde(model, k): the Fourier transform of the
body's classical mass density,

    mu_tilde(k) = integral d^3x exp(-i k . x) rho(x),

in units of kg.  It equals the total mass at k = 0, obeys
|mu_tilde(k)| <= total_mass everywhere, and is Hermitian
(mu_tilde(-k) = conj(mu_tilde(k))) because the density is real.

Wavevectors are plain numpy arrays in 1/m, shape (3,) or (..., 3); every
function is vectorized over the leading axes.  Models are frozen
dataclasses, immutable and safe to share across threads.

Conventions: every body is centered at the origin (layered stacks span
z in [-H/2, H/2], layers listed bottom to top), and the `offset` field
applies a rigid translation, which multiplies mu_tilde by the phase
exp(-i k . offset).

The shape contract: a new shape is one MassModel class here, listed in
SHAPES.  Its dataclass fields are its spec fields (core reads, validates
and writes them by walking the fields), and it defines only its spec
`kind`, `extent_fields` (the spec field that sets each extent),
`total_mass` and `factors`.  `factors` are the independent Factors of the
normalized form factor of the centred body, in x, y, z order, each plain
data (dim, extent, profile): a line (dim 1) of one wavevector component,
a disc (2) or ball (3) of the radius of theirs; the extent is a line's
length, a disc's or ball's diameter, and a line's profile its layer
widths and densities, bottom to top.  A cuboid or stack has three lines,
a cylinder a disc and a line, a sphere a ball, a point mass a ball of
diameter 0.  A factor's form, its closed-form Gaussian moments and its
I3 scale follow from dim alone.  MassModel derives from the factors the
body's mu, `extents` and `inside` (the cell-centre test of the lattice
fill), and the lattice its per-plane densities and product grid.  I3 of
heating is one formula over the factors' moments, A_f of |f|^2 and B_f of
u^2 |f|^2 (u = r_c k): sum_f B_f prod_(g != f) A_g (_i3).  shape_integral
feeds it each factor's closed-form moments from the special kernels,
scaled by the product of the factors' scales; the Monte Carlo of heating
feeds it sampled ones.  A point mass (a single lattice site at
`position`) overrides mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nan, pi, prod
from typing import ClassVar, NamedTuple

import numpy as np

from .special import _disc_ab, _profile_ab, _sphere_reduction
from .special import sinc, sphere_form_kernel, two_j1_over_x

I3_FREE = 1.5 * pi**1.5  # integral of exp(-u^2) u^2 over all of R^3
_AXES = {"x": 0, "y": 1, "z": 2}
_ORIGIN = (0.0, 0.0, 0.0)


class NotSeparable(TypeError):
    """The model's form factor does not factorize over Cartesian axes."""


@dataclass(frozen=True)
class Material:
    name: str
    density: float  # kg/m^3


@dataclass(frozen=True)
class Layer:
    material: Material
    thickness: float


class Factor(NamedTuple):
    """One independent factor of the normalized form factor of the centred
    body: plain data, whose form, moments and I3 scale follow from dim."""

    dim: int  # 1 line, 2 disc, 3 ball
    extent: float  # m: a line's length, a disc's or ball's diameter
    profile: tuple | None = None  # a line's (widths, densities), bottom to top

    def form(self, k):
        """The factor at its component (line) or radius (disc, ball) k in 1/m."""
        if self.dim > 1:
            kernel = two_j1_over_x if self.dim == 2 else sphere_form_kernel
            return kernel(k * (0.5 * self.extent))
        widths, densities = self.profile
        if len(widths) == 1:
            return sinc(0.5 * k * self.extent)
        # sum_j rho_j t_j exp(-i k zbar_j) sinc(k t_j / 2) over sum_j rho_j t_j:
        # each term the closed-form integral over its layer, finite at k = 0
        out = np.zeros(np.shape(k), dtype=complex)
        z = -0.5 * self.extent
        for t, rho in zip(widths, densities):
            out += rho * t * np.exp(-1j * k * (z + 0.5 * t)) * sinc(0.5 * k * t)
            z += t
        return out / sum(rho * t for t, rho in zip(widths, densities))

    def moments(self, r_c: float) -> tuple[float, float]:
        """Closed-form (A, B) at r_c, normalized as the kernel gives them."""
        if self.dim == 1:
            widths, densities = self.profile
            return _profile_ab([w / r_c for w in widths], densities)
        s = 0.5 * self.extent / r_c
        return _disc_ab(s) if self.dim == 2 else (nan, _sphere_reduction(s))

    @property
    def scale(self) -> float:
        """The I3 factor the moments leave out: a disc's azimuth, a ball's
        point-mass value."""
        return (1.0, 2.0 * pi, I3_FREE)[self.dim - 1]


def _line(widths, densities=(1.0,)) -> Factor:
    """A line of uniform layers side by side."""
    return Factor(1, sum(widths), (tuple(widths), tuple(densities)))


def _i3(moments, scale: float = 1.0) -> float:
    """scale * sum_f B_f prod_(g != f) A_g over the factors' (A_f, B_f),
    each sum and product in factor order (b_x a_y a_z + a_x b_y a_z + ...).
    Linear in each (A_f, B_f): that pair set to (0, 1) gives dI3/dB_f, to
    (1, 0) dI3/dA_f."""
    total = 0.0
    for f in range(len(moments)):
        total += prod(b if g == f else a for g, (a, b) in enumerate(moments))
    return scale * total


class MassModel:
    """Base of the shape classes: applies the offset phase once and forms
    the closed-form shape integral from the factors' moments."""

    kind: ClassVar[str]
    extent_fields: ClassVar[tuple[str, ...]]

    @property
    def extents(self) -> tuple[float, ...]:
        """Full width along x, y and z: each factor's extent on its axes."""
        return tuple(f.extent for f in self.factors for _ in range(f.dim))

    def _split(self, x, y, z):
        """Each factor with its components of (x, y, z)."""
        comps = iter((x, y, z))
        return [(f, [next(comps) for _ in range(f.dim)]) for f in self.factors]

    def mu(self, k: np.ndarray) -> np.ndarray:
        """mu_tilde at the wavevectors k of shape (..., 3), offset included:
        the mass times the factors, each of its component or radius."""
        out = 1.0
        for factor, ks in self._split(k[..., 0], k[..., 1], k[..., 2]):
            out = out * factor.form(ks[0] if len(ks) == 1 else np.sqrt(sum(c * c for c in ks)))
        return _translated(self.total_mass * out, k, self.offset)

    def inside(self, x, y, z):
        """The cell-centre test of the lattice fill, on centred coordinates."""
        out = True
        for factor, cs in self._split(x, y, z):
            half = 0.5 * factor.extent
            out = out & (np.abs(cs[0]) <= half if len(cs) == 1
                         else sum(c * c for c in cs) <= half**2)
        return out

    def shape_integral(self, r_c: float) -> float:
        """I3(r_c) of heating, closed form: _i3 of the factors' moments."""
        factors = self.factors
        return _i3([f.moments(r_c) for f in factors], prod(f.scale for f in factors))


@dataclass(frozen=True)
class PointMass(MassModel):
    mass: float  # kg
    position: tuple[float, float, float] = _ORIGIN
    offset: tuple[float, float, float] = _ORIGIN
    kind = "point"
    extent_fields = ()  # nothing to check: a point has no extent
    factors = (Factor(3, 0.0),)  # a ball of diameter 0

    @property
    def total_mass(self) -> float:
        return float(self.mass)

    def mu(self, k: np.ndarray) -> np.ndarray:
        pos = np.asarray(self.position, dtype=float) + np.asarray(self.offset, dtype=float)
        return self.mass * np.exp(-1j * (k @ pos))


@dataclass(frozen=True)
class Cuboid(MassModel):
    lx: float
    ly: float
    lz: float
    material: Material
    offset: tuple[float, float, float] = _ORIGIN
    kind = "cuboid"
    extent_fields = ("lx", "ly", "lz")

    @property
    def total_mass(self) -> float:
        return self.material.density * self.lx * self.ly * self.lz

    @property
    def factors(self) -> tuple[Factor, Factor, Factor]:
        return _line((self.lx,)), _line((self.ly,)), _line((self.lz,), (self.material.density,))


@dataclass(frozen=True)
class Sphere(MassModel):
    radius: float
    material: Material
    offset: tuple[float, float, float] = _ORIGIN
    kind = "sphere"
    extent_fields = ("radius",) * 3

    @property
    def total_mass(self) -> float:
        return self.material.density * (4.0 / 3.0) * np.pi * self.radius**3

    @property
    def factors(self) -> tuple[Factor]:
        return (Factor(3, 2.0 * self.radius),)


@dataclass(frozen=True)
class Cylinder(MassModel):
    """Circular cylinder with its axis along z."""

    radius: float
    height: float
    material: Material
    offset: tuple[float, float, float] = _ORIGIN
    kind = "cylinder"
    extent_fields = ("radius", "radius", "height")

    @property
    def total_mass(self) -> float:
        return self.material.density * np.pi * self.radius**2 * self.height

    @property
    def factors(self) -> tuple[Factor, Factor]:
        return Factor(2, 2.0 * self.radius), _line((self.height,), (self.material.density,))


@dataclass(frozen=True)
class LayeredStack(MassModel):
    """Rectangular-cross-section stack of uniform layers along z."""

    lx: float
    ly: float
    layers: tuple[Layer, ...]
    offset: tuple[float, float, float] = _ORIGIN
    kind = "layered_stack"
    extent_fields = ("lx", "ly", "layers")

    @property
    def height(self) -> float:
        return float(sum(layer.thickness for layer in self.layers))

    @property
    def total_mass(self) -> float:
        area_density = sum(layer.material.density * layer.thickness for layer in self.layers)
        return float(area_density * (self.lx * self.ly))

    @property
    def factors(self) -> tuple[Factor, Factor, Factor]:
        return _line((self.lx,)), _line((self.ly,)), _line(
            [layer.thickness for layer in self.layers],
            [layer.material.density for layer in self.layers])


SHAPES = {cls.kind: cls for cls in (PointMass, Cuboid, Sphere, Cylinder, LayeredStack)}


def total_mass(model: MassModel) -> float:
    """Total mass in kg; equals mu_tilde(model, 0)."""
    return model.total_mass


def extents(model: MassModel) -> tuple[float, float, float]:
    """Full spatial width of the body along each Cartesian axis.

    Sets the lattice resolutions and bounds the lattice spacing.  A point
    mass has zero extent.
    """
    return model.extents


def _as_k(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    if k.shape[-1:] != (3,):
        raise ValueError(f"wavevector must have last axis of size 3, got {k.shape}")
    if not np.all(np.isfinite(k)):
        raise ValueError("wavevector components must be finite")
    return k


def _translated(val, k: np.ndarray, offset) -> np.ndarray:
    """Complex val times exp(-i k . offset), skipped at a zero offset."""
    if not np.any(offset):
        return np.add(val, 0j)
    return val * np.exp(-1j * np.dot(k, offset))


def mu_tilde(model: MassModel, k):
    """Fourier transform of the mass density at wavevector(s) k [kg].

    k has shape (3,) or (..., 3); the result is a complex scalar or an
    array of shape k.shape[:-1].
    """
    out = model.mu(_as_k(k))
    return out if out.ndim else complex(out)


def normalized_form_factor(model: MassModel, k):
    """mu_tilde(model, k)/total_mass(model): dimensionless, magnitude <= 1;
    each part divided by M (complex division rounds via 1/M: |f(0)| < 1)."""
    mu, mass = np.asarray(mu_tilde(model, k)), total_mass(model)
    out = np.empty_like(mu)
    out.real, out.imag = mu.real / mass, mu.imag / mass
    return out if out.ndim else complex(out)


def _lines(model: MassModel) -> tuple[Factor, ...]:
    """The factors of a cuboid or stack, all lines; NotSeparable for any other body."""
    factors = model.factors
    if any(f.dim != 1 for f in factors):
        raise NotSeparable(f"{type(model).__name__} does not factorize over Cartesian axes")
    return factors


def separable_factors(model: MassModel, axis: str, k_axis):
    """1D factor f_axis(k) with normalized_form_factor = f_x * f_y * f_z.

    Only cuboids and layered stacks factorize over Cartesian axes; other
    variants raise NotSeparable.  Each factor has magnitude <= 1 and
    equals 1 at k = 0 (up to the translation phase).
    """
    if not (isinstance(axis, str) and axis in _AXES):
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    ax = _AXES[axis]
    k = np.asarray(k_axis, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError("wavevector components must be finite")
    out = _translated(_lines(model)[ax].form(k), k, model.offset[ax])
    return out if out.ndim else complex(out)
