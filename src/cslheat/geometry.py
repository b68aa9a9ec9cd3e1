"""Continuum mass-density models and their analytic geometry form factors.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .special import sinc, sphere_form_kernel, two_j1_over_x

_AXES = {"x": 0, "y": 1, "z": 2}


class NotSeparable(TypeError):
    """The model's form factor does not factorize over Cartesian axes."""


@dataclass(frozen=True)
class Material:
    name: str
    density: float  # kg/m^3


@dataclass(frozen=True)
class PointMass:
    mass: float  # kg
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Cuboid:
    lx: float
    ly: float
    lz: float
    material: Material
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Sphere:
    radius: float
    material: Material
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Cylinder:
    """Circular cylinder with its axis along z."""

    radius: float
    height: float
    material: Material
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Layer:
    material: Material
    thickness: float


@dataclass(frozen=True)
class LayeredStack:
    """Rectangular-cross-section stack of uniform layers along z."""

    lx: float
    ly: float
    layers: tuple[Layer, ...]
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @property
    def height(self) -> float:
        return float(sum(layer.thickness for layer in self.layers))


MassModel = Union[PointMass, Cuboid, Sphere, Cylinder, LayeredStack]


def total_mass(model: MassModel) -> float:
    """Total mass in kg; equals mu_tilde(model, 0)."""
    if isinstance(model, PointMass):
        return float(model.mass)
    if isinstance(model, Cuboid):
        return model.material.density * model.lx * model.ly * model.lz
    if isinstance(model, Sphere):
        return model.material.density * (4.0 / 3.0) * np.pi * model.radius**3
    if isinstance(model, Cylinder):
        return model.material.density * np.pi * model.radius**2 * model.height
    if isinstance(model, LayeredStack):
        area = model.lx * model.ly
        return float(
            sum(layer.material.density * layer.thickness for layer in model.layers)
            * area
        )
    raise TypeError(f"not a mass model: {model!r}")


def extents(model: MassModel) -> tuple[float, float, float]:
    """Full spatial width of the body along each Cartesian axis.

    Used to pick quadrature panel sizes (the form factor oscillates on the
    wavevector scale 2*pi/extent) and lattice resolutions.  A point mass
    has zero extent.
    """
    if isinstance(model, PointMass):
        return (0.0, 0.0, 0.0)
    if isinstance(model, Cuboid):
        return (model.lx, model.ly, model.lz)
    if isinstance(model, Sphere):
        d = 2.0 * model.radius
        return (d, d, d)
    if isinstance(model, Cylinder):
        d = 2.0 * model.radius
        return (d, d, model.height)
    if isinstance(model, LayeredStack):
        return (model.lx, model.ly, model.height)
    raise TypeError(f"not a mass model: {model!r}")


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


def _stack_z_sum(model: LayeredStack, kz: np.ndarray) -> np.ndarray:
    """Sum_j rho_j * t_j * exp(-i kz zbar_j) * sinc(kz t_j / 2), in kg/m^2.

    Each term is the closed-form integral of rho_j exp(-i kz z) over its
    layer; the sinc form stays finite through kz = 0.
    """
    out = np.zeros(kz.shape, dtype=complex)
    z = -0.5 * model.height
    for layer in model.layers:
        t = layer.thickness
        zbar = z + 0.5 * t
        out += (
            layer.material.density
            * t
            * np.exp(-1j * kz * zbar)
            * sinc(0.5 * kz * t)
        )
        z += t
    return out


def mu_tilde(model: MassModel, k):
    """Fourier transform of the mass density at wavevector(s) k [kg].

    k has shape (3,) or (..., 3); the result is a complex scalar or an
    array of shape k.shape[:-1].
    """
    k = _as_k(k)
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]
    if isinstance(model, PointMass):
        pos = np.asarray(model.position, dtype=float) + np.asarray(
            model.offset, dtype=float
        )
        out = model.mass * np.exp(-1j * (k @ pos))
        return out if out.ndim else complex(out)

    if isinstance(model, Cuboid):
        val = total_mass(model) * (
            sinc(0.5 * kx * model.lx)
            * sinc(0.5 * ky * model.ly)
            * sinc(0.5 * kz * model.lz)
        )
    elif isinstance(model, Sphere):
        val = total_mass(model) * sphere_form_kernel(
            np.sqrt(kx * kx + ky * ky + kz * kz) * model.radius
        )
    elif isinstance(model, Cylinder):
        kperp = np.sqrt(kx * kx + ky * ky)
        val = total_mass(model) * (
            two_j1_over_x(kperp * model.radius) * sinc(0.5 * kz * model.height)
        )
    elif isinstance(model, LayeredStack):
        val = (
            model.lx
            * sinc(0.5 * kx * model.lx)
            * model.ly
            * sinc(0.5 * ky * model.ly)
            * _stack_z_sum(model, kz)
        )
    else:
        raise TypeError(f"not a mass model: {model!r}")

    out = _translated(val, k, model.offset)
    return out if out.ndim else complex(out)


def normalized_form_factor(model: MassModel, k):
    """mu_tilde(model, k)/total_mass(model): dimensionless, magnitude <= 1."""
    return mu_tilde(model, k) / total_mass(model)


def separable_factors(model: MassModel, axis: str, k_axis):
    """1D factor f_axis(k) with normalized_form_factor = f_x * f_y * f_z.

    Only cuboids and layered stacks factorize over Cartesian axes; other
    variants raise NotSeparable.  Each factor has magnitude <= 1 and
    equals 1 at k = 0 (up to the translation phase).
    """
    try:
        ax = _AXES[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    k = np.asarray(k_axis, dtype=float)

    if isinstance(model, Cuboid):
        length = (model.lx, model.ly, model.lz)[ax]
        out = sinc(0.5 * k * length)
    elif isinstance(model, LayeredStack):
        if axis == "x":
            out = sinc(0.5 * k * model.lx)
        elif axis == "y":
            out = sinc(0.5 * k * model.ly)
        else:
            area_density = sum(
                layer.material.density * layer.thickness for layer in model.layers
            )
            out = _stack_z_sum(model, k) / area_density
    else:
        raise NotSeparable(
            f"{type(model).__name__} does not factorize over Cartesian axes"
        )
    out = _translated(out, k, model.offset[ax])
    return out if out.ndim else complex(out)
