"""Design studies built on the heating rates.

The center-of-mass heating rate is the only piece of the energy balance
that depends on the test-mass geometry; thermal leakage
(gamma_th * k_B * T) depends on materials and damping but not on shape.
Layered test masses exploit this: alternating-density stacks concentrate
form-factor weight at wavevectors near the layer pitch, so designs with
identical total mass and identical material mass ratios (hence identical
thermal response) can differ strongly in collapse-noise response.  These
routines scan the correlation length, optimize the layer count at fixed
mass, quantify the discriminability of a design set, and convert measured
powers into collapse-rate upper bounds via the linearity of the rate in
lambda.

A design (a LayerDesign, built by design_stack) is itself a
LayeredStack: the rates, the body checks of core and a spec's
mass_model take it as it is.  The thermal gain lives in core, whose
spec checks use it, and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .core import CONSTANTS_VERSION, MAX_PAIRS, CslParams, QuadratureSpec, ThermalModel
from .core import _check_body, _material_to_dict, thermal_gain
from .geometry import Layer, LayeredStack, MassModel, Material
from .heating import gamma_cm, heating_report

_TIE_REL = 1e-9  # see optimize_layers


class InfeasibleDesign(ValueError):
    """The requested layer family cannot satisfy its constraints."""


class ConstraintViolation(ValueError):
    """Designs in a comparison set differ in mass or material mass ratio."""


class LayerDesign(LayeredStack):
    """Alternating two-material stack at fixed total mass: a LayeredStack.

    Layers alternate material A, material B, bottom to top; all A layers
    share one thickness and all B layers another, so a design is fixed by
    the pair count, the mass split, and the cross-section.  It has the
    stack's fields and goes wherever a stack goes (heating_report, a
    spec's mass_model); it adds only the pair count, the mass ratio and
    its payload form.
    """

    @property
    def n_pairs(self) -> int:
        return len(self.layers) // 2

    def _masses(self) -> tuple[float, float]:
        """The A and the B mass, each summed over its layers bottom to top."""
        area = self.lx * self.ly
        return tuple(sum(layer.thickness * layer.material.density * area
                         for layer in self.layers[first::2]) for first in (0, 1))

    @property
    def mass_ratio(self) -> float:
        mass_a, mass_b = self._masses()
        return mass_a / mass_b

    def to_dict(self) -> dict:
        mass_a, mass_b = self._masses()
        return {
            "material_a": _material_to_dict(self.layers[0].material),
            "material_b": _material_to_dict(self.layers[1].material),
            "layer_thicknesses": [layer.thickness for layer in self.layers],
            "lx": self.lx,
            "ly": self.ly,
            "n_layers": len(self.layers),
            "total_mass": mass_a + mass_b,
            "mass_ratio": mass_a / mass_b,
        }


def design_stack(
    total_mass_kg: float,
    material_a: Material,
    material_b: Material,
    lx: float,
    ly: float,
    n_pairs: int,
    mass_ratio: float = 1.0,
) -> LayerDesign:
    """Alternating stack of n_pairs (A, B) bilayers at fixed total mass.

    The fixed-mass and fixed-mass-ratio constraints determine the two
    layer thicknesses: each material's mass is split evenly over its
    n_pairs layers.  Every design in the family contains both materials,
    so the mass ratio is well defined for any pair count, including one.
    """
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise InfeasibleDesign(f"need 1 to {MAX_PAIRS} layer pairs, got {n_pairs}")
    if not total_mass_kg > 0:
        raise InfeasibleDesign(f"total mass must be > 0, got {total_mass_kg}")
    if not mass_ratio > 0:
        raise InfeasibleDesign(f"mass ratio must be > 0, got {mass_ratio}")
    if not (lx > 0 and ly > 0):
        raise InfeasibleDesign(f"cross-section must be positive, got {lx} x {ly}")
    if not (material_a.density > 0 and material_b.density > 0):
        raise InfeasibleDesign("material densities must be positive")
    area = lx * ly
    if not area > 0:
        raise InfeasibleDesign(f"the cross-section {lx!r} x {ly!r} underflows to area 0")
    mass_a = total_mass_kg * mass_ratio / (1.0 + mass_ratio)
    mass_b = total_mass_kg / (1.0 + mass_ratio)
    t_a = mass_a / (n_pairs * material_a.density * area)
    t_b = mass_b / (n_pairs * material_b.density * area)
    # as for a spec's stack: thicknesses > 0, a finite height and mass
    if not (t_a > 0 and t_b > 0 and n_pairs * (t_a + t_b) < math.inf
            and total_mass_kg / area < math.inf):
        raise InfeasibleDesign(f"the {n_pairs}-pair stack of layer thicknesses {t_a!r} and "
                               f"{t_b!r} has no finite height and mass per area")
    return LayerDesign(lx, ly, (Layer(material_a, t_a), Layer(material_b, t_b)) * n_pairs)


@dataclass(frozen=True)
class OptimizeResult:
    best: LayerDesign
    gamma_cm: float
    evaluations: tuple[tuple[int, float], ...]  # (n_pairs, gamma_cm)

    def to_dict(self) -> dict:
        return {
            "best": self.best.to_dict(),
            "gamma_cm": self.gamma_cm,
            "n_pairs": self.best.n_pairs,
            "evaluations": [
                {"n_pairs": n, "gamma_cm": g} for n, g in self.evaluations
            ],
        }


def optimize_layers(
    total_mass_kg: float,
    materials: tuple[Material, Material],
    cross_section: tuple[float, float],
    n_layers_range: Iterable[int],
    csl: CslParams,
    quad: QuadratureSpec,
    mass_ratio: float = 1.0,
) -> OptimizeResult:
    """Exhaustive argmax of gamma_cm over alternating-stack pair counts.

    Every candidate satisfies the same fixed-mass and fixed-mass-ratio
    constraints; only the layer count (hence the layer thicknesses)
    varies.  Improvements below _TIE_REL (relative) do not displace an
    earlier candidate, so exact ties resolve toward fewer layers.
    """
    counts = sorted(set(int(n) for n in n_layers_range))
    if not counts:
        raise InfeasibleDesign("n_layers_range is empty")
    mat_a, mat_b = materials
    lx, ly = cross_section
    evaluations = []
    best_design = None
    best_gamma = -math.inf
    for n in counts:
        design = design_stack(total_mass_kg, mat_a, mat_b, lx, ly, n, mass_ratio)
        g = gamma_cm(design, csl, quad).value
        evaluations.append((n, g))
        if g > best_gamma * (1.0 + _TIE_REL) or best_design is None:
            best_design, best_gamma = design, g
    return OptimizeResult(best_design, best_gamma, tuple(evaluations))


@dataclass(frozen=True)
class DiscriminabilityReport:
    gamma_cms: tuple[float, ...]
    thermal_power: float
    saturation_powers: tuple[float, ...]  # gamma_cm + thermal per design
    spread: float  # (max - min) / mean of the gamma_cms
    threshold: float
    discriminating: bool


def discriminability_report(
    designs: Sequence[LayerDesign],
    csl: CslParams,
    thermal: ThermalModel,
    quad: QuadratureSpec,
    threshold: float = 0.1,
) -> DiscriminabilityReport:
    """Collapse-vs-thermal discriminability of an equal-mass design set.

    All designs must share total mass and material mass ratio (relative
    1e-9), which pins their thermal response to a single value; the spread
    of the center-of-mass rates then measures how well the set separates a
    collapse signal from a thermal-leakage background.
    """
    if len(designs) < 2:
        raise ValueError("need at least two designs to compare")
    ref = designs[0]
    for i, d in enumerate(designs[1:], start=1):
        if abs(d.total_mass - ref.total_mass) > 1e-9 * ref.total_mass:
            raise ConstraintViolation(
                f"design {i} mass {d.total_mass!r} differs from {ref.total_mass!r}"
            )
        if abs(d.mass_ratio - ref.mass_ratio) > 1e-9 * ref.mass_ratio:
            raise ConstraintViolation(
                f"design {i} mass ratio {d.mass_ratio!r} differs from "
                f"{ref.mass_ratio!r}"
            )
    gammas = tuple(gamma_cm(d, csl, quad).value for d in designs)
    th = thermal_gain(thermal)
    mean = sum(gammas) / len(gammas)
    spread = (max(gammas) - min(gammas)) / mean if mean > 0 else 0.0
    return DiscriminabilityReport(
        gamma_cms=gammas,
        thermal_power=th,
        saturation_powers=tuple(g + th for g in gammas),
        spread=spread,
        threshold=threshold,
        discriminating=spread > threshold,
    )


def _without_none(items) -> dict:
    return {key: value for key, value in items if value is not None}


@dataclass(frozen=True)
class ScanRow:
    r_c: float
    gamma_cm_per_lambda: float  # [J]
    reduction_factor: float
    lambda_bound: float | None
    converged: bool = True  # the closed forms always converge


@dataclass(frozen=True)
class ScanTable:
    axis: str
    grid: tuple[float, ...]
    rows: tuple[ScanRow, ...]
    metadata: dict

    def to_dict(self) -> dict:
        """The table as JSON; rows scanned without an observed power have
        no lambda_bound key.  Row keys follow the ScanRow field order."""
        return asdict(self, dict_factory=_without_none)


def scan_rc(
    model: MassModel,
    rc_grid: Sequence[float],
    quad: QuadratureSpec,
    observed_power: float | None = None,
    metadata: dict | None = None,
) -> ScanTable:
    """gamma_cm / lambda and the reduction factor over a grid of r_c.

    The rate is linear in lambda, so each row reports the per-lambda value
    (evaluated at lambda = 1/s, hence in joules); with an observed power
    the row also carries the implied lambda upper bound.
    """
    grid = [float(r) for r in rc_grid]
    if not grid:
        raise ValueError("rc_grid is empty")
    if any(not r > 0 for r in grid):
        raise ValueError("rc_grid values must be > 0")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("rc_grid must be strictly increasing")
    # the rate per lambda and every extent over r_c are largest at the
    # smallest r_c: if they pass the body checks there, they pass everywhere
    _check_body(model, CslParams(1.0, grid[0]))
    rows = []
    for rc in grid:
        report = heating_report(model, CslParams(1.0, rc), quad)
        bound = None
        if observed_power is not None:
            bound = _bound_from_denominator(observed_power, report.gamma_cm)
        rows.append(ScanRow(rc, report.gamma_cm, report.reduction_factor, bound))
    meta = {"constants_version": CONSTANTS_VERSION}
    if metadata:
        meta.update(metadata)
    return ScanTable(axis="r_c", grid=tuple(grid), rows=tuple(rows), metadata=meta)


def _bound_from_denominator(observed_power: float, denom: float) -> float:
    if observed_power < 0:
        raise ValueError(f"observed power must be >= 0, got {observed_power}")
    if observed_power == 0.0:
        return 0.0
    if denom <= 0.0:
        return math.inf
    return observed_power / denom


def lambda_bound(
    observed_power: float,
    model: MassModel,
    r_c: float,
    quad: QuadratureSpec,
) -> float:
    """Largest collapse rate consistent with an observed heating power [1/s].

    gamma_cm is linear in lambda, so the bound is the observed power over
    the rate at lambda = 1/s.  Returns +inf when that denominator
    underflows to zero.
    """
    denom = gamma_cm(model, CslParams(1.0, r_c), quad).value
    return _bound_from_denominator(observed_power, denom)
