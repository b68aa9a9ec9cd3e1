"""Physical constants, model parameters, the two closed forms that need no
geometry (gamma_total, thermal_gain), and experiment specification files.

Everything is SI internally and in the JSON spec files: lengths in meters,
densities in kg/m^3, rates in 1/s, temperatures in K, powers in W.

JSON spec schema (version 1), top-level keys:

    version     int, must be 1
    csl         {"lambda": collapse rate [1/s], "r_c": correlation length [m]}
    mass_model  {"type": "point" | "cuboid" | "sphere" | "cylinder"
                         | "layered_stack", ...}  (see below)
    thermal     optional {"gamma_th": [1/s], "temperature": [K]}
    quadrature  optional {"rel_tol", "u_max", "mc_samples", "rng_seed"};
                defaults rel_tol=1e-9, u_max=8, mc_samples=200000, rng_seed=0
    task        optional free-form object with task parameters for the CLI

Mass-model variants:

    point          {"mass", "position": [x,y,z]?}
    cuboid         {"lx", "ly", "lz", "material"}
    sphere         {"radius", "material"}
    cylinder       {"radius", "height", "material"}   (axis along z)
    layered_stack  {"lx", "ly", "layers": [{"material", "thickness"}, ...]}

plus an optional "offset": [x,y,z] rigid translation on any variant.
A material is either an inline {"name", "density"} object or the name of
a built-in material (see BUILTIN_MATERIALS).

Every value is read and range-checked once, by the reader of its field
(_number, _integer, _vector3, parse_material): numbers must be finite
(JSON NaN and Infinity, strings and booleans are refused), mass-model
numbers, densities, layer thicknesses and csl.r_c > 0, csl.lambda and
thermal values >= 0, a stack at most 2 MAX_PAIRS layers, and the
quadrature values inside the ranges of QuadratureSpec.  The checks across
fields follow: the total mass must be finite and > 0, the total rate and
the thermal power must not overflow, and no extent of the body may
exceed MAX_EXTENT_RC r_c.  A bad value raises
ValidationError naming it by its JSON path (csl.lambda,
mass_model.layers[3].thickness); the CLI reads task keys and flag values
with the same readers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections.abc import Collection, Iterable
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .geometry import SHAPES, Layer, MassModel, Material, total_mass

CONSTANTS_VERSION = "codata2018"


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 constants; fixed, no runtime override.

    The nucleon mass reference is the proton mass.  (Proton vs neutron
    differs by 0.14%, which matters only for closed-form regression
    values; those are stated against the proton choice.)
    """

    hbar: float = 1.054571817e-34  # J*s
    m_nucleon: float = 1.67262192369e-27  # kg, proton
    k_boltzmann: float = 1.380649e-23  # J/K


CONSTANTS = PhysicalConstants()

BUILTIN_MATERIALS = {
    "silicon": 2329.0,
    "silica": 2200.0,
    "sapphire": 3980.0,
    "aluminum": 2700.0,
    "copper": 8960.0,
    "niobium": 8570.0,
    "tungsten": 19300.0,
    "gold": 19320.0,
}

SPEC_VERSION = 1

_LAYER_KEYS = ("material", "thickness")
# at most MAX_PAIRS layer pairs in a design and 2 MAX_PAIRS layers in a
# spec stack.  Designs repeat one pair of layers, whose pair sums fold into
# O(pairs) lag sums (special._profile_ab), so they are no longer O(pairs^2);
# an aperiodic spec stack still takes O(layers^2) time (special._pair_sums),
# whose dense sum at the cap took 36 s in `heat` (series branch, height
# < 2 r_c) and 14 s otherwise, on 2 cores
MAX_PAIRS = 10_000
# Monte-Carlo runs in time linear in the samples (0.25-0.32 s CPU per 2e5
# samples of a stack): the cap keeps a spec's heat --mc to about 15 s
MAX_MC_SAMPLES = 10_000_000
# the closed-form rates square extent / r_c (sphere) and sum it over every
# pair of layer edges (special._pair_sums); below this bound neither can
# overflow at any layer count a spec can hold (a stack 1.6e301 m high at
# r_c = 1e-7 m gave NaN rates)
MAX_EXTENT_RC = 1e150


@dataclass(frozen=True)
class CslParams:
    """Collapse-model free parameters: rate lambda [1/s], length r_c [m]."""

    lambda_rate: float
    r_c: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical controls; the closed-form rates read only rel_tol.

    rel_tol     relative tolerance of the clamp of gamma_int at zero
                (see heating.heating_report), in (0, 1e-2)
    u_max       |k| * r_c cutoff of the adaptive-quadrature oracle of the
                tests (Gaussian tail exp(-u_max^2) is 1.6e-28 at 8), >= 6
    mc_samples  Monte-Carlo sample count, an integer >= 1000 (at most
                MAX_MC_SAMPLES in a spec)
    rng_seed    seed of the counter-based (Philox) generator, an integer >= 0
    """

    rel_tol: float = 1e-9
    u_max: float = 8.0
    mc_samples: int = 200_000
    rng_seed: int = 0


@dataclass(frozen=True)
class ThermalModel:
    """Environmental heating channel: damping rate [1/s] and temperature [K]."""

    gamma_th: float
    temperature: float


def gamma_total(mass: float, csl: CslParams) -> float:
    """Total heating rate [W]: geometry-independent closed form."""
    if not mass > 0:
        raise ValueError(f"mass must be > 0, got {mass}")
    c = CONSTANTS
    # divide by r_c twice: r_c**2 can overflow where the rate merely underflows
    return 0.75 * c.hbar**2 * csl.lambda_rate * mass / c.m_nucleon**2 / csl.r_c / csl.r_c


def thermal_gain(thermal: ThermalModel) -> float:
    """Thermal-leakage heating rate [W]: damping rate times k_B T.

    Never reads any geometry, so it is identical for all designs that
    share materials and damping.
    """
    return thermal.gamma_th * CONSTANTS.k_boltzmann * thermal.temperature


@dataclass(frozen=True)
class ExperimentSpec:
    version: int
    csl: CslParams
    mass_model: MassModel
    quadrature: QuadratureSpec
    thermal: ThermalModel | None = None
    task: dict | None = None


class ParseError(ValueError):
    """Malformed spec document; carries the position when known."""


class ValidationError(ValueError):
    """A spec value, task key or flag value is malformed or out of range;
    `field` names it by its JSON path or flag."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require_keys(obj: dict, allowed: Collection[str], required: Iterable[str], path: str):
    """Refuse the first unknown key, then the first missing one in `required` order."""
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{path}.{key}", "missing required key")


# (text, test) pairs: a number read with one of them must pass its test
_POSITIVE = ("> 0", lambda v: v > 0)
_NONNEGATIVE = (">= 0", lambda v: v >= 0)


def _number(val, field: str, bound: tuple | None = None) -> float:
    """val as a finite float inside bound, when one is given."""
    try:
        ok = not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(field, f"expected a finite number, got {val!r}")
    return _within(float(val), field, bound)


def _integer(val, field: str, bound: tuple | None = None) -> int:
    """val as an int inside bound; an integral float counts, an int stays exact."""
    number = _number(val, field)
    if not number.is_integer():
        raise ValidationError(field, f"expected an integer, got {val!r}")
    return _within(val if isinstance(val, int) else int(number), field, bound)


def _within(value, field: str, bound: tuple | None):
    if bound is not None and not bound[1](value):
        raise ValidationError(field, f"must be {bound[0]}, got {value!r}")
    return value


def _vector3(val, field: str) -> tuple[float, float, float]:
    if not isinstance(val, list) or len(val) != 3:
        raise ValidationError(field, "expected a 3-element array")
    return tuple(_number(v, field) for v in val)


def parse_material(val, path: str = "material") -> Material:
    """Material from an inline {name, density} object or a built-in name."""
    if isinstance(val, str):
        if val not in BUILTIN_MATERIALS:
            raise ValidationError(path, f"unknown material {val!r}")
        return Material(val, BUILTIN_MATERIALS[val])
    if isinstance(val, dict):
        _require_keys(val, ("name", "density"), ("name", "density"), path)
        return Material(str(val["name"]), _number(val["density"], f"{path}.density", _POSITIVE))
    raise ValidationError(path, "material must be a name or a {name, density} object")


def _read_layers(raw, field: str) -> tuple[Layer, ...]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError(field, "expected a non-empty array")
    if len(raw) > 2 * MAX_PAIRS:
        raise ValidationError(field, f"at most {2 * MAX_PAIRS} layers, got {len(raw)}")
    layers = []
    for i, entry in enumerate(raw):
        lpath = f"{field}[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(lpath, "expected an object")
        _require_keys(entry, _LAYER_KEYS, _LAYER_KEYS, lpath)
        layers.append(Layer(parse_material(entry["material"], f"{lpath}.material"),
                            _number(entry["thickness"], f"{lpath}.thickness", _POSITIVE)))
    return tuple(layers)


@functools.cache
def _spec_fields(cls, extra: tuple[str, ...] = ()):
    """Allowed keys (fields and `extra`), required keys (fields without a
    default) and (name, read, write) per field of cls."""
    fs = fields(cls)
    return (frozenset(extra + tuple(f.name for f in fs)),
            tuple(f.name for f in fs if f.default is MISSING),
            tuple((f.name, *_FIELDS.get(f.name, _NUMBER)) for f in fs))


def _read_fields(cls, obj, path: str, extra: tuple[str, ...] = ()):
    """cls from a JSON object holding one key per dataclass field of cls."""
    if not isinstance(obj, dict):
        raise ValidationError(path, "expected an object")
    allowed, required, table = _spec_fields(cls, extra)
    _require_keys(obj, allowed, required, path)
    return cls(**{name: read(obj[name], f"{path}.{name}") for name, read, _ in table
                  if name in obj})


def _parse_model(obj, path: str = "mass_model") -> MassModel:
    if not isinstance(obj, dict):
        raise ValidationError(path, "expected an object")
    kind = obj.get("type")
    # a JSON array or object as the type is unhashable: test for str first
    if not (isinstance(kind, str) and kind in SHAPES):
        raise ValidationError(f"{path}.type", f"unknown mass model type {kind!r}")
    return _read_fields(SHAPES[kind], obj, path, extra=("type",))


def load_spec(path) -> ExperimentSpec:
    """Load and fully validate a JSON experiment spec.

    Defaults are filled in (and therefore appear when the spec is
    serialized again).  Raises ParseError on malformed JSON and
    ValidationError naming the offending field on invariant violations.
    """
    text = Path(path).read_text()
    return loads_spec(text)


def loads_spec(text: str) -> ExperimentSpec:
    try:
        # NaN and +-Infinity stay strings, which every numeric field refuses
        doc = json.loads(text, parse_constant=str)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed spec document at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError("spec document must be a JSON object")

    _require_keys(
        doc,
        {"version", "csl", "mass_model", "thermal", "quadrature", "task"},
        ("version", "csl", "mass_model"),
        "spec",
    )
    version = doc["version"]
    if version != SPEC_VERSION:
        raise ValidationError("version", f"unsupported spec version {version!r}")

    csl_obj = doc["csl"]
    if not isinstance(csl_obj, dict):
        raise ValidationError("csl", "expected an object")
    _require_keys(csl_obj, ("lambda", "r_c"), ("lambda", "r_c"), "csl")
    csl = CslParams(_number(csl_obj["lambda"], "csl.lambda", _NONNEGATIVE),
                    _number(csl_obj["r_c"], "csl.r_c", _POSITIVE))

    model = _parse_model(doc["mass_model"])

    thermal = None
    if doc.get("thermal") is not None:
        thermal = _read_fields(ThermalModel, doc["thermal"], "thermal")
        if not math.isfinite(thermal_gain(thermal)):
            raise ValidationError("thermal", f"the thermal power gamma_th k_B T overflows at "
                                             f"gamma_th {thermal.gamma_th!r}, temperature "
                                             f"{thermal.temperature!r}")

    quadrature = _read_fields(QuadratureSpec, doc.get("quadrature") or {}, "quadrature")

    task = doc.get("task")
    if task is not None and not isinstance(task, dict):
        raise ValidationError("task", "expected an object")

    _check_body(model, csl)
    return ExperimentSpec(version=SPEC_VERSION, csl=csl, mass_model=model,
                          quadrature=quadrature, thermal=thermal, task=task)


def _check_body(model: MassModel, csl: CslParams) -> None:
    """The checks across the fields of a body at csl.

    Every value is in range, yet the total mass can overflow or underflow
    to 0, and the total rate or an extent over r_c can overflow.
    """
    try:
        mass = total_mass(model)
    except OverflowError:  # radius**3 past the largest float
        mass = math.inf
    if not 0 < mass < math.inf:
        raise ValidationError("mass_model", f"total mass must be finite and > 0, got {mass!r}")
    if not math.isfinite(gamma_total(mass, csl)):
        raise ValidationError("csl", f"the total heating rate of {mass!r} kg overflows at "
                                     f"lambda {csl.lambda_rate!r}, r_c {csl.r_c!r}")
    for field, extent in zip(model.extent_fields, model.extents):
        if not extent / csl.r_c <= MAX_EXTENT_RC:
            raise ValidationError(f"mass_model.{field}",
                                  f"an extent of {extent!r} m is more than "
                                  f"{MAX_EXTENT_RC:g} r_c at r_c {csl.r_c!r}")


def _material_to_dict(material: Material) -> dict:
    return {"name": material.name, "density": material.density}


def _layers_to_list(layers) -> list:
    return [{"material": _material_to_dict(layer.material), "thickness": layer.thickness}
            for layer in layers]


def _fields_to_dict(obj) -> dict:
    """JSON object of a spec dataclass: one key per field."""
    table = _spec_fields(type(obj))[2]
    return {name: write(getattr(obj, name)) for name, _, write in table}


def _scalar(read, bound) -> tuple:
    return functools.partial(read, bound=bound), lambda value: value


# (read, write) of each spec field that is not a positive number:
# read(value, field) checks the JSON value and write(value) turns the
# field back into JSON
_NUMBER = _scalar(_number, _POSITIVE)
_FIELDS = {
    "gamma_th": _scalar(_number, _NONNEGATIVE),
    "temperature": _scalar(_number, _NONNEGATIVE),
    "rel_tol": _scalar(_number, ("in (0, 1e-2)", lambda v: 0 < v < 1e-2)),
    "u_max": _scalar(_number, (">= 6", lambda v: v >= 6)),
    "mc_samples": _scalar(_integer, (f"in [1000, {MAX_MC_SAMPLES}]",
                                     lambda v: 1000 <= v <= MAX_MC_SAMPLES)),
    "rng_seed": _scalar(_integer, _NONNEGATIVE),
    "material": (parse_material, _material_to_dict),
    "layers": (_read_layers, _layers_to_list),
    "offset": (_vector3, list),
    "position": (_vector3, list),
}


def spec_to_dict(spec: ExperimentSpec) -> dict:
    out = {
        "version": spec.version,
        "csl": {"lambda": spec.csl.lambda_rate, "r_c": spec.csl.r_c},
        "mass_model": {"type": spec.mass_model.kind, **_fields_to_dict(spec.mass_model)},
        "quadrature": _fields_to_dict(spec.quadrature),
    }
    if spec.thermal is not None:
        out["thermal"] = _fields_to_dict(spec.thermal)
    if spec.task is not None:
        out["task"] = spec.task
    return out


def dumps_spec(spec: ExperimentSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True)


def canonical_spec_json(spec: ExperimentSpec) -> str:
    """Canonical serialization: sorted keys, no whitespace, exact floats."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))


def spec_hash(spec: ExperimentSpec) -> str:
    """SHA-256 of the canonical serialization, for result traceability."""
    return hashlib.sha256(canonical_spec_json(spec).encode()).hexdigest()


def with_seed(spec: ExperimentSpec, seed: int) -> ExperimentSpec:
    """Copy of the spec with the Monte-Carlo seed replaced."""
    return replace(spec, quadrature=replace(spec.quadrature, rng_seed=int(seed)))
