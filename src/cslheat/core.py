"""Physical constants, model parameters, and experiment specification files.

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
# Monte-Carlo runs in time linear in the samples (0.25-0.32 s CPU per 2e5
# samples of a stack): the cap keeps a spec's heat --mc to about 15 s
MAX_MC_SAMPLES = 10_000_000


@dataclass(frozen=True)
class CslParams:
    """Collapse-model free parameters: rate lambda [1/s], length r_c [m]."""

    lambda_rate: float
    r_c: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Numerical controls; the closed-form rates read only rel_tol.

    rel_tol     relative tolerance of the clamp of gamma_int at zero
                (see heating.heating_report)
    u_max       |k| * r_c cutoff of the adaptive-quadrature oracle of the
                tests (Gaussian tail exp(-u_max^2) is 1.6e-28 at 8)
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
    """A spec value violates an invariant; `field` names the offender."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Violation:
    field: str
    message: str


def _require_keys(obj: dict, allowed: Collection[str], required: Iterable[str], path: str):
    """Refuse the first unknown key, then the first missing one in `required` order."""
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ValidationError(f"{path}.{key}", "missing required key")


def _finite(val, field: str) -> float:
    try:
        ok = not isinstance(val, bool) and math.isfinite(val)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(field, f"expected a finite number, got {val!r}")
    return float(val)


def _number(obj: dict, key: str, path: str) -> float:
    return _finite(obj[key], f"{path}.{key}")


def _integer(obj: dict, key: str, path: str) -> int:
    val = _number(obj, key, path)
    if not val.is_integer():
        raise ValidationError(f"{path}.{key}", f"expected an integer, got {obj[key]!r}")
    return int(val)


def _vector3(obj: dict, key: str, path: str) -> tuple[float, float, float]:
    val = obj[key]
    if not isinstance(val, list) or len(val) != 3:
        raise ValidationError(f"{path}.{key}", "expected a 3-element array")
    return tuple(_finite(v, f"{path}.{key}") for v in val)


def parse_material(val, path: str = "material") -> Material:
    """Material from an inline {name, density} object or a built-in name."""
    if isinstance(val, str):
        if val not in BUILTIN_MATERIALS:
            raise ValidationError(path, f"unknown material {val!r}")
        return Material(val, BUILTIN_MATERIALS[val])
    if isinstance(val, dict):
        _require_keys(val, ("name", "density"), ("name", "density"), path)
        return Material(str(val["name"]), _number(val, "density", path))
    raise ValidationError(path, "material must be a name or a {name, density} object")


def _read_layers(obj: dict, key: str, path: str) -> tuple[Layer, ...]:
    raw = obj[key]
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{path}.{key}", "expected a non-empty array")
    layers = []
    for i, entry in enumerate(raw):
        lpath = f"{path}.{key}[{i}]"
        if not isinstance(entry, dict):
            raise ValidationError(lpath, "expected an object")
        _require_keys(entry, _LAYER_KEYS, _LAYER_KEYS, lpath)
        layers.append(Layer(parse_material(entry["material"], f"{lpath}.material"),
                            _number(entry, "thickness", lpath)))
    return tuple(layers)


@functools.cache
def _spec_fields(cls, extra: tuple[str, ...] = ()):
    """Allowed keys (fields and `extra`), required keys (fields without a
    default) and (name, read, check, write) per field of cls."""
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
    return cls(**{name: read(obj, name, path) for name, read, _, _ in table if name in obj})


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
    csl = CslParams(_number(csl_obj, "lambda", "csl"), _number(csl_obj, "r_c", "csl"))

    model = _parse_model(doc["mass_model"])

    thermal = None
    if doc.get("thermal") is not None:
        thermal = _read_fields(ThermalModel, doc["thermal"], "thermal")

    quadrature = _read_fields(QuadratureSpec, doc.get("quadrature") or {}, "quadrature")

    task = doc.get("task")
    if task is not None and not isinstance(task, dict):
        raise ValidationError("task", "expected an object")

    spec = ExperimentSpec(
        version=SPEC_VERSION,
        csl=csl,
        mass_model=model,
        quadrature=quadrature,
        thermal=thermal,
        task=task,
    )
    violations = validate_spec(spec)
    if violations:
        first = violations[0]
        raise ValidationError(first.field, first.message)
    return spec


def _check_positive(value, field: str, out: list[Violation]) -> None:
    if not (value > 0):
        out.append(Violation(field, f"must be > 0, got {value!r}"))


def _check_layers(layers, field: str, out: list[Violation]) -> None:
    if not layers:
        out.append(Violation(field, "must have at least one layer"))
    for i, layer in enumerate(layers):
        for name, value in (("thickness", layer.thickness),
                            ("material.density", layer.material.density)):
            if not (value > 0):
                out.append(Violation(f"{field}[{i}].{name}", f"must be > 0, got {value!r}"))


def _validate_model(model: MassModel, out: list[Violation], path: str = "mass_model"):
    if not isinstance(model, MassModel):
        out.append(Violation(path, f"unknown model type {type(model).__name__}"))
        return
    for name, _, check, _ in _spec_fields(type(model))[2]:
        check(getattr(model, name), f"{path}.{name}", out)
    try:
        mass = total_mass(model)
    except (TypeError, ValueError):
        out.append(Violation(path, "total mass is not computable"))
        return
    if not (0 < mass < math.inf):
        out.append(Violation(path, f"total mass must be finite and > 0, got {mass!r}"))


def validate_spec(spec: ExperimentSpec) -> list[Violation]:
    """All invariant violations in the spec; empty iff the spec is valid.

    Violations are data, not exceptions: every specs produced by load_spec
    validates to [].
    """
    out: list[Violation] = []
    if not (spec.csl.lambda_rate >= 0):
        out.append(Violation("csl.lambda_rate", "must be >= 0"))
    if not (spec.csl.r_c > 0):
        out.append(Violation("csl.r_c", "must be > 0"))
    _validate_model(spec.mass_model, out)
    if not out:
        from .heating import gamma_total  # heating imports this module

        mass = total_mass(spec.mass_model)
        if not math.isfinite(gamma_total(mass, spec.csl)):
            out.append(Violation("csl", f"the total heating rate of {mass!r} kg overflows "
                                        f"at lambda {spec.csl.lambda_rate!r}, "
                                        f"r_c {spec.csl.r_c!r}"))
    if spec.thermal is not None:
        if not (spec.thermal.gamma_th >= 0):
            out.append(Violation("thermal.gamma_th", "must be >= 0"))
        if not (spec.thermal.temperature >= 0):
            out.append(Violation("thermal.temperature", "must be >= 0"))
    q = spec.quadrature
    if not (0 < q.rel_tol < 1e-2):
        out.append(Violation("quadrature.rel_tol", "must be in (0, 1e-2)"))
    if not (q.u_max >= 6):
        out.append(Violation("quadrature.u_max", "must be >= 6"))
    if not (q.mc_samples >= 1000):
        out.append(Violation("quadrature.mc_samples", "must be >= 1000"))
    elif q.mc_samples > MAX_MC_SAMPLES:
        out.append(Violation("quadrature.mc_samples", f"must be <= {MAX_MC_SAMPLES}"))
    if not (q.rng_seed >= 0):
        out.append(Violation("quadrature.rng_seed", "must be >= 0"))
    return out


def _material_to_dict(material: Material) -> dict:
    return {"name": material.name, "density": material.density}


def _layers_to_list(layers) -> list:
    return [{"material": _material_to_dict(layer.material), "thickness": layer.thickness}
            for layer in layers]


def _fields_to_dict(obj) -> dict:
    """JSON object of a spec dataclass: one key per field."""
    table = _spec_fields(type(obj))[2]
    return {name: write(getattr(obj, name)) for name, _, _, write in table}


# (read, check, write) of each spec field that is not a positive number:
# read(obj, key, path) parses the JSON value, check(value, field,
# violations) validates a mass-model field and write(value) turns it back
# into JSON; validate_spec checks the quadrature integers
_NUMBER = (_number, _check_positive, lambda value: value)
_VECTOR = (_vector3, lambda value, field, out: None, list)
_INTEGER = (_integer, None, lambda value: value)
_FIELDS = {
    "mc_samples": _INTEGER,
    "rng_seed": _INTEGER,
    "material": (
        lambda obj, key, path: parse_material(obj[key], f"{path}.{key}"),
        lambda m, field, out: _check_positive(m.density, f"{field}.density", out),
        _material_to_dict,
    ),
    "layers": (_read_layers, _check_layers, _layers_to_list),
    "offset": _VECTOR,
    "position": _VECTOR,
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
