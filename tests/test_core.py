"""Spec file parsing, validation, round-trip, and hashing."""

import dataclasses
import json

import pytest

from cslheat import (
    CONSTANTS,
    CslParams,
    Cuboid,
    ExperimentSpec,
    LayeredStack,
    ParseError,
    PointMass,
    QuadratureSpec,
    ValidationError,
    dumps_spec,
    load_spec,
    loads_spec,
    spec_hash,
    validate_spec,
)
from cslheat.core import canonical_spec_json, with_seed

MINIMAL = {
    "version": 1,
    "csl": {"lambda": 1e-16, "r_c": 1e-7},
    "mass_model": {
        "type": "cuboid",
        "lx": 1e-3,
        "ly": 1e-3,
        "lz": 1e-3,
        "material": {"name": "silicon", "density": 2329.0},
    },
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_constants_values():
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.m_nucleon == 1.67262192369e-27  # proton
    assert CONSTANTS.k_boltzmann == 1.380649e-23
    assert CONSTANTS.hbar > 0 and CONSTANTS.m_nucleon > 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.hbar = 1.0  # no runtime override


class TestLoadSpec:
    def test_minimal_spec_with_defaults(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, MINIMAL))
        assert spec.csl == CslParams(1e-16, 1e-7)
        assert isinstance(spec.mass_model, Cuboid)
        assert spec.quadrature == QuadratureSpec(
            rel_tol=1e-9, u_max=8.0, mc_samples=200_000, rng_seed=0
        )
        assert spec.thermal is None
        assert validate_spec(spec) == []

    def test_default_fill_partial_quadrature(self, tmp_path):
        doc = dict(MINIMAL, quadrature={"mc_samples": 5000})
        spec = load_spec(write_spec(tmp_path, doc))
        assert spec.quadrature.rel_tol == 1e-9
        assert spec.quadrature.u_max == 8.0
        assert spec.quadrature.mc_samples == 5000

    def test_rc_zero_rejected(self, tmp_path):
        doc = dict(MINIMAL, csl={"lambda": 1e-16, "r_c": 0.0})
        with pytest.raises(ValidationError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.field == "csl.r_c"

    def test_negative_length_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["mass_model"]["lz"] = -1e-3
        with pytest.raises(ValidationError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.field == "mass_model.lz"

    def test_unknown_material_rejected(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["mass_model"]["material"] = "unobtainium"
        with pytest.raises(ValidationError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert "material" in info.value.field

    def test_builtin_material_resolves(self, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["mass_model"]["material"] = "silicon"
        spec = load_spec(write_spec(tmp_path, doc))
        assert spec.mass_model.material.density == 2329.0

    def test_malformed_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1,\n  "csl": }')
        with pytest.raises(ParseError) as info:
            load_spec(path)
        assert "line 2" in str(info.value)

    def test_unknown_key_rejected(self, tmp_path):
        doc = dict(MINIMAL, csl={"lambda": 1e-16, "r_c": 1e-7, "rc": 2e-7})
        with pytest.raises(ValidationError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.field == "csl.rc"

    def test_unknown_model_type(self, tmp_path):
        doc = dict(MINIMAL, mass_model={"type": "torus", "radius": 1e-3})
        with pytest.raises(ValidationError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.field == "mass_model.type"

    def test_layered_and_thermal_and_task(self, tmp_path):
        doc = dict(
            MINIMAL,
            mass_model={
                "type": "layered_stack",
                "lx": 1e-6,
                "ly": 1e-6,
                "layers": [
                    {"material": {"name": "a", "density": 2000.0}, "thickness": 1e-7},
                    {"material": {"name": "b", "density": 200.0}, "thickness": 1e-7},
                ],
            },
            thermal={"gamma_th": 1e-3, "temperature": 0.1},
            task={"observed_power": 1e-20},
        )
        spec = load_spec(write_spec(tmp_path, doc))
        assert isinstance(spec.mass_model, LayeredStack)
        assert spec.thermal.temperature == 0.1
        assert spec.task == {"observed_power": 1e-20}

    def test_zero_layer_thickness_names_the_layer(self, tmp_path):
        doc = dict(
            MINIMAL,
            mass_model={
                "type": "layered_stack",
                "lx": 1e-6,
                "ly": 1e-6,
                "layers": [
                    {"material": {"name": "a", "density": 2000.0}, "thickness": 0.0}
                ],
            },
        )
        with pytest.raises(ValidationError) as info:
            load_spec(write_spec(tmp_path, doc))
        assert info.value.field == "mass_model.layers[0].thickness"


class TestValidateSpec:
    def _spec(self, **overrides):
        base = dict(
            version=1,
            csl=CslParams(1e-16, 1e-7),
            mass_model=Cuboid(1e-3, 1e-3, 1e-3, material=load_spec_material()),
            quadrature=QuadratureSpec(),
        )
        base.update(overrides)
        return ExperimentSpec(**base)

    def test_valid_spec_empty(self):
        assert validate_spec(self._spec()) == []

    def test_negative_lambda(self):
        violations = validate_spec(self._spec(csl=CslParams(-1.0, 1e-7)))
        assert [v.field for v in violations] == ["csl.lambda_rate"]

    def test_bad_quadrature(self):
        violations = validate_spec(
            self._spec(quadrature=QuadratureSpec(rel_tol=0.5, u_max=2.0,
                                                 mc_samples=10, rng_seed=-1))
        )
        fields = {v.field for v in violations}
        assert fields == {
            "quadrature.rel_tol",
            "quadrature.u_max",
            "quadrature.mc_samples",
            "quadrature.rng_seed",
        }

    def test_point_mass_zero(self):
        violations = validate_spec(self._spec(mass_model=PointMass(0.0)))
        assert any(v.field == "mass_model.mass" for v in violations)


def load_spec_material():
    from cslheat import Material

    return Material("silicon", 2329.0)


class TestRoundTrip:
    def test_reload_is_identical(self, tmp_path):
        doc = dict(
            MINIMAL,
            thermal={"gamma_th": 2e-4, "temperature": 0.05},
            quadrature={"rel_tol": 1e-8, "rng_seed": 7},
            task={"n_min": 1, "n_max": 8},
        )
        spec1 = load_spec(write_spec(tmp_path, doc))
        path2 = tmp_path / "roundtrip.json"
        path2.write_text(dumps_spec(spec1))
        spec2 = load_spec(path2)
        assert spec1 == spec2
        assert dumps_spec(spec1) == dumps_spec(spec2)
        assert spec_hash(spec1) == spec_hash(spec2)

    def test_defaults_recorded_in_serialization(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, MINIMAL))
        doc = json.loads(dumps_spec(spec))
        assert doc["quadrature"]["rel_tol"] == 1e-9
        assert doc["quadrature"]["u_max"] == 8.0

    def test_hash_changes_with_content(self, tmp_path):
        spec1 = load_spec(write_spec(tmp_path, MINIMAL))
        doc2 = dict(MINIMAL, csl={"lambda": 2e-16, "r_c": 1e-7})
        spec2 = load_spec(write_spec(tmp_path, doc2, name="other.json"))
        assert spec_hash(spec1) != spec_hash(spec2)

    def test_canonical_json_is_stable(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, MINIMAL))
        assert canonical_spec_json(spec) == canonical_spec_json(
            loads_spec(dumps_spec(spec))
        )

    def test_with_seed(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, MINIMAL))
        reseeded = with_seed(spec, 99)
        assert reseeded.quadrature.rng_seed == 99
        assert reseeded.csl == spec.csl


def test_shipped_specs_load_and_validate():
    from pathlib import Path

    spec_dir = Path(__file__).resolve().parent.parent / "specs"
    paths = sorted(spec_dir.glob("*.json"))
    assert paths, "no sample specs found"
    for path in paths:
        spec = load_spec(path)
        assert validate_spec(spec) == [], path.name
