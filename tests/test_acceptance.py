"""Acceptance suite: the eleven exit criteria, one test each.

Each test prints `ACCEPTANCE <n> PASS|FAIL: <summary>` (visible with
pytest -s); the assertions carry the stated tolerances.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cslheat import (
    CslParams,
    Cuboid,
    Cylinder,
    Layer,
    LayeredStack,
    Lattice,
    Material,
    PointMass,
    QuadratureSpec,
    Sphere,
    ThermalModel,
    build_lattice,
    design_stack,
    discriminability_report,
    f_double_commutator,
    gamma_cm,
    gamma_cm_discrete,
    gamma_cm_discrete_separable,
    gamma_cm_mc,
    gamma_total,
    heating_report,
    lambda_bound,
    mu_tilde,
    mu_tilde_discrete,
    optimize_layers,
    thermal_gain,
    total_mass,
)
from cslheat.cli import main as cli_main
from cslheat.core import CONSTANTS

R_C = 1e-7
CSL = CslParams(1e-16, R_C)
QUAD = QuadratureSpec()
SILICON = Material("silicon", 2329.0)
DENSE = Material("dense", 2500.0)
LIGHT = Material("light", 250.0)
SPECS = Path(__file__).resolve().parent.parent / "specs"


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL: {text}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def regression_geometries():
    stack_layers = tuple(
        Layer(DENSE if i % 2 == 0 else LIGHT, R_C) for i in range(16)
    )
    return {
        "point": PointMass(1e-9),
        "cube_small": Cuboid(0.1 * R_C, 0.1 * R_C, 0.1 * R_C, SILICON),
        "cube_large": Cuboid(10 * R_C, 10 * R_C, 10 * R_C, SILICON),
        "plate": Cuboid(1e-3, 1e-3, 1e-5, SILICON),
        "stack16": LayeredStack(10 * R_C, 10 * R_C, stack_layers),
    }


def lattice_gamma(name, model):
    if name == "point":
        return gamma_cm_discrete(build_lattice(model, 1e-9), CSL)
    spacing = {
        "cube_small": 0.005 * R_C,
        "cube_large": R_C / 40,
        "plate": 0.05 * R_C,
        "stack16": R_C / 40,
    }[name]
    return gamma_cm_discrete_separable(model, CSL, spacing)


def agree(a, b, sigma, rel=1e-3):
    return abs(a - b) <= 3.0 * sigma + rel * max(abs(a), abs(b))


def test_criterion_01_closed_form_total_rate():
    with criterion(1, "gamma_total(1 kg, 1e-16/s, 1e-7 m) = 2.98e-17 W (rel 1e-3)"):
        value = gamma_total(1.0, CslParams(1e-16, 1e-7))
        assert value == pytest.approx(2.98e-17, rel=1e-3, abs=0)


def test_criterion_02_point_mass_reduction():
    with criterion(2, "point mass: gamma_cm = gamma_total (rel 1e-9)"):
        est = gamma_cm(PointMass(1.0), CSL, QUAD)
        assert est.value == pytest.approx(gamma_total(1.0, CSL), rel=1e-9, abs=0)


def test_criterion_03_geometry_factor_invariants():
    from conftest import random_k, random_model

    with criterion(3, "form-factor invariants over 1e4 random (model, k) pairs"):
        rng = np.random.default_rng(42)
        n_models, n_k = 100, 100
        for _ in range(n_models):
            model = random_model(rng, with_offset=True)
            mass = total_mass(model)
            assert mu_tilde(model, np.zeros(3)).real == pytest.approx(
                mass, rel=1e-12, abs=0
            )
            k = random_k(rng, n=n_k)
            vals = mu_tilde(model, k)
            assert np.all(np.abs(vals) <= mass * (1.0 + 1e-12))
            mirrored = mu_tilde(model, -k)
            np.testing.assert_allclose(
                mirrored, np.conj(vals), rtol=1e-12, atol=1e-12 * mass
            )
            shift = rng.uniform(-2 * R_C, 2 * R_C, 3)
            shifted = dataclasses.replace(
                model, offset=tuple(np.asarray(model.offset) + shift)
            )
            np.testing.assert_allclose(
                mu_tilde(shifted, k),
                vals * np.exp(-1j * (k @ shift)),
                rtol=1e-11,
                atol=1e-11 * mass,
            )


def test_criterion_04_double_commutator_identity():
    with criterion(4, "F(k) = -hbar^2 M k^2, position-independent (rel 1e-14)"):
        rng = np.random.default_rng(7)
        hbar2 = CONSTANTS.hbar**2
        for _ in range(100):
            n = int(rng.integers(1, 120))
            lat = Lattice(
                masses=rng.uniform(0.3, 3.0, n) * 1e-18,
                positions=rng.uniform(-1e-6, 1e-6, (n, 3)),
                cell_volume=1e-24,
            )
            k = rng.normal(0.0, 1.0 / R_C, 3)
            expected = -hbar2 * lat.total_mass * float(k @ k)
            assert f_double_commutator(lat, k) == pytest.approx(expected, rel=1e-14, abs=0)
        # rearrangements of one mass set
        lat = Lattice(
            masses=rng.uniform(0.3, 3.0, 64) * 1e-18,
            positions=rng.uniform(-1e-6, 1e-6, (64, 3)),
            cell_volume=1e-24,
        )
        k = rng.normal(0.0, 1.0 / R_C, 3)
        ref = f_double_commutator(lat, k)
        for _ in range(10):
            moved = Lattice(
                masses=lat.masses,
                positions=rng.uniform(-1e-6, 1e-6, (64, 3)),
                cell_volume=lat.cell_volume,
            )
            assert f_double_commutator(moved, k) == pytest.approx(ref, rel=1e-14, abs=0)


def test_criterion_05_oracle_triangle():
    from conftest import gamma_cm_quadrature

    with criterion(5, "quadrature, Monte-Carlo, lattice sum agree pairwise on 5 geometries; "
                      "the closed form matches quadrature (rel 1e-11)"):
        for name, model in regression_geometries().items():
            det = gamma_cm_quadrature(model, CSL, QUAD)
            mc = gamma_cm_mc(model, CSL, QUAD)
            lat = lattice_gamma(name, model)
            assert agree(det.value, mc.value, math.hypot(det.error, mc.error)), name
            assert agree(det.value, lat, det.error), name
            assert agree(mc.value, lat, mc.error), name
            closed = gamma_cm(model, CSL, QUAD)
            assert closed.value == pytest.approx(det.value, rel=1e-11, abs=0), name


def test_criterion_06_splitting_and_sign():
    with criterion(6, "gamma_total = gamma_cm + gamma_int, gamma_int >= 0; large cube >= 0.9"):
        for name, model in regression_geometries().items():
            rep = heating_report(model, CSL, QUAD)
            assert rep.gamma_int >= 0.0, name
            assert rep.gamma_cm + rep.gamma_int == pytest.approx(
                rep.gamma_total, rel=1e-9, abs=0
            ), name
            if name == "cube_large":
                assert rep.gamma_int / rep.gamma_total >= 0.9


def test_criterion_07_discrete_continuum_convergence():
    with criterion(7, "discrete-to-continuum error is O(spacing^2) (slope 2 +- 0.3)"):
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        k = np.array([0.6, -0.64, 0.48]) / R_C  # |k| = 1/r_c
        exact = mu_tilde(cube, k)
        mass = total_mass(cube)
        errs, spacings = [], []
        for n in (16, 32, 64, 128):
            d = 2 * R_C / n
            lat = build_lattice(cube, d)
            errs.append(abs(mu_tilde_discrete(lat, k) - exact) / mass)
            spacings.append(d)
        slope = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


def _optimizer_family():
    lx = ly = 1e-4
    height = 200 * R_C
    rho_eff = 2 * DENSE.density * LIGHT.density / (DENSE.density + LIGHT.density)
    mass = rho_eff * lx * ly * height
    return mass, (lx, ly)


def test_criterion_08_layering_enhancement():
    with criterion(8, "optimal multi-layer beats the single slab; layer scale within 3x of r_c"):
        mass, cross = _optimizer_family()
        counts = range(1, 65)
        res = optimize_layers(mass, (DENSE, LIGHT), cross, counts, CSL, QUAD)
        # independent exhaustive grid-scan oracle over the same range
        oracle = {}
        for n in counts:
            d = design_stack(mass, DENSE, LIGHT, cross[0], cross[1], n)
            oracle[n] = gamma_cm(LayeredStack(d.lx, d.ly, d.layers), CSL, QUAD).value
        best_n = max(oracle, key=oracle.get)
        assert res.best.n_pairs == best_n
        assert res.gamma_cm == pytest.approx(oracle[best_n], rel=1e-12, abs=0)
        assert all(res.gamma_cm >= g * (1 - 1e-12) for g in oracle.values())
        # strictly better than the coarsest stack in the family ...
        assert res.best.n_pairs > 1
        assert res.gamma_cm > oracle[1]
        # ... and than a homogeneous single slab of the same mass and section
        rho_eff = mass / (cross[0] * cross[1] * res.best.height)
        slab = Cuboid(cross[0], cross[1], res.best.height, Material("mix", rho_eff))
        assert res.gamma_cm > gamma_cm(slab, CSL, QUAD).value
        # the fine structural scale of the winning design sits at r_c
        t_min = min(layer.thickness for layer in res.best.layers)
        assert R_C / 3.0 <= t_min <= 3.0 * R_C


def test_criterion_09_discriminability():
    with criterion(9, "1-pair vs 16-pair: gamma_cm spread > 0.1, thermal response identical"):
        lx = ly = 1e-4
        height = 176 * R_C  # 16-pair design has its thin layers at r_c
        rho_eff = 2 * DENSE.density * LIGHT.density / (DENSE.density + LIGHT.density)
        mass = rho_eff * lx * ly * height
        designs = [
            design_stack(mass, DENSE, LIGHT, lx, ly, n) for n in (1, 16)
        ]
        assert min(l.thickness for l in designs[1].layers) == pytest.approx(R_C, rel=1e-9, abs=0)
        thermal = ThermalModel(1e-3, 0.1)
        rep = discriminability_report(designs, CSL, thermal, QUAD)
        assert rep.spread > 0.1
        assert rep.discriminating
        assert rep.thermal_power == thermal_gain(thermal)  # exactly equal


def test_criterion_10_lambda_bound_round_trip():
    with criterion(10, "lambda_bound(gamma_cm(lambda0)) = lambda0 (rel 1e-9), 10 cases"):
        rng = np.random.default_rng(11)
        pool = [
            Cuboid(2 * R_C, 3 * R_C, 0.5 * R_C, SILICON),
            Sphere(2 * R_C, SILICON),
            Cylinder(R_C, 4 * R_C, SILICON),
            PointMass(1e-9),
            LayeredStack(
                5 * R_C,
                5 * R_C,
                (Layer(DENSE, R_C), Layer(LIGHT, 2 * R_C)),
            ),
        ]
        for i in range(10):
            model = pool[i % len(pool)]
            lam0 = float(10.0 ** rng.uniform(-20, -10))
            power = gamma_cm(model, CslParams(lam0, R_C), QUAD).value
            assert lambda_bound(power, model, R_C, QUAD) == pytest.approx(
                lam0, rel=1e-9, abs=0
            )


def test_criterion_11_cli_reproducibility(capsys):
    commands = [
        ("heat", "--spec", str(SPECS / "point.json"), "--mc"),
        ("heat", "--spec", str(SPECS / "stack16.json")),
        ("heat", "--spec", str(SPECS / "cube_small.json")),
        ("heat", "--spec", str(SPECS / "cube_large.json")),
        ("heat", "--spec", str(SPECS / "plate.json"), "--mc"),
        ("mu", "--spec", str(SPECS / "cube_large.json"),
         "--k-min", "0", "--k-max", "1e8", "--num", "128"),
        ("scan", "--spec", str(SPECS / "point.json"),
         "--rc-min", "1e-8", "--rc-max", "1e-6", "--num", "5"),
        ("optimize", "--spec", str(SPECS / "optimize.json")),
        ("discriminate", "--spec", str(SPECS / "discriminate.json")),
        ("bound", "--spec", str(SPECS / "bound.json")),
        ("lattice-check", "--spec", str(SPECS / "point.json")),
    ]
    with criterion(11, "every subcommand is byte-reproducible with a fixed seed"):
        for argv in commands:
            argv = list(argv) + ["--seed", "123"]
            code1 = cli_main(argv)
            out1 = capsys.readouterr().out
            code2 = cli_main(argv)
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0, argv[0]
            assert out1 == out2, argv[0]
            json.loads(out1)  # payload is valid JSON
