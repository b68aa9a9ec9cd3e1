"""Heating rates: closed-form regressions, splitting, oracle agreement."""

import dataclasses
import tracemalloc
from math import sqrt

import numpy as np
import pytest

from cslheat import (
    CslParams,
    Cuboid,
    Cylinder,
    Layer,
    LayeredStack,
    Material,
    PointMass,
    QuadratureSpec,
    Sphere,
    gamma_cm,
    gamma_cm_mc,
    gamma_internal,
    gamma_total,
    heating_report,
)
from cslheat.geometry import Factor
from cslheat.heating import I3_FREE, _mc_moments
from conftest import gamma_cm_mc_oneshot, i3_quadrature

R_C = 1e-7
CSL = CslParams(1e-16, R_C)
QUAD = QuadratureSpec()
SILICON = Material("silicon", 2329.0)


def within_sigma_or_rel(a, b, sig, rel=1e-3, n_sigma=3.0):
    return abs(a - b) <= n_sigma * sig + rel * max(abs(a), abs(b))


class TestGammaTotal:
    def test_closed_form_regression(self):
        # frozen from the closed form with the package constants
        assert gamma_total(1.0, CslParams(1e-16, 1e-7)) == pytest.approx(
            2.98e-17, rel=1e-3, abs=0
        )

    def test_lambda_zero(self):
        assert gamma_total(1.0, CslParams(0.0, 1e-7)) == 0.0

    def test_rc_scaling(self):
        g1 = gamma_total(1.0, CslParams(1e-16, 1e-7))
        g2 = gamma_total(1.0, CslParams(1e-16, 0.5e-7))
        assert g2 == pytest.approx(4.0 * g1, rel=1e-12, abs=0)

    def test_mass_linearity(self):
        assert gamma_total(2.0, CSL) == pytest.approx(
            2.0 * gamma_total(1.0, CSL), rel=1e-12, abs=0
        )

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            gamma_total(0.0, CSL)


class TestGammaCm:
    def test_point_mass_equals_total(self):
        pm = PointMass(1e-9)
        est = gamma_cm(pm, CSL, QUAD)
        assert est.value == pytest.approx(gamma_total(1e-9, CSL), rel=1e-9, abs=0)

    def test_gaussian_moment_identity_radial(self):
        # closed form and quadrature oracle reproduce the free-space moment
        for model in (PointMass(1e-9), Sphere(R_C * 1e-9, SILICON)):
            assert model.shape_integral(R_C) == pytest.approx(I3_FREE, rel=1e-12, abs=0)
        i3, _ = i3_quadrature(PointMass(1e-9), R_C, QUAD)
        assert i3 == pytest.approx(I3_FREE, rel=1e-12, abs=0)

    def test_gaussian_moment_identity_separable(self):
        # vanishing cuboid: |f| = 1 through the product path
        tiny = Cuboid(R_C * 1e-9, R_C * 1e-9, R_C * 1e-9, SILICON)
        assert tiny.shape_integral(R_C) == pytest.approx(I3_FREE, rel=1e-12, abs=0)
        i3, _ = i3_quadrature(tiny, R_C, QUAD)
        assert i3 == pytest.approx(I3_FREE, rel=1e-12, abs=0)

    def test_small_cube_reduction(self):
        cube = Cuboid(R_C / 100, R_C / 100, R_C / 100, SILICON)
        rep = heating_report(cube, CSL, QUAD)
        assert rep.reduction_factor >= 0.999

    def test_large_cube_vs_mc(self):
        cube = Cuboid(10 * R_C, 10 * R_C, 10 * R_C, SILICON)
        det = gamma_cm(cube, CSL, QUAD)
        mc = gamma_cm_mc(cube, CSL, QUAD)
        assert within_sigma_or_rel(det.value, mc.value, mc.error)

    def test_bounded_by_total(self):
        rng = np.random.default_rng(7)
        for model in (
            Cuboid(3 * R_C, 0.5 * R_C, 7 * R_C, SILICON),
            Sphere(2 * R_C, SILICON),
            Cylinder(R_C, 4 * R_C, SILICON),
            PointMass(1e-9),
        ):
            from cslheat import total_mass

            est = gamma_cm(model, CSL, QUAD)
            gt = gamma_total(total_mass(model), CSL)
            assert est.value <= gt * (1.0 + 1e-9)

    def test_translation_invariance(self):
        cube = Cuboid(3 * R_C, 3 * R_C, 3 * R_C, SILICON)
        moved = dataclasses.replace(cube, offset=(5 * R_C, -2 * R_C, 1 * R_C))
        a = gamma_cm(cube, CSL, QUAD).value
        b = gamma_cm(moved, CSL, QUAD).value
        assert b == pytest.approx(a, rel=1e-11, abs=0)

    def test_sphere_and_cylinder_vs_mc(self):
        for model in (Sphere(3 * R_C, SILICON), Cylinder(2 * R_C, 5 * R_C, SILICON)):
            det = gamma_cm(model, CSL, QUAD)
            mc = gamma_cm_mc(model, CSL, QUAD)
            assert within_sigma_or_rel(det.value, mc.value, mc.error)

    def test_thin_plate_vs_mc(self):
        plate = Cuboid(1e-3, 1e-3, 1e-5, SILICON)
        det = gamma_cm(plate, CSL, QUAD)
        mc = gamma_cm_mc(plate, CSL, QUAD)
        assert within_sigma_or_rel(det.value, mc.value, mc.error)

    def test_lambda_zero_all_rates_zero(self):
        rep = heating_report(
            Cuboid(R_C, R_C, R_C, SILICON), CslParams(0.0, R_C), QUAD
        )
        assert rep.gamma_total == 0.0
        assert rep.gamma_cm == 0.0
        assert rep.gamma_int == 0.0
        assert 0.0 < rep.reduction_factor < 1.0  # still shape-meaningful


class TestMonteCarlo:
    def test_point_mass_accuracy(self):
        pm = PointMass(1e-9)
        est = gamma_cm_mc(pm, CSL, QUAD)
        expected = gamma_total(1e-9, CSL)
        assert abs(est.value - expected) <= 3.0 * est.error
        assert est.error / est.value <= 1e-2

    def test_seed_determinism(self):
        cube = Cuboid(5 * R_C, 2 * R_C, 3 * R_C, SILICON)
        a = gamma_cm_mc(cube, CSL, QUAD)
        b = gamma_cm_mc(cube, CSL, QUAD)
        assert a == b  # bit-identical

    def test_seed_sensitivity(self):
        cube = Cuboid(5 * R_C, 2 * R_C, 3 * R_C, SILICON)
        a = gamma_cm_mc(cube, CSL, QUAD)
        b = gamma_cm_mc(cube, CSL, dataclasses.replace(QUAD, rng_seed=1))
        assert a.value != b.value
        assert within_sigma_or_rel(a.value, b.value, sqrt(a.error**2 + b.error**2))

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            gamma_cm_mc(
                PointMass(1e-9), CSL, dataclasses.replace(QUAD, mc_samples=10)
            )


OFFSET = (0.7 * R_C, -1.3 * R_C, 2.1 * R_C)
STACK = LayeredStack(
    4 * R_C, 3 * R_C,
    tuple(Layer(Material(f"m{j}", (2329.0, 700.0)[j % 2]), (0.4 + 0.1 * j) * R_C)
          for j in range(8)),
    OFFSET,
)
MC_BODIES = [
    PointMass(1e-9, (0.2 * R_C, 0.0, -0.1 * R_C), OFFSET),
    Cuboid(5 * R_C, 2 * R_C, 3 * R_C, SILICON, OFFSET),
    Sphere(2 * R_C, SILICON, OFFSET),
    Cylinder(R_C, 4 * R_C, SILICON, OFFSET),
    STACK,
]


CALIBRATION_BODIES = {
    "cube": Cuboid(3 * R_C, 3 * R_C, 3 * R_C, SILICON),
    "stack": STACK,  # the offset drops out
    "sphere": Sphere(2 * R_C, SILICON),
    "cylinder": Cylinder(R_C, 4 * R_C, SILICON),
    "plate": Cuboid(100 * R_C, 100 * R_C, R_C, SILICON),  # 1:100
}


@pytest.mark.parametrize("model", CALIBRATION_BODIES.values(), ids=CALIBRATION_BODIES.keys())
def test_mc_standard_error_is_calibrated(model):
    # z = (MC - closed form) / stderr over seeds 0..49 at 2e4 samples: a
    # true standard error puts about 68% of |z| below 1 (binomial sd 0.066
    # over 50) and, for a normal z, none beyond 5
    want = gamma_cm(model, CSL, QUAD).value
    z = []
    for seed in range(50):
        est = gamma_cm_mc(model, CSL, dataclasses.replace(QUAD, mc_samples=20_000, rng_seed=seed))
        z.append((est.value - want) / est.error)
    z = np.abs(z)
    assert 0.45 <= np.mean(z < 1.0) <= 0.9
    assert z.max() <= 5.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3], ids=["disc", "ball"])
def test_mc_radial_law(dim, seed):
    # at diameter 0, |f| = 1 and B is the mean of |u|^2 for u ~ N(0, I_d / 2):
    # d / 2, whatever law the estimator draws |u|^2 from
    rng = np.random.Generator(np.random.Philox(seed))
    mean, cov = _mc_moments(rng, Factor(dim, 0.0), R_C, 50_000, True)
    assert mean[0] == 1.0
    assert abs(mean[1] - 0.5 * dim) <= 5.0 * sqrt(cov[1, 1])


class TestMonteCarloBlocks:
    """The blocked estimator against one draw of every sample."""

    @pytest.mark.parametrize("samples", [1000, 2**14 + 1, 70001])
    @pytest.mark.parametrize("model", MC_BODIES, ids=lambda m: type(m).__name__)
    def test_matches_one_shot_estimator(self, model, samples):
        quad = dataclasses.replace(QUAD, mc_samples=samples, rng_seed=3)
        got = gamma_cm_mc(model, CSL, quad)
        want = gamma_cm_mc_oneshot(model, CSL, quad)
        assert got.value == pytest.approx(want.value, rel=1e-14, abs=0)
        assert got.error == pytest.approx(want.error, rel=1e-14, abs=0)

    @pytest.mark.parametrize("model", MC_BODIES, ids=lambda m: type(m).__name__)
    def test_offset_drops_out_bit_for_bit(self, model):
        quad = dataclasses.replace(QUAD, mc_samples=20000)
        centred = dataclasses.replace(model, offset=(0.0, 0.0, 0.0))
        assert gamma_cm_mc(model, CSL, quad) == gamma_cm_mc(centred, CSL, quad)

    @pytest.mark.parametrize("model", [Sphere(2 * R_C, SILICON), STACK],
                             ids=["sphere", "stack"])
    def test_memory_flat_in_samples(self, model):
        # one draw of 4e5 samples peaks at 32 MB (sphere) and 58 MB (stack)
        quad = dataclasses.replace(QUAD, mc_samples=400_000)
        tracemalloc.start()
        try:
            gamma_cm_mc(model, CSL, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestSplitting:
    @pytest.mark.parametrize(
        "model",
        [
            PointMass(1e-9),
            Cuboid(0.1 * R_C, 0.1 * R_C, 0.1 * R_C, SILICON),
            Cuboid(10 * R_C, 10 * R_C, 10 * R_C, SILICON),
            Sphere(2 * R_C, SILICON),
            Cylinder(2 * R_C, 5 * R_C, SILICON),
        ],
    )
    def test_identity_and_sign(self, model):
        from cslheat import total_mass

        rep = heating_report(model, CSL, QUAD)
        assert rep.gamma_int >= 0.0
        assert rep.gamma_total == pytest.approx(
            gamma_total(total_mass(model), CSL), rel=1e-12, abs=0
        )
        assert rep.gamma_cm + rep.gamma_int == pytest.approx(
            rep.gamma_total, rel=1e-9, abs=0
        )
        assert 0.0 <= rep.reduction_factor <= 1.0 + 1e-9

    def test_point_mass_internal_is_zero(self):
        value = gamma_internal(PointMass(1e-9), CSL, QUAD)
        assert abs(value) <= 1e-9 * gamma_total(1e-9, CSL)

    def test_point_mass_reduction_is_unity(self):
        rep = heating_report(PointMass(1e-9), CSL, QUAD)
        assert rep.reduction_factor == pytest.approx(1.0, rel=1e-9, abs=0)

    def test_large_cube_internal_dominates(self):
        cube = Cuboid(10 * R_C, 10 * R_C, 10 * R_C, SILICON)
        rep = heating_report(cube, CSL, QUAD)
        assert rep.gamma_int / rep.gamma_total >= 0.9
        assert rep.reduction_factor < 0.1

    def test_point_mass_limit_monotone(self):
        # shrink a fixed shape; the reduction factor must rise toward 1
        factors = []
        for s in (8.0, 4.0, 2.0, 1.0, 0.5, 0.25):
            cube = Cuboid(s * R_C, s * R_C, s * R_C, SILICON)
            factors.append(heating_report(cube, CSL, QUAD).reduction_factor)
        assert all(b > a for a, b in zip(factors, factors[1:]))
        assert factors[-1] > 0.99 * 1.0 or factors[-1] > 0.9  # approaching 1

    def test_reduction_depends_only_on_shape_ratios(self):
        base = Cuboid(3 * R_C, 2 * R_C, 5 * R_C, SILICON)
        denser = Cuboid(3 * R_C, 2 * R_C, 5 * R_C, Material("x", 10 * 2329.0))
        r1 = heating_report(base, CSL, QUAD).reduction_factor
        r2 = heating_report(denser, CSL, QUAD).reduction_factor
        assert r2 == pytest.approx(r1, rel=1e-12, abs=0)
        # joint rescale of all lengths and r_c
        scaled = Cuboid(6 * R_C, 4 * R_C, 10 * R_C, SILICON)
        r3 = heating_report(
            scaled, CslParams(CSL.lambda_rate, 2 * R_C), QUAD
        ).reduction_factor
        assert r3 == pytest.approx(r1, rel=1e-10, abs=0)

    def test_lambda_linearity(self):
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        g1 = gamma_cm(cube, CslParams(1.0, R_C), QUAD).value
        g2 = gamma_cm(cube, CslParams(3.5e-12, R_C), QUAD).value
        assert g2 == pytest.approx(3.5e-12 * g1, rel=1e-12, abs=0)


    def test_gamma_int_clamp(self, monkeypatch):
        # gamma_cm above gamma_total within rel_tol is rounding, clamped to
        # zero; beyond it raises
        sphere = Sphere(2 * R_C, SILICON)
        monkeypatch.setattr(Sphere, "shape_integral", lambda self, r_c: I3_FREE * (1 + 1e-12))
        rep = heating_report(sphere, CSL, QUAD)
        assert rep.internal_clamped is True
        assert rep.gamma_int == 0.0
        monkeypatch.setattr(Sphere, "shape_integral", lambda self, r_c: I3_FREE * (1 + 1e-6))
        with pytest.raises(ArithmeticError, match="exceeds gamma_total"):
            heating_report(sphere, CSL, QUAD)
