"""Thermal comparison, r_c scans, layer optimization, lambda bounds."""

import math

import numpy as np
import pytest

from cslheat import (
    ConstraintViolation,
    CslParams,
    Cuboid,
    InfeasibleDesign,
    Layer,
    LayeredStack,
    Material,
    PointMass,
    QuadratureSpec,
    ThermalModel,
    design_stack,
    discriminability_report,
    gamma_cm,
    heating_report,
    lambda_bound,
    optimize_layers,
    scan_rc,
    thermal_gain,
)

R_C = 1e-7
CSL = CslParams(1e-16, R_C)
QUAD = QuadratureSpec()
DENSE = Material("dense", 2500.0)
LIGHT = Material("light", 250.0)
SILICON = Material("silicon", 2329.0)


class TestThermalGain:
    def test_zero_damping(self):
        assert thermal_gain(ThermalModel(0.0, 4.2)) == 0.0

    def test_zero_temperature(self):
        assert thermal_gain(ThermalModel(1e-3, 0.0)) == 0.0

    def test_regression(self):
        assert thermal_gain(ThermalModel(1e-3, 0.1)) == pytest.approx(
            1.380649e-27, rel=1e-12, abs=0
        )

    def test_never_reads_geometry(self):
        th = ThermalModel(2e-4, 0.3)
        designs = [
            design_stack(1e-9, DENSE, LIGHT, 1e-5, 1e-5, n) for n in (1, 4, 16)
        ]
        values = {thermal_gain(th) for _ in designs}
        assert len(values) == 1


class TestDesignStack:
    def test_fixed_mass_constraint(self):
        d = design_stack(3.7e-9, DENSE, LIGHT, 2e-5, 1e-5, 7, mass_ratio=2.5)
        assert d.total_mass == pytest.approx(3.7e-9, rel=1e-12, abs=0)
        assert d.mass_ratio == pytest.approx(2.5, rel=1e-12, abs=0)
        assert d.n_layers == 14

    def test_equal_thickness_when_ratio_matches_contrast(self):
        d = design_stack(1e-9, DENSE, LIGHT, 1e-5, 1e-5, 4, mass_ratio=10.0)
        assert max(d.layer_thicknesses) == pytest.approx(
            min(d.layer_thicknesses), rel=1e-12, abs=0
        )

    def test_infeasible(self):
        with pytest.raises(InfeasibleDesign):
            design_stack(1e-9, DENSE, LIGHT, 1e-5, 1e-5, 0)
        with pytest.raises(InfeasibleDesign):
            design_stack(-1e-9, DENSE, LIGHT, 1e-5, 1e-5, 1)
        with pytest.raises(InfeasibleDesign):
            design_stack(1e-9, DENSE, LIGHT, 1e-5, 1e-5, 1, mass_ratio=0.0)

    def test_to_mass_model_alternates(self):
        d = design_stack(1e-9, DENSE, LIGHT, 1e-5, 1e-5, 2)
        stack = d.to_mass_model()
        assert [l.material.name for l in stack.layers] == [
            "dense", "light", "dense", "light",
        ]


class TestScanRc:
    def test_point_mass_slope(self):
        grid = np.geomspace(1e-8, 1e-6, 9)
        table = scan_rc(PointMass(1e-9), grid, QUAD)
        values = np.array([r.gamma_cm_per_lambda for r in table.rows])
        slope = np.polyfit(np.log(grid), np.log(values), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.01)

    def test_single_row(self):
        table = scan_rc(PointMass(1e-9), [1e-7], QUAD)
        assert len(table.rows) == 1
        assert table.rows[0].converged

    def test_rows_match_standalone_evaluation(self):
        cube = Cuboid(3 * R_C, 3 * R_C, 3 * R_C, SILICON)
        grid = [0.5e-7, 1e-7, 2e-7]
        table = scan_rc(cube, grid, QUAD)
        for rc, row in zip(grid, table.rows):
            standalone = gamma_cm(cube, CslParams(1.0, rc), QUAD).value
            assert row.gamma_cm_per_lambda == pytest.approx(standalone, rel=1e-12, abs=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            scan_rc(PointMass(1e-9), [], QUAD)
        with pytest.raises(ValueError):
            scan_rc(PointMass(1e-9), [1e-7, 1e-8], QUAD)
        with pytest.raises(ValueError):
            scan_rc(PointMass(1e-9), [-1e-7, 1e-8], QUAD)

    def test_periodic_stack_interior_reduction_maximum(self):
        # alternating stack, period p: the reduction factor should peak
        # where the collapse length resolves the layering
        p = 2e-7
        layers = tuple(
            Layer(DENSE if i % 2 == 0 else LIGHT, p / 2) for i in range(24)
        )
        stack = LayeredStack(200 * p, 200 * p, layers)
        grid = np.geomspace(p / 100, 100 * p, 61)
        table = scan_rc(stack, grid, QUAD)
        red = np.array([r.reduction_factor for r in table.rows])
        interior = [
            i
            for i in range(1, len(red) - 1)
            if red[i] > red[i - 1] and red[i] > red[i + 1]
        ]
        assert interior, "no interior maximum in the reduction factor"
        best = max(interior, key=lambda i: red[i])
        ratio = grid[best] / (p / 2)
        assert 1.0 / 3.0 <= ratio <= 3.0

    def test_lambda_bound_column(self):
        table = scan_rc(PointMass(1e-9), [1e-7, 2e-7], QUAD, observed_power=1e-30)
        for row in table.rows:
            assert row.lambda_bound == pytest.approx(
                1e-30 / row.gamma_cm_per_lambda, rel=1e-12, abs=0
            )


class TestOptimizeLayers:
    def test_zero_contrast_ties_to_fewest(self):
        mat_b = Material("same", DENSE.density)
        res = optimize_layers(
            1e-10, (DENSE, mat_b), (1e-5, 1e-5), range(1, 9), CSL, QUAD
        )
        assert res.best.n_pairs == 1
        gammas = [g for _, g in res.evaluations]
        assert max(gammas) - min(gammas) <= 1e-9 * max(gammas)

    def test_single_candidate_matches_cuboid(self):
        mat_b = Material("same", DENSE.density)
        mass = 1e-10
        res = optimize_layers(
            mass, (DENSE, mat_b), (1e-5, 1e-5), [1], CSL, QUAD
        )
        assert res.best.n_pairs == 1
        height = res.best.height
        cub = Cuboid(1e-5, 1e-5, height, DENSE)
        rep = heating_report(cub, CSL, QUAD)
        assert res.gamma_cm == pytest.approx(rep.gamma_cm, rel=1e-9, abs=0)

    def test_argmax_matches_exhaustive_oracle(self):
        lx = ly = 1e-4
        h = 200 * R_C
        rho_eff = 2 * DENSE.density * LIGHT.density / (DENSE.density + LIGHT.density)
        mass = rho_eff * lx * ly * h
        counts = range(2, 21, 2)
        res = optimize_layers(mass, (DENSE, LIGHT), (lx, ly), counts, CSL, QUAD)
        oracle = {}
        for n in counts:
            d = design_stack(mass, DENSE, LIGHT, lx, ly, n)
            oracle[n] = gamma_cm(d.to_mass_model(), CSL, QUAD).value
        best_n = max(oracle, key=oracle.get)
        assert res.best.n_pairs == best_n
        assert res.gamma_cm == pytest.approx(oracle[best_n], rel=1e-12, abs=0)
        assert all(res.gamma_cm >= g * (1 - 1e-12) for g in oracle.values())

    def test_empty_range(self):
        with pytest.raises(InfeasibleDesign):
            optimize_layers(1e-10, (DENSE, LIGHT), (1e-5, 1e-5), [], CSL, QUAD)


class TestDiscriminability:
    def _family(self, n_pairs_list, h_over_rc=176):
        lx = ly = 1e-4
        h = h_over_rc * R_C
        rho_eff = 2 * DENSE.density * LIGHT.density / (DENSE.density + LIGHT.density)
        mass = rho_eff * lx * ly * h
        return [
            design_stack(mass, DENSE, LIGHT, lx, ly, n) for n in n_pairs_list
        ]

    def test_identical_designs_not_discriminating(self):
        designs = self._family([4, 4])
        th = ThermalModel(1e-3, 0.1)
        rep = discriminability_report(designs, CSL, th, QUAD)
        assert rep.spread == 0.0
        assert not rep.discriminating

    def test_zero_contrast_spread_negligible(self):
        mat_b = Material("same", DENSE.density)
        lx = ly = 1e-5
        mass = 1e-10
        designs = [
            design_stack(mass, DENSE, mat_b, lx, ly, n) for n in (1, 4, 16)
        ]
        rep = discriminability_report(
            designs, CSL, ThermalModel(1e-3, 0.1), QUAD
        )
        assert rep.spread <= 1e-9

    def test_one_vs_sixteen_pairs_discriminates(self):
        designs = self._family([1, 16])
        th = ThermalModel(1e-3, 0.1)
        rep = discriminability_report(designs, CSL, th, QUAD)
        assert rep.spread > 0.1
        assert rep.discriminating
        assert rep.thermal_power == thermal_gain(th)
        for g, s in zip(rep.gamma_cms, rep.saturation_powers):
            assert s == g + rep.thermal_power

    def test_mass_mismatch_rejected(self):
        d1 = design_stack(1e-10, DENSE, LIGHT, 1e-5, 1e-5, 2)
        d2 = design_stack(2e-10, DENSE, LIGHT, 1e-5, 1e-5, 2)
        with pytest.raises(ConstraintViolation):
            discriminability_report(
                [d1, d2], CSL, ThermalModel(1e-3, 0.1), QUAD
            )

    def test_ratio_mismatch_rejected(self):
        d1 = design_stack(1e-10, DENSE, LIGHT, 1e-5, 1e-5, 2, mass_ratio=1.0)
        d2 = design_stack(1e-10, DENSE, LIGHT, 1e-5, 1e-5, 2, mass_ratio=2.0)
        with pytest.raises(ConstraintViolation):
            discriminability_report(
                [d1, d2], CSL, ThermalModel(1e-3, 0.1), QUAD
            )

    def test_needs_two_designs(self):
        with pytest.raises(ValueError):
            discriminability_report(
                self._family([4]), CSL, ThermalModel(1e-3, 0.1), QUAD
            )


class TestLambdaBound:
    def test_round_trip(self, rng):
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        for _ in range(5):
            lam0 = float(rng.uniform(1e-20, 1e-10))
            power = gamma_cm(cube, CslParams(lam0, R_C), QUAD).value
            assert lambda_bound(power, cube, R_C, QUAD) == pytest.approx(
                lam0, rel=1e-9, abs=0
            )

    def test_zero_power(self):
        assert lambda_bound(0.0, PointMass(1e-9), R_C, QUAD) == 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            lambda_bound(-1.0, PointMass(1e-9), R_C, QUAD)

    def test_underflow_returns_inf(self):
        # enormous correlation length drives the rate below double range
        bound = lambda_bound(1e-20, PointMass(1e-9), 1e170, QUAD)
        assert math.isinf(bound)

    def test_regression_vs_mc_denominator(self):
        from cslheat import gamma_cm_mc

        cube = Cuboid(R_C, R_C, R_C, SILICON)
        p = 1e-20
        bound = lambda_bound(p, cube, R_C, QUAD)
        mc = gamma_cm_mc(cube, CslParams(1.0, R_C), QUAD)
        mc_bound = p / mc.value
        sigma = p * mc.error / mc.value**2
        assert abs(bound - mc_bound) <= 3.0 * sigma
