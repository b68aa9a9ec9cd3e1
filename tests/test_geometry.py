"""Form-factor correctness: closed forms vs direct 3D integration, invariants."""

import numpy as np
import pytest

from cslheat import (
    Cuboid,
    Cylinder,
    Layer,
    LayeredStack,
    Material,
    NotSeparable,
    PointMass,
    Sphere,
    extents,
    mu_tilde,
    normalized_form_factor,
    separable_factors,
    total_mass,
)
from cslheat.geometry import I3_FREE, _i3

from conftest import R_C, mu_oracle, random_k, random_model

SILICON = Material("silicon", 2329.0)

# oracle value (tensor Gauss-Legendre, n=48..96 stable to ~3e-14) for
# a 1 mm^3 silicon cuboid at k = (1e4, 2e4, 3e4) 1/m
CUBOID_ORACLE_REAL = 1.0534499913985127e-09
CUBOID_ORACLE_IMAG = 0.0


class TestTotalMass:
    def test_cuboid_one_mm(self):
        assert total_mass(Cuboid(1e-3, 1e-3, 1e-3, SILICON)) == pytest.approx(
            2.329e-6, rel=1e-12, abs=0
        )

    def test_point(self):
        assert total_mass(PointMass(3.7e-9)) == 3.7e-9

    def test_stack_two_layers(self):
        rho1, rho2, t = 1000.0, 3000.0, 2e-7
        stack = LayeredStack(
            1e-6,
            2e-6,
            (Layer(Material("a", rho1), t), Layer(Material("b", rho2), t)),
        )
        assert total_mass(stack) == pytest.approx(
            1e-6 * 2e-6 * t * (rho1 + rho2), rel=1e-12, abs=0
        )

    def test_sphere_and_cylinder(self):
        assert total_mass(Sphere(2e-7, SILICON)) == pytest.approx(
            SILICON.density * 4 / 3 * np.pi * 8e-21, rel=1e-12, abs=0
        )
        assert total_mass(Cylinder(1e-7, 3e-7, SILICON)) == pytest.approx(
            SILICON.density * np.pi * 1e-14 * 3e-7, rel=1e-12, abs=0
        )


class TestMuTilde:
    def test_frozen_cuboid_oracle_value(self):
        cub = Cuboid(1e-3, 1e-3, 1e-3, SILICON)
        val = mu_tilde(cub, np.array([1e4, 2e4, 3e4]))
        assert val.real == pytest.approx(CUBOID_ORACLE_REAL, rel=1e-10, abs=0)
        assert abs(val.imag - CUBOID_ORACLE_IMAG) < 1e-10 * abs(CUBOID_ORACLE_REAL)

    def test_zero_wavevector_gives_total_mass(self, rng):
        for _ in range(40):
            model = random_model(rng)
            val = mu_tilde(model, np.zeros(3))
            assert val.real == pytest.approx(total_mass(model), rel=1e-12, abs=0)
            assert val.imag == 0.0

    def test_cuboid_sinc_zero(self):
        a = 1e-6
        cub = Cuboid(a, a, a, SILICON)
        val = mu_tilde(cub, np.array([2 * np.pi / a, 0.0, 0.0]))
        assert abs(val) < 1e-12 * total_mass(cub)

    def test_sphere_zero_at_form_factor_root(self):
        radius = 3e-7
        sph = Sphere(radius, SILICON)
        k = 4.4934 / radius
        assert abs(mu_tilde(sph, np.array([0.0, 0.0, k]))) < 1e-4 * total_mass(sph)

    def test_point_mass_phase(self, rng):
        pos = (1e-7, -2e-7, 3e-8)
        pm = PointMass(5e-10, pos)
        k = random_k(rng)
        val = mu_tilde(pm, k)
        assert val == pytest.approx(
            5e-10 * np.exp(-1j * (k @ np.array(pos))), rel=1e-14, abs=0
        )
        assert abs(val) == pytest.approx(5e-10, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "model",
        [
            PointMass(2.7e-10, (0.5 * R_C, -R_C, 0.0), (0.0, 0.3 * R_C, 0.0)),
            Cuboid(2.4 * R_C, 0.8 * R_C, 4.1 * R_C, SILICON,
                   offset=(0.4 * R_C, 0.0, -0.9 * R_C)),
            Sphere(1.7 * R_C, Material("m", 5100.0), offset=(0.0, R_C, 0.5 * R_C)),
            Cylinder(1.2 * R_C, 3.3 * R_C, Material("m", 900.0),
                     offset=(-0.6 * R_C, 0.0, R_C)),
            LayeredStack(
                2.2 * R_C,
                1.4 * R_C,
                (
                    Layer(Material("a", 2100.0), 0.7 * R_C),
                    Layer(Material("b", 350.0), 1.2 * R_C),
                    Layer(Material("c", 8000.0), 0.4 * R_C),
                ),
                offset=(0.2 * R_C, -0.5 * R_C, 0.8 * R_C),
            ),
        ],
        ids=["point", "cuboid", "sphere", "cylinder", "stack"],
    )
    def test_oracle_equivalence_all_variants(self, rng, model):
        # every variant against direct 3D integration at 100 random k
        mass = total_mass(model)
        k = np.atleast_2d(random_k(rng, n=100))
        expected = mu_oracle(model, k)
        got = mu_tilde(model, k)
        assert np.max(np.abs(got - expected)) <= 1e-8 * mass

    def test_hermitian_symmetry(self, rng):
        for _ in range(30):
            model = random_model(rng)
            k = random_k(rng)
            assert mu_tilde(model, -k) == pytest.approx(
                np.conj(mu_tilde(model, k)), rel=1e-13, abs=1e-13 * total_mass(model)
            )

    def test_magnitude_bound(self, rng):
        for _ in range(30):
            model = random_model(rng)
            k = random_k(rng, n=300)
            ratio = np.abs(mu_tilde(model, k)) / total_mass(model)
            assert np.all(ratio <= 1.0 + 1e-12)

    def test_translation_covariance(self, rng):
        import dataclasses

        for _ in range(20):
            model = random_model(rng, with_offset=False)
            shift = rng.uniform(-3e-7, 3e-7, 3)
            shifted = dataclasses.replace(model, offset=tuple(shift))
            k = random_k(rng)
            base = mu_tilde(model, k)
            moved = mu_tilde(shifted, k)
            assert moved == pytest.approx(
                base * np.exp(-1j * (k @ shift)), rel=1e-12,
                abs=1e-12 * total_mass(model),
            )
            assert abs(moved) == pytest.approx(abs(base), rel=1e-12, abs=0.0)

    def test_additivity_stack_equals_offset_cuboids(self, rng):
        # two stacked layers = sum of two translated cuboids
        t1, t2 = 1.5e-7, 2.5e-7
        lx, ly = 4e-7, 3e-7
        m1, m2 = Material("a", 1200.0), Material("b", 7800.0)
        stack = LayeredStack(lx, ly, (Layer(m1, t1), Layer(m2, t2)))
        h = t1 + t2
        lower = Cuboid(lx, ly, t1, m1, offset=(0.0, 0.0, -0.5 * h + 0.5 * t1))
        upper = Cuboid(lx, ly, t2, m2, offset=(0.0, 0.0, -0.5 * h + t1 + 0.5 * t2))
        for k in np.atleast_2d(random_k(rng, n=50)):
            expected = mu_tilde(lower, k) + mu_tilde(upper, k)
            assert mu_tilde(stack, k) == pytest.approx(
                expected, rel=1e-12, abs=1e-14 * total_mass(stack)
            )

    def test_vectorized_k(self, rng):
        model = random_model(rng)
        k = random_k(rng, n=17)
        batch = mu_tilde(model, k)
        assert batch.shape == (17,)
        for i in range(17):
            # numpy's SIMD batch kernels may differ from scalars by 1 ulp
            assert batch[i] == pytest.approx(
                mu_tilde(model, k[i]), rel=1e-14, abs=1e-14 * total_mass(model)
            )

    def test_nonfinite_k_rejected(self):
        with pytest.raises(ValueError):
            mu_tilde(PointMass(1e-9), np.array([np.nan, 0.0, 0.0]))


class TestNormalizedFormFactor:
    def test_unity_at_zero(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert normalized_form_factor(model, np.zeros(3)) == pytest.approx(
                1.0, rel=1e-12, abs=0
            )

    def test_exactly_one_at_zero(self, rng):
        # mu_tilde(0) is the mass to the bit; dividing the real and imaginary
        # parts by it separately leaves no rounded 1/M in |f(0)|
        for _ in range(20):
            model = random_model(rng)
            assert normalized_form_factor(model, np.zeros(3)) == 1.0
            assert normalized_form_factor(model, np.zeros((2, 3))).tolist() == [1.0, 1.0]

    def test_point_mass_unit_magnitude(self, rng):
        pm = PointMass(2e-9, (1e-7, 0.0, -1e-7))
        for k in np.atleast_2d(random_k(rng, n=20)):
            assert abs(normalized_form_factor(pm, k)) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_bound_random_sampling(self, rng):
        cub = Cuboid(2e-7, 3e-7, 5e-7, SILICON)
        k = random_k(rng, n=10_000)
        assert np.all(np.abs(normalized_form_factor(cub, k)) <= 1.0 + 1e-12)


class TestSeparableFactors:
    def test_cuboid_axis_zero(self):
        cub = Cuboid(1e-7, 2e-7, 3e-7, SILICON)
        assert separable_factors(cub, "x", 0.0) == 1.0

    def test_product_equals_normalized(self, rng):
        for model in (
            Cuboid(2e-7, 3e-7, 4e-7, SILICON, offset=(1e-7, 0.0, -2e-7)),
            LayeredStack(
                3e-7,
                4e-7,
                (Layer(Material("a", 1500.0), 2e-7), Layer(Material("b", 500.0), 1e-7)),
                offset=(0.0, 2e-7, 1e-7),
            ),
        ):
            for k in np.atleast_2d(random_k(rng, n=30)):
                product = (
                    separable_factors(model, "x", k[0])
                    * separable_factors(model, "y", k[1])
                    * separable_factors(model, "z", k[2])
                )
                assert product == pytest.approx(
                    normalized_form_factor(model, k), rel=1e-14, abs=1e-14
                )

    def test_factor_magnitude_bounded(self, rng):
        stack = LayeredStack(
            3e-7,
            4e-7,
            (Layer(Material("a", 1500.0), 2e-7), Layer(Material("b", 500.0), 1e-7)),
        )
        ks = np.linspace(-8 / R_C, 8 / R_C, 1001)
        for axis in "xyz":
            assert np.all(np.abs(separable_factors(stack, axis, ks)) <= 1.0 + 1e-12)

    def test_equal_density_stack_matches_cuboid_z_factor(self):
        mat = Material("a", 2000.0)
        t = 1.3e-7
        stack = LayeredStack(2e-7, 2e-7, (Layer(mat, t), Layer(mat, t)))
        cub = Cuboid(2e-7, 2e-7, 2 * t, mat)
        ks = np.linspace(-8 / R_C, 8 / R_C, 501)
        fs = separable_factors(stack, "z", ks)
        fc = separable_factors(cub, "z", ks)
        np.testing.assert_allclose(fs, fc, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize(
        "model",
        [
            Sphere(1e-7, SILICON),
            Cylinder(1e-7, 2e-7, SILICON),
            PointMass(1e-9),
        ],
    )
    def test_not_separable_variants(self, model):
        with pytest.raises(NotSeparable):
            separable_factors(model, "x", 1.0)

    def test_bad_axis(self):
        for axis in ("w", "", "xy", ["x"], ("x",), 0, None):
            with pytest.raises(ValueError, match="axis must be one of"):
                separable_factors(Cuboid(1e-7, 1e-7, 1e-7, SILICON), axis, 1.0)

    def test_non_finite_k(self):
        for k in (np.nan, np.inf, -np.inf, [0.0, np.nan]):
            with pytest.raises(ValueError, match="wavevector components must be finite"):
                separable_factors(Cuboid(1e-7, 1e-7, 1e-7, SILICON), "x", k)


def test_extents():
    assert extents(Sphere(2e-7, SILICON)) == (4e-7, 4e-7, 4e-7)
    assert extents(Cylinder(1e-7, 5e-7, SILICON)) == (2e-7, 2e-7, 5e-7)
    assert extents(PointMass(1.0)) == (0.0, 0.0, 0.0)
    stack = LayeredStack(
        1e-7, 2e-7, (Layer(SILICON, 1e-7), Layer(SILICON, 3e-7))
    )
    assert extents(stack) == (1e-7, 2e-7, 4e-7)


FACTOR_MODELS = [
    PointMass(1e-9, (1e-7, 0.0, -1e-7)),
    Cuboid(2e-7, 3e-7, 4e-7, SILICON),
    LayeredStack(3e-7, 4e-7, (Layer(Material("a", 1500.0), 2e-7),
                              Layer(Material("b", 500.0), 1e-7))),
    Sphere(2e-7, SILICON),
    Cylinder(1e-7, 3e-7, SILICON),
]


class TestFactors:
    """The factors and moments of each shape, and the one I3 formula."""

    @pytest.mark.parametrize("model", FACTOR_MODELS, ids=lambda m: type(m).__name__)
    def test_factors_multiply_to_form_factor(self, model, rng):
        # the factors split x, y, z in order: d = 1 takes one component,
        # d = 2 or 3 the radius of its components
        k = random_k(rng, n=40)
        product, start = np.ones(len(k), dtype=complex), 0
        for factor in model.factors:
            comps = k[:, start : start + factor.dim]
            arg = comps[:, 0] if factor.dim == 1 else np.sqrt(np.sum(comps**2, axis=1))
            product *= factor.form(arg)
            start += factor.dim
        assert start == 3
        want = np.abs(normalized_form_factor(model, k))
        np.testing.assert_allclose(np.abs(product), want, rtol=1e-13, atol=1e-14)

    def test_factors_are_data(self):
        # a factor is (dim, extent, profile): equal bodies give equal,
        # hashable factors and bitwise the same shape integral
        m = Material("a", 1500.0)
        cuboid = Cuboid(2e-7, 3e-7, 4e-7, m)
        stack = LayeredStack(2e-7, 3e-7, (Layer(m, 4e-7),))
        assert cuboid.factors == stack.factors
        assert hash(cuboid.factors) == hash(stack.factors)
        assert cuboid.shape_integral(R_C) == stack.shape_integral(R_C)
        point = PointMass(1e-9)
        assert point.factors == Sphere(0.0, SILICON).factors  # a ball of diameter 0
        assert point.shape_integral(R_C) == I3_FREE

    def test_formula_keeps_closed_form_operand_order(self, rng):
        # bit for bit the box and cylinder expressions the closed forms used
        for _ in range(200):
            (ax, bx), (ay, by), (az, bz) = rng.uniform(0.0, 2.0, (3, 2))
            assert _i3([(ax, bx), (ay, by), (az, bz)]) == (
                bx * ay * az + ax * by * az + ax * ay * bz)
            assert _i3([(ax, bx), (az, bz)], 2.0 * np.pi) == 2.0 * np.pi * (bx * az + ax * bz)
            assert _i3([(np.nan, bx)], 3.0) == 3.0 * bx  # a lone A is not read

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unit_substitution_gives_partials(self, n, rng):
        moments = [tuple(v) for v in rng.uniform(0.5, 2.0, (n, 2))]
        a = [m[0] for m in moments]
        b = [m[1] for m in moments]
        for f in range(n):
            others = [g for g in range(n) if g != f]
            d_b = np.prod([a[g] for g in others])
            d_a = sum(b[h] * np.prod([a[g] for g in others if g != h]) for h in others)
            sub = lambda unit: _i3([unit if g == f else m for g, m in enumerate(moments)])
            assert sub((0.0, 1.0)) == pytest.approx(d_b, rel=1e-14, abs=0)
            assert sub((1.0, 0.0)) == pytest.approx(d_a, rel=1e-14, abs=1e-300)
            # and the formula is linear in (A_f, B_f)
            assert _i3(moments) == pytest.approx(
                a[f] * sub((1.0, 0.0)) + b[f] * sub((0.0, 1.0)), rel=1e-14, abs=0)
