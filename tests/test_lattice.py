"""Discrete-lattice oracles: construction, direct sums, commutator identity."""

import tracemalloc

import numpy as np
import pytest

from cslheat import (
    CONSTANTS,
    CslParams,
    Cuboid,
    Cylinder,
    Layer,
    LayeredStack,
    Lattice,
    Material,
    NotSeparable,
    PointMass,
    QuadratureSpec,
    Sphere,
    TooManySites,
    build_lattice,
    f_double_commutator,
    gamma_cm_discrete,
    gamma_cm_discrete_separable,
    gamma_total,
    gamma_total_discrete,
    lattice_check,
    mu_tilde,
    mu_tilde_discrete,
    total_mass,
)
from cslheat.lattice import PAIR_CAP, _axis_marginals, _axis_pair_sums
from conftest import (
    full_grid_lattice,
    gamma_cm_pair_tensor,
    gamma_cm_quadrature,
    mu_tilde_site_matrix,
)

R_C = 1e-7
CSL = CslParams(1e-16, R_C)
SILICON = Material("silicon", 2329.0)


def random_lattice(rng, n, scale=1e-7):
    return Lattice(
        masses=rng.uniform(0.5, 2.0, n) * 1e-18,
        positions=rng.uniform(-scale, scale, (n, 3)),
        cell_volume=scale**3,
    )


class TestBuildLattice:
    def test_exact_octants(self):
        a = 1e-6
        lat = build_lattice(Cuboid(a, a, a, SILICON), a / 2)
        assert lat.n_cells == 8
        np.testing.assert_allclose(
            lat.masses, total_mass(Cuboid(a, a, a, SILICON)) / 8, rtol=1e-12
        )

    def test_site_count_1mm_cube(self):
        lat = build_lattice(Cuboid(1e-3, 1e-3, 1e-3, SILICON), 20e-6)
        assert lat.n_cells == 125_000

    def test_sphere_mass_rescaled_exactly(self):
        sph = Sphere(2e-7, SILICON)
        lat = build_lattice(sph, 1e-8)
        assert lat.total_mass == pytest.approx(total_mass(sph), rel=1e-14, abs=0)
        assert np.all(np.linalg.norm(lat.positions, axis=1) <= 2e-7)

    def test_stack_density_profile(self):
        heavy, light = Material("h", 2000.0), Material("l", 200.0)
        stack = LayeredStack(4e-7, 4e-7, (Layer(heavy, 2e-7), Layer(light, 2e-7)))
        lat = build_lattice(stack, 5e-8)
        lower = lat.positions[:, 2] < 0
        ratio = lat.masses[lower].sum() / lat.masses[~lower].sum()
        assert ratio == pytest.approx(10.0, rel=1e-9, abs=0)

    def test_site_cap(self):
        # 1000^3 candidate sites, 10x SITE_CAP: refused before the grid exists
        tracemalloc.start()
        try:
            with pytest.raises(TooManySites):
                build_lattice(Cuboid(1e-3, 1e-3, 1e-3, SILICON), 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_point_mass_single_site(self):
        lat = build_lattice(PointMass(1e-9, (1e-7, 0.0, 0.0)), 1e-8)
        assert lat.n_cells == 1
        assert lat.total_mass == 1e-9

    def test_spacing_larger_than_body_rejected(self):
        with pytest.raises(ValueError):
            build_lattice(Cuboid(1e-7, 1e-7, 1e-7, SILICON), 2e-7)

    @pytest.mark.parametrize(
        "model",
        [
            Cuboid(2.3 * R_C, 1.7 * R_C, 3.1 * R_C, SILICON, (1e-7, -3e-8, 2e-6)),
            Sphere(2.2 * R_C, SILICON, (3e-8, 0.0, -1e-7)),
            Sphere(2.0 * R_C, SILICON),
            Cylinder(1.5 * R_C, 3.3 * R_C, SILICON, (0.0, 1e-6, 0.0)),
            LayeredStack(
                4.1 * R_C, 3.0 * R_C,
                (Layer(Material("h", 2000.0), 1.0 * R_C),
                 Layer(Material("l", 200.0), 1.3 * R_C),
                 Layer(Material("h", 2000.0), 0.7 * R_C)),
                (5e-7, 0.0, 1e-7),
            ),
        ],
        ids=["cuboid", "sphere", "sphere-centered", "cylinder", "stack"],
    )
    @pytest.mark.parametrize("spacing", [R_C / 7.3, R_C / 10])
    def test_bit_identical_to_full_grid(self, model, spacing):
        lat = build_lattice(model, spacing)
        positions, masses = full_grid_lattice(model, spacing)
        np.testing.assert_array_equal(lat.positions, positions)
        np.testing.assert_array_equal(lat.masses, masses)


class TestMuTildeDiscrete:
    def test_zero_wavevector(self, rng):
        lat = random_lattice(rng, 50)
        assert mu_tilde_discrete(lat, np.zeros(3)) == pytest.approx(
            lat.total_mass, rel=1e-14, abs=0
        )

    def test_single_site_phase(self):
        lat = Lattice(
            masses=np.array([2e-9]),
            positions=np.array([[1e-7, -1e-7, 2e-7]]),
            cell_volume=1e-24,
        )
        k = np.array([3e6, -1e6, 2e6])
        expected = 2e-9 * np.exp(-1j * (k @ lat.positions[0]))
        assert mu_tilde_discrete(lat, k) == pytest.approx(expected, rel=1e-14, abs=0)
        assert abs(mu_tilde_discrete(lat, k)) == pytest.approx(2e-9, rel=1e-14, abs=0)

    def test_bound(self, rng):
        lat = random_lattice(rng, 200)
        k = rng.normal(0.0, 1.0 / R_C, (100, 3))
        assert np.all(
            np.abs(mu_tilde_discrete(lat, k)) <= lat.total_mass * (1 + 1e-12)
        )

    @pytest.mark.parametrize("sites,k_shape", [
        (37, (3,)), (37, (40, 3)), (37, (4, 5, 3)),
        (70001, (3,)), (70001, (40, 3)), (70001, (4, 5, 3)),
        (3, (70001, 3)),
    ])
    def test_matches_site_matrix(self, rng, sites, k_shape):
        # 37 sites fit one block, 70001 sites end in a partial one, and
        # with 70001 wavevectors every block holds a single site
        lat = random_lattice(rng, sites, 3e-7)
        k = rng.normal(0.0, 1.0 / R_C, k_shape)
        got = mu_tilde_discrete(lat, k)
        want = mu_tilde_site_matrix(lat, k)
        assert np.shape(got) == k_shape[:-1]
        assert np.max(np.abs(got - want)) <= 1e-13 * lat.total_mass

    def test_memory_stays_small(self):
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        lat = build_lattice(cube, 2 * R_C / 100)
        assert lat.n_cells == 1_000_000
        tracemalloc.start()
        try:
            mu_tilde_discrete(lat, np.array([0.6, -0.64, 0.48]) / R_C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (N, 1) complex phase matrix needed about 40 MB here
        assert peak < 16e6

    def test_convergence_to_continuum(self):
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        k = np.array([1.0, 0.0, 0.0]) / R_C
        exact = mu_tilde(cube, k)
        mass = total_mass(cube)
        lat = build_lattice(cube, 2 * R_C / 50)
        assert abs(mu_tilde_discrete(lat, k) - exact) / mass <= 1e-3

    def test_convergence_order(self):
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        k = np.array([0.6, -0.64, 0.48]) / R_C  # |k| = 1/r_c
        exact = mu_tilde(cube, k)
        mass = total_mass(cube)
        errs, ds = [], []
        for n in (16, 32, 64, 128):
            d = 2 * R_C / n
            lat = build_lattice(cube, d)
            errs.append(abs(mu_tilde_discrete(lat, k) - exact) / mass)
            ds.append(d)
        slope = np.polyfit(np.log(ds), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


class TestDoubleCommutator:
    def test_zero_wavevector(self, rng):
        lat = random_lattice(rng, 30)
        assert f_double_commutator(lat, np.zeros(3)) == 0.0

    def test_single_site(self):
        m = 3e-9
        lat = Lattice(
            masses=np.array([m]),
            positions=np.array([[2e-7, 0.0, -1e-7]]),
            cell_volume=1e-24,
        )
        k = np.array([1e7, 0.0, 0.0])
        expected = -CONSTANTS.hbar**2 * m * 1e14
        assert f_double_commutator(lat, k) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_identity_random_lattices(self, rng):
        for _ in range(100):
            lat = random_lattice(rng, int(rng.integers(1, 80)))
            k = rng.normal(0.0, 1.0 / R_C, 3)
            expected = -CONSTANTS.hbar**2 * lat.total_mass * float(k @ k)
            assert f_double_commutator(lat, k) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_position_independence(self, rng):
        lat = random_lattice(rng, 60)
        k = rng.normal(0.0, 1.0 / R_C, 3)
        ref = f_double_commutator(lat, k)
        for _ in range(10):
            shuffled = Lattice(
                masses=lat.masses,
                positions=rng.uniform(-5e-7, 5e-7, lat.positions.shape),
                cell_volume=lat.cell_volume,
            )
            assert f_double_commutator(shuffled, k) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_sign(self, rng):
        lat = random_lattice(rng, 10)
        k = np.array([1e6, 2e6, -3e6])
        assert f_double_commutator(lat, k) < 0.0


class TestGammaTotalDiscrete:
    def test_lambda_zero(self, rng):
        lat = random_lattice(rng, 10)
        assert gamma_total_discrete(lat, CslParams(0.0, R_C)) == 0.0

    def test_mass_doubling(self, rng):
        lat = random_lattice(rng, 25)
        doubled = Lattice(
            masses=2.0 * lat.masses,
            positions=lat.positions,
            cell_volume=lat.cell_volume,
        )
        assert gamma_total_discrete(doubled, CSL) == pytest.approx(
            2.0 * gamma_total_discrete(lat, CSL), rel=1e-14, abs=0
        )

    def test_regression_value(self):
        lat = Lattice(
            masses=np.array([1.0]),
            positions=np.zeros((1, 3)),
            cell_volume=1.0,
        )
        assert gamma_total_discrete(lat, CslParams(1e-16, 1e-7)) == pytest.approx(
            2.98e-17, rel=1e-3, abs=0
        )

    def test_exact_match_with_continuum(self, rng):
        lat = random_lattice(rng, 17)
        assert gamma_total_discrete(lat, CSL) == gamma_total(lat.total_mass, CSL)


class TestGammaCmDiscrete:
    def test_point_equals_total(self):
        lat = build_lattice(PointMass(1e-9), 1e-9)
        assert gamma_cm_discrete(lat, CSL) == pytest.approx(
            gamma_total(1e-9, CSL), rel=1e-14, abs=0
        )

    def test_pairwise_matches_marginal_factorization(self):
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        full = gamma_cm_discrete(build_lattice(cube, R_C / 6), CSL)
        marg = gamma_cm_discrete_separable(cube, CSL, R_C / 6)
        assert marg == pytest.approx(full, rel=1e-12, abs=0)

    @pytest.mark.parametrize("model", [PointMass(1e-9), Sphere(R_C, SILICON),
                                       Cylinder(R_C, 2 * R_C, SILICON)],
                             ids=lambda m: type(m).__name__)
    def test_separable_refuses_non_box_bodies(self, model):
        # only bodies whose factors are all lines have a product-grid lattice
        with pytest.raises(NotSeparable):
            gamma_cm_discrete_separable(model, CSL, R_C / 6)

    def test_converges_to_quadrature(self):
        quad = QuadratureSpec()
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, SILICON)
        target = gamma_cm_quadrature(cube, CSL, quad).value
        errs = []
        for d in (R_C / 10, R_C / 20, R_C / 40):
            errs.append(
                abs(gamma_cm_discrete_separable(cube, CSL, d) - target) / target
            )
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-3
        # O(d^2): each halving divides the error by about 4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.4, abs=0)

    def test_banded_path_matches_direct(self):
        # wide body exercises the banded uniform-grid branch in x and y
        plate = Cuboid(60 * R_C, 60 * R_C, 2 * R_C, SILICON)
        coarse = gamma_cm_discrete_separable(plate, CSL, R_C / 2)
        # same spacing via the direct O(n^2) branch
        mx, my, mz = _axis_marginals(plate, R_C / 2)
        direct = []
        for pos, w, pitch in (mx, my, mz):
            direct.append(_axis_pair_sums(pos, w, R_C, None))
        banded = []
        for pos, w, pitch in (mx, my, mz):
            banded.append(_axis_pair_sums(pos, w, R_C, pitch))
        for (qd, pd), (qb, pb) in zip(direct, banded):
            assert qb == pytest.approx(qd, rel=1e-12, abs=0)
            assert pb == pytest.approx(pd, rel=1e-12, abs=0)
        assert coarse > 0

    @pytest.mark.parametrize("n, offset", [(1, 0.0), (37, 0.0), (300, 0.0),
                                           (700, 0.0), (700, 0.1)])
    def test_matches_pair_tensor(self, rng, n, offset):
        # 300 and 700 sites span several row blocks, the last one partial
        lat = random_lattice(rng, n, scale=3e-7)
        lat = Lattice(lat.masses, lat.positions + offset, lat.cell_volume)
        assert gamma_cm_discrete(lat, CSL) == pytest.approx(
            gamma_cm_pair_tensor(lat, CSL), rel=1e-13, abs=0
        )

    def test_lattice_far_from_origin_matches_pair_tensor(self):
        cyl = Cylinder(2 * R_C, 3 * R_C, SILICON, (0.1, -0.2, 0.05))
        lat = build_lattice(cyl, R_C / 3)
        assert lat.n_cells > 300
        assert gamma_cm_discrete(lat, CSL) == pytest.approx(
            gamma_cm_pair_tensor(lat, CSL), rel=1e-13, abs=0
        )

    def test_banded_matches_dense_on_1500_sites(self):
        plate = Cuboid(375 * R_C, 3 * R_C, 2 * R_C, SILICON, (2e-6, 0.0, 0.0))
        (pos, w, pitch), _, _ = _axis_marginals(plate, R_C / 4)
        assert len(pos) == 1500
        qb, pb = _axis_pair_sums(pos, w, R_C, pitch)
        qd, pd = _axis_pair_sums(pos, w, R_C, None)
        assert qb == pytest.approx(qd, rel=1e-12, abs=0)
        assert pb == pytest.approx(pd, rel=1e-12, abs=0)

    def test_banded_memory_stays_small(self):
        n = 4000
        pos = (np.arange(n) - 0.5 * (n - 1)) * R_C / 4
        tracemalloc.start()
        try:
            _axis_pair_sums(pos, np.full(n, 1.0 / n), R_C, R_C / 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense n x n route needed more than 500 MB here
        assert peak < 16e6

    def test_pair_cap(self):
        n = 2**14 + 1  # n^2 just over PAIR_CAP = 2^28
        assert n * n > PAIR_CAP >= (n - 1) ** 2
        lat = Lattice(np.full(n, 1e-18), np.zeros((n, 3)), 1e-24)
        tracemalloc.start()
        try:
            with pytest.raises(TooManySites):
                gamma_cm_discrete(lat, CSL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5  # refused before any pair block

    def test_stack_matches_quadrature(self):
        heavy, light = Material("h", 2000.0), Material("l", 200.0)
        layers = tuple(
            Layer(heavy if i % 2 == 0 else light, R_C) for i in range(16)
        )
        stack = LayeredStack(10 * R_C, 10 * R_C, layers)
        quad_val = gamma_cm_quadrature(stack, CSL, QuadratureSpec()).value
        lat_val = gamma_cm_discrete_separable(stack, CSL, R_C / 40)
        assert lat_val == pytest.approx(quad_val, rel=1e-3, abs=0)


def test_lattice_check_suite():
    report = lattice_check(seed=0)
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "double_commutator_identity" in names
    assert "discrete_continuum_convergence" in names
