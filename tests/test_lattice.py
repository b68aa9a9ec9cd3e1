"""Discrete-lattice oracles: construction, direct sums, commutator identity."""

import tracemalloc

import mpmath as mp
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
from cslheat.geometry import _lines
from cslheat.lattice import _PROBE, PAIR_CAP, _axis_pair_sums, _line_grid
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
    )


def line_grids(model, spacing):
    """The (positions, weights) of gamma_cm_discrete_separable's three axes."""
    return [_line_grid(line, c, spacing) for line, c in zip(_lines(model), model.offset)]


def dense_axis_sums(positions, weights, r_c):
    """(Q, P) of _axis_pair_sums from every site pair, in row blocks."""
    w = weights / np.sum(weights)
    q_sum = p_sum = 0.0
    for i in range(0, len(w), 256):
        q = (np.subtract.outer(positions[i : i + 256], positions) / r_c) ** 2 / 4.0
        g = np.exp(-q)
        q_sum += float(w[i : i + 256] @ g @ w)
        p_sum += float(w[i : i + 256] @ ((0.5 - q) * g) @ w)
    return q_sum, p_sum


def gamma_cm_mp(mass, axes, csl):
    """gamma_cm of a product grid at 40 digits: lambda hbar^2 M / (2 m_N^2 r_c^2)
    times sum_f P_f prod_(g != f) Q_g over the axes' (positions, weights)."""
    with mp.workdps(40):
        r_c = mp.mpf(csl.r_c)
        sums = []
        for positions, weights in axes:
            x = [mp.mpf(float(v)) / r_c for v in positions]
            w = [mp.mpf(float(v)) for v in weights]
            w = [v / mp.fsum(w) for v in w]
            q = p = mp.mpf(0)
            for xa, wa in zip(x, w):
                for xb, wb in zip(x, w):
                    d2 = (xa - xb) ** 2 / 4
                    term = wa * wb * mp.exp(-d2)
                    q += term
                    p += term * (mp.mpf(1) / 2 - d2)
            sums.append((q, p))
        i3 = mp.fsum(p * mp.fprod(q for g, (q, _) in enumerate(sums) if g != f)
                     for f, (_, p) in enumerate(sums))
        c = CONSTANTS
        pref = (mp.mpf(csl.lambda_rate) * mp.mpf(c.hbar) ** 2 * mp.mpf(mass)
                / (2 * mp.mpf(c.m_nucleon) ** 2 * r_c**2))
        return pref * i3


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
        )
        assert gamma_total_discrete(doubled, CSL) == pytest.approx(
            2.0 * gamma_total_discrete(lat, CSL), rel=1e-14, abs=0
        )

    def test_regression_value(self):
        lat = Lattice(
            masses=np.array([1.0]),
            positions=np.zeros((1, 3)),
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
        # wide body exercises the banded uniform-grid route in x and y;
        # a single site is an axis too
        plate = Cuboid(60 * R_C, 60 * R_C, 2 * R_C, SILICON)
        assert gamma_cm_discrete_separable(plate, CSL, R_C / 2) > 0
        for pos, w in [*line_grids(plate, R_C / 2), (np.array([3e-7]), np.array([2.0]))]:
            qb, pb = _axis_pair_sums(pos, w, R_C)
            qd, pd = dense_axis_sums(pos, w, R_C)
            assert qb == pytest.approx(qd, rel=1e-12, abs=0)
            assert pb == pytest.approx(pd, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n, offset", [(1, 0.0), (37, 0.0), (300, 0.0),
                                           (700, 0.0), (700, 0.1)])
    def test_matches_pair_tensor(self, rng, n, offset):
        # 300 and 700 sites span several row blocks, the last one partial
        lat = random_lattice(rng, n, scale=3e-7)
        lat = Lattice(lat.masses, lat.positions + offset)
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
        (pos, w), _, _ = line_grids(plate, R_C / 4)
        assert len(pos) == 1500
        qb, pb = _axis_pair_sums(pos, w, R_C)
        qd, pd = dense_axis_sums(pos, w, R_C)
        assert qb == pytest.approx(qd, rel=1e-12, abs=0)
        assert pb == pytest.approx(pd, rel=1e-12, abs=0)

    def test_banded_memory_stays_small(self):
        n = 4000
        pos = (np.arange(n) - 0.5 * (n - 1)) * R_C / 4
        tracemalloc.start()
        try:
            _axis_pair_sums(pos, np.full(n, 1.0 / n), R_C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense n x n route needed more than 500 MB here
        assert peak < 16e6

    def test_whole_spacing_layers_take_the_band(self):
        # layers of 245 and 250 spacings: t / round(t / s) differs in the
        # last bits between them, yet the sites lie on one pitch
        spacing = R_C / 40
        heavy, light = Material("h", 2000.0), Material("l", 200.0)
        layers = tuple(Layer((heavy, light)[i % 2], (245, 250)[i % 2] * spacing)
                       for i in range(16))
        assert len({lay.thickness / round(lay.thickness / spacing) for lay in layers}) > 1
        stack = LayeredStack(2 * R_C, 2 * R_C, layers)
        _, _, (pos, w) = line_grids(stack, spacing)
        assert len(pos) == 3960
        tracemalloc.start()
        try:
            assert gamma_cm_discrete_separable(stack, CSL, spacing) > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense route's 3960 x 3960 pair matrices take more than 128 MB
        assert peak < 16e6
        q, p = _axis_pair_sums(pos, w, R_C)
        qd, pd = dense_axis_sums(pos, w, R_C)
        assert q == pytest.approx(qd, rel=1e-13, abs=0)
        assert p == pytest.approx(pd, rel=1e-13, abs=0)

    def test_mixed_pitch_memory_stays_small(self):
        # layers of 65.4 and 110.4 spacings discretize to pitches of about
        # 1.0062 and 1.0036 spacings: no single pitch, so the dense route,
        # which takes row blocks
        spacing = R_C / 40
        heavy, light = Material("h", 2000.0), Material("l", 200.0)
        layers = tuple(Layer((heavy, light)[i % 2], (65.4, 110.4)[i % 2] * spacing)
                       for i in range(24))
        stack = LayeredStack(2 * R_C, 2 * R_C, layers)
        _, _, (pos, w) = line_grids(stack, spacing)
        assert len(pos) == 2100 and np.ptp(np.diff(pos)) > 1e-3 * spacing
        tracemalloc.start()
        try:
            assert gamma_cm_discrete_separable(stack, CSL, spacing) > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three whole 2100 x 2100 pair matrices took 106 MB
        assert peak < 16e6
        q, p = _axis_pair_sums(pos, w, R_C)
        qd, pd = dense_axis_sums(pos, w, R_C)
        assert q == pytest.approx(qd, rel=1e-13, abs=0)
        assert p == pytest.approx(pd, rel=1e-13, abs=0)

    def test_mixed_pitches_match_dense(self):
        # layers of 1.3 and 2.2 spacings discretize to pitches of 1.3 and
        # 1.1 spacings: no single pitch, so the dense route
        spacing = R_C / 5
        heavy, light = Material("h", 2000.0), Material("l", 200.0)
        layers = tuple(Layer((heavy, light)[i % 2], (1.3, 2.2)[i % 2] * spacing)
                       for i in range(12))
        stack = LayeredStack(2 * R_C, 2 * R_C, layers, (0.0, 0.0, 3e-7))
        _, _, (pos, w) = line_grids(stack, spacing)
        gaps = np.diff(pos) / spacing
        assert np.ptp(gaps) > 0.1
        q, p = _axis_pair_sums(pos, w, R_C)
        qd, pd = dense_axis_sums(pos, w, R_C)
        assert q == pytest.approx(qd, rel=1e-13, abs=0)
        assert p == pytest.approx(pd, rel=1e-13, abs=0)

    def test_probe_rates_match_mpmath(self):
        # lattice_check's probe: a cube of side 2 r_c on 12^3 sites
        cube = Cuboid(2 * R_C, 2 * R_C, 2 * R_C, _PROBE)
        lat = build_lattice(cube, R_C / 6)
        axes = [np.unique(lat.positions[:, i]) for i in range(3)]
        # a full product grid of equal masses: the pair sum factorizes
        assert [len(a) for a in axes] == [12, 12, 12] and lat.n_cells == 12**3
        assert np.all(lat.masses == lat.masses[0])
        with mp.workdps(40):
            mass = mp.fsum(mp.mpf(float(m)) for m in lat.masses)
        want = gamma_cm_mp(mass, [(a, np.ones(12)) for a in axes], CSL)
        got = gamma_cm_discrete(lat, CSL)
        assert abs(got - want) / want <= 2e-15
        want = gamma_cm_mp(total_mass(cube), line_grids(cube, R_C / 6), CSL)
        got = gamma_cm_discrete_separable(cube, CSL, R_C / 6)
        assert abs(got - want) / want <= 1e-15

    def test_pair_cap(self):
        n = 2**14 + 1  # n^2 just over PAIR_CAP = 2^28
        assert n * n > PAIR_CAP >= (n - 1) ** 2
        lat = Lattice(np.full(n, 1e-18), np.zeros((n, 3)))
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
