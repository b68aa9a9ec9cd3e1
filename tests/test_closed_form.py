"""Closed-form shape integrals against mpmath and the quadrature oracle.

The mpmath references evaluate the same closed forms at 60 digits, where
no cancellation matters, on both sides of every series/direct switch
(extent 2 r_c for all three: profile width 2, sphere and disc radius 1).
The quadrature oracle (conftest.i3_quadrature) integrates the analytic
form factors instead and so checks the forms themselves.
"""

import dataclasses
import math
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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
    ThermalModel,
    design_stack,
    discriminability_report,
    heating_report,
    lambda_bound,
    optimize_layers,
    scan_rc,
    special,
)
from cslheat.heating import I3_FREE, REL_ERROR
from cslheat.special import _FOLD_MIN, _cell, _profile_ab
from conftest import i3_quadrature

QUAD = QuadratureSpec()
ORACLE_QUAD = QuadratureSpec(rel_tol=1e-12)
DENSE = Material("dense", 2500.0)
LIGHT = Material("light", 250.0)
EXTENTS = [1e-6, 1e-3, 0.3, 2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6), 30.0, 1e3, 1e5]
DPS = 60


def _jumps_mp(widths, densities):
    """Edges and density jumps of a layered 1D profile, in mpmath."""
    rho = [mp.mpf(float(r)) for r in densities]
    z = [mp.mpf(0)]
    for w in widths:
        z.append(z[-1] + mp.mpf(float(w)))
    c = [rho[0]] + [rho[i + 1] - rho[i] for i in range(len(rho) - 1)] + [-rho[-1]]
    return z, c, mp.fsum(r * mp.mpf(float(w)) for r, w in zip(rho, widths))


def _ab_mp(weight, sigma):
    """A and B from the pair weights sum c_p c_q at each pair distance.

    Past `far`, erf(d/2) is 1 to below the working precision, as
    erfc(x) < e^(-x^2), so only nearer pairs evaluate it.
    """
    rt_pi = mp.sqrt(mp.pi)
    far = 2 * mp.sqrt((mp.mp.dps + 5) * mp.log(10))
    sum_a = mp.fsum(
        w * (rt_pi * d * (mp.erf(d / 2) if d < far else 1) + 2 * mp.exp(-d * d / 4))
        for d, w in weight.items()
    )
    sum_b = mp.fsum(w * mp.exp(-d * d / 4) for d, w in weight.items())
    return -rt_pi * sum_a / sigma**2, rt_pi * sum_b / sigma**2


def _profile_ab_mp(widths, densities):
    """A and B of a layered 1D profile by the pair-of-jumps sum, in mpmath.

    Pairs at the same distance share one kernel evaluation, so periodic
    stacks of hundreds of layers stay cheap.
    """
    z, c, sigma = _jumps_mp(widths, densities)
    weight = {}
    for p in range(len(z)):
        for q in range(p, len(z)):
            d = z[q] - z[p]
            weight[d] = weight.get(d, 0) + (1 if p == q else 2) * c[p] * c[q]
    return _ab_mp(weight, sigma)


def _profile_ab_lag_mp(widths, densities, copies):
    """_profile_ab_mp of `copies` copies of one cell of layers side by side.

    By the lag identity c^T K c = n S_0 + sum_(l >= 1) 2 (n - l) S_l with
    S_l = sum_pq c_p c_q K(z_p - z_q + l P) over the cell's edges, O(n m^2)
    for n copies of m layers in place of the (nm)^2 pairs.
    """
    z, c, sigma = _jumps_mp(widths, densities)
    weight = {}
    for lag in range(copies):
        w_lag = copies if lag == 0 else 2 * (copies - lag)
        for p in range(len(z)):
            for q in range(len(z)):
                d = abs(z[p] - z[q] + lag * z[-1])
                weight[d] = weight.get(d, 0) + w_lag * c[p] * c[q]
    return _ab_mp(weight, copies * sigma)


def _disc_ab_mp(s):
    s = mp.mpf(float(s))
    x = s * s / 2
    i0 = mp.exp(-x) * mp.besseli(0, x)
    i1 = mp.exp(-x) * mp.besseli(1, x)
    return 2 * (1 - i0 - i1) / s**2, 2 * i1 / s**2


def _reduction_mp(model):
    """Reduction factor of a model with r_c = 1, in mpmath."""
    with mp.workdps(DPS):
        if isinstance(model, PointMass):
            return mp.mpf(1)
        if isinstance(model, Sphere):
            y = mp.mpf(float(model.radius)) ** 2
            return 6 * ((y - 2) + (y + 2) * mp.exp(-y)) / y**3
        if isinstance(model, Cylinder):
            a_perp, b_perp = _disc_ab_mp(model.radius)
            a_z, b_z = _profile_ab_mp([model.height], [1.0])
            return 2 * mp.pi * (b_perp * a_z + a_perp * b_z) / I3_FREE
        if isinstance(model, Cuboid):
            axes = [_profile_ab_mp([w], [1.0]) for w in (model.lx, model.ly, model.lz)]
        else:
            axes = [
                _profile_ab_mp([model.lx], [1.0]),
                _profile_ab_mp([model.ly], [1.0]),
                _profile_ab_mp(
                    [layer.thickness for layer in model.layers],
                    [layer.material.density for layer in model.layers],
                ),
            ]
        (a_x, b_x), (a_y, b_y), (a_z, b_z) = axes
        return (b_x * a_y * a_z + a_x * b_y * a_z + a_x * a_y * b_z) / I3_FREE


def _stack_layers(rng, n, height):
    t = rng.uniform(0.2, 1.0, n)
    t *= height / t.sum()
    mats = (DENSE, LIGHT)
    return tuple(
        Layer(Material("m", mats[i % 2].density * rng.uniform(0.9, 1.1)), float(ti))
        for i, ti in enumerate(t)
    )


def _bodies(extent, rng):
    """One body of each shape whose extents are `extent` (r_c = 1)."""
    return [
        PointMass(1e-9),
        Cuboid(extent, extent, extent, DENSE),
        Sphere(0.5 * extent, DENSE),
        Cylinder(0.5 * extent, extent, DENSE),
        LayeredStack(extent, extent, _stack_layers(rng, 16, extent)),
    ]


@pytest.mark.parametrize("extent", EXTENTS)
def test_reduction_matches_mpmath(extent):
    rng = np.random.default_rng(17)
    for model in _bodies(extent, rng):
        got = heating_report(model, CslParams(1.0, 1.0), QUAD).reduction_factor
        want = _reduction_mp(model)
        assert abs(got - want) <= REL_ERROR * want, (type(model).__name__, extent)


@pytest.mark.parametrize("height", [1e-4, 2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6), 100.0, 1e5])
def test_periodic_256_layer_profile_matches_mpmath(height):
    t = [height / 256] * 256
    rho = [DENSE.density, LIGHT.density] * 128
    a, b = _profile_ab(t, rho)
    with mp.workdps(DPS):
        a_mp, b_mp = _profile_ab_mp(t, rho)
        assert abs(a - a_mp) <= REL_ERROR * a_mp
        assert abs(b - b_mp) <= REL_ERROR * b_mp


@pytest.mark.parametrize("height", [0.5, 2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6), 3.0, 1e3])
def test_random_64_layer_profile_matches_mpmath(height):
    layers = _stack_layers(np.random.default_rng(5), 64, height)
    t = [layer.thickness for layer in layers]
    rho = [layer.material.density for layer in layers]
    a, b = _profile_ab(t, rho)
    with mp.workdps(DPS):
        a_mp, b_mp = _profile_ab_mp(t, rho)
        assert abs(a - a_mp) <= REL_ERROR * a_mp
        assert abs(b - b_mp) <= REL_ERROR * b_mp


# cells of a periodic profile: layer fractions of the cell width, densities
CELLS = {
    1: ([1.0], [DENSE.density]),
    2: ([0.4, 0.6], [19320.0, 2329.0]),
    3: ([0.2, 0.5, 0.3], [2500.0, 250.0, 8960.0]),
}


def _periodic(cell, copies, height):
    """Widths and densities of `copies` copies of CELLS[cell], `height` high."""
    fractions, rho = CELLS[cell]
    return [f * height / copies for f in fractions] * copies, rho * copies


def _assert_ab_match(widths, densities, ab_mp):
    a, b = _profile_ab(widths, densities)
    assert abs(a - ab_mp[0]) <= REL_ERROR * ab_mp[0]
    assert abs(b - ab_mp[1]) <= REL_ERROR * ab_mp[1]


@pytest.mark.parametrize("height", [0.5, 2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6), 2.5, 5.0, 30.0,
                                    200.0, 1e4])
@pytest.mark.parametrize("cell, copies", [(1, 8), (1, 128), (2, 8), (2, 128), (3, 8), (3, 85)])
def test_periodic_profile_matches_mpmath(cell, copies, height):
    # both sides of _FOLD_MIN, and of the thin-cell switch at a cell width of 2
    t, rho = _periodic(cell, copies, height)
    with mp.workdps(30):
        _assert_ab_match(t, rho, _profile_ab_lag_mp(t[:cell], rho[:cell], copies))


@pytest.mark.parametrize("height", [2.5, 2.000002])
def test_periodic_1024_layer_profile_matches_mpmath(height):
    t, rho = [height / 1024] * 1024, [19320.0, 2329.0] * 512
    with mp.workdps(30):
        _assert_ab_match(t, rho, _profile_ab_lag_mp(t[:2], rho[:2], 512))


@pytest.mark.parametrize("cell, copies, height", [(2, 64, 2.5), (3, 20, 0.7), (1, 40, 30.0)])
def test_lag_reference_matches_pair_reference(cell, copies, height):
    t, rho = _periodic(cell, copies, height)
    with mp.workdps(30):
        lag = _profile_ab_lag_mp(t[:cell], rho[:cell], copies)
        pair = _profile_ab_mp(t, rho)
        for x, y in zip(lag, pair):
            assert abs(x - y) <= 1e-25 * y


@pytest.mark.parametrize("cell", [1, 2, 3])
def test_fold_finds_the_cell(cell):
    t, rho = _periodic(cell, _FOLD_MIN, 5.0)
    assert _cell(t, rho) == cell
    # a cell that repeats a shorter pattern inside it is still the cell
    t, rho = [0.1, 0.2, 0.1, 0.3] * _FOLD_MIN, [1.0, 2.0, 1.0, 2.0] * _FOLD_MIN
    assert _cell(t, rho) == 4


def test_short_periodic_profiles_stay_one_cell(monkeypatch):
    below, at = _periodic(2, _FOLD_MIN // 2 - 1, 5.0), _periodic(2, _FOLD_MIN // 2, 5.0)
    assert _cell(*below) == _FOLD_MIN - 2
    assert _cell(*at) == 2
    folded = [_profile_ab(*below), _profile_ab(*at)]
    monkeypatch.setattr(special, "_cell", lambda widths, densities: len(widths))
    assert _profile_ab(*below) == folded[0]
    a, b = _profile_ab(*at)
    assert abs(folded[1][0] - a) <= 1e-13 * a and abs(folded[1][1] - b) <= 1e-13 * b


@pytest.mark.parametrize("break_period", ["nudge", "partial"])
def test_broken_periodic_profile_is_aperiodic(break_period):
    t, rho = _periodic(2, 40, 4.0)
    if break_period == "nudge":
        t[37] = math.nextafter(t[37], math.inf)  # one thickness 1 ulp thicker
    else:
        t, rho = t + t[:1], rho + rho[:1]  # 40.5 cells
    assert _cell(t, rho) == len(t)
    with mp.workdps(30):
        _assert_ab_match(t, rho, _profile_ab_mp(t, rho))


def test_fold_matches_unfolded_sum(monkeypatch):
    # periodic profiles of up to 2,000 layers with random cells, through
    # every fold branch (cell, copies, height: a thin cell, the series
    # kernels below 2 r_c high, a one-layer cell, thick cells), against the
    # same edges taken as one cell: the dense pair sum, or, for the 1.9 r_c
    # profile, the moment series at one copy.  The tolerance is the dense
    # sum's own error: on the first profile it is off 30-digit mpmath by
    # 7.3e-12 in A, where the fold is off by 1e-16 (the fold's accuracy on
    # such profiles is held to mpmath by the 1,024-layer test above)
    rng = np.random.default_rng(11)
    profiles = []
    for cell, copies, height in [(2, 1000, 5.0), (4, 250, 1.9), (1, 1000, 300.0),
                                 (5, 200, 2500.0), (3, 40, 90.0)]:
        fractions = rng.uniform(0.1, 1.0, cell)
        t = (fractions / fractions.sum() * height / copies).tolist() * copies
        profiles.append((t, rng.uniform(100.0, 2e4, cell).tolist() * copies))
    folded = [_profile_ab(t, rho) for t, rho in profiles]
    monkeypatch.setattr(special, "_cell", lambda widths, densities: len(widths))
    for (t, rho), (a, b) in zip(profiles, folded):
        a_dense, b_dense = _profile_ab(t, rho)
        assert abs(a - a_dense) <= 1e-11 * a_dense
        assert abs(b - b_dense) <= 1e-11 * b_dense


def test_high_contrast_thin_profile_matches_mpmath():
    # 100 layers 1.99 r_c high, densities 1 and 1e-6, the dense ones about a
    # hundredth as thick as the light ones between them, widths jittered so
    # no cell repeats.  The dense series pair sum was off 50-digit mpmath by
    # 3.5e-12 in A and 1.8e-11 in B; the moment series by 1.0e-14 and 3.7e-14
    rng = np.random.default_rng(3)
    t = np.where(np.arange(100) % 2 == 0, 0.01, 1.0) * rng.uniform(0.5, 1.0, 100)
    t, rho = (t * 1.99 / t.sum()).tolist(), [1.0, 1e-6] * 50
    assert _cell(t, rho) == len(t)
    with mp.workdps(50):
        _assert_ab_match(t, rho, _profile_ab_mp(t, rho))


def test_spec_cap_thin_profile_is_fast():
    # 20,000 layers (core.MAX_PAIRS pairs) 1.5 r_c high, aperiodic: the
    # moment series is O(layers), about 10 ms; the dense series sum took 36 s.
    # Reversed, the stack is the same body (they agree to 4.2e-15 here)
    rng = np.random.default_rng(8)
    t = rng.uniform(0.2, 1.0, 20_000)
    t, rho = (t * 1.5 / t.sum()).tolist(), rng.uniform(100.0, 2e4, 20_000).tolist()
    start = time.perf_counter()
    ab = _profile_ab(t, rho)
    assert time.perf_counter() - start < 1.0
    _assert_ab_match(t[::-1], rho[::-1], ab)


def _thin_profile(data, max_layers=300, height=None):
    """Widths over 3 decades and densities over 6, drawn independently, up
    to 2 r_c high unless `height` is given."""
    layers = data.draw(st.integers(2, max_layers))
    if height is None:
        height = data.draw(st.one_of(st.floats(-6.0, math.log10(2.0)).map(lambda e: 10.0**e),
                                     st.just(math.nextafter(2.0, 0.0))))
    t = np.array(data.draw(st.lists(st.floats(-3.0, 0.0), min_size=layers, max_size=layers)))
    t = 10.0**t * height / (10.0**t).sum()
    rho = data.draw(st.lists(st.floats(-6.0, 0.0), min_size=layers, max_size=layers))
    return t.tolist(), [2e4 * 10.0**e for e in rho]


def _thin(t, copies=1):
    """Whether _profile_ab takes `copies` copies of the layers t as thin:
    their summed edges stay under 2 r_c."""
    return float(np.cumsum(t)[-1]) * copies < 2.0


# one thin body written two ways gets one A and B, to the error a payload
# claims.  These pairs hold the thin route: a draw whose edges sum to 2.0
# in either order (heights of nextafter(2, 0)) takes the direct dense sum
# and is not drawn again.  Stacks of thin dense sheets between much thicker
# light layers lose more than that error on the moment route (CHANGES.md)
@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_thin_profile_reversed_or_split_keeps_ab(data):
    t, rho = _thin_profile(data)
    k = data.draw(st.integers(0, len(t) - 1))
    split = t[:k] + [0.5 * t[k]] * 2 + t[k + 1 :]
    assume(_thin(t) and _thin(t[::-1]) and _thin(split))
    ab = _profile_ab(t, rho)
    _assert_ab_match(t[::-1], rho[::-1], ab)
    _assert_ab_match(split, rho[:k] + [rho[k]] * 2 + rho[k + 1 :], ab)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_thin_fold_and_nudged_copy_keep_ab(data):
    # a periodic thin stack folds into lag sums; one layer 1 ulp thicker
    # breaks the period and takes the moment series at one copy, forwards
    # and reversed
    t, rho = _thin_profile(data, max_layers=4)
    copies = data.draw(st.integers(-(-_FOLD_MIN // len(t)), 250))
    cell = [w / copies for w in t]
    t, rho = cell * copies, rho * copies
    assert _cell(t, rho) < len(t)
    nudged = list(t)
    k = data.draw(st.integers(0, len(t) - 1))
    nudged[k] = math.nextafter(nudged[k], math.inf)
    assume(_thin(cell, copies) and _thin(nudged) and _thin(nudged[::-1]))
    assert _cell(nudged, rho) == len(t)
    ab = _profile_ab(t, rho)
    _assert_ab_match(nudged, rho, ab)
    _assert_ab_match(nudged[::-1], rho[::-1], ab)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_stack_on_either_side_of_2_rc_keeps_ab(data):
    # one aperiodic profile whose last layer ends at 2 r_c (the direct dense
    # sum) or 1 ulp short of it (the moment series)
    t, rho = _thin_profile(data, max_layers=100, height=2.0)
    below = list(t)
    t[-1] = 2.0 - float(np.cumsum(t)[-2])
    below[-1] = math.nextafter(2.0, 0.0) - float(np.cumsum(t)[-2])
    assume(np.cumsum(t)[-1] == 2.0 and np.cumsum(below)[-1] == math.nextafter(2.0, 0.0))
    assume(_cell(t, rho) == len(t))
    _assert_ab_match(below, rho, _profile_ab(t, rho))


@pytest.mark.parametrize("extent", [1e-6, 1e5])
def test_extremes_match_quadrature(extent):
    # long axes only where needed: the oracle's panel count grows with extent
    layers = (Layer(DENSE, 0.5 * extent), Layer(LIGHT, 0.5 * extent))
    for model in (
        Cuboid(extent, 1.0, 0.5, DENSE),
        Sphere(0.5 * extent, DENSE),
        Cylinder(0.5 * extent, 1.0, DENSE),
        LayeredStack(1.0, 0.5, layers),
    ):
        i3, _ = i3_quadrature(model, 1.0, ORACLE_QUAD)
        got = heating_report(model, CslParams(1.0, 1.0), QUAD).reduction_factor
        assert got == pytest.approx(i3 / I3_FREE, rel=1e-11, abs=0), type(model).__name__


_length = st.floats(1e-3, 30.0)
_density = st.floats(100.0, 2e4)
_material = _density.map(lambda rho: Material("m", rho))
_offset = st.tuples(*[st.floats(-5.0, 5.0)] * 3)
_bodies_st = st.one_of(
    st.builds(PointMass, st.floats(1e-12, 1.0), _offset, _offset),
    st.builds(Cuboid, _length, _length, _length, _material, _offset),
    st.builds(Sphere, _length, _material, _offset),
    st.builds(Cylinder, _length, _length, _material, _offset),
    st.builds(
        LayeredStack,
        _length,
        _length,
        st.lists(st.builds(Layer, _material, st.floats(1e-3, 5.0)), min_size=1, max_size=8)
        .map(tuple),
        _offset,
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=_bodies_st, r_c=st.floats(0.5, 2.0))
def test_closed_form_matches_quadrature_oracle(model, r_c):
    i3, _ = i3_quadrature(model, r_c, ORACLE_QUAD)
    got = heating_report(model, CslParams(1.0, r_c), QUAD).reduction_factor
    assert got == pytest.approx(i3 / I3_FREE, rel=1e-11, abs=0)


# route crossings: one body written two ways, or put on either side of a
# switch, gets one rate to the error a payload claims
def _reduction(model, r_c=1.0):
    return heating_report(model, CslParams(1.0, r_c), QUAD).reduction_factor


def _assert_same_rate(got, want):
    assert abs(got - want) <= REL_ERROR * want


_log_length = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sides=st.tuples(_log_length, _log_length, _log_length), material=_material,
       offset=_offset)
def test_cuboid_as_one_layer_stack_keeps_gamma_cm(sides, material, offset):
    lx, ly, lz = sides
    csl = CslParams(1.0, 1.0)
    cuboid = heating_report(Cuboid(lx, ly, lz, material, offset), csl, QUAD)
    stack = heating_report(LayeredStack(lx, ly, (Layer(material, lz),), offset), csl, QUAD)
    _assert_same_rate(stack.gamma_cm, cuboid.gamma_cm)


def _scaled(model, factor):
    """The model with every length times `factor`."""
    lengths = {name: getattr(model, name) * factor
               for name in set(model.extent_fields) - {"layers"}}
    if isinstance(model, LayeredStack):
        lengths["layers"] = tuple(dataclasses.replace(layer, thickness=layer.thickness * factor)
                                  for layer in model.layers)
    return dataclasses.replace(model, offset=tuple(x * factor for x in model.offset), **lengths)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=_bodies_st, factor=_log_length)
def test_scaled_body_keeps_its_reduction(model, factor):
    # every length and r_c times one factor: extent / r_c moves by rounding
    # alone, which can put it on the other side of a series switch
    _assert_same_rate(_reduction(_scaled(model, factor), factor), _reduction(model))


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(exponent=st.integers(-30, 30), height=_log_length, material=_material)
def test_disc_and_ball_keep_their_reduction_across_the_series_switch(exponent, height,
                                                                      material):
    # radius / r_c is 1 ulp under 1 (series) and 1 (direct) exactly, as
    # r_c is a power of 2
    r_c = 2.0**exponent
    below, at = math.nextafter(1.0, 0.0) * r_c, r_c
    for body in (lambda r: Sphere(r, material), lambda r: Cylinder(r, height * r_c, material)):
        _assert_same_rate(_reduction(body(below), r_c), _reduction(body(at), r_c))


def test_production_paths_never_reach_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive_gk called on a production path")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "cslheat" and hasattr(mod, "adaptive_gk"):
            monkeypatch.setattr(mod, "adaptive_gk", refuse)
    r_c = 1e-7
    csl = CslParams(1e-16, r_c)
    models = _bodies(30 * r_c, np.random.default_rng(3))
    for model in models:
        heating_report(model, csl, QUAD)
        scan_rc(model, [0.5 * r_c, r_c, 2 * r_c], QUAD, observed_power=1e-30)
        lambda_bound(1e-30, model, r_c, QUAD)
    optimize_layers(1e-12, (DENSE, LIGHT), (1e-5, 1e-5), range(1, 5), csl, QUAD)
    designs = [design_stack(1e-12, DENSE, LIGHT, 1e-5, 1e-5, n) for n in (1, 8)]
    discriminability_report(designs, csl, ThermalModel(1e-3, 0.1), QUAD)
