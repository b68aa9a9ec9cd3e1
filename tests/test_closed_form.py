"""Closed-form shape integrals against mpmath and the quadrature oracle.

The mpmath references evaluate the same closed forms at 60 digits, where
no cancellation matters, on both sides of every series/direct switch
(extent 2 r_c for all three: profile width 2, sphere and disc radius 1).
The quadrature oracle (conftest.i3_quadrature) integrates the analytic
form factors instead and so checks the forms themselves.
"""

import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
)
from cslheat.heating import I3_FREE, REL_ERROR
from cslheat.special import _profile_ab
from conftest import i3_quadrature

QUAD = QuadratureSpec()
ORACLE_QUAD = QuadratureSpec(rel_tol=1e-12)
DENSE = Material("dense", 2500.0)
LIGHT = Material("light", 250.0)
EXTENTS = [1e-6, 1e-3, 0.3, 2.0 * (1 - 1e-6), 2.0 * (1 + 1e-6), 30.0, 1e3, 1e5]
DPS = 60


def _profile_ab_mp(widths, densities):
    """A and B of a layered 1D profile by the pair-of-jumps sum, in mpmath.

    Pairs at the same distance share one kernel evaluation, so periodic
    stacks of hundreds of layers stay cheap.
    """
    t = [mp.mpf(float(w)) for w in widths]
    rho = [mp.mpf(float(r)) for r in densities]
    z = [mp.mpf(0)]
    for w in t:
        z.append(z[-1] + w)
    c = [rho[0]] + [rho[i + 1] - rho[i] for i in range(len(rho) - 1)] + [-rho[-1]]
    weight = {}
    for p in range(len(z)):
        for q in range(p, len(z)):
            d = z[q] - z[p]
            weight[d] = weight.get(d, 0) + (1 if p == q else 2) * c[p] * c[q]
    rt_pi = mp.sqrt(mp.pi)
    sum_a = mp.fsum(
        w * (rt_pi * d * mp.erf(d / 2) + 2 * mp.exp(-d * d / 4)) for d, w in weight.items()
    )
    sum_b = mp.fsum(w * mp.exp(-d * d / 4) for d, w in weight.items())
    sigma = mp.fsum(r * w for r, w in zip(rho, t))
    return -rt_pi * sum_a / sigma**2, rt_pi * sum_b / sigma**2


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
