"""Kernel accuracy against high-precision reference values.

Reference values were generated offline with mpmath at 40 digits; they
bracket each branch switch so accuracy across the switch is pinned.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from cslheat import special
from cslheat.special import _horner, _pair_sums, _profile_ab
from cslheat.special import sinc, sphere_form_kernel, two_j1_over_x

# x, 2*J1(x)/x to 22 digits (mpmath)
J1_REFS = [
    (1e-8, 0.9999999999999999875),
    (5e-5, 0.9999999996875000000326),
    (9.9e-5, 0.9999999987748750005003),
    (1.0e-4, 0.9999999987500000005208),
    (1.01e-4, 0.999999998724875000542),
    (2e-4, 0.9999999950000000083333),
    (1e-3, 0.9999998750000052083332),
    (1e-2, 0.9999875000520832248265),
    (0.1, 0.9987505207248399511267),
    (0.5, 0.9690738306994955455358),
    (1.0, 0.8801011714898670319194),
    (2.0, 0.5767248077568733872024),
    (5.0, -0.1310316550365860888151),
    (10.0, 0.00869454923377228733395),
    (35.0, 0.002513768124550036569697),
    (120.0, -0.0001967535238833648519422),
]

# x, sin(x)/x
SINC_REFS = [
    (1e-9, 0.9999999999999999998333),
    (9.9e-5, 0.9999999983665000008005),
    (1.0e-4, 0.9999999983333333341667),
    (1.01e-4, 0.9999999982998333342005),
    (0.5, 0.9588510772084060005466),
    (3.0, 0.04704000268662240736691),
    (50.0, -0.005247497074078575718288),
]

# x, 3(sin x - x cos x)/x^3
SPHERE_REFS = [
    (1e-9, 0.9999999999999999999),
    (9.9e-5, 0.9999999990199000003431),
    (1.0e-4, 0.9999999990000000003571),
    (0.3, 0.9910288804064188014031),
    (0.999, 0.9036920624195964153069),
    (1.0, 0.9035060368192703677547),
    (1.001, 0.9033198521335368989708),
    (2.0, 0.6530966624699874260217),
    (30.0, -0.0006239527911911537012831),
]


# scipy's J1 is accurate to about 4e-16 absolute; at x = 120, where 2 J1(x)/x
# is 2e-4, that leaves 7.3e-18 absolute, 3.7e-14 relative
J1_ABS_TOL = {120.0: 1e-17}


@pytest.mark.parametrize("x,expected", J1_REFS)
def test_two_j1_over_x_reference(x, expected):
    tol = J1_ABS_TOL.get(x, 0)
    assert two_j1_over_x(x) == pytest.approx(expected, rel=1e-14, abs=tol)


@pytest.mark.parametrize("x,expected", SINC_REFS)
def test_sinc_reference(x, expected):
    assert sinc(x) == pytest.approx(expected, rel=1e-14, abs=0)


@pytest.mark.parametrize("x,expected", SPHERE_REFS)
def test_sphere_kernel_reference(x, expected):
    assert sphere_form_kernel(x) == pytest.approx(expected, rel=1e-14, abs=0)


@pytest.mark.parametrize("func", [sinc, sphere_form_kernel, two_j1_over_x])
def test_value_at_zero_is_one(func):
    assert func(0.0) == 1.0


@pytest.mark.parametrize("func", [sinc, sphere_form_kernel, two_j1_over_x])
def test_even_functions(func):
    x = np.array([1e-6, 1e-3, 0.7, 4.2])
    np.testing.assert_array_equal(func(x), func(-x))


def test_vectorized_matches_scalar():
    x = np.array([0.0, 5e-5, 2e-4, 0.3, 1.5, 12.0])
    for func in (sinc, sphere_form_kernel, two_j1_over_x):
        vec = func(x)
        assert vec.shape == x.shape
        for xi, vi in zip(x, vec):
            assert func(float(xi)) == vi


def test_j1_zero():
    # first zero of J1 at 3.8317059702075123 (mpmath besseljzero)
    assert abs(two_j1_over_x(3.8317059702075123)) < 1e-15


def test_sphere_kernel_zero_at_tan_root():
    # the kernel vanishes where tan x = x; root found independently
    root = brentq(lambda x: np.tan(x) - x, 4.3, 4.6, xtol=1e-14)
    assert root == pytest.approx(4.493409457909064, rel=1e-12, abs=0)
    assert abs(sphere_form_kernel(root)) < 1e-15


def _mp_reference(name, x):
    # 650 digits: the sphere kernel's direct form cancels ~2 log10(1/x) of them
    with mpmath.workdps(650):
        x = mpmath.mpf(x)
        if name == "sinc":
            value = mpmath.sin(x) / x
        elif name == "two_j1_over_x":
            value = 2 * mpmath.besselj(1, x) / x
        else:
            value = 3 * (mpmath.sin(x) - x * mpmath.cos(x)) / x**3
        return float(value)


# both sides of the 1e-8 unit cut of sinc and 2 J1(x)/x, of their former
# 1e-4 series switch, and of the sphere kernel's series switch at 1; a cut
# at 1e-6 would be off by 1.6e-13 at 9.9e-7, and the sphere kernel's direct
# form by 7e-14 at 0.1
SWITCH_POINTS = [
    1e-300, 9.9e-9, 1e-8, 1.01e-8, 9.9e-7, 1e-5, 5e-5, 9.99e-5, 1e-4,
    1.001e-4, 3e-4, 0.01, 0.1, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0,
]


@pytest.mark.parametrize("x", SWITCH_POINTS)
@pytest.mark.parametrize("func", [sinc, sphere_form_kernel, two_j1_over_x],
                         ids=lambda f: f.__name__)
def test_one_branch_kernels_match_mpmath(func, x):
    want = _mp_reference(func.__name__, x)
    assert func(x) == pytest.approx(want, rel=1e-14, abs=0)
    assert func(np.array([x, -x]))[1] == func(x)


def test_subnormal_arguments_give_one():
    x = np.array([5e-324, -1e-310, 2e-308])
    for func in (sinc, sphere_form_kernel, two_j1_over_x):
        np.testing.assert_array_equal(func(x), 1.0)


@pytest.mark.parametrize("func", [sinc, sphere_form_kernel, two_j1_over_x])
def test_nan_stays_nan(func):
    assert np.isnan(func(float("nan")))
    assert np.isnan(func(np.array([0.0, np.nan, 1e-9]))).tolist() == [False, True, False]


# about 10^4 log-spread widths in r_c, and both sides of the series switch
ONE_LAYER_WIDTHS = np.concatenate([np.logspace(-6, 5, 10_001),
                                   [2.0, np.nextafter(2.0, 0.0)]]).tolist()


def test_one_layer_line_matches_pair_sums_bit_for_bit():
    # the scalar closed form against the dense route over the two-edge
    # profile z = (0, w), c = (1, -1), normalized as _profile_ab does
    z, c = np.zeros(2), np.array([1.0, -1.0])
    rt_pi, branches = math.sqrt(math.pi), set()
    for w in ONE_LAYER_WIDTHS:
        series = w < 2.0
        z[1] = w
        sum_a, sum_b = _pair_sums(z, c, series)
        sum_a, sum_b = sum_a / w / w, sum_b / w / w
        want = ((rt_pi * (1.0 - sum_a), rt_pi * (0.5 + sum_b)) if series
                else (-rt_pi * sum_a, rt_pi * sum_b))
        got = _profile_ab([w], [2329.0])
        assert [v.hex() for v in got] == [v.hex() for v in want], w
        assert all(type(v) is float for v in got)
        branches.add(series)
    assert branches == {False, True}


COEFFICIENT_TABLES = ["_SPHERE_COEF", "_PHI_SERIES", "_G_SERIES", "_A_PERP_SERIES",
                      "_B_PERP_SERIES", "_BALL_SERIES"]


@pytest.mark.parametrize("table", COEFFICIENT_TABLES)
def test_horner_matches_polyval_bit_for_bit(table):
    coef = getattr(special, table)
    x = np.concatenate([np.linspace(-4.0, 4.0, 2001), [0.0, -0.0, 1e-300, 5e-324]])
    want = np.polynomial.polynomial.polyval(x, coef)
    np.testing.assert_array_equal(_horner(x, coef), want)
    for xi, wi in zip(x.tolist(), want.tolist()):
        got = _horner(xi, coef)
        assert type(got) is float and got.hex() == wi.hex()
