"""Adaptive Gauss-Kronrod engine against analytic Gaussian integrals.

The closed forms below are exact:

    int_R exp(-u^2) sinc^2(a u) du
        = pi [2a erf(a) + (2/sqrt(pi)) (exp(-a^2) - 1)] / (2 a^2)
    int_R exp(-u^2) u^2 sinc^2(a u) du
        = sqrt(pi) (1 - exp(-a^2)) / (2 a^2)

and stress exactly the regime the engine must handle: for large a the
integrand oscillates a/pi times per unit, where naive fixed-order rules
(and scipy.integrate.quad without breakpoints) silently underresolve.
"""

from math import erf, exp, pi, sqrt

import numpy as np
import pytest

from cslheat.quadrature import QuadratureNotConverged, adaptive_gk
from cslheat.special import sinc


def a_analytic(a):
    return pi * (2 * a * erf(a) + (2 / sqrt(pi)) * (exp(-a * a) - 1.0)) / (2 * a * a)


def b_analytic(a):
    return sqrt(pi) * (1 - exp(-a * a)) / (2 * a * a)


def test_gaussian_moment():
    # int_0^inf u^2 e^{-u^2} = sqrt(pi)/4; truncation at 8 is ~1e-28
    res = adaptive_gk(lambda u: u * u * np.exp(-u * u), 0.0, 8.0, 1e-12)
    assert res.value == pytest.approx(sqrt(pi) / 4.0, rel=1e-13, abs=0)
    assert res.error <= 1e-12 * res.value


def test_quartic_gaussian_moment():
    # int_0^inf u^4 e^{-u^2} = 3 sqrt(pi)/8
    res = adaptive_gk(lambda u: u**4 * np.exp(-u * u), 0.0, 8.0, 1e-12)
    assert res.value == pytest.approx(3.0 * sqrt(pi) / 8.0, rel=1e-13, abs=0)


@pytest.mark.parametrize("a", [0.05, 1.0, 7.3, 50.0, 5000.0])
def test_oscillatory_sinc_squared(a):
    panel = pi / (2.0 * a)  # half the sin^2 period in u
    res_a = adaptive_gk(
        lambda u: np.exp(-u * u) * sinc(a * u) ** 2, 0.0, 8.0, 1e-9,
        max_panel_width=panel,
    )
    res_b = adaptive_gk(
        lambda u: np.exp(-u * u) * (u * sinc(a * u)) ** 2, 0.0, 8.0, 1e-9,
        max_panel_width=panel,
    )
    assert 2.0 * res_a.value == pytest.approx(a_analytic(a), rel=1e-9, abs=0)
    assert 2.0 * res_b.value == pytest.approx(b_analytic(a), rel=1e-9, abs=0)


def test_oscillation_hint_is_needed():
    # without the panel hint the first coarse grid aliases the oscillation;
    # the engine must either refine its way out or report failure, never
    # return a confidently wrong answer
    a = 5000.0
    try:
        res = adaptive_gk(
            lambda u: np.exp(-u * u) * sinc(a * u) ** 2, 0.0, 8.0, 1e-9
        )
        assert 2.0 * res.value == pytest.approx(a_analytic(a), rel=100 * 1e-9, abs=0)
    except QuadratureNotConverged:
        pass


def test_error_estimate_is_honest():
    for a in (1.0, 50.0, 5000.0):
        res = adaptive_gk(
            lambda u: np.exp(-u * u) * sinc(a * u) ** 2, 0.0, 8.0, 1e-9,
            max_panel_width=pi / (2 * a),
        )
        true_err = abs(2.0 * res.value - a_analytic(a))
        assert true_err <= max(2.0 * res.error, 1e-12 * a_analytic(a))


def test_not_converged_carries_partial_value():
    # a needle the refinement budget cannot resolve
    def needle(u):
        return 1.0 / ((u - 0.31830988618) ** 2 + 1e-22)

    with pytest.raises(QuadratureNotConverged) as info:
        adaptive_gk(needle, 0.0, 1.0, 1e-9, max_refinements=2, max_panels=64)
    assert info.value.value > 0.0
    assert info.value.error > 0.0


def test_invalid_interval():
    with pytest.raises(ValueError):
        adaptive_gk(lambda u: u, 1.0, 0.0)


def test_partition_independence():
    # fsum accumulation: identical totals regardless of the initial split
    f = lambda u: np.exp(-u * u) * sinc(7.0 * u) ** 2
    r1 = adaptive_gk(f, 0.0, 8.0, 1e-12, max_panel_width=pi / 14.0)
    r2 = adaptive_gk(f, 0.0, 8.0, 1e-12, max_panel_width=pi / 14.0 / 4.0)
    assert r1.value == pytest.approx(r2.value, rel=5e-13, abs=0)
