"""Independent reference values for the benchmark's output checks.

Nothing here imports cslheat.  Bodies are the plain dicts of the spec
format (``{"type": "cuboid", "lx": ..., "material": {...}}``), so the
reference reads the same inputs the program is given and nothing else.

The rates follow from the continuum limit of the pairwise-Gaussian
lattice sum: the reduction factor gamma_cm / gamma_total is
E_pairs[(1 - D^2/6) exp(-D^2/4)] with D = |x - x'| / r_c, which gives
polynomial-times-Gaussian integrals with closed forms:

* cuboid, per axis, a = l / (2 r_c):
  A = pi/(2a^2) (2a erf a - (2/sqrt(pi)) (1 - e^{-a^2})),
  B = sqrt(pi) (1 - e^{-a^2}) / (2a^2);
* layered stack, z axis, layers [a_j, b_j] in r_c units, areal density
  sigma: A = (sqrt(pi)/sigma^2) sum_jl rho_j rho_l Delta(Phi),
  B = -(sqrt(pi)/sigma^2) sum_jl rho_j rho_l Delta(g), with
  Phi(x) = sqrt(pi) x erf(x/2) + 2 e^{-x^2/4}, g(x) = e^{-x^2/4} and
  Delta f = f(b_j-a_l) - f(a_j-a_l) - f(b_j-b_l) + f(a_j-b_l);
* cylinder: transverse, x = s^2/2 with s = R/r_c,
  A = (2/s^2)(1 - ive(0,x) - ive(1,x)), B = (2/s^2) ive(1,x), times the
  cuboid axial form, I3 = 2 pi (B_perp A_z + A_perp B_z);
* sphere: the ball pair-distance density
  3r^2/R^3 - 9r^3/(4R^4) + 3r^5/(16R^6) against the kernel, by
  scipy.integrate.quad;
* point: 1.

For separable bodies I3 = sum_i B_i prod_{j != i} A_j, and the reduction
factor is I3 / ((3/2) pi^(3/2)).  The cuboid, cylinder and stack forms
cancel at small argument, so below a switch they are evaluated with
mpmath at MP_DPS digits; ``selfcheck.py`` compares both sides of every
switch with an all-mpmath evaluation.
"""

from __future__ import annotations

import cmath
import math
import warnings

import mpmath
import numpy as np
from scipy import integrate, special

# CODATA-2018, written out here rather than read from the program
HBAR = 1.054571817e-34  # J s
M_NUCLEON = 1.67262192369e-27  # kg, proton mass as the nucleon reference
K_BOLTZMANN = 1.380649e-23  # J/K

BUILTIN_DENSITY = {
    "silicon": 2329.0,
    "silica": 2200.0,
    "sapphire": 3980.0,
    "aluminum": 2700.0,
    "copper": 8960.0,
    "niobium": 8570.0,
    "tungsten": 19300.0,
    "gold": 19320.0,
}

RT_PI = math.sqrt(math.pi)
I3_FREE = 1.5 * math.pi**1.5

# Below these arguments the double-precision forms lose more than ~1e-13
# relative to cancellation, so the reference switches to mpmath.
BOX_SWITCH = 0.05  # a = l / (2 r_c)
DISC_SWITCH = 0.3  # s = R / r_c
STACK_SWITCH = 0.5  # stack height / r_c
MP_DPS = 40

# rows of the stack double sum evaluated at once; keeps the reference's
# own memory far below the program's
_STACK_CHUNK = 50_000


def density(material) -> float:
    if isinstance(material, str):
        return BUILTIN_DENSITY[material]
    return float(material["density"])


def total_mass(body: dict) -> float:
    kind = body["type"]
    if kind == "point":
        return float(body["mass"])
    if kind == "cuboid":
        return density(body["material"]) * body["lx"] * body["ly"] * body["lz"]
    if kind == "sphere":
        return density(body["material"]) * 4.0 / 3.0 * math.pi * body["radius"] ** 3
    if kind == "cylinder":
        return density(body["material"]) * math.pi * body["radius"] ** 2 * body["height"]
    if kind == "layered_stack":
        areal = math.fsum(density(l["material"]) * l["thickness"] for l in body["layers"])
        return areal * body["lx"] * body["ly"]
    raise ValueError(f"unknown body type {kind!r}")


def gamma_total(mass: float, lam: float, r_c: float) -> float:
    """(3/4) hbar^2 lambda M / (m_N^2 r_c^2) [W]."""
    return 0.75 * HBAR * HBAR * lam * mass / (M_NUCLEON * M_NUCLEON) / (r_c * r_c)


# ---------------------------------------------------------------- cuboid axis


def box_ab(a: float) -> tuple[float, float]:
    """(A, B) of one uniform axis of half-width a (in r_c units)."""
    if a < BOX_SWITCH:
        return box_ab_mp(a)
    em = 1.0 - math.exp(-a * a)
    a_val = math.pi / (2.0 * a * a) * (2.0 * a * math.erf(a) - 2.0 / RT_PI * em)
    b_val = RT_PI * em / (2.0 * a * a)
    return a_val, b_val


def box_ab_mp(a: float) -> tuple[float, float]:
    with mpmath.workdps(MP_DPS):
        a = mpmath.mpf(a)
        em = 1 - mpmath.exp(-a * a)
        a_val = mpmath.pi / (2 * a * a) * (2 * a * mpmath.erf(a) - 2 / mpmath.sqrt(mpmath.pi) * em)
        b_val = mpmath.sqrt(mpmath.pi) * em / (2 * a * a)
        return float(a_val), float(b_val)


# ---------------------------------------------------------------- disc


def disc_ab(s: float) -> tuple[float, float]:
    """(A_perp, B_perp) of a uniform disc of radius s (in r_c units)."""
    if s < DISC_SWITCH:
        return disc_ab_mp(s)
    x = 0.5 * s * s
    i0, i1 = special.ive(0, x), special.ive(1, x)
    return float(2.0 / (s * s) * (1.0 - i0 - i1)), float(2.0 / (s * s) * i1)


def disc_ab_mp(s: float) -> tuple[float, float]:
    with mpmath.workdps(MP_DPS):
        s = mpmath.mpf(s)
        x = s * s / 2
        scale = mpmath.exp(-x)
        i0 = scale * mpmath.besseli(0, x)
        i1 = scale * mpmath.besseli(1, x)
        return float(2 / (s * s) * (1 - i0 - i1)), float(2 / (s * s) * i1)


# ---------------------------------------------------------------- stack axis


def _layer_edges(layers, r_c: float):
    rho = np.array([density(l["material"]) for l in layers])
    t = np.array([l["thickness"] for l in layers]) / r_c
    upper = np.cumsum(t)
    return rho, upper - t, upper


def stack_ab(layers, r_c: float) -> tuple[float, float]:
    """(A_z, B_z) of a bottom-to-top list of uniform layers."""
    rho, lo, hi = _layer_edges(layers, r_c)
    if hi[-1] < STACK_SWITCH:
        return stack_ab_mp(layers, r_c)

    def phi(x):
        return RT_PI * x * special.erf(0.5 * x) + 2.0 * np.exp(-0.25 * x * x)

    def g(x):
        return np.exp(-0.25 * x * x)

    sum_phi, sum_g = [], []
    rows = max(1, _STACK_CHUNK // len(rho))
    for i in range(0, len(rho), rows):
        a_j, b_j = lo[i:i + rows, None], hi[i:i + rows, None]
        w = rho[i:i + rows, None] * rho[None, :]
        args = (b_j - lo, a_j - lo, b_j - hi, a_j - hi)
        for f, out in ((phi, sum_phi), (g, sum_g)):
            v = f(args[0]) - f(args[1]) - f(args[2]) + f(args[3])
            out.append(math.fsum((w * v).ravel()))
    sigma = math.fsum(rho * (hi - lo))
    return (RT_PI / sigma**2 * math.fsum(sum_phi),
            -RT_PI / sigma**2 * math.fsum(sum_g))


def stack_ab_mp(layers, r_c: float) -> tuple[float, float]:
    with mpmath.workdps(MP_DPS):
        rho = [mpmath.mpf(density(l["material"])) for l in layers]
        t = [mpmath.mpf(l["thickness"]) / mpmath.mpf(r_c) for l in layers]
        lo, hi, z = [], [], mpmath.mpf(0)
        for ti in t:
            lo.append(z)
            z += ti
            hi.append(z)
        rt_pi = mpmath.sqrt(mpmath.pi)

        def phi(x):
            return rt_pi * x * mpmath.erf(x / 2) + 2 * mpmath.exp(-x * x / 4)

        def g(x):
            return mpmath.exp(-x * x / 4)

        s_phi = s_g = mpmath.mpf(0)
        for j in range(len(rho)):
            for l in range(len(rho)):
                w = rho[j] * rho[l]
                args = (hi[j] - lo[l], lo[j] - lo[l], hi[j] - hi[l], lo[j] - hi[l])
                s_phi += w * (phi(args[0]) - phi(args[1]) - phi(args[2]) + phi(args[3]))
                s_g += w * (g(args[0]) - g(args[1]) - g(args[2]) + g(args[3]))
        sigma = mpmath.fsum(r * ti for r, ti in zip(rho, t))
        return float(rt_pi / sigma**2 * s_phi), float(-rt_pi / sigma**2 * s_g)


# ---------------------------------------------------------------- ball


def ball_reduction(s: float) -> float:
    """E_pairs[(1 - D^2/6) e^{-D^2/4}] over a ball of radius s (r_c units)."""

    def integrand(r):
        p = 3.0 * r * r / s**3 - 9.0 * r**3 / (4.0 * s**4) + 3.0 * r**5 / (16.0 * s**6)
        return p * (1.0 - r * r / 6.0) * math.exp(-0.25 * r * r)

    # the kernel is below 1e-300 beyond D = 55; quad warns that it cannot
    # reach 1e-13 on the tiny tail, which selfcheck.py bounds at 1e-12
    upper = min(2.0 * s, 55.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(integrand, 0.0, upper, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


# ---------------------------------------------------------------- bodies


def separable_reduction(ab) -> float:
    (ax, bx), (ay, by), (az, bz) = ab
    return (bx * ay * az + ax * by * az + ax * ay * bz) / I3_FREE


def reduction(body: dict, r_c: float) -> float:
    """gamma_cm / gamma_total of the body at correlation length r_c."""
    kind = body["type"]
    if kind == "point":
        return 1.0
    if kind == "cuboid":
        return separable_reduction([box_ab(body[k] / (2.0 * r_c)) for k in ("lx", "ly", "lz")])
    if kind == "layered_stack":
        return separable_reduction([
            box_ab(body["lx"] / (2.0 * r_c)),
            box_ab(body["ly"] / (2.0 * r_c)),
            stack_ab(body["layers"], r_c),
        ])
    if kind == "cylinder":
        a_p, b_p = disc_ab(body["radius"] / r_c)
        a_z, b_z = box_ab(body["height"] / (2.0 * r_c))
        return 2.0 * math.pi * (b_p * a_z + a_p * b_z) / I3_FREE
    if kind == "sphere":
        return ball_reduction(body["radius"] / r_c)
    raise ValueError(f"unknown body type {kind!r}")


def rates(body: dict, lam: float, r_c: float) -> dict:
    """gamma_total, gamma_cm and the reduction factor of the body."""
    red = reduction(body, r_c)
    gt = gamma_total(total_mass(body), lam, r_c)
    return {"gamma_total": gt, "gamma_cm": red * gt, "reduction_factor": red}


# ---------------------------------------------------------------- form factor


def _sinc(x):
    # numpy's sinc is the normalized sin(pi x)/(pi x)
    return np.sinc(np.asarray(x, dtype=float) / math.pi)


def form_factor(body: dict, k) -> np.ndarray:
    """Normalized form factor mu(k)/M at wavevectors k of shape (n, 3) [1/m]."""
    k = np.asarray(k, dtype=float)
    kx, ky, kz = k[:, 0], k[:, 1], k[:, 2]
    kind = body["type"]
    if kind == "point":
        pos = np.asarray(body.get("position", [0.0, 0.0, 0.0]), dtype=float)
        f = np.exp(-1j * (k @ pos)).astype(complex)
    elif kind == "cuboid":
        f = _sinc(0.5 * kx * body["lx"]) * _sinc(0.5 * ky * body["ly"]) * _sinc(0.5 * kz * body["lz"])
    elif kind == "sphere":
        x = np.sqrt(kx * kx + ky * ky + kz * kz) * body["radius"]
        safe = np.where(x > 0, x, 1.0)
        f = np.where(x > 0, 3.0 * special.spherical_jn(1, safe) / safe, 1.0)
    elif kind == "cylinder":
        x = np.hypot(kx, ky) * body["radius"]
        safe = np.where(x > 0, x, 1.0)
        f = np.where(x > 0, 2.0 * special.j1(safe) / safe, 1.0) * _sinc(0.5 * kz * body["height"])
    elif kind == "layered_stack":
        f = _sinc(0.5 * kx * body["lx"]) * _sinc(0.5 * ky * body["ly"]) * _stack_z_factor(body["layers"], kz)
    else:
        raise ValueError(f"unknown body type {kind!r}")
    off = np.asarray(body.get("offset", [0.0, 0.0, 0.0]), dtype=float)
    return f * np.exp(-1j * (k @ off))


def _stack_z_factor(layers, kz) -> np.ndarray:
    """(1/sigma) sum_j rho_j integral_{a_j}^{b_j} e^{-i kz z} dz, z centred."""
    height = math.fsum(l["thickness"] for l in layers)
    sigma = math.fsum(density(l["material"]) * l["thickness"] for l in layers)
    out = []
    for q in kz:
        z, total = -0.5 * height, 0j
        for layer in layers:
            rho, t = density(layer["material"]), layer["thickness"]
            if q == 0.0:
                total += rho * t
            else:
                total += rho * (cmath.exp(-1j * q * z) - cmath.exp(-1j * q * (z + t))) / (1j * q)
            z += t
        out.append(total / sigma)
    return np.asarray(out)
