"""Checks of the benchmark's own reference and output checks.

    python3 perfbench/selfcheck.py          # from the repository root

1. Every closed form in reference.py is compared, on both sides of its
   mpmath switch and at a few larger and much smaller arguments, with
   mpmath quadrature of the integral it stands for (30 digits).  They
   must agree to 1e-12 relative.
2. Every workload is built with a reference whose values are perturbed
   by 1e-6 relative, first all of them, then only the shape-dependent
   ones; running the round's ops must then fail a check, as ``run.py``
   would (it exits 1 on a failed check).

Exits 0 when both hold.
"""

from __future__ import annotations

import sys

import mpmath

import reference as ref

AGREE = 1e-12
PERTURB = 1e-6
SIDES = (1 - 1e-3, 1 + 1e-3)


def _rel(got: float, want) -> float:
    return abs(got - float(want)) / abs(float(want))


def _inf_quad(f):
    return mpmath.quad(f, [0, 1, 4, 12, mpmath.inf])


def box_exact(a):
    """A, B of a uniform axis from the defining Gaussian integrals."""
    a = mpmath.mpf(a)

    def s2(u):
        return mpmath.sinc(a * u) ** 2

    return (2 * _inf_quad(lambda u: mpmath.exp(-u * u) * s2(u)),
            2 * _inf_quad(lambda u: mpmath.exp(-u * u) * u * u * s2(u)))


def disc_exact(s):
    s = mpmath.mpf(s)

    def f2(u):
        x = u * s
        return (2 * mpmath.besselj(1, x) / x) ** 2 if x else mpmath.mpf(1)

    return (_inf_quad(lambda u: mpmath.exp(-u * u) * u * f2(u)),
            _inf_quad(lambda u: mpmath.exp(-u * u) * u ** 3 * f2(u)))


def stack_exact(layers, r_c):
    rho = [mpmath.mpf(ref.density(l["material"])) for l in layers]
    edges, z = [], mpmath.mpf(0)
    for l in layers:
        t = mpmath.mpf(l["thickness"]) / mpmath.mpf(r_c)
        edges.append((z, z + t))
        z += t
    sigma = mpmath.fsum(r * (b - a) for r, (a, b) in zip(rho, edges))

    def f2(u):
        if u == 0:
            return mpmath.mpf(1)
        total = mpmath.fsum(r * (mpmath.expj(-u * a) - mpmath.expj(-u * b)) / (1j * u)
                            for r, (a, b) in zip(rho, edges))
        return abs(total / sigma) ** 2

    return (2 * _inf_quad(lambda u: mpmath.exp(-u * u) * f2(u)),
            2 * _inf_quad(lambda u: mpmath.exp(-u * u) * u * u * f2(u)))


def ball_exact(s):
    s = mpmath.mpf(s)

    def kernel(x):
        if x == 0:
            return mpmath.mpf(1)
        return 3 * (mpmath.sin(x) - x * mpmath.cos(x)) / x ** 3

    i3 = 4 * mpmath.pi * _inf_quad(lambda u: mpmath.exp(-u * u) * u ** 4 * kernel(u * s) ** 2)
    return i3 / (mpmath.mpf(3) / 2 * mpmath.pi ** mpmath.mpf(1.5))


def _layers(height, n=3):
    mats = ({"name": "a", "density": 2500.0}, {"name": "b", "density": 250.0})
    weights = [1.0, 2.0, 1.5, 0.7][:n]
    scale = height / sum(weights)
    return [{"material": mats[j % 2], "thickness": w * scale * 1e-7}
            for j, w in enumerate(weights)]


def check_forms() -> list[str]:
    problems = []

    def compare(name, arg, got, want):
        for g, w, part in zip(got, want, "AB"):
            err = _rel(g, w)
            status = "ok" if err <= AGREE else "FAIL"
            print(f"{name:6s} {part} arg={arg:<12.6g} rel.err={err:.1e} {status}")
            if err > AGREE:
                problems.append(f"{name} {part} at {arg}: {err:.1e}")

    with mpmath.workdps(30):
        for a in [ref.BOX_SWITCH * f for f in SIDES] + [1e-6, 0.7, 3.0, 12.0]:
            compare("box", a, ref.box_ab(a), box_exact(a))
        for s in [ref.DISC_SWITCH * f for f in SIDES] + [1e-5, 1.0, 4.0, 10.0]:
            compare("disc", s, ref.disc_ab(s), disc_exact(s))
        for h in [ref.STACK_SWITCH * f for f in SIDES] + [1e-5, 2.0, 8.0]:
            layers = _layers(h)
            compare("stack", h, ref.stack_ab(layers, 1e-7), stack_exact(layers, 1e-7))
        for s in [1e-4, 0.3, 1.0, 5.0, 20.0]:
            compare("ball", s, (ref.ball_reduction(s),), (ball_exact(s),))
    return problems


class Perturbed:
    """The reference module with the named values scaled by 1 + PERTURB."""

    def __init__(self, keys):
        self.keys = keys

    def __getattr__(self, name):
        return getattr(ref, name)

    def rates(self, body, lam, r_c):
        return {k: v * (1 + PERTURB) if k in self.keys else v
                for k, v in ref.rates(body, lam, r_c).items()}

    def form_factor(self, body, k):
        scale = 1 + PERTURB if "form_factor" in self.keys else 1
        return ref.form_factor(body, k) * scale


# every value, and the shape-dependent values alone
PERTURBATIONS = {
    "all values": ("gamma_total", "gamma_cm", "reduction_factor", "form_factor"),
    "geometry only": ("gamma_cm", "reduction_factor", "form_factor"),
}


def check_sensitivity() -> list[str]:
    import run
    import workloads

    api = run.load_api()
    problems = []
    for label, keys in PERTURBATIONS.items():
        for name in workloads.WORKLOADS:
            wl = run.make_workload(name, api, 0, Perturbed(keys))
            caught = None
            try:
                for op in wl.ops:
                    try:
                        op.check(op.call())
                    except workloads.CheckError as exc:
                        caught = f"{op.key}: {exc}"
                        break
            finally:
                wl.close()
            verdict = f"caught by {caught}" if caught else "NOT caught"
            print(f"{label} x (1 + {PERTURB:g}), {name}: {verdict}")
            if caught is None:
                problems.append(f"{name}: perturbing {label} passes every check")
    return problems


def main() -> int:
    problems = check_forms() + check_sensitivity()
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
