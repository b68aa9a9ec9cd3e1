"""The benchmark's workloads: inputs made from the seed, ops, output checks.

A workload is one round of ops.  An op's ``call`` is the timed call into
cslheat; its ``check`` runs afterwards, untimed, and raises CheckError
when an output disagrees with the independent reference or breaks an
invariant.  Every run repeats the same round, so each op is also rerun
and its output compared with the first run's.

Inputs follow a fixed stratified design so that every seed gives a
round of nearly the same cost profile.  Op i of n has its size (the
parameter its cost follows) in the i-th of n equal slices of a log
range, moved by the seed within the middle JITTER of its slice; the
other parameters that set the cost (shape kind, pair counts, aspect
ratios) are fixed functions of i; everything that does not change the
amount of work (materials, densities, mass ratios, offsets, lambda,
r_c where only extent / r_c matters, powers, Monte-Carlo seeds, the op
order) is drawn freely from the seed.  Heavy studies are sized with a
rough cost model of the program, so that their costs spread smoothly
over a fixed range instead of clustering.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# allowed relative gap between the program and the reference, as a
# multiple of the spec's quadrature rel_tol
RATE_TOL = 10.0
# the lattice identities and the closed-form total rate hold to rounding
EXACT_TOL = 1e-11
MC_SIGMAS = 5.0
# the O(spacing^4) remainder of the extrapolated lattice rate at
# spacing <= r_c / 14 is below 5e-8 relative
RICHARDSON_TOL = 2.5e-7

WORKLOAD_IDS = {"requests": 1, "design": 2, "oracles": 3}


class CheckError(AssertionError):
    """An output of the program failed a check."""


class OpFailed(RuntimeError):
    """The program reported failure for an op (non-zero exit code)."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(got, want: float, rtol: float, what: str) -> None:
    ok = isinstance(got, (int, float)) and math.isfinite(got)
    require(ok and abs(got - want) <= rtol * abs(want),
            f"{what}: got {got!r}, reference {want!r} (rtol {rtol:g})")


def strict_json(text: str):
    def refuse(token):
        raise CheckError(f"payload is not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


class Op(NamedTuple):
    key: str
    call: Callable  # the timed call into cslheat
    check: Callable  # checks call's result; raises CheckError


JITTER = 0.2  # share of its slice of the size range a seed moves an op
# irrational steps of the fixed design: point i of dimension k is frac(i * step_k)
_STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772,
          0.2360679774997897, 0.6457513110645906)


def stratified(rng, n: int, lo: float, hi: float) -> list[float]:
    """n sizes in order, the i-th near the centre of the i-th log slice of [lo, hi]."""
    u = (np.arange(n) + 0.5 + JITTER * (rng.random(n) - 0.5)) / n
    return [float(v) for v in lo * (hi / lo) ** u]


def fixed(i: int, k: int, lo: float, hi: float) -> float:
    """Point i of dimension k of the seed-independent design, log-spread in [lo, hi]."""
    return float(lo * (hi / lo) ** ((i + 1) * _STEPS[k] % 1.0))


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** rng.random())


def inline(name: str, rho: float) -> dict:
    return {"name": name, "density": float(rho)}


MATERIAL_PAIRS = [
    (inline("dense", 2500.0), inline("light", 250.0)),
    (inline("gold", 19320.0), inline("silicon", 2329.0)),
    (inline("tungsten", 19300.0), inline("silica", 2200.0)),
    (inline("copper", 8960.0), inline("aluminum", 2700.0)),
]


def alternating_stack(total_mass, mat_a, mat_b, lx, ly, n_pairs, ratio) -> dict:
    """The fixed-mass alternating stack the design rule describes, as a body.

    Each material's mass is split evenly over its n_pairs layers.
    """
    area = lx * ly
    t_a = total_mass * ratio / (1.0 + ratio) / (n_pairs * mat_a["density"] * area)
    t_b = total_mass / (1.0 + ratio) / (n_pairs * mat_b["density"] * area)
    layers = [{"material": mat_a, "thickness": t_a},
              {"material": mat_b, "thickness": t_b}] * n_pairs
    return {"type": "layered_stack", "lx": lx, "ly": ly, "layers": layers}


def stack_height_mass(height, mat_a, mat_b, lx, ly, ratio) -> float:
    """Total mass of an alternating stack of the given height (any pair count)."""
    per_height = ratio / ((1 + ratio) * mat_a["density"]) + 1 / ((1 + ratio) * mat_b["density"])
    return height * lx * ly / per_height


class Workload:
    """One round of ops plus a fixed warm-up op."""

    name = ""

    def __init__(self, api, seed: int, workdir: Path, ref):
        self.api = api
        self.ref = ref
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, WORKLOAD_IDS[self.name]])
        self._ref_cache: dict = {}
        self.ops: list[Op] = []
        self.warmup: Op | None = None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -------------------------------------------------------------- helpers

    def model(self, body: dict):
        """cslheat mass model for a body dict, built from the model classes."""
        geo = self.api.geometry

        def mat(m):
            return geo.Material(m["name"], float(m["density"]))

        off = tuple(float(v) for v in body.get("offset", (0.0, 0.0, 0.0)))
        kind = body["type"]
        if kind == "point":
            return geo.PointMass(body["mass"], tuple(body.get("position", (0.0, 0.0, 0.0))), off)
        if kind == "cuboid":
            return geo.Cuboid(body["lx"], body["ly"], body["lz"], mat(body["material"]), off)
        if kind == "sphere":
            return geo.Sphere(body["radius"], mat(body["material"]), off)
        if kind == "cylinder":
            return geo.Cylinder(body["radius"], body["height"], mat(body["material"]), off)
        layers = tuple(geo.Layer(mat(l["material"]), l["thickness"]) for l in body["layers"])
        return geo.LayeredStack(body["lx"], body["ly"], layers, off)

    def rates(self, body: dict, lam: float, r_c: float) -> dict:
        key = (json.dumps(body, sort_keys=True), lam, r_c)
        if key not in self._ref_cache:
            self._ref_cache[key] = self.ref.rates(body, lam, r_c)
        return self._ref_cache[key]

    def check_rates(self, got: dict, body, lam, r_c, rel_tol, what) -> None:
        """gamma_total, gamma_cm, gamma_int and the reduction factor."""
        want = self.rates(body, lam, r_c)
        tol = RATE_TOL * rel_tol
        gt, gcm, gint = got["gamma_total"], got["gamma_cm"], got["gamma_int"]
        close(gt, want["gamma_total"], EXACT_TOL, f"{what} gamma_total")
        close(gcm, want["gamma_cm"], tol, f"{what} gamma_cm")
        close(got["reduction_factor"], want["reduction_factor"], tol, f"{what} reduction_factor")
        require(gcm >= 0.0, f"{what}: gamma_cm {gcm!r} < 0")
        if got["internal_clamped"]:
            # documented clamp: gamma_cm may exceed gamma_total by rel_tol
            require(gint == 0.0 and gcm <= gt * (1.0 + rel_tol),
                    f"{what}: clamped gamma_int {gint!r} with gamma_cm {gcm!r} > {gt!r}")
        else:
            require(gcm <= gt, f"{what}: gamma_cm {gcm!r} > gamma_total {gt!r}")
            require(abs(gcm + gint - gt) <= 4e-16 * gt,
                    f"{what}: gamma_cm + gamma_int = {gcm + gint!r} != {gt!r}")

    def rerun_check(self, key: str, value) -> None:
        """The first result of an op is kept; later reruns must equal it."""
        first = self._ref_cache.setdefault(("rerun", key), value)
        require(first == value, f"{key}: rerun output differs from the first run")


# ====================================================================== requests


class Requests(Workload):
    """In-process ``cslheat.cli.main`` calls on specs written at set-up."""

    name = "requests"
    PER_SHAPE = 24  # 5 shapes -> 120 requests per round
    SHAPES = ("point", "cuboid", "sphere", "cylinder", "layered_stack")
    REL_TOLS = (1e-8, 1e-9, 1e-10)
    BUILTINS = ("silicon", "silica", "sapphire", "aluminum", "copper", "niobium",
                "tungsten", "gold")
    MU_POINTS = 9
    # mostly heat, some bound and short mu sweeps (3 of 24 of each)
    COMMANDS = ("heat", "heat", "bound", "heat", "heat", "mu", "heat", "heat")

    def __init__(self, api, seed, workdir, ref):
        super().__init__(api, seed, workdir, ref)
        self.spec_dir = workdir / "specs"
        self.out_dir = workdir / "out"
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rng = self.rng
        ops = []
        for shape in self.SHAPES:
            extents = stratified(rng, self.PER_SHAPE, 1e-2, 1e2)
            for i, ext in enumerate(extents):
                key = f"{shape}-{i}"
                command = self.COMMANDS[i % len(self.COMMANDS)]
                spec, mu = self._spec(rng, shape, i, ext, self.REL_TOLS[i % 3], command)
                ops.append(self._op(key, spec, command, mu))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        warm, _ = self._spec(np.random.default_rng(0), "cuboid", 0, 1.0, 1e-9, "heat")
        self.warmup = self._op("warmup", warm, "heat", None)

    # -------------------------------------------------------------- inputs

    def _material(self, rng):
        if rng.random() < 0.5:
            return self.BUILTINS[int(rng.integers(len(self.BUILTINS)))]
        return inline("custom", log_uniform(rng, 300.0, 2e4))

    def _spec(self, rng, shape, i, ext, rel_tol, command):
        """The spec of one request, and the sweep of a mu request."""
        r_c = log_uniform(rng, 1e-8, 1e-6)
        e = ext * r_c  # largest extent [m]
        if shape == "point":
            body = {"type": "point", "mass": log_uniform(rng, 1e-18, 1e-6),
                    "position": (rng.uniform(-1, 1, 3) * e).tolist()}
        elif shape == "cuboid":
            body = {"type": "cuboid", "lx": e, "ly": e * fixed(i, 0, 0.1, 1.0),
                    "lz": e * fixed(i, 1, 0.1, 1.0), "material": self._material(rng)}
        elif shape == "sphere":
            body = {"type": "sphere", "radius": 0.5 * e, "material": self._material(rng)}
        elif shape == "cylinder":
            body = {"type": "cylinder", "radius": 0.5 * e * fixed(i, 0, 0.1, 1.0),
                    "height": e, "material": self._material(rng)}
        else:
            n = int(round(fixed(i, 2, 2, 16)))
            t = rng.uniform(0.2, 1.0, n)
            t *= e / t.sum()
            body = {"type": "layered_stack", "lx": e * fixed(i, 0, 0.1, 1.0),
                    "ly": e * fixed(i, 1, 0.1, 1.0),
                    "layers": [{"material": self._material(rng), "thickness": float(ti)}
                               for ti in t]}
        if rng.random() < 0.5:
            body["offset"] = (rng.uniform(-1, 1, 3) * e).tolist()
        spec = {"version": 1,
                "csl": {"lambda": log_uniform(rng, 1e-20, 1e-8), "r_c": r_c},
                "mass_model": body,
                "quadrature": {"rel_tol": rel_tol}}
        if command == "bound":
            spec["task"] = {"observed_power": log_uniform(rng, 1e-26, 1e-16)}
        mu = None
        if command == "mu":
            mu = {"axis": "xyz"[int(rng.integers(3))],
                  "k_max": 2 * math.pi / e * log_uniform(rng, 0.3, 5.0)}
        return spec, mu

    def _op(self, key, spec, command, mu) -> Op:
        path = self.spec_dir / f"{key}.json"
        path.write_text(json.dumps(spec, indent=2))
        out = self.out_dir / f"{key}.json"
        argv = [command, "--spec", str(path), "--out", str(out)]
        if mu is not None:
            argv += ["--axis", mu["axis"], "--k-min", "0", "--k-max", repr(mu["k_max"]),
                     "--num", str(self.MU_POINTS)]
        cli = self.api.cli

        def call():
            code = cli.main(argv)
            if code != 0:
                raise OpFailed(f"cslheat {' '.join(argv)} exited {code}")
            return out

        def check(result_path):
            text = result_path.read_text()
            self.rerun_check(key, text)
            payload = strict_json(text)
            require(payload["command"] == command, f"{key}: command {payload['command']!r}")
            require(len(payload["spec_hash"]) == 64, f"{key}: spec_hash")
            require(payload["constants_version"] == "codata2018", f"{key}: constants_version")
            require(payload["quadrature"]["rel_tol"] == spec["quadrature"]["rel_tol"],
                    f"{key}: quadrature.rel_tol not echoed")
            getattr(self, f"_check_{command}")(key, spec, payload["result"], mu)

        return Op(key, call, check)

    # -------------------------------------------------------------- checks

    def _check_heat(self, key, spec, result, mu):
        csl = spec["csl"]
        self.check_rates(result, spec["mass_model"], csl["lambda"], csl["r_c"],
                         spec["quadrature"]["rel_tol"], key)

    def _check_bound(self, key, spec, result, mu):
        r_c = spec["csl"]["r_c"]
        observed = spec["task"]["observed_power"]
        want = self.rates(spec["mass_model"], 1.0, r_c)["gamma_cm"]
        require(result["unbounded"] is False, f"{key}: unbounded")
        require(result["observed_power"] == observed and result["r_c"] == r_c,
                f"{key}: observed_power or r_c not echoed")
        close(result["lambda_max"], observed / want,
              RATE_TOL * spec["quadrature"]["rel_tol"], f"{key} lambda_max")

    def _check_mu(self, key, spec, result, mu):
        rows = result["rows"]
        require(len(rows) == self.MU_POINTS, f"{key}: {len(rows)} mu rows")
        axis = "xyz".index(mu["axis"])
        sweep = np.linspace(0.0, mu["k_max"], self.MU_POINTS)
        k = np.zeros((self.MU_POINTS, 3))
        k[:, axis] = sweep
        want = self.ref.form_factor(spec["mass_model"], k)
        for row, kv, f in zip(rows, k, want):
            require([row["kx"], row["ky"], row["kz"]] == kv.tolist(), f"{key}: mu wavevector")
            require(abs(complex(row["re"], row["im"]) - f) <= 1e-12
                    and abs(row["abs_norm"] - abs(f)) <= 1e-12,
                    f"{key}: mu at {kv.tolist()} = {row['re']!r}+{row['im']!r}i, "
                    f"reference {f!r}")


# ====================================================================== design


def _axis_cost(ext):
    """Rough seconds for the two 1D integrals of one uniform axis (r_c units)."""
    return 3e-4 + 11.5e-6 * ext


def _body_cost(body: dict, r_c: float) -> float:
    """Rough seconds of one gamma_cm of the body (see the design workload)."""
    kind = body["type"]
    if kind == "cuboid":
        return sum(_axis_cost(body[k] / r_c) for k in ("lx", "ly", "lz"))
    if kind == "sphere":
        return 3e-4 + 7e-6 * 2.0 * body["radius"] / r_c
    if kind == "cylinder":
        return _axis_cost(2.0 * body["radius"] / r_c) + _axis_cost(body["height"] / r_c)
    height = sum(l["thickness"] for l in body["layers"]) / r_c
    return (_axis_cost(body["lx"] / r_c) + _axis_cost(body["ly"] / r_c)
            + 3e-4 + 8e-6 * height * len(body["layers"]))


def _fit_scale(make, cost, budget: float, lo: float) -> float:
    """Scale s >= lo at which cost(make(s)) meets the budget (cost is affine in s)."""
    c0 = cost(make(0.0))
    c1 = cost(make(1.0)) - c0
    return max(lo, (budget - c0) / c1)


class Design(Workload):
    """Design studies on heavy bodies: optimize, scan, discriminate, bound."""

    name = "design"
    R_C = 1e-7
    BUDGET = (0.05, 0.25)  # seconds of modelled cost per op
    MIX = {"optimize": 32, "scan": 28, "discriminate": 28, "bound": 22}
    REL_TOL = 1e-9

    def __init__(self, api, seed, workdir, ref):
        super().__init__(api, seed, workdir, ref)
        self.quad = api.core.QuadratureSpec(rel_tol=self.REL_TOL)
        self.csl = api.core.CslParams(1e-16, self.R_C)
        rng = self.rng
        ops = []
        for kind, count in self.MIX.items():
            for i, budget in enumerate(stratified(rng, count, *self.BUDGET)):
                ops.append(getattr(self, f"_{kind}")(f"{kind}-{i}", budget, rng, i))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.warmup = self._bound("warmup", 0.1, np.random.default_rng(0), 0)

    def _stack_family(self, rng, budget, pair_counts, i):
        """Cross-section and mass of a fixed-mass family sized to the budget."""
        mat_a, mat_b = MATERIAL_PAIRS[int(rng.integers(len(MATERIAL_PAIRS)))]
        ratio = log_uniform(rng, 0.5, 2.0)
        per_design = budget / len(pair_counts)
        side = max(50.0, (fixed(i, 3, 0.2, 0.5) * per_design / 2 - 3e-4) / 11.5e-6)
        z_budget = budget - len(pair_counts) * (2 * _axis_cost(side) + 3e-4)
        layers = 2 * sum(pair_counts)
        height = max(2.0, z_budget / (8e-6 * layers))
        lx = ly = side * self.R_C
        mass = stack_height_mass(height * self.R_C, mat_a, mat_b, lx, ly, ratio)
        return mat_a, mat_b, lx, ly, mass, ratio

    # -------------------------------------------------------------- optimize

    def _optimize(self, key, budget, rng, i):
        n0 = int(round(fixed(i, 0, 2, 150)))
        counts = [n0, n0 + 1, n0 + 2]
        mat_a, mat_b, lx, ly, mass, ratio = self._stack_family(rng, budget, counts, i)
        geo, analysis = self.api.geometry, self.api.analysis
        mats = (geo.Material(mat_a["name"], mat_a["density"]),
                geo.Material(mat_b["name"], mat_b["density"]))
        csl, quad = self.csl, self.quad

        def call():
            return analysis.optimize_layers(mass, mats, (lx, ly), range(n0, n0 + 3),
                                            csl, quad, mass_ratio=ratio)

        def check(res):
            want = {n: self.rates(alternating_stack(mass, mat_a, mat_b, lx, ly, n, ratio),
                                  csl.lambda_rate, csl.r_c)["gamma_cm"] for n in counts}
            got = dict(res.evaluations)
            require(sorted(got) == counts, f"{key}: evaluated {sorted(got)}")
            for n in counts:
                close(got[n], want[n], RATE_TOL * self.REL_TOL, f"{key} gamma_cm(n={n})")
            best = max(counts, key=lambda n: want[n])
            top = sorted(want.values())[-2:]
            tie = top[1] - top[0] <= 2 * RATE_TOL * self.REL_TOL * top[1]
            require(res.best.n_pairs == best or tie,
                    f"{key}: optimum {res.best.n_pairs} pairs, reference {best}")
            require(res.gamma_cm == got[res.best.n_pairs], f"{key}: best gamma_cm")
            self.rerun_check(key, res.evaluations)

        return Op(key, call, check)

    # -------------------------------------------------------------- scan

    def _scan_body(self, rng, i):
        kind = ("cuboid", "cylinder", "sphere", "layered_stack")[i % 4]
        mat = inline("body", log_uniform(rng, 2000.0, 2e4))
        if kind == "cuboid":
            ry, rz = fixed(i, 0, 0.3, 1.0), fixed(i, 1, 0.01, 1.0)
            return lambda s: {"type": "cuboid", "lx": s, "ly": s * ry, "lz": s * rz,
                              "material": mat}
        if kind == "cylinder":
            rh = fixed(i, 0, 0.1, 2.0)
            return lambda s: {"type": "cylinder", "radius": 0.5 * s, "height": s * rh,
                              "material": mat}
        if kind == "sphere":
            return lambda s: {"type": "sphere", "radius": 0.5 * s, "material": mat}
        n = int(round(fixed(i, 2, 2, 8)))
        mat_a, mat_b = MATERIAL_PAIRS[int(rng.integers(len(MATERIAL_PAIRS)))]
        frac = rng.uniform(0.3, 1.0, 2 * n)
        frac /= frac.sum()
        rz = fixed(i, 1, 0.01, 0.3)
        return lambda s: {"type": "layered_stack", "lx": s, "ly": s,
                          "layers": [{"material": (mat_a, mat_b)[j % 2],
                                      "thickness": float(f * s * rz)}
                                     for j, f in enumerate(frac)]}

    def _scan(self, key, budget, rng, i):
        make = self._scan_body(rng, i)
        rc0 = self.R_C * fixed(i, 3, 0.5, 1.0)
        grid = list(np.geomspace(rc0, rc0 * fixed(i, 4, 2.0, 4.0), 3))

        def cost(body):
            return sum(_body_cost(body, rc) for rc in grid)

        body = make(_fit_scale(make, cost, budget, 50 * rc0))
        observed = log_uniform(rng, 1e-24, 1e-18)
        model = self.model(body)
        analysis, quad = self.api.analysis, self.quad

        def call():
            return analysis.scan_rc(model, grid, quad, observed_power=observed)

        def check(table):
            require([r.r_c for r in table.rows] == grid, f"{key}: scan grid")
            tol = RATE_TOL * self.REL_TOL
            for row in table.rows:
                want = self.rates(body, 1.0, row.r_c)
                require(row.converged, f"{key}: r_c={row.r_c} not converged")
                close(row.gamma_cm_per_lambda, want["gamma_cm"], tol, f"{key} gamma_cm/lambda")
                close(row.reduction_factor, want["reduction_factor"], tol, f"{key} reduction")
                close(row.lambda_bound, observed / want["gamma_cm"], tol, f"{key} lambda_bound")
            self.rerun_check(key, table.rows)

        return Op(key, call, check)

    # -------------------------------------------------------------- discriminate

    def _discriminate(self, key, budget, rng, i):
        counts = [int(round(fixed(i, k, lo, hi)))
                  for k, (lo, hi) in enumerate(((1, 4), (8, 40), (60, 200)))]
        mat_a, mat_b, lx, ly, mass, ratio = self._stack_family(rng, budget, counts, i)
        gamma_th, temperature = log_uniform(rng, 1e-4, 1e-2), log_uniform(rng, 0.01, 1.0)
        analysis, geo, core = self.api.analysis, self.api.geometry, self.api.core
        mats = (geo.Material(mat_a["name"], mat_a["density"]),
                geo.Material(mat_b["name"], mat_b["density"]))
        csl, quad = self.csl, self.quad
        thermal = core.ThermalModel(gamma_th, temperature)

        def call():
            designs = [analysis.design_stack(mass, mats[0], mats[1], lx, ly, n, ratio)
                       for n in counts]
            return analysis.discriminability_report(designs, csl, thermal, quad, threshold=0.1)

        def check(rep):
            tol = RATE_TOL * self.REL_TOL
            want = [self.rates(alternating_stack(mass, mat_a, mat_b, lx, ly, n, ratio),
                               csl.lambda_rate, csl.r_c)["gamma_cm"] for n in counts]
            require(len(rep.gamma_cms) == len(counts), f"{key}: design count")
            for n, got, ref in zip(counts, rep.gamma_cms, want):
                close(got, ref, tol, f"{key} gamma_cm(n={n})")
            thermal_power = gamma_th * self.ref.K_BOLTZMANN * temperature
            close(rep.thermal_power, thermal_power, EXACT_TOL, f"{key} thermal_power")
            for got, g in zip(rep.saturation_powers, rep.gamma_cms):
                close(got, g + rep.thermal_power, EXACT_TOL, f"{key} saturation_power")
            spread = (max(want) - min(want)) / (sum(want) / len(want))
            require(abs(rep.spread - spread) <= 4 * tol * spread, f"{key}: spread {rep.spread!r}, reference {spread!r}")
            if abs(spread - 0.1) > 4 * tol * spread:
                require(rep.discriminating == (spread > 0.1), f"{key}: discriminating flag")
            self.rerun_check(key, rep)

        return Op(key, call, check)

    # -------------------------------------------------------------- bound

    def _bound(self, key, budget, rng, i):
        kind = i % 4
        mat = inline("body", log_uniform(rng, 2000.0, 2e4))
        if kind == 0:
            make = lambda s: {"type": "cuboid", "lx": s, "ly": s, "lz": s, "material": mat}
        elif kind == 1:
            rz = fixed(i, 1, 0.005, 0.05)
            make = lambda s: {"type": "cuboid", "lx": s, "ly": s, "lz": s * rz, "material": mat}
        elif kind == 2:
            make = lambda s: {"type": "cylinder", "radius": 0.5 * s, "height": s,
                              "material": mat}
        else:
            make = self._scan_body(rng, 4 * i + 3)
        body = make(_fit_scale(make, lambda b: _body_cost(b, self.R_C), budget, 50 * self.R_C))
        observed = log_uniform(rng, 1e-24, 1e-18)
        model = self.model(body)
        analysis, quad, r_c = self.api.analysis, self.quad, self.R_C

        def call():
            return analysis.lambda_bound(observed, model, r_c, quad)

        def check(value):
            want = observed / self.rates(body, 1.0, r_c)["gamma_cm"]
            close(value, want, RATE_TOL * self.REL_TOL, f"{key} lambda_bound")
            self.rerun_check(key, value)

        return Op(key, call, check)


# ====================================================================== oracles


class Oracles(Workload):
    """Independent routes to a rate: Monte Carlo, lattices, the lattice suite."""

    name = "oracles"
    R_C = 1e-7
    MIX = {"mc": 48, "separable": 30, "pairwise": 30, "suite": 2}

    def __init__(self, api, seed, workdir, ref):
        super().__init__(api, seed, workdir, ref)
        rng = self.rng
        self.csl = api.core.CslParams(1e-16, self.R_C)
        ops = []
        ops += [self._mc(f"mc-{i}", b, rng, i)
                for i, b in enumerate(stratified(rng, self.MIX["mc"], 0.03, 0.2))]
        ops += [self._separable(f"separable-{i}", b, rng, i)
                for i, b in enumerate(stratified(rng, self.MIX["separable"], 0.03, 0.2))]
        ops += [self._pairwise(f"pairwise-{i}", n, rng, i)
                for i, n in enumerate(stratified(rng, self.MIX["pairwise"], 700, 1800))]
        ops += [self._suite(f"suite-{i}", rng) for i in range(self.MIX["suite"])]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.warmup = self._mc("warmup", 0.05, np.random.default_rng(0), 0)

    def _block(self, rng, kind, dims, unit):
        """Cuboid or alternating stack whose sides are whole multiples of unit."""
        nx, ny, nz = dims
        mat = inline("body", log_uniform(rng, 2000.0, 2e4))
        if kind == "cuboid":
            return {"type": "cuboid", "lx": nx * unit, "ly": ny * unit, "lz": nz * unit,
                    "material": mat}
        mat_a, mat_b = MATERIAL_PAIRS[int(rng.integers(len(MATERIAL_PAIRS)))]
        n_layers = int(rng.integers(2, max(3, min(nz, 12) + 1)))
        cells = np.ones(n_layers, dtype=int)
        cells += np.bincount(rng.integers(0, n_layers, nz - n_layers), minlength=n_layers)
        return {"type": "layered_stack", "lx": nx * unit, "ly": ny * unit,
                "layers": [{"material": (mat_a, mat_b)[j % 2], "thickness": int(c) * unit}
                           for j, c in enumerate(cells)]}

    # -------------------------------------------------------------- Monte Carlo

    def _mc(self, key, budget, rng, i):
        kind = ("cuboid", "layered_stack", "sphere", "cylinder", "cuboid")[i % 5]
        r_c = self.R_C
        mat = inline("body", log_uniform(rng, 2000.0, 2e4))
        if kind in ("cuboid", "layered_stack"):
            ext = log_uniform(rng, 1.0, 20.0) * r_c
            if kind == "cuboid":
                body = {"type": "cuboid", "lx": ext, "ly": ext * log_uniform(rng, 0.3, 1.0),
                        "lz": ext * log_uniform(rng, 0.3, 1.0), "material": mat}
                per_sample = 0.9e-6
            else:
                mat_a, mat_b = MATERIAL_PAIRS[int(rng.integers(len(MATERIAL_PAIRS)))]
                n = int(round(fixed(i, 2, 2, 16)))
                t = rng.uniform(0.3, 1.0, n)
                t *= ext / t.sum()
                body = {"type": "layered_stack", "lx": ext, "ly": ext,
                        "layers": [{"material": (mat_a, mat_b)[j % 2], "thickness": float(tj)}
                                   for j, tj in enumerate(t)]}
                per_sample = (4 * 0.15 + 2 * (0.15 + 0.13 * n)) * 1e-6
        else:
            s = log_uniform(rng, 0.3, 3.0) * r_c
            if kind == "sphere":
                body = {"type": "sphere", "radius": s, "material": mat}
            else:
                body = {"type": "cylinder", "radius": s, "height": 2 * s * log_uniform(rng, 0.3, 1.0),
                        "material": mat}
            per_sample = 0.3e-6
        samples = max(1000, int(budget / per_sample))
        quad = self.api.core.QuadratureSpec(mc_samples=samples,
                                            rng_seed=int(rng.integers(2**31)))
        model, csl, heating = self.model(body), self.csl, self.api.heating

        def call():
            return heating.gamma_cm_mc(model, csl, quad)

        def check(est):
            want = self.rates(body, csl.lambda_rate, csl.r_c)["gamma_cm"]
            require(est.error > 0, f"{key}: standard error {est.error!r}")
            require(abs(est.value - want) <= MC_SIGMAS * est.error,
                    f"{key}: Monte Carlo {est.value!r} +- {est.error!r}, reference {want!r}")
            self.rerun_check(key, est)

        return Op(key, call, check)

    # -------------------------------------------------------------- lattices

    def _separable(self, key, budget, rng, i):
        kind = ("cuboid", "layered_stack")[i % 2]
        spacing = self.R_C / float(rng.uniform(14.0, 28.0))
        # cost ~ 1.25 x 25 ns per pair summed over the three dense axes at spacing/2
        n_half = math.sqrt(budget / (1.25 * 25e-9) / 3.0)
        dims = [min(700, max(2, int(n_half * fixed(i, k, 0.6, 1.0) / 2))) for k in range(3)]
        body = self._block(rng, kind, dims, spacing)
        model, csl, lattice = self.model(body), self.csl, self.api.lattice

        def call():
            return (lattice.gamma_cm_discrete_separable(model, csl, spacing),
                    lattice.gamma_cm_discrete_separable(model, csl, 0.5 * spacing))

        def check(pair):
            want = self.rates(body, csl.lambda_rate, csl.r_c)
            coarse, fine = (g / want["gamma_cm"] - 1.0 for g in pair)
            for g in pair:
                require(0.0 <= g <= want["gamma_total"], f"{key}: gamma_cm {g!r}")
            # O(spacing^2): halving the spacing quarters the error, and the
            # Richardson extrapolation (4 fine - coarse) / 3 leaves O(spacing^4)
            require(3.9 <= coarse / fine <= 4.1,
                    f"{key}: lattice errors {coarse:.3e} -> {fine:.3e} on halving")
            extrapolated = (4.0 * fine - coarse) / 3.0
            require(abs(extrapolated) <= RICHARDSON_TOL,
                    f"{key}: extrapolated lattice rate off the reference by {extrapolated:.2e}")
            self.rerun_check(key, pair)

        return Op(key, call, check)

    def _pairwise(self, key, sites, rng, i):
        kind = ("cuboid", "layered_stack")[i % 2]
        spacing = self.R_C / float(rng.uniform(2.0, 5.0))
        side = sites ** (1.0 / 3.0)
        nx = max(2, int(round(side * fixed(i, 0, 0.7, 1.4))))
        ny = max(2, int(round(side * fixed(i, 1, 0.7, 1.4))))
        nz = max(3, int(round(sites / (nx * ny))))
        body = self._block(rng, kind, (nx, ny, nz), spacing)
        model, csl, lattice = self.model(body), self.csl, self.api.lattice

        def call():
            lat = lattice.build_lattice(model, spacing)
            return (lat.n_cells, lattice.gamma_total_discrete(lat, csl),
                    lattice.gamma_cm_discrete(lat, csl),
                    lattice.gamma_cm_discrete_separable(model, csl, spacing))

        def check(res):
            n, total, full, marginal = res
            want = self.rates(body, csl.lambda_rate, csl.r_c)["gamma_total"]
            require(n == nx * ny * nz, f"{key}: {n} sites, expected {nx * ny * nz}")
            close(total, want, EXACT_TOL, f"{key} lattice gamma_total")
            require(0.0 <= full <= total, f"{key}: gamma_cm {full!r} outside [0, {total!r}]")
            require(abs(full - marginal) <= EXACT_TOL * marginal,
                    f"{key}: pairwise {full!r} vs separable {marginal!r}")
            self.rerun_check(key, res)

        return Op(key, call, check)

    def _suite(self, key, rng):
        seed = int(rng.integers(2**31))
        lattice, r_c = self.api.lattice, self.R_C

        def call():
            return lattice.lattice_check(seed=seed, r_c=r_c)

        def check(report):
            require(report["all_passed"] is True, f"{key}: lattice_check failed: {report}")
            require(report["seed"] == seed, f"{key}: seed not echoed")
            strict_json(json.dumps(report))
            self.rerun_check(key, json.dumps(report, sort_keys=True))

        return Op(key, call, check)


WORKLOADS = {w.name: w for w in (Requests, Design, Oracles)}
