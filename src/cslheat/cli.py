"""Command-line front end: one subcommand per analysis, reproducible output.

Every run reads a JSON experiment spec, prints a JSON payload (or CSV for
tabular results with --csv), and exits 0 on success, 2 on spec/task
errors, 3 on compute errors, 4 on infeasible designs.  Payloads carry the
spec hash, the constants version, and the spec's numerical settings; they
contain no timestamps and are serialized as strict JSON with sorted keys
and full-precision floats, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    MAX_PAIRS,
    ConstraintViolation,
    InfeasibleDesign,
    design_stack,
    discriminability_report,
    lambda_bound,
    optimize_layers,
    scan_rc,
)
from .core import (
    CONSTANTS_VERSION,
    ExperimentSpec,
    ParseError,
    ValidationError,
    _fields_to_dict,
    load_spec,
    parse_material,
    spec_hash,
    with_seed,
)
from .geometry import normalized_form_factor
from .heating import gamma_cm_mc, heating_report
from .lattice import TooManySites, lattice_check


class TaskError(ValueError):
    """Missing or malformed task parameters for a subcommand."""


def _load(args) -> ExperimentSpec:
    spec = load_spec(args.spec)
    if args.seed is not None:
        if args.seed < 0:
            raise TaskError(f"--seed must be >= 0, got {args.seed}")
        spec = with_seed(spec, args.seed)
    return spec


def _payload(spec: ExperimentSpec, command: str, result: dict) -> dict:
    return {
        "command": command,
        "spec_hash": spec_hash(spec),
        "constants_version": CONSTANTS_VERSION,
        "quadrature": _fields_to_dict(spec.quadrature),
        "result": result,
    }


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _task_number(value, field: str, kind=float):
    """value as a finite float, or an integral int for kind=int; else TaskError."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TaskError(f"{field}: {exc}") from exc
    if not math.isfinite(number):
        raise TaskError(f"{field}: must be finite, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise TaskError(f"{field}: must be an integer, got {value!r}")
        return int(number)
    return number


def _task(spec: ExperimentSpec, key: str, kind=float, default=None):
    """The checked task number at key, or default when the key is absent.

    A key without a default (default None) is required.
    """
    task = spec.task or {}
    if key not in task:
        if default is None:
            raise TaskError(f"task.{key} is required for this command")
        return default
    return _task_number(task[key], f"task.{key}", kind)


def _task_list(spec: ExperimentSpec, key: str, kind=float) -> list:
    values = (spec.task or {}).get(key)
    if not isinstance(values, list):
        raise TaskError(f"task.{key} must be a list of numbers")
    return [_task_number(v, f"task.{key}[{i}]", kind) for i, v in enumerate(values)]


def _task_material(spec: ExperimentSpec, key: str):
    task = spec.task or {}
    if key not in task:
        raise TaskError(f"task.{key} is required for this command")
    try:
        return parse_material(task[key], f"task.{key}")
    except ValidationError as exc:
        raise TaskError(str(exc)) from exc


def _csv(header: list[str], rows: list[list]) -> str:
    # '.' decimal separator and ',' delimiter regardless of locale: repr on
    # Python floats already guarantees that and is exact round-trip
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def cmd_mu(args) -> int:
    spec = _load(args)
    model = spec.mass_model
    points = []
    if args.at:
        for item in args.at:
            parts = item.split(",")
            if len(parts) != 3:
                raise TaskError(f"--at expects kx,ky,kz, got {item!r}")
            points.append([float(p) for p in parts])
    if args.num is not None:
        if args.k_min is None or args.k_max is None:
            raise TaskError("--num requires --k-min and --k-max")
        axis = {"x": 0, "y": 1, "z": 2}[args.axis]
        sweep = np.linspace(args.k_min, args.k_max, args.num)
        for val in sweep:
            point = [0.0, 0.0, 0.0]
            point[axis] = float(val)
            points.append(point)
    if not points:
        raise TaskError("provide --at kx,ky,kz and/or a sweep "
                        "(--axis, --k-min, --k-max, --num)")
    k = np.asarray(points, dtype=float)
    f = normalized_form_factor(model, k)
    rows = [
        [k[i, 0], k[i, 1], k[i, 2], float(f[i].real), float(f[i].imag),
         float(abs(f[i]))]
        for i in range(len(k))
    ]
    if args.csv:
        _emit(args, _csv(["kx", "ky", "kz", "re", "im", "abs_norm"], rows))
        return 0
    result = {
        "rows": [
            {"kx": r[0], "ky": r[1], "kz": r[2], "re": r[3], "im": r[4],
             "abs_norm": r[5]}
            for r in rows
        ]
    }
    _emit_json(args, _payload(spec, "mu", result))
    return 0


def cmd_heat(args) -> int:
    spec = _load(args)
    report = heating_report(spec.mass_model, spec.csl, spec.quadrature)
    result = report.to_dict()
    if args.mc:
        est = gamma_cm_mc(spec.mass_model, spec.csl, spec.quadrature)
        result["gamma_cm_mc"] = est.value
        result["gamma_cm_mc_stderr"] = est.error
    if args.csv:
        keys = sorted(result)
        _emit(args, _csv(keys, [[result[k] for k in keys]]))
        return 0
    _emit_json(args, _payload(spec, "heat", result))
    return 0


def cmd_scan(args) -> int:
    spec = _load(args)
    task = spec.task or {}
    if args.rc_min is not None or args.rc_max is not None or args.num is not None:
        if None in (args.rc_min, args.rc_max, args.num):
            raise TaskError("--rc-min, --rc-max, and --num go together")
        grid = np.geomspace(args.rc_min, args.rc_max, args.num).tolist()
    elif "rc_grid" in task:
        grid = _task_list(spec, "rc_grid")
    elif {"rc_min", "rc_max", "num"} <= task.keys():
        grid = np.geomspace(
            _task(spec, "rc_min"), _task(spec, "rc_max"), _task(spec, "num", int)
        ).tolist()
    else:
        raise TaskError(
            "task needs rc_grid or (rc_min, rc_max, num), "
            "or pass --rc-min/--rc-max/--num"
        )
    observed = _task(spec, "observed_power") if "observed_power" in task else None
    try:
        table = scan_rc(
            spec.mass_model,
            grid,
            spec.quadrature,
            observed_power=observed,
            metadata={"spec_hash": spec_hash(spec)},
        )
    except ValueError as exc:
        raise TaskError(str(exc)) from exc
    if args.csv:
        _emit(args, table.to_csv())
        return 0
    _emit_json(args, _payload(spec, "scan", table.to_dict()))
    return 0


def _design_family(spec: ExperimentSpec):
    total = _task(spec, "total_mass")
    mat_a = _task_material(spec, "material_a")
    mat_b = _task_material(spec, "material_b")
    lx = _task(spec, "lx")
    ly = _task(spec, "ly")
    ratio = _task(spec, "mass_ratio", default=1.0)
    return total, (mat_a, mat_b), (lx, ly), ratio


def cmd_optimize(args) -> int:
    spec = _load(args)
    total, mats, cross, ratio = _design_family(spec)
    n_min = _task(spec, "n_min", int)
    n_max = _task(spec, "n_max", int)
    if n_max - n_min >= MAX_PAIRS:  # refused before the range is walked
        raise TaskError(f"task.n_max: more than {MAX_PAIRS} pair counts from n_min {n_min}")
    result = optimize_layers(
        total, mats, cross, range(n_min, n_max + 1), spec.csl, spec.quadrature,
        mass_ratio=ratio,
    )
    if args.csv:
        rows = [[n, g] for n, g in result.evaluations]
        _emit(args, _csv(["n_pairs", "gamma_cm"], rows))
        return 0
    _emit_json(args, _payload(spec, "optimize", result.to_dict()))
    return 0


def cmd_discriminate(args) -> int:
    spec = _load(args)
    if spec.thermal is None:
        raise TaskError("the spec needs a thermal block for this command")
    total, mats, cross, ratio = _design_family(spec)
    pair_counts = _task_list(spec, "designs", int)
    designs = [
        design_stack(total, mats[0], mats[1], cross[0], cross[1], n, ratio)
        for n in pair_counts
    ]
    threshold = _task(spec, "threshold", default=0.1)
    report = discriminability_report(
        designs, spec.csl, spec.thermal, spec.quadrature, threshold=threshold
    )
    if args.csv:
        rows = [
            [n, report.gamma_cms[i], report.thermal_power,
             report.saturation_powers[i]]
            for i, n in enumerate(pair_counts)
        ]
        _emit(args, _csv(
            ["n_pairs", "gamma_cm", "thermal_power", "saturation_power"], rows
        ))
        return 0
    result = report.to_dict()
    result["designs"] = [d.to_dict() for d in designs]
    result["n_pairs"] = pair_counts
    _emit_json(args, _payload(spec, "discriminate", result))
    return 0


def cmd_bound(args) -> int:
    spec = _load(args)
    observed = _task(spec, "observed_power")
    value = lambda_bound(
        observed, spec.mass_model, spec.csl.r_c, spec.quadrature
    )
    result = {
        "observed_power": observed,
        "r_c": spec.csl.r_c,
        "lambda_max": None if math.isinf(value) else value,
        "unbounded": math.isinf(value),
    }
    _emit_json(args, _payload(spec, "bound", result))
    return 0


def cmd_lattice_check(args) -> int:
    spec = _load(args)
    seed = spec.quadrature.rng_seed
    report = lattice_check(seed=seed, r_c=spec.csl.r_c)
    _emit_json(args, _payload(spec, "lattice-check", report))
    return 0 if report["all_passed"] else 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="path to the JSON experiment spec")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--csv", action="store_true",
                   help="emit tabular results as CSV")
    p.add_argument("--seed", type=int, default=None,
                   help="override the spec's Monte-Carlo seed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cslheat",
        description="Collapse-noise heating rates of solid test masses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu", help="evaluate the normalized form factor on a k-grid")
    _add_common(p)
    p.add_argument("--at", action="append", metavar="KX,KY,KZ",
                   help="explicit wavevector (repeatable)")
    p.add_argument("--axis", choices=["x", "y", "z"], default="x",
                   help="sweep axis (default x)")
    p.add_argument("--k-min", type=float, help="sweep start [1/m]")
    p.add_argument("--k-max", type=float, help="sweep end [1/m]")
    p.add_argument("--num", type=int, help="number of sweep points")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("heat", help="total, center-of-mass, and internal rates")
    _add_common(p)
    p.add_argument("--mc", action="store_true",
                   help="include the Monte-Carlo cross-check")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("scan", help="scan gamma_cm/lambda over r_c")
    _add_common(p)
    p.add_argument("--rc-min", type=float)
    p.add_argument("--rc-max", type=float)
    p.add_argument("--num", type=int)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("optimize",
                       help="best alternating-stack layer count at fixed mass")
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("discriminate",
                       help="collapse-vs-thermal discriminability of a design set")
    _add_common(p)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("bound", help="collapse-rate upper bound from a measured power")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("lattice-check", help="run the discrete-lattice property suite")
    _add_common(p)
    p.set_defaults(func=cmd_lattice_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, TaskError, FileNotFoundError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleDesign, ConstraintViolation) as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 4
    except (TooManySites, ArithmeticError, ValueError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
