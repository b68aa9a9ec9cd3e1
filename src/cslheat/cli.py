"""Command-line front end: one subcommand per analysis, reproducible output.

Every run reads a JSON experiment spec and exits 0 on success, 2 on a
malformed or out-of-range spec value, task key or flag value (each read
once by the core readers and named by its JSON path or flag), 3 on
compute errors, 4 on infeasible designs.  Each cmd_* function takes the
parsed arguments and the loaded spec and returns its JSON result and,
for tabular results, its rows (one dict per row, the keys in column
order); main alone loads the spec, writes the output to stdout or --out
and maps exceptions to exit codes.  With --csv, commands
that have rows print them through _csv, the one CSV writer; the others
print JSON.  Payloads carry the spec hash, the constants version, and the
spec's numerical settings; they contain no timestamps and are serialized
as strict JSON with sorted keys and full-precision floats, so identical
inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import (
    ConstraintViolation,
    InfeasibleDesign,
    design_stack,
    discriminability_report,
    lambda_bound,
    optimize_layers,
    scan_rc,
)
from .core import (
    _NONNEGATIVE,
    _POSITIVE,
    CONSTANTS_VERSION,
    MAX_PAIRS,
    ExperimentSpec,
    ParseError,
    ValidationError,
    _check_body,
    _fields_to_dict,
    _integer,
    _number,
    load_spec,
    parse_material,
    spec_hash,
    with_seed,
)
from .geometry import normalized_form_factor
from .heating import gamma_cm_mc, heating_report
from .lattice import LATTICE_CHECK_RC, TooManySites, lattice_check


# readers of the bounded task keys and flag values; the rest read any
# finite number with _number or an integer with _integer
_positive = functools.partial(_number, bound=_POSITIVE)
_nonnegative = functools.partial(_number, bound=_NONNEGATIVE)
_count = functools.partial(_integer, bound=(">= 1", lambda v: v >= 1))
_seed = functools.partial(_integer, bound=_NONNEGATIVE)


def _flag(text: str, flag: str, read=_number):
    """The value of a flag read as an int or a float, checked by read."""
    for parse in (int, float):
        try:
            value = parse(text)
        except ValueError:
            continue
        return read(value, flag)
    raise ValidationError(flag, f"expected a number, got {text!r}")


def _load(args) -> ExperimentSpec:
    spec = load_spec(args.spec)
    if args.seed is not None:
        spec = with_seed(spec, _flag(args.seed, "--seed", _seed))
    return spec


def _payload(spec: ExperimentSpec, command: str, result: dict) -> dict:
    return {
        "command": command,
        "spec_hash": spec_hash(spec),
        "constants_version": CONSTANTS_VERSION,
        "quadrature": _fields_to_dict(spec.quadrature),
        "result": result,
    }


def _task(spec: ExperimentSpec, key: str, read=_number, default=None):
    """The task value at key checked by read, or default when the key is
    absent; a key without a default (default None) is required."""
    task = spec.task or {}
    if key not in task:
        if default is None:
            raise ValidationError(f"task.{key}", "required for this command")
        return default
    return read(task[key], f"task.{key}")


def _task_list(spec: ExperimentSpec, key: str, read=_number) -> list:
    values = (spec.task or {}).get(key)
    if not isinstance(values, list):
        raise ValidationError(f"task.{key}", "expected a list of numbers")
    return [read(v, f"task.{key}[{i}]") for i, v in enumerate(values)]


def _cell(value) -> str:
    # JSON spellings of booleans; repr of a Python float is exact
    # round-trip with a '.' decimal separator regardless of locale
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _csv(rows: list[dict]) -> str:
    header = list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(_cell(row[key]) for key in header) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_mu(args, spec: ExperimentSpec):
    points, flags = [], []  # each wavevector and the flag that set it
    for item in args.at or ():
        parts = item.split(",")
        if len(parts) != 3:
            raise ValidationError("--at", f"expected kx,ky,kz, got {item!r}")
        points.append([_flag(p, "--at") for p in parts])
        flags.append("--at")
    if args.num is not None:
        if args.k_min is None or args.k_max is None:
            raise ValidationError("--num", "requires --k-min and --k-max")
        axis = {"x": 0, "y": 1, "z": 2}[args.axis]
        k_min, k_max = _flag(args.k_min, "--k-min"), _flag(args.k_max, "--k-max")
        sweep = np.linspace(k_min, k_max, _flag(args.num, "--num", _count))
        points += [[float(v) if i == axis else 0.0 for i in range(3)] for v in sweep]
        flags += ["--k-max" if abs(k_max) >= abs(k_min) else "--k-min"] * len(sweep)
    if not points:
        raise ValidationError("--at", "provide --at kx,ky,kz and/or a sweep "
                                      "(--axis, --k-min, --k-max, --num)")
    with np.errstate(all="ignore"):
        f = normalized_form_factor(spec.mass_model, np.asarray(points, dtype=float))
    for point, flag, v in zip(points, flags, f):
        if not np.isfinite(v):  # a phase or kernel argument overflowed
            raise ValidationError(flag, f"the form factor at k = {point} overflows (k times "
                                        f"the body's position, offset or size, or |k|^2)")
    rows = [
        {"kx": kx, "ky": ky, "kz": kz, "re": float(v.real), "im": float(v.imag),
         "abs_norm": float(abs(v))}
        for (kx, ky, kz), v in zip(points, f)
    ]
    return {"rows": rows}, rows


def cmd_heat(args, spec: ExperimentSpec):
    result = asdict(heating_report(spec.mass_model, spec.csl, spec.quadrature))
    if args.mc:
        est = gamma_cm_mc(spec.mass_model, spec.csl, spec.quadrature)
        result["gamma_cm_mc"] = est.value
        result["gamma_cm_mc_stderr"] = est.error
    return result, [dict(sorted(result.items()))]


def cmd_scan(args, spec: ExperimentSpec):
    task = spec.task or {}
    if args.rc_min is not None or args.rc_max is not None or args.num is not None:
        if None in (args.rc_min, args.rc_max, args.num):
            raise ValidationError("--rc-min", "--rc-min, --rc-max and --num go together")
        source = "--rc-min"
        grid = np.geomspace(_flag(args.rc_min, "--rc-min", _positive),
                            _flag(args.rc_max, "--rc-max", _positive),
                            _flag(args.num, "--num", _count)).tolist()
    elif "rc_grid" in task:
        source = "task.rc_grid"
        grid = _task_list(spec, "rc_grid")
    elif {"rc_min", "rc_max", "num"} <= task.keys():
        source = "task.rc_min"
        grid = np.geomspace(_task(spec, "rc_min", _positive), _task(spec, "rc_max", _positive),
                            _task(spec, "num", _count)).tolist()
    else:
        raise ValidationError("task", "needs rc_grid or (rc_min, rc_max, num), "
                                      "or pass --rc-min/--rc-max/--num")
    observed = _task(spec, "observed_power", _nonnegative) if "observed_power" in task else None
    # scan_rc refuses an empty, non-positive or unsorted grid and one at
    # whose smallest r_c the rate per lambda or an extent over r_c overflows
    try:
        table = scan_rc(
            spec.mass_model,
            grid,
            spec.quadrature,
            observed_power=observed,
            metadata={"spec_hash": spec_hash(spec)},
        )
    except ValueError as exc:
        raise ValidationError(source, str(exc)) from exc
    result = table.to_dict()
    return result, result["rows"]


def _design_family(spec: ExperimentSpec):
    total = _task(spec, "total_mass")
    mat_a = _task(spec, "material_a", parse_material)
    mat_b = _task(spec, "material_b", parse_material)
    lx = _task(spec, "lx")
    ly = _task(spec, "ly")
    ratio = _task(spec, "mass_ratio", default=1.0)
    return total, (mat_a, mat_b), (lx, ly), ratio


def _check_design(spec: ExperimentSpec, design) -> None:
    """The checks across fields that loads_spec makes of a spec's body,
    made of a task design; a failure names the task."""
    try:
        _check_body(design, spec.csl)
    except ValidationError as exc:
        raise ValidationError("task", f"the {design.n_pairs}-pair design fails {exc}") from None


def cmd_optimize(args, spec: ExperimentSpec):
    total, mats, cross, ratio = _design_family(spec)
    n_min = _task(spec, "n_min", _integer)
    n_max = _task(spec, "n_max", _integer)
    if n_max - n_min >= MAX_PAIRS:  # refused before the range is walked
        raise ValidationError("task.n_max", f"more than {MAX_PAIRS} pair counts "
                                            f"from n_min {n_min}")
    # the designs share their total mass (so their total rate), height and
    # cross-section: the first one checked stands for all
    _check_design(spec, design_stack(total, *mats, *cross, n_min, ratio))
    result = optimize_layers(
        total, mats, cross, range(n_min, n_max + 1), spec.csl, spec.quadrature,
        mass_ratio=ratio,
    ).to_dict()
    return result, result["evaluations"]


def cmd_discriminate(args, spec: ExperimentSpec):
    if spec.thermal is None:
        raise ValidationError("thermal", "required for this command")
    total, mats, cross, ratio = _design_family(spec)
    pair_counts = _task_list(spec, "designs", _integer)
    if len(pair_counts) < 2:
        raise ValidationError("task.designs", "need at least two designs to compare")
    designs = [
        design_stack(total, mats[0], mats[1], cross[0], cross[1], n, ratio)
        for n in pair_counts
    ]
    for design in designs:
        _check_design(spec, design)
    threshold = _task(spec, "threshold", _nonnegative, default=0.1)
    report = discriminability_report(
        designs, spec.csl, spec.thermal, spec.quadrature, threshold=threshold
    )
    rows = [
        {"n_pairs": n, "gamma_cm": g, "thermal_power": report.thermal_power,
         "saturation_power": p}
        for n, g, p in zip(pair_counts, report.gamma_cms, report.saturation_powers)
    ]
    result = asdict(report)
    result["designs"] = [d.to_dict() for d in designs]
    result["n_pairs"] = pair_counts
    return result, rows


def cmd_bound(args, spec: ExperimentSpec):
    observed = _task(spec, "observed_power", _nonnegative)
    value = lambda_bound(
        observed, spec.mass_model, spec.csl.r_c, spec.quadrature
    )
    result = {
        "observed_power": observed,
        "r_c": spec.csl.r_c,
        "lambda_max": None if math.isinf(value) else value,
        "unbounded": math.isinf(value),
    }
    return result, None


def cmd_lattice_check(args, spec: ExperimentSpec):
    (lo, hi), r_c = LATTICE_CHECK_RC, spec.csl.r_c
    if not lo <= r_c <= hi:
        raise ValidationError("csl.r_c", f"lattice-check needs r_c in [{lo:.4g}, {hi:.4g}] m "
                                         f"(its probe rates are normal floats), got {r_c!r}")
    return lattice_check(seed=spec.quadrature.rng_seed, r_c=r_c), None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="path to the JSON experiment spec")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--csv", action="store_true",
                   help="emit tabular results as CSV")
    p.add_argument("--seed",
                   help="override the spec's seed of the Monte Carlo and lattice-check")


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
    p.add_argument("--k-min", help="sweep start [1/m]")
    p.add_argument("--k-max", help="sweep end [1/m]")
    p.add_argument("--num", help="number of sweep points")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("heat", help="total, center-of-mass, and internal rates")
    _add_common(p)
    p.add_argument("--mc", action="store_true",
                   help="include the Monte-Carlo cross-check")
    p.set_defaults(func=cmd_heat)

    p = sub.add_parser("scan", help="scan gamma_cm/lambda over r_c")
    _add_common(p)
    p.add_argument("--rc-min")
    p.add_argument("--rc-max")
    p.add_argument("--num")
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
    args = build_parser().parse_args(argv)
    try:
        spec = _load(args)
        result, rows = args.func(args, spec)
        if args.csv and rows is not None:
            text = _csv(rows)
        else:
            text = json.dumps(_payload(spec, args.command, result),
                              sort_keys=True, indent=2, allow_nan=False) + "\n"
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleDesign, ConstraintViolation) as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 4
    except (TooManySites, ArithmeticError, ValueError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    # a failing lattice-check report is still written, then exits 3
    return 3 if args.command == "lattice-check" and not result["all_passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
