"""CLI behavior: payloads, CSV shapes, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cslheat import ExperimentSpec, dumps_spec, load_spec, loads_spec, optimize_layers, spec_hash
from cslheat.cli import main
from cslheat.core import parse_material

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_heat_point_payload(capsys):
    code, out, _ = run(capsys, "heat", "--spec", str(SPECS / "point.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "heat"
    result = payload["result"]
    assert result["reduction_factor"] == pytest.approx(1.0, rel=1e-9, abs=0)
    assert result["gamma_cm"] == pytest.approx(result["gamma_total"], rel=1e-9, abs=0)
    assert result["gamma_int"] >= 0.0


def test_payload_spec_hash_traceable(capsys):
    path = SPECS / "cube_large.json"
    code, out, _ = run(capsys, "heat", "--spec", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["spec_hash"] == spec_hash(load_spec(path))
    assert payload["constants_version"] == "codata2018"
    assert payload["quadrature"]["rel_tol"] == 1e-9


def test_mu_zero_row(capsys):
    code, out, _ = run(
        capsys, "mu", "--spec", str(SPECS / "cube_large.json"), "--at", "0,0,0"
    )
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert rows[0]["abs_norm"] == pytest.approx(1.0, rel=1e-12, abs=0)


def test_mu_sinc_zero_and_row_count(capsys):
    lx = 10e-7
    k0 = 2 * math.pi / lx
    code, out, _ = run(
        capsys,
        "mu", "--spec", str(SPECS / "cube_large.json"), "--csv",
        "--axis", "x", "--k-min", str(k0), "--k-max", str(2 * k0), "--num", "1000",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kx,ky,kz,re,im,abs_norm"
    assert len(lines) == 1001
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert abs(float(first["abs_norm"])) < 1e-12


def test_mu_requires_points(capsys):
    code, _, err = run(capsys, "mu", "--spec", str(SPECS / "cube_large.json"))
    assert code == 2
    assert "provide" in err


def test_scan_flags_and_csv(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--spec", str(SPECS / "point.json"), "--csv",
        "--rc-min", "1e-8", "--rc-max", "1e-6", "--num", "5",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines[0].split(",")[0] == "r_c"


# every tabular command on a committed spec: its CSV header, and the JSON
# rows that its CSV rows must equal cell by cell
HEAT_COLUMNS = ("gamma_cm,gamma_int,gamma_total,internal_clamped,"
                "quadrature_estimate_error,reduction_factor")
CSV_RUNS = {
    "mu": (("mu", "stack16.json", "--axis", "x", "--k-min", "0", "--k-max", "3e7",
            "--num", "5"), "kx,ky,kz,re,im,abs_norm", lambda r: r["rows"]),
    "mu-at": (("mu", "cube_large.json", "--at", "1e7,2e7,-3e7", "--at", "0,0,0"),
              "kx,ky,kz,re,im,abs_norm", lambda r: r["rows"]),
    "heat": (("heat", "cube_large.json"), HEAT_COLUMNS, lambda r: [r]),
    "heat-mc": (("heat", "cube_small.json", "--mc"),
                HEAT_COLUMNS.replace("gamma_cm,", "gamma_cm,gamma_cm_mc,gamma_cm_mc_stderr,"),
                lambda r: [r]),
    "scan": (("scan", "scan.json"), "r_c,gamma_cm_per_lambda,reduction_factor,converged",
             lambda r: r["rows"]),
    "scan-bound": (("scan", "bound.json", "--rc-min", "1e-8", "--rc-max", "1e-6",
                    "--num", "3"),
                   "r_c,gamma_cm_per_lambda,reduction_factor,lambda_bound,converged",
                   lambda r: r["rows"]),
    "optimize": (("optimize", "optimize.json"), "n_pairs,gamma_cm",
                 lambda r: r["evaluations"]),
    "discriminate": (
        ("discriminate", "discriminate.json"),
        "n_pairs,gamma_cm,thermal_power,saturation_power",
        lambda r: [{"n_pairs": n, "gamma_cm": g, "thermal_power": r["thermal_power"],
                    "saturation_power": s}
                   for n, g, s in zip(r["n_pairs"], r["gamma_cms"],
                                      r["saturation_powers"])],
    ),
}


@pytest.mark.parametrize("name", CSV_RUNS)
def test_csv_rows_match_json(capsys, name):
    (command, spec, *rest), header, json_rows = CSV_RUNS[name]
    argv = (command, "--spec", str(SPECS / spec), *rest)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = json_rows(json.loads(out)["result"])
    code, out, _ = run(capsys, *argv, "--csv")
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert ",".join(reader.fieldnames) == header
    assert len(rows) == len(want)
    for row, expected in zip(rows, want):
        assert row.keys() == expected.keys()
        for key, cell in row.items():
            if isinstance(expected[key], bool):
                assert cell == json.dumps(expected[key])
            else:
                assert float(cell) == expected[key]


def test_lattice_check_failure_written_then_exit_3(tmp_path, capsys, monkeypatch):
    from cslheat import cli

    monkeypatch.setattr(cli, "lattice_check", lambda seed, r_c: {"all_passed": False})
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "lattice-check", "--spec", str(SPECS / "point.json"),
                       "--out", str(target))
    assert code == 3
    assert out == ""
    assert json.loads(target.read_text())["result"] == {"all_passed": False}


def test_bound_zero_power(tmp_path, capsys):
    doc = json.loads((SPECS / "bound.json").read_text())
    doc["task"]["observed_power"] = 0.0
    path = tmp_path / "bound0.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "bound", "--spec", str(path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["lambda_max"] == 0.0
    assert result["unbounded"] is False


def test_bound_round_trip(capsys):
    code, out, _ = run(capsys, "bound", "--spec", str(SPECS / "bound.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["lambda_max"] > 0.0


def test_exit_2_on_malformed_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "heat", "--spec", str(bad))
    assert code == 2
    assert "spec error" in err


def test_exit_2_on_invalid_value(tmp_path, capsys):
    doc = json.loads((SPECS / "point.json").read_text())
    doc["csl"]["r_c"] = 0.0
    path = tmp_path / "rc0.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "heat", "--spec", str(path))
    assert code == 2
    assert "csl.r_c" in err


@pytest.mark.parametrize(
    "spec_file, replace, field",
    [
        ("point.json", ('"lambda": 1e-16', '"lambda": Infinity'), "csl.lambda"),
        ("cube_large.json", ('"lx": 1e-06', '"lx": 1e999'), "mass_model.lx"),
        ("point.json", ('"type": "point"', '"type": "point", "offset": [0, "a", 0]'),
         "mass_model.offset"),
        ("point.json", ('"lambda": 1e-16', '"lambda": NaN'), "csl.lambda"),
    ],
)
def test_exit_2_on_non_finite_or_non_numeric(tmp_path, capsys, spec_file, replace, field):
    text = (SPECS / spec_file).read_text()
    assert replace[0] in text
    path = tmp_path / "bad.json"
    path.write_text(text.replace(replace[0], replace[1]))
    code, out, err = run(capsys, "heat", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert field in err


def _run_edited(tmp_path, capsys, spec_file, edit, *argv):
    doc = json.loads((SPECS / spec_file).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return run(capsys, argv[0], "--spec", str(path), *argv[1:])


@pytest.mark.parametrize(
    "command, spec_file, task, field",
    [
        ("scan", "point.json", {"rc_grid": [1e-7, "Infinity"]}, "task.rc_grid[1]"),
        ("scan", "point.json", {"rc_grid": 1e-7}, "task.rc_grid"),
        ("scan", "point.json", {"rc_min": 1e-7, "rc_max": "NaN", "num": 3},
         "task.rc_max"),
        ("scan", "point.json", {"rc_min": 1e-7, "rc_max": 1e-6, "num": 2.5},
         "task.num"),
        ("scan", "point.json", {"rc_grid": [1e-7], "observed_power": "Infinity"},
         "task.observed_power"),
        ("discriminate", "discriminate.json", {"threshold": "NaN"}, "task.threshold"),
        ("discriminate", "discriminate.json", {"mass_ratio": "Infinity"},
         "task.mass_ratio"),
        ("discriminate", "discriminate.json", {"designs": [1, "Infinity"]},
         "task.designs[1]"),
        ("discriminate", "discriminate.json", {"designs": [1]}, "task.designs"),
        ("discriminate", "discriminate.json", {"designs": []}, "task.designs"),
        ("bound", "bound.json", {"observed_power": -1.0}, "task.observed_power"),
        ("scan", "scan.json", {"observed_power": -1.0}, "task.observed_power"),
        ("scan", "point.json", {"rc_min": 0.0, "rc_max": 1e-6, "num": 3}, "task.rc_min"),
        ("scan", "point.json", {"rc_min": 1e-8, "rc_max": 1e-6, "num": 0}, "task.num"),
        ("scan", "point.json", {"rc_grid": [1e-6, 1e-7]}, "task.rc_grid"),
        ("optimize", "optimize.json", {"material_a": {"name": "x", "density": 0.0}},
         "task.material_a.density"),
        ("discriminate", "discriminate.json", {"threshold": -1.0}, "task.threshold"),
    ],
)
def test_exit_2_on_bad_task_number(tmp_path, capsys, command, spec_file, task, field):
    def edit(doc):
        doc["task"] = {**doc.get("task", {}), **task}

    code, out, err = _run_edited(tmp_path, capsys, spec_file, edit, command)
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize(
    "quadrature, argv, field",
    [
        ({"rng_seed": -1}, (), "quadrature.rng_seed"),
        ({"mc_samples": 5000.5}, (), "quadrature.mc_samples"),
        ({}, ("--seed", "-1"), "--seed"),
    ],
)
def test_exit_2_on_bad_mc_settings(tmp_path, capsys, quadrature, argv, field):
    code, out, err = _run_edited(
        tmp_path, capsys, "point.json", lambda doc: doc.update(quadrature=quadrature),
        "heat", "--mc", *argv,
    )
    assert code == 2
    assert out == ""
    assert field in err


def test_integral_float_mc_samples_accepted(tmp_path, capsys):
    code, out, _ = _run_edited(
        tmp_path, capsys, "point.json",
        lambda doc: doc.update(quadrature={"mc_samples": 5000.0}), "heat", "--mc",
    )
    assert code == 0
    assert json.loads(out)["quadrature"]["mc_samples"] == 5000


def test_exit_2_on_missing_file(capsys):
    code, _, _ = run(capsys, "heat", "--spec", "/nonexistent/spec.json")
    assert code == 2


def test_exit_2_on_missing_task(tmp_path, capsys):
    code, _, err = run(capsys, "bound", "--spec", str(SPECS / "point.json"))
    assert code == 2
    assert "task.observed_power" in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (("mu", "point.json", "--at", "nan,0,0"), "--at"),
        (("mu", "point.json", "--at", "1e400,0,0"), "--at"),
        (("mu", "point.json", "--at", "a,0,0"), "--at"),
        (("mu", "point.json", "--at", "1,2"), "--at"),
        (("mu", "point.json", "--k-min", "0", "--k-max", "nan", "--num", "3"), "--k-max"),
        (("mu", "point.json", "--k-min", "0", "--k-max", "1e7", "--num", "-3"), "--num"),
        (("mu", "point.json", "--k-min", "0", "--num", "3"), "--num"),
        (("scan", "point.json", "--rc-min", "1e-8", "--rc-max", "1e-6", "--num", "-2"),
         "--num"),
        (("scan", "point.json", "--rc-min", "0", "--rc-max", "1e-6", "--num", "2"),
         "--rc-min"),
        (("scan", "point.json", "--rc-min", "1e-6", "--rc-max", "1e-8", "--num", "2"),
         "--rc-min"),
        (("scan", "point.json", "--rc-min", "1e-320", "--rc-max", "1e-319", "--num", "2"),
         "--rc-min"),
        (("scan", "point.json", "--rc-min", "1e-8"), "--rc-min"),
        (("heat", "point.json", "--seed", "1.5"), "--seed"),
        (("heat", "point.json", "--seed", "a"), "--seed"),
    ],
)
def test_exit_2_on_bad_flag_value(capsys, argv, field):
    command, spec, *rest = argv
    code, out, err = run(capsys, command, "--spec", str(SPECS / spec), *rest)
    assert code == 2
    assert out == ""
    assert err.startswith(f"spec error: {field}: ")


def test_flag_values_read_as_numbers(capsys):
    # integral floats count as counts and seeds; an integer seed stays exact
    code, out, _ = run(capsys, "mu", "--spec", str(SPECS / "point.json"),
                       "--k-min", "0", "--k-max", "1e7", "--num", "2.0")
    assert code == 0
    assert [row["kx"] for row in json.loads(out)["result"]["rows"]] == [0.0, 1e7]
    seed = str(2**53 + 1)
    code, out, _ = run(capsys, "heat", "--spec", str(SPECS / "point.json"), "--seed", seed)
    assert code == 0
    assert json.loads(out)["quadrature"]["rng_seed"] == 2**53 + 1


def test_process_exit_code_is_mains(capsys):
    argv = ["mu", "--spec", str(SPECS / "point.json"), "--at", "nan,0,0"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SPECS.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "cslheat.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (main(argv), "") == (2, "")
    assert proc.stderr == capsys.readouterr().err


def test_common_commands_do_not_load_scipy(tmp_path):
    # scipy.special is imported only by the direct kernels of multi-layer
    # profiles at least 2 r_c high, of one-layer lines 2 to 16 r_c wide
    # (wider ones take erf = 1 exactly), of discs of radius at least r_c,
    # and by the disc form factor; these runs take none of them.
    # sys.modules, unlike -X importtime output, is the interpreter's own
    # record of what was imported.
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "csl": {"lambda": -1, "r_c": 1e-7}}')
    plate = json.loads((SPECS / "plate.json").read_text())
    # the plate's body (sides of 10^4 and 100 r_c) under bound.json's task
    plate_bound = tmp_path / "plate_bound.json"
    plate_bound.write_text(json.dumps(
        dict(plate, task=json.loads((SPECS / "bound.json").read_text())["task"])))
    # sides of exactly 16 r_c (1.6e-6 / 1e-7 rounds to 16.0), the first
    # width that takes erf = 1
    edge = tmp_path / "cube16.json"
    edge.write_text(json.dumps(dict(plate, mass_model=dict(
        plate["mass_model"], lx=1.6e-6, ly=1.6e-6, lz=1.6e-6))))
    # a cylinder under both series switches (height 2 r_c, radius r_c): its
    # line and disc take their series in scalar floats (cube_small's sides,
    # 0.1 r_c, cover the one-layer line series on its own)
    thin = tmp_path / "cylinder.json"
    thin.write_text(json.dumps({
        "version": 1, "csl": {"lambda": 1e-16, "r_c": 1e-7},
        "mass_model": {"type": "cylinder", "radius": 9e-8, "height": 1.9e-7,
                       "material": {"name": "silicon", "density": 2329.0}}}))
    runs = [
        (["heat", "--spec", str(SPECS / "point.json")], 0),
        (["heat", "--spec", str(SPECS / "cube_small.json")], 0),
        (["heat", "--spec", str(SPECS / "sphere.json")], 0),
        (["heat", "--spec", str(thin)], 0),
        (["bound", "--spec", str(SPECS / "bound.json")], 0),
        (["heat", "--spec", str(SPECS / "plate.json")], 0),
        (["bound", "--spec", str(plate_bound)], 0),
        (["heat", "--spec", str(edge)], 0),
        (["mu", "--spec", str(SPECS / "stack16.json"), "--at", "1e7,0,2e7"], 0),
        (["lattice-check", "--spec", str(SPECS / "point.json")], 0),
        (["heat", "--spec", str(bad)], 2),
    ]
    script = ("import contextlib, io, json, sys\n"
              "from cslheat.cli import main\n"
              "codes = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "            contextlib.redirect_stderr(io.StringIO()):\n"
              "        codes.append(main(argv))\n"
              "print(json.dumps([codes, 'scipy.special' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SPECS.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps([a for a, _ in runs])],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == [[code for _, code in runs], False]


def test_exit_3_on_compute_error(capsys, monkeypatch):
    from cslheat import cli

    def fail(*args):
        raise ArithmeticError("gamma_cm exceeds gamma_total")

    monkeypatch.setattr(cli, "heating_report", fail)
    code, out, err = run(capsys, "heat", "--spec", str(SPECS / "point.json"))
    assert code == 3
    assert out == ""
    assert err == "compute error: gamma_cm exceeds gamma_total\n"


def test_exit_4_on_infeasible_design(tmp_path, capsys):
    doc = json.loads((SPECS / "optimize.json").read_text())
    doc["task"]["n_min"] = 5
    doc["task"]["n_max"] = 4  # empty range
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "optimize", "--spec", str(path))
    assert code == 4
    assert "infeasible" in err


def test_optimize_payload(tmp_path, capsys):
    doc = json.loads((SPECS / "optimize.json").read_text())
    doc["task"]["n_max"] = 4
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "optimize", "--spec", str(path))
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["evaluations"]) == 4
    assert result["gamma_cm"] == max(e["gamma_cm"] for e in result["evaluations"])


def test_best_design_is_a_spec_stack(tmp_path, capsys):
    # the optimum of `optimize`, written as a spec's mass_model, reads back
    # as the same stack and `heat` gives the optimum's gamma_cm bit for bit
    spec = load_spec(SPECS / "optimize.json")
    code, out, _ = run(capsys, "optimize", "--spec", str(SPECS / "optimize.json"))
    assert code == 0
    optimum = json.loads(out)["result"]
    task = spec.task
    best = optimize_layers(
        task["total_mass"],
        (parse_material(task["material_a"]), parse_material(task["material_b"])),
        (task["lx"], task["ly"]), range(task["n_min"], task["n_max"] + 1),
        spec.csl, spec.quadrature, mass_ratio=task["mass_ratio"],
    ).best
    assert best.to_dict() == optimum["best"] and best.n_pairs == optimum["n_pairs"]
    path = tmp_path / "best.json"
    path.write_text(dumps_spec(ExperimentSpec(1, spec.csl, best, spec.quadrature)))
    stack = loads_spec(path.read_text()).mass_model
    assert (stack.lx, stack.ly, stack.layers) == (best.lx, best.ly, best.layers)
    code, out, _ = run(capsys, "heat", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["result"]["gamma_cm"] == optimum["gamma_cm"]


def test_discriminate_payload(capsys):
    code, out, _ = run(capsys, "discriminate", "--spec", str(SPECS / "discriminate.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["spread"] > 0.1
    assert result["discriminating"] is True
    assert len(result["gamma_cms"]) == 2


def test_lattice_check_passes(capsys):
    code, out, _ = run(capsys, "lattice-check", "--spec", str(SPECS / "point.json"))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["all_passed"] is True


def test_seed_override_recorded_and_effective(capsys):
    code1, out1, _ = run(
        capsys, "heat", "--spec", str(SPECS / "cube_small.json"), "--mc",
        "--seed", "1",
    )
    code2, out2, _ = run(
        capsys, "heat", "--spec", str(SPECS / "cube_small.json"), "--mc",
        "--seed", "2",
    )
    assert code1 == code2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["quadrature"]["rng_seed"] == 1
    assert p2["quadrature"]["rng_seed"] == 2
    assert p1["result"]["gamma_cm_mc"] != p2["result"]["gamma_cm_mc"]
    assert p1["result"]["gamma_cm"] == p2["result"]["gamma_cm"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "payload.json"
    code, out, _ = run(
        capsys, "heat", "--spec", str(SPECS / "point.json"), "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "heat"


@pytest.mark.parametrize(
    "argv",
    [
        ("heat", "--spec", "point.json", "--mc"),
        ("heat", "--spec", "stack16.json"),
        ("mu", "--spec", "cube_large.json", "--k-min", "0", "--k-max", "1e8",
         "--num", "64"),
        ("scan", "--spec", "point.json", "--rc-min", "1e-8", "--rc-max", "1e-6",
         "--num", "4"),
        ("bound", "--spec", "bound.json"),
        ("discriminate", "--spec", "discriminate.json"),
        ("lattice-check", "--spec", "point.json"),
    ],
)
def test_byte_reproducibility(capsys, argv):
    argv = list(argv)
    argv[2] = str(SPECS / argv[2])
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_parser_reuse_keeps_output(capsys):
    from cslheat import cli

    heat = ("heat", "--spec", str(SPECS / "point.json"), "--mc", "--seed", "5")
    scan = ("scan", "--spec", str(SPECS / "point.json"), "--csv",
            "--rc-min", "1e-8", "--rc-max", "1e-6", "--num", "3")
    first = {}
    for argv in (heat, scan):
        cli.build_parser.cache_clear()
        first[argv] = run(capsys, *argv)
    assert all(code == 0 for code, _, _ in first.values())
    for argv in (scan, heat, scan, heat):
        assert run(capsys, *argv) == first[argv]


# Payloads of every committed spec recorded from commit d6f4238, before the
# one-branch special kernels, the blocked Monte-Carlo estimator and the
# site-blocked mu_tilde_discrete; those of sphere, cylinder, point_offset and
# stack_offset recorded from commit 3c106e8, before the one-class-per-shape
# geometry.  The `heat --mc` payloads of the cuboid, stack and cylinder
# specs were re-recorded when the Monte Carlo moved to one estimator of the
# factors' moments (shared draws per factor in place of separate A and B
# batches per axis, or 3D wavevectors for the cylinder).  The `mu --axis x`
# sweeps of scan, stack16 and stack_offset were re-recorded when a stack's
# form factor became the mass times its three line factors (the product's
# operand order moved their last digit; test_axis_sweep_matches_mpmath
# holds them to an independent reference).  `optimize optimize.json` and
# `discriminate discriminate.json` were re-recorded when periodic stacks
# of 32 layers or more folded into lag sums (the 16-pair design's
# gamma_cm moved in its last digits, and with it discriminate's spread;
# old and new values are each within 4e-15 of 40-digit mpmath).  The
# `mu --axis x` sweeps of the cuboids, cylinder, sphere, point-mass specs
# and stack16 and stack_offset were re-recorded when the normalized form
# factor divided its real and imaginary parts by the mass separately
# (|f(0)| is now exactly 1; rows moved by at most an ulp, and no record's
# largest error against 30-digit mpmath grew).  The 9 `lattice-check`
# records were re-recorded in `rel_difference` alone when both lattice
# rates took their prefactor from core.gamma_total (1.47e-15 -> 9.80e-16;
# test_probe_rates_match_mpmath holds both rates within 2e-15 of 40-digit
# mpmath), and again when the separable rate divided its raw axis sums by
# the exact squared weight sum (9.80e-16 -> 6.54e-16; the separable rate
# is now held within 1e-15).  The `heat --mc` payloads of point,
# point_offset, discriminate, optimize, cylinder and sphere were re-recorded
# in gamma_cm_mc and gamma_cm_mc_stderr alone when the estimator drew a
# disc's or ball's |u|^2 from its Gamma(d / 2, 1) law in place of summing
# squared normals (new draws; z against the closed form -0.34 -> 0.28 for
# the point masses, 0.63 -> 0.49 for the cylinder, 1.76 -> -0.17 for the
# sphere; the cuboid and stack draws kept their bits).  Commands that run none of
# those emit the same bytes; the rest agree with the recording to rounding.
RECORDED = json.loads((Path(__file__).resolve().parent / "data" /
                       "cli_payloads.json").read_text())
# fields computed by the rewritten routes, with the agreement each holds to
ROUNDED_FIELDS = {
    "gamma_cm_mc": ("rel", 1e-14),
    "gamma_cm_mc_stderr": ("rel", 1e-14),
    "max_ratio": ("abs", 1e-13),  # |mu_discrete| / M
    "rel_errors": ("abs", 1e-13),  # |mu_discrete - mu| / M
    "slope": ("abs", 1e-7),  # fit to log(rel_errors), errors down to 8e-6
    "re": ("abs", 1e-15),  # normalized form factor
    "im": ("abs", 1e-15),
    "abs_norm": ("abs", 1e-15),
}


def _assert_payloads_agree(got, want, field=None):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_payloads_agree(got[key], want[key], field=key)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_payloads_agree(g, w, field)
    elif field in ROUNDED_FIELDS and isinstance(want, float):
        kind, tol = ROUNDED_FIELDS[field]
        assert abs(got - want) <= (tol * abs(want) if kind == "rel" else tol)
    else:
        assert got == want


@pytest.mark.parametrize("record", RECORDED, ids=lambda r: " ".join(r["argv"]))
def test_payloads_match_recording(capsys, record):
    command, spec, *rest = record["argv"]
    code, out, _ = run(capsys, command, "--spec", str(SPECS / spec), *rest)
    assert code == 0
    if command != "lattice-check" and "--mc" not in rest and "--at" not in rest:
        assert out == record["stdout"]
    else:
        # the --at rows include (1e-300, 0, 1e3), whose sinc arguments lie
        # below the former series switch: a few ulp from the recording there
        _assert_payloads_agree(json.loads(out), json.loads(record["stdout"]))


def _x_factor_mp(body, kx):
    """A body's x factor at kx in mpmath, offset phase included: sinc(kx lx / 2)
    for a cuboid or stack, 2 J1(x)/x for a cylinder's disc and
    3 (sin x - x cos x)/x^3 for a ball (x = kx R), 1 for a point mass."""
    import mpmath as mp

    kind, x0 = body["type"], mp.mpf(body.get("offset", [0.0])[0])
    if kind == "point":
        x0 += mp.mpf(body.get("position", [0.0])[0])
        form = mp.mpf(1)
    elif kind in ("cuboid", "layered_stack"):
        half = kx * mp.mpf(body["lx"]) / 2
        form = mp.sin(half) / half if half else mp.mpf(1)
    else:
        x = kx * mp.mpf(body["radius"])
        if not x:
            form = mp.mpf(1)
        elif kind == "cylinder":
            form = 2 * mp.besselj(1, x) / x
        else:
            form = 3 * (mp.sin(x) - x * mp.cos(x)) / x**3
    return form * mp.expj(-kx * x0)


# every recorded `mu --axis x` sweep (the re-recorded ones among them)
AXIS_SWEEP_SPECS = ["scan.json", "stack16.json", "stack_offset.json", "bound.json",
                    "cube_large.json", "cube_small.json", "plate.json", "cylinder.json",
                    "sphere.json", "point.json", "point_offset.json", "optimize.json",
                    "discriminate.json"]


@pytest.mark.parametrize("spec", AXIS_SWEEP_SPECS)
def test_axis_sweep_matches_mpmath(capsys, spec):
    # the `mu --axis x` rows, recorded and live, against the body's x factor
    # at 30 digits, to ROUNDED_FIELDS
    import mpmath as mp

    argv = ["mu", spec, "--axis", "x", "--k-min", "0", "--k-max", "3e7", "--num", "9"]
    (recorded,) = [record["stdout"] for record in RECORDED if record["argv"] == argv]
    body = json.loads((SPECS / spec).read_text())["mass_model"]
    code, out, _ = run(capsys, "mu", "--spec", str(SPECS / spec), *argv[2:])
    assert code == 0
    rows = json.loads(out)["result"]["rows"] + json.loads(recorded)["result"]["rows"]
    with mp.workdps(30):
        for row in rows:
            want = _x_factor_mp(body, mp.mpf(row["kx"]))
            for field, value in (("re", want.real), ("im", want.imag),
                                 ("abs_norm", abs(want))):
                assert abs(row[field] - value) <= ROUNDED_FIELDS[field][1]
