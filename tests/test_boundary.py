"""The spec boundary under malformed input, and the bounds on run time.

Derandomized fuzzes run cli.main.  One mutates committed specs one
value, key or list entry at a time: every outcome must be one of the
documented exit codes, never a traceback, and a success must print
strict JSON, or with --csv a rectangular table.  One feeds `heat`
arbitrary JSON documents and documents in the shape of a spec, and one
puts bad values into the flags of `mu`, `scan` and `heat`: both must end
in 0 or 2, never in a compute error.  Every failure leaves stdout empty,
except the failing report of lattice-check.  The slow commands, heat --mc
(on specs cut to 1,000 samples) and lattice-check, get their own
mutation fuzzes with few examples.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cslheat import ValidationError, dumps_spec, load_spec, loads_spec
from cslheat.analysis import MAX_PAIRS, InfeasibleDesign, design_stack
from cslheat.cli import main
from cslheat.core import MAX_EXTENT_RC, MAX_MC_SAMPLES
from cslheat.geometry import SHAPES, Material
from cslheat.heating import heating_report

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
SPEC_FILES = sorted(p.name for p in SPECS.glob("*.json"))
# the task-driven commands run on the spec that carries their task
TASK_SPECS = {"scan": "scan.json", "optimize": "optimize.json",
              "discriminate": "discriminate.json"}
EXTRA_ARGS = {"mu": ["--at", "1e7,2e7,-3e7", "--at", "0,0,0"]}
BAD_VALUES = [None, True, [], {}, "a", "NaN", float("nan"), 1e308, -1e308, 1e-320, 2**70]


def _paths(node, prefix=()):
    """Key and index paths of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _refuse_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_clean_exit(code, out, fmt=()):
    if code == 0 and fmt:
        header, *rows = csv.reader(io.StringIO(out))
        assert len(set(header)) == len(header)
        assert all(len(row) == len(header) for row in rows)
    elif code == 0:
        json.loads(out, parse_constant=_refuse_constant)
    else:
        assert out == ""


# the extreme values overflow numpy on purpose; they must end in an exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_specs_exit_cleanly(tmp_path, data):
    command = data.draw(st.sampled_from(["heat", "bound", "mu", *TASK_SPECS]))
    # bound has no table: --csv would print the same JSON
    fmt = ["--csv"] if command != "bound" and data.draw(st.booleans()) else []
    name = TASK_SPECS.get(command) or data.draw(st.sampled_from(SPEC_FILES))
    doc = json.loads((SPECS / name).read_text())
    spec, mutation = _mutate(tmp_path, data, doc)
    code, out, err = _run_main([command, "--spec", str(spec), *EXTRA_ARGS.get(command, []),
                                *fmt])
    assert code in (0, 2, 3, 4), (command, name, *mutation, fmt, err)
    _assert_clean_exit(code, out, fmt)


def _mutate(tmp_path, data, doc, paths=None):
    """Write doc with one value replaced by a bad one, one key deleted or
    one unknown key added, at one of paths (by default every path)."""
    path = data.draw(st.sampled_from(paths or _paths(doc)))
    parent, key = _at(doc, path[:-1]), path[-1]
    action = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[key] = data.draw(st.sampled_from(BAD_VALUES))
    elif action == "delete":
        del parent[key]
    else:
        target = parent[key] if isinstance(parent[key], dict) else doc
        target["unknown_key"] = 1.0
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    return spec, (path, action)


# mutating the sample count or its object could fall back to the default
# 200,000 samples (about 0.3 s a run), which test_mc_samples_cap and the
# readers' tests cover; every other path is mutated
_MC_FIXED = {("quadrature",), ("quadrature", "mc_samples")}


def _mutated_slow_run(tmp_path, data, argv):
    name = data.draw(st.sampled_from(SPEC_FILES))
    doc = json.loads((SPECS / name).read_text())
    doc["quadrature"] = {**doc.get("quadrature", {}), "mc_samples": 1000}
    spec, mutation = _mutate(tmp_path, data, doc,
                             [p for p in _paths(doc) if p not in _MC_FIXED])
    code, out, err = _run_main([argv[0], "--spec", str(spec), *argv[1:]])
    assert code in (0, 2, 3, 4), (argv, name, *mutation, err)
    if argv[0] == "lattice-check" and code == 3 and out:
        # a failing lattice-check report is written, then exits 3
        assert not json.loads(out, parse_constant=_refuse_constant)["result"]["all_passed"]
    else:
        _assert_clean_exit(code, out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_specs_exit_cleanly_heat_mc(tmp_path, data):
    _mutated_slow_run(tmp_path, data, ["heat", "--mc"])


# lattice-check takes about 0.1 s a run, whatever the spec
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_specs_exit_cleanly_lattice_check(tmp_path, data):
    _mutated_slow_run(tmp_path, data, ["lattice-check"])


# arbitrary JSON, and documents in the shape of a spec whose every value
# is of the right kind half of the time, else a number of any size or
# sign (NaN and Infinity included) or arbitrary JSON
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12,
)


def _value(typed):
    return st.one_of(typed, typed, typed, st.floats(), st.integers(-1, 10**6), JSON_VALUES)


_NUMBERS = _value(st.floats(1e-9, 1e-3))
_MATERIALS = _value(st.sampled_from(["gold", "unobtainium"])
                    | st.fixed_dictionaries({"name": st.just("m"), "density": _NUMBERS}))
_VALUES = {"offset": _value(st.lists(_NUMBERS, min_size=3, max_size=3)),
           "material": _MATERIALS,
           "layers": _value(st.lists(st.fixed_dictionaries(
               {"material": _MATERIALS, "thickness": _NUMBERS}), min_size=1, max_size=3))}
_VALUES["position"] = _VALUES["offset"]


def _objects(*keys, optional=()):
    return st.fixed_dictionaries({key: _VALUES.get(key, _NUMBERS) for key in keys},
                                 optional={key: _VALUES.get(key, _NUMBERS) for key in optional})


_MASS_MODELS = st.one_of(*(
    _objects(*(f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING),
             optional=[f.name for f in dataclasses.fields(cls)
                       if f.default is not dataclasses.MISSING]
             ).map(lambda obj, kind=kind: {"type": kind, **obj})
    for kind, cls in SHAPES.items()
))
SPEC_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"version": st.just(1), "csl": _objects("lambda", "r_c"), "mass_model": _MASS_MODELS},
    optional={"thermal": _objects("gamma_th", "temperature"),
              "quadrature": _objects(optional=("rel_tol", "u_max", "mc_samples", "rng_seed")),
              "task": JSON_VALUES},
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(doc=SPEC_DOCS)
def test_arbitrary_json_documents_exit_0_or_2(tmp_path, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))  # NaN and Infinity included
    code, out, err = _run_main(["heat", "--spec", str(spec)])
    assert code in (0, 2), (doc, err)
    _assert_clean_exit(code, out)


BAD_FLAG_VALUES = ["nan", "inf", "1e400", "-1", "0", "a", "1,2"]
# the flags of each command with good values; one at a time gets a bad one
FLAG_RUNS = {
    "mu": ("cube_large.json", {"--at": "1e7,2e7,-3e7", "--k-min": "0", "--k-max": "3e7",
                               "--num": "5", "--seed": "3"}),
    "scan": ("point.json", {"--rc-min": "1e-8", "--rc-max": "1e-6", "--num": "3",
                            "--seed": "3"}),
    "heat": ("point.json", {"--seed": "3"}),
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bad_flag_values_exit_0_or_2(data):
    command = data.draw(st.sampled_from(sorted(FLAG_RUNS)))
    spec, flags = FLAG_RUNS[command]
    flag = data.draw(st.sampled_from(sorted(flags)))
    value = data.draw(st.sampled_from(BAD_FLAG_VALUES))
    if flag == "--at" and data.draw(st.booleans()):
        parts = flags[flag].split(",")
        parts[data.draw(st.integers(0, 2))] = value
        value = ",".join(parts)
    # --flag=value: argparse would take a separate "-1,2e7,-3e7" for a flag
    argv = [command, "--spec", str(SPECS / spec),
            *(f"{name}={value if name == flag else good}" for name, good in flags.items())]
    code, out, err = _run_main(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert flag in err, (argv, err)
    _assert_clean_exit(code, out)


def _mutated(tmp_path, name, edit):
    doc = json.loads((SPECS / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name, edit, field", [
    ("cube_large.json", lambda doc: doc["mass_model"].update(lx=1e308),
     "mass_model: total mass"),
    ("point.json", lambda doc: doc["csl"].update(r_c=1e-320), "csl: "),
    ("stack16.json", lambda doc: doc["mass_model"]["layers"][3].update(thickness=1e308),
     "mass_model: total mass"),
    # radius**3 raises OverflowError rather than giving inf
    ("sphere.json", lambda doc: doc["mass_model"].update(radius=1e200),
     "mass_model: total mass"),
], ids=["lx", "r_c", "thickness", "radius"])
def test_extreme_finite_values_exit_2(tmp_path, capsys, name, edit, field):
    # finite inputs whose total mass or total rate overflows are refused
    # before any rate is computed, so numpy never warns
    path = _mutated(tmp_path, name, edit)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["heat", "--spec", str(path)]) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"spec error: {field}")
    assert len(err.splitlines()) == 1


def _huge_stack(doc):
    # 16 layers of 1e300 m are 1.6e308 r_c high, just below the float range
    doc["mass_model"].update(lx=1e-160, ly=1e-160)
    for layer in doc["mass_model"]["layers"]:
        layer["thickness"] = 1e300


def _huge_designs(doc):
    doc["csl"]["lambda"] = 1e10
    doc["task"].update(total_mass=1e300, lx=1e100, ly=1e100, n_min=1, n_max=2)


@pytest.mark.parametrize("argv, name, edit, field", [
    (["heat"], "stack16.json", _huge_stack, "mass_model.layers: "),
    # the total rate of every design overflows
    (["optimize"], "optimize.json", _huge_designs, "task: "),
    (["discriminate"], "discriminate.json", _huge_designs, "task: "),
    # the designs are 2.2e303 m high, 2.2e310 r_c, at a finite total rate
    (["optimize"], "optimize.json",
     lambda doc: doc["task"].update(total_mass=1e300, lx=1e-3, ly=1e-3), "task: "),
    (["discriminate"], "discriminate.json",
     lambda doc: doc["thermal"].update(gamma_th=1e300, temperature=1e300), "thermal: "),
    # a body 1e140 m long is 1e310 r_c at the smallest r_c of the grid
    (["scan", "--rc-min", "1e-170", "--rc-max", "1e-169", "--num", "2"], "cube_large.json",
     lambda doc: doc["mass_model"].update(lx=1e-160, ly=1e-160, lz=1e140),
     "--rc-min: mass_model.lz: "),
], ids=["stack_height", "optimize_rate", "discriminate_rate", "optimize_height",
        "thermal_power", "scan_extent"])
def test_overflowing_products_exit_2(tmp_path, capsys, argv, name, edit, field):
    # every value is finite, but a height over r_c, a design's total rate
    # or gamma_th k_B T overflows: refused before any of it is computed
    path = _mutated(tmp_path, name, edit)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], "--spec", str(path), *argv[1:]]) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"spec error: {field}")


R_C_TINY = 1e-140  # keeps a sphere of 5e149 r_c radius of finite mass


@pytest.mark.parametrize("model, field", [
    (lambda e: {"type": "cuboid", "lx": 1e-100, "ly": 1e-100, "lz": e, "material": "gold"},
     "lz"),
    (lambda e: {"type": "sphere", "radius": e / 2, "material": "gold"}, "radius"),
    (lambda e: {"type": "cylinder", "radius": 1e-100, "height": e, "material": "gold"},
     "height"),
    (lambda e: {"type": "layered_stack", "lx": 1e-100, "ly": 1e-100, "layers": [
        {"material": "gold", "thickness": e / 3}, {"material": "silicon", "thickness": e / 3},
        {"material": "gold", "thickness": e / 3}]}, "layers"),
], ids=["cuboid", "sphere", "cylinder", "layered_stack"])
def test_extent_bound(model, field):
    # an extent of MAX_EXTENT_RC r_c gives finite rates without a warning;
    # a little more is refused, naming the field that sets it
    def load(extent):
        return loads_spec(json.dumps({"version": 1, "csl": {"lambda": 1e-100, "r_c": R_C_TINY},
                                      "mass_model": model(extent)}))

    spec = load(0.999 * MAX_EXTENT_RC * R_C_TINY)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = heating_report(spec.mass_model, spec.csl, spec.quadrature)
    assert all(math.isfinite(v) for v in (report.gamma_cm, report.gamma_int))
    with pytest.raises(ValidationError) as info:
        load(1.01 * MAX_EXTENT_RC * R_C_TINY)
    assert info.value.field == f"mass_model.{field}"


def test_mass_model_type_of_any_json_kind_exits_2(tmp_path, capsys):
    for kind in ([], {}, None, 3, "blob"):
        path = _mutated(tmp_path, "sphere.json",
                        lambda doc: doc["mass_model"].update(type=kind))
        assert main(["heat", "--spec", str(path)]) == 2
        assert "mass_model.type: unknown mass model type" in capsys.readouterr().err


@pytest.mark.parametrize("name", SPEC_FILES)
def test_committed_specs_round_trip(name):
    # the field walk writes back every field of every shape, offset and
    # position included, and reads it back to an equal spec
    spec = load_spec(SPECS / name)
    assert loads_spec(dumps_spec(spec)) == spec


def test_mc_samples_cap():
    doc = json.loads((SPECS / "sphere.json").read_text())

    def load(samples):
        doc["quadrature"] = {"mc_samples": samples}
        return loads_spec(json.dumps(doc))

    assert load(MAX_MC_SAMPLES).quadrature.mc_samples == MAX_MC_SAMPLES
    with pytest.raises(ValidationError) as info:
        load(MAX_MC_SAMPLES + 1)
    assert info.value.field == "quadrature.mc_samples"


def test_mc_samples_above_cap_exits_2(tmp_path, capsys):
    path = _mutated(tmp_path, "sphere.json",
                    lambda doc: doc["quadrature"].update(mc_samples=MAX_MC_SAMPLES + 1))
    assert main(["heat", "--spec", str(path), "--mc"]) == 2
    assert "quadrature.mc_samples" in capsys.readouterr().err


def test_pair_count_cap():
    mat = Material("m", 1000.0)
    design_stack(1e-12, mat, mat, 1e-5, 1e-5, MAX_PAIRS)
    with pytest.raises(InfeasibleDesign):
        design_stack(1e-12, mat, mat, 1e-5, 1e-5, MAX_PAIRS + 1)


@pytest.mark.parametrize("n_min, n_max", [(1, 2**70), (-10**308, 16), (1, MAX_PAIRS + 1)])
def test_optimize_range_cap_exits_2(tmp_path, capsys, n_min, n_max):
    path = _mutated(tmp_path, "optimize.json",
                    lambda doc: doc["task"].update(n_min=n_min, n_max=n_max))
    assert main(["optimize", "--spec", str(path)]) == 2
    assert "task.n_max" in capsys.readouterr().err


@pytest.mark.parametrize("command, task", [
    ("optimize", {"ly": 1e-320}),  # the area underflows to 0
    ("optimize", {"lx": 1e-20, "ly": 1e-300}),  # the mass per area overflows
    ("optimize", {"total_mass": 1e300, "lx": 1e-10, "ly": 1e-10}),  # infinite layers
    ("discriminate", {"total_mass": 1e300, "lx": 1e-10, "ly": 1e-10}),
], ids=["area", "mass_per_area", "thickness", "discriminate"])
def test_degenerate_design_exits_4(tmp_path, capsys, command, task):
    path = _mutated(tmp_path, f"{command}.json", lambda doc: doc["task"].update(task))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--spec", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("infeasible design: ")


def test_discriminate_pair_cap_exits_4(tmp_path, capsys):
    path = _mutated(tmp_path, "discriminate.json",
                    lambda doc: doc["task"].update(designs=[1, 10**9]))
    assert main(["discriminate", "--spec", str(path)]) == 4
    assert "layer pairs" in capsys.readouterr().err


def test_lattice_check_bytes_independent_of_blas_threads():
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cslheat.cli", "lattice-check", "--spec",
             str(SPECS / "point.json")],
            env=env, capture_output=True, check=True, timeout=300,
        )
        digests.add(hashlib.sha256(proc.stdout).hexdigest())
    assert len(digests) == 1


def test_missing_key_named_independently_of_hash_seed():
    # with several keys missing, the first in schema order is named, not
    # the first in a set's hash-seeded iteration order
    docs = [
        {"version": 1, "csl": {"lambda": 1e-16, "r_c": 1e-7},
         "mass_model": {"type": "sphere", "radius": 1e-7, "material": {}}},
        {"version": 1, "csl": {}, "mass_model": {"type": "point", "mass": 1.0}},
        {},
        {"version": 1, "csl": {"lambda": 1e-16, "r_c": 1e-7},
         "mass_model": {"type": "cuboid", "material": "gold"}},
    ]
    script = ("import json, sys\n"
              "from cslheat.core import loads_spec\n"
              "for doc in json.loads(sys.argv[1]):\n"
              "    try:\n"
              "        loads_spec(json.dumps(doc))\n"
              "    except ValueError as exc:\n"
              "        print(exc)\n")
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(docs)], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outputs.add(proc.stdout)
    assert outputs == {"mass_model.material.name: missing required key\n"
                       "csl.lambda: missing required key\n"
                       "spec.version: missing required key\n"
                       "mass_model.lx: missing required key\n"}
