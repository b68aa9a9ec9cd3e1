"""The spec boundary under malformed input, and the bounds on run time.

The fuzz mutates committed specs one value, key or list entry at a time
and runs them through cli.main: every outcome must be one of the
documented exit codes, never a traceback, and a success must print
strict JSON.  The slow commands (heat --mc, lattice-check) are left out.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cslheat import dumps_spec, load_spec, loads_spec, validate_spec
from cslheat.analysis import MAX_PAIRS, InfeasibleDesign, design_stack
from cslheat.cli import main
from cslheat.core import MAX_MC_SAMPLES
from cslheat.geometry import Material

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


# the extreme values overflow numpy on purpose; they must end in an exit code
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_specs_exit_cleanly(tmp_path, data):
    command = data.draw(st.sampled_from(["heat", "bound", "mu", *TASK_SPECS]))
    name = TASK_SPECS.get(command) or data.draw(st.sampled_from(SPEC_FILES))
    doc = json.loads((SPECS / name).read_text())
    path = data.draw(st.sampled_from(_paths(doc)))
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--spec", str(spec), *EXTRA_ARGS.get(command, [])])
    assert code in (0, 2, 3, 4), (command, name, path, action, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    else:
        assert out.getvalue() == ""


def _mutated(tmp_path, name, edit):
    doc = json.loads((SPECS / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


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
    spec = load_spec(SPECS / "sphere.json")

    def violations(samples):
        quad = dataclasses.replace(spec.quadrature, mc_samples=samples)
        return validate_spec(dataclasses.replace(spec, quadrature=quad))

    assert violations(MAX_MC_SAMPLES) == []
    assert [v.field for v in violations(MAX_MC_SAMPLES + 1)] == ["quadrature.mc_samples"]


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
