"""cslheat benchmark: one workload in one process, one client, closed loop.

    python3 perfbench/run.py --workload {requests,design,oracles} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a cslheat checkout; it imports the package from
``src/``.  The next op starts when the previous one returns.  After a
fixed warm-up op, whole rounds of the workload's ops run until their
summed wall time reaches ``--seconds`` (at least two rounds, so every op
is also rerun).  Every output is checked against the independent
reference in ``reference.py``; a failed check exits 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones
from ``tracer.py``, and the spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import os

# one thread of BLAS, so that process CPU time is the client thread's work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 7
MIN_ROUNDS = 2
MODULES = ("cli", "core", "analysis", "heating", "quadrature", "geometry",
           "special", "lattice")


def load_api() -> SimpleNamespace:
    """Import the cslheat modules; the workloads call into them as attributes."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{name: importlib.import_module(f"cslheat.{name}")
                              for name in MODULES})


def make_workload(name: str, api, seed: int, ref):
    import workloads

    workdir = WORK / f"run-{os.getpid()}"
    return workloads.WORKLOADS[name](api, seed, workdir, ref)


def setup_probe(args) -> int:
    """Child process: import, build the inputs, one warm-up op, print its CPU time."""
    wl = make_workload(args.workload, load_api(), args.seed, None)
    try:
        wl.warmup.call()
        print(time.process_time(), flush=True)
    finally:
        wl.close()
    return 0


def setup_seconds(args) -> float:
    """Median CPU time of a fresh interpreter from its start to its first completed op.

    CPU rather than wall time: on a shared machine the wall time of a
    fresh import wanders by tens of percent from one minute to the next.
    """
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run(args) -> tuple[dict, int]:
    setup_s = None if args.trace else setup_seconds(args)

    # cslheat first, so that its import pays for numpy and scipy as a
    # user's would
    start = time.perf_counter()
    api = load_api()
    import_ms = 1e3 * (time.perf_counter() - start)

    import reference
    import workloads

    wl = make_workload(args.workload, api, args.seed, reference)
    tracer = None
    attempted = failed = 0
    walls, cpus = [], []
    per_op = {}  # op key -> wall seconds of each of its runs
    rounds = []  # (ops, wall seconds, CPU seconds) of each whole round
    errors = []
    try:
        wl.warmup.check(wl.warmup.call())
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(vars(api).values())
        gc.collect()
        while len(rounds) < MIN_ROUNDS or sum(walls) < args.seconds:
            first = len(walls)
            for op in wl.ops:
                attempted += 1
                c0, w0 = time.process_time(), time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # the program failed this op
                    failed += 1
                    print(f"op {op.key} failed: {exc!r}", file=sys.stderr)
                    continue
                w1, c1 = time.perf_counter(), time.process_time()
                walls.append(w1 - w0)
                cpus.append(c1 - c0)
                per_op.setdefault(op.key, []).append(w1 - w0)
                op.check(out)
            rounds.append((len(walls) - first, sum(walls[first:]), sum(cpus[first:])))
    except workloads.CheckError as exc:
        errors.append(str(exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    ops = len(walls)
    if errors or not ops:
        metrics = {}
    elif tracer is not None:
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
        cpu_ms = statistics.median(1e3 * c / n for n, _, c in rounds)
        layers = tracer.summary(ops, import_ms, cpu_ms)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        # Rates are medians over the rounds, and an op's wall time is the
        # median over its runs, so that a burst of load from elsewhere on
        # the machine moves one round rather than the run.  Percentiles are
        # over the distinct ops of the round (at least 100 per workload).
        typical = [statistics.median(v) for v in per_op.values()]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": statistics.median(n / w for n, w, _ in rounds),
                          "unit": "1/s"},
            "cpu_ms_per_op": {"value": statistics.median(1e3 * c / n for n, _, c in rounds),
                              "unit": "ms"},
            "op_p50_ms": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * statistics.quantiles(typical, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, 0 if not errors and ops else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["requests", "design", "oracles"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "cslheat" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'cslheat'} not found; run from the root of a cslheat "
              "checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    result, code = run(args)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
