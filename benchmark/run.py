"""Benchmark of the orbit_isom pipeline: time to a checked answer.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload finite-analyze --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 1

One process, one client, one operation at a time (a closed loop), with
the BLAS threading users get by default. The seed fixes every generated
input and the ``seed=`` passed to the program. Each pass runs all of a
workload's operations and checks every output against a reference derived
from the mathematics (``reference.py``).

``--trace 0`` reports the end-to-end metrics of untraced passes. ``--trace
1`` runs one traced pass, reports its per-layer metrics and the tracing
overhead, and writes the spans to ``benchmark/out/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("finite-analyze", "catalog-analyze", "oracle")
# Set-up runs this many times in fresh processes, besides the run's own.
EXTRA_SETUPS = 2


def _require_source() -> None:
    if not (SRC / "orbit_isom" / "__init__.py").is_file():
        sys.exit(f"benchmark: no orbit_isom source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, trace: bool = False):
    """Import the package, generate the inputs and warm the catalog caches.

    Returns (operations, seconds, tracer). With ``trace`` the cache warm-up
    is traced as operation -1, so grid construction shows in the layer
    metrics.
    """
    t0 = time.perf_counter()
    import orbit_isom  # noqa: F401  (the import is part of set-up)

    import workloads
    ops, actions = workloads.build(workload, seed)
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
    with tracer.active() if tracer is not None else nullcontext():
        with tracer.operation(-1) if tracer is not None else nullcontext():
            for action in actions:
                action.grid()
                action.fs_sample()
    return ops, time.perf_counter() - t0, tracer


def _setup_in_child(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class PassResult:
    wall: float
    cpu: float
    outputs: list
    errors: list
    failed: list


def run_pass(ops, tracer=None) -> PassResult:
    outputs, errors, failed = [], [], []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        with tracer.operation(i) if tracer is not None else nullcontext():
            try:
                out = op.run()
                err = float(op.check(out))
            except Exception:  # a raising operation is a failed one; keep going
                traceback.print_exc(file=sys.stderr)
                out, err = None, math.inf
        outputs.append(out)
        errors.append(err)
        if not op.passed(err):
            failed.append(op.label)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    for label in failed:
        print(f"benchmark: {label} missed its reference", file=sys.stderr)
    return PassResult(wall, cpu, outputs, errors, failed)


def _blas() -> tuple[str, object]:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, threads


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas, threads = _blas()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": threads, "seed": seed}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[PassResult], setups: list[float], n_ops: int) -> dict:
    attempted = n_ops * len(passes)
    failed = sum(len(p.failed) for p in passes)
    return {
        "wall_s": _metric(statistics.median(p.wall for p in passes), "s"),
        "cpu_s": _metric(statistics.median(p.cpu for p in passes), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "correct_frac": _metric(1.0 - failed / attempted, "frac"),
    }


def layer_metrics(tracer, traced: PassResult, ops, span_cost: float) -> dict:
    """Per-layer metrics of the traced pass (grid time includes set-up).
    The tracing overhead is the span count times ``span_cost``, the measured
    cost of one wrapper."""
    pass_ops = set(range(len(ops)))
    rows = tracer.by_name(pass_ops)
    every = tracer.by_name()

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def total(*names):
        return sum(rows.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(name):
        return rows.get(name, (0, 0.0, 0.0))[2]

    def worst(kind):
        return max((e for op, e in zip(ops, traced.errors) if op.kind == kind), default=0.0)

    counters = tracer.counters
    tests = calls("orbit_geometry.orbit_equivalence_test")
    elements = calls("catalog.element")
    element_s = total("catalog.element")
    s, n, us, frac = "s", "count", "us", "frac"
    values = {
        "repr_model.enumerate_s": (total("repr_model.enumerate_group"), s),
        "repr_model.elements": (counters["repr_model.elements"], n),
        "repr_model.split_s": (total("repr_model.fixed_subspace", "repr_model.restrict_group"), s),
        "commutant.decompose_s": (total("commutant.commutant_basis", "commutant.isotypic_split",
                                        "commutant.equivariant_isometry_group"), s),
        "commutant.classify_s": (total("commutant.classify_component"), s),
        "isom_quotient.kernel_self_s": (own("isom_quotient.compute_kernel"), s),
        "isom_quotient.center_s": (total("isom_quotient.center_of_group",
                                         "isom_quotient.center_in_component"), s),
        "isom_quotient.kernel_candidates": (tracer.children_of(
            "isom_quotient.compute_kernel", "orbit_geometry.orbit_equivalence_test",
            pass_ops), n),
        "orbit_geometry.orbit_test_calls": (tests, n),
        "orbit_geometry.orbit_test_s": (total("orbit_geometry.orbit_equivalence_test"), s),
        "orbit_geometry.orbit_test_pass_ratio": (
            counters["orbit_geometry.orbit_test_passes"] / tests if tests else 0.0, frac),
        "orbit_geometry.boundary_s": (total("orbit_geometry.has_boundary"), s),
        "orbit_geometry.refine_calls": (calls("scipy.optimize.minimize"), n),
        "orbit_geometry.refine_nfev": (counters["orbit_geometry.refine_nfev"], n),
        "orbit_geometry.refine_nit": (counters["orbit_geometry.refine_nit"], n),
        "orbit_geometry.refine_self_s": (own("scipy.optimize.minimize"), s),
        "orbit_geometry.fallback_calls": (calls("_numerics.coordinate_descent"), n),
        "orbit_geometry.fallback_s": (total("_numerics.coordinate_descent"), s),
        "orbit_geometry.distance_calls": (calls("orbit_geometry.quotient_distance"), n),
        "orbit_geometry.distance_s": (total("orbit_geometry.quotient_distance"), s),
        "orbit_geometry.sector_self_s": (own("orbit_geometry.sector_angle_estimate"), s),
        "orbit_geometry.sector_err_rad": (worst("sector"), "rad"),
        "orbit_geometry.distance_err": (worst("distance"), "1"),
        "catalog.element_calls": (elements, n),
        "catalog.element_s": (element_s, s),
        "catalog.element_us": (1e6 * element_s / elements if elements else 0.0, us),
        "catalog.grid_s": (every.get("catalog.grid", (0, 0.0, 0.0))[1], s),
        "lift_verify.lift_s": (total("lift_verify.lift_rotation"), s),
        "lift_verify.descend_s": (total("lift_verify.descend_check"), s),
        "numerics.nullspace_s": (total("_numerics.nullspace"), s),
        "numerics.expm_calls": (calls("_numerics.expm"), n),
        "trace.wall_s": (traced.wall, s),
        "trace.overhead_s": (len(tracer) * span_cost, s),
        "trace.spans": (len(tracer), n),
    }
    return {k: _metric(float(v), u) for k, (v, u) in values.items()}


def self_time_shares(tracer, op_ids) -> str:
    """The four spans holding most self time over the given operations."""
    rows = tracer.by_name(set(op_ids))
    whole = sum(r[2] for r in rows.values()) or 1.0
    ranked = sorted(rows.items(), key=lambda kv: -kv[1][2])[:4]
    return f"{whole:.3f} s: " + ", ".join(
        f"{name} {100.0 * r[2] / whole:.1f}%" for name, r in ranked)


def print_shares(tracer, ops) -> None:
    """Self-time split of the whole traced pass and of each operation that
    took a tenth of it or more."""
    import tracing

    print("self time, pass " + self_time_shares(tracer, range(len(ops))))
    durations = tracer.durations()
    root = tracer.names.index(tracing.OP)
    op_time = {tracer.op[i]: durations[i] for i, nid in enumerate(tracer.name) if nid == root}
    whole = sum(t for i, t in op_time.items() if i >= 0)
    for i, op in enumerate(ops):
        if op_time.get(i, 0.0) >= 0.1 * whole:
            print(f"self time, {op.label} " + self_time_shares(tracer, [i]))


def _summary(workload: str, seed: int, metrics: dict, passes: str, failed: int,
             attempted: int) -> str:
    parts = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return (f"{workload} seed={seed} passes={passes} " + " ".join(parts)
            + f" failed_frac={failed / attempted:.6g} ({failed}/{attempted})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops, own_setup, tracer = setup(workload, seed, trace)
    print(json.dumps({"env": environment(seed)}))
    if trace:
        import tracing

        with tracer.active():
            traced = run_pass(ops, tracer)
        runs = [traced]
        passes = "1 traced"
        metrics = layer_metrics(tracer, traced, ops, tracing.span_cost())
        print_shares(tracer, ops)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
        tracer.write(path, {"workload": workload, "env": environment(seed),
                            "ops": [op.label for op in ops]})
        print(f"spans: {len(tracer)} written to {path.relative_to(ROOT)}")
    else:
        setups = [own_setup] + [_setup_in_child(workload, seed) for _ in range(EXTRA_SETUPS)]
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(run_pass(ops))
            if time.perf_counter() - start + runs[-1].wall > seconds:
                break
        metrics = end_to_end(runs, setups, len(ops))
        passes = str(len(runs))
    failed = sum(len(r.failed) for r in runs)
    attempted = len(ops) * len(runs)
    print(_summary(workload, seed, metrics, passes, failed, attempted))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload, each in its own process, merged into one result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_source()
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        print(setup(args.workload, args.seed)[1])
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
