#!/usr/bin/env python3
"""qrecur benchmark: one workload per run, inputs made from a seed, one
client in a closed loop.

    python3 benchmarks/run.py --workload {scan,cli,verify,all} --seed N \
        --seconds S --trace {0,1}

--trace 0 times whole passes over the workload with no wrappers installed
and reports the end-to-end metrics, every timing normalized by a
reference unit timed inside the same pass (calibrate.py). --trace 1
alternates untraced and traced passes of the workload for S seconds (the
difference is the tracing overhead), then traces one pass of each other
workload, so every traced run reports every per-layer metric. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
same result, with the environment and any spans, goes to .bench_out/.
See benchmarks/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("scan", "cli", "verify")
# One client process with one BLAS thread (nproc is the ceiling): the
# kernels work on n <= 32 matrices, where more threads add only noise.
BLAS_THREADS = 1
SETUP_REPEATS = 9
TAIL_BEYOND = 10
RAW_UNITS = {"wall_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "samples_per_s": "1/s"}
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])"
)


def fail(message: str):
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> dict:
    """Check the checkout, pin BLAS threads before numpy loads, and return
    the declared metrics from BENCHMARK.json."""
    if not (SRC / "qrecur" / "__init__.py").is_file():
        fail(f"no qrecur sources under {SRC}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    return json.loads(spec_path.read_text())


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args()


# ---------------------------------------------------------------------------
# environment


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qrecur").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads_requested": BLAS_THREADS,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports qrecur and
    builds the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload, str(seed),
             str(OUT_DIR)],
            cwd=ROOT, capture_output=True, check=True, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """One workload's pass and per-operation check."""

    def __init__(self, workload: str, seed: int, small: bool = False):
        import workloads

        self.workload = workload
        self.seed = seed
        self.small = small
        self.inputs = workloads.build(workload, seed, OUT_DIR, small)
        if workload == "scan":
            by_label = {case.label: case for case in self.inputs}
            self.check = lambda op: workloads.check_scan(by_label[op.label], op)
        elif workload == "cli":
            self.check = lambda op: workloads.check_cli(self.inputs, op)
        else:
            self.check = lambda op: None  # verify_pass reads each suite's ok flag

    def run(self, tracer, traced: bool = False, reference=None):
        """One pass: (wall seconds, checked operations). A traced pass
        installs the wrappers only for its own duration. With a reference,
        a scan or cli pass times a share of the reference unit after each
        operation; the wall time excludes them."""
        import workloads

        if traced:
            tracer.install()
            tracer.enabled = True
        try:
            with tracer.span(f"{self.workload}.pass"):
                start = time.perf_counter()
                after = None
                if reference:
                    reference.begin_pass()
                    after = reference.measure_case
                if self.workload == "scan":
                    ops = workloads.scan_pass(self.inputs, tracer, after)
                elif self.workload == "cli":
                    ops = workloads.cli_pass(self.inputs, tracer, traced, after)
                else:
                    ops = workloads.verify_pass(self.seed, tracer, self.small)
                wall = time.perf_counter() - start
                if reference:
                    wall -= reference.end_pass()
        finally:
            if traced:
                tracer.enabled = False
                tracer.restore()
        for op in ops:
            self.check(op)
        return wall, ops

    def fidelity_errors(self, tracer) -> list[float] | None:
        """|F - F_ref| over the probe set (the seed's scan systems at fixed
        times) and, for cli, every row of its CSV output. One pure state's
        CSV alone would make the maximum swing with the seed."""
        import workloads

        if self.workload == "scan":
            return workloads.scan_fidelity_errors(self.inputs, tracer)
        if self.workload == "cli":
            probes = workloads.build_scan(self.seed)
            return (workloads.scan_fidelity_errors(probes, tracer)
                    + workloads.cli_fidelity_errors(self.inputs))
        return None  # the suites print no fidelities


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    rank as a percentage; the maximum when that percentile would fall
    below the median (fewer than 21 samples)."""
    ordered = sorted(values)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mb(workload: str) -> float:
    """ru_maxrss in kB; the CLI's memory is its children's."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6


def untraced_run(workload: str, seed: int, seconds: int):
    import workloads
    from calibrate import Reference
    from tracing import Tracer

    runner = Runner(workload, seed)
    tracer = Tracer()  # disabled: spans are no-ops and nothing is wrapped
    # scan and cli time a reference share after every operation, inside
    # the pass; verify (about 15 s an operation) times whole units between
    # passes
    if workload == "cli":
        reference = Reference("cli", env=workloads.child_env())
    else:  # verify spends its time in the same kernel as scan
        reference = Reference("scan", cases=runner.inputs if workload == "scan"
                              else workloads.build_scan(seed))
    in_pass = None if workload == "verify" else reference
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if in_pass is None:
            reference.measure()
        passes.append(runner.run(tracer, reference=in_pass))
    if in_pass is None:
        reference.measure()
    rss = peak_rss_mb(workload)  # before any set-up child runs
    setup = measure_setup(workload, seed)
    errors = runner.fidelity_errors(tracer)

    walls = [wall for wall, _ in passes]
    ops = [op for _, pass_ops in passes for op in pass_ops]
    latencies = [op.latency_s for op in ops]
    tail_value, tail_rank = tail(latencies)
    raw = {
        "wall_s": statistics.median(walls),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_value,
    }
    factors = reference.pass_factors(len(passes))
    ref_walls = [wall * f for wall, f in zip(walls, factors)]
    ref_latencies = [op.latency_s * f for (_, pass_ops), f in zip(passes, factors)
                     for op in pass_ops]
    metrics = {
        "setup_s": setup,
        "wall_ref_s": statistics.median(ref_walls),
        "latency_p50_ref_ms": 1e3 * statistics.median(ref_latencies),
        "latency_tail_ref_ms": 1e3 * tail(ref_latencies)[0],
        "peak_rss_mb": rss,
    }
    if workload != "verify":
        samples = [sum(op.samples for op in pass_ops) for _, pass_ops in passes]
        raw["samples_per_s"] = statistics.median(n / w for n, w in zip(samples, walls))
        metrics["samples_per_ref_s"] = statistics.median(
            n / w for n, w in zip(samples, ref_walls))
        metrics["fidelity_err_max"] = max(errors)
    notes = {
        "passes": len(passes),
        "operations": len(ops),
        "latency_tail_percentile": tail_rank,
        "latency_samples": len(latencies),
        "reference_unit_s": statistics.median(reference.times),
        "reference_units": len(reference.times),
        "ref_factor_median": statistics.median(factors),
        "raw": raw,
    }
    return metrics, ops, errors, notes, []


def traced_run(workload: str, seed: int, seconds: int, small: bool = False):
    import layers
    import workloads
    from tracing import Tracer

    runners = {w: Runner(w, seed, small) for w in WORKLOADS}
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runners[workload].run(tracer))
        traced.append(runners[workload].run(tracer, traced=True))
    others = [runners[w].run(tracer, traced=True) for w in WORKLOADS if w != workload]

    tracer.install()
    tracer.enabled = True
    try:
        errors = runners["scan"].fidelity_errors(tracer)
    finally:
        tracer.enabled = False
        tracer.restore()
    errors += workloads.cli_fidelity_errors(runners["cli"].inputs)

    metrics = layers.per_layer(tracer.spans)
    metrics.update(layers.import_times(workloads.child_env()))
    overhead = statistics.median(w for w, _ in traced) - statistics.median(w for w, _ in untraced)
    metrics["trace.overhead_s"] = overhead
    ops = [op for _, pass_ops in untraced + traced + others for op in pass_ops]
    notes = {"untraced_passes": len(untraced), "traced_passes": len(traced), "spans": len(tracer.spans)}
    return metrics, ops, errors, notes, tracer.spans


def run_all(args) -> None:
    """Each workload in its own fresh process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"{workload} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][workload] = result["metrics"]
    print(json.dumps(combined))


def main() -> None:
    args = parse_args()
    spec = bootstrap()
    if args.workload == "all":
        run_all(args)
        return
    import workloads

    location = Path(workloads.qrecur.__file__).resolve()
    if SRC not in location.parents:
        fail(f"qrecur imported from {location}, not from {SRC}")
    OUT_DIR.mkdir(exist_ok=True)

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    run = traced_run if args.trace else untraced_run
    values, ops, errors, notes, spans = run(args.workload, args.seed, args.seconds)
    gated = args.workload in {w["name"] for w in spec["workloads"]}
    if set(values) - set(units) or (gated and set(values) != set(units)):
        fail(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    failed = [op for op in ops if op.problem]
    fidelity_ok = errors is None or max(errors) <= workloads.FIDELITY_TOL
    metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
    env = environment(args.seed)

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} {json.dumps(notes)}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in notes.get("raw", {}).items():
        print(f"  {name + ' (raw, not gated)':48s} {value:.6g} {RAW_UNITS[name]}")
    print(f"  {'fail_frac':48s} {len(failed) / len(ops):.6g} ({len(failed)} of {len(ops)} operations)")
    for op in failed[:20]:
        print(f"  FAILED {op.label}: {op.problem}")
    if not fidelity_ok:
        print(f"  FAILED fidelity check: max |F - F_ref| = {max(errors):.3e}")

    result = {
        "correct": not failed and fidelity_ok,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env, notes=notes,
                  problems=[f"{op.label}: {op.problem}" for op in failed], spans=spans)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
