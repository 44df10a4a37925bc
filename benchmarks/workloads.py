"""Seeded inputs for each workload, one closed-loop pass over them, and the
checks that decide whether an operation failed.

A failure is a raised exception or a broken proven property, never a
byte comparison with a stored output:

* a t_rec outside [lower_mt - dt, upper_product + dt];
* a commensurate-spectrum return later than its exact period plus dt;
* a verify suite with "ok" false;
* a CLI call with a non-zero exit, unparsable output or a missing key,
  or a printed number that contradicts its closed form.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qrecur
from qrecur import bounds, evolution, metrics, search, states, verify

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The scan grid. Every scan evaluates its whole horizon in one chunk
# (search.CHUNK is 32768), whether or not it returns early, so a pass does
# the same work for every seed; the large sizes get shorter horizons to
# keep a chunk's temporaries near 128 MB. The n = 16 and n = 32 scans take
# about a second each, so the median and tail latencies, which fall among
# them, average over the host's speed instead of catching one slow burst.
SCAN_SIZES = (2, 5, 16, 32)
SCAN_RANKS = ("1", "full")
SCAN_HORIZON = {2: 32768, 5: 32768, 16: 16384, 32: 8192}
PURE_WEIGHT = 0.7  # full-rank states: 0.7 |psi><psi| + 0.3 G G^dag / tr
# epsilon as a share u of its ceiling pi*sqrt(p_min). Random spectra get a
# threshold so tight (about 1 - 1e-5) that no return falls inside the
# horizon and every one scans to it; commensurate spectra get a looser one
# and return at their exact period. Either way the samples a scan needs do
# not depend on the seed.
THRESHOLD_U = {False: (0.005, 0.01), True: (0.15, 0.3)}  # keyed by "commensurate"

# Fixed probe times for the fidelity accuracy check. A 40-digit reference
# for a full-rank state costs about 1 s per time at n = 32, so the large
# full-rank systems get fewer probes; metrics.fidelity, one call per time,
# is checked at the first SINGLE_PROBES of them.
PROBE_TIMES = 0.5 + 0.7316 * np.arange(256)
FULL_RANK_PROBES = {2: 4, 5: 4, 16: 1, 32: 1}
SINGLE_PROBES = 16
FIDELITY_TOL = 1e-6

CLI_CALLS = ("bounds", "search", "search_refine", "search_csv", "strobe", "truncate", "geometry")
CLI_STEPS = 2048
CLI_TIMEOUT_S = 120
STROBE_EPSILON = 0.9
STROBE_CAP = 20000

# tiny sizes for the self-test; the workloads run the suites at their defaults
SMALL_HORIZON = 512
VERIFY_SMALL = {
    "bracket_ensemble": {"count": 3},
    "strobe": {"count": 2},
    "fvg": {"pairs": 4},
    "truncation": {"systems": 1},
    "geometry": {"mc_samples": 10_000},
    "metric_recurrence": {"count": 2},
}


@dataclass
class Op:
    """One operation of a pass: its latency, the grid samples it needed
    (up to the first return or the horizon) and what went wrong, if anything."""

    label: str
    latency_s: float
    samples: int = 0
    problem: str | None = None
    result: object = field(default=None, repr=False)


def _failed(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _gram(n: int, rank: str, rng) -> np.ndarray:
    """Factor W with rho0 = W W^dag: one column for a pure state, n + 1 for
    a full-rank mixture. The mixture's pure part has equal magnitudes, so
    its coherences always carry the state below threshold."""
    if rank == "1":
        psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return (psi / np.linalg.norm(psi))[:, None]
    psi = np.exp(2j * np.pi * rng.uniform(size=n)) / math.sqrt(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g *= math.sqrt((1.0 - PURE_WEIGHT) / np.vdot(g, g).real)
    return np.column_stack([math.sqrt(PURE_WEIGHT) * psi, g])


def _state(w: np.ndarray) -> states.DensityMatrix:
    if w.shape[1] == 1:
        return states.pure_state(w[:, 0])
    return states.validate_density(w @ w.conj().T)


def _threshold(rho0, u: float) -> tuple[float, float]:
    """Bures-scale epsilon a fraction u of its ceiling pi*sqrt(p_min), and
    the fidelity threshold 1 - eps^2/4 it stands for."""
    eps = u * math.pi * math.sqrt(float(rho0.populations.min()))
    return eps, 1.0 - eps**2 / 4.0


# ---------------------------------------------------------------------------
# scan


@dataclass(frozen=True)
class ScanCase:
    n: int
    rank: str
    spectrum: str  # "box", "oscillator" or "random"
    H: states.Hamiltonian
    rho0: states.DensityMatrix
    w: np.ndarray
    epsilon: float
    threshold: float
    grid: search.Grid
    period: float | None  # exact recurrence period of a commensurate spectrum

    @property
    def label(self) -> str:
        return f"n{self.n}.r{self.rank}.{self.spectrum}"


def build_scan(seed: int, horizon: int | None = None) -> list[ScanCase]:
    """The 14 scan cases; `horizon` overrides the sample counts (self-test)."""
    cases = []
    for n in SCAN_SIZES:
        for ri, rank in enumerate(SCAN_RANKS):
            # the box period is 8(n^2 - 1) default grid steps, the oscillator
            # period 8(n - 1); the period must fit in half the horizon
            commensurate = "box" if 16 * (n * n - 1) <= SCAN_HORIZON[n] else "oscillator"
            # a two-level spectrum is always periodic, so n = 2 has no random
            # case; the 14 cases then put the median latency inside the n = 16
            # block instead of between two blocks
            kinds = (commensurate,) if n == 2 else (commensurate, "random")
            for ki, kind in enumerate(kinds):
                rng = np.random.default_rng([seed, n, ri, ki])
                scale = float(rng.uniform(0.5, 2.0))
                if kind == "box":
                    energies, period = scale * np.arange(1, n + 1) ** 2, 2 * math.pi / scale
                elif kind == "oscillator":
                    energies, period = scale * (np.arange(n) + 0.5), 2 * math.pi / scale
                else:
                    energies, period = np.sort(rng.uniform(0.0, scale, n)), None
                H = states.Hamiltonian(energies.astype(float))
                w = _gram(n, rank, rng)
                rho0 = _state(w)
                eps, threshold = _threshold(rho0, float(rng.uniform(*THRESHOLD_U[kind != "random"])))
                grid = search.Grid(0.0, search.default_dt(H), horizon or SCAN_HORIZON[n])
                cases.append(ScanCase(n, rank, kind, H, rho0, w, eps, threshold, grid, period))
    return cases


def _grid_index(t: float, dt: float) -> int:
    """Grid index of a reported time; refined times sit just below theirs."""
    return math.ceil(t / dt - 1e-6)


def scan_pass(cases: list[ScanCase], tracer, after=None) -> list[Op]:
    """One bracket + scan per case; `after(i)`, if given, runs untimed
    after case i."""
    ops = []
    for i, case in enumerate(cases):
        with tracer.span("scan.op", n=case.n, rank=case.rank, spectrum=case.spectrum) as span:
            start = time.perf_counter()
            try:
                report = bounds.energy_bounds(case.H, case.rho0, case.epsilon)
                res = search.find_recurrence(
                    case.H, case.rho0, case.threshold, case.grid, report=report
                )
                op = Op(case.label, time.perf_counter() - start, result=(report, res))
            except Exception as exc:  # recorded as a failed operation
                op = Op(case.label, time.perf_counter() - start, problem=_failed(exc))
            op.samples = _scan_samples(case, op)
            span["attrs"]["samples_useful"] = op.samples
        ops.append(op)
        if after is not None:
            after(i)
    return ops


def _scan_samples(case: ScanCase, op: Op) -> int:
    if op.result is None or op.result[1].t_rec is None:
        return case.grid.steps
    return _grid_index(op.result[1].t_rec, case.grid.dt) + 1


def check_scan(case: ScanCase, op: Op) -> None:
    if op.problem:
        return
    report, res = op.result
    dt = case.grid.dt
    if res.t_rec is not None and not (
        report.lower_mt - dt <= res.t_rec <= report.upper_product + dt
    ):
        op.problem = f"t_rec {res.t_rec} outside [{report.lower_mt}, {report.upper_product}] +- dt"
    elif case.period is not None and res.t_departure is not None and (
        res.t_rec is None or res.t_rec > case.period + dt
    ):
        op.problem = f"return {res.t_rec} later than the exact period {case.period} + dt"


def scan_fidelity_errors(cases: list[ScanCase], tracer) -> list[float]:
    """|F - F_ref| at the probe times for every scan system, through both
    public fidelity paths (search.fidelity_series and metrics.fidelity)."""
    errors = []
    with tracer.span("scan.check"):
        for case in cases:
            hbar = case.H.hbar
            if case.rank == "1":
                times = PROBE_TIMES
                ref = reference.pure_fidelity(case.w[:, 0], case.H.energies, hbar, times)
            else:
                times = PROBE_TIMES[: FULL_RANK_PROBES[case.n]]
                ref = [reference.gram_fidelity(case.w, case.H.energies, hbar, t) for t in times]
            kernel = evolution.make_kernel(case.H, case.rho0)
            series = search.fidelity_series(kernel, times)
            single = [
                metrics.fidelity(case.rho0, evolution.evolve(kernel, t))
                for t in times[:SINGLE_PROBES]
            ]
            errors += [abs(float(f) - r) for f, r in zip(series, ref)]
            errors += [abs(f - r) for f, r in zip(single, ref)]
    return errors


# ---------------------------------------------------------------------------
# verify


def verify_pass(seed: int, tracer, small: bool = False) -> list[Op]:
    """The nine suites, each one operation, at the benchmark's seed."""
    ops = []
    for name, fn in verify.ALL_SUITES.items():
        kwargs = dict(VERIFY_SMALL.get(name, {})) if small else {}
        if "seed" in inspect.signature(fn).parameters:
            kwargs["seed"] = seed
        with tracer.span("verify.op", suite=name):
            start = time.perf_counter()
            try:
                res = fn(**kwargs)
                op = Op(name, time.perf_counter() - start, result=res)
            except Exception as exc:  # recorded as a failed operation
                op = Op(name, time.perf_counter() - start, problem=_failed(exc))
        if op.problem is None and not op.result["ok"] and not small:
            op.problem = f"suite {name} reports ok = false"
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliInputs:
    workdir: Path
    psi: np.ndarray  # pure state of the bounds/search/strobe system
    energies: np.ndarray
    period: float
    threshold: float
    epsilon: float
    strobe_t: float
    mixed: np.ndarray  # density matrix of the truncate/geometry system
    trunc_N: int
    trunc_epsilon: float
    ball_r: float
    tube: tuple[float, float]  # theta, length
    argv: dict

    @property
    def csv_path(self) -> Path:
        return self.workdir / "series.csv"


def _pairs(z) -> list:
    return [[float(v.real), float(v.imag)] for v in z]


def build_cli(seed: int, out_dir: Path) -> CliInputs:
    rng = np.random.default_rng([seed, 77])
    workdir = Path(out_dir) / f"cli-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    # bounds/search/strobe: a pure state on an integer-spaced spectrum,
    # whose exact period is 8(n - 1) = 56 default grid steps
    n = 8
    scale = float(rng.uniform(0.5, 2.0))
    energies = scale * np.arange(n, dtype=float)
    psi = _gram(n, "1", rng)[:, 0]
    p_min = float((np.abs(psi) ** 2).min())
    epsilon = 0.6 * math.pi * math.sqrt(p_min)
    threshold = 1.0 - epsilon**2 / 4.0
    dt = math.pi / (4.0 * float(energies.max() - energies.min()))
    pure_path = workdir / "pure.json"
    pure_path.write_text(json.dumps({"energies": energies.tolist(), "state": {"pure": _pairs(psi)}}))

    # truncate/geometry: a full-rank mixed state on a random spectrum
    m = 6
    mixed_energies = np.sort(rng.uniform(0.0, 1.0, m))
    w = _gram(m, "full", rng)
    mixed = w @ w.conj().T
    mixed = (mixed + mixed.conj().T) / 2.0
    mixed_path = workdir / "mixed.json"
    mixed_path.write_text(
        json.dumps(
            {
                "energies": mixed_energies.tolist(),
                "state": {"matrix": [_pairs(row) for row in mixed]},
            }
        )
    )
    trunc_N = 3
    kept = mixed.diagonal().real[:trunc_N]
    trunc_epsilon = 0.5 * math.pi * math.sqrt(float(kept.min() / kept.sum()))

    strobe_t = float(rng.uniform(0.1, 10.0))
    ball_r = float(rng.uniform(0.1, 3.0))
    tube = (float(rng.uniform(0.05, 0.5)), float(rng.uniform(1.0, 10.0)))
    search_args = ["search", "--input", str(pure_path), "--threshold", repr(threshold),
                   "--horizon", repr(CLI_STEPS * dt)]
    argv = {
        "bounds": ["bounds", "--input", str(pure_path), "--threshold", repr(threshold)],
        "search": search_args,
        "search_refine": search_args + ["--refine"],
        "search_csv": search_args + ["--csv", str(workdir / "series.csv")],
        "strobe": ["strobe", "--input", str(pure_path), "--epsilon", repr(STROBE_EPSILON),
                   "--t", repr(strobe_t), "--jmax-cap", str(STROBE_CAP)],
        "truncate": ["truncate", "--input", str(mixed_path), "--N", str(trunc_N),
                     "--epsilon", repr(trunc_epsilon)],
        "geometry": ["geometry", "--ball", "3", repr(ball_r), "--tube", "3", repr(tube[0]),
                     repr(tube[1]), "--state", str(mixed_path)],
    }
    return CliInputs(workdir, psi, energies, 2 * math.pi / scale, threshold, epsilon,
                     strobe_t, mixed, trunc_N, trunc_epsilon, ball_r, tube, argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def cli_pass(inputs: CliInputs, tracer, traced: bool = False, after=None) -> list[Op]:
    """One call of each subcommand, one at a time (closed loop, one client).
    Traced calls run through cli_shim.py, which records spans in the child.
    `after(i)`, if given, runs untimed after call i."""
    env = child_env()
    ops = []
    for i, label in enumerate(CLI_CALLS):
        with tracer.span("cli.call", call=label) as span:
            if traced:
                spans_path = inputs.workdir / f"spans-{label}.json"
                cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(spans_path)]
            else:
                cmd = [sys.executable, "-m", "qrecur.cli"]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd + inputs.argv[label], cwd=ROOT, env=env, capture_output=True,
                    text=True, timeout=CLI_TIMEOUT_S,
                )
                op = Op(label, time.perf_counter() - start, result=proc)
            except subprocess.SubprocessError as exc:
                op = Op(label, time.perf_counter() - start, problem=_failed(exc))
        if traced and op.problem is None and spans_path.exists():
            tracer.adopt(json.loads(spans_path.read_text()), span["id"])
            spans_path.unlink()
        ops.append(op)
        if after is not None:
            after(i)
    return ops


_CLI_KEYS = {
    "bounds": {"lower_mt", "upper_product", "epsilon", "threshold", "energy_uncertainty", "estimates"},
    "search": {"t_departure", "t_rec", "grid", "stationary", "refined", "bracket_check", "bounds", "epsilon"},
    "strobe": {"j_found", "jmax_theory", "cap", "cap_exceeded", "t_rec", "epsilon"},
    "truncate": {"N", "delta_N", "P_N", "complement_hs_sq", "kept_indices", "sigma_tilde", "bounds"},
    "geometry": {"ball", "tube", "torus"},
}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_cli(inputs: CliInputs, op: Op) -> None:
    """Exit code, schema keys and closed-form properties of one call; sets
    op.samples for the searches."""
    if op.problem:
        return
    proc = op.result
    if proc.returncode != 0:
        op.problem = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        op.problem = _failed(exc)
        return
    kind = op.label.split("_")[0]
    missing = _CLI_KEYS[kind] - set(out)
    if missing:
        op.problem = f"missing keys {sorted(missing)}"
        return
    try:
        op.problem = _CLI_PROPERTIES[kind](inputs, op, out)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        op.problem = _failed(exc)


def _bounds_props(inputs, op, out):
    p = np.abs(inputs.psi) ** 2
    mean = float(inputs.energies @ p)
    de = math.sqrt(float((inputs.energies - mean) ** 2 @ p))
    if not _close(out["lower_mt"], inputs.epsilon * 1.0 / de, 1e-9):
        return f"lower_mt {out['lower_mt']} != epsilon*hbar/dE {inputs.epsilon / de}"
    if not out["lower_mt"] <= out["upper_product"]:
        return "lower_mt above upper_product"
    return None


def _search_props(inputs, op, out):
    grid, t_rec, b = out["grid"], out["t_rec"], out["bounds"]
    dt = grid["dt"]
    if t_rec is None:
        return "no return inside a horizon of many exact periods"
    op.samples = _grid_index(t_rec - grid["t0"], dt) + 1
    if not b["lower_mt"] - dt <= t_rec <= b["upper_product"] + dt:
        return f"t_rec {t_rec} outside the bracket +- dt"
    if t_rec > inputs.period + dt:
        return f"return {t_rec} later than the exact period {inputs.period} + dt"
    if op.label == "search_csv":
        with open(inputs.csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["t", "fidelity", "bures", "trace_dist", "hs_dist", "torus_dist"]:
            return f"csv header {rows[0]}"
        if len(rows) - 1 != grid["steps"]:
            return f"csv has {len(rows) - 1} rows for {grid['steps']} steps"
    return None


def _strobe_props(inputs, op, out):
    # no op.samples: the strobe's return step swings with the seed
    j, jmax, cap = out["j_found"], out["jmax_theory"], out["cap"]
    if j is None:
        if jmax != "inf" and jmax <= cap:
            return f"no return up to cap {cap} although the ceiling is {jmax}"
        return None
    if jmax != "inf" and j > math.ceil(jmax):
        return f"j_found {j} above the ceiling {jmax}"
    f_ref = reference.pure_fidelity(inputs.psi, inputs.energies, 1.0, [j * inputs.strobe_t])[0]
    if f_ref < STROBE_EPSILON - FIDELITY_TOL:
        return f"F(j t) = {f_ref} below the floor {STROBE_EPSILON}"
    return None


def _truncate_props(inputs, op, out):
    N, rho = inputs.trunc_N, inputs.mixed
    if not _close(out["P_N"], float(rho.diagonal().real[:N].sum()), 1e-12):
        return f"P_N {out['P_N']}"
    if abs(out["delta_N"] - float((np.abs(rho[N:, N:]) ** 2).sum())) > 1e-12:
        return f"delta_N {out['delta_N']}"
    if out["delta_N"] > out["complement_hs_sq"] + 1e-15:
        return "delta_N above the full complement norm"
    return None


def _geometry_props(inputs, op, out):
    r = inputs.ball_r
    theta, length = inputs.tube
    radii = np.sqrt(inputs.mixed.diagonal().real)
    if not _close(out["ball"]["volume"], math.pi * (2 * r - math.sin(2 * r)), 1e-10):
        return f"ball volume {out['ball']['volume']}"
    if not _close(out["tube"]["volume"], math.pi * theta**2 * length, 1e-12):
        return f"tube volume {out['tube']['volume']}"
    if np.abs(np.asarray(out["torus"]["radii"]) - radii).max() > 1e-12:
        return "torus radii differ from sqrt(populations)"
    return None


_CLI_PROPERTIES = {
    "bounds": _bounds_props,
    "search": _search_props,
    "strobe": _strobe_props,
    "truncate": _truncate_props,
    "geometry": _geometry_props,
}


def cli_fidelity_errors(inputs: CliInputs) -> list[float]:
    """|F - F_ref| over every row of the last search --csv output."""
    with open(inputs.csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = [float(r["t"]) for r in rows]
    ref = reference.pure_fidelity(inputs.psi, inputs.energies, 1.0, times)
    return [abs(float(r["fidelity"]) - f) for r, f in zip(rows, ref)]


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, out_dir: Path, small: bool = False):
    """All inputs a workload needs; timed in fresh interpreters as setup_s.
    `small` shrinks the scans for the self-test."""
    if workload == "scan":
        return build_scan(seed, SMALL_HORIZON if small else None)
    if workload == "cli":
        return build_cli(seed, out_dir)
    if workload == "verify":
        return seed  # the suites generate their systems from the seed
    raise ValueError(f"unknown workload {workload!r}")
