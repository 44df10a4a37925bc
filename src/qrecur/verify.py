"""Verification suites with independent oracles.

Every suite returns a dict with an "ok" flag plus enough detail to
diagnose a failure. The oracles here (Simpson quadrature, gamma product
recursions, Monte Carlo cap volumes, brute-force scans) deliberately
avoid the code paths they check. The submersion check compares the
torus distance with search.bures_series, whose purification form is
exact to a few eps near a return, so no suite needs extended precision.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from . import bounds, metrics, search, states, torus
from .errors import BadParameter, PreconditionViolated, StationaryState
from .evolution import chunk_bounds, chunk_cap, evolve, make_kernel
from .search import Grid, default_dt
# fidelity_series stays importable from this module: benchmarks/tracing.py
# wraps the name here as well as in search
from .search import fidelity_series  # noqa: F401
from .torus import (
    FiniteMetricSpace,
    metric_recurrence_oracle,
    torus_distance_series,
    torus_from_state,
    torus_phase_at,
)
from .truncation import delta_time_invariance_check, truncate


# ---------------------------------------------------------------------------
# oracles


def simpson_sin_power(m: int, x: float) -> float:
    """Composite-Simpson integral of sin^m over [0, x] on 10^6 panels; the
    quadrature oracle for the special-function suite."""
    panels = 1_000_000
    if x == 0.0:
        return 0.0
    s = np.linspace(0.0, x, 2 * panels + 1)
    y = np.sin(s) ** m
    w = np.ones_like(y)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((x / (2 * panels) / 3.0) * (w @ y))


def gamma_product_log(base: float, steps: int) -> float:
    """ln Gamma(base + steps) - ln Gamma(base) via the recurrence."""
    acc = 0.0
    for k in range(steps):
        acc += math.log(base + k)
    return acc


def monte_carlo_cap_volume(n: int, r: float, samples: int, seed: int) -> float:
    """Monte Carlo volume of the geodesic ball of radius r in the unit
    n-sphere, via uniform Gaussians on the embedding space, drawn in the
    blocks of the chunk schedule at 8 (2 n + 5) bytes per sample: n + 1
    normals, their squares, the norm and two blocks' cosines."""
    if samples < 1:
        raise BadParameter(f"need samples >= 1, got {samples}")
    full = 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    rng = np.random.default_rng(seed)
    hits = 0
    for lo, hi in chunk_bounds(samples, chunk_cap(8 * (2 * n + 5))):
        x = rng.standard_normal((hi - lo, n + 1))
        cosang = x[:, 0] / np.linalg.norm(x, axis=1)
        hits += int((np.arccos(np.clip(cosang, -1.0, 1.0)) <= r).sum())
    return full * hits / samples


class _SubmersionCheck:
    """Per-chunk check on a fidelity scan: tracks the largest excess of the
    Bures distance, search.bures_series, over the torus distance (the
    submersion inequality says it is <= 0). Near a return bures_series is
    exact to a few eps, so the excess stays at that size there too."""

    def __init__(self, H, kernel):
        self.H, self.kernel = H, kernel
        self.lam, _ = metrics.energy_stats(H, kernel.rho0)
        self.torus = torus_from_state(kernel.rho0)
        self.excess = -math.inf

    def watch(self, blocks, grid):
        """Pass the (lo, hi, F) blocks of an exhaustive grid scan through, checking each."""
        for lo, hi, f in blocks:
            times = grid.times(lo, hi)
            bures = search.bures_series(self.kernel, times, f)
            tdist = torus_distance_series(self.torus, torus_phase_at(self.H, self.lam, times))
            self.excess = max(self.excess, float((bures - tdist).max()))
            yield lo, hi, f


# ---------------------------------------------------------------------------
# suites


def qubit_example_suite() -> dict:
    """Worked qubit case: equal superposition, E = (0, 1), threshold 0.999."""
    H = states.qubit_hamiltonian(1.0)
    rho0 = states.pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0))
    threshold = 0.999
    eps = bounds.threshold_to_epsilon(threshold)
    report = bounds.energy_bounds(H, rho0, eps)
    dt = default_dt(H)
    grid = Grid(0.0, dt, 64)
    result = search.find_recurrence(H, rho0, threshold, grid, report=report)
    t_rec = result.t_rec
    ok = t_rec is not None and abs(t_rec - 2.0 * math.pi) <= dt + 1e-12
    if ok:  # inside the bracket, with no slack
        check = report.bracket_check(t_rec, 0.0)
        ok = check["lower_ok"] and check["upper_ok"]
    return {
        "ok": bool(ok),
        "t_rec": t_rec,
        "dt": dt,
        "lower_mt": report.lower_mt,
        "upper_product": report.upper_product,
        "epsilon": eps,
    }


def _random_instance(seed_pair):
    """(H, rho0, eps, threshold) of a seeded system of 2..5 levels."""
    rng = np.random.default_rng(seed_pair)
    n = int(rng.integers(2, 6))
    H = states.random_hamiltonian(n, rng)
    rho0 = states.random_density(n, rng)
    eps = float(rng.uniform(0.45, 0.7)) * math.pi * float(np.sqrt(rho0.populations.min()))
    return H, rho0, eps, 1.0 - eps**2 / 4.0


def bracket_ensemble_suite(count: int = 200, seed: int = 42) -> dict:
    """Seeded random systems: measured first returns must respect the
    energy-uncertainty bracket to within one grid step.

    Instances whose upper bound does not fit a horizon of 1,000,000 grid
    samples are skipped and counted. The scan also accumulates the
    submersion check (Bures <= torus distance) and the trace-norm ceiling
    at each measured recurrence.
    """
    violations = []
    skipped = no_departure = checked = recurrences = 0
    submersion_excess = -math.inf
    fvg_ceiling_ok = True
    for i in range(count):
        H, rho0, eps, threshold = _random_instance([seed, i])
        report = bounds.energy_bounds(H, rho0, eps)
        dt = min(default_dt(H), report.lower_mt / 4.0)
        steps = math.ceil((report.upper_product + 2.0 * dt) / dt)
        if steps > 1_000_000:
            skipped += 1
            continue
        checked += 1
        kernel = make_kernel(H, rho0)
        submersion = _SubmersionCheck(H, kernel)
        grid = Grid(0.0, dt, steps)
        dep_idx, rec_idx = search._first_crossing(
            submersion.watch(search.scan(kernel, grid), grid), threshold
        )
        submersion_excess = max(submersion_excess, submersion.excess)
        if dep_idx is None:
            no_departure += 1
            continue
        if rec_idx is None:
            violations.append({"instance": i, "kind": "no_return_within_upper"})
            continue
        t_rec = dt * rec_idx
        recurrences += 1
        check = report.bracket_check(t_rec, dt)
        if not (check["lower_ok"] and check["upper_ok"]):
            violations.append(
                {
                    "instance": i,
                    "kind": "bracket",
                    "t_rec": t_rec,
                    "lower": report.lower_mt,
                    "upper": report.upper_product,
                }
            )
        rho_t = evolve(kernel, t_rec)
        tnorm = metrics.trace_distance_norm(rho_t, rho0)
        if tnorm**2 > 2.0 * eps**2 * (1.0 - eps**2 / 8.0) + 1e-6:
            fvg_ceiling_ok = False
    return {
        "ok": not violations and fvg_ceiling_ok and submersion_excess <= 1e-9,
        "count": count,
        "checked": checked,
        "skipped": skipped,
        "no_departure": no_departure,
        "violations": violations,
        "submersion_excess": submersion_excess,
        "fvg_ceiling_ok": fvg_ceiling_ok,
        "n_recurrences": recurrences,
    }


def strobe_suite(count: int = 50, seed: int = 42, cap: int = 250_000) -> dict:
    """Stroboscopic search at epsilon 0.9 on two-level systems with random
    step lengths, against the dimension-only ceiling jmax: a j found must
    not exceed ceil(jmax), and a search that reaches it must find one.
    `checked` counts the instances each check ran on, and a check that ran
    on none fails the suite; the second runs only when jmax <= cap."""
    epsilon = 0.9
    jmax, _ = bounds.dimension_bound(2, epsilon)
    violations = []
    found = 0
    checked = {"j_within_ceiling": 0, "return_within_ceiling": 0}
    for i in range(count):
        rng = np.random.default_rng([seed, 7000 + i])
        H = states.random_hamiltonian(2, rng)
        rho0 = states.random_density(2, rng)
        t = float(rng.uniform(0.1, 10.0))
        res = search.stroboscopic_recurrence(H, rho0, epsilon, t, jmax_cap=cap)
        found += res.j_found is not None
        if res.j_found is not None and math.isfinite(res.jmax_theory):
            checked["j_within_ceiling"] += 1
            if res.j_found > math.ceil(res.jmax_theory):
                violations.append({"instance": i, "j": res.j_found})
        if res.jmax_theory <= cap:
            checked["return_within_ceiling"] += 1
            if res.j_found is None:
                violations.append({"instance": i, "j": None})
    return {
        "ok": not violations and all(checked.values()),
        "count": count,
        "found": found,
        "jmax_theory": jmax,
        "cap": cap,
        "checked": checked,
        "violations": violations,
    }


def fvg_suite(pairs: int = 500, seed: int = 42) -> dict:
    """Fuchs-van de Graaf double inequality on random state pairs."""
    failures = 0
    for i in range(pairs):
        rng = np.random.default_rng([seed, 9000 + i])
        n = int(rng.integers(2, 5))
        pair = [states.random_density(n, rng) for _ in range(2)]
        lower_ok, upper_ok = metrics.fvg_check(*pair)
        if not (lower_ok and upper_ok):
            failures += 1
    return {"ok": failures == 0, "pairs": pairs, "failures": failures}


def truncation_suite(systems: int = 20, seed: int = 42) -> dict:
    """Time-invariance of the truncation error and the corollary distance
    ceiling at measured recurrences of the normalized block, on 6-level
    systems cut to N = 3 levels, at 50 random times each.

    The ceiling is a trace-norm bound, so ||rho(t_rec) - rho0||_1 is what it
    is checked against. eps is 0.3 of the largest the block allows,
    pi*min sqrt(p), where most blocks depart and return; `checked` counts
    the returns compared, and a suite that compared none fails."""
    n, N = 6, 3
    worst_dev = 0.0
    ceiling_failures = []
    stationary = checked = 0
    for i in range(systems):
        rng = np.random.default_rng([seed, 3000 + i])
        H = states.random_hamiltonian(n, rng)
        rho0 = states.random_density(n, rng)
        times = rng.uniform(0.0, 100.0, size=50)
        worst_dev = max(worst_dev, delta_time_invariance_check(H, rho0, N, times))

        trunc = truncate(rho0, N)
        H_N = states.Hamiltonian(H.energies[:N], H.hbar)
        eps = 0.3 * math.pi * float(np.sqrt(trunc.sigma_tilde.populations.min()))
        try:
            sub_report = bounds.truncated_bounds(H, trunc, eps, "energy")
        except (StationaryState, PreconditionViolated):
            stationary += 1
            continue
        threshold = 1.0 - eps**2 / 4.0
        dt = min(default_dt(H_N), sub_report.lower_mt / 4.0)
        steps = min(400_000, math.ceil((sub_report.upper_product + 2 * dt) / dt))
        res = search.find_recurrence(
            H_N, trunc.sigma_tilde, threshold, Grid(0.0, dt, steps), report=sub_report
        )
        if res.t_rec is None:
            continue
        checked += 1
        measured = metrics.trace_distance_norm(evolve(make_kernel(H, rho0), res.t_rec), rho0)
        ceiling = sub_report.distance_ceiling
        if measured > ceiling + 1e-9:
            ceiling_failures.append(
                {"instance": i, "measured_trace": measured, "ceiling": ceiling}
            )
    return {
        "ok": worst_dev <= 1e-9 and checked > 0 and not ceiling_failures,
        "worst_invariance_dev": worst_dev,
        "ceiling_failures": ceiling_failures,
        "stationary_blocks": stationary,
        "checked": checked,
    }


def geometry_suite(mc_samples: int = 10_000_000, seed: int = 42) -> dict:
    """Ball and tube volumes against closed forms and Monte Carlo caps.

    The cap at r = pi/2 in S^3, the hemisphere pi^2, passes any cap formula
    symmetric about pi/2, such as the S^2 one applied to S^3,
    vol(S^3) (1 - cos r)/2. The cap at r = 1 tells them apart: there the
    S^3 cap is pi (2r - sin 2r), 32% off that formula, and its Monte Carlo
    estimate takes enough samples that the 1% tolerance is 5 sigma."""
    closed = {1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2}
    full_ok = all(
        abs(torus.sphere_ball_volume(n, math.pi) - v) <= 1e-10
        for n, v in closed.items()
    )
    cap_exact = torus.sphere_ball_volume(3, math.pi / 2.0)
    cap_mc = monte_carlo_cap_volume(3, math.pi / 2.0, mc_samples, seed)
    cap_ok = abs(cap_mc - cap_exact) <= 0.01 * cap_exact
    r1_closed = math.pi * (2.0 - math.sin(2.0))
    p = r1_closed / closed[3]  # the share of S^3 a uniform draw hits
    r1_samples = math.ceil(25.0 * (1.0 - p) / (p * 0.01**2))
    r1_exact = torus.sphere_ball_volume(3, 1.0)
    r1_mc = monte_carlo_cap_volume(3, 1.0, r1_samples, seed)
    r1_ok = (
        abs(r1_exact - r1_closed) <= 1e-12 * r1_closed
        and abs(r1_mc - r1_exact) <= 0.01 * r1_exact
    )
    theta, length = 0.3, 2.5
    tube_ok = (
        abs(torus.tube_volume(2, theta, length) - 2.0 * theta * length) <= 1e-12
        and abs(torus.tube_volume(3, theta, length) - math.pi * theta**2 * length)
        <= 1e-12
    )
    return {
        "ok": full_ok and cap_ok and r1_ok and tube_ok,
        "full_sphere_ok": full_ok,
        "cap_exact": cap_exact,
        "cap_mc": cap_mc,
        "cap_samples": mc_samples,
        "cap_r1_ok": r1_ok,
        "cap_r1_exact": r1_exact,
        "cap_r1_mc": r1_mc,
        "cap_r1_samples": r1_samples,
        "tube_ok": tube_ok,
    }


def _cycle_space(m: int, scale: float) -> FiniteMetricSpace:
    idx = np.arange(m)
    hops = np.minimum((idx[None, :] - idx[:, None]) % m, (idx[:, None] - idx[None, :]) % m)
    return FiniteMetricSpace(
        points=tuple(range(m)), dist=scale * hops, measure=np.full(m, 1.0)
    )


def _xor_ultrametric(depth: int, rng) -> FiniteMetricSpace:
    m = 2**depth
    levels = np.sort(rng.uniform(0.5, 2.0, size=depth))[::-1]  # deeper split, smaller
    idx = np.arange(m)
    x = idx[:, None] ^ idx[None, :]
    d = np.zeros((m, m))
    mask = x > 0
    top_bit = np.zeros((m, m), dtype=int)
    top_bit[mask] = np.floor(np.log2(x[mask])).astype(int)
    d[mask] = levels[depth - 1 - top_bit[mask]]
    return FiniteMetricSpace(points=tuple(range(m)), dist=d, measure=np.full(m, 1.0))


def metric_recurrence_suite(count: int = 100, seed: int = 42) -> dict:
    """Random finite metric spaces with permutation isometries: brute-forced
    return steps never exceed the measure-ratio ceiling."""
    failures = []
    for i in range(count):
        rng = np.random.default_rng([seed, 5000 + i])
        if i % 2 == 0:
            m = int(rng.integers(5, 31))
            space = _cycle_space(m, float(rng.uniform(0.2, 2.0)))
            shift = int(rng.integers(1, m))
            perm = (np.arange(m) + shift) % m
        else:
            depth = int(rng.integers(2, 6))
            space = _xor_ultrametric(depth, rng)
            mask = int(rng.integers(1, 2**depth))
            perm = np.arange(2**depth) ^ mask
        p = int(rng.integers(0, space.size))
        r = float(rng.uniform(0.1, 1.5) * space.dist.max())
        res = metric_recurrence_oracle(space, perm, p, r)
        if not res.ok:
            failures.append({"instance": i, "n_rec": res.n_rec, "bound": res.bound})
    return {"ok": not failures, "count": count, "failures": failures}


def special_function_suite() -> dict:
    """Closed forms and brute-force oracles for the special functions."""
    n1_ok = True
    for eps in np.linspace(0.05, 0.999, 20):
        jmax, _ = bounds.dimension_bound(1, float(eps))
        exact = 4.0 / math.sqrt(2.0 - 2.0 * eps)
        if abs(jmax - exact) > 1e-12 * exact:
            n1_ok = False
    # product oracle: ln B(a, 1/2) = ln Gamma(a) - ln(Gamma(a + 1/2)/Gamma(1/2)),
    # at a = 16 (Wallis's ratio) and a = 40 (the series)
    ratio_ok = all(
        abs(math.log(bounds._beta_half(2 * a - 1)) - gamma_product_log(1.0, a - 1)
            + gamma_product_log(0.5, a)) <= 1e-10
        for a in (16, 40)
    )
    sin_ok = True
    worst = 0.0
    for m in (0, 1, 6, 30):
        for x in (0.1, 0.5, math.pi / 2.0, math.pi):
            dev = abs(bounds.sin_power_integral(m, x) - simpson_sin_power(m, x))
            worst = max(worst, dev)
            if dev > 1e-10:
                sin_ok = False
    return {
        "ok": n1_ok and ratio_ok and sin_ok,
        "closed_form_ok": n1_ok,
        "gamma_ratio_ok": ratio_ok,
        "sin_integral_worst_dev": worst,
    }


def invariance_suite(seed: int = 42) -> dict:
    """Recurrence results are unchanged by a zero-point energy shift."""
    rng = np.random.default_rng([seed, 1])
    H, rho0, _, threshold = _random_instance([seed, 101])
    grid = Grid(0.0, default_dt(H), 50_000)
    base = search.find_recurrence(H, rho0, threshold, grid)
    mismatches = 0
    for _ in range(10):
        lam = float(rng.uniform(-5.0, 5.0))
        shifted = search.find_recurrence(H.shifted(lam), rho0, threshold, grid)
        if (shifted.t_departure, shifted.t_rec) != (base.t_departure, base.t_rec):
            mismatches += 1
    return {
        "ok": mismatches == 0,
        "mismatches": mismatches,
        "t_rec": base.t_rec,
    }


ALL_SUITES = {
    "qubit_example": qubit_example_suite,
    "bracket_ensemble": bracket_ensemble_suite,
    "strobe": strobe_suite,
    "fvg": fvg_suite,
    "truncation": truncation_suite,
    "geometry": geometry_suite,
    "metric_recurrence": metric_recurrence_suite,
    "special_functions": special_function_suite,
    "invariance": invariance_suite,
}


def run_suites(names=None, seed: int = 42) -> dict:
    """Run the named suites (default: all); seed flows to the random ones.
    An unknown name or a negative seed is refused before any suite runs."""
    unknown = sorted(set(names or ()) - ALL_SUITES.keys())
    if unknown:
        raise BadParameter(
            f"unknown suite {', '.join(map(repr, unknown))}; the suites are "
            + ", ".join(ALL_SUITES)
        )
    if seed < 0:
        raise BadParameter(f"seed must be >= 0, got {seed}")
    results = {}
    for name, fn in ALL_SUITES.items():
        if names and name not in names:
            continue
        kwargs = {"seed": seed} if "seed" in inspect.signature(fn).parameters else {}
        results[name] = fn(**kwargs)
    results["ok"] = all(r["ok"] for r in results.values())
    return results
