"""Acceptance gate: one pass/fail line per criterion.

The heavy seeded ensemble is shared between the bracket, trace-norm
ceiling and submersion criteria so it runs only once.
"""

import json
import math
import time

import numpy as np
import pytest

from qrecur import search, verify
from qrecur.cli import main
from qrecur.search import Grid, default_dt
from qrecur.evolution import make_kernel
from qrecur.states import pure_state, qubit_hamiltonian


def _report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def ensemble():
    start = time.monotonic()
    res = verify.bracket_ensemble_suite(count=200, seed=42, horizon_samples=1_000_000)
    res["runtime_s"] = time.monotonic() - start
    return res


def test_criterion_01_qubit_worked_example():
    start = time.monotonic()
    res = verify.qubit_example_suite()
    elapsed = time.monotonic() - start
    ok = res["ok"] and elapsed < 1.0
    _report(
        1,
        "qubit worked example",
        ok,
        f"t_rec={res['t_rec']:.6f}, bracket [{res['lower_mt']:.4f}, "
        f"{res['upper_product']:.1f}], {elapsed:.2f}s",
    )


def test_criterion_02_bracket_ensemble(ensemble):
    ok = (
        not ensemble["violations"]
        and ensemble["runtime_s"] < 300.0
        and ensemble["checked"] + ensemble["skipped"] + 0 <= ensemble["count"]
    )
    _report(
        2,
        "bracket ensemble (200 systems, n=2..5)",
        ok,
        f"checked={ensemble['checked']}, skipped={ensemble['skipped']}, "
        f"no_departure={ensemble['no_departure']}, "
        f"violations={len(ensemble['violations'])}, {ensemble['runtime_s']:.1f}s",
    )


def test_criterion_03_stroboscopic():
    res = verify.strobe_suite(count=50, seed=42, epsilon=0.9, cap=250_000)
    _report(
        3,
        "stroboscopic ceiling (50 instances, n=2, eps=0.9)",
        res["ok"],
        f"found={res['found']}, jmax_theory={res['jmax_theory']:.0f}, "
        f"checked={res['checked']}",
    )


def test_criterion_04_fuchs_van_de_graaf(ensemble):
    pairs = verify.fvg_suite(pairs=500, seed=42)
    ok = pairs["ok"] and ensemble["fvg_ceiling_ok"]
    _report(
        4,
        "Fuchs-van de Graaf (500 pairs + trace-norm ceiling at recurrences)",
        ok,
        f"pair_failures={pairs['failures']}, "
        f"ceiling_ok={ensemble['fvg_ceiling_ok']}",
    )


def test_criterion_05_truncation():
    res = verify.truncation_suite(systems=20, n_times=50, seed=42, n=6, N=3)
    ok = res["ok"] and res["worst_invariance_dev"] <= 1e-9
    _report(
        5,
        "truncation invariance and corollary ceiling",
        ok,
        f"worst_dev={res['worst_invariance_dev']:.2e}, "
        f"ceiling_failures={len(res['ceiling_failures'])}",
    )


def test_criterion_06_geometry_oracles():
    res = verify.geometry_suite(mc_samples=10_000_000, seed=42)
    _report(
        6,
        "geometry oracles (closed forms + 1e7-sample Monte Carlo cap)",
        res["ok"],
        f"cap_exact={res['cap_exact']:.6f}, cap_mc={res['cap_mc']:.6f}, "
        f"cap_r1_exact={res['cap_r1_exact']:.6f}, cap_r1_mc={res['cap_r1_mc']:.6f}",
    )


def test_criterion_07_metric_recurrence():
    start = time.monotonic()
    res = verify.metric_recurrence_suite(count=100, seed=42)
    elapsed = time.monotonic() - start
    ok = res["ok"] and elapsed < 30.0
    _report(
        7,
        "metric-space recurrence (100 spaces, open-ball convention)",
        ok,
        f"failures={len(res['failures'])}, {elapsed:.1f}s",
    )


def test_criterion_08_submersion_inequality(ensemble):
    # ensemble grids (criterion 2) accumulate the worst Bures-minus-torus
    # excess, with Bures distances exact near a return
    ens_ok = ensemble["submersion_excess"] <= 1e-9
    # criterion-1 grid, through the same check
    H = qubit_hamiltonian(1.0)
    kernel = make_kernel(H, pure_state(np.array([1.0, 1.0]) / math.sqrt(2.0)))
    check = verify._SubmersionCheck(H, kernel)
    grid = Grid(0.0, default_dt(H), 64)
    for _ in check.watch(search.scan(kernel, grid), grid):
        pass
    qubit_excess = check.excess
    ok = ens_ok and qubit_excess <= 1e-9
    _report(
        8,
        "submersion inequality (Bures <= torus distance)",
        ok,
        f"ensemble_excess={ensemble['submersion_excess']:.2e}, "
        f"qubit_excess={qubit_excess:.2e}",
    )


def test_criterion_09_special_functions():
    res = verify.special_function_suite()
    _report(
        9,
        "special functions vs independent oracles",
        res["ok"],
        f"sin_worst_dev={res['sin_integral_worst_dev']:.2e}",
    )


def test_criterion_10_invariance_and_determinism(tmp_path):
    inv = verify.invariance_suite(seed=42)
    s = 1.0 / math.sqrt(2.0)
    system = tmp_path / "system.json"
    system.write_text(
        json.dumps({"energies": [0.0, 1.0], "state": {"pure": [[s, 0.0], [s, 0.0]]}})
    )
    outputs = []
    for tag in ("a", "b"):
        bounds_out = tmp_path / f"bounds_{tag}.json"
        search_out = tmp_path / f"search_{tag}.json"
        csv_out = tmp_path / f"series_{tag}.csv"
        verify_out = tmp_path / f"verify_{tag}.json"
        assert main(["bounds", "--input", str(system), "--threshold", "0.999",
                     "--output", str(bounds_out)]) == 0
        assert main(["search", "--input", str(system), "--threshold", "0.999",
                     "--horizon", "7.0", "--output", str(search_out),
                     "--csv", str(csv_out)]) == 0
        assert main(["verify", "--suite", "special_functions", "--seed", "42",
                     "--output", str(verify_out)]) == 0
        outputs.append(
            bounds_out.read_bytes()
            + search_out.read_bytes()
            + csv_out.read_bytes()
            + verify_out.read_bytes()
        )
    deterministic = outputs[0] == outputs[1]
    ok = inv["ok"] and deterministic
    _report(
        10,
        "zero-point-shift invariance and byte-identical CLI reruns",
        ok,
        f"shift_mismatches={inv['mismatches']}, deterministic={deterministic}",
    )
