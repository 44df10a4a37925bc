import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import bures_hp
from qrecur import bounds, evolution, verify
from qrecur.cli import MAX_AUTO_SAMPLES, _load_system, _resolve_grid, main
from qrecur.errors import BadParameter
from qrecur.evolution import evolve, make_kernel
from qrecur.metrics import trace_distance_norm
from qrecur.search import NEAR_RETURN, Grid, bures_series, fidelity_series
from qrecur.torus import torus_distance_series, torus_from_state, torus_phase_at


@pytest.fixture
def qubit_json(tmp_path):
    path = tmp_path / "qubit.json"
    s = 1.0 / math.sqrt(2.0)
    path.write_text(
        json.dumps({"energies": [0.0, 1.0], "state": {"pure": [[s, 0.0], [s, 0.0]]}})
    )
    return str(path)


@pytest.fixture
def mixed3_json(tmp_path):
    path = tmp_path / "mixed3.json"
    path.write_text(
        json.dumps(
            {
                "energies": [0.0, 1.0, 2.0],
                "state": {"diagonal": [0.5, 0.3, 0.2]},
            }
        )
    )
    return str(path)


@pytest.fixture
def moving3_json(tmp_path):
    """mixed3's populations, with a coherence between levels 0 and 1 so
    that its first two levels move."""
    path = tmp_path / "moving3.json"
    rows = [[0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.2]]
    matrix = [[[x, 0.0] for x in row] for row in rows]
    path.write_text(json.dumps({"energies": [0.0, 1.0, 2.0], "state": {"matrix": matrix}}))
    return str(path)


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBounds:
    def test_qubit_report(self, qubit_json, capsys):
        code, out = run_json(
            ["bounds", "--input", qubit_json, "--threshold", "0.999"], capsys
        )
        assert code == 0
        eps = 2.0 * math.sqrt(1e-3)
        assert out["epsilon"] == pytest.approx(eps, rel=1e-12)
        assert out["lower_mt"] == pytest.approx(2.0 * eps, rel=1e-12)
        assert out["upper_product"] == pytest.approx(4.0 * math.pi**2 / eps, rel=1e-12)
        assert out["estimates"]["note"] == "order-of-magnitude estimates, not bounds"
        # one gap of frequency 1/(2 pi): both estimates are its period
        for name in ("peres", "bhattacharyya"):
            assert out["estimates"][name] == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_estimate_errors_leave_the_bracket(self, tmp_path, capsys):
        # hbar = 1e-310 makes E/(2 pi hbar) overflow: the estimates refuse
        # the infinite frequency, and the bracket is still reported
        path = tmp_path / "tiny_hbar.json"
        s = 1.0 / math.sqrt(2.0)
        path.write_text(
            json.dumps({"energies": [0.0, 1.0], "hbar": 1e-310, "state": {"pure": [[s, 0.0], [s, 0.0]]}})
        )
        code, out = run_json(["bounds", "--input", str(path), "--threshold", "0.999"], capsys)
        assert code == 0 and out["lower_mt"] > 0.0
        for name in ("peres", "bhattacharyya"):
            assert out["estimates"][name] == {"error": "BadDomain", "message": "frequencies must be finite"}

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["bounds", "--threshold", "0.999"], None),
            (["search", "--threshold", "0.999", "--horizon", "7"], "bounds"),
            (["truncate", "--N", "2", "--epsilon", "0.1"], "bounds"),
        ],
        ids=["bounds", "search", "truncate"],
    )
    def test_rescaled_qubit_gets_the_unit_bracket(self, qubit_json, tmp_path, capsys, argv, key):
        # E = (0, 1e-20) with hbar = 1e-20 is the README qubit in other units;
        # its dE = 5e-21 was read as zero, and the state as stationary
        with open(qubit_json) as fh:
            spec = {**json.load(fh), "energies": [0.0, 1e-20], "hbar": 1e-20}
        path = tmp_path / "rescaled.json"
        path.write_text(json.dumps(spec))
        reports = []
        for system in (qubit_json, str(path)):
            code, out = run_json([argv[0], "--input", system, *argv[1:]], capsys)
            assert code == 0
            reports.append(out[key] if key else out)
        unit, rescaled = reports
        for field in ("lower_mt", "upper_product"):
            assert rescaled[field] == pytest.approx(unit[field], rel=1e-14)

    def test_precondition_violation_exit_code(self, tmp_path, capsys):
        # tiny minimum population: the torus injectivity radius collapses
        # and a loose threshold asks for a ball the theory cannot grant
        path = tmp_path / "skewed.json"
        a = math.sqrt(0.9999)
        b = math.sqrt(0.0001)
        path.write_text(
            json.dumps(
                {"energies": [0.0, 1.0], "state": {"pure": [[a, 0.0], [b, 0.0]]}}
            )
        )
        code, out = run_json(
            ["bounds", "--input", str(path), "--threshold", "0.99"], capsys
        )
        assert code == 1
        assert out["error"] == "PreconditionViolated"
        assert out["max_epsilon"] == pytest.approx(math.pi * 0.01, rel=1e-10)

    def test_stationary_state_exit_code(self, tmp_path, capsys):
        # the maximally mixed qubit has dE = 0.5 but commutes with H
        path = tmp_path / "mixed2.json"
        path.write_text(json.dumps({"energies": [0.0, 1.0], "state": {"diagonal": [0.5, 0.5]}}))
        code, out = run_json(["bounds", "--input", str(path), "--threshold", "0.999"], capsys)
        assert code == 1
        assert out["error"] == "StationaryState"
        code, out = run_json(
            ["search", "--input", str(path), "--threshold", "0.999", "--horizon", "10.0"], capsys
        )
        assert code == 0
        assert out["stationary"] is True and out["t_rec"] is None
        assert "bounds" not in out and out["bracket_check"] == {}

    def test_missing_file_exit_code(self, capsys):
        code = main(["bounds", "--input", "/nonexistent.json", "--threshold", "0.9"])
        assert code == 2

    def test_output_file_and_determinism(self, qubit_json, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert (
                main(
                    [
                        "bounds",
                        "--input",
                        qubit_json,
                        "--threshold",
                        "0.999",
                        "--output",
                        str(p),
                    ]
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()


class TestSearch:
    def test_qubit_search_with_csv(self, qubit_json, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code, out = run_json(
            [
                "search",
                "--input",
                qubit_json,
                "--threshold",
                "0.999",
                "--horizon",
                "7.0",
                "--csv",
                str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        dt = math.pi / 4.0
        assert abs(out["t_rec"] - 2.0 * math.pi) <= dt
        assert out["bracket_check"]["lower_ok"] and out["bracket_check"]["upper_ok"]
        # of the 9 samples only t = 0 and 2 pi lie in the window sieve's
        # windows around multiples of 2 pi; t = 0 is rho0 itself, F = 1
        # with no evaluation, so only 2 pi is evaluated
        # missable_depth = speed * dt / 2 = (1/2)(pi/4)/2
        assert out["diagnostics"] == {
            "samples_evaluated": 1,
            "samples_sieved": 7,
            "chunks": 1,
            "missable_depth": pytest.approx(math.pi / 16.0, rel=1e-12),
        }
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,fidelity,bures,trace_dist,hs_dist,torus_dist"
        assert len(lines) == 1 + out["grid"]["steps"]
        # repr round trip: the stored fidelity parses back to the exact float
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
        assert first[5] != ""  # torus_dist: both populations are nonzero

    def test_csv_determinism(self, qubit_json, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(
                [
                    "search",
                    "--input",
                    qubit_json,
                    "--threshold",
                    "0.999",
                    "--horizon",
                    "7.0",
                    "--csv",
                    str(p),
                    "--output",
                    str(p) + ".json",
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stationary_diagonal(self, mixed3_json, capsys):
        code, out = run_json(
            [
                "search",
                "--input",
                mixed3_json,
                "--threshold",
                "0.999",
                "--horizon",
                "10.0",
            ],
            capsys,
        )
        assert code == 0
        assert out["stationary"] is True
        assert out["no_departure_within_horizon"] is True
        assert out["t_rec"] is None

    def test_short_horizon_is_not_stationary(self, tmp_path, capsys):
        # a moving qubit (dE = 0.5) scanned over less than one grid step
        path = tmp_path / "qubit.json"
        s = 1.0 / math.sqrt(2.0)
        path.write_text(
            json.dumps({"energies": [0.0, 1.0], "state": {"pure": [[s, 0.0], [s, 0.0]]}})
        )
        code, out = run_json(
            ["search", "--input", str(path), "--threshold", "0.999", "--horizon", "0.1"],
            capsys,
        )
        assert code == 0
        assert out["stationary"] is False
        assert out["no_departure_within_horizon"] is True
        assert out["t_departure"] is None

    def test_coarse_grid_exit_code(self, qubit_json, capsys):
        code, out = run_json(
            [
                "search",
                "--input",
                qubit_json,
                "--threshold",
                "0.999",
                "--dt",
                "5.0",
                "--horizon",
                "50.0",
            ],
            capsys,
        )
        assert code == 1
        assert out["error"] == "GridTooCoarse"

    def test_csv_over_the_row_limit_is_refused(self, qubit_json, tmp_path, capsys):
        # 200000 / (pi/4) gives 254,648 grid samples, above MAX_CSV_SAMPLES
        csv_path = tmp_path / "series.csv"
        code, out = run_json(
            [
                "search",
                "--input",
                qubit_json,
                "--threshold",
                "0.999",
                "--horizon",
                "200000",
                "--csv",
                str(csv_path),
            ],
            capsys,
        )
        assert code == 1
        assert out["error"] == "BadParameter"
        assert "254648" in out["message"] and "200000" in out["message"]
        assert not csv_path.exists()

    def test_unwritable_csv_prints_no_result(self, qubit_json, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "series.csv"
        code = main(
            ["search", "--input", qubit_json, "--threshold", "0.999", "--horizon", "7",
             "--csv", str(csv_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err

    def test_unwritable_output_leaves_no_csv(self, qubit_json, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        code = main(
            ["search", "--input", qubit_json, "--threshold", "0.999", "--horizon", "7",
             "--csv", str(csv_path), "--output", str(tmp_path / "missing" / "out.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "flag, value", [("--dt", "0"), ("--horizon", "inf"), ("--horizon", "-5")]
    )
    def test_bad_grid_values_are_refused(self, qubit_json, capsys, flag, value):
        code, out = run_json(
            ["search", "--input", qubit_json, "--threshold", "0.999", flag, value],
            capsys,
        )
        assert code == 1
        assert out["error"] == "BadParameter"
        assert f"{flag} {value}" in out["message"]


def run_cli_bounded(argv, timeout=30.0):
    """Run qrecur in a child process, so a scan that never ends fails the
    test at the timeout instead of hanging it."""
    proc = subprocess.run(
        [sys.executable, "-m", "qrecur.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return proc.returncode, json.loads(proc.stdout)


def _csv_system(kind: str, n: int = 5) -> dict:
    """An n-level system: a pure state, a full-rank mixed state, a pure
    state with a zero population (no torus distance), or a pure state on
    an integer-spaced spectrum, as the cli benchmark's search system."""
    rng = np.random.default_rng(3)
    energies = np.sort(rng.uniform(0.0, 2.0, n)).tolist()
    if kind == "integer_spaced":
        energies = (1.3 * np.arange(n)).tolist()
    if kind == "full_rank":
        w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = w @ w.conj().T
        m = (m + m.conj().T) / (2.0 * np.trace(m).real)
        state = {"matrix": [[[z.real, z.imag] for z in row] for row in m]}
    else:
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        if kind == "zero_population":
            psi[2] = 0.0
        psi /= np.linalg.norm(psi)
        state = {"pure": [[z.real, z.imag] for z in psi]}
    return {"energies": energies, "state": state}


class TestCsvColumns:
    """Every search --csv column against its definition, one row at a time."""

    @pytest.mark.parametrize(
        "kind, n, grid_argv",
        [
            pytest.param(kind, 5, ["--dt", "0.1", "--horizon", "70"], id=kind)
            for kind in ("pure", "full_rank", "zero_population")
        ]
        # 2,048 steps of the default dt = pi / (4 * 1.3 * 7): chunks of 256, 512, 1024, 256
        + [pytest.param("integer_spaced", 8, ["--horizon", repr(2048 * math.pi / 36.4)], id="pure_n8")],
    )
    def test_columns_equal_per_row_values(self, kind, n, grid_argv, tmp_path, capsys):
        path, csv_path = tmp_path / "system.json", tmp_path / "series.csv"
        path.write_text(json.dumps(_csv_system(kind, n)))
        code, out = run_json(
            ["search", "--input", str(path), "--threshold", "0.9", *grid_argv,
             "--csv", str(csv_path)],
            capsys,
        )
        assert code == 0
        grid = Grid(**out["grid"])
        assert grid.steps > evolution.CHUNK_START  # at least two chunks
        if kind == "integer_spaced":
            assert grid.steps > 3 * evolution.CHUNK_START  # at least three chunks
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "fidelity", "bures", "trace_dist", "hs_dist", "torus_dist"]
        t, f, bures, trace, hs, torus = zip(*rows[1:])
        times = grid.times()
        assert [float(v) for v in t] == times.tolist()

        H, rho0 = _load_system(str(path))
        kernel = make_kernel(H, rho0)
        f_ref = fidelity_series(kernel, times)
        assert [float(v) for v in f] == f_ref.tolist()
        bures_ref = bures_series(kernel, times, f_ref)
        assert [float(v) for v in bures] == bures_ref.tolist()
        # the near rows against 40 digits, up to the rounding of the phases
        # t l_k by eps t max|l_k|
        near = np.flatnonzero(1.0 - f_ref < NEAR_RETURN)
        assert near.size > 0
        phase_eps = np.finfo(float).eps * np.abs(kernel.levels).max()
        for j in near:
            hp = bures_hp(rho0.factor, H.energies, H.hbar, times[j])
            assert abs(bures_ref[j] - hp) <= 1e-14 + 2.0 * phase_eps * times[j]
        trace_ref, hs_ref = [], []
        for ti in times:
            rho_t = evolve(kernel, ti)
            trace_ref.append(trace_distance_norm(rho_t, rho0))
            hs_ref.append(float(np.linalg.norm(rho_t.matrix - rho0.matrix)))
        assert [float(v) for v in trace] == trace_ref
        assert [float(v) for v in hs] == hs_ref
        if kind == "zero_population":
            assert set(torus) == {""}
        else:
            tor = torus_from_state(rho0)
            lam = float(H.energies @ rho0.populations)
            torus_ref = [
                float(torus_distance_series(tor, torus_phase_at(H, lam, np.array([ti])))[0])
                for ti in times
            ]
            assert [float(v) for v in torus] == torus_ref


def test_search_csv_bures_is_exact_near_t0(qubit_json, tmp_path, capsys):
    # 2 sin(t/4) at t = 1e-9; sqrt(2 - 2F) printed 0.0 there
    csv_path = tmp_path / "series.csv"
    code, _ = run_json(
        ["search", "--input", qubit_json, "--threshold", "0.999", "--horizon", "7.0",
         "--t0", "1e-9", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0
    with open(csv_path, newline="") as fh:
        first = next(csv.DictReader(fh))
    assert float(first["t"]) == 1e-9
    assert abs(float(first["bures"]) - 5e-10) <= 1e-15


def test_search_labels_the_bures_column(qubit_json, capsys):
    # it read "from fidelity", but near a return the column is the
    # purification distance, not sqrt(2 - 2F)
    code, out = run_json(
        ["search", "--input", qubit_json, "--threshold", "0.999", "--horizon", "7.0"], capsys
    )
    assert code == 0
    assert out["norms"] == {
        "bures": "sqrt(2 - 2F), the purification distance where 1 - F < 0.0001",
        "trace_dist": "trace",
        "hs_dist": "hilbert-schmidt",
    }


@pytest.mark.parametrize(
    "energies, argv",
    [
        ([0.0, 1.0], ["strobe", "--epsilon", "0.9", "--t", "1e308"]),
        ([0.0, 10.0], ["search", "--threshold", "0.9", "--t0", "1e308", "--horizon", "1"]),
    ],
    ids=["strobe", "search"],
)
def test_overflowing_phases_give_an_error_json(energies, argv, tmp_path, capsys):
    # both exited 0, after overflow warnings, with numbers read from NaN
    # fidelities: j_found null and cap_exceeded true, or t_departure 1e308
    # with no sample evaluated
    path = tmp_path / "system.json"
    s = 1.0 / math.sqrt(2.0)
    path.write_text(json.dumps({"energies": energies, "state": {"pure": [[s, 0.0], [s, 0.0]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run_json([argv[0], "--input", str(path), *argv[1:]], capsys)
    assert code == 1
    assert out["error"] == "BadParameter"
    assert "not finite" in out["message"]


def test_search_csv_factors_the_state_once(tmp_path, capsys, monkeypatch):
    # validate_density's check is the only eigh: the scan, the CSV rows and
    # the bracket read the factor it left (three eighs before)
    path, csv_path = tmp_path / "system.json", tmp_path / "series.csv"
    path.write_text(json.dumps(_csv_system("full_rank")))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
    code, out = run_json(
        ["search", "--input", str(path), "--threshold", "0.9", "--dt", "0.1",
         "--horizon", "70", "--csv", str(csv_path)],
        capsys,
    )
    assert code == 0 and out["t_rec"] is not None
    assert len(calls) == 1


class TestSampleLimit:
    @pytest.mark.parametrize(
        "grid, count",
        [(["--dt", "1e-300", "--horizon", "1"], "1e+300"), (["--horizon", "1e9"], "1273239545")],
    )
    def test_explicit_grid_over_the_limit_is_refused(self, qubit_json, grid, count):
        code, out = run_cli_bounded(
            ["search", "--input", qubit_json, "--threshold", "0.999", *grid]
        )
        assert code == 1
        assert out["error"] == "BadParameter"
        assert "--horizon" in out["message"] and count in out["message"]
        assert str(MAX_AUTO_SAMPLES) in out["message"]

    def test_horizon_over_the_limit_is_refused_in_process(self, qubit_json, capsys):
        # the refusal comes before any sample, so main() returns at once
        argv = ["search", "--input", qubit_json, "--threshold", "0.999", "--horizon", "1e9"]
        code, out = run_json(argv, capsys)
        assert code == 1
        assert out["error"] == "BadParameter"
        assert out["message"] == (
            "--horizon 1e9 at --dt auto is 1273239545 grid samples, "
            f"over the limit of MAX_AUTO_SAMPLES = {MAX_AUTO_SAMPLES}"
        )

    def test_jmax_cap_over_the_limit_is_refused(self, qubit_json):
        code, out = run_cli_bounded(
            ["strobe", "--input", qubit_json, "--epsilon", "1.0", "--t", "0.37",
             "--jmax-cap", "1000000000000"]
        )
        assert code == 1
        assert out["error"] == "BadParameter"
        assert out["message"] == (
            f"jmax_cap must be <= MAX_AUTO_SAMPLES = {MAX_AUTO_SAMPLES}, got 1000000000000"
        )

    def test_auto_horizon_is_capped_silently(self, qubit_json):
        H, rho0 = _load_system(qubit_json)
        args = argparse.Namespace(dt="1e-300", horizon="auto", t0=0.0)
        report = bounds.energy_bounds(H, rho0, 0.5)
        assert _resolve_grid(args, H, report).steps == MAX_AUTO_SAMPLES

    def test_auto_horizon_is_capped_when_the_bracket_overflows(self, tmp_path):
        # 80 equally populated levels: ln upper_product is about 760, so the
        # bracket's upper edge is inf and only the cap bounds the horizon
        n = 80
        path = tmp_path / "n80.json"
        amp = [1.0 / math.sqrt(n), 0.0]
        path.write_text(json.dumps({"energies": list(range(n)), "state": {"pure": [amp] * n}}))
        code, out = run_cli_bounded(["search", "--input", str(path), "--threshold", "0.99999999"])
        assert code == 0
        assert out["bounds"]["upper_product"] == "inf"
        assert out["grid"]["steps"] == MAX_AUTO_SAMPLES
        assert out["t_rec"] == pytest.approx(2.0 * math.pi, abs=out["grid"]["dt"])


class TestStrobe:
    def test_exact_period(self, qubit_json, capsys):
        code, out = run_json(
            [
                "strobe",
                "--input",
                qubit_json,
                "--epsilon",
                "0.9",
                "--t",
                str(2.0 * math.pi),
            ],
            capsys,
        )
        assert code == 0
        assert out["j_found"] == 1
        assert out["t_rec"] == pytest.approx(2.0 * math.pi)


    def test_infinite_step_is_refused(self, qubit_json, capsys):
        code, out = run_json(
            ["strobe", "--input", qubit_json, "--epsilon", "0.9", "--t", "inf"], capsys
        )
        assert code == 1
        assert out["error"] == "BadParameter"

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_refused(self, qubit_json, capsys, cap):
        code, out = run_json(
            ["strobe", "--input", qubit_json, "--epsilon", "0.9", "--t", "0.37",
             "--jmax-cap", cap],
            capsys,
        )
        assert code == 1
        assert out["error"] == "BadParameter"
        assert f"jmax_cap must be >= 1, got {cap}" == out["message"]


class TestTruncate:
    def test_explicit_N(self, mixed3_json, capsys):
        code, out = run_json(
            ["truncate", "--input", mixed3_json, "--N", "2"], capsys
        )
        assert code == 0
        assert out["delta_N"] == pytest.approx(0.04)
        assert out["P_N"] == pytest.approx(0.8)

    def test_delta_target(self, mixed3_json, capsys):
        code, out = run_json(
            ["truncate", "--input", mixed3_json, "--delta-target", "0.05"], capsys
        )
        assert code == 0
        assert out["N"] == 2

    def test_population_order_prints_index_lists(self, tmp_path, capsys):
        path = tmp_path / "unsorted3.json"
        path.write_text(json.dumps({"energies": [0, 1, 2], "state": {"diagonal": [0.2, 0.5, 0.3]}}))
        argv = ["truncate", "--input", str(path), "--delta-target", "0.05", "--order", "population"]
        code, out = run_json(argv, capsys)
        assert code == 0
        assert out["kept_indices"] == [1, 2] and out["permutation"] == [1, 2, 0]

    def test_with_bounds(self, moving3_json, capsys):
        code, out = run_json(
            [
                "truncate",
                "--input",
                moving3_json,
                "--N",
                "2",
                "--epsilon",
                "0.5",
                "--mode",
                "energy",
            ],
            capsys,
        )
        assert code == 0
        expected = 2.0 * math.sqrt(0.04) + math.sqrt(2.0) * 0.8 * 0.5 * math.sqrt(
            1.0 - 0.25 / 8.0
        )
        assert out["bounds"]["distance_ceiling"] == pytest.approx(expected, rel=1e-12)
        assert out["bounds"]["ceiling_norm"] == "trace"

    def test_energy_mode_refuses_epsilon_of_two(self, qubit_json, capsys):
        # the qubit's torus allows eps < 2.22, but 1 - eps^2/4 <= 0 at eps >= 2
        argv = ["truncate", "--input", qubit_json, "--N", "2", "--epsilon", "2.1", "--mode", "energy"]
        code, out = run_json(argv, capsys)
        assert code == 1
        assert out["error"] == "PreconditionViolated" and out["max_epsilon"] == 2.0

    def test_neither_N_nor_target(self, mixed3_json, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["truncate", "--input", mixed3_json])
        assert exc.value.code == 2
        assert "one of the arguments --N --delta-target is required" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [["--N", "2", "--delta-target", "0.0"],
                                       ["--delta-target", "0.0", "--N", "2"]])
    def test_both_N_and_target(self, mixed3_json, capsys, order):
        # --N used to win silently, printing a delta_N above the target
        with pytest.raises(SystemExit) as exc:
            main(["truncate", "--input", mixed3_json, *order])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    def test_delta_target_skips_a_zero_probability_N(self, tmp_path, capsys):
        # N = 1 keeps only the empty level 0; N = 2 leaves delta_N = 0.25
        path = tmp_path / "empty-first.json"
        path.write_text(json.dumps({"energies": [0, 1, 2], "state": {"diagonal": [0, 0.5, 0.5]}}))
        code, out = run_json(["truncate", "--input", str(path), "--delta-target", "0.3"], capsys)
        assert code == 0
        assert out["N"] == 2 and out["delta_N"] == pytest.approx(0.25)

    def test_dimension_mode_refuses_epsilon_above_one(self, mixed3_json, capsys):
        argv = ["truncate", "--input", mixed3_json, "--N", "2", "--epsilon", "1.5",
                "--mode", "dimension"]
        code, out = run_json(argv, capsys)
        assert code == 1
        assert out["error"] == "BadDomain" and "(0, 1]" in out["message"]


class TestGeometry:
    def test_ball_and_tube(self, capsys):
        code, out = run_json(
            ["geometry", "--ball", "3", str(math.pi), "--tube", "3", "0.3", "5.0"],
            capsys,
        )
        assert code == 0
        assert out["ball"]["volume"] == pytest.approx(2.0 * math.pi**2, rel=1e-12)
        assert out["tube"]["volume"] == pytest.approx(math.pi * 0.09 * 5.0, rel=1e-12)

    def test_ball_at_large_dimension(self, capsys):
        # the volume, about exp(-950906), underflows to 0; the integral
        # behind it must still evaluate and the report stay strict JSON
        code = main(["geometry", "--ball", "200001", "1.2"])
        out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert code == 0
        assert out["ball"] == {"n": 200001, "r": 1.2, "volume": 0.0}

    def test_state_torus(self, mixed3_json, capsys):
        code, out = run_json(["geometry", "--state", mixed3_json], capsys)
        assert code == 0
        assert out["torus"]["radii"] == pytest.approx(
            [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)]
        )
        assert out["torus"]["injectivity_radius"] == pytest.approx(
            math.pi * math.sqrt(0.2)
        )

    def test_state_with_an_empty_level_takes_the_support_of_bounds(self, tmp_path, capsys):
        # level 2 sits at SUPPORT_TOL: both commands drop it by the one cut
        # and print the same radii, bit for bit; the coherence between
        # levels 0 and 1 makes the support move, so that bounds has a bracket
        path = tmp_path / "empty.json"
        rows = [[0.6, 0.1, 0.0], [0.1, 0.39999999999999, 0.0], [0.0, 0.0, 1e-14]]
        matrix = [[[x, 0.0] for x in row] for row in rows]
        path.write_text(json.dumps({"energies": [0.0, 1.0, 2.0], "state": {"matrix": matrix}}))
        code, out = run_json(["geometry", "--state", str(path)], capsys)
        assert code == 0
        assert out["torus"]["support_dropped"] == [2]
        code, report = run_json(["bounds", "--input", str(path), "--threshold", "0.9"], capsys)
        assert code == 0
        assert report["support_dropped"] == [2]
        assert out["torus"]["radii"] == report["torus_radii"]

    @pytest.fixture
    def cycle6_json(self, tmp_path):
        m = 6
        idx = np.arange(m)
        hop = np.abs(idx[:, None] - idx[None, :])
        dist = np.minimum(hop, m - hop).astype(float)
        spec = {
            "points": list(range(m)),
            "dist": dist.tolist(),
            "measure": [1.0] * m,
            "permutation": np.roll(idx, -1).tolist(),
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_metric_space_oracle(self, cycle6_json, capsys):
        code, out = run_json(
            ["geometry", "--metric-space", cycle6_json, "--point", "0", "--r", "2.0"],
            capsys,
        )
        assert code == 0
        rec = out["metric_recurrence"]
        assert rec["n_rec"] == 1 and rec["bound"] == pytest.approx(6.0) and rec["ok"]

    @pytest.mark.parametrize("point", ["6", "-1"])
    def test_metric_space_point_outside(self, cycle6_json, capsys, point):
        code, out = run_json(
            ["geometry", "--metric-space", cycle6_json, "--point", point, "--r", "2.0"],
            capsys,
        )
        assert code == 1
        assert out["error"] == "BadDomain"

    @pytest.mark.parametrize(
        "permutation", [[1.7, 0.2], [True, False], [1.0, 0.0], ["1", "0"]],
        ids=["fractions", "bools", "integral-floats", "strings"],
    )
    def test_metric_space_non_integer_permutation(self, tmp_path, capsys, permutation):
        # an int cast would read each of these as the swap [1, 0]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({
            "points": [0, 1], "dist": [[0.0, 1.0], [1.0, 0.0]], "measure": [1.0, 1.0],
            "permutation": permutation,
        }))
        code, out = run_json(["geometry", "--metric-space", str(path)], capsys)
        assert code == 1
        assert out["error"] == "BadDomain"
        assert out["message"].startswith("permutation entries must be integers")

    def test_metric_space_weights_whose_ratio_overflows(self, tmp_path, capsys):
        # mu(M) / mu(B) = 1e300 / 1e-10 is inf; the walk is bounded by the orbit
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({**SWAP2, "measure": [1e300, 1e-10], "permutation": [0, 1]}))
        argv = ["geometry", "--metric-space", str(path), "--point", "1", "--r", "0.5"]
        code, out = run_json(argv, capsys)
        assert code == 0
        rec = out["metric_recurrence"]
        assert rec["n_rec"] == 1 and rec["bound"] == "inf" and rec["ok"] is True

    def test_no_arguments(self, capsys):
        assert main(["geometry"]) == 2


class TestVerify:
    def test_single_fast_suite_prints_pass(self, capsys):
        code = main(["verify", "--suite", "special_functions"])
        out = capsys.readouterr().out
        assert code == 0
        assert "special_functions: PASS" in out

    @pytest.mark.parametrize("branch", [lambda m: m < 64, lambda m: m >= 64], ids=["wallis", "series"])
    def test_gamma_ratio_oracle_catches_a_beta_off_by_1e_9(self, branch, monkeypatch):
        beta_half = bounds._beta_half
        monkeypatch.setattr(
            bounds, "_beta_half", lambda m: beta_half(m) * (1.0 + (1e-9 if branch(m) else 0.0))
        )
        res = verify.special_function_suite()
        assert res["gamma_ratio_ok"] is False and res["ok"] is False

    def test_seed_goes_only_to_suites_with_a_seed_parameter(self, monkeypatch):
        def local_seed_suite():
            seed = 7  # a local variable, not a parameter
            return {"ok": seed == 7}

        monkeypatch.setitem(verify.ALL_SUITES, "local_seed", local_seed_suite)
        assert verify.run_suites({"local_seed"}, seed=3) == {"local_seed": {"ok": True}, "ok": True}

    def test_unknown_suite_is_refused_before_any_suite_runs(self, monkeypatch, capsys):
        # an unknown name used to run nothing and report {"ok": true}
        monkeypatch.setitem(verify.ALL_SUITES, "fvg", lambda: pytest.fail("a suite ran"))
        with pytest.raises(BadParameter, match="unknown suite 'nope'"):
            verify.run_suites({"nope"})
        with pytest.raises(BadParameter, match="unknown suite 'nope'"):
            verify.run_suites({"fvg", "nope"})
        code, out = run_json(["verify", "--suite", "nope"], capsys)
        assert code == 1
        assert out["error"] == "BadParameter"
        assert all(name in out["message"] for name in verify.ALL_SUITES)


    def test_negative_seed_is_refused_before_any_suite_runs(self, monkeypatch, capsys):
        # numpy refused it inside the first seeded suite, and the CLI
        # exited 2 with "error: expected non-negative integer"
        for name in verify.ALL_SUITES:
            monkeypatch.setitem(verify.ALL_SUITES, name, lambda: pytest.fail("a suite ran"))
        with pytest.raises(BadParameter, match="seed must be >= 0, got -1"):
            verify.run_suites(None, seed=-1)
        code, out = run_json(["verify", "--seed", "-1"], capsys)
        assert code == 1
        assert out == {"error": "BadParameter", "message": "seed must be >= 0, got -1"}


@pytest.mark.parametrize(
    "state",
    [
        {"pure": [[math.nan, 0.0], [0.7071067811865476, 0.0]]},
        {"matrix": [[[0.5, 0.0], [math.nan, 0.0]], [[math.nan, 0.0], [0.5, 0.0]]]},
        {"diagonal": [math.inf, 0.5]},
    ],
    ids=["pure", "matrix", "diagonal"],
)
def test_non_finite_state_gives_an_error_json(state, tmp_path, capsys):
    # a NaN amplitude used to give a "stationary" search with a NaN missable_depth
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"energies": [0.0, 1.0], "state": state}))
    argv = ["search", "--input", str(path), "--threshold", "0.9", "--horizon", "1.0"]
    code, out = run_json(argv, capsys)
    assert code == 1
    assert out["error"] == "BadParameter"
    assert "finite" in out["message"]


QUBIT_DIAGONAL = {"energies": [0.0, 1.0], "state": {"diagonal": [0.5, 0.5]}}
CYCLE1 = {"points": [0], "dist": [[0.0]], "measure": [1.0], "permutation": [0]}
SWAP2 = {"points": [0, 1], "dist": [[0.0, 1.0], [1.0, 0.0]], "permutation": [1, 0]}


@pytest.mark.parametrize(
    "flag, spec, error, field",
    [
        ("--input", {**QUBIT_DIAGONAL, "hbar": None}, "BadParameter", "hbar"),
        ("--input", {**QUBIT_DIAGONAL, "hbar": [1]}, "BadParameter", "hbar"),
        ("--input", {**QUBIT_DIAGONAL, "state": 5}, "BadParameter", "state"),
        ("--input", {**QUBIT_DIAGONAL, "state": {"gibbs": 3}}, "BadParameter", "state"),
        ("--input", {**QUBIT_DIAGONAL, "energies": ["a", 1]}, "BadParameter", "energies"),
        (
            "--input",
            {**QUBIT_DIAGONAL, "state": {"diagonal": ["x", 0.5]}},
            "BadParameter",
            "state.diagonal",
        ),
        (
            "--input",
            {**QUBIT_DIAGONAL, "state": {"pure": [[1, 0], [0]]}},
            "BadParameter",
            "state.pure",
        ),
        ("--input", {**QUBIT_DIAGONAL, "state": {"matrix": "abc"}}, "BadParameter", "state.matrix"),
        ("--input", {**QUBIT_DIAGONAL, "energies": ["1", 2]}, "BadParameter", "energies"),
        ("--input", {**QUBIT_DIAGONAL, "energies": [0, 10**400]}, "BadParameter", "energies"),
        ("--input", {**QUBIT_DIAGONAL, "hbar": 10**400}, "BadParameter", "hbar"),
        (
            "--input",
            {**QUBIT_DIAGONAL, "state": {"diagonal": [True, False]}},
            "BadParameter",
            "state.diagonal",
        ),
        (
            "--metric-space",
            {"points": 5, "dist": [[0.0]], "measure": [1.0], "permutation": [0]},
            "BadDomain",
            "points",
        ),
        (
            "--metric-space",
            {"points": [0], "dist": [[0.0]], "measure": [1.0], "permutation": 0},
            "BadDomain",
            "permutation",
        ),
        ("--metric-space", [1, 2], "BadDomain", "points"),
        (
            "--metric-space",
            {"points": [0, 1], "dist": [[0, math.nan], [math.nan, 0]], "measure": [1, 1],
             "permutation": [1, 0]},
            "BadDomain",
            "dist",
        ),
        ("--metric-space", {**SWAP2, "measure": [math.inf, math.inf]}, "BadDomain", "measure"),
        ("--metric-space", {**SWAP2, "measure": [1e308, 1e308]}, "BadDomain", "measure"),
        (
            "--metric-space",
            {**SWAP2, "dist": [["a", 1], [1, 0]], "measure": [1, 1]},
            "BadParameter",
            "dist",
        ),
        ("--metric-space", {**SWAP2, "measure": [1, [1]]}, "BadParameter", "measure"),
        *(
            ("--metric-space", {k: v for k, v in CYCLE1.items() if k != field}, "BadDomain", field)
            for field in CYCLE1
        ),
    ],
    ids=[
        "hbar-null", "hbar-list", "state-number", "gibbs-number", "energies-string",
        "diagonal-string", "pure-ragged", "matrix-string", "energies-numeric-string",
        "energies-past-float-range", "hbar-past-float-range",
        "diagonal-bool", "points-number", "perm-number", "space-list", "dist-nan", "measure-inf",
        "measure-overflow", "dist-string", "measure-ragged", "no-points", "no-dist", "no-measure",
        "no-permutation",
    ],
)
def test_malformed_input_file_gives_an_error_json(flag, spec, error, field, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(spec))
    if flag == "--input":
        argv = ["search", "--input", str(path), "--threshold", "0.9", "--horizon", "1.0"]
    else:
        argv = ["geometry", "--metric-space", str(path)]
    code, out = run_json(argv, capsys)
    assert code == 1
    assert out["error"] == error
    assert out["message"].startswith(field)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    """Every subcommand writes JSON that a strict parser accepts: a
    non-finite number is the string "inf", "-inf" or "nan"."""

    @pytest.fixture
    def equal200_json(self, tmp_path):
        # the equal superposition of 200 levels saturates the bounds at a
        # tight threshold
        path = tmp_path / "equal200.json"
        s = 1.0 / math.sqrt(200.0)
        path.write_text(
            json.dumps({"energies": list(range(200)), "state": {"pure": [[s, 0.0]] * 200}})
        )
        return str(path)

    def test_saturated_values_are_strings(self, equal200_json, qubit_json, capsys):
        assert main(["bounds", "--input", equal200_json, "--threshold", "0.999999"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        for key in ("upper_product", "upper_simplified", "jmax_dimension"):
            assert out[key] == "inf"
        assert out["estimates"]["bhattacharyya"] == "inf"
        # a fidelity floor of 1 has no finite dimension ceiling
        argv = ["strobe", "--input", qubit_json, "--epsilon", "1.0", "--t", "0.37", "--jmax-cap", "10"]
        code, out = run_json(argv, capsys)
        assert code == 0 and out["jmax_theory"] == "inf" and out["cap_exceeded"]

    def test_every_subcommand_parses_strictly(
        self, qubit_json, mixed3_json, equal200_json, tmp_path, capsys
    ):
        verify_path = tmp_path / "verify.json"
        calls = [
            ["bounds", "--input", equal200_json, "--threshold", "0.999999"],
            ["search", "--input", qubit_json, "--threshold", "0.999", "--horizon", "7.0"],
            ["strobe", "--input", qubit_json, "--epsilon", "1.0", "--t", "0.37", "--jmax-cap", "10"],
            ["truncate", "--input", mixed3_json, "--N", "2", "--epsilon", "0.1"],
            ["geometry", "--ball", "3", "1.5", "--state", mixed3_json],
            ["truncate", "--input", qubit_json, "--N", "1", "--epsilon", "0.1"],  # error JSON
        ]
        for argv in calls:
            assert main(argv) in (0, 1)
            json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert main(["verify", "--suite", "special_functions", "--output", str(verify_path)]) == 0
        json.loads(verify_path.read_text(), parse_constant=_reject_constant)


BOUND_KEYS = {
    "energy_uncertainty", "epsilon", "epsilon_convention", "hbar",
    "jmax_dimension", "lambda_shift", "log_jmax_dimension", "log_upper_product",
    "log_upper_simplified", "lower_mt", "max_epsilon", "n", "preconditions",
    "support_dropped", "torus_radii", "upper_product", "upper_simplified",
}
TRUNCATE_KEYS = {
    "N", "P_N", "bounds", "complement_hs_sq", "complement_trace_norm", "delta_N",
    "kept_indices", "norm", "permutation", "sigma_tilde",
}


@pytest.mark.parametrize(
    "argv, keys, nested",
    [
        (
            ["bounds", "--input", "QUBIT", "--threshold", "0.999"],
            BOUND_KEYS | {"estimates", "threshold"},
            {"estimates": {"bhattacharyya", "note", "peres"}},
        ),
        (
            ["search", "--input", "QUBIT", "--threshold", "0.999", "--horizon", "7.0"],
            {
                "bounds", "bracket_check", "definition", "diagnostics", "epsilon",
                "epsilon_convention", "grid", "hbar", "no_departure_within_horizon",
                "norms", "refined", "stationary", "t_departure", "t_rec", "threshold",
            },
            {
                "bounds": BOUND_KEYS,
                "bracket_check": {"lower_mt", "lower_ok", "upper_ok", "upper_product"},
                "diagnostics": {"chunks", "missable_depth", "samples_evaluated", "samples_sieved"},
                "grid": {"dt", "steps", "t0"},
            },
        ),
        (
            ["strobe", "--input", "QUBIT", "--epsilon", "0.9", "--t", str(2.0 * math.pi)],
            {
                "cap", "cap_exceeded", "diagnostics", "epsilon", "epsilon_convention",
                "j_found", "jmax_theory", "t", "t_rec",
            },
            {"diagnostics": {"chunks", "samples_evaluated", "samples_sieved"}},
        ),
        (
            ["truncate", "--input", "MOVING3", "--N", "2", "--epsilon", "0.5", "--mode", "energy"],
            TRUNCATE_KEYS,
            {"bounds": BOUND_KEYS | {"ceiling_norm", "distance_ceiling"}},
        ),
        (
            ["truncate", "--input", "MIXED3", "--N", "2", "--epsilon", "0.9", "--mode", "dimension"],
            TRUNCATE_KEYS,
            {"bounds": BOUND_KEYS | {"ceiling_norm", "distance_ceiling"}},
        ),
    ],
    ids=["bounds", "search", "strobe", "truncate-energy", "truncate-dimension"],
)
def test_report_key_sets(argv, keys, nested, qubit_json, mixed3_json, moving3_json, capsys):
    """The exact keys of each report, so a field added to or dropped from a
    result record shows up as a schema change."""
    paths = {"QUBIT": qubit_json, "MIXED3": mixed3_json, "MOVING3": moving3_json}
    code, out = run_json([paths.get(a, a) for a in argv], capsys)
    assert code == 0
    assert set(out) == keys
    for key, sub in nested.items():
        assert set(out[key]) == sub
