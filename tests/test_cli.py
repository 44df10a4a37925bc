import json
import math

import numpy as np
import pytest

from qrecur.cli import main


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
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,fidelity,bures,trace_dist,hs_dist,torus_dist"
        assert len(lines) == 1 + out["grid"]["steps"]
        # repr round trip: the stored fidelity parses back to the exact float
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)

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

    def test_with_bounds(self, mixed3_json, capsys):
        code, out = run_json(
            [
                "truncate",
                "--input",
                mixed3_json,
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

    def test_neither_N_nor_target(self, mixed3_json, capsys):
        assert main(["truncate", "--input", mixed3_json]) == 2


class TestGeometry:
    def test_ball_and_tube(self, capsys):
        code, out = run_json(
            ["geometry", "--ball", "3", str(math.pi), "--tube", "3", "0.3", "5.0"],
            capsys,
        )
        assert code == 0
        assert out["ball"]["volume"] == pytest.approx(2.0 * math.pi**2, rel=1e-12)
        assert out["tube"]["volume"] == pytest.approx(math.pi * 0.09 * 5.0, rel=1e-12)

    def test_state_torus(self, mixed3_json, capsys):
        code, out = run_json(["geometry", "--state", mixed3_json], capsys)
        assert code == 0
        assert out["torus"]["radii"] == pytest.approx(
            [math.sqrt(0.5), math.sqrt(0.3), math.sqrt(0.2)]
        )
        assert out["torus"]["injectivity_radius"] == pytest.approx(
            math.pi * math.sqrt(0.2)
        )

    def test_metric_space_oracle(self, tmp_path, capsys):
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
        code, out = run_json(
            ["geometry", "--metric-space", str(path), "--point", "0", "--r", "2.0"],
            capsys,
        )
        assert code == 0
        rec = out["metric_recurrence"]
        assert rec["n_rec"] == 1 and rec["bound"] == pytest.approx(6.0) and rec["ok"]

    def test_no_arguments(self, capsys):
        assert main(["geometry"]) == 2


class TestVerify:
    def test_single_fast_suite_prints_pass(self, capsys):
        code = main(["verify", "--suite", "special_functions"])
        out = capsys.readouterr().out
        assert code == 0
        assert "special_functions: PASS" in out
