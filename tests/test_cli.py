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
        # of the 9 samples, t = 0, pi and 2 pi are evaluated: F(pi) = 0
        # proves the other 6 samples within 3 steps of it below the threshold
        # missable_depth = speed * dt / 2 = (1/2)(pi/4)/2
        assert out["diagnostics"] == {
            "samples_evaluated": 3,
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
    "N", "P_N", "bounds", "complement_hs_sq", "delta_N", "kept_indices", "norm",
    "permutation", "sigma_tilde",
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
                "diagnostics": {"chunks", "missable_depth", "samples_evaluated"},
                "grid": {"dt", "steps", "t0"},
            },
        ),
        (
            ["strobe", "--input", "QUBIT", "--epsilon", "0.9", "--t", str(2.0 * math.pi)],
            {
                "cap", "cap_exceeded", "epsilon", "epsilon_convention", "j_found",
                "jmax_theory", "t", "t_rec",
            },
            {},
        ),
        (
            ["truncate", "--input", "MIXED3", "--N", "2", "--epsilon", "0.5", "--mode", "energy"],
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
def test_report_key_sets(argv, keys, nested, qubit_json, mixed3_json, capsys):
    """The exact keys of each report, so a field added to or dropped from a
    result dataclass shows up as a schema change."""
    paths = {"QUBIT": qubit_json, "MIXED3": mixed3_json}
    code, out = run_json([paths.get(a, a) for a in argv], capsys)
    assert code == 0
    assert set(out) == keys
    for key, sub in nested.items():
        assert set(out[key]) == sub
