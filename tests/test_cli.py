"""Command line front end tests: schemas, determinism, exit codes, and
the property-check subcommand including its fault-injection smoke test."""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twirlkit
from twirlkit import InvalidSpecError, checks, states
from twirlkit.cli import SweepSpec, build_parser, main

EXPECTED_HEADER = (
    "param,delta_pure,delta_twirled,ratio,ratio_defined,"
    "dg_pure,dg_twirled,concurrence_pure,concurrence_twirled,"
    "eof_pure,eof_twirled"
)

FAST_CHECK_FLAGS = [
    "--random-states", "30",
    "--mc-states", "5",
    "--mc-samples", "20000",
    "--runs", "20",
    "--rounds", "20000",
    "--bound-states", "300",
    "--x-states", "60",
    "--range-states", "300",
]


def run_sweep_to(path, grid="0:1.5707963267948966:4", extra=()):
    code = main(["sweep", "--family", "pure", "--grid", grid, "--out", str(path), *extra])
    assert code == 0
    return path.read_text()


class TestSweep:
    def test_header_and_bell_point(self, tmp_path):
        text = run_sweep_to(tmp_path / "sweep.csv")
        lines = text.splitlines()
        assert lines[0] == EXPECTED_HEADER
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert first["param"] == "0"
        assert first["ratio"] == "nan"
        assert first["ratio_defined"] == "false"
        assert float(first["delta_pure"]) == 0.0

    def test_ratio_two_thirds(self, tmp_path):
        text = run_sweep_to(tmp_path / "sweep.csv", grid="0.5235987755982988:1.5707963267948966:3")
        for line in text.splitlines()[1:]:
            row = dict(zip(EXPECTED_HEADER.split(","), line.split(",")))
            assert row["ratio_defined"] == "true"
            assert abs(float(row["ratio"]) - 2 / 3) <= 1e-12

    def test_values_at_pi_over_three(self, tmp_path):
        text = run_sweep_to(tmp_path / "sweep.csv", grid="1.0471975511965976:1.0471975511965976:1")
        row = dict(zip(EXPECTED_HEADER.split(","), text.splitlines()[1].split(",")))
        assert float(row["dg_pure"]) == pytest.approx(0.125, abs=1e-9)
        assert float(row["dg_twirled"]) == pytest.approx(2 / 9, abs=1e-9)
        assert float(row["delta_pure"]) == pytest.approx(0.25, abs=1e-12)
        assert float(row["delta_twirled"]) == pytest.approx(1 / 6, abs=1e-12)
        assert float(row["concurrence_pure"]) == pytest.approx(0.5, abs=1e-10)
        assert float(row["eof_pure"]) == pytest.approx(float(row["eof_twirled"]), abs=1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        a = run_sweep_to(tmp_path / "a.csv")
        b = run_sweep_to(tmp_path / "b.csv")
        assert a == b

    def test_floats_roundtrip_exactly(self, tmp_path):
        text = run_sweep_to(tmp_path / "sweep.csv")
        row = text.splitlines()[2].split(",")
        # 17 significant digits reparse to the identical double
        value = float(row[1])
        assert format(value, ".17g") == row[1]

    def test_json_format(self, tmp_path):
        path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--family", "pure", "--grid", "0:1.5707963267948966:3",
            "--format", "json", "--out", str(path),
        ])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["family"] == "pure"
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["ratio"] is None  # undefined 0/0 emitted as null
        assert doc["rows"][1]["ratio"] == pytest.approx(2 / 3, abs=1e-12)

    def test_quantities_subset(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "pure", "--grid", "0.3:1.2:4",
            "--quantities", "delta_pure,ratio", "--out", str(path),
        ])
        assert code == 0
        assert path.read_text().splitlines()[0] == "param,delta_pure,ratio,ratio_defined"

    def test_werner_family(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main(["sweep", "--family", "werner", "--grid", "0.75:0.75:1", "--out", str(path)])
        assert code == 0
        row = dict(zip(EXPECTED_HEADER.split(","), path.read_text().splitlines()[1].split(",")))
        # the twirl fixes Werner states, so both columns coincide
        assert float(row["delta_pure"]) == pytest.approx(1 / 6, abs=1e-12)
        assert float(row["ratio"]) == pytest.approx(1.0, abs=1e-12)

    def test_depolarized_family_has_p_column(self, tmp_path):
        path = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--family", "depolarized", "--grid", "0.4:0.4:1", "--p", "0.5",
            "--out", str(path),
        ])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("param,p,")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        cg = math.cos(0.4)
        assert float(row["p"]) == 0.5
        assert float(row["dg_pure"]) == pytest.approx(0.25 * cg**2 / 2, abs=1e-9)
        assert float(row["dg_twirled"]) == pytest.approx(0.25 * (1 + 2 * cg) ** 2 / 18, abs=1e-9)

    def test_invalid_family_exits_one(self, capsys):
        assert main(["sweep", "--family", "ghz", "--grid", "0:1:2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_grid_exits_one(self, capsys):
        assert main(["sweep", "--family", "pure", "--grid", "0..1"]) == 1
        capsys.readouterr()

    def test_depolarized_without_p_exits_one(self, capsys):
        assert main(["sweep", "--family", "depolarized", "--grid", "0:1:2"]) == 1
        capsys.readouterr()

    def test_family_choices_are_the_states_table(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        family = next(a for a in sub.choices["sweep"]._actions if a.dest == "family")
        assert family.choices == list(states.FAMILY_PARAMS)
        for name, params in states.FAMILY_PARAMS.items():
            loaded = states.state_from_dict({"family": name, **{k: 0.5 for k in params}})
            built = states.family_state(name, *[0.5] * len(params))
            np.testing.assert_array_equal(loaded.rho, built.rho)

    def test_unknown_family_spec_raises(self):
        # not reachable through argparse, which rejects the name first
        with pytest.raises(InvalidSpecError):
            SweepSpec(family="ghz", grid=[0.1])


@pytest.fixture
def werner_file(tmp_path):
    path = tmp_path / "werner.json"
    path.write_text(json.dumps({"family": "werner", "F": 0.75}))
    return path


class TestSimulate:
    def test_summary_schema_and_convergence(self, tmp_path, werner_file):
        out = tmp_path / "summary.json"
        code = main([
            "simulate", "--state", str(werner_file), "--n", "200000", "--seed", "42",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert list(doc) == [
            "n_rounds", "m_sifted", "delta_x_hat", "delta_y_hat", "delta_hat", "delta_analytic",
        ]
        assert doc["delta_analytic"] == pytest.approx(1 / 6, abs=1e-12)
        gate = 4 * math.sqrt((1 / 6) * (5 / 6) / doc["m_sifted"])
        assert abs(doc["delta_hat"] - 1 / 6) <= gate

    def test_deterministic(self, tmp_path, werner_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--state", str(werner_file), "--n", "5000", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_bell_point_zero_errors(self, tmp_path):
        state = tmp_path / "pure0.json"
        state.write_text(json.dumps({"family": "pure", "gamma": 0.0}))
        out = tmp_path / "summary.json"
        code = main(["simulate", "--state", str(state), "--n", "1000", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["delta_hat"] == 0.0

    def test_matrix_state_file(self, tmp_path):
        # maximally mixed via the matrix representation: uncorrelated key
        rows = [[{"re": 0.25 if i == j else 0.0, "im": 0.0} for j in range(4)] for i in range(4)]
        state = tmp_path / "mixed.json"
        state.write_text(json.dumps({"matrix": rows}))
        out = tmp_path / "summary.json"
        code = main([
            "simulate", "--state", str(state), "--n", "200000", "--seed", "3",
            "--b", "1,0,0", "--b-prime", "0,-1,0", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        gate = 4 * math.sqrt(0.25 / doc["m_sifted"])
        assert abs(doc["delta_hat"] - 0.5) <= gate

    def test_rounds_csv(self, tmp_path, werner_file):
        out = tmp_path / "summary.json"
        rounds = tmp_path / "rounds.csv"
        code = main([
            "simulate", "--state", str(werner_file), "--n", "400", "--seed", "2",
            "--out", str(out), "--rounds-csv", str(rounds),
        ])
        assert code == 0
        lines = rounds.read_text().splitlines()
        assert lines[0] == "round,alice_basis,bob_basis,alice_bit,bob_bit,sifted"
        assert len(lines) == 401

    def test_missing_state_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "--state", str(tmp_path / "none.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_schema_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": "pure"}))
        assert main(["simulate", "--state", str(bad)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("b", ["nan,0,0", "inf,0,0"])
    def test_non_finite_direction_exits_one(self, tmp_path, werner_file, capsys, b):
        out = tmp_path / "summary.json"
        code = main([
            "simulate", "--state", str(werner_file), "--n", "100",
            "--b", b, "--b-prime", "0,1,0", "--out", str(out),
        ])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestTwirlCommand:
    def test_pure_state_report(self, tmp_path):
        state = tmp_path / "pure.json"
        state.write_text(json.dumps({"family": "pure", "gamma": math.pi / 3}))
        out = tmp_path / "report.json"
        code = main(["twirl", "--state", str(state), "--n", "100000", "--seed", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["fidelity"] == pytest.approx(0.75, abs=1e-12)
        assert doc["trace_distance_to_analytic"] <= 0.02
        assert doc["discord_before"] == pytest.approx(0.125, abs=1e-6)
        assert doc["discord_after"] == pytest.approx(2 / 9, abs=1e-6)
        assert doc["concurrence_before"] == pytest.approx(0.5, abs=1e-10)
        t = doc["analytic_pauli"]["T"]
        assert t[0][0] == pytest.approx(2 / 3, abs=1e-12)
        assert t[1][1] == pytest.approx(-2 / 3, abs=1e-12)

    def test_werner_input_invariant(self, tmp_path):
        state = tmp_path / "w.json"
        state.write_text(json.dumps({"family": "werner", "F": 0.6}))
        out = tmp_path / "report.json"
        code = main(["twirl", "--state", str(state), "--n", "2000", "--seed", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["trace_distance_to_analytic"] <= 1e-12

    def test_depolarized_discord_increases(self, tmp_path):
        state = tmp_path / "d.json"
        state.write_text(json.dumps({"family": "depolarized", "gamma": math.pi / 4, "p": 0.5}))
        out = tmp_path / "report.json"
        code = main(["twirl", "--state", str(state), "--n", "2000", "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["discord_after"] >= doc["discord_before"]


class TestCheck:
    def test_reduced_run_all_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "7", *FAST_CHECK_FLAGS, "--out", str(out)])
        doc = json.loads(out.read_text())
        failing = [p["name"] for p in doc["properties"] if p["status"] == "fail"]
        assert failing == []
        assert doc["all_pass"] is True
        assert code == 0

    def test_default_run_all_pass(self, tmp_path):
        # Full documented sample counts; this is the slow, authoritative run.
        out = tmp_path / "report.json"
        code = main(["check", "--out", str(out)])
        doc = json.loads(out.read_text())
        failing = [p["name"] for p in doc["properties"] if p["status"] == "fail"]
        assert failing == []
        assert code == 0
        names = [p["name"] for p in doc["properties"]]
        assert "measures_discord_error_bound" in names
        assert "measures_xstate_oracle_agreement" in names

    def test_fault_injection_fails_discord_properties(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "check", "--seed", "7", *FAST_CHECK_FLAGS,
            "--inject-fault", "discord-x-negate-rho14", "--out", str(out),
        ])
        assert code == 2
        doc = json.loads(out.read_text())
        failing = {p["name"] for p in doc["properties"] if p["status"] == "fail"}
        assert "measures_xstate_oracle_agreement" in failing
        assert "measures_bound_saturation_families" in failing
        assert doc["all_pass"] is False

    def test_small_mc_budget_is_skipped_not_failed(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "7", *FAST_CHECK_FLAGS, "--mc-samples", "10", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        mc = next(p for p in doc["properties"] if p["name"] == "twirl_mc_agreement")
        assert mc["status"] == "skipped"
        assert "below-threshold" in mc["detail"]

    def test_tolerance_override(self, tmp_path):
        # an impossible Monte Carlo gate must flip exactly that property
        out = tmp_path / "report.json"
        code = main([
            "check", "--seed", "7", *FAST_CHECK_FLAGS,
            "--tolerance", "mc_trace_distance=1e-9", "--out", str(out),
        ])
        assert code == 2
        doc = json.loads(out.read_text())
        failing = {p["name"] for p in doc["properties"] if p["status"] == "fail"}
        assert failing == {"twirl_mc_agreement"}

    def test_unknown_tolerance_exits_one(self, capsys):
        assert main(["check", "--tolerance", "nonsense=1"]) == 1
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exits_one(self, capsys, value):
        assert main(["check", *FAST_CHECK_FLAGS, "--tolerance", f"oracle_agreement={value}"]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--random-states", "--mc-states", "--runs", "--rounds", "--bound-states", "--x-states", "--range-states",
    ])
    def test_counts_below_one_exit_one(self, capsys, flag):
        assert main(["check", *FAST_CHECK_FLAGS, flag, "0"]) == 1
        assert flag in capsys.readouterr().err

    def test_xstate_margin_is_not_masked(self):
        result = checks.check_measures_xstate_oracle_agreement(checks.CheckConfig(x_states=6))
        assert result.status == "pass"
        assert result.worst_margin < 0.0
        assert "worst value gap" in result.detail


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the subprocess imports the same twirlkit as this test, not an installed copy
        src = os.path.dirname(os.path.dirname(twirlkit.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "twirlkit.cli", "sweep", "--family", "pure", "--grid", "0.2:1.2:3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == EXPECTED_HEADER

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
