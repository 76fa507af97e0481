"""Command line front end tests: schemas, determinism, exit codes, and
the property-check subcommand including its fault-injection smoke test."""

import argparse
import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twirlkit
from twirlkit import InvalidSpecError, checks, cli, measures, min_error_rate, protocol, states, twirl_analytic
from twirlkit.cli import SweepSpec, build_parser, main, render_sweep_csv, render_sweep_json

EXPECTED_HEADER = (
    "param,delta_pure,delta_twirled,ratio,ratio_defined,"
    "dg_pure,dg_twirled,concurrence_pure,concurrence_twirled,"
    "eof_pure,eof_twirled"
)

FAST_CHECK_FLAGS = [
    "--random-states", "30",
    "--mc-states", "5",
    "--runs", "20",
    "--bound-states", "300",
    "--x-states", "60",
    "--range-states", "300",
]

# The discord, concurrence and EoF outputs against their closed forms at
# gamma = pi/3 (discords 1/8 and 2/9, concurrence 1/2) and, for the sweep's
# discords, at the depolarized point gamma = 0.4, p = 1/2, measured with
# numpy 2.4.6 and OpenBLAS 0.3.31. Each tolerance is four times its group's
# worst gap:
# - twirl's discord_before and discord_after: 1.11e-16 and 2.8e-17;
# - the sweep's dg_pure and dg_twirled, pure and depolarized: 1.11e-16;
# - the sweep's concurrence_pure and twirl's concurrence_before: 2.22e-16
#   each; the sweep's eof_pure against its eof_twirled: 8.88e-16.
TWIRL_DISCORD_ATOL = 4 * 1.11e-16
SWEEP_DISCORD_ATOL = 4 * 1.11e-16
CONCURRENCE_ATOL = 4 * 2.22e-16
EOF_ATOL = 4 * 8.88e-16



def _perfbench_check_counts():
    """The reduced ``check`` counts of the benchmark's ``verify`` workload,
    read from perfbench/workloads.py without importing it."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["CHECK_COUNTS"]]
    return list(ast.literal_eval(value))


# Small counts for the tests that assert on one or two properties of the
# report rather than on the whole suite passing.
MIN_CHECK_FLAGS = [
    "--random-states", "1",
    "--mc-states", "1",
    "--runs", "1",
    "--bound-states", "1",
    "--x-states", "6",
    "--range-states", "1",
]
MIN_CHECK_CONFIG = checks.CheckConfig(**{f[2:].replace("-", "_"): int(v) for f, v in zip(*[iter(MIN_CHECK_FLAGS)] * 2)})

# The properties that compare a reading against each gate of
# checks.TOLERANCES; the other three entries set the X-state branch rules.
GATE_PROPERTIES = {
    "entrywise": {
        "algebra_pauli_roundtrip", "algebra_purity_identity", "states_pure_fidelity_grid", "states_cross_constructor",
        "twirl_idempotent", "twirl_fidelity_preserved", "twirl_linear", "protocol_outcome_closure",
        "protocol_correlation_identity", "protocol_partner_optimality", "protocol_optimal_value_row_norm",
        "measures_discord_range", "measures_twirl_pair_monotonicity",
    },
    "eigen_floor": {"algebra_eigenvalue_range"},
    "mc_trace_distance": {"twirl_mc_agreement"},
    "sim_fail_fraction": {"protocol_simulator_convergence"},
    "eigen_grid_agreement": {"measures_eigen_grid_agreement"},
    "oracle_agreement": {"measures_xstate_oracle_agreement", "measures_twirl_pair_monotonicity"},
    "bound_slack": {"measures_discord_error_bound", "measures_bound_saturation_families"},
    "concurrence_invariance": {"measures_concurrence_lu_invariant", "measures_twirl_pair_monotonicity"},
    "relation_equality": {"measures_delta_min_relation"},
    "discord_increase": {"measures_twirl_pair_monotonicity"},
    "product_discord": {"measures_discord_range"},
    "argmin_residual": {"measures_discord_range"},
}


def _run_property(name, config):
    """The property ``name`` alone, as ``run_all`` reports it."""
    return checks._result(name, *dict(checks.ALL_CHECKS)[name](config))


def reference_sweep_rows(spec):
    """The sweep as a point-by-point loop over single states, kept as reference."""
    rows = []
    for point in spec.points():
        state = states.family_state(spec.family, *point)
        twirled = twirl_analytic(state)
        delta_pure = min_error_rate(state).value
        delta_twirled = min_error_rate(twirled).value
        defined = delta_pure > 0.0
        c_pure, c_twirled = measures.concurrence(state), measures.concurrence(twirled)
        row = {
            "param": point[0],
            "delta_pure": delta_pure,
            "delta_twirled": delta_twirled,
            "ratio": delta_twirled / delta_pure if defined else float("nan"),
            "ratio_defined": defined,
            "dg_pure": measures.discord_eigen(state).value,
            "dg_twirled": measures.discord_eigen(twirled).value,
            "concurrence_pure": c_pure,
            "concurrence_twirled": c_twirled,
            "eof_pure": measures.eof_from_concurrence(c_pure),
            "eof_twirled": measures.eof_from_concurrence(c_twirled),
        }
        row.update(zip(spec.extra_params, point[1:]))
        rows.append(row)
    return rows


def reference_sweep_json(rows, spec):
    """The sweep JSON through the ``json`` encoder, kept as reference."""
    cols = spec.columns()
    return cli._dump_json({"family": spec.family, "rows": [{c: r[c] for c in cols} for r in rows]})


def reference_sweep_csv(rows, spec):
    """The sweep CSV formatted cell by cell from the rows, kept as reference."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value, ".17g")

    cols = spec.columns()
    lines = [",".join(cols)] + [",".join(cell(r[c]) for c in cols) for r in rows]
    return "\n".join(lines) + "\n"


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

    def test_ratio_gate_near_the_maximally_entangled_point(self):
        # the benchmark's gate: delta_pure cancels to a few ulps, so the
        # ratio's error grows like eps / delta_pure as gamma goes to 0
        table = cli.run_sweep(SweepSpec(family="pure", grid=np.linspace(0.003, math.pi / 2, 2000)))
        assert table["ratio_defined"].all()
        gate = 1e-12 + 8 * sys.float_info.epsilon / table["delta_pure"]
        assert np.all(np.abs(table["ratio"] - 2 / 3) <= gate)

    def test_values_at_pi_over_three(self, tmp_path):
        text = run_sweep_to(tmp_path / "sweep.csv", grid="1.0471975511965976:1.0471975511965976:1")
        row = dict(zip(EXPECTED_HEADER.split(","), text.splitlines()[1].split(",")))
        assert float(row["dg_pure"]) == pytest.approx(0.125, abs=SWEEP_DISCORD_ATOL)
        assert float(row["dg_twirled"]) == pytest.approx(2 / 9, abs=SWEEP_DISCORD_ATOL)
        assert float(row["delta_pure"]) == pytest.approx(0.25, abs=1e-12)
        assert float(row["delta_twirled"]) == pytest.approx(1 / 6, abs=1e-12)
        assert float(row["concurrence_pure"]) == pytest.approx(0.5, abs=CONCURRENCE_ATOL)
        assert float(row["eof_pure"]) == pytest.approx(float(row["eof_twirled"]), abs=EOF_ATOL)

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
        assert float(row["dg_pure"]) == pytest.approx(0.25 * cg**2 / 2, abs=SWEEP_DISCORD_ATOL)
        assert float(row["dg_twirled"]) == pytest.approx(0.25 * (1 + 2 * cg) ** 2 / 18, abs=SWEEP_DISCORD_ATOL)

    def test_invalid_family_exits_one(self, capsys):
        assert main(["sweep", "--family", "ghz", "--grid", "0:1:2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_quantities_exits_one(self, capsys):
        assert main(["sweep", "--family", "pure", "--grid", "0:1:3", "--quantities", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "quantities" in captured.err

    def test_concurrence_once_per_state(self, monkeypatch):
        # each row's entanglement of formation reuses the row's concurrence:
        # the states passed to concurrence (stacks count by member) are the
        # pure and the twirled state of each row, once each
        calls = []
        original = measures.concurrence

        def counted(state):
            calls.append(state)
            return original(state)

        monkeypatch.setattr(cli, "concurrence", counted)
        monkeypatch.setattr(measures, "concurrence", counted)
        spec = SweepSpec(family="depolarized", grid=[0.2, 0.9], p=0.6)
        rows = cli.run_sweep(spec)
        assert sum(math.prod(s.rho.shape[:-2]) for s in calls) == 2 * len(rows)
        for row, (g, p) in zip(rows, spec.points()):
            state = states.depolarized_pure(g, p)
            assert row["eof_pure"] == measures.entanglement_of_formation(state)
            assert row["eof_twirled"] == measures.entanglement_of_formation(twirl_analytic(state))

    @pytest.mark.parametrize("family, grid, p, quantities", [
        ("pure", "0:1.5707963267948966:301", None, None),  # gamma = 0: ratio undefined
        ("werner", "0:1:301", None, None),  # includes F = 1/4
        ("werner", "0.25:0.25:1", None, None),
        ("depolarized", "0:1.5707963267948966:301", 0.6, None),
        ("depolarized", "0:1.5707963267948966:31", 1.0, None),
        ("pure", "0:1.5707963267948966:51", None, ["delta_pure", "ratio", "eof_twirled"]),
        ("depolarized", "0:1.5707963267948966:31", 0.0, None),  # maximally mixed: every ratio is 1
    ])
    def test_matches_reference_loop(self, family, grid, p, quantities):
        spec = SweepSpec(family=family, grid=cli._parse_grid(grid), quantities=quantities, p=p)
        table, reference = cli.run_sweep(spec), reference_sweep_rows(spec)
        assert table.dtype.names == tuple(spec.columns())
        for c in spec.columns():
            expected = np.array([r[c] for r in reference], dtype=table.dtype[c])
            # compared as bytes, so that nan and the sign of zero count
            assert table[c].tobytes() == expected.tobytes(), c
        assert render_sweep_csv(table, spec) == reference_sweep_csv(reference, spec)
        assert render_sweep_json(table, spec) == reference_sweep_json(reference, spec)

    @pytest.mark.parametrize("argv, message", [
        (["--family", "pure", "--grid", "1:3:3"], "gamma must lie in [0, pi/2], got 2.0"),
        (["--family", "werner", "--grid=-1:2:4"], "fidelity must lie in [0, 1], got -1.0"),
        (["--family", "depolarized", "--grid", "0:4:3", "--p", "0.5"], "gamma must lie in [0, pi/2], got 2.0"),
        (["--family", "depolarized", "--grid", "0:1:3", "--p", "1.5"], "mixing weight must lie in [0, 1], got 1.5"),
    ])
    def test_out_of_range_grid_names_the_first_bad_point(self, capsys, argv, message):
        assert main(["sweep", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("grid", ["inf:1:3", "0:inf:1", "1e400:1:3", "nan:1:3", "1e308:-1e308:3"])
    def test_non_finite_grid_names_the_option(self, capsys, recwarn, grid):
        assert main(["sweep", "--family", "pure", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --grid") and captured.err.count("\n") == 1
        # numpy's RuntimeWarning lines would land on stderr too
        assert not recwarn.list

    def test_invalid_grid_exits_one(self, capsys):
        assert main(["sweep", "--family", "pure", "--grid", "0..1"]) == 1
        capsys.readouterr()

    def test_depolarized_without_p_exits_one(self, capsys):
        assert main(["sweep", "--family", "depolarized", "--grid", "0:1:2"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("family", ["pure", "werner"])
    def test_p_without_p_parameter_exits_one(self, capsys, family):
        # --p belongs to the depolarized family; other families must not ignore it
        assert main(["sweep", "--family", family, "--grid", "0.5:0.5:1", "--p", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--p" in captured.err

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
            "n_rounds", "m_sifted", "delta_x_hat", "delta_y_hat", "delta_hat", "delta_analytic", "binomial_gate",
        ]
        assert doc["delta_analytic"] == pytest.approx(1 / 6, abs=1e-12)
        gate = 4 * math.sqrt((1 / 6) * (5 / 6) / doc["m_sifted"])
        assert abs(doc["delta_hat"] - 1 / 6) <= gate
        assert doc["binomial_gate"] == protocol.binomial_gate(doc["delta_analytic"], doc["m_sifted"])
        assert doc["binomial_gate"] == pytest.approx(gate, rel=1e-9)

    def test_deterministic(self, tmp_path, werner_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--state", str(werner_file), "--n", "5000", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_negative_seed_exits_one(self, tmp_path, werner_file, capsys):
        out = tmp_path / "summary.json"
        assert main(["simulate", "--state", str(werner_file), "--n", "1000", "--seed", "-1", "--out", str(out)]) == 1
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()

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

    def test_hermitian_defect_within_tolerance_simulates(self, tmp_path):
        # entrywise defect 9e-13 is inside validate_density's 1e-12 rule;
        # the x_1 trace sums four such entries and must not be refused
        rows = [[{"re": 0.25 if i == j else 0.0, "im": 0.0} for j in range(4)] for i in range(4)]
        for i, j in ((0, 2), (2, 0), (1, 3), (3, 1)):
            rows[i][j]["im"] = 4.5e-13
        state = tmp_path / "defect.json"
        state.write_text(json.dumps({"matrix": rows}))
        out = tmp_path / "summary.json"
        assert main(["twirl", "--state", str(state), "--n", "1000", "--out", str(tmp_path / "twirl.json")]) == 0
        assert main(["simulate", "--state", str(state), "--n", "1000", "--seed", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_rounds"] == 1000

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

    def test_unwritable_rounds_csv_leaves_no_summary(self, tmp_path, werner_file, capsys):
        out = tmp_path / "summary.json"
        rounds = tmp_path / "missing_dir" / "rounds.csv"
        code = main([
            "simulate", "--state", str(werner_file), "--n", "400", "--seed", "2",
            "--out", str(out), "--rounds-csv", str(rounds),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: file not found: {rounds}\n"
        assert not out.exists()

    def test_unwritable_summary_leaves_no_rounds_csv(self, tmp_path, werner_file, capsys):
        out = tmp_path / "missing_dir" / "summary.json"
        rounds = tmp_path / "rounds.csv"
        code = main([
            "simulate", "--state", str(werner_file), "--n", "400", "--seed", "2",
            "--out", str(out), "--rounds-csv", str(rounds),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: file not found: {out}\n"
        assert not rounds.exists() and not out.exists()

    @pytest.mark.parametrize("spelling", ["same", "dotdot", "symlink"])
    def test_summary_and_ledger_on_one_file_exit_one(self, tmp_path, werner_file, capsys, monkeypatch, spelling):
        out = tmp_path / "run.out"
        out.write_text("kept\n")
        (tmp_path / "sub").mkdir()
        rounds = {"same": out, "dotdot": tmp_path / "sub" / ".." / "run.out", "symlink": tmp_path / "link"}[spelling]
        if spelling == "symlink":
            rounds.symlink_to(out)

        def no_draws(*args):
            raise AssertionError("rounds were drawn")

        monkeypatch.setattr(cli, "simulate_protocol", no_draws)
        code = main([
            "simulate", "--state", str(werner_file), "--n", "5", "--seed", "2",
            "--out", str(out), "--rounds-csv", str(rounds),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: --out and --rounds-csv name the same file: {os.path.realpath(out)}\n"
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("flag", ["--out", "--rounds-csv"])
    def test_output_on_the_state_file_exits_one(self, tmp_path, capsys, flag):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"family": "werner", "F": 0.8}))
        before = state.read_bytes()
        argv = ["simulate", "--state", str(state), "--n", "5", flag, str(tmp_path / "." / "state.json")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --state and {flag} name the same file: {os.path.realpath(state)}\n"
        assert state.read_bytes() == before

    def test_missing_state_exits_one(self, tmp_path, capsys):
        assert main(["simulate", "--state", str(tmp_path / "none.json")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_schema_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"family": "pure"}))
        assert main(["simulate", "--state", str(bad)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        "[" * 200_000 + "]" * 200_000,
        json.dumps({"family": "pure", "gamma": int("1" * 400)}),
        json.dumps({"matrix": [[{"re": int("1" * 400), "im": 0}] * 4] * 4}),
        json.dumps({"pauli": {"x": [int("1" * 400), 0, 0], "y": [0, 0, 0], "T": [[0] * 3] * 3}}),
        '{"family": "pure", "gamma": ' + "1" * 5000 + "}",
    ], ids=["nested-past-recursion-limit", "huge-family-parameter", "huge-matrix-entry", "huge-pauli-entry",
            "past-json-digit-limit"])
    def test_unreadable_state_file_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        assert main(["simulate", "--state", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("pauli, message", [
        ({"x": ["0.5", 0, 0]}, "pauli x[0] must be a number, got '0.5'"),
        ({"x": [True, 0, 0]}, "pauli x[0] must be a number, got True"),
        ({"T": [0.5, 0, 0, 0, -0.5, 0, 0, 0, 0.5]}, "pauli T must be a list of 3 entries, got 9 entries"),
        ({"x": [[1], [0], [0]]}, "pauli x[0] must be a number, got [1]"),
        ({"x": ["nan", 0, 0]}, "pauli x[0] must be a number, got 'nan'"),
    ], ids=["string", "bool", "flat-T", "nested-x", "string-nan"])
    def test_pauli_entries_follow_the_schema(self, tmp_path, capsys, pauli, message):
        # x and y are [3] numbers and T is [[3] x 3], as the matrix and family forms check theirs
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"pauli": {"x": [0, 0, 0], "y": [0, 0, 0], "T": [[0] * 3] * 3, **pauli}}))
        assert main(["simulate", "--state", str(path), "--n", "100"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["twirl", "simulate"])
    @pytest.mark.parametrize("entries, message", [
        ({(0, 0): 1e308, (1, 1): 1e308}, "trace is (inf+0j), differs from 1 by inf"),
        ({(0, 0): 0.5, (3, 3): 0.5, (0, 1): 1e308, (1, 0): -1e308}, "deviates from Hermitian by inf (atol 1.0e-12)"),
        ({"T": [[1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]}, "matrix entries must be finite"),
    ], ids=["huge-trace", "huge-hermitian-defect", "huge-pauli-sum"])
    def test_huge_entries_exit_one_without_a_warning(self, tmp_path, capsys, command, entries, message):
        # finite entries whose trace, Hermitian defect or Pauli sum overflows
        # fail their gate, with no numpy warning
        if "T" in entries:
            doc = {"pauli": {"x": [0, 0, 0], "y": [0, 0, 0], **entries}}
        else:
            doc = {"matrix": [[{"re": entries.get((i, j), 0.0), "im": 0.0} for j in range(4)] for i in range(4)]}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--state", str(path), "--n", "100", "--out", str(tmp_path / "out.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.json").exists()

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

    @pytest.mark.parametrize("b, scaled", [
        ("1e200,1e200,0", "1,1,0"), ("1e-160,1e-160,0", "1,1,0"), ("1e-170,0,0", "1,0,0"),
    ])
    def test_extreme_direction_is_normalized(self, tmp_path, werner_file, capsys, b, scaled):
        # finite nonzero directions whose sum of squares over- or underflows
        outs = [tmp_path / "extreme.json", tmp_path / "scaled.json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for direction, out in zip((b, scaled), outs):
                argv = ["simulate", "--state", str(werner_file), "--n", "100",
                        "--b", direction, "--b-prime", "0,1,0", "--out", str(out)]
                assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert cli._parse_direction(b).n.tobytes() == cli._parse_direction(scaled).n.tobytes()

    def test_direction_keeps_its_plain_normalization(self):
        # where the sum of squares is a normal float, the direction is v / np.linalg.norm(v)
        rng = np.random.default_rng(3)
        for scale in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            for v in scale * rng.standard_normal((50, 3)):
                n = cli._parse_direction(",".join(repr(float(c)) for c in v)).n
                assert n.tobytes() == (v / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("flag", ["--b", "--b-prime"])
    def test_empty_direction_exits_one(self, tmp_path, werner_file, capsys, flag):
        # an empty direction is an error, not a request for the optimal one
        out = tmp_path / "summary.json"
        code = main(["simulate", "--state", str(werner_file), "--n", "100", flag, "", "--out", str(out)])
        assert code == 1
        assert "direction" in capsys.readouterr().err
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
        assert doc["discord_before"] == pytest.approx(0.125, abs=TWIRL_DISCORD_ATOL)
        assert doc["discord_after"] == pytest.approx(2 / 9, abs=TWIRL_DISCORD_ATOL)
        assert doc["concurrence_before"] == pytest.approx(0.5, abs=CONCURRENCE_ATOL)
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

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        state = tmp_path / "w.json"
        state.write_text(json.dumps({"family": "werner", "F": 0.6}))
        out = tmp_path / "report.json"
        assert main(["twirl", "--state", str(state), "--n", "2000", "--seed", "-1", "--out", str(out)]) == 1
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    def test_report_on_the_state_file_exits_one(self, tmp_path, capsys):
        state = tmp_path / "w.json"
        state.write_text(json.dumps({"family": "werner", "F": 0.6}))
        before = state.read_bytes()
        assert main(["twirl", "--state", str(state), "--n", "2000", "--out", str(state)]) == 1
        assert capsys.readouterr().err == f"error: --state and --out name the same file: {os.path.realpath(state)}\n"
        assert state.read_bytes() == before

    def test_depolarized_discord_increases(self, tmp_path):
        state = tmp_path / "d.json"
        state.write_text(json.dumps({"family": "depolarized", "gamma": math.pi / 4, "p": 0.5}))
        out = tmp_path / "report.json"
        code = main(["twirl", "--state", str(state), "--n", "2000", "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["discord_after"] >= doc["discord_before"]

    @pytest.mark.parametrize("doc", [
        {"family": "pure", "gamma": 1.0},
        {"family": "pure", "gamma": 0.3},
        {"family": "werner", "F": 0.6},
        {"family": "werner", "F": 0.9},
        {"family": "depolarized", "gamma": 0.7, "p": 0.4},
        {"family": "depolarized", "gamma": 1.2, "p": 0.8},
    ], ids=lambda doc: "-".join(map(str, doc.values())))
    def test_discord_matches_sweep(self, tmp_path, doc):
        # one discord route and one concurrence route per member: the report
        # prints the one-point sweep's bits
        state, report, sweep = tmp_path / "state.json", tmp_path / "report.json", tmp_path / "sweep.json"
        state.write_text(json.dumps(doc))
        assert main(["twirl", "--state", str(state), "--n", "1000", "--seed", "0", "--out", str(report)]) == 0
        swept, *extra = states.FAMILY_PARAMS[doc["family"]]
        value = doc[swept]
        argv = ["sweep", "--family", doc["family"], "--grid", f"{value!r}:{value!r}:1", "--format", "json"]
        argv += [a for name in extra for a in (f"--{name}", repr(doc[name]))]
        assert main([*argv, "--out", str(sweep)]) == 0
        twirled = json.loads(report.read_text())
        (row,) = json.loads(sweep.read_text())["rows"]
        assert (twirled["discord_before"], twirled["discord_after"]) == (row["dg_pure"], row["dg_twirled"])
        assert ((twirled["concurrence_before"], twirled["concurrence_after"])
                == (row["concurrence_pure"], row["concurrence_twirled"]))

    @pytest.mark.parametrize("seed", [5, 8])
    def test_complex_matrix_state_concurrence(self, tmp_path, seed):
        # a complex state takes the SVD route and its real twirl the
        # symmetric one, in one stack; each prints its library value
        rho = states.random_state(seed).rho
        rows = [[{"re": v.real, "im": v.imag} for v in row] for row in rho.tolist()]
        state, report = tmp_path / "state.json", tmp_path / "report.json"
        state.write_text(json.dumps({"matrix": rows}))
        assert main(["twirl", "--state", str(state), "--n", "1000", "--seed", "0", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        loaded = states.load_state_file(str(state))
        assert np.any(loaded.rho.imag)
        assert doc["concurrence_before"] == measures.concurrence(loaded)
        assert doc["concurrence_after"] == measures.concurrence(twirl_analytic(loaded))


class TestCheck:
    def test_reduced_run_all_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "7", *FAST_CHECK_FLAGS, "--out", str(out)])
        doc = json.loads(out.read_text())
        failing = [p["name"] for p in doc["properties"] if p["status"] == "fail"]
        assert failing == []
        assert doc["all_pass"] is True
        assert code == 0

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_benchmark_counts_all_pass(self, tmp_path, seed):
        # the redrawn pools hold at more seeds than 7, at the benchmark's counts
        out = tmp_path / "report.json"
        code = main(["check", "--seed", str(seed), *_perfbench_check_counts(), "--out", str(out)])
        doc = json.loads(out.read_text())
        assert [p["name"] for p in doc["properties"] if p["status"] != "pass"] == []
        assert doc["all_pass"] is True and code == 0

    def test_default_run_all_pass(self, default_check):
        # Full documented sample counts; this is the slow, authoritative run.
        failing = [name for name, p in default_check.properties.items() if p["status"] == "fail"]
        assert failing == []
        assert default_check.report["all_pass"] is True
        assert default_check.code == 0
        assert "measures_discord_error_bound" in default_check.properties
        assert "measures_xstate_oracle_agreement" in default_check.properties
        assert "measures_twirl_pair_monotonicity" in default_check.properties

    def test_default_run_at_a_second_seed_all_pass(self, tmp_path):
        # the default counts hold with every pool redrawn at seed 8 too
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "8", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert [p["name"] for p in doc["properties"] if p["status"] != "pass"] == []
        assert doc["all_pass"] is True and code == 0

    def test_fault_injection_fails_discord_properties(self, tmp_path, monkeypatch):
        # corrupt the X-state closed form: the rho14 contribution enters with flipped sign
        k_values = measures.k_values

        def negated_closed_form(p):
            return measures.DiscordResult(2.0 * (p.rho23**2 - p.rho14**2), np.array([0.0, 0.0, 1.0]), "x-closed-form")

        def negated_k_values(p):
            return measures.KPair(k1=4.0 * (p.rho23 - p.rho14) ** 2, k3=k_values(p).k3)

        monkeypatch.setattr(measures, "discord_x_closed_form", negated_closed_form)
        monkeypatch.setattr(measures, "k_values", negated_k_values)
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "7", *MIN_CHECK_FLAGS, "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        failing = {p["name"] for p in doc["properties"] if p["status"] == "fail"}
        assert "measures_xstate_oracle_agreement" in failing
        assert "measures_bound_saturation_families" in failing
        assert doc["all_pass"] is False

    def test_tolerance_override(self, tmp_path, monkeypatch):
        # an impossible Monte Carlo gate must flip exactly that property
        monkeypatch.setitem(checks.TOLERANCES, "mc_trace_distance", 1e-9)
        out = tmp_path / "report.json"
        code = main(["check", "--seed", "7", *MIN_CHECK_FLAGS, "--out", str(out)])
        assert code == 2
        doc = json.loads(out.read_text())
        failing = {p["name"] for p in doc["properties"] if p["status"] == "fail"}
        assert failing == {"twirl_mc_agreement"}

    def test_unknown_tolerance_exits_one(self, capsys):
        assert main(["check", "--tolerance", "nonsense=1"]) == 1
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mc-samples", "--rounds"])
    def test_fixed_size_flags_exit_one(self, capsys, flag):
        # the Monte Carlo samples and the simulator rounds are fixed sizes, not flags
        assert main(["check", *MIN_CHECK_FLAGS, flag, "1000"]) == 1
        assert f"unrecognized arguments: {flag} 1000" in capsys.readouterr().err

    def test_fault_flag_exits_one(self, capsys):
        assert main(["check", "--inject-fault", "discord-x-negate-rho14"]) == 1
        assert "inject-fault" in capsys.readouterr().err

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["check", "--seed", "-1", *MIN_CHECK_FLAGS, "--out", str(out)]) == 1
        assert "--seed must be at least 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        "--random-states", "--mc-states", "--runs", "--bound-states", "--x-states", "--range-states",
    ])
    def test_counts_below_one_exit_one(self, capsys, flag):
        assert main(["check", *FAST_CHECK_FLAGS, flag, "0"]) == 1
        assert flag in capsys.readouterr().err

    def test_count_flags_are_the_config_fields(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in sub.choices["check"]._actions}
        for f in checks.FLAG_FIELDS:
            assert flags[f.name].option_strings == [f"--{f.name.replace('_', '-')}"]
            assert flags[f.name].default == f.default
        # the seed and the pool sizes are the only inputs: no gate, budget or fault knob
        assert set(flags) == {f.name for f in dataclasses.fields(checks.CheckConfig)} | {"out", "help"}
        assert flags["out"].option_strings == ["--out"] and flags["help"].option_strings == ["-h", "--help"]
        assert sorted(o for a in flags.values() for o in a.option_strings) == sorted([
            "--seed", "--random-states", "--mc-states", "--runs", "--bound-states", "--x-states", "--range-states",
            "--out", "-h", "--help",
        ])
        args = build_parser().parse_args(["check"])
        assert checks.CheckConfig(**{f.name: getattr(args, f.name) for f in checks.FLAG_FIELDS}) == checks.CheckConfig()

    def test_oracle_calls_do_not_grow_with_counts(self, tmp_path, monkeypatch):
        # each of the four oracle properties calls the oracle once per pool,
        # whatever its size; no other property reaches it
        calls = []
        oracle = measures.discord_grid_oracle
        monkeypatch.setattr(measures, "discord_grid_oracle", lambda state: calls.append(state) or oracle(state))
        counts = []
        for flags in (MIN_CHECK_FLAGS, FAST_CHECK_FLAGS):
            calls.clear()
            assert main(["check", "--seed", "7", *flags, "--out", str(tmp_path / "report.json")]) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] == 4

    def test_random_state_calls_do_not_grow_with_counts(self, tmp_path, monkeypatch):
        # each of the 15 random pools is one stacked state, one Ginibre kernel
        # call on one block of its lane's normals whatever its size; no pool
        # goes through the per-seed random_state
        calls = {"random_state": [], "_ginibre": []}
        for name, log in calls.items():
            kernel = getattr(states, name)
            monkeypatch.setattr(states, name, lambda a, kernel=kernel, log=log: log.append(a) or kernel(a))
        counts = []
        for flags in (MIN_CHECK_FLAGS, FAST_CHECK_FLAGS):
            for log in calls.values():
                log.clear()
            assert main(["check", "--seed", "7", *flags, "--out", str(tmp_path / "report.json")]) == 0
            counts.append({name: len(log) for name, log in calls.items()})
        assert counts[0] == counts[1] == {"random_state": 0, "_ginibre": 15}

    def test_state_loops_do_not_grow_with_counts(self, tmp_path, monkeypatch):
        # the partner and cq_state kernels run on whole pools, not once per member
        calls = {"optimal_partner": [], "cq_state": []}
        for module, name in ((protocol, "optimal_partner"), (measures, "cq_state")):
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, kernel=kernel, log=calls[name]: log.append(a) or kernel(*a))
        counts = []
        for flags in (MIN_CHECK_FLAGS, FAST_CHECK_FLAGS):
            for log in calls.values():
                log.clear()
            assert main(["check", "--seed", "7", *flags, "--out", str(tmp_path / "report.json")]) == 0
            counts.append({name: len(log) for name, log in calls.items()})
        assert counts[0] == counts[1]
        assert counts[0]["cq_state"] == 2

    def test_twirl_pair_states_the_ratio(self, monkeypatch):
        result = _run_property("measures_twirl_pair_monotonicity", checks.CheckConfig())
        assert result.status == "pass"
        assert result.samples == 50
        assert result.worst_margin < 0.0
        assert "ratio - 2/3" in result.detail
        monkeypatch.setitem(checks.TOLERANCES, "entrywise", 0.0)
        assert _run_property("measures_twirl_pair_monotonicity", checks.CheckConfig()).status == "fail"

    def test_bound_pool_follows_the_seed(self):
        # the bound's pool, and so its oracle cross-check, is drawn from --seed
        margins = [_run_property("measures_discord_error_bound", checks.CheckConfig(seed=seed, bound_states=200))
                   for seed in (7, 8)]
        assert [m.status for m in margins] == ["pass", "pass"]
        assert margins[0].worst_margin != margins[1].worst_margin

    def test_xstate_margin_is_not_masked(self):
        result = _run_property("measures_xstate_oracle_agreement", checks.CheckConfig(x_states=6))
        assert result.status == "pass"
        assert result.worst_margin < 0.0
        assert "worst value gap" in result.detail

    def test_detail_lists_each_term(self):
        # one "label worst (gate g)" part per term; an inf gate is reported, not gated
        result = checks._result("p", 3, [("a", 2.5e-13, 1e-12), ("b", 0.70412, math.inf), ("c", -0.25, -1e-06)])
        assert result == checks.PropertyResult("p", 3, -7.5e-13, "pass", "a 2.5e-13 (gate 1e-12); "
                                               "b 0.7041 (gate inf); c -0.25 (gate -1e-06)")
        assert checks._result("p", 1, [("a", 0.0, 1.0), ("b", math.nan, 0.0)]).status == "fail"

    @pytest.mark.parametrize("key", GATE_PROPERTIES)
    def test_each_gate_fails_exactly_its_properties(self, monkeypatch, key):
        # a gate no reading meets fails each property that compares against
        # it, and only those: a dropped term or a term on the wrong gate shows
        assert set(GATE_PROPERTIES) == set(checks.TOLERANCES) - {"branch_tie", "on_axis", "zero_discord"}
        # the discord increase gates from below, so its impossible gate is +inf
        monkeypatch.setitem(checks.TOLERANCES, key, math.inf if key == "discord_increase" else -math.inf)
        failing = {name for name, _ in checks.ALL_CHECKS if _run_property(name, MIN_CHECK_CONFIG).status == "fail"}
        assert failing == GATE_PROPERTIES[key]

    def test_raising_property_fails_alone(self, tmp_path, monkeypatch):
        # a property that raises is reported as failed; every other property still runs
        ran = []
        entries = [(name, lambda config, name=name, fn=fn: ran.append(name) or fn(config))
                   for name, fn in checks.ALL_CHECKS]
        broken = entries[len(entries) // 2][0]

        def raises(config):
            raise ValueError("no reading")

        entries[len(entries) // 2] = (broken, raises)
        monkeypatch.setattr(checks, "ALL_CHECKS", tuple(entries))
        out = tmp_path / "report.json"
        assert main(["check", "--seed", "7", *MIN_CHECK_FLAGS, "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is False
        assert [p["name"] for p in doc["properties"]] == [name for name, _ in entries]
        assert ran == [name for name, _ in entries if name != broken]
        for p in doc["properties"]:
            if p["name"] == broken:
                assert p == {"name": broken, "samples": 0, "worst_margin": None, "status": "fail",
                             "detail": "error: no reading"}
            else:
                assert p["status"] == "pass"


class TestMemoryError:
    # numpy's message when `simulate --n 1000000000000` cannot allocate its draws
    NO_MEMORY = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type int64"

    @pytest.mark.parametrize("kernel, argv", [
        ("concurrence", ["sweep", "--family", "pure", "--grid", "0:1:3"]),
        ("simulate_protocol", ["simulate", "--n", "1000", "--state", "{state}"]),
    ])
    def test_reported_in_one_line(self, tmp_path, werner_file, monkeypatch, capsys, kernel, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError(self.NO_MEMORY)

        monkeypatch.setattr(cli, kernel, exhausted)
        out = tmp_path / "out"
        assert main([*(a.format(state=werner_file) for a in argv), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: out of memory: {self.NO_MEMORY}\n"
        assert not out.exists()


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
