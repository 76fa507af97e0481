"""End-to-end runs of the command line as a user runs it: each test starts
``python -m twirlkit.cli`` in a fresh directory and reads the files it
writes there."""

import csv
import json
import os
import subprocess
import sys

import twirlkit
from twirlkit import concurrence, discord_eigen, load_state_file, twirl_analytic


def _twirlkit(cwd, *argv):
    """Run the command line in ``cwd``; the subprocess imports the same
    twirlkit as this test, not an installed copy."""
    src = os.path.dirname(os.path.dirname(twirlkit.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "twirlkit.cli", *argv], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def _ok(cwd, *argv):
    proc = _twirlkit(cwd, *argv)
    assert proc.returncode == 0, proc.stderr


def test_simulate_writes_its_ledger_inside_the_binomial_band(tmp_path):
    (tmp_path / "werner.json").write_text('{"family": "werner", "F": 0.8}\n')
    _ok(tmp_path, "simulate", "--state", "werner.json", "--n", "100001", "--seed", "7",
        "--out", "summary.json", "--rounds-csv", "rounds.csv")
    with open(tmp_path / "rounds.csv", "rb") as f:
        assert sum(1 for _ in f) == 100002  # the header and one line per round
    d = json.loads((tmp_path / "summary.json").read_text())
    assert abs(d["delta_hat"] - d["delta_analytic"]) <= d["binomial_gate"], d


def test_twirl_prints_the_one_point_sweep(tmp_path):
    (tmp_path / "pure.json").write_text('{"family": "pure", "gamma": 1.0}\n')
    _ok(tmp_path, "twirl", "--state", "pure.json", "--n", "1000", "--seed", "7", "--out", "twirl.json")
    _ok(tmp_path, "sweep", "--family", "pure", "--grid", "1.0:1.0:1", "--format", "json", "--out", "sweep.json")
    t = json.loads((tmp_path / "twirl.json").read_text())
    (r,) = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    assert (t["discord_before"], t["discord_after"]) == (r["dg_pure"], r["dg_twirled"]), (t, r)
    assert ((t["concurrence_before"], t["concurrence_after"])
            == (r["concurrence_pure"], r["concurrence_twirled"])), (t, r)


def test_twirl_of_a_complex_matrix_file_is_the_library_bit_for_bit(tmp_path):
    r = [[0.4, 0.05j, 0, 0.25 + 0.1j], [-0.05j, 0.1, 0.02, 0], [0, 0.02, 0.1, 0], [0.25 - 0.1j, 0, 0, 0.4]]
    matrix = [[{"re": complex(v).real, "im": complex(v).imag} for v in row] for row in r]
    (tmp_path / "complex.json").write_text(json.dumps({"matrix": matrix}))
    _ok(tmp_path, "twirl", "--state", "complex.json", "--n", "1000", "--seed", "7", "--out", "twirl_complex.json")
    s = load_state_file(str(tmp_path / "complex.json"))
    a = twirl_analytic(s)
    t = json.loads((tmp_path / "twirl_complex.json").read_text())
    got = [t[k].hex() for k in ("discord_before", "discord_after", "concurrence_before", "concurrence_after")]
    assert got == [v.hex() for v in (discord_eigen(s).value, discord_eigen(a).value, concurrence(s), concurrence(a))], t


def test_sweep_csv_and_json_agree_across_a_block_edge(tmp_path):
    # 16385 points: one point past a 2^14-point block
    grid = ["--family", "depolarized", "--p", "0.5", "--grid", "0:1.5707963267948966:16385"]
    _ok(tmp_path, "sweep", *grid, "--out", "block.csv")
    _ok(tmp_path, "sweep", *grid, "--format", "json", "--out", "block.json")
    with open(tmp_path / "block.csv", newline="") as f:
        c = list(csv.DictReader(f))
    j = json.loads((tmp_path / "block.json").read_text())["rows"]
    assert len(c) == len(j) == 16385, (len(c), len(j))
    for r, s in zip(c, j):
        assert list(r) == list(s)
        assert r.pop("ratio_defined") == str(s.pop("ratio_defined")).lower()
        assert all(float(r[k]) == s[k] for k in s), (r, s)


def test_invalid_state_files_exit_one_with_one_error_line(tmp_path):
    huge = [[{"re": 1e308 if i == j < 2 else 0.0, "im": 0.0} for j in range(4)] for i in range(4)]
    (tmp_path / "huge.json").write_text(json.dumps({"matrix": huge}))
    (tmp_path / "string_pauli.json").write_text(
        '{"pauli": {"x": ["0.5", 0, 0], "y": [0, 0, 0], "T": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}\n')
    for name in ("huge.json", "string_pauli.json"):
        proc = _twirlkit(tmp_path, "twirl", "--state", name, "--n", "100")
        assert proc.returncode == 1, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
