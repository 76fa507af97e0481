"""Smoke test of the per-kernel bench at tiny sizes; the full run is not a test."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STACKS = {"real", "complex"}
# the inputs of the two kernels that choose a route per member
ROUTED = STACKS | {"mixed", "one_real", "one_complex"}
# each kernel and the inputs it is timed on
KERNELS = {
    **{name: STACKS for name in ("pauli_decompose", "discord_eigen", "discord_error_rate_bound",
                                 "discord_grid_oracle")},
    "validate_density": ROUTED,
    "concurrence": ROUTED,
    "check_pool": {"lane_block", "per_seed"},
    "x_state": {"stacked"},
    "twirl_monte_carlo": {"chunk"},
    "simulate_protocol": {"rounds"},
    "write_rounds_csv": {"rows"},
    "run_sweep": {f"{family}_{points}" for family in ("pure", "werner", "depolarized") for points in (2000, 16385)},
}


def test_writes_every_kernel_on_both_stacks(tmp_path):
    # the six state kernels on the real and complex stacks (validate_density and the concurrence also on a
    # mixed stack and on one state of each kind), the samplers, the simulator and the sweep on their own
    # inputs
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "kernels.py"), "--out", str(out),
                           "--states", "3", "--repeats", "2"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["config"] == {"states": 3, "repeats": 2, "oracle_states": 3, "mc_samples": 8192, "rounds": 1_000_000,
                             "sweep_points": [2000, 16385], "one_state_calls": 1000}
    assert set(doc["kernels"]) == set(KERNELS)
    for name, by_kind in doc["kernels"].items():
        assert set(by_kind) == KERNELS[name]
        for t in by_kind.values():
            assert len(t["runs_s"]) == 2 and t["min_s"] == min(t["runs_s"]) <= t["median_s"]
    meta = doc["meta"]
    assert meta["numpy"] and meta["nproc"] >= 1
    assert set(meta["blas_threads"].values()) == {"1"}
    # a bool in a git checkout, null outside one
    assert meta["dirty"] in (True, False, None)
    assert doc["host_speed"]["slowdown"] > 0.0


def _git_dirty(path):
    """bench/kernels.py's git_dirty(path), called in a fresh interpreter."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); import kernels; "
            f"print(kernels.git_dirty({str(path)!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_dirty_follows_git_status(tmp_path):
    # null outside a checkout; untracked files do not count, a changed tracked file does
    assert _git_dirty(tmp_path) == "None"
    git = ["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    subprocess.run([*git, "init", "-q"], check=True)
    tracked = tmp_path / "f.txt"
    tracked.write_text("a\n")
    subprocess.run([*git, "add", "f.txt"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "f"], check=True)
    (tmp_path / "untracked.txt").write_text("b\n")
    assert _git_dirty(tmp_path) == "False"
    tracked.write_text("c\n")
    assert _git_dirty(tmp_path) == "True"


def test_rejects_empty_stacks(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "kernels.py"), "--out", str(tmp_path / "b.json"),
                           "--states", "0"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "--states and --repeats must be at least 1" in proc.stderr
