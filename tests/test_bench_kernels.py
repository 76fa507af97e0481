"""Smoke test of the per-kernel bench at tiny sizes; the full run is not a test."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("concurrence", "validate_density", "pauli_decompose", "discord_eigen")


def test_writes_every_kernel_on_both_stacks(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "kernels.py"), "--out", str(out),
                           "--states", "3", "--repeats", "2"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["config"] == {"states": 3, "repeats": 2}
    assert set(doc["kernels"]) == set(KERNELS)
    for by_kind in doc["kernels"].values():
        assert set(by_kind) == {"real", "complex"}
        for t in by_kind.values():
            assert len(t["runs_s"]) == 2 and t["min_s"] == min(t["runs_s"]) <= t["median_s"]
    meta = doc["meta"]
    assert meta["numpy"] and meta["nproc"] >= 1
    assert set(meta["blas_threads"].values()) == {"1"}
    assert doc["host_speed"]["slowdown"] > 0.0


def test_rejects_empty_stacks(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "kernels.py"), "--out", str(tmp_path / "b.json"),
                           "--states", "0"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "--states and --repeats must be at least 1" in proc.stderr
