"""Tests of the benchmark itself: tracing, seeded inputs, exact counts and
output checks.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[1]
run.bootstrap(ROOT)

import layertrace  # noqa: E402
import speedref  # noqa: E402
import twirlkit  # noqa: E402
import workloads  # noqa: E402
from twirlkit import checks, cli, measures, protocol, qubit_algebra  # noqa: E402


@pytest.fixture
def small_sizes(monkeypatch):
    """Shrink the workloads so a batch takes well under a second (verify excepted)."""
    monkeypatch.setattr(workloads, "SWEEP_POINTS", 40)
    monkeypatch.setattr(workloads, "SIM_ROUNDS", 20_000)
    monkeypatch.setattr(workloads, "LEDGER_ROUNDS", 5_000)
    monkeypatch.setattr(workloads, "TWIRL_SAMPLES", 2_000)


@pytest.fixture
def tracer():
    t = layertrace.Tracer()
    yield t
    t.uninstall()


def _batch_counts(tracer, commands):
    tracer.reset()
    tracer.install()
    try:
        batch = run.run_batch(cli, commands)
    finally:
        tracer.uninstall()
    return batch, run.count_keys(run.traced_batch_stats(tracer, batch))


def test_install_rebinds_every_copy_and_uninstall_restores(tracer):
    original_eigen = measures.discord_eigen
    original_writer = protocol.ProtocolRun.write_rounds_csv
    original_checks = checks.ALL_CHECKS
    tracer.install()
    for owner in (measures, cli, twirlkit):
        assert owner.discord_eigen is not original_eigen
        assert owner.discord_eigen.__wrapped__ is original_eigen
    assert measures.validate_density.__wrapped__ is qubit_algebra.validate_density.__wrapped__
    assert protocol.ProtocolRun.write_rounds_csv.__wrapped__ is original_writer
    assert [name for name, _ in checks.ALL_CHECKS] == [name for name, _ in original_checks]
    assert all(fn.__wrapped__ is orig for (_, fn), (_, orig) in zip(checks.ALL_CHECKS, original_checks))
    tracer.uninstall()
    assert measures.discord_eigen is original_eigen and cli.discord_eigen is original_eigen
    assert protocol.ProtocolRun.write_rounds_csv is original_writer
    assert checks.ALL_CHECKS is original_checks


def test_self_time_subtracts_traced_children(tracer):
    tracer.spans.extend([(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (1, 5.0, 6.0, 0)])
    arrays = tracer.span_arrays()
    assert arrays["self"].tolist() == [6.0, 2.0, 1.0, 1.0]
    assert arrays["self"].sum() == 10.0


def test_errors_are_counted_once_at_the_innermost_boundary(tracer, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "pure", "gamma": 9}', encoding="utf-8")
    tracer.install()
    assert cli.main(["twirl", "--state", str(bad), "--n", "10"]) == 1
    tracer.uninstall()
    assert tracer.counters["states.errors"] == 1
    assert tracer.counters["cli.errors"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workload.write_inputs(d, seed)

    def snapshot(d, seed):
        argv = [[a.replace(str(d), "<dir>") for a in c.argv] for c in workload.commands(d, seed)]
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        return argv, files

    assert snapshot(dirs[0], 5) == snapshot(dirs[1], 5)
    assert snapshot(dirs[0], 5) != snapshot(dirs[2], 6)
    for cmd in workload.commands(dirs[0], 5):
        if cmd.kind != "sweep":
            assert cmd.argv[cmd.argv.index("--seed") + 1] == "5"


@pytest.mark.parametrize("name", ["sweep", "keygen"])
def test_counts_repeat_exactly_at_a_fixed_seed(name, tmp_path, small_sizes, tracer):
    workload = workloads.WORKLOADS[name]
    workload.write_inputs(tmp_path, 3)
    commands = workload.commands(tmp_path, 3)
    first_batch, first = _batch_counts(tracer, commands)
    second_batch, second = _batch_counts(tracer, commands)
    assert not [r["problems"] for r in first_batch + second_batch if r["problems"]]
    assert first == second
    assert [r["sha256"] for r in first_batch] == [r["sha256"] for r in second_batch]
    if name == "sweep":
        assert first["cli.run_sweep.points"] == 3 * 40
        assert first["measures.discord_grid_oracle"] == 0
    else:
        assert first["protocol.simulate_protocol.rounds"] == 2 * 20_000 + 5_000
        assert first["protocol.ProtocolRun.write_rounds_csv.rows"] == 5_000
        assert first["twirl.twirl_monte_carlo.samples"] == 2 * 2_000
        assert first["protocol.ProtocolRun.write_rounds_csv.bytes"] == (tmp_path / "ledger.csv").stat().st_size


def test_verify_batch_passes_and_runs_every_property(tmp_path, tracer):
    workload = workloads.WORKLOADS["verify"]
    commands = workload.commands(tmp_path, 1)
    batch, counts = _batch_counts(tracer, commands)
    assert batch[0]["problems"] == []
    report = json.loads((tmp_path / "check.json").read_text())
    assert [p["name"] for p in report["properties"]] == list(run.CHECK_PROPERTIES)
    assert counts["measures.discord_grid_oracle"] > 0
    assert all(counts[f"checks.{prop}"] == 1 for prop in run.CHECK_PROPERTIES)


def _sampler_with(samples):
    """A sampler holding the given (start, end) samples."""
    sampler = speedref.SpeedSampler()
    sampler.starts = [a for a, _ in samples]
    sampler.ends = [b for _, b in samples]
    return sampler


def test_rescaled_time_leaves_out_samples_and_divides_by_the_slowdown():
    d = 2 * speedref.REFERENCE_S  # every sample at half the reference speed
    sampler = _sampler_with([(0.0, d), (1.0, 1.0 + d), (2.0, 2.0 + d), (3.0, 3.0 + d)])
    # command from t=0.5 to t=2.5 with samples 1 and 2 inside it
    assert sampler.rescaled(0.5, 2.5, 0, 3) == pytest.approx((2.0 - 2 * d) / 2)


def test_rescaled_time_follows_a_change_of_speed_within_a_command():
    ref = speedref.REFERENCE_S
    # one sample a second: at the reference speed until t=20, then 3x slower
    sampler = _sampler_with([(float(t), t + (ref if t < 20 else 3 * ref)) for t in range(40)])
    whole = sampler.rescaled(0.5, 38.5, 0, 39)
    ideal = (19.5 - 19 * ref) + (18.5 - 19 * 3 * ref) / 3
    # stretches next to the change take the mean of samples from both sides
    assert whole == pytest.approx(ideal, rel=0.05)
    assert whole < 0.7 * (38.0 - 38 * ref)


def test_sampler_restores_the_timer_and_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    sampler = speedref.SpeedSampler(interval_s=0.01)
    sampler.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.ends) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert sampler.slowdown() > 0


def test_untraced_batches_carry_reference_speed_times(tmp_path, small_sizes):
    workload = workloads.WORKLOADS["sweep"]
    batches, slowdown = run.untraced_phase(cli, workload.commands(tmp_path, 1), 0.0, 1)
    assert slowdown > 0
    for r in batches[0]:
        assert r["problems"] == []
        assert 0 < r["ref_seconds"]


def _command(kind, tmp_path):
    workload = workloads.WORKLOADS["keygen" if kind != "sweep" else "sweep"]
    workload.write_inputs(tmp_path, 2)
    return [c for c in workload.commands(tmp_path, 2) if c.kind == kind]


def test_sweep_check_rejects_a_wrong_ratio_and_a_wrong_header(tmp_path, small_sizes):
    pure = _command("sweep", tmp_path)[0]
    assert cli.main(pure.argv) == 0 and pure.check(pure) == []
    lines = pure.outputs[0].read_text().splitlines()
    cols = lines[1 + 5].split(",")
    cols[3] = repr(float(cols[3]) * (1 + 1e-9))
    lines[1 + 5] = ",".join(cols)
    pure.outputs[0].write_text("\n".join(lines) + "\n")
    assert any("ratio" in p for p in pure.check(pure))
    pure.outputs[0].write_text("\n".join([lines[0].replace("eof_twirled", "eof_after")] + lines[1:]) + "\n")
    assert any("header" in p for p in pure.check(pure))


def test_ledger_check_rejects_a_wrong_sifted_count(tmp_path, small_sizes):
    ledger = _command("ledger", tmp_path)[0]
    assert cli.main(ledger.argv) == 0 and ledger.check(ledger) == []
    data = ledger.outputs[1].read_bytes()
    ledger.outputs[1].write_bytes(data.replace(b",0\n", b",1\n", 1))
    assert any("sifted" in p for p in ledger.check(ledger))


def test_twirl_check_rejects_a_far_monte_carlo_result(tmp_path, small_sizes):
    twirl = _command("twirl", tmp_path)[0]
    assert cli.main(twirl.argv) == 0 and twirl.check(twirl) == []
    doc = json.loads(twirl.outputs[0].read_text())
    doc["trace_distance_to_analytic"] = 0.5
    twirl.outputs[0].write_text(json.dumps(doc))
    assert twirl.check(twirl)


def _checkout(tmp_path, with_sources: bool) -> Path:
    """A copy of the files a benchmark run sees: BENCHMARK.json, perfbench/ and, optionally, src/."""
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def _bench(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_traced_runs_repeat_counts_and_print_the_registered_metrics(tmp_path):
    checkout = _checkout(tmp_path, with_sources=True)
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    reports = []
    for _ in range(2):
        proc = _bench(checkout, "keygen", 4, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
        reports.append(json.loads((checkout / ".bench_results" / "keygen-seed4-trace1.json").read_text()))
    assert reports[0]["counts_repeat"] and reports[1]["counts_repeat"]
    assert reports[0]["counts"] == reports[1]["counts"]
    assert reports[0]["counts"]["protocol.ProtocolRun.write_rounds_csv.rows"] == workloads.LEDGER_ROUNDS
    assert not any((checkout / ".bench_work").iterdir())


def test_fails_without_result_where_the_sources_are_missing(tmp_path):
    proc = _bench(_checkout(tmp_path, with_sources=False), "sweep", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_registers_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in spec["workloads"])
