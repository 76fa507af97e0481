"""twirlkit benchmark: one workload per fresh interpreter.

Run from the repository root:

    python3 perfbench/run.py --workload {verify,sweep,keygen} --seed N --seconds S --trace {0,1}

The run imports ``twirlkit`` from ``./src`` and drives ``twirlkit.cli.main``
in process. Load is a closed loop with one client: the workload's batch of
commands runs one command at a time, batch after batch, for about
``--seconds``. Every output is checked after each batch.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the run first times untraced batches, then traced ones,
and the last line carries the per-layer metrics. Full results (metadata,
per-batch samples, output hashes, failures) go to ``.bench_results/``,
traced spans to a ``.npz`` beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
MIN_BATCHES = 3
MIN_TRACE_BATCHES = 2
WORK_DIR = ".bench_work"
RESULTS_DIR = ".bench_results"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
}
# Throughputs of the command kinds a workload runs; 0 where it runs none.
THROUGHPUTS = {
    "sweep_points_per_s": ("sweep", "points/s"),
    "sim_rounds_per_s": ("simulate", "rounds/s"),
    "ledger_rounds_per_s": ("ledger", "rounds/s"),
    "twirl_samples_per_s": ("twirl", "samples/s"),
}
# check properties at the time the benchmark was defined, reported as
# checks.<property>.busy_s (0 for a property the program no longer has).
CHECK_PROPERTIES = (
    "algebra_pauli_roundtrip", "algebra_purity_identity", "algebra_eigenvalue_range",
    "states_constructors_valid", "states_pure_fidelity_grid", "states_cross_constructor",
    "twirl_idempotent", "twirl_fidelity_preserved", "twirl_linear", "twirl_mc_agreement",
    "protocol_outcome_closure", "protocol_correlation_identity", "protocol_partner_optimality",
    "protocol_optimal_value_row_norm", "protocol_simulator_convergence",
    "measures_eigen_grid_agreement", "measures_xstate_oracle_agreement", "measures_discord_range",
    "measures_concurrence_lu_invariant", "measures_discord_error_bound",
    "measures_bound_saturation_families", "measures_delta_min_relation",
    "measures_twirl_pair_monotonicity", "cli_sweep_determinism", "cli_sweep_schema",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def pin_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on one CPU.

    The speed samples then time the core the commands run on. The last
    allowed CPU is taken: CPU 0 carries most of the system's own activity.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def bootstrap(root: Path):
    """Pin BLAS threads, put ``root/src`` first on the path and import twirlkit.

    Must run before numpy is imported anywhere in the process.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    pin_cpu()
    package = root / "src" / "twirlkit"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no twirlkit sources at {package}; run from the repository root")
    sys.path.insert(0, str(root / "src"))
    import twirlkit

    if Path(twirlkit.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported twirlkit from {twirlkit.__file__}, not from {package}")
    return twirlkit


def measure_setup(root: Path, workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to twirlkit imported and the
    workload's inputs written, once per probe: as measured, and rescaled to
    the reference speed by sample bursts just before and after the probe."""
    from speedref import REFERENCE_S, SpeedSampler

    sampler = SpeedSampler()
    raw, rescaled = [], []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"setup-{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(probe_dir)]
        before = sampler.burst()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        after = sampler.burst()
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        raw.append(seconds)
        rescaled.append(seconds * REFERENCE_S / ((before + after) / 2))
        shutil.rmtree(probe_dir, ignore_errors=True)
    return raw, rescaled


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_batch(cli, commands, sampler=None) -> list[dict]:
    """Run each command once, time it, then check and hash its outputs.

    With a running ``sampler`` each command is bracketed by samples and its
    time is also given at the reference speed (``ref_seconds``).
    """
    results = []
    for cmd in commands:
        problems, hashes, ref_seconds = [], {}, None
        first = sampler.sample() if sampler else None
        t0 = time.perf_counter()
        try:
            code = cli.main(cmd.argv)
        except Exception:  # a traceback is a failed command, not a failed bench
            code = None
            problems.append(traceback.format_exc())
        t1 = time.perf_counter()
        seconds = t1 - t0
        if sampler:
            ref_seconds = sampler.rescaled(t0, t1, first, sampler.sample())
        if code != 0:
            problems.insert(0, f"exit code {code}")
        else:
            try:
                problems += cmd.check(cmd)
                hashes = {p.name: _sha256(p) for p in cmd.outputs}
            except Exception:  # unreadable output is a failed command
                problems.append("output check raised:\n" + traceback.format_exc())
        results.append({"kind": cmd.kind, "argv": cmd.argv, "work": cmd.work, "seconds": seconds,
                        "ref_seconds": ref_seconds, "problems": problems, "sha256": hashes})
    return results


def run_phase(cli, commands, budget_s: float, min_batches: int, before=None, after=None,
              sampler=None) -> list[list[dict]]:
    """Repeat the batch until the next one would end past ``budget_s``."""
    batches = []
    start = time.perf_counter()
    while True:
        b0 = time.perf_counter()
        if before:
            before()
        batch = run_batch(cli, commands, sampler)
        if after:
            after(batch)
        batches.append(batch)
        now = time.perf_counter()
        if len(batches) >= min_batches and (now - start) + (now - b0) > budget_s:
            return batches


def batch_wall(batch) -> float:
    return sum(r["seconds"] for r in batch)


def batch_ref(batch) -> float:
    return sum(r["ref_seconds"] for r in batch)


def untraced_phase(cli, commands, budget_s: float, min_batches: int) -> tuple[list[list[dict]], float]:
    """Untraced batches with the speed sampler running; also the median
    slowdown of the machine against the reference speed."""
    from speedref import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    try:
        batches = run_phase(cli, commands, budget_s, min_batches, sampler=sampler)
    finally:
        sampler.stop()
    return batches, sampler.slowdown()


def throughputs(batches) -> dict[str, float]:
    """Median over batches of work per reference-speed second for each
    command kind (0 if absent)."""
    out = {}
    for metric, (kind, _unit) in THROUGHPUTS.items():
        rates = []
        for batch in batches:
            mine = [r for r in batch if r["kind"] == kind]
            if mine:
                rates.append(sum(r["work"] for r in mine) / sum(r["ref_seconds"] for r in mine))
        out[metric] = statistics.median(rates) if rates else 0.0
    return out


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict[str, float]:
    """Per-layer values: medians of per-batch times, counts from the first
    traced batch (they repeat exactly; ``counts_repeat`` records whether)."""
    from layertrace import ERROR_MODULES, LAYER_FUNCTIONS

    def median_of(key):
        return statistics.median(t[key] for t in traced)

    first = traced[0]
    metrics = {}
    for module_name, qualname in LAYER_FUNCTIONS:
        name = f"{module_name}.{qualname}"
        metrics[f"{name}.calls"] = first["totals"][name]["calls"]
        metrics[f"{name}.self_s"] = statistics.median(t["totals"][name]["self_s"] for t in traced)
    for name, value in first["counters"].items():
        if not name.endswith(".errors"):
            metrics[name] = value
    points = first["counters"]["cli.run_sweep.points"]
    metrics["qubit_algebra.validate_density.calls_per_point"] = (
        first["validate_under_sweep"] / points if points else 0.0
    )
    for prop in CHECK_PROPERTIES:
        key = f"checks.{prop}"
        metrics[f"{key}.busy_s"] = statistics.median(
            t["totals"][key]["busy_s"] if key in t["totals"] else 0.0 for t in traced
        )
    for module_name in ERROR_MODULES:
        metrics[f"{module_name}.errors"] = first["counters"][f"{module_name}.errors"]
    traced_wall = median_of("wall_s")
    metrics["trace.self_sum_s"] = median_of("self_sum_s")
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def traced_batch_stats(tracer, batch) -> dict:
    """Spans, per-name totals and counters of one traced batch."""
    arrays = tracer.span_arrays()
    return {
        "wall_s": batch_wall(batch),
        "spans": arrays,
        "totals": tracer.layer_totals(arrays),
        "counters": dict(tracer.counters),
        "self_sum_s": float(arrays["self"].sum()),
        "validate_under_sweep": tracer.calls_under(arrays, "qubit_algebra.validate_density", "cli.run_sweep"),
    }


def count_keys(stats: dict) -> dict:
    """Every exact count of a traced batch: calls per name, work counters, errors."""
    counts = {k: v["calls"] for k, v in stats["totals"].items()}
    counts.update(stats["counters"])
    counts["validate_under_sweep"] = stats["validate_under_sweep"]
    return counts


def _l3_bytes():
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        pass
    return None


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(root: Path, twirlkit) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "l3_bytes": _l3_bytes(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "twirlkit": twirlkit.__version__,
        "load": "closed loop, 1 client, 1 command at a time",
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", default=None, metavar="DIR",
                        help="import twirlkit, write the workload's inputs into DIR and exit (set-up probe)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        twirlkit = bootstrap(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from twirlkit import cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        probe_dir = Path(args.setup_only)
        probe_dir.mkdir(parents=True, exist_ok=True)
        workload.write_inputs(probe_dir, args.seed)
        return 0

    workdir = root / WORK_DIR / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        return _measure(root, twirlkit, cli, workload, args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(cli, commands, seconds, setup_samples) -> tuple[list, dict, dict]:
    batches, slowdown = untraced_phase(cli, commands, seconds, MIN_BATCHES)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(batch_ref(b) for b in batches),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "throughputs": throughputs(batches),
        "wall_unscaled_s": statistics.median(batch_wall(b) for b in batches),
        "slowdown": slowdown,
    }
    return batches, metrics, extra


def _traced(cli, commands, seconds, spans_path: Path) -> tuple[list, dict, dict]:
    """Untraced batches for half the time, then traced ones; spans go to ``spans_path``."""
    from layertrace import Tracer

    t_start = time.perf_counter()
    untraced, slowdown = untraced_phase(cli, commands, seconds / 2, MIN_TRACE_BATCHES)
    tracer = Tracer()
    stats = []

    def before():
        tracer.reset()
        tracer.install()

    def after(batch):
        tracer.uninstall()
        stats.append(traced_batch_stats(tracer, batch))

    remaining = seconds - (time.perf_counter() - t_start)
    traced = run_phase(cli, commands, remaining, MIN_TRACE_BATCHES, before=before, after=after)
    untraced_wall = statistics.median(batch_wall(b) for b in untraced)
    metrics = layer_metrics(stats, untraced_wall)
    metrics.update(throughputs(untraced))
    metrics["wall_unscaled_s"] = untraced_wall
    metrics["reference.slowdown"] = slowdown
    counts = [count_keys(t) for t in stats]

    import numpy as np

    np.savez_compressed(
        spans_path,
        names=np.array(tracer.names),
        batch=np.concatenate([np.full(len(t["spans"]["name"]), i) for i, t in enumerate(stats)]),
        **{key: np.concatenate([t["spans"][key] for t in stats]) for key in stats[0]["spans"]},
    )
    extra = {
        "untraced_batches": len(untraced),
        "traced_batches": len(traced),
        "untraced_wall_s": untraced_wall,
        "counts_repeat": all(c == counts[0] for c in counts),
        "counts": counts[0],
    }
    return untraced + traced, metrics, extra


def _measure(root, twirlkit, cli, workload, args, workdir) -> int:
    setup_raw, setup_samples = measure_setup(root, workload.name, args.seed, workdir)
    workload.write_inputs(workdir, args.seed)
    commands = workload.commands(workdir, args.seed)
    out_dir = root / RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        batches, metrics, extra = _traced(cli, commands, args.seconds, out_dir / f"{stem}.spans.npz")
        units = per_layer_units()
    else:
        batches, metrics, extra = _untraced(cli, commands, args.seconds, setup_samples)
        units = END_TO_END

    records = [r for b in batches for r in b]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    metrics["fail_frac"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "meta": run_metadata(root, twirlkit),
        "setup_s_samples": setup_samples,
        "setup_s_unscaled_samples": setup_raw,
        "batch_wall_s": [batch_ref(b) if b[0]["ref_seconds"] is not None else None for b in batches],
        "batch_wall_unscaled_s": [batch_wall(b) for b in batches],
        "command_s": [[r["seconds"], r["ref_seconds"]] for r in records],
        "fail_frac": metrics["fail_frac"],
        "result": result,
        "commands": records[: len(commands)],
        "failures": [r for r in records if r["problems"]],
        "hashes_repeat": all([r["sha256"] for r in b] == [r["sha256"] for r in batches[0]] for b in batches),
        **extra,
    }
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for name, unit in units.items():
        print(f"{workload.name} {name} = {metrics[name]!r} {unit}")
    for name, value in extra.get("throughputs", {}).items():
        if value:
            print(f"{workload.name} {name} = {value!r} {THROUGHPUTS[name][1]}")
    if "slowdown" in extra:
        print(f"{workload.name} wall_unscaled_s = {extra['wall_unscaled_s']!r} s; "
              f"machine at {extra['slowdown']!r} x the reference loop time")
    print(f"{workload.name} fail_frac = {metrics['fail_frac']!r} ratio ({failed}/{attempted} commands); "
          f"{len(batches)} batches")
    print(json.dumps(result))
    return 0


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    from layertrace import COUNTER_NAMES, ERROR_MODULES, LAYER_FUNCTIONS

    units = {}
    for module_name, qualname in LAYER_FUNCTIONS:
        units[f"{module_name}.{qualname}.calls"] = "count"
        units[f"{module_name}.{qualname}.self_s"] = "s"
    for name in COUNTER_NAMES:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units["qubit_algebra.validate_density.calls_per_point"] = "calls/point"
    for prop in CHECK_PROPERTIES:
        units[f"checks.{prop}.busy_s"] = "s"
    for module_name in ERROR_MODULES:
        units[f"{module_name}.errors"] = "count"
    for name, (_kind, unit) in THROUGHPUTS.items():
        units[name] = unit
    units["fail_frac"] = "ratio"
    units["trace.self_sum_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["wall_unscaled_s"] = "s"
    units["reference.slowdown"] = "ratio"
    return units


if __name__ == "__main__":
    sys.exit(main())
