"""Per-kernel timings of twirlkit on fixed seeded stacks, written as JSON.

Run from the repository root:

    python3 bench/kernels.py --out BENCH_<n>.json [--states 10000] [--repeats 9]

Times ``concurrence``, ``validate_density``, ``pauli_decompose``,
``discord_eigen`` and ``discord_error_rate_bound`` on two stacks of
``--states`` states each, and ``discord_grid_oracle`` on the first
``min(200, --states)`` members of each:

* ``complex``: Hilbert-Schmidt-random states, ``random_state`` of the seeds
  0 to n - 1;
* ``real``: their real parts (rho + rho*)/2, each again a state. Every
  paper family (pure, Werner, depolarized) and every twirl output is a real
  matrix, so this is what the sweep feeds the kernels.

``validate_density`` keeps the eigenpairs of one real ``eigh`` of the real
members, and ``concurrence`` starts from them. Both kernels choose a route
per member, so they are also timed on a ``mixed`` stack, whose members
alternate between the real and the complex stack (real first), and on one
state of each kind (``one_real``, ``one_complex``: the first member of each
stack), timed over ``ONE_STATE_CALLS`` calls per run.

It also times ``check``'s samplers and the simulator on inputs of their own:

* ``check_pool``: a random pool of ``--states`` states as ``check`` draws
  it (``lane_block``: one block of normals from one lane generator, then
  the Ginibre kernel) against ``random_state`` on as many seeds
  (``per_seed``: one generator per member);
* ``x_state``: the X states of ``--states`` parameter sets from one
  ``sample_x_params`` block, as one stack (``stacked``);
* ``twirl_monte_carlo``: one 8192-sample Monte Carlo chunk, the sampler's
  chunk size, on the pure state at gamma = pi/3 (``chunk``);
* ``simulate_protocol``: 10^6 rounds on that state at its optimal
  settings (``rounds``), and ``write_rounds_csv``: the ledger of that run,
  10^6 rows, written to a temporary directory (``rows``);
* ``run_sweep``: the sweep table of each family (depolarized at p = 1/2)
  on 2000 grid points, the ``perfbench`` size, and on 2^14 + 1, one point
  past the first of ``run_sweep``'s blocks (``<family>_<points>``).

Each kernel runs once to warm up, then ``--repeats`` times per input; the
file keeps every run, the min and the median, in seconds. ``discord_eigen``,
``discord_error_rate_bound`` and the oracle are timed on states whose Pauli
decomposition is already cached, so they do not repeat ``pauli_decompose``.

The process is set up as a ``perfbench`` run is: BLAS threads pinned to 1,
the process pinned to one CPU, and ``twirlkit`` imported from ``./src``.
The file records the same run metadata (commit, numpy, BLAS and its thread
setting, nproc); ``dirty``, which says whether tracked files differ from
that commit (true or false from ``git status``, null outside a git
checkout); and the host speed: bursts of ``perfbench/speedref.py``'s
reference loop just before and after the timings, as a multiple of its
reference time (1.0 on the host where that time was set, higher when slower).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import bootstrap, run_metadata  # noqa: E402
from speedref import REFERENCE_S, SpeedSampler  # noqa: E402

# the oracle's stacks: it costs about ten times the eigen form per state
ORACLE_STATES = 200
# one Monte Carlo chunk (twirl._CHUNK), and the simulator's and ledger's size
MC_SAMPLES = 8192
ROUNDS = 1_000_000
# the benchmark's sweep size, and one point past a run_sweep block (cli._SWEEP_BLOCK)
SWEEP_POINTS = (2000, 2**14 + 1)
# calls per timed run on one state, whose call takes tens of microseconds
ONE_STATE_CALLS = 1000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON path to write")
    parser.add_argument("--states", type=int, default=10_000, help="states per stack")
    parser.add_argument("--repeats", type=int, default=9, help="timed runs per kernel and stack")
    args = parser.parse_args(argv)
    if args.states < 1 or args.repeats < 1:
        parser.error("--states and --repeats must be at least 1")
    return args


def timed(call, repeats: int, calls: int = 1) -> dict:
    """Seconds per call of ``call()`` after one warm-up call, each run timing
    ``calls`` calls: every run, the min and the median."""
    call()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        runs.append((time.perf_counter() - t0) / calls)
    return {"min_s": min(runs), "median_s": statistics.median(runs), "runs_s": runs}


def git_dirty(root: Path):
    """True when tracked files differ from the checked-out commit, False
    when they do not, None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def sampler_timings(twirlkit, states: int, repeats: int) -> dict:
    """Timings of check's pool and X-state samplers on ``states`` members,
    and of one Monte Carlo chunk, the simulator and its ledger writer."""
    import numpy as np

    from twirlkit import checks
    from twirlkit.states import sample_x_params

    config = checks.CheckConfig()
    seeds = checks._rng(config, 11).integers(0, 2**63 - 1, states)
    params = sample_x_params(np.random.default_rng(0), states)
    state = twirlkit.pure_state(np.pi / 3)
    mer = twirlkit.min_error_rate(state)
    run = twirlkit.simulate_protocol(state, ROUNDS, 0, mer.b, mer.b_prime)
    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "rounds.csv"
        return {
            "check_pool": {"lane_block": timed(lambda: checks._random_states(config, 11, states), repeats),
                           "per_seed": timed(lambda: twirlkit.random_state(seeds), repeats)},
            "x_state": {"stacked": timed(lambda: twirlkit.x_state(params), repeats)},
            "twirl_monte_carlo": {"chunk": timed(lambda: twirlkit.twirl_monte_carlo(state, MC_SAMPLES, 0), repeats)},
            "simulate_protocol": {"rounds": timed(lambda: twirlkit.simulate_protocol(state, ROUNDS, 0, mer.b,
                                                                                     mer.b_prime), repeats)},
            "write_rounds_csv": {"rows": timed(lambda: run.write_rounds_csv(ledger), repeats)},
        }


def sweep_timings(repeats: int) -> dict:
    """Timings of the sweep table of each family at each of ``SWEEP_POINTS``."""
    import numpy as np

    from twirlkit import cli

    timings = {}
    for family, top, p in (("pure", np.pi / 2, None), ("werner", 1.0, None), ("depolarized", np.pi / 2, 0.5)):
        for points in SWEEP_POINTS:
            spec = cli.SweepSpec(family=family, grid=np.linspace(0.0, top, points), p=p)
            timings[f"{family}_{points}"] = timed(lambda: cli.run_sweep(spec), repeats)
    return timings


def main(argv=None) -> int:
    args = parse_args(argv)
    twirlkit = bootstrap(ROOT)
    import numpy as np

    complex_state = twirlkit.random_state(np.arange(args.states))
    stacks = {
        "real": twirlkit.validate_density(complex_state.rho.real),
        "complex": complex_state,
    }
    heads = {kind: twirlkit.validate_density(state.rho[:ORACLE_STATES]) for kind, state in stacks.items()}
    for state in (*stacks.values(), *heads.values()):
        _ = state.decomp  # cached, so the discord kernels do not repeat it
    kernels = {
        "concurrence": twirlkit.concurrence,
        "validate_density": lambda s: twirlkit.validate_density(s.rho),
        "pauli_decompose": lambda s: twirlkit.pauli_decompose(s.rho),
        "discord_eigen": twirlkit.discord_eigen,
        "discord_error_rate_bound": twirlkit.discord_error_rate_bound,
    }
    sampler = SpeedSampler()
    before = sampler.burst()
    timings = {name: {kind: timed(lambda: kernel(state), args.repeats) for kind, state in stacks.items()}
               for name, kernel in kernels.items()}
    real_rho = stacks["real"].rho
    odd = (np.arange(args.states) % 2 == 1)[:, None, None]
    routed = {"mixed": (twirlkit.validate_density(np.where(odd, complex_state.rho, real_rho)), 1),
              "one_real": (twirlkit.validate_density(real_rho[0]), ONE_STATE_CALLS),
              "one_complex": (twirlkit.validate_density(complex_state.rho[0]), ONE_STATE_CALLS)}
    for name in ("concurrence", "validate_density"):
        for kind, (state, calls) in routed.items():
            timings[name][kind] = timed(lambda: kernels[name](state), args.repeats, calls)
    timings["discord_grid_oracle"] = {kind: timed(lambda: twirlkit.discord_grid_oracle(state), args.repeats)
                                      for kind, state in heads.items()}
    timings.update(sampler_timings(twirlkit, args.states, args.repeats))
    timings["run_sweep"] = sweep_timings(args.repeats)
    after = sampler.burst()
    doc = {
        "meta": {**run_metadata(ROOT, twirlkit), "dirty": git_dirty(ROOT)},
        "host_speed": {
            "reference_loop_s": REFERENCE_S,
            "loop_s_before": before,
            "loop_s_after": after,
            "slowdown": (before + after) / (2 * REFERENCE_S),
        },
        "config": {"states": args.states, "repeats": args.repeats, "oracle_states": len(heads["real"].rho),
                   "mc_samples": MC_SAMPLES, "rounds": ROUNDS, "sweep_points": list(SWEEP_POINTS),
                   "one_state_calls": ONE_STATE_CALLS},
        "kernels": timings,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, by_kind in timings.items():
        row = "  ".join(f"{kind} {t['min_s'] * 1e3:8.3f} / {t['median_s'] * 1e3:8.3f} ms" for kind, t in by_kind.items())
        print(f"{name:24s} {row}   (min / median)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
