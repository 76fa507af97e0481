"""Per-kernel timings of twirlkit on fixed seeded stacks, written as JSON.

Run from the repository root:

    python3 bench/kernels.py --out BENCH_<n>.json [--states 10000] [--repeats 9]

Times ``concurrence``, ``validate_density``, ``pauli_decompose`` and
``discord_eigen`` on two stacks of ``--states`` states each:

* ``complex``: Hilbert-Schmidt-random states, ``random_state`` of the seeds
  0 to n - 1;
* ``real``: their real parts (rho + rho*)/2, each again a state. Every
  paper family (pure, Werner, depolarized) and every twirl output is a real
  matrix, so this is what the sweep feeds the kernels.

Each kernel runs once to warm up, then ``--repeats`` times per stack; the
file keeps every run, the min and the median, in seconds. ``discord_eigen``
is timed on states whose Pauli decomposition is already cached, so it does
not repeat ``pauli_decompose``.

The process is set up as a ``perfbench`` run is: BLAS threads pinned to 1,
the process pinned to one CPU, and ``twirlkit`` imported from ``./src``.
The file records the same run metadata (commit, numpy, BLAS and its thread
setting, nproc), plus the host speed: bursts of ``perfbench/speedref.py``'s
reference loop just before and after the timings, as a multiple of its
reference time (1.0 on the host where that time was set, higher when slower).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import bootstrap, run_metadata  # noqa: E402
from speedref import REFERENCE_S, SpeedSampler  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON path to write")
    parser.add_argument("--states", type=int, default=10_000, help="states per stack")
    parser.add_argument("--repeats", type=int, default=9, help="timed runs per kernel and stack")
    args = parser.parse_args(argv)
    if args.states < 1 or args.repeats < 1:
        parser.error("--states and --repeats must be at least 1")
    return args


def timed(call, repeats: int) -> dict:
    """Seconds per call of ``call()`` after one warm-up call: every run, the min and the median."""
    call()
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        runs.append(time.perf_counter() - t0)
    return {"min_s": min(runs), "median_s": statistics.median(runs), "runs_s": runs}


def main(argv=None) -> int:
    args = parse_args(argv)
    twirlkit = bootstrap(ROOT)
    import numpy as np

    complex_state = twirlkit.random_state(np.arange(args.states))
    stacks = {
        "real": twirlkit.validate_density(complex_state.rho.real),
        "complex": complex_state,
    }
    for state in stacks.values():
        _ = state.decomp  # cached, so discord_eigen does not repeat it
    kernels = {
        "concurrence": twirlkit.concurrence,
        "validate_density": lambda s: twirlkit.validate_density(s.rho),
        "pauli_decompose": lambda s: twirlkit.pauli_decompose(s.rho),
        "discord_eigen": twirlkit.discord_eigen,
    }
    sampler = SpeedSampler()
    before = sampler.burst()
    timings = {name: {kind: timed(lambda: kernel(state), args.repeats) for kind, state in stacks.items()}
               for name, kernel in kernels.items()}
    after = sampler.burst()
    doc = {
        "meta": run_metadata(ROOT, twirlkit),
        "host_speed": {
            "reference_loop_s": REFERENCE_S,
            "loop_s_before": before,
            "loop_s_after": after,
            "slowdown": (before + after) / (2 * REFERENCE_S),
        },
        "config": {"states": args.states, "repeats": args.repeats},
        "kernels": timings,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, by_kind in timings.items():
        row = "  ".join(f"{kind} {t['min_s'] * 1e3:8.3f} / {t['median_s'] * 1e3:8.3f} ms" for kind, t in by_kind.items())
        print(f"{name:17s} {row}   (min / median)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
