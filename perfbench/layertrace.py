"""Outside-in tracing of twirlkit's public layer functions.

The tracer wraps functions from the benchmark's side: it replaces each
traced function in every ``twirlkit`` module namespace that holds the same
object (so ``from .x import y`` copies in ``cli``, ``measures`` and the
package ``__init__`` are covered too), wraps the ledger writer method on
``protocol.ProtocolRun`` and rebinds the entries of ``checks.ALL_CHECKS``.
No file of the program changes.

Each call records one span (name, start, end, parent) in memory. Self
time is a span's duration minus the durations of its traced children;
calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np

# (module, function) pairs wrapped where they are bound; ``Class.method``
# names are wrapped on the class.
LAYER_FUNCTIONS = (
    ("measures", "discord_grid_oracle"),
    ("measures", "discord_eigen"),
    ("measures", "concurrence"),
    ("measures", "entanglement_of_formation"),
    ("measures", "discord_error_rate_bound"),
    ("measures", "twirl_discord_comparison"),
    ("measures", "delta_min_from_discord"),
    ("twirl", "twirl_analytic"),
    ("twirl", "twirl_monte_carlo"),
    ("protocol", "min_error_rate"),
    ("protocol", "simulate_protocol"),
    ("protocol", "ProtocolRun.write_rounds_csv"),
    ("qubit_algebra", "validate_density"),
    ("qubit_algebra", "pauli_decompose"),
    ("states", "random_state"),
    ("states", "pure_state"),
    ("states", "werner"),
    ("states", "depolarized_pure"),
    ("states", "fidelity_phi_plus"),
    ("states", "load_state_file"),
    ("cli", "run_sweep"),
    ("cli", "render_sweep_csv"),
    ("cli", "render_sweep_json"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_twirl"),
    ("cli", "cmd_check"),
)

ERROR_MODULES = ("measures", "twirl", "protocol", "qubit_algebra", "states", "checks", "cli")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_samples(counters, args, kwargs, result):
    counters["twirl.twirl_monte_carlo.samples"] += int(_arg(args, kwargs, 1, "n_samples"))


def _count_rounds(counters, args, kwargs, result):
    counters["protocol.simulate_protocol.rounds"] += int(_arg(args, kwargs, 1, "n_rounds"))


def _count_ledger(counters, args, kwargs, result):
    run, path = args[0], _arg(args, kwargs, 1, "path")
    counters["protocol.ProtocolRun.write_rounds_csv.rows"] += int(run.n_rounds)
    counters["protocol.ProtocolRun.write_rounds_csv.bytes"] += os.path.getsize(path)


def _count_points(counters, args, kwargs, result):
    counters["cli.run_sweep.points"] += len(result)


# Work counters taken at a boundary from its arguments or result.
COUNTERS = {
    "twirl.twirl_monte_carlo": _count_samples,
    "protocol.simulate_protocol": _count_rounds,
    "protocol.ProtocolRun.write_rounds_csv": _count_ledger,
    "cli.run_sweep": _count_points,
}
COUNTER_NAMES = (
    "twirl.twirl_monte_carlo.samples",
    "protocol.simulate_protocol.rounds",
    "protocol.ProtocolRun.write_rounds_csv.rows",
    "protocol.ProtocolRun.write_rounds_csv.bytes",
    "cli.run_sweep.points",
)


class Tracer:
    """Installs span-recording wrappers into the imported ``twirlkit``.

    ``install`` and ``uninstall`` swap the wrappers in and out; spans and
    counters accumulate until ``reset``.
    """

    def __init__(self):
        import twirlkit.checks
        import twirlkit.cli  # noqa: F401  (loads every module the CLI uses)
        from twirlkit.errors import TwirlkitError

        self._error_type = TwirlkitError
        self._modules = [m for n, m in sorted(sys.modules.items()) if n == "twirlkit" or n.startswith("twirlkit.")]
        self._checks = twirlkit.checks
        self._original_checks = twirlkit.checks.ALL_CHECKS
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.reset()

        self._swaps = []  # (owner, attribute, original, wrapper)
        for module_name, qualname in LAYER_FUNCTIONS:
            module = sys.modules[f"twirlkit.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._swaps.append((owner, attr, original, self._wrap(original, name, module_name)))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, name, module_name)
            for mod in self._modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._swaps.append((mod, attr, original, wrapper))
        self._traced_checks = tuple(
            (prop, self._wrap(fn, f"checks.{prop}", "checks")) for prop, fn in self._original_checks
        )

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, module_name: str):
        name_id = self._id(name)
        counter = COUNTERS.get(name)
        error_key = f"{module_name}.errors"
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        error_type = self._error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.counters[error_key] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if counter is not None:
                counter(self.counters, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        """Drop recorded spans and zero the counters (in place: wrappers hold them)."""
        self.spans.clear()
        self.counters.clear()
        self.counters.update({name: 0 for name in COUNTER_NAMES})
        self.counters.update({f"{m}.errors": 0 for m in ERROR_MODULES})

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        self._checks.ALL_CHECKS = self._traced_checks

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._swaps:
            setattr(owner, attr, original)
        self._checks.ALL_CHECKS = self._original_checks

    def span_arrays(self) -> dict:
        """Recorded spans as arrays: name id, start, end, parent index, self time."""
        if not self.spans:
            empty = np.zeros(0)
            return {"name": empty.astype(np.int32), "start": empty, "end": empty,
                    "parent": empty.astype(np.int64), "self": empty}
        name, start, end, parent = (np.array(col) for col in zip(*self.spans))
        duration = end - start
        child_time = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        return {"name": name.astype(np.int32), "start": start, "end": end,
                "parent": parent.astype(np.int64), "self": duration - child_time}

    def layer_totals(self, arrays: dict) -> dict[str, dict[str, float]]:
        """Per traced name: call count, summed self time and busy time.

        No traced function calls itself, so busy time is the plain sum of
        span durations.
        """
        duration = arrays["end"] - arrays["start"]
        totals = {}
        for i, label in enumerate(self.names):
            mine = arrays["name"] == i
            totals[label] = {
                "calls": int(np.count_nonzero(mine)),
                "self_s": float(np.sum(arrays["self"][mine])),
                "busy_s": float(np.sum(duration[mine])),
            }
        return totals

    def calls_under(self, arrays: dict, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        target, anc = self._name_ids[name], self._name_ids[ancestor]
        names, parents = arrays["name"].tolist(), arrays["parent"].tolist()
        inside = [False] * len(names)
        count = 0
        for i, p in enumerate(parents):  # parents precede children
            inside[i] = p >= 0 and (names[p] == anc or inside[p])
            count += inside[i] and names[i] == target
        return count
