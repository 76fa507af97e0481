"""Seeded inputs, command lines and output checks for each workload.

A workload is a fixed batch of ``twirlkit`` CLI commands. Its inputs (state
files and argv) derive only from the workload seed; the same seed gives
the same bytes. Every output is checked against the paper's claims, not
against a pinned hash; the sha256 of each output is recorded so byte
changes stay visible.
"""

from __future__ import annotations

import csv
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# The frozen 11-column sweep schema, kept here on purpose rather than read
# from the program: the CLI is checked against it.
SWEEP_HEADER = [
    "param", "delta_pure", "delta_twirled", "ratio", "ratio_defined",
    "dg_pure", "dg_twirled", "concurrence_pure", "concurrence_twirled",
    "eof_pure", "eof_twirled",
]
DEPOLARIZED_HEADER = SWEEP_HEADER[:1] + ["p"] + SWEEP_HEADER[1:]
LEDGER_HEADER = b"round,alice_basis,bob_basis,alice_bit,bob_bit,sifted\n"

# Sizes. ``check`` at default counts (about a minute) is too long to repeat
# in every run; these reduced counts keep every property running, and
# --mc-samples stays at its default so twirl_mc_agreement is not skipped.
CHECK_COUNTS = (
    "--random-states", "20", "--mc-states", "4", "--runs", "10",
    "--bound-states", "200", "--x-states", "20", "--range-states", "200",
)
SWEEP_POINTS = 2000
SIM_ROUNDS = 4_000_000
LEDGER_ROUNDS = 1_000_000
TWIRL_SAMPLES = 200_000

# Gates taken from the paper's claims.
RATIO = 2.0 / 3.0
RATIO_ATOL = 1e-12
# delta_pure = 1/2 - (p_x + p_y)/4 cancels to an absolute error of a few
# ulps, so the ratio carries a relative error of order eps / delta_pure
# near the maximally entangled point; the gate widens by that much.
RATIO_ULPS = 8.0
CONCURRENCE_ATOL = 1e-10
DISCORD_ATOL = 1e-12
TRACE_DISTANCE_MAX = 0.03


@dataclass
class Command:
    """One CLI invocation with the work it does and how to check it."""

    kind: str
    argv: list[str]
    outputs: list[Path]
    work: int
    check: Callable[["Command"], list[str]]  # returns the problems found
    expect: dict = field(default_factory=dict)


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_report(cmd: Command) -> list[str]:
    doc = _load_json(cmd.outputs[0])
    problems = []
    if doc.get("all_pass") is not True:
        problems.append("check report is not all_pass")
    props = doc.get("properties", [])
    if not props:
        problems.append("check report lists no properties")
    for prop in props:
        if prop.get("status") != "pass":
            problems.append(f"property {prop.get('name')} is {prop.get('status')}")
    return problems


def _sweep_rows_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


def _check_pure_row(row: dict, problems: list[str]) -> None:
    if row["ratio_defined"] not in ("true", True):
        return
    delta = float(row["delta_pure"])
    gate = RATIO_ATOL + RATIO_ULPS * sys.float_info.epsilon / delta
    if not abs(float(row["ratio"]) - RATIO) <= gate:
        problems.append(f"ratio {row['ratio']} != 2/3 at param {row['param']}")
    if not abs(float(row["concurrence_twirled"]) - float(row["concurrence_pure"])) <= CONCURRENCE_ATOL:
        problems.append(f"concurrence changed under twirl at param {row['param']}")
    if not float(row["dg_twirled"]) >= float(row["dg_pure"]) - DISCORD_ATOL:
        problems.append(f"discord dropped under twirl at param {row['param']}")


def _check_sweep_csv(cmd: Command) -> list[str]:
    header, rows = _sweep_rows_csv(cmd.outputs[0])
    problems = []
    if header != SWEEP_HEADER:
        problems.append(f"sweep header {header} differs from the frozen schema")
        return problems
    if len(rows) != cmd.work:
        problems.append(f"sweep has {len(rows)} rows, grid has {cmd.work}")
    if cmd.expect.get("family") == "pure":
        for row in rows:
            _check_pure_row(row, problems)
    return problems


def _check_sweep_json(cmd: Command) -> list[str]:
    doc = _load_json(cmd.outputs[0])
    rows = doc.get("rows", [])
    problems = []
    if doc.get("family") != cmd.expect["family"]:
        problems.append(f"sweep family {doc.get('family')!r}")
    if len(rows) != cmd.work:
        problems.append(f"sweep has {len(rows)} rows, grid has {cmd.work}")
    bad = [list(r) for r in rows if list(r) != DEPOLARIZED_HEADER]
    if bad:
        problems.append(f"sweep row keys {bad[0]} differ from the frozen schema")
    return problems


def _check_simulation(cmd: Command) -> list[str]:
    from twirlkit.protocol import binomial_gate

    doc = _load_json(cmd.outputs[0])
    problems = []
    if doc["n_rounds"] != cmd.expect["rounds"]:
        problems.append(f"n_rounds {doc['n_rounds']} != {cmd.expect['rounds']}")
    gap = abs(doc["delta_hat"] - doc["delta_analytic"])
    gate = binomial_gate(doc["delta_analytic"], doc["m_sifted"])
    if not gap <= gate:
        problems.append(f"|delta_hat - delta_analytic| = {gap:.3g} exceeds the binomial gate {gate:.3g}")
    if len(cmd.outputs) > 1:
        data = cmd.outputs[1].read_bytes()
        lines = data.count(b"\n")
        if lines != doc["n_rounds"] + 1:
            problems.append(f"ledger has {lines} lines for {doc['n_rounds']} rounds")
        if not data.startswith(LEDGER_HEADER):
            problems.append("ledger header differs from the documented columns")
        sifted = data.count(b",1\n")
        if sifted != doc["m_sifted"]:
            problems.append(f"ledger marks {sifted} rounds sifted, summary says {doc['m_sifted']}")
    return problems


def _check_twirl(cmd: Command) -> list[str]:
    doc = _load_json(cmd.outputs[0])
    problems = []
    if doc["n_samples"] != cmd.work:
        problems.append(f"n_samples {doc['n_samples']} != {cmd.work}")
    if not doc["trace_distance_to_analytic"] <= TRACE_DISTANCE_MAX:
        problems.append(f"trace distance {doc['trace_distance_to_analytic']} above {TRACE_DISTANCE_MAX}")
    return problems


def _grid(start: float, stop: float, steps: int) -> str:
    return f"{start!r}:{stop!r}:{steps}"


class Workload:
    """Name, one-line reason, seeded input files and the command batch."""

    name = ""
    why = ""

    def write_inputs(self, workdir: Path, seed: int) -> None:
        """Write the state files the commands read (none by default)."""

    def commands(self, workdir: Path, seed: int) -> list[Command]:
        raise NotImplementedError


class Verify(Workload):
    name = "verify"
    why = ("time to the check verdict at reduced fixed counts; the grid-search discord oracle dominates. "
           "Default counts (~70 s) are left out: too long to repeat in every run")

    def commands(self, workdir, seed):
        out = workdir / "check.json"
        argv = ["check", "--seed", str(seed), *CHECK_COUNTS, "--out", str(out)]
        return [Command("check", argv, [out], 1, _check_report)]


class Sweep(Workload):
    name = "sweep"
    why = ("per-state kernel throughput, 3 families x 2000 points, no oracle or RNG. "
           "The documented 50-point sweep (~30 ms) is left out: too short to time steadily")

    def commands(self, workdir, seed):
        rng = random.Random(seed)
        half_pi = math.pi / 2
        pure_start = rng.uniform(0.0, 0.01)
        f_lo, f_hi = rng.uniform(0.0, 0.05), 1.0 - rng.uniform(0.0, 0.05)
        dep_start, dep_p = rng.uniform(0.0, 0.01), rng.uniform(0.2, 0.9)
        pure_out, werner_out, dep_out = (workdir / n for n in ("pure.csv", "werner.csv", "depolarized.json"))
        return [
            Command("sweep", ["sweep", "--family", "pure", "--grid", _grid(pure_start, half_pi, SWEEP_POINTS),
                              "--out", str(pure_out)],
                    [pure_out], SWEEP_POINTS, _check_sweep_csv, {"family": "pure"}),
            Command("sweep", ["sweep", "--family", "werner", "--grid", _grid(f_lo, f_hi, SWEEP_POINTS),
                              "--out", str(werner_out)],
                    [werner_out], SWEEP_POINTS, _check_sweep_csv, {"family": "werner"}),
            Command("sweep", ["sweep", "--family", "depolarized", "--grid", _grid(dep_start, half_pi, SWEEP_POINTS),
                              "--p", repr(dep_p), "--format", "json", "--out", str(dep_out)],
                    [dep_out], SWEEP_POINTS, _check_sweep_json, {"family": "depolarized"}),
        ]


class Keygen(Workload):
    name = "keygen"
    why = ("key simulator RNG and array work, the per-round ledger writer and the Monte Carlo twirl. "
           "Tier-1 test time (~150 s) is left out: it is not a user command")

    @staticmethod
    def _states(seed: int) -> dict[str, dict]:
        rng = random.Random(seed)
        return {
            "pure": {"family": "pure", "gamma": rng.uniform(0.2, 1.3)},
            "werner": {"family": "werner", "F": rng.uniform(0.6, 0.95)},
        }

    def write_inputs(self, workdir, seed):
        for name, doc in self._states(seed).items():
            (workdir / f"{name}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")

    def commands(self, workdir, seed):
        s = str(seed)
        pure, werner = str(workdir / "pure.json"), str(workdir / "werner.json")
        cmds = []
        for label, state in (("pure", pure), ("werner", werner)):
            out = workdir / f"simulate_{label}.json"
            cmds.append(Command("simulate", ["simulate", "--state", state, "--n", str(SIM_ROUNDS), "--seed", s,
                                             "--out", str(out)],
                                [out], SIM_ROUNDS, _check_simulation, {"rounds": SIM_ROUNDS}))
        summary, ledger = workdir / "ledger_summary.json", workdir / "ledger.csv"
        cmds.append(Command("ledger", ["simulate", "--state", werner, "--n", str(LEDGER_ROUNDS), "--seed", s,
                                       "--out", str(summary), "--rounds-csv", str(ledger)],
                            [summary, ledger], LEDGER_ROUNDS, _check_simulation, {"rounds": LEDGER_ROUNDS}))
        for label, state in (("pure", pure), ("werner", werner)):
            out = workdir / f"twirl_{label}.json"
            cmds.append(Command("twirl", ["twirl", "--state", state, "--n", str(TWIRL_SAMPLES), "--seed", s,
                                          "--out", str(out)],
                                [out], TWIRL_SAMPLES, _check_twirl))
        return cmds


WORKLOADS = {w.name: w for w in (Verify(), Sweep(), Keygen())}
