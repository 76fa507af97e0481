"""Command line front end.

Subcommands:

* ``sweep``: evaluate error rates, discord, concurrence and entanglement
  of formation over a parameter grid, before and after twirling, and emit
  CSV (default) or JSON rows.
* ``simulate``: run the key distribution simulator on a state file and
  emit a summary JSON (optionally the per-round CSV ledger), with the
  4-sigma binomial half-width around the analytic error rate.
* ``twirl``: exact twirl of a state file plus a Monte Carlo convergence
  report and the before/after discord and concurrence.
* ``check``: run the full property suite and emit a machine-readable
  report; exit status 2 when any property fails.

Exit codes: 0 success (all properties pass for ``check``), 1 invalid
input, 2 property failure. Outputs are deterministic for a fixed command
line and seed; floats are printed with 17 significant digits so values
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, states
from .checks import FLAG_FIELDS, CheckConfig, run_all
from .errors import InvalidSpecError, TwirlkitError
from .measures import concurrence, discord_eigen, eof_from_concurrence, twirl_discord_comparison
from .protocol import MeasurementSetting, binomial_gate, error_rate, min_error_rate, simulate_protocol
from .twirl import twirl_analytic, twirl_monte_carlo

_COLUMNS = [
    "param", "delta_pure", "delta_twirled", "ratio", "ratio_defined",
    "dg_pure", "dg_twirled", "concurrence_pure", "concurrence_twirled",
    "eof_pure", "eof_twirled",
]
_VALUE_COLUMNS = [c for c in _COLUMNS if c not in ("param", "ratio_defined")]


@dataclass(eq=False)
class SweepSpec:
    """One parameter sweep: family, grid, optional column subset, output."""

    family: str
    grid: np.ndarray
    quantities: list[str] | None = None
    p: float | None = None

    def __post_init__(self):
        if self.family not in states.FAMILY_PARAMS:
            raise InvalidSpecError(f"unknown family {self.family!r}")
        if not len(self.grid):
            raise InvalidSpecError("sweep grid must be nonempty")
        if self.extra_params and self.p is None:
            raise InvalidSpecError(f"{self.family} sweeps need a fixed --p")
        if not self.extra_params and self.p is not None:
            raise InvalidSpecError(f"{self.family} sweeps take no --p")
        if self.quantities is not None:
            unknown = [q for q in self.quantities if q not in _VALUE_COLUMNS]
            if unknown:
                raise InvalidSpecError(f"unknown quantities {unknown}; choose from {_VALUE_COLUMNS}")

    @property
    def extra_params(self) -> tuple[str, ...]:
        """Family parameters after the swept one (set by ``p``); each gets a column."""
        return states.FAMILY_PARAMS[self.family][1:]

    def points(self) -> np.ndarray:
        """Family parameters of every grid point, one row each, in ``states.FAMILY_PARAMS`` order."""
        grid = np.asarray(self.grid, dtype=float)
        return np.column_stack([grid, *(np.full_like(grid, self.p) for _ in self.extra_params)])

    def columns(self) -> list[str]:
        cols = list(_COLUMNS)
        cols[1:1] = self.extra_params
        if self.quantities is None:
            return cols
        keep = set(self.quantities) | {"param", *self.extra_params}
        if "ratio" in keep:
            keep.add("ratio_defined")
        return [c for c in cols if c in keep]


# Grid points per block of run_sweep: the stacked states, their kept
# eigenpairs and the kernels' temporaries exist for one block at a time.
_SWEEP_BLOCK = 1 << 14


def _sweep_block(spec: SweepSpec, points: np.ndarray) -> dict:
    """Every column of the sweep at ``points`` (one row of family
    parameters per point): the points are built, validated and twirled as
    one stack, and each column is one array expression over it."""
    state = states.family_state(spec.family, *points.T)
    twirled = twirl_analytic(state)
    delta_pure = min_error_rate(state).value
    delta_twirled = min_error_rate(twirled).value
    defined = delta_pure > 0.0
    c_pure, c_twirled = concurrence(state), concurrence(twirled)
    columns = {
        "param": points[:, 0],
        "delta_pure": delta_pure,
        "delta_twirled": delta_twirled,
        "ratio": np.where(defined, delta_twirled / np.where(defined, delta_pure, 1.0), np.nan),
        "ratio_defined": defined,
        "dg_pure": discord_eigen(state).value,
        "dg_twirled": discord_eigen(twirled).value,
        "concurrence_pure": c_pure,
        "concurrence_twirled": c_twirled,
        "eof_pure": eof_from_concurrence(c_pure),
        "eof_twirled": eof_from_concurrence(c_twirled),
    }
    columns.update(zip(spec.extra_params, points[:, 1:].T))
    return columns


def run_sweep(spec: SweepSpec) -> np.recarray:
    """Evaluate the sweep as a record array: one field per ``spec.columns()``
    entry, in that order, and one record per grid point.

    The grid is evaluated in blocks of ``_SWEEP_BLOCK`` points, each as one
    stack (see ``_sweep_block``), and each block's columns are written into
    the table. Every kernel gives a member its single-state bits, so the
    values are those of a point-by-point loop, bit for bit, whatever the
    block size.
    """
    points = spec.points()
    cols = spec.columns()
    table = np.recarray(len(points), dtype=[(c, bool if c == "ratio_defined" else float) for c in cols])
    for lo in range(0, len(points), _SWEEP_BLOCK):
        block = _sweep_block(spec, points[lo:lo + _SWEEP_BLOCK])
        for c in cols:
            table[c][lo:lo + _SWEEP_BLOCK] = block[c]
    return table


def _cells(table: np.recarray, float_conversion: str, fmt=None) -> tuple[list[str], list[list]]:
    """The ``%`` conversion and the cells of each field of ``table``: bools
    as true/false through ``%s``; floats through ``float_conversion``, or,
    when ``fmt`` is given and the field holds a non-finite value, as ``fmt``
    writes them through ``%s``."""
    conversions, cells = [], []
    for c in table.dtype.names:
        values = table[c]
        if values.dtype == bool:
            conversions.append("%s")
            cells.append(list(map(("false", "true").__getitem__, values.tolist())))
        elif fmt is not None and not np.isfinite(values).all():
            conversions.append("%s")
            cells.append(list(map(fmt, values.tolist())))
        else:
            conversions.append(float_conversion)
            cells.append(values.tolist())
    return conversions, cells


def render_sweep_csv(table: np.recarray, spec: SweepSpec) -> str:
    """The sweep CSV, each row from one ``%`` template: ``%.17g`` per float
    field, the bools already written as true/false."""
    conversions, cells = _cells(table, "%.17g")
    lines = [",".join(spec.columns()) + "\n", *map((",".join(conversions) + "\n").__mod__, zip(*cells))]
    del cells  # every row is written: free the cells before the join copies the rows
    return "".join(lines)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _dump_json(doc) -> str:
    return json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n"


def _json_value(value: float) -> str:
    """One float sweep cell as ``json.dumps`` writes it: by ``repr``, the
    non-finite ones as null."""
    return repr(value) if math.isfinite(value) else "null"


def render_sweep_json(table: np.recarray, spec: SweepSpec) -> str:
    """The sweep document ``_dump_json`` writes, byte for byte, from one row
    template: with ``indent`` set, ``json`` runs its pure-Python encoder,
    which writes a finite float by ``repr``. So an all-finite float field
    goes through ``%r``, and only a field with a non-finite value through
    ``_json_value``."""
    conversions, cells = _cells(table, "%r", _json_value)
    fields = ",\n".join(f"      {json.dumps(c)}: {v}" for c, v in zip(spec.columns(), conversions))
    lines = [f'{{\n  "family": {json.dumps(spec.family)},\n  "rows": [',
             *map(f",\n    {{\n{fields}\n    }}".__mod__, zip(*cells)), "\n  ]\n}\n"]
    del cells  # every row is written: free the cells before the join copies the rows
    lines[1] = lines[1][1:]  # no comma before the first row
    return "".join(lines)


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise InvalidSpecError(f"--grid expects start:stop:steps, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise InvalidSpecError(f"--grid expects numbers, got {text!r}") from exc
    if not math.isfinite(stop - start):  # also a non-finite start or stop
        raise InvalidSpecError(f"--grid needs a finite start, stop and stop - start, got {text!r}")
    if steps < 1:
        raise InvalidSpecError("--grid needs at least one step")
    return np.linspace(start, stop, steps)


def _parse_direction(text: str) -> MeasurementSetting:
    try:
        v = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InvalidSpecError(f"direction expects three comma-separated numbers, got {text!r}") from exc
    if v.shape != (3,) or not np.all(np.isfinite(v)) or not np.any(v):
        raise InvalidSpecError(f"direction expects a finite nonzero 3-vector, got {text!r}")
    with np.errstate(over="ignore"):
        if not np.finfo(float).tiny <= v.dot(v) < np.inf:  # the sum of squares over- or underflows
            v = v / np.max(np.abs(v))
    return MeasurementSetting(v / np.linalg.norm(v))


def _pauli_block(state) -> dict:
    d = state.decomp
    return {"x": list(d.x), "y": list(d.y), "T": [list(r) for r in d.T]}


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        family=args.family,
        grid=_parse_grid(args.grid),
        quantities=args.quantities.split(",") if args.quantities is not None else None,
        p=args.p,
    )
    table = run_sweep(spec)
    text = render_sweep_json(table, spec) if args.format == "json" else render_sweep_csv(table, spec)
    _write(text, args.out)
    return 0


def _require_distinct_files(**paths) -> None:
    """Reject two of the given paths (by flag name; None or empty for none)
    that resolve to one file, before any work runs: a later write would
    overwrite an input or an earlier output."""
    seen = {}
    for name, path in paths.items():
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise InvalidSpecError(f"{seen[real]} and {_option(name)} name the same file: {real}")
            seen[real] = _option(name)


def cmd_simulate(args) -> int:
    _require_distinct_files(state=args.state, out=args.out, rounds_csv=args.rounds_csv)
    state = states.load_state_file(args.state)
    optimal = min_error_rate(state) if args.b is None or args.b_prime is None else None
    b = optimal.b if args.b is None else _parse_direction(args.b)
    b_prime = optimal.b_prime if args.b_prime is None else _parse_direction(args.b_prime)
    run = simulate_protocol(state, args.n, args.seed, b, b_prime)
    delta_analytic = error_rate(state, b, b_prime)
    summary = run.summary(delta_analytic=delta_analytic)
    summary["binomial_gate"] = binomial_gate(delta_analytic, run.m_sifted)
    # the ledger first: a ledger that cannot be written leaves no summary,
    # and a summary that cannot be written takes the ledger with it
    if args.rounds_csv:
        run.write_rounds_csv(args.rounds_csv)
    try:
        _write(_dump_json(summary), args.out)
    except OSError:
        if args.rounds_csv:
            os.remove(args.rounds_csv)
        raise
    return 0


def cmd_twirl(args) -> int:
    _require_distinct_files(state=args.state, out=args.out)
    state = states.load_state_file(args.state)
    analytic = twirl_analytic(state)
    report = twirl_monte_carlo(state, args.n, args.seed)
    cmp = twirl_discord_comparison(state)
    doc = {
        "fidelity": states.fidelity_phi_plus(state),
        "analytic_pauli": _pauli_block(analytic),
        "n_samples": report.n_samples,
        "trace_distance_to_analytic": report.trace_distance_to_analytic,
        "discord_before": cmp.d_before,
        "discord_after": cmp.d_after,
        "concurrence_before": cmp.c_before,
        "concurrence_after": cmp.c_after,
    }
    _write(_dump_json(doc), args.out)
    return 0


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


# The lower bounds of the ``check`` flags. Any command's flag of the same
# name obeys the same bound: ``--seed`` of simulate and twirl is check's.
_MINIMUMS = {f.name: f.metadata["minimum"] for f in FLAG_FIELDS}


def _require_minimums(args) -> None:
    """Reject a flag below its minimum, naming the flag, before any work runs."""
    for name, minimum in _MINIMUMS.items():
        value = getattr(args, name, minimum)
        if value < minimum:
            raise InvalidSpecError(f"{_option(name)} must be at least {minimum}, got {value}")


def cmd_check(args) -> int:
    config = CheckConfig(**{f.name: getattr(args, f.name) for f in FLAG_FIELDS})
    results = run_all(config)
    all_pass = all(r.status == "pass" for r in results)
    doc = {
        "seed": config.seed,
        "all_pass": all_pass,
        "properties": [asdict(r) for r in results],
    }
    _write(_dump_json(doc), args.out)
    return 0 if all_pass else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidSpecError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twirlkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"twirlkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="parameter sweep over a state family")
    sweep.add_argument("--family", required=True, choices=list(states.FAMILY_PARAMS))
    sweep.add_argument("--grid", required=True, help="start:stop:steps (gamma for pure/depolarized, F for werner)")
    sweep.add_argument("--p", type=float, default=None, help="fixed mixing weight for the depolarized family")
    sweep.add_argument("--quantities", default=None, help="comma-separated subset of value columns")
    sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    sweep.add_argument("--out", default=None, help="output path (stdout when omitted)")
    sweep.set_defaults(handler=cmd_sweep)

    sim = sub.add_parser("simulate", help="simulate key distribution rounds")
    sim.add_argument("--state", required=True, help="JSON state file")
    sim.add_argument("--n", type=int, default=100_000, help="number of rounds")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--b", default=None, help="Bob's first direction as bx,by,bz (default: optimal)")
    sim.add_argument("--b-prime", dest="b_prime", default=None, help="Bob's second direction (default: optimal)")
    sim.add_argument("--out", default=None, help="summary JSON path (stdout when omitted)")
    sim.add_argument("--rounds-csv", dest="rounds_csv", default=None, help="optional per-round CSV ledger path")
    sim.set_defaults(handler=cmd_simulate)

    tw = sub.add_parser("twirl", help="twirl a state and report convergence and measures")
    tw.add_argument("--state", required=True, help="JSON state file")
    tw.add_argument("--n", type=int, default=100_000, help="Monte Carlo sample count")
    tw.add_argument("--seed", type=int, default=0)
    tw.add_argument("--out", default=None, help="report JSON path (stdout when omitted)")
    tw.set_defaults(handler=cmd_twirl)

    chk = sub.add_parser("check", help="run the full property suite")
    for f in FLAG_FIELDS:
        chk.add_argument(_option(f.name), dest=f.name, type=int, default=f.default, help=f.metadata["help"])
    chk.add_argument("--out", default=None, help="report JSON path (stdout when omitted)")
    chk.set_defaults(handler=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _require_minimums(args)
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (TwirlkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
