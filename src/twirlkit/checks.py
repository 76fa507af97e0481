"""Machine-checkable property suite behind the ``check`` subcommand.

Every property runs a seeded sweep and returns its sample count and its
terms: one (label, worst value, gate) triple per compared reading, the
gate mostly a fixed entry of ``TOLERANCES``. ``_result`` derives the
rest: the worst margin is the largest worst value minus its gate, so any
positive margin is a failure, and the detail lists every term. A gate of
inf marks a reading that is reported but not gated. The seed and the
pool sizes are the only inputs. The sizes follow the documented
defaults and can be reduced for quick runs.

Every random draw comes from a lane: a generator seeded by the seed and
the lane number, so every pool follows the seed. A random pool is one
block of standard normals from its lane, turned into one stacked state by
the Ginibre kernel that ``states.random_state`` also uses; X states come
from one block of sampled parameters, and the family parameters as
arrays. Each pool, parameter stack or family grid is evaluated as one
stacked expression. Only the Monte Carlo twirls and the simulator runs
loop, one seeded call per state or run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import measures, protocol, states, twirl
from .qubit_algebra import (
    EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    TRACE_ATOL,
    PauliDecomposition,
    TwoQubitState,
    _hermitian_defect,
    _vector_norm,
    hermitian_eigenvalues,
    hs_norm_sq,
    pauli_compose,
    pauli_decompose,
    tensor,
    validate_density,
)

# The named gates. They are fixed: a report's worst_margin already says
# how close each property comes to its gate. The constructor validity
# property gates at validate_density's own rules in qubit_algebra.
TOLERANCES = {
    "entrywise": 1e-12,
    "eigen_floor": 1e-10,
    "mc_trace_distance": 0.03,
    "sim_fail_fraction": 0.01,
    "eigen_grid_agreement": 1e-9,
    "oracle_agreement": 1e-9,
    "bound_slack": 1e-9,
    "concurrence_invariance": 1e-12,
    "relation_equality": 1e-8,
    "discord_increase": 1e-6,
    # X-state branch: |k1 - k3| at or below branch_tie is a tie and the
    # sample is skipped; an oracle argmin within on_axis of the z axis is
    # z-dephasing; a discord at or below zero_discord is zero (every
    # direction minimizes).
    "branch_tie": 1e-9,
    "on_axis": 1e-4,
    "zero_discord": 1e-9,
    # Discord range: product states have zero discord and zero residual at
    # the reported argmin within product_discord; the residual at the
    # eigen argmin equals the eigen value within argmin_residual.
    "product_discord": 1e-8,
    "argmin_residual": 1e-9,
}


# Fixed sizes: a Monte Carlo twirl takes MC_SAMPLES samples, a simulator
# run SIM_ROUNDS rounds; the first BOUND_CROSS_CHECKS bound states are also
# run through the grid oracle; family grids have GRID_POINTS points.
MC_SAMPLES = 100_000
SIM_ROUNDS = 100_000
BOUND_CROSS_CHECKS = 100
GRID_POINTS = 50
# The acceptance grid: GRID_POINTS angles in (0, pi/2].
OPEN_GAMMA_GRID = np.linspace(0.0, math.pi / 2, GRID_POINTS + 1)[1:]


def _flag(default: int, minimum: int = 1, help: str | None = None):
    """A CheckConfig integer that the ``check`` flag of the same name sets;
    the flag rejects values below ``minimum``."""
    return field(default=default, metadata={"minimum": minimum, "help": help})


@dataclass
class CheckConfig:
    """The seed and pool sizes; each field is a ``check`` flag."""

    seed: int = _flag(7, minimum=0)
    random_states: int = _flag(100)
    mc_states: int = _flag(100)
    runs: int = _flag(100, help="seeded simulator runs")
    bound_states: int = _flag(10_000)
    x_states: int = _flag(1_000)
    range_states: int = _flag(10_000)


# The CheckConfig fields, in the order of the ``check`` flags.
FLAG_FIELDS = fields(CheckConfig)


@dataclass
class PropertyResult:
    name: str
    samples: int
    worst_margin: float
    status: str  # "pass" | "fail"
    detail: str


Terms = list[tuple[str, float, float]]  # (label, worst value, gate) per compared reading


def _result(name: str, samples: int, terms: Terms) -> PropertyResult:
    """The result of a property from its (label, worst value, gate) terms."""
    margin = float(np.max([worst - gate for _, worst, gate in terms]))
    detail = "; ".join(f"{label} {worst:.4g} (gate {gate:g})" for label, worst, gate in terms)
    return PropertyResult(name, samples, margin, "pass" if margin <= 0.0 else "fail", detail)


def _rng(config: CheckConfig, lane: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, lane]))


def _random_states(config: CheckConfig, lane: int, count: int) -> TwoQubitState:
    """A stacked state of ``count`` Hilbert-Schmidt-random states, from one
    block of the lane's standard normals."""
    return states._ginibre(_rng(config, lane).standard_normal((count, 2, 4, 4)))


def _stack(pool):
    """The members of the states in ``pool`` (single or stacked) as one (m, 4, 4) stacked state."""
    return validate_density(np.concatenate([s.rho.reshape(-1, 4, 4) for s in pool]))


def _units(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A (*shape, 3) array of unit vectors: one block of standard normals,
    each 3-vector normalized."""
    v = rng.standard_normal((*shape, 3))
    return v / _vector_norm(v)[..., None]


# ---------------------------------------------------------------------------
# operator algebra

def check_algebra_roundtrip(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 11, config.random_states)
    gap = np.abs(pauli_compose(pauli_decompose(pool.rho)) - pool.rho)
    return len(pool.rho), [("|compose(decompose(rho)) - rho|", np.max(gap), TOLERANCES["entrywise"])]


def check_algebra_purity_identity(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 12, config.random_states)
    d = pool.decomp
    predicted = (1.0 + np.vecdot(d.x, d.x) + np.vecdot(d.y, d.y) + np.sum(d.T * d.T, axis=(-2, -1))) / 4.0
    gap = np.abs(hs_norm_sq(pool.rho) - predicted)
    return len(pool.rho), [("|tr rho^2 - Pauli purity|", np.max(gap), TOLERANCES["entrywise"])]


def check_algebra_eigenvalue_range(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 13, config.random_states)
    ev = hermitian_eigenvalues(pool.rho)
    gate = TOLERANCES["eigen_floor"]
    return len(pool.rho), [
        ("-smallest eigenvalue", np.max(-ev[:, -1]), gate),
        ("largest eigenvalue - 1", np.max(ev[:, 0] - 1.0), gate),
        ("|eigenvalue sum - 1|", np.max(np.abs(np.sum(ev, axis=-1) - 1.0)), gate),
    ]


# ---------------------------------------------------------------------------
# state constructors

def check_states_constructors_valid(config: CheckConfig) -> tuple[int, Terms]:
    rng = _rng(config, 14)
    gammas = np.linspace(0.0, math.pi / 2, 21)
    rho = np.concatenate([
        [states.bell(k).rho for k in states.BELL_KINDS],
        states.pure_state(gammas).rho,
        states.werner(np.linspace(0.0, 1.0, 21)).rho,
        states.depolarized_pure(gammas[::5, None], np.array([0.0, 0.3, 1.0])).rho.reshape(-1, 4, 4),
        states.x_state(states.sample_x_params(rng, 20)).rho,
    ])
    return len(rho), [
        ("Hermitian defect", np.max(_hermitian_defect(rho)), HERMITIAN_ATOL),
        ("|trace - 1|", np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)), TRACE_ATOL),
        ("-smallest eigenvalue", np.max(-np.linalg.eigvalsh(rho)[:, 0]), -EIGENVALUE_FLOOR),
    ]


def check_states_pure_fidelity(config: CheckConfig) -> tuple[int, Terms]:
    gammas = np.linspace(0.0, math.pi / 2, GRID_POINTS)
    gap = np.abs(states.fidelity_phi_plus(states.pure_state(gammas)) - np.cos(gammas / 2) ** 2)
    return len(gammas), [("|fidelity - cos^2(g/2)|", np.max(gap), TOLERANCES["entrywise"])]


def check_states_cross_constructor(config: CheckConfig) -> tuple[int, Terms]:
    fs, gammas = np.linspace(0.25, 1.0, 16), np.linspace(0.0, math.pi / 2, 16)
    families = np.concatenate([states.werner(fs).rho, states.pure_state(gammas).rho])
    x = np.concatenate([states.x_state(states.werner_x_params(fs)).rho,
                        states.x_state(states.pure_x_params(gammas)).rho])
    return len(x), [("|family - x_state|", np.max(np.abs(families - x)), TOLERANCES["entrywise"])]


# ---------------------------------------------------------------------------
# twirling channel

def check_twirl_idempotent(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 15, config.random_states)
    once = twirl.twirl_analytic(pool)
    gap = np.abs(twirl.twirl_analytic(once).rho - once.rho)
    return len(pool.rho), [("|twirl twice - twirl once|", np.max(gap), TOLERANCES["entrywise"])]


def check_twirl_fidelity_preserved(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 16, config.random_states)
    gap = np.abs(states.fidelity_phi_plus(twirl.twirl_analytic(pool)) - states.fidelity_phi_plus(pool))
    return len(pool.rho), [("|fidelity after - before|", np.max(gap), TOLERANCES["entrywise"])]


def check_twirl_linear(config: CheckConfig) -> tuple[int, Terms]:
    rng = _rng(config, 17)
    pool = _random_states(config, 18, 2 * config.random_states)
    n_pairs = config.random_states
    p = rng.uniform(size=n_pairs)[:, None, None]
    lhs = twirl.twirl_analytic(validate_density(p * pool.rho[0::2] + (1.0 - p) * pool.rho[1::2])).rho
    twirled = twirl.twirl_analytic(pool).rho
    rhs = p * twirled[0::2] + (1.0 - p) * twirled[1::2]
    return n_pairs, [("|twirl of mixture - mixture of twirls|", np.max(np.abs(lhs - rhs)), TOLERANCES["entrywise"])]


def check_twirl_mc_agreement(config: CheckConfig) -> tuple[int, Terms]:
    rng = _rng(config, 19)
    worst = 0.0
    for rho in _random_states(config, 20, config.mc_states).rho:
        report = twirl.twirl_monte_carlo(validate_density(rho), MC_SAMPLES, int(rng.integers(0, 2**62)))
        worst = max(worst, report.trace_distance_to_analytic)
    return config.mc_states, [("trace distance to analytic", worst, TOLERANCES["mc_trace_distance"])]


# ---------------------------------------------------------------------------
# protocol statistics

def check_protocol_outcome_closure(config: CheckConfig) -> tuple[int, Terms]:
    rng = _rng(config, 21)
    pool = _random_states(config, 22, config.random_states)
    # per state, Alice's direction and then Bob's
    a, b = _units(rng, (len(pool.rho), 2)).swapaxes(0, 1)
    w = protocol.outcome_probs(pool, a, b).as_array()
    gate = TOLERANCES["entrywise"]
    return len(pool.rho), [
        ("|probability sum - 1|", np.max(np.abs(np.sum(w, axis=-1) - 1.0)), gate),
        ("-probability", np.max(-w), gate),
        ("probability - 1", np.max(w - 1.0), gate),
    ]


def check_protocol_correlation_identity(config: CheckConfig) -> tuple[int, Terms]:
    rng = _rng(config, 23)
    pool = _random_states(config, 24, config.random_states)
    a, b = _units(rng, (len(pool.rho), 2)).swapaxes(0, 1)
    gap = np.abs(protocol.outcome_probs(pool, a, b).correlation() - protocol.correlation(pool, a, b))
    return len(pool.rho), [("|outcome correlation - a.Tb|", np.max(gap), TOLERANCES["entrywise"])]


def check_protocol_partner_optimality(config: CheckConfig) -> tuple[int, Terms]:
    rng = _rng(config, 25)
    pool = _random_states(config, 26, config.random_states)
    # per state, 20 Alice settings, each followed by its 100 brute-force partners
    units = _units(rng, (len(pool.rho), 20, 101))
    a, b = units[:, :, 0], units[:, :, 1:]
    best = protocol.optimal_partner(validate_density(pool.rho[:, None]), a).value
    brute = np.vecdot(b, (a @ pool.T)[:, :, None]).max(axis=-1)
    return best.size, [("brute-force partner - optimal", np.max(brute - best), TOLERANCES["entrywise"])]


def check_protocol_optimal_value_row_norm(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 27, config.random_states)
    gap = [np.abs(protocol.optimal_partner(pool, setting).value - _vector_norm(pool.T[:, k]))
           for k, setting in enumerate((protocol.SETTING_X, protocol.SETTING_Y))]
    return len(pool.rho), [("|optimal value - T row norm|", np.max(gap), TOLERANCES["entrywise"])]


def check_protocol_simulator_convergence(config: CheckConfig) -> tuple[int, Terms]:
    state = states.pure_state(math.pi / 3)
    mer = protocol.min_error_rate(state)
    delta = mer.value
    rng = _rng(config, 28)
    gaps, gates = np.empty(config.runs), np.empty(config.runs)
    for k in range(config.runs):
        run = protocol.simulate_protocol(state, SIM_ROUNDS, int(rng.integers(0, 2**62)), mer.b, mer.b_prime)
        gaps[k] = abs(run.empirical_delta - delta)
        gates[k] = protocol.binomial_gate(delta, run.m_sifted)
    return config.runs, [
        ("share of runs outside the 4-sigma band", np.mean(gaps > gates), TOLERANCES["sim_fail_fraction"]),
        ("|delta_hat - delta| / band", np.max(gaps / gates), math.inf),
    ]


# ---------------------------------------------------------------------------
# correlation measures

def _local_unitaries(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` Haar local unitaries u x v, from 2 ``count`` rows drawn in
    pairs; a (count, 4, 4) stack."""
    rows = twirl._haar_su2_batch(rng, 2 * count)
    return tensor(rows[0::2], rows[1::2])


def _near_degenerate_states(rng: np.random.Generator, count: int) -> TwoQubitState:
    """``count`` Bell-diagonal states T = diag(c1, -c1 (1 - t), c3) under local
    Haar rotations, whose two largest correlation values nearly tie: log10 t
    uniform in [-13, -1], |c1| up to 0.3 and |c3| below 0.9 |c1|, which
    keep every eigenvalue, (1 - c3) / 4 and (1 +- 2 c1 + c3) / 4 to first
    order in t, above 0.03."""
    c1 = rng.uniform(-0.3, 0.3, count)
    t = 10.0 ** rng.uniform(-13.0, -1.0, count)
    c3 = c1 * rng.uniform(-0.9, 0.9, count)
    diagonal = np.stack([c1, -c1 * (1.0 - t), c3], axis=-1)[:, :, None] * np.eye(3)
    rho = pauli_compose(PauliDecomposition(np.zeros((count, 3)), np.zeros((count, 3)), diagonal))
    w = _local_unitaries(rng, count)
    return validate_density(w @ rho @ w.conj().mT)


def check_measures_eigen_grid_agreement(config: CheckConfig) -> tuple[int, Terms]:
    # random states, then as many Bell-diagonal states with nearly tied correlation values
    pool = _stack([
        _random_states(config, 29, config.random_states),
        _near_degenerate_states(_rng(config, 35), config.random_states),
    ])
    gap = np.abs(measures.discord_eigen(pool).value - measures.discord_grid_oracle(pool).value)
    return gap.size, [("|eigen - oracle|", np.max(gap), TOLERANCES["eigen_grid_agreement"])]


def _sample_x_branch(config: CheckConfig) -> tuple[list[np.ndarray], int]:
    """X-state parameter sets drawn on lane 30, as their eight fields: up to
    ``x_states`` sets inside the z branch (k1 <= k3), then up to a third as
    many outside it; and the count inside. Blocks of ``x_states`` samples
    are drawn until enough fall inside, at most 100 blocks, and sets outside
    count only up to the last set taken inside. Near-ties
    |k1 - k3| <= branch_tie are skipped: their branch is genuinely ambiguous."""
    rng, n = _rng(config, 30), config.x_states
    blocks, inside, outside = [], [], []
    while sum(map(np.count_nonzero, inside)) < n and len(blocks) < 100:
        blocks.append(states.sample_x_params(rng, n))
        k = measures.k_values(blocks[-1])
        untied = np.abs(k.k1 - k.k3) > TOLERANCES["branch_tie"]
        inside.append(untied & (k.k1 <= k.k3))
        outside.append(untied & ~(k.k1 <= k.k3))
    picked = np.flatnonzero(np.concatenate(inside))[:n]
    stop = picked[-1] + 1 if len(picked) == n else None
    chosen = np.concatenate([picked, np.flatnonzero(np.concatenate(outside)[:stop])[:max(1, n // 3)]])
    columns = [np.concatenate([getattr(p, f.name) for p in blocks]) for f in fields(states.XStateParams)]
    return [c[chosen] for c in columns], len(picked)


def check_measures_xstate_oracle_agreement(config: CheckConfig) -> tuple[int, Terms]:
    columns, m = _sample_x_branch(config)
    oracle = measures.discord_grid_oracle(states.x_state(states.XStateParams(*columns)))
    n = oracle.argmin_direction
    on_axis = np.hypot(n[:, 0], n[:, 1]) <= TOLERANCES["on_axis"]
    closed = measures.discord_x_closed_form(states.XStateParams(*(c[:m] for c in columns))).value
    # inside the branch the oracle must pick the z axis; outside it must leave it
    off_branch = on_axis[m:] & (oracle.value[m:] > TOLERANCES["zero_discord"])
    mismatches = int(np.sum(~on_axis[:m]) + np.sum(off_branch))
    # any mismatch fails; with none, the term is -inf and leaves the margin to the value gap
    return len(oracle.value), [
        ("branch decisions off the oracle argmin", mismatches or -math.inf, 0.0),
        ("worst value gap", np.max(np.abs(closed - oracle.value[:m]), initial=0.0), TOLERANCES["oracle_agreement"]),
    ]


def check_measures_discord_range(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 31, config.range_states)
    eigen = measures.discord_eigen(pool)
    d = eigen.value
    # zero iff a dephasing fixes the state: product states reach zero,
    # and the reported value equals the residual at the reported argmin.
    rows = twirl._haar_su2_batch(_rng(config, 32), 20)
    # u P u^dag x v R v^dag for each pair of rows
    a = rows[0::2] @ np.diag([1.0, 0.0]) @ rows[0::2].conj().mT
    b = rows[1::2] @ np.diag([0.7, 0.3]) @ rows[1::2].conj().mT
    products = validate_density(tensor(a, b))
    res = measures.discord_grid_oracle(products)
    residual = hs_norm_sq(measures.cq_state(products, res.argmin_direction).rho - products.rho)
    head = validate_density(pool.rho[:50])
    head_residual = hs_norm_sq(measures.cq_state(head, eigen.argmin_direction[:50]).rho - head.rho)
    return len(pool.rho) + 60, [
        ("-discord", np.max(-d), TOLERANCES["entrywise"]),
        ("discord - 1/2", np.max(d - 0.5), TOLERANCES["entrywise"]),
        ("product-state discord", np.max(res.value), TOLERANCES["product_discord"]),
        ("product-state residual at the argmin", np.max(residual), TOLERANCES["product_discord"]),
        ("|residual at the argmin - discord|", np.max(np.abs(head_residual - d[:50])), TOLERANCES["argmin_residual"]),
    ]


def check_measures_concurrence_lu_invariant(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 34, config.random_states)
    w = _local_unitaries(_rng(config, 33), len(pool.rho))
    rotated = validate_density(w @ pool.rho @ w.conj().mT)
    gap = np.abs(measures.concurrence(rotated) - measures.concurrence(pool))
    return gap.size, [("|C(rotated) - C|", np.max(gap), TOLERANCES["concurrence_invariance"])]


def check_measures_discord_error_bound(config: CheckConfig) -> tuple[int, Terms]:
    pool = _random_states(config, 36, config.bound_states)
    lhs, rhs = measures.discord_error_rate_bound(pool)
    oracle = measures.discord_grid_oracle(validate_density(pool.rho[:BOUND_CROSS_CHECKS])).value
    gate = TOLERANCES["bound_slack"]
    return config.bound_states, [
        ("discord - bound", np.max(lhs - rhs), gate),
        ("oracle discord - bound", np.max(oracle - rhs[:BOUND_CROSS_CHECKS]), gate),
        ("|oracle - eigen discord|", np.max(np.abs(oracle - lhs[:BOUND_CROSS_CHECKS])), gate),
    ]


def check_measures_bound_saturation_families(config: CheckConfig) -> tuple[int, Terms]:
    """The bound is tight on the pure and Werner families; the closed-form
    route must match the error-rate side exactly."""
    gammas, fs = np.linspace(0.0, math.pi / 2, GRID_POINTS), np.linspace(0.25, 1.0, 16)
    lhs = np.concatenate([measures.discord_x_closed_form(states.pure_x_params(gammas)).value,
                          measures.discord_x_closed_form(states.werner_x_params(fs)).value])
    _, rhs = measures.discord_error_rate_bound(_stack([states.pure_state(gammas), states.werner(fs)]))
    return len(lhs), [("|closed-form discord - bound|", np.max(np.abs(lhs - rhs)), TOLERANCES["bound_slack"])]


def check_measures_delta_min_relation(config: CheckConfig) -> tuple[int, Terms]:
    targets = _stack([
        states.pure_state(np.linspace(0.0, math.pi / 2, GRID_POINTS)),
        states.werner(np.linspace(0.0, 1.0, 16)),
        states.depolarized_pure(0.0, 0.0),
    ])
    gap = np.abs(measures.delta_min_from_discord(targets) - protocol.min_error_rate(targets).value)
    return gap.size, [("|delta from discord - delta_min|", np.max(gap), TOLERANCES["relation_equality"])]


def check_measures_twirl_pair_monotonicity(config: CheckConfig) -> tuple[int, Terms]:
    """Twirling the pure family turns its minimal error rate sin^2(g/2)
    into the Werner value (2/3) sin^2(g/2), keeps the concurrence cos g and
    the entanglement of formation, and raises the discord from
    cos^2 g / 2 to ((2 cos g + 1) / 3)^2 / 2."""
    grid = OPEN_GAMMA_GRID
    pure = states.pure_state(grid)
    d_pure = protocol.min_error_rate(pure).value
    d_twirled = protocol.min_error_rate(twirl.twirl_analytic(pure)).value
    d_werner = protocol.min_error_rate(states.werner(np.cos(grid / 2) ** 2)).value
    s2 = np.sin(grid / 2) ** 2
    c = np.cos(grid)
    cmp = measures.twirl_discord_comparison(pure)
    eof = measures.eof_from_concurrence
    # the discord's closed forms gate at the oracle's gate; its increase gates from below, so negated
    entry, conc, oracle = (TOLERANCES[k] for k in ("entrywise", "concurrence_invariance", "oracle_agreement"))
    return len(grid), [
        ("|ratio - 2/3|", np.max(np.abs(d_twirled / d_pure - 2 / 3)), entry),
        ("|pure error rate - sin^2(g/2)|", np.max(np.abs(d_pure - s2)), entry),
        ("|Werner error rate - (2/3) sin^2(g/2)|", np.max(np.abs(d_werner - (2 / 3) * s2)), entry),
        ("|concurrence before - after|", np.max(np.abs(cmp.c_before - cmp.c_after)), conc),
        ("|concurrence before - cos g|", np.max(np.abs(cmp.c_before - c)), conc),
        ("|concurrence after - cos g|", np.max(np.abs(cmp.c_after - c)), conc),
        ("|EoF before - after|", np.max(np.abs(eof(cmp.c_before) - eof(cmp.c_after))), conc),
        ("|discord before - cos^2 g / 2|", np.max(np.abs(cmp.d_before - 0.5 * c ** 2)), oracle),
        ("|discord after - ((2 cos g + 1) / 3)^2 / 2|",
         np.max(np.abs(cmp.d_after - 0.5 * ((2 * c + 1) / 3) ** 2)), oracle),
        ("discord before - after", np.max(cmp.d_before - cmp.d_after), -TOLERANCES["discord_increase"]),
    ]


# ---------------------------------------------------------------------------
# command line front end

_SWEEP_HEADER = [
    "param", "delta_pure", "delta_twirled", "ratio", "ratio_defined",
    "dg_pure", "dg_twirled", "concurrence_pure", "concurrence_twirled",
    "eof_pure", "eof_twirled",
]


def check_cli_sweep_determinism(config: CheckConfig) -> tuple[int, Terms]:
    from .cli import SweepSpec, render_sweep_csv, run_sweep

    spec = SweepSpec(family="pure", grid=np.linspace(0.0, math.pi / 2, 9))
    first = render_sweep_csv(run_sweep(spec), spec)
    second = render_sweep_csv(run_sweep(spec), spec)
    return 2, [("repeated sweeps differ in bytes", first != second, 0.0)]


def check_cli_sweep_schema(config: CheckConfig) -> tuple[int, Terms]:
    from .cli import SweepSpec, render_sweep_csv, run_sweep

    spec = SweepSpec(family="pure", grid=[0.1, 0.2])
    header = render_sweep_csv(run_sweep(spec), spec).splitlines()[0].split(",")
    return 1, [("header differs from the schema", header != _SWEEP_HEADER, 0.0)]


ALL_CHECKS = (
    ("algebra_pauli_roundtrip", check_algebra_roundtrip),
    ("algebra_purity_identity", check_algebra_purity_identity),
    ("algebra_eigenvalue_range", check_algebra_eigenvalue_range),
    ("states_constructors_valid", check_states_constructors_valid),
    ("states_pure_fidelity_grid", check_states_pure_fidelity),
    ("states_cross_constructor", check_states_cross_constructor),
    ("twirl_idempotent", check_twirl_idempotent),
    ("twirl_fidelity_preserved", check_twirl_fidelity_preserved),
    ("twirl_linear", check_twirl_linear),
    ("twirl_mc_agreement", check_twirl_mc_agreement),
    ("protocol_outcome_closure", check_protocol_outcome_closure),
    ("protocol_correlation_identity", check_protocol_correlation_identity),
    ("protocol_partner_optimality", check_protocol_partner_optimality),
    ("protocol_optimal_value_row_norm", check_protocol_optimal_value_row_norm),
    ("protocol_simulator_convergence", check_protocol_simulator_convergence),
    ("measures_eigen_grid_agreement", check_measures_eigen_grid_agreement),
    ("measures_xstate_oracle_agreement", check_measures_xstate_oracle_agreement),
    ("measures_discord_range", check_measures_discord_range),
    ("measures_concurrence_lu_invariant", check_measures_concurrence_lu_invariant),
    ("measures_discord_error_bound", check_measures_discord_error_bound),
    ("measures_bound_saturation_families", check_measures_bound_saturation_families),
    ("measures_delta_min_relation", check_measures_delta_min_relation),
    ("measures_twirl_pair_monotonicity", check_measures_twirl_pair_monotonicity),
    ("cli_sweep_determinism", check_cli_sweep_determinism),
    ("cli_sweep_schema", check_cli_sweep_schema),
)


def run_all(config: CheckConfig) -> list[PropertyResult]:
    """Run every property with the given configuration, in fixed order.

    A property that raises is reported as a failure of that property; the
    rest of the suite still runs.
    """
    results = []
    for name, fn in ALL_CHECKS:
        try:
            results.append(_result(name, *fn(config)))
        except Exception as exc:  # failures are report content, not faults
            results.append(PropertyResult(name, 0, math.inf, "fail", f"error: {exc}"))
    return results
