"""Machine-checkable property suite behind the ``check`` subcommand.

Every property runs a seeded sweep and reports its worst margin, defined
as the largest observed deviation minus its fixed gate in ``TOLERANCES``,
so any positive margin is a failure. The seed and the sample counts are
the only inputs. The counts follow the documented defaults and can be
reduced for quick runs; the Monte Carlo agreement property reports
itself as skipped instead of failing when its sample budget is too small
to be meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import measures, protocol, states, twirl
from .qubit_algebra import (
    hermitian_eigenvalues,
    hs_norm_sq,
    pauli_compose,
    pauli_decompose,
    validate_density,
)

# The named gates. They are fixed: a report's worst_margin already says
# how close each property comes to its gate.
TOLERANCES = {
    "entrywise": 1e-12,
    "eigen_floor": 1e-10,
    "mc_trace_distance": 0.03,
    "sim_fail_fraction": 0.01,
    "eigen_grid_agreement": 1e-9,
    "oracle_agreement": 1e-9,
    "bound_slack": 1e-9,
    "concurrence_invariance": 1e-10,
    "relation_equality": 1e-8,
    "discord_increase": 1e-6,
}


# Fixed sizes: below MC_MIN_SAMPLES Monte Carlo samples the agreement
# property is skipped; the first BOUND_CROSS_CHECKS bound states are also
# run through the grid oracle; family grids have GRID_POINTS points.
MC_MIN_SAMPLES = 1_000
BOUND_CROSS_CHECKS = 100
GRID_POINTS = 50
# The acceptance grid: GRID_POINTS angles in (0, pi/2].
OPEN_GAMMA_GRID = np.linspace(0.0, math.pi / 2, GRID_POINTS + 1)[1:]


def _flag(default: int, minimum: int | None = 1, help: str | None = None):
    """A CheckConfig integer that the ``check`` flag of the same name sets;
    the flag rejects values below ``minimum`` (None: no lower bound)."""
    return field(default=default, metadata={"minimum": minimum, "help": help})


@dataclass
class CheckConfig:
    """The seed and sample counts; each field is a ``check`` flag."""

    seed: int = _flag(7, minimum=0)
    random_states: int = _flag(100)
    mc_states: int = _flag(100)
    mc_samples: int = _flag(100_000, minimum=None)  # below MC_MIN_SAMPLES: skipped
    runs: int = _flag(100, help="seeded simulator runs")
    rounds: int = _flag(100_000, help="rounds per simulator run")
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
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "samples": self.samples,
            "worst_margin": self.worst_margin,
            "status": self.status,
            "detail": self.detail,
        }


def _result(name: str, samples: int, margin: float, detail: str = "") -> PropertyResult:
    status = "pass" if margin <= 0.0 else "fail"
    return PropertyResult(name, samples, float(margin), status, detail)


def _rng(config: CheckConfig, lane: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([config.seed, lane]))


def _random_states(config: CheckConfig, lane: int, count: int):
    rng = _rng(config, lane)
    seeds = rng.integers(0, 2**63 - 1, count)
    return [states.random_state(int(s)) for s in seeds]


def _unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def sample_x_params(rng: np.random.Generator) -> states.XStateParams:
    """Random X-state parameters: uniform simplex diagonal, admissible
    off-diagonal magnitudes, uniform phases."""
    d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    r14 = rng.uniform(0.0, 1.0) * math.sqrt(d[0] * d[3])
    r23 = rng.uniform(0.0, 1.0) * math.sqrt(d[1] * d[2])
    g14, g13 = rng.uniform(0.0, 2 * math.pi, 2)
    return states.XStateParams(d[0], d[1], d[2], d[3], r14, r23, g14, g13)


def pure_x_params(gamma: float) -> states.XStateParams:
    """X-state parameters of the pure family at angle gamma."""
    sg = math.sin(gamma)
    return states.XStateParams(
        rho11=(1.0 + sg) / 2.0, rho22=0.0, rho33=0.0, rho44=(1.0 - sg) / 2.0,
        rho14=math.cos(gamma) / 2.0, rho23=0.0,
    )


def werner_x_params(f: float) -> states.XStateParams:
    """X-state parameters of the Werner state with fidelity f."""
    return states.XStateParams(
        rho11=(2.0 * f + 1.0) / 6.0, rho22=(1.0 - f) / 3.0, rho33=(1.0 - f) / 3.0,
        rho44=(2.0 * f + 1.0) / 6.0, rho14=abs(4.0 * f - 1.0) / 6.0, rho23=0.0,
    )


# ---------------------------------------------------------------------------
# operator algebra

def check_algebra_roundtrip(config: CheckConfig) -> PropertyResult:
    worst = 0.0
    pool = _random_states(config, 11, config.random_states)
    for s in pool:
        rebuilt = pauli_compose(pauli_decompose(s.rho))
        worst = max(worst, float(np.max(np.abs(rebuilt - s.rho))))
    return _result("algebra_pauli_roundtrip", len(pool), worst - TOLERANCES["entrywise"])


def check_algebra_purity_identity(config: CheckConfig) -> PropertyResult:
    worst = 0.0
    pool = _random_states(config, 12, config.random_states)
    for s in pool:
        d = s.decomp
        predicted = (1.0 + d.x @ d.x + d.y @ d.y + np.sum(d.T * d.T)) / 4.0
        worst = max(worst, abs(hs_norm_sq(s.rho) - predicted))
    return _result("algebra_purity_identity", len(pool), worst - TOLERANCES["entrywise"])


def check_algebra_eigenvalue_range(config: CheckConfig) -> PropertyResult:
    worst = -math.inf
    floor = TOLERANCES["eigen_floor"]
    pool = _random_states(config, 13, config.random_states)
    for s in pool:
        ev = hermitian_eigenvalues(s.rho)
        worst = max(
            worst,
            float(-ev[-1]) - floor,
            float(ev[0]) - 1.0 - floor,
            abs(float(np.sum(ev)) - 1.0) - floor,
        )
    return _result("algebra_eigenvalue_range", len(pool), worst)


# ---------------------------------------------------------------------------
# state constructors

def _validity_margin(s) -> float:
    herm = float(np.max(np.abs(s.rho - s.rho.conj().T)))
    tr = abs(complex(np.trace(s.rho)) - 1.0)
    lo = float(np.linalg.eigvalsh(s.rho)[0])
    return max(herm - 1e-12, tr - 1e-12, -lo - 1e-10)


def check_states_constructors_valid(config: CheckConfig) -> PropertyResult:
    rng = _rng(config, 14)
    constructed = [states.bell(k) for k in states.BELL_KINDS]
    gammas = np.linspace(0.0, math.pi / 2, 21)
    constructed += [states.pure_state(g) for g in gammas]
    constructed += [states.werner(f) for f in np.linspace(0.0, 1.0, 21)]
    constructed += [states.depolarized_pure(g, p) for g in gammas[::5] for p in (0.0, 0.3, 1.0)]
    constructed += [states.x_state(sample_x_params(rng)) for _ in range(20)]
    worst = max(_validity_margin(s) for s in constructed)
    return _result("states_constructors_valid", len(constructed), worst)


def check_states_pure_fidelity(config: CheckConfig) -> PropertyResult:
    worst = 0.0
    gammas = np.linspace(0.0, math.pi / 2, GRID_POINTS)
    for g in gammas:
        worst = max(worst, abs(states.fidelity_phi_plus(states.pure_state(g)) - math.cos(g / 2) ** 2))
    return _result("states_pure_fidelity_grid", len(gammas), worst - TOLERANCES["entrywise"])


def check_states_cross_constructor(config: CheckConfig) -> PropertyResult:
    worst = 0.0
    count = 0
    for f in np.linspace(0.25, 1.0, 16):
        a = states.werner(f).rho
        b = states.x_state(werner_x_params(f)).rho
        worst = max(worst, float(np.max(np.abs(a - b))))
        count += 1
    for g in np.linspace(0.0, math.pi / 2, 16):
        a = states.pure_state(g).rho
        b = states.x_state(pure_x_params(g)).rho
        worst = max(worst, float(np.max(np.abs(a - b))))
        count += 1
    return _result("states_cross_constructor", count, worst - TOLERANCES["entrywise"])


# ---------------------------------------------------------------------------
# twirling channel

def check_twirl_idempotent(config: CheckConfig) -> PropertyResult:
    worst = 0.0
    pool = _random_states(config, 15, config.random_states)
    for s in pool:
        once = twirl.twirl_analytic(s)
        twice = twirl.twirl_analytic(once)
        worst = max(worst, float(np.max(np.abs(twice.rho - once.rho))))
    return _result("twirl_idempotent", len(pool), worst - TOLERANCES["entrywise"])


def check_twirl_fidelity_preserved(config: CheckConfig) -> PropertyResult:
    worst = 0.0
    pool = _random_states(config, 16, config.random_states)
    for s in pool:
        worst = max(
            worst,
            abs(states.fidelity_phi_plus(twirl.twirl_analytic(s)) - states.fidelity_phi_plus(s)),
        )
    return _result("twirl_fidelity_preserved", len(pool), worst - TOLERANCES["entrywise"])


def check_twirl_linear(config: CheckConfig) -> PropertyResult:
    rng = _rng(config, 17)
    pool = _random_states(config, 18, 2 * config.random_states)
    worst = 0.0
    n_pairs = config.random_states
    for i in range(n_pairs):
        s1, s2 = pool[2 * i], pool[2 * i + 1]
        p = float(rng.uniform())
        mixed = validate_density(p * s1.rho + (1.0 - p) * s2.rho)
        lhs = twirl.twirl_analytic(mixed).rho
        rhs = p * twirl.twirl_analytic(s1).rho + (1.0 - p) * twirl.twirl_analytic(s2).rho
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return _result("twirl_linear", n_pairs, worst - TOLERANCES["entrywise"])


def check_twirl_mc_agreement(config: CheckConfig) -> PropertyResult:
    name = "twirl_mc_agreement"
    if config.mc_samples < MC_MIN_SAMPLES:
        return PropertyResult(
            name, 0, 0.0, "skipped",
            f"below-threshold: {config.mc_samples} Monte Carlo samples < {MC_MIN_SAMPLES}",
        )
    rng = _rng(config, 19)
    pool = _random_states(config, 20, config.mc_states)
    worst = 0.0
    for s in pool:
        report = twirl.twirl_monte_carlo(s, config.mc_samples, int(rng.integers(0, 2**62)))
        worst = max(worst, report.trace_distance_to_analytic)
    return _result(name, len(pool), worst - TOLERANCES["mc_trace_distance"])


# ---------------------------------------------------------------------------
# protocol statistics

def check_protocol_outcome_closure(config: CheckConfig) -> PropertyResult:
    rng = _rng(config, 21)
    pool = _random_states(config, 22, config.random_states)
    worst = 0.0
    for s in pool:
        w = protocol.outcome_probs(s, _unit(rng), _unit(rng)).as_array()
        worst = max(worst, abs(float(np.sum(w)) - 1.0), float(np.max(-w)), float(np.max(w - 1.0)))
    return _result("protocol_outcome_closure", len(pool), worst - TOLERANCES["entrywise"])


def check_protocol_correlation_identity(config: CheckConfig) -> PropertyResult:
    rng = _rng(config, 23)
    pool = _random_states(config, 24, config.random_states)
    worst = 0.0
    for s in pool:
        a, b = _unit(rng), _unit(rng)
        w = protocol.outcome_probs(s, a, b)
        worst = max(worst, abs(w.correlation() - protocol.correlation(s, a, b)))
    return _result("protocol_correlation_identity", len(pool), worst - TOLERANCES["entrywise"])


def check_protocol_partner_optimality(config: CheckConfig) -> PropertyResult:
    rng = _rng(config, 25)
    pool = _random_states(config, 26, config.random_states)
    worst = -math.inf
    count = 0
    for s in pool:
        T = s.T
        for _ in range(20):
            a = _unit(rng)
            best = protocol.optimal_partner(s, a)
            brute = np.array([a @ T @ _unit(rng) for _ in range(100)])
            worst = max(worst, float(np.max(brute)) - best.value)
            count += 1
    return _result("protocol_partner_optimality", count, worst - TOLERANCES["entrywise"])


def check_protocol_optimal_value_row_norm(config: CheckConfig) -> PropertyResult:
    pool = _random_states(config, 27, config.random_states)
    worst = 0.0
    for s in pool:
        worst = max(
            worst,
            abs(protocol.optimal_partner(s, protocol.SETTING_X).value - float(np.linalg.norm(s.T[0]))),
            abs(protocol.optimal_partner(s, protocol.SETTING_Y).value - float(np.linalg.norm(s.T[1]))),
        )
    return _result("protocol_optimal_value_row_norm", len(pool), worst - TOLERANCES["entrywise"])


def check_protocol_simulator_convergence(config: CheckConfig) -> PropertyResult:
    state = states.pure_state(math.pi / 3)
    mer = protocol.min_error_rate(state)
    delta = mer.value
    rng = _rng(config, 28)
    failures = 0
    for _ in range(config.runs):
        run = protocol.simulate_protocol(
            state, config.rounds, int(rng.integers(0, 2**62)), mer.b, mer.b_prime
        )
        gate = protocol.binomial_gate(delta, run.m_sifted)
        if abs(run.empirical_delta - delta) > gate:
            failures += 1
    frac = failures / config.runs
    return _result(
        "protocol_simulator_convergence", config.runs, frac - TOLERANCES["sim_fail_fraction"],
        f"{failures} of {config.runs} runs outside the 4-sigma band",
    )


# ---------------------------------------------------------------------------
# correlation measures

def check_measures_eigen_grid_agreement(config: CheckConfig) -> PropertyResult:
    pool = _random_states(config, 29, config.random_states)
    worst = 0.0
    for s in pool:
        worst = max(worst, abs(measures.discord_eigen(s).value - measures.discord_grid_oracle(s).value))
    return _result("measures_eigen_grid_agreement", len(pool), worst - TOLERANCES["eigen_grid_agreement"])


def check_measures_xstate_oracle_agreement(config: CheckConfig) -> PropertyResult:
    rng = _rng(config, 30)
    accepted = 0
    rejected_checked = 0
    rejected_cap = max(1, config.x_states // 3)
    attempts = 0
    worst_value = 0.0
    branch_mismatches = 0
    while accepted < config.x_states and attempts < 100 * config.x_states:
        attempts += 1
        p = sample_x_params(rng)
        k = measures.k_values(p)
        if abs(k.k1 - k.k3) <= 1e-9:
            continue  # skip boundary ties where the branch is genuinely ambiguous
        if k.k1 <= k.k3:
            accepted += 1
            oracle = measures.discord_grid_oracle(states.x_state(p))
            worst_value = max(worst_value, abs(measures.discord_x_closed_form(p).value - oracle.value))
            if math.hypot(oracle.argmin_direction[0], oracle.argmin_direction[1]) > 1e-4:
                branch_mismatches += 1
        elif rejected_checked < rejected_cap:
            # Reverse direction: outside the branch the oracle must leave the z axis.
            rejected_checked += 1
            oracle = measures.discord_grid_oracle(states.x_state(p))
            on_axis = math.hypot(oracle.argmin_direction[0], oracle.argmin_direction[1]) <= 1e-4
            if on_axis and oracle.value > 1e-9:
                branch_mismatches += 1
    # any mismatch fails; with none, the margin is the value gap's distance to its gate
    margin = float(branch_mismatches) if branch_mismatches else worst_value - TOLERANCES["oracle_agreement"]
    return _result(
        "measures_xstate_oracle_agreement", accepted + rejected_checked, margin,
        f"{branch_mismatches} branch decisions disagree with the oracle argmin; "
        f"worst value gap {worst_value:.3e}",
    )


def check_measures_discord_range(config: CheckConfig) -> PropertyResult:
    pool = _random_states(config, 31, config.range_states)
    worst = -math.inf
    for s in pool:
        d = measures.discord_eigen(s).value
        worst = max(worst, -d - 1e-12, d - 0.5 - 1e-12)
    # zero iff a dephasing fixes the state: product states reach zero,
    # and the reported value equals the residual at the reported argmin.
    rng = _rng(config, 32)
    for _ in range(10):
        u = twirl.haar_su2(rng)
        v = twirl.haar_su2(rng)
        local = validate_density(
            np.kron(u @ np.diag([1.0, 0.0]) @ u.conj().T, v @ np.diag([0.7, 0.3]) @ v.conj().T)
        )
        res = measures.discord_grid_oracle(local)
        residual = hs_norm_sq(measures.cq_state(local, res.argmin_direction).rho - local.rho)
        worst = max(worst, res.value - 1e-8, residual - 1e-8)
    for s in pool[:50]:
        res = measures.discord_eigen(s)
        residual = hs_norm_sq(measures.cq_state(s, res.argmin_direction).rho - s.rho)
        worst = max(worst, abs(residual - res.value) - 1e-9)
    return _result("measures_discord_range", len(pool) + 60, worst)


def check_measures_concurrence_lu_invariant(config: CheckConfig) -> PropertyResult:
    rng = _rng(config, 33)
    pool = _random_states(config, 34, config.random_states)
    worst = 0.0
    for s in pool:
        w = np.kron(twirl.haar_su2(rng), twirl.haar_su2(rng))
        rotated = validate_density(w @ s.rho @ w.conj().T)
        worst = max(worst, abs(measures.concurrence(rotated) - measures.concurrence(s)))
    return _result("measures_concurrence_lu_invariant", len(pool), worst - TOLERANCES["concurrence_invariance"])


def check_measures_discord_error_bound(config: CheckConfig) -> PropertyResult:
    worst = -math.inf
    for i in range(config.bound_states):
        s = states.random_state(i)
        lhs, rhs = measures.discord_error_rate_bound(s, method="eigen")
        worst = max(worst, lhs - rhs)
        if i < BOUND_CROSS_CHECKS:
            lhs_grid, rhs_grid = measures.discord_error_rate_bound(s, method="grid-oracle")
            worst = max(worst, lhs_grid - rhs_grid, abs(lhs_grid - lhs))
    return _result("measures_discord_error_bound", config.bound_states, worst - TOLERANCES["bound_slack"])


def check_measures_bound_saturation_families(config: CheckConfig) -> PropertyResult:
    """The bound is tight on the pure and Werner families; the closed-form
    route must match the error-rate side exactly."""
    worst = 0.0
    count = 0
    for g in np.linspace(0.0, math.pi / 2, GRID_POINTS):
        lhs = measures.discord_x_closed_form(pure_x_params(g)).value
        _, rhs = measures.discord_error_rate_bound(states.pure_state(g), method="eigen")
        worst = max(worst, abs(lhs - rhs))
        count += 1
    for f in np.linspace(0.25, 1.0, 16):
        lhs = measures.discord_x_closed_form(werner_x_params(f)).value
        _, rhs = measures.discord_error_rate_bound(states.werner(f), method="eigen")
        worst = max(worst, abs(lhs - rhs))
        count += 1
    return _result("measures_bound_saturation_families", count, worst - TOLERANCES["bound_slack"])


def check_measures_delta_min_relation(config: CheckConfig) -> PropertyResult:
    worst = 0.0
    targets = [states.pure_state(g) for g in np.linspace(0.0, math.pi / 2, GRID_POINTS)]
    targets += [states.werner(f) for f in np.linspace(0.0, 1.0, 16)]
    targets.append(states.depolarized_pure(0.0, 0.0))
    for s in targets:
        worst = max(
            worst,
            abs(measures.delta_min_from_discord(s) - protocol.min_error_rate(s).value),
        )
    return _result("measures_delta_min_relation", len(targets), worst - TOLERANCES["relation_equality"])


def check_measures_twirl_pair_monotonicity(config: CheckConfig) -> PropertyResult:
    """Twirling the pure family turns its minimal error rate sin^2(g/2)
    into the Werner value (2/3) sin^2(g/2), keeps the concurrence cos g and
    the entanglement of formation, and raises the oracle discord from
    cos^2 g / 2 to ((2 cos g + 1) / 3)^2 / 2."""
    worst_ratio = worst_rate = worst_c = worst_e = worst_d = 0.0
    min_gap = math.inf
    for g in OPEN_GAMMA_GRID:
        pure = states.pure_state(g)
        d_pure = protocol.min_error_rate(pure).value
        d_twirled = protocol.min_error_rate(twirl.twirl_analytic(pure)).value
        d_werner = protocol.min_error_rate(states.werner(math.cos(g / 2) ** 2)).value
        s2 = math.sin(g / 2) ** 2
        worst_ratio = max(worst_ratio, abs(d_twirled / d_pure - 2 / 3))
        worst_rate = max(worst_rate, abs(d_pure - s2), abs(d_werner - (2 / 3) * s2))
        cmp = measures.twirl_discord_comparison(pure)
        c = math.cos(g)
        worst_c = max(worst_c, abs(cmp.c_before - cmp.c_after), abs(cmp.c_before - c), abs(cmp.c_after - c))
        worst_e = max(
            worst_e,
            abs(measures.eof_from_concurrence(cmp.c_before) - measures.eof_from_concurrence(cmp.c_after)),
        )
        worst_d = max(worst_d, abs(cmp.d_before - 0.5 * c**2), abs(cmp.d_after - 0.5 * ((2 * c + 1) / 3) ** 2))
        min_gap = min(min_gap, cmp.d_after - cmp.d_before)
    margin = max(
        max(worst_ratio, worst_rate) - TOLERANCES["entrywise"],
        max(worst_c, worst_e) - TOLERANCES["concurrence_invariance"],
        worst_d - TOLERANCES["oracle_agreement"],
        TOLERANCES["discord_increase"] - min_gap,
    )
    return _result(
        "measures_twirl_pair_monotonicity", len(OPEN_GAMMA_GRID), margin,
        f"worst |ratio - 2/3| {worst_ratio:.3e}, worst error-rate closed-form deviation {worst_rate:.3e}, "
        f"worst concurrence deviation {worst_c:.3e}, worst EoF change {worst_e:.3e}, "
        f"worst discord closed-form deviation {worst_d:.3e}, smallest discord increase {min_gap:.3e}",
    )


# ---------------------------------------------------------------------------
# command line front end

_SWEEP_HEADER = [
    "param", "delta_pure", "delta_twirled", "ratio", "ratio_defined",
    "dg_pure", "dg_twirled", "concurrence_pure", "concurrence_twirled",
    "eof_pure", "eof_twirled",
]


def check_cli_sweep_determinism(config: CheckConfig) -> PropertyResult:
    from .cli import SweepSpec, render_sweep_csv, run_sweep

    spec = SweepSpec(family="pure", grid=list(np.linspace(0.0, math.pi / 2, 9)))
    first = render_sweep_csv(run_sweep(spec), spec)
    second = render_sweep_csv(run_sweep(spec), spec)
    margin = 0.0 if first == second else 1.0
    return _result("cli_sweep_determinism", 2, margin, "byte comparison of repeated sweeps")


def check_cli_sweep_schema(config: CheckConfig) -> PropertyResult:
    from .cli import SweepSpec, render_sweep_csv, run_sweep

    spec = SweepSpec(family="pure", grid=[0.1, 0.2])
    text = render_sweep_csv(run_sweep(spec), spec)
    header = text.splitlines()[0].split(",")
    margin = 0.0 if header == _SWEEP_HEADER else 1.0
    return _result("cli_sweep_schema", 1, margin, f"header: {header}")


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
            results.append(fn(config))
        except Exception as exc:  # failures are report content, not faults
            results.append(PropertyResult(name, 0, math.inf, "fail", f"error: {exc}"))
    return results
