"""Acceptance suite.

Each test checks one headline claim end to end at its stated tolerance
and prints a single pass/fail line (run with ``pytest -s`` to see them
for passing tests). A claim that a ``check`` property states is read from
the one default-count ``check`` run the session shares (the
``default_check`` fixture): its line gives that property's status, worst
margin and detail, so the claim is computed in one place, ``checks.py``.
The other claims are computed here. Expected values come from
independent routes: the grid-search discord is definition-based, Monte
Carlo thresholds were calibrated over seed ensembles before being frozen,
and simulator gates are binomial four-sigma bands.
"""

import math
import time

import numpy as np

from twirlkit import (
    depolarized_pure,
    discord_grid_oracle,
    min_error_rate,
    pure_state,
    random_key_bias,
    simulate_protocol,
    twirl_analytic,
    twirl_monte_carlo,
    validate_density,
    werner,
)


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


def report_property(default_check, name, prop):
    """Report the claim ``name`` as the default ``check`` run's property ``prop`` found it."""
    p = default_check.properties[prop]
    detail = f"{prop} {p['status']}, worst margin {p['worst_margin']:.3e} over {p['samples']} samples"
    report(name, p["status"] == "pass", f"{detail}; {p['detail']}" if p["detail"] else detail)


def test_error_rate_ratio_is_two_thirds(default_check):
    report_property(
        default_check, "twirl reduces the minimal error rate by exactly 2/3", "measures_twirl_pair_monotonicity"
    )


def test_error_rate_anchors(default_check):
    report_property(
        default_check,
        "closed-form minimal error rates for the pure and twirled families",
        "measures_twirl_pair_monotonicity",
    )


def test_discord_values_on_both_families(default_check):
    report_property(
        default_check, "grid-search discord matches the family closed forms", "measures_twirl_pair_monotonicity"
    )


def test_twirl_preserves_entanglement_and_raises_discord(default_check):
    report_property(
        default_check,
        "twirl keeps concurrence and entanglement of formation, raises discord",
        "measures_twirl_pair_monotonicity",
    )


def test_discord_error_rate_bound_on_random_states(default_check):
    report_property(
        default_check,
        "discord bounded by the two optimal error-rate terms on 10^4 random states",
        "measures_discord_error_bound",
    )


def test_monte_carlo_twirl_convergence():
    t0 = time.perf_counter()
    state = pure_state(math.pi / 3)
    distances = np.array(
        [twirl_monte_carlo(state, 100_000, seed).trace_distance_to_analytic for seed in range(100)]
    )
    within = int(np.sum(distances <= 0.02))
    med_small = float(np.median(
        [twirl_monte_carlo(state, 100_000, 1000 + s).trace_distance_to_analytic for s in range(10)]
    ))
    med_large = float(np.median(
        [twirl_monte_carlo(state, 400_000, 2000 + s).trace_distance_to_analytic for s in range(10)]
    ))
    factor = med_large / med_small
    elapsed = time.perf_counter() - t0
    report(
        "Monte Carlo twirl converges at the inverse square-root rate",
        within >= 95 and 0.4 <= factor <= 0.6,
        f"{within}/100 seeds within 0.02 (max {distances.max():.4f}); "
        f"4x samples scale the median by {factor:.3f} ({elapsed:.1f}s)",
    )


def test_protocol_simulator_tracks_analytic_error_rates():
    t0 = time.perf_counter()
    mixed = validate_density(np.eye(4) / 4)
    cases = [
        ("pure family at pi/3", pure_state(math.pi / 3), 0.25),
        ("twirled pure family", werner(0.75), 1 / 6),
        ("maximally mixed", mixed, 0.5),
    ]
    details = []
    ok = True
    for label, state, delta in cases:
        mer = min_error_rate(state)
        run = simulate_protocol(state, 1_000_000, 97, mer.b, mer.b_prime)
        m = run.m_sifted
        gate = 4 * math.sqrt(delta * (1 - delta) / m)
        bias_gate = 4 * math.sqrt(1 / (4 * m))
        bias = random_key_bias(run)
        good = abs(run.empirical_delta - delta) <= gate and bias <= bias_gate
        ok = ok and good
        details.append(f"{label}: |dev| = {abs(run.empirical_delta - delta):.2e} <= {gate:.2e}, bias {bias:.2e}")
    elapsed = time.perf_counter() - t0
    report(
        "simulator matches analytic error rates within binomial four-sigma bands",
        ok,
        "; ".join(details) + f" ({elapsed:.1f}s)",
    )


def test_x_state_closed_form_agrees_with_oracle(default_check):
    report_property(
        default_check,
        "X-state closed form and branch condition agree with the grid search",
        "measures_xstate_oracle_agreement",
    )


def test_depolarized_family_discord_never_drops_under_twirl():
    t0 = time.perf_counter()
    worst_before = 0.0
    worst_after = 0.0
    min_gap = math.inf
    for g in np.linspace(0.0, math.pi / 2, 10):
        for p in np.linspace(0.0, 1.0, 10):
            state = depolarized_pure(g, p)
            d_before = discord_grid_oracle(state).value
            d_after = discord_grid_oracle(twirl_analytic(state)).value
            worst_before = max(worst_before, abs(d_before - p**2 * math.cos(g) ** 2 / 2))
            worst_after = max(worst_after, abs(d_after - p**2 * (1 + 2 * math.cos(g)) ** 2 / 18))
            min_gap = min(min_gap, d_after - d_before)
    elapsed = time.perf_counter() - t0
    report(
        "depolarized family: discord non-decreasing under twirl, closed forms match",
        worst_before <= 1e-6 and worst_after <= 1e-6 and min_gap >= -1e-12,
        f"worst before/after deviations = {worst_before:.3e}/{worst_after:.3e}, "
        f"smallest increase = {min_gap:.3e} ({elapsed:.1f}s)",
    )


def test_eigen_fast_path_agrees_with_oracle(default_check):
    # supporting consistency check used by the bound sweep above
    report_property(
        default_check, "eigenvalue fast path agrees with the grid search", "measures_eigen_grid_agreement"
    )
