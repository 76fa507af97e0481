"""Correlation measure tests.

The grid-search discord is itself the definition-based oracle for the
closed forms; the dephasing map is additionally cross-checked here
against an independently assembled projector construction.
"""

import math

import numpy as np
import pytest

from twirlkit import (
    BranchConditionError,
    ConditionsNotMetError,
    OutOfRangeError,
    XStateParams,
    bell,
    binary_entropy,
    concurrence,
    cq_state,
    delta_min_from_discord,
    depolarized_pure,
    discord_eigen,
    discord_error_rate_bound,
    discord_grid_oracle,
    discord_x_closed_form,
    entanglement_of_formation,
    haar_su2,
    k_values,
    measures,
    min_error_rate,
    pure_state,
    random_state,
    twirl_discord_comparison,
    validate_density,
    werner,
    x_state,
)

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def oracle_dephase(rho, n):
    """Independent projector construction of the dephased state."""
    sig = n[0] * _SX + n[1] * _SY + n[2] * _SZ
    p = 0.5 * (np.eye(2) + sig)
    q = np.eye(2) - p
    pa, qa = np.kron(p, np.eye(2)), np.kron(q, np.eye(2))
    return pa @ rho @ pa + qa @ rho @ qa


def unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestCqState:
    def test_matches_projector_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(15):
            s = random_state(seed)
            n = unit(rng)
            np.testing.assert_allclose(cq_state(s, n).rho, oracle_dephase(s.rho, n), atol=1e-14)

    def test_z_dephasing_keeps_third_row_only(self):
        for seed in range(15):
            s = random_state(seed)
            chi = cq_state(s, (0.0, 0.0, 1.0))
            d, dc = s.decomp, chi.decomp
            np.testing.assert_allclose(dc.x, [0.0, 0.0, d.x[2]], atol=1e-12)
            np.testing.assert_allclose(dc.y, d.y, atol=1e-12)
            np.testing.assert_allclose(dc.T[2], d.T[2], atol=1e-12)
            np.testing.assert_allclose(dc.T[:2], 0.0, atol=1e-12)

    def test_z_dephasing_x_state_keeps_corner(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1, 0.15, 0.1)
        chi = cq_state(x_state(p), (0.0, 0.0, 1.0))
        T = chi.decomp.T
        np.testing.assert_allclose(T - np.diag([0.0, 0.0, T[2, 2]]), 0.0, atol=1e-12)

    def test_maximally_mixed_fixed(self):
        mixed = validate_density(np.eye(4) / 4)
        rng = np.random.default_rng(1)
        for _ in range(5):
            np.testing.assert_allclose(cq_state(mixed, unit(rng)).rho, mixed.rho, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            s = random_state(seed)
            n = unit(rng)
            once = cq_state(s, n)
            np.testing.assert_allclose(cq_state(once, n).rho, once.rho, atol=1e-14)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(OutOfRangeError):
            cq_state(werner(0.5), (0.0, 0.0, 2.0))


class TestDiscordGridOracle:
    def test_pure_state_value(self):
        res = discord_grid_oracle(pure_state(math.pi / 3))
        assert res.value == pytest.approx(0.125, abs=1e-6)
        np.testing.assert_allclose(res.argmin_direction, [0.0, 0.0, 1.0], atol=1e-4)
        assert res.method == "grid-oracle"

    def test_werner_value(self):
        res = discord_grid_oracle(werner(0.75))
        assert res.value == pytest.approx(2 / 9, abs=1e-6)
        # fully degenerate landscape: ties resolve to the z axis
        np.testing.assert_allclose(res.argmin_direction, [0.0, 0.0, 1.0], atol=1e-12)

    def test_product_states_have_zero_discord(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u, v = haar_su2(rng), haar_su2(rng)
            a = u @ np.diag([0.8, 0.2]) @ u.conj().T
            b = v @ np.diag([0.6, 0.4]) @ v.conj().T
            s = validate_density(np.kron(a, b))
            assert discord_grid_oracle(s).value <= 1e-8

    def test_value_equals_residual_at_argmin(self):
        for seed in range(5):
            s = random_state(seed)
            res = discord_grid_oracle(s)
            residual = np.sum(np.abs(s.rho - cq_state(s, res.argmin_direction).rho) ** 2)
            assert res.value == pytest.approx(float(residual), abs=1e-9)


    def test_repeated_start_searched_once(self, monkeypatch):
        # on the pure family the best grid point is the z pole, the first start
        calls = []
        search = measures._pattern_search
        monkeypatch.setattr(measures, "_pattern_search", lambda *a: calls.append(a[1:3]) or search(*a))
        result = discord_grid_oracle(pure_state(1.0))
        assert calls[:2] == [(0.0, 0.0), (math.pi / 2, 0.0)]
        assert len(calls) == 2
        assert result.value == pytest.approx(0.5 * math.cos(1.0) ** 2, abs=1e-12)


class TestDiscordEigen:
    def test_agrees_with_oracle_on_random_states(self):
        for seed in range(30):
            s = random_state(seed)
            assert abs(discord_eigen(s).value - discord_grid_oracle(s).value) <= 1e-9

    def test_range_on_random_states(self):
        values = [discord_eigen(random_state(seed)).value for seed in range(300)]
        assert min(values) >= 0.0
        assert max(values) <= 0.5

    def test_bell_state_maximal(self):
        assert discord_eigen(bell("phi+")).value == pytest.approx(0.5, abs=1e-12)


class TestKValues:
    @pytest.mark.parametrize("f", [0.3, 0.6, 0.9])
    def test_werner_equal_pair(self, f):
        p = XStateParams(
            rho11=(2 * f + 1) / 6, rho22=(1 - f) / 3, rho33=(1 - f) / 3,
            rho44=(2 * f + 1) / 6, rho14=abs(4 * f - 1) / 6, rho23=0.0,
        )
        k = k_values(p)
        assert k.k1 == pytest.approx((4 * f - 1) ** 2 / 9, abs=1e-12)
        assert k.k3 == pytest.approx((4 * f - 1) ** 2 / 9, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.2, 0.9, 1.4])
    def test_pure_family_by_substitution(self, gamma):
        sg, cg = math.sin(gamma), math.cos(gamma)
        p = XStateParams(
            rho11=(1 + sg) / 2, rho22=0.0, rho33=0.0, rho44=(1 - sg) / 2,
            rho14=cg / 2, rho23=0.0,
        )
        # direct substitution into the two branch quantities
        k = k_values(p)
        assert k.k1 == pytest.approx(cg**2, abs=1e-12)
        assert k.k3 == pytest.approx(1 + sg**2, abs=1e-12)

    def test_diagonal_symmetric_zero(self):
        p = XStateParams(0.3, 0.2, 0.3, 0.2, 0.0, 0.0)
        k = k_values(p)
        assert k.k1 == 0.0
        assert k.k3 == 0.0


class TestDiscordXClosedForm:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, math.pi / 2])
    def test_pure_family(self, gamma):
        sg = math.sin(gamma)
        p = XStateParams((1 + sg) / 2, 0.0, 0.0, (1 - sg) / 2, math.cos(gamma) / 2, 0.0)
        res = discord_x_closed_form(p)
        assert res.value == pytest.approx(0.5 * math.cos(gamma) ** 2, abs=1e-12)
        assert res.method == "x-closed-form"

    @pytest.mark.parametrize("f", [0.25, 0.5, 0.75, 1.0])
    def test_werner_family(self, f):
        p = XStateParams(
            (2 * f + 1) / 6, (1 - f) / 3, (1 - f) / 3, (2 * f + 1) / 6, abs(4 * f - 1) / 6, 0.0
        )
        assert discord_x_closed_form(p).value == pytest.approx((4 * f - 1) ** 2 / 18, abs=1e-12)

    def test_classical_diagonal_state(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1, 0.0, 0.0)
        assert discord_x_closed_form(p).value == 0.0

    def test_branch_violation(self):
        # equal Bell mixture corner state: k1 = 1 > k3 = 0
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)
        with pytest.raises(BranchConditionError):
            discord_x_closed_form(p)

    def test_agrees_with_oracle_when_applicable(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 40:
            d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
            p = XStateParams(
                d[0], d[1], d[2], d[3],
                rng.uniform() * math.sqrt(d[0] * d[3]),
                rng.uniform() * math.sqrt(d[1] * d[2]),
                rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi),
            )
            k = k_values(p)
            if k.k1 > k.k3:
                continue
            checked += 1
            oracle = discord_grid_oracle(x_state(p))
            assert abs(discord_x_closed_form(p).value - oracle.value) <= 1e-6
            assert math.hypot(*oracle.argmin_direction[:2]) <= 1e-4


class TestDiscordErrorRateBound:
    @pytest.mark.parametrize("gamma", [0.0, 0.6, 1.2, math.pi / 2])
    def test_saturated_on_pure_family(self, gamma):
        lhs, rhs = discord_error_rate_bound(pure_state(gamma))
        assert lhs == pytest.approx(0.5 * math.cos(gamma) ** 2, abs=1e-6)
        assert abs(lhs - rhs) <= 1e-6

    @pytest.mark.parametrize("f", [0.25, 0.6, 1.0])
    def test_saturated_on_werner_family(self, f):
        lhs, rhs = discord_error_rate_bound(werner(f))
        assert lhs == pytest.approx((4 * f - 1) ** 2 / 18, abs=1e-6)
        assert abs(lhs - rhs) <= 1e-6

    def test_holds_on_random_states(self):
        for seed in range(500):
            lhs, rhs = discord_error_rate_bound(random_state(seed), method="eigen")
            assert lhs <= rhs + 1e-9

    def test_requires_aligned_frame(self):
        # A state whose first-qubit Bloch vector points along x while the
        # correlations live in the z row: the raw rows give a vanishing
        # error-rate side although the discord is 1/16, so the bound only
        # holds after rotating the local frame (which the function does).
        rho = 0.25 * (np.eye(4) + 0.5 * np.kron(_SX, np.eye(2)) + 0.5 * np.kron(_SZ, _SZ))
        s = validate_density(rho)
        mer = min_error_rate(s)
        raw_rhs = (0.5 - mer.delta_x_min) ** 2 + (0.5 - mer.delta_y_min) ** 2
        assert raw_rhs == pytest.approx(0.0, abs=1e-12)
        assert discord_eigen(s).value == pytest.approx(1 / 16, abs=1e-12)
        lhs, rhs = discord_error_rate_bound(s)
        assert lhs == pytest.approx(1 / 16, abs=1e-9)
        assert lhs <= rhs + 1e-9

    def test_methods_agree(self):
        s = random_state(77)
        lhs_grid, rhs_grid = discord_error_rate_bound(s, method="grid-oracle")
        lhs_eig, rhs_eig = discord_error_rate_bound(s, method="eigen")
        assert abs(lhs_grid - lhs_eig) <= 1e-9
        assert rhs_grid == rhs_eig

    def test_unknown_method(self):
        with pytest.raises(OutOfRangeError):
            discord_error_rate_bound(werner(0.5), method="fancy")


class TestDeltaMinFromDiscord:
    def test_pure_family_anchor(self):
        assert delta_min_from_discord(pure_state(math.pi / 3)) == pytest.approx(0.25, abs=1e-8)

    def test_werner_anchor(self):
        assert delta_min_from_discord(werner(0.75)) == pytest.approx(1 / 6, abs=1e-8)

    def test_equals_min_error_rate_on_families(self):
        targets = [pure_state(g) for g in np.linspace(0.0, math.pi / 2, 20)]
        targets += [werner(f) for f in np.linspace(0.0, 1.0, 10)]
        targets.append(validate_density(np.eye(4) / 4))
        for s in targets:
            assert delta_min_from_discord(s) == pytest.approx(
                min_error_rate(s).value, abs=1e-8
            )

    def test_condition_two_rejects_unequal_rows(self):
        # both corner magnitudes nonzero make the two row norms differ
        p = XStateParams(0.4, 0.35, 0.15, 0.1, 0.1, 0.05)
        with pytest.raises(ConditionsNotMetError) as err:
            delta_min_from_discord(x_state(p))
        assert err.value.condition == "II"

    def test_condition_one_rejects_off_axis_minimizer(self):
        p = XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ConditionsNotMetError) as err:
            delta_min_from_discord(x_state(p))
        assert err.value.condition == "I"

    def test_condition_one_rejects_tilted_frame(self):
        rho = 0.25 * (np.eye(4) + 0.5 * np.kron(_SX, np.eye(2)) + 0.5 * np.kron(_SZ, _SZ))
        with pytest.raises(ConditionsNotMetError) as err:
            delta_min_from_discord(validate_density(rho))
        assert err.value.condition == "I"


class TestConcurrence:
    def test_pure_family(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            assert concurrence(pure_state(g)) == pytest.approx(math.cos(g), abs=1e-10)

    def test_twirled_pure_family(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            assert concurrence(werner(math.cos(g / 2) ** 2)) == pytest.approx(
                math.cos(g), abs=1e-10
            )

    def test_product_state_zero(self):
        assert concurrence(pure_state(math.pi / 2)) == 0.0
        mixed = validate_density(np.eye(4) / 4)
        assert concurrence(mixed) == 0.0

    def test_separable_werner_zero(self):
        assert concurrence(werner(0.25)) == 0.0
        assert concurrence(werner(0.5)) == pytest.approx(0.0, abs=1e-8)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for seed in range(50):
            s = random_state(seed)
            w = np.kron(haar_su2(rng), haar_su2(rng))
            rotated = validate_density(w @ s.rho @ w.conj().T)
            assert abs(concurrence(rotated) - concurrence(s)) <= 1e-10


class TestEntanglementOfFormation:
    def test_bell_state(self):
        assert entanglement_of_formation(bell("phi+")) == pytest.approx(1.0, abs=1e-14)

    def test_product_state(self):
        assert entanglement_of_formation(pure_state(math.pi / 2)) == 0.0

    def test_equal_for_pure_and_twirled(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            e1 = entanglement_of_formation(pure_state(g))
            e2 = entanglement_of_formation(werner(math.cos(g / 2) ** 2))
            assert abs(e1 - e2) <= 1e-10

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        with pytest.raises(OutOfRangeError):
            binary_entropy(1.5)


class TestTwirlDiscordComparison:
    def test_values_at_pi_over_three(self):
        cmp = twirl_discord_comparison(pure_state(math.pi / 3))
        assert cmp.d_before == pytest.approx(0.125, abs=1e-6)
        assert cmp.d_after == pytest.approx(2 / 9, abs=1e-6)
        assert cmp.c_before == pytest.approx(0.5, abs=1e-10)
        assert cmp.c_after == pytest.approx(0.5, abs=1e-10)

    def test_product_endpoint(self):
        cmp = twirl_discord_comparison(pure_state(math.pi / 2))
        assert cmp.d_before == pytest.approx(0.0, abs=1e-8)
        assert cmp.d_after == pytest.approx(1 / 18, abs=1e-6)
        assert cmp.c_before == 0.0
        assert cmp.c_after == 0.0

    @pytest.mark.parametrize("gamma,p", [(0.4, 0.3), (1.0, 0.7), (math.pi / 4, 0.5)])
    def test_depolarized_formulas(self, gamma, p):
        cmp = twirl_discord_comparison(depolarized_pure(gamma, p))
        cg = math.cos(gamma)
        assert cmp.d_before == pytest.approx(p**2 * cg**2 / 2, abs=1e-6)
        assert cmp.d_after == pytest.approx(p**2 * (1 + 2 * cg) ** 2 / 18, abs=1e-6)
        assert cmp.d_after >= cmp.d_before - 1e-12
