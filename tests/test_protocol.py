"""Protocol statistics and simulator tests.

The joint-outcome oracle builds Born-rule projectors (I +- n.sigma)/2
directly and traces against the density matrix, independent of the
library's Bloch-form expression.
"""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twirlkit import (
    EmptySiftedSetError,
    MeasurementSetting,
    OutOfRangeError,
    SETTING_X,
    SETTING_Y,
    bell,
    correlation,
    error_rate,
    min_error_rate,
    optimal_partner,
    outcome_probs,
    pure_state,
    random_key_bias,
    random_state,
    simulate_protocol,
    validate_density,
    werner,
)
from twirlkit.protocol import ALICE_LABELS, BOB_LABELS, _LEDGER_CHUNK

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def born_probs(rho, a, b):
    """Oracle: w(s, s') = Tr[rho (P_s(a) x P_s'(b))] with explicit projectors."""
    def proj(n, sign):
        return 0.5 * (np.eye(2) + sign * (n[0] * _SX + n[1] * _SY + n[2] * _SZ))

    return {
        (s, sp): np.trace(rho @ np.kron(proj(a, s), proj(b, sp))).real
        for s in (1, -1)
        for sp in (1, -1)
    }


def unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestOutcomeProbs:
    def test_against_born_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            s = random_state(seed)
            a, b = unit(rng), unit(rng)
            w = outcome_probs(s, a, b)
            oracle = born_probs(s.rho, a, b)
            assert w.w_pp == pytest.approx(oracle[(1, 1)], abs=1e-12)
            assert w.w_pm == pytest.approx(oracle[(1, -1)], abs=1e-12)
            assert w.w_mp == pytest.approx(oracle[(-1, 1)], abs=1e-12)
            assert w.w_mm == pytest.approx(oracle[(-1, -1)], abs=1e-12)

    def test_maximally_mixed_quarters(self):
        mixed = validate_density(np.eye(4) / 4)
        rng = np.random.default_rng(1)
        w = outcome_probs(mixed, unit(rng), unit(rng))
        np.testing.assert_allclose(w.as_array(), 0.25, atol=1e-15)

    def test_bell_perfectly_correlated(self):
        w = outcome_probs(bell("phi+"), SETTING_X, SETTING_X)
        assert w.w_pp == pytest.approx(0.5, abs=1e-14)
        assert w.w_mm == pytest.approx(0.5, abs=1e-14)
        assert w.w_pm == pytest.approx(0.0, abs=1e-14)
        assert w.w_mp == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.2, math.pi / 4, 1.3])
    def test_pure_family_mismatch_split(self, gamma):
        # The mismatch (1 - cos g)/2 splits evenly between the two cross outcomes.
        s = pure_state(gamma)
        w = outcome_probs(s, SETTING_X, (1.0, 0.0, 0.0))
        expected = (1 - math.cos(gamma)) / 4
        assert w.w_pm == pytest.approx(expected, abs=1e-12)
        assert w.w_mp == pytest.approx(expected, abs=1e-12)
        oracle = born_probs(s.rho, (1, 0, 0), (1, 0, 0))
        assert w.w_pm == pytest.approx(oracle[(1, -1)], abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dir_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_outcome_closure_and_correlation_identity(seed, dir_seed):
    s = random_state(seed)
    rng = np.random.default_rng(dir_seed)
    a, b = unit(rng), unit(rng)
    w = outcome_probs(s, a, b)
    arr = w.as_array()
    assert abs(float(arr.sum()) - 1.0) <= 1e-12
    assert np.all(arr >= 0.0) and np.all(arr <= 1.0)
    assert w.correlation() == pytest.approx(correlation(s, a, b), abs=1e-12)


class TestCorrelation:
    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            s = random_state(seed)
            a, b = unit(rng), unit(rng)
            sa = a[0] * _SX + a[1] * _SY + a[2] * _SZ
            sb = b[0] * _SX + b[1] * _SY + b[2] * _SZ
            oracle = np.trace(s.rho @ np.kron(sa, sb)).real
            assert correlation(s, a, b) == pytest.approx(oracle, abs=1e-12)

    def test_bell_along_x(self):
        assert correlation(bell("phi+"), SETTING_X, SETTING_X) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 0.7, math.pi / 2])
    def test_pure_family_along_x(self, gamma):
        c = correlation(pure_state(gamma), SETTING_X, (1.0, 0.0, 0.0))
        assert c == pytest.approx(math.cos(gamma), abs=1e-14)

    @pytest.mark.parametrize("f", [0.25, 0.5, 1.0])
    def test_werner_along_x(self, f):
        c = correlation(werner(f), SETTING_X, SETTING_X)
        assert c == pytest.approx((4 * f - 1) / 3, abs=1e-14)


class TestOptimalPartner:
    @pytest.mark.parametrize("gamma", [0.1, 0.8, 1.4])
    def test_pure_family_settings(self, gamma):
        s = pure_state(gamma)
        px = optimal_partner(s, SETTING_X)
        np.testing.assert_allclose(px.setting.n, [1.0, 0.0, 0.0], atol=1e-12)
        assert px.value == pytest.approx(math.cos(gamma), abs=1e-12)
        py = optimal_partner(s, SETTING_Y)
        np.testing.assert_allclose(py.setting.n, [0.0, -1.0, 0.0], atol=1e-12)
        assert py.value == pytest.approx(math.cos(gamma), abs=1e-12)

    def test_degenerate_row(self):
        product = pure_state(math.pi / 2)  # |uu><uu| has vanishing x and y rows
        p = optimal_partner(product, SETTING_X)
        assert p.degenerate
        assert p.value == 0.0

    def test_brute_force_maximality(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            s = random_state(seed)
            for _ in range(5):
                a = unit(rng)
                best = optimal_partner(s, a)
                for _ in range(200):
                    assert correlation(s, a, unit(rng)) <= best.value + 1e-12

    def test_value_equals_row_norm(self):
        for seed in range(50):
            s = random_state(seed)
            assert optimal_partner(s, SETTING_X).value == pytest.approx(
                float(np.linalg.norm(s.T[0])), abs=1e-12
            )
            assert optimal_partner(s, SETTING_Y).value == pytest.approx(
                float(np.linalg.norm(s.T[1])), abs=1e-12
            )


class TestErrorRate:
    def test_bell_zero(self):
        assert error_rate(bell("phi+"), (1.0, 0.0, 0.0), (0.0, -1.0, 0.0)) == 0.0

    def test_pure_family_minimum(self):
        for g in np.linspace(0.0, math.pi / 2, 25):
            s = pure_state(g)
            mer = min_error_rate(s)
            assert mer.value == pytest.approx(math.sin(g / 2) ** 2, abs=1e-12)
            assert error_rate(s, mer.b, mer.b_prime) == pytest.approx(mer.value, abs=1e-12)

    def test_twirled_pure_family_minimum(self):
        for g in np.linspace(0.0, math.pi / 2, 25):
            w = werner(math.cos(g / 2) ** 2)
            assert min_error_rate(w).value == pytest.approx(
                (2 / 3) * math.sin(g / 2) ** 2, abs=1e-12
            )

    def test_anchor_values(self):
        assert min_error_rate(pure_state(math.pi / 3)).value == pytest.approx(0.25, abs=1e-12)
        assert min_error_rate(werner(0.75)).value == pytest.approx(1 / 6, abs=1e-12)
        mixed = validate_density(np.eye(4) / 4)
        assert min_error_rate(mixed).value == pytest.approx(0.5, abs=1e-15)

    def test_min_exposes_per_basis_rates(self):
        mer = min_error_rate(pure_state(0.9))
        assert mer.delta_x_min == pytest.approx((1 - math.cos(0.9)) / 2, abs=1e-12)
        assert mer.delta_y_min == pytest.approx((1 - math.cos(0.9)) / 2, abs=1e-12)


class TestSimulateProtocol:
    def test_bell_has_no_errors(self):
        run = simulate_protocol(bell("phi+"), 2_000, 0, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        assert run.empirical_delta == 0.0
        assert run.alice_key() == run.bob_key()
        assert set(run.alice_key()) <= {"+", "-"}

    @pytest.mark.parametrize(
        "state,delta",
        [
            (pure_state(math.pi / 3), 0.25),
            (werner(0.75), 1 / 6),
        ],
    )
    def test_binomial_convergence(self, state, delta):
        mer = min_error_rate(state)
        run = simulate_protocol(state, 100_000, 7, mer.b, mer.b_prime)
        m = run.m_sifted
        gate = 4 * math.sqrt(delta * (1 - delta) / m)
        assert abs(run.empirical_delta - delta) <= gate

    def test_uncorrelated_state(self):
        mixed = validate_density(np.eye(4) / 4)
        run = simulate_protocol(mixed, 100_000, 9, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        gate = 4 * math.sqrt(0.25 / run.m_sifted)
        assert abs(run.empirical_delta - 0.5) <= gate

    def test_deterministic(self):
        s = pure_state(0.8)
        mer = min_error_rate(s)
        a = simulate_protocol(s, 5_000, 3, mer.b, mer.b_prime)
        b = simulate_protocol(s, 5_000, 3, mer.b, mer.b_prime)
        np.testing.assert_array_equal(a.alice_bits, b.alice_bits)
        np.testing.assert_array_equal(a.bob_bits, b.bob_bits)
        np.testing.assert_array_equal(a.sifted_indices, b.sifted_indices)
        assert a.empirical_delta == b.empirical_delta

    def test_sifting_keeps_matching_pairings(self):
        run = simulate_protocol(werner(0.9), 4_000, 5, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        keep = ((run.alice_bases == "x") & (run.bob_bases == "b")) | (
            (run.alice_bases == "y") & (run.bob_bases == "b'")
        )
        np.testing.assert_array_equal(run.sifted_indices, np.flatnonzero(keep))

    def test_delta_is_sifted_weighted_mean(self):
        run = simulate_protocol(werner(0.8), 20_000, 13, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        mism = run.alice_bits != run.bob_bits
        mask_x = (run.alice_bases == "x") & (run.bob_bases == "b")
        mask_y = (run.alice_bases == "y") & (run.bob_bases == "b'")
        n_x, n_y = mask_x.sum(), mask_y.sum()
        assert run.empirical_delta_x == pytest.approx(mism[mask_x].mean(), abs=0)
        assert run.empirical_delta_y == pytest.approx(mism[mask_y].mean(), abs=0)
        weighted = (n_x * run.empirical_delta_x + n_y * run.empirical_delta_y) / (n_x + n_y)
        assert run.empirical_delta == pytest.approx(weighted, abs=1e-15)

    def test_empty_sift_raises(self):
        # Seed 1 makes the single round a cross pairing.
        with pytest.raises(EmptySiftedSetError):
            simulate_protocol(werner(0.9), 1, 1, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))

    def test_rejects_zero_rounds(self):
        with pytest.raises(OutOfRangeError):
            simulate_protocol(werner(0.9), 0, 0, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))

    def test_mismatch_rate_diagnostics(self):
        run = simulate_protocol(werner(0.75), 20_000, 21, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        # Discarded pairings stay in the ledger and have recoverable statistics.
        assert 0.0 <= run.mismatch_rate("x", "b'") <= 1.0
        assert 0.0 <= run.mismatch_rate("y", "b") <= 1.0


class TestRandomKeyBias:
    @pytest.mark.parametrize("gamma", [0.3, math.pi / 3])
    def test_in_plane_settings_unbiased(self, gamma):
        s = pure_state(gamma)
        mer = min_error_rate(s)
        run = simulate_protocol(s, 100_000, 17, mer.b, mer.b_prime)
        counts = [
            (run.alice_bases == "x").sum(),
            (run.alice_bases == "y").sum(),
            (run.bob_bases == "b").sum(),
            (run.bob_bases == "b'").sum(),
        ]
        gate = 4 * math.sqrt(1 / (4 * min(counts)))
        assert random_key_bias(run) <= gate

    def test_diagnostic_z_measurement_fully_biased(self):
        # |+x+x><+x+x| has its first-qubit Bloch vector along x, not z:
        # every round in which Alice measures x gives her a +1 key symbol.
        plus = np.full((2, 2), 0.5)
        product = validate_density(np.kron(plus, plus))
        run = simulate_protocol(product, 2_000, 2, SETTING_X, SETTING_X)
        assert random_key_bias(run) == pytest.approx(0.5, abs=0)

    def test_maximally_mixed_unbiased(self):
        mixed = validate_density(np.eye(4) / 4)
        run = simulate_protocol(mixed, 100_000, 19, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        gate = 4 * math.sqrt(1 / (4 * (run.n_rounds // 3)))
        assert random_key_bias(run) <= gate


class TestExports:
    def test_summary_schema(self):
        run = simulate_protocol(werner(0.75), 2_000, 23, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        summary = run.summary(delta_analytic=1 / 6)
        assert list(summary) == [
            "n_rounds", "m_sifted", "delta_x_hat", "delta_y_hat", "delta_hat", "delta_analytic",
        ]
        assert summary["n_rounds"] == 2_000
        assert summary["m_sifted"] == run.m_sifted

    def test_rounds_csv(self, tmp_path):
        run = simulate_protocol(werner(0.75), 500, 29, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        path = tmp_path / "rounds.csv"
        run.write_rounds_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,alice_basis,bob_basis,alice_bit,bob_bit,sifted"
        assert len(lines) == 501
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] in ("x", "y")
        assert first[2] in ("b", "b'")
        assert first[3] in ("1", "-1") and first[4] in ("1", "-1")
        assert first[5] in ("0", "1")
        sifted_count = sum(int(line.split(",")[5]) for line in lines[1:])
        assert sifted_count == run.m_sifted


def reference_rounds_csv(run, path):
    """The ledger writer as a csv.writer loop over rows, kept as reference."""
    sifted = np.zeros(run.n_rounds, dtype=int)
    sifted[run.sifted_indices] = 1
    alice_bases, bob_bases = run.alice_bases, run.bob_bases
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "alice_basis", "bob_basis", "alice_bit", "bob_bit", "sifted"])
        for i in range(run.n_rounds):
            writer.writerow(
                [i, alice_bases[i], bob_bases[i], int(run.alice_bits[i]), int(run.bob_bits[i]), int(sifted[i])]
            )


class TestLedger:
    @pytest.mark.parametrize("n", [7, _LEDGER_CHUNK - 1, _LEDGER_CHUNK, _LEDGER_CHUNK + 1])
    @pytest.mark.parametrize("state", [werner(0.75), pure_state(1.0)], ids=["werner", "pure"])
    def test_matches_reference_writer(self, tmp_path, state, n):
        mer = min_error_rate(state)
        run = simulate_protocol(state, n, 31, mer.b, mer.b_prime)
        run.write_rounds_csv(tmp_path / "fast.csv")
        reference_rounds_csv(run, tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_choices_are_int8_label_indices(self):
        run = simulate_protocol(werner(0.75), 1_000, 37, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        assert run.alice_choice.dtype == np.int8
        assert run.bob_choice.dtype == np.int8
        np.testing.assert_array_equal(run.alice_bases, np.array(ALICE_LABELS)[run.alice_choice])
        np.testing.assert_array_equal(run.bob_bases, np.array(BOB_LABELS)[run.bob_choice])
        assert set(run.alice_bases) == {"x", "y"} and set(run.bob_bases) == {"b", "b'"}


class TestMeasurementSetting:
    def test_rejects_non_unit(self):
        with pytest.raises(OutOfRangeError):
            MeasurementSetting((1.0, 1.0, 0.0))

    @pytest.mark.parametrize("n", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
    def test_rejects_non_finite(self, n):
        with pytest.raises(OutOfRangeError):
            MeasurementSetting(n)

    def test_of_passthrough(self):
        assert MeasurementSetting.of(SETTING_X) is SETTING_X
