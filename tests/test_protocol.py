"""Protocol statistics and simulator tests.

The joint-outcome oracle builds Born-rule projectors (I +- n.sigma)/2
directly and traces against the density matrix, independent of the
library's Bloch-form expression.
"""

import csv
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    twirl_monte_carlo,
    validate_density,
    werner,
)
from twirlkit.protocol import ALICE_LABELS, BOB_LABELS, _CHUNK, _GUIDE_BITS, ProtocolRun, _decode, _guide, _limits

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


def decode(run):
    """The per-round arrays of a run, read from its codes by the documented
    layout code = 8 i + 4 j + 2 [s < 0] + [t < 0]."""
    i, j = run.code >> 3, (run.code >> 2) & 1
    return SimpleNamespace(
        n_rounds=run.n_rounds,
        alice_choice=i,
        bob_choice=j,
        alice_bits=1 - 2 * ((run.code >> 1) & 1),
        bob_bits=1 - 2 * (run.code & 1),
        sifted_indices=np.flatnonzero(i == j),
        alice_bases=np.array(ALICE_LABELS)[i],
        bob_bases=np.array(BOB_LABELS)[j],
    )


def raw_pairings(seed, n):
    """The pairings 2 i + j of a run's first n rounds by the documented
    stream: bits 1 and 0 of raw word k of PCG64(seed)."""
    return np.random.PCG64(seed).random_raw(n) & 3


def pairing_thresholds(state, b, b_prime):
    """The (4, 3) first three cumulative outcome probabilities of each
    pairing 2 i + j, one outcome_probs call per pairing."""
    return np.array([
        np.cumsum(outcome_probs(state, a, bs).as_array())[:3]
        for a in (SETTING_X, SETTING_Y) for bs in (b, b_prime)
    ])


def reference_codes(words, thresholds):
    """Round codes by the float definition: 4 p + the count of the
    pairing's thresholds t with t <= (w >> 11) 2^-53."""
    pairing = (words & 3).astype(np.intp)
    u = (words >> 11).astype(np.float64) / 2.0**53
    return (4 * pairing + np.count_nonzero(thresholds[pairing] <= u[:, None], axis=1)).astype(np.int8)


def guide_fallbacks(words, thresholds):
    """Which rounds the guide table leaves to the exact count: the -1
    entries at their keys (pairing, top _GUIDE_BITS bits)."""
    key = ((words & 3) << _GUIDE_BITS) | (words >> (64 - _GUIDE_BITS))
    return _guide(_limits(thresholds))[key.astype(np.intp)] < 0


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
        rounds = decode(run)
        kept = rounds.sifted_indices
        np.testing.assert_array_equal(rounds.alice_bits[kept], rounds.bob_bits[kept])
        assert set(rounds.alice_bits.tolist()) <= {1, -1}

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
        np.testing.assert_array_equal(a.code, b.code)
        assert a.empirical_delta == b.empirical_delta

    def test_sifting_keeps_matching_pairings(self):
        run = simulate_protocol(werner(0.9), 4_000, 5, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        rounds = decode(run)
        keep = ((rounds.alice_bases == "x") & (rounds.bob_bases == "b")) | (
            (rounds.alice_bases == "y") & (rounds.bob_bases == "b'")
        )
        assert run.m_sifted == np.count_nonzero(keep) == rounds.sifted_indices.size

    def test_delta_is_sifted_weighted_mean(self):
        run = simulate_protocol(werner(0.8), 20_000, 13, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        rounds = decode(run)
        mism = rounds.alice_bits != rounds.bob_bits
        mask_x = (rounds.alice_bases == "x") & (rounds.bob_bases == "b")
        mask_y = (rounds.alice_bases == "y") & (rounds.bob_bases == "b'")
        n_x, n_y = mask_x.sum(), mask_y.sum()
        assert run.empirical_delta_x == pytest.approx(mism[mask_x].mean(), abs=0)
        assert run.empirical_delta_y == pytest.approx(mism[mask_y].mean(), abs=0)
        weighted = (n_x * run.empirical_delta_x + n_y * run.empirical_delta_y) / (n_x + n_y)
        assert run.empirical_delta == pytest.approx(weighted, abs=1e-15)

    def test_empty_sift_raises(self):
        # Seed 2 makes the single round a cross pairing.
        assert raw_pairings(2, 1).tolist() == [1]
        with pytest.raises(EmptySiftedSetError):
            simulate_protocol(werner(0.9), 1, 2, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))

    def test_rejects_zero_rounds(self):
        with pytest.raises(OutOfRangeError):
            simulate_protocol(werner(0.9), 0, 0, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))

    def test_mismatch_rate_diagnostics(self):
        run = simulate_protocol(werner(0.75), 20_000, 21, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        # Discarded pairings stay in the ledger and have recoverable statistics.
        assert 0.0 <= run.mismatch_rate("x", "b'") <= 1.0
        assert 0.0 <= run.mismatch_rate("y", "b") <= 1.0


SAMPLERS = {
    "simulate_protocol": lambda state, n, seed: simulate_protocol(state, n, seed, SETTING_X, SETTING_Y),
    "twirl_monte_carlo": twirl_monte_carlo,
}


INVALID_SAMPLER_INPUTS = {
    "stacked state": (lambda: pure_state(np.array([0.3, 0.5])), 100, 0),
    "negative seed": (lambda: werner(0.75), 100, -1),
    "fractional count": (lambda: werner(0.75), 2.5, 0),
    "bool count": (lambda: werner(0.75), True, 0),
}


@pytest.mark.parametrize("case", list(INVALID_SAMPLER_INPUTS))
@pytest.mark.parametrize("sampler", list(SAMPLERS))
def test_samplers_reject_invalid_input(sampler, case):
    state, n, seed = INVALID_SAMPLER_INPUTS[case]
    with pytest.raises(OutOfRangeError):
        SAMPLERS[sampler](state(), n, seed)


class TestRandomKeyBias:
    @pytest.mark.parametrize("gamma", [0.3, math.pi / 3])
    def test_in_plane_settings_unbiased(self, gamma):
        s = pure_state(gamma)
        mer = min_error_rate(s)
        run = simulate_protocol(s, 100_000, 17, mer.b, mer.b_prime)
        rounds = decode(run)
        counts = [
            (rounds.alice_bases == "x").sum(),
            (rounds.alice_bases == "y").sum(),
            (rounds.bob_bases == "b").sum(),
            (rounds.bob_bases == "b'").sum(),
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
    """The ledger writer as a csv.writer loop over rows, kept as reference;
    ``run`` holds the per-round arrays (see ``decode``)."""
    sifted = np.zeros(run.n_rounds, dtype=int)
    sifted[run.sifted_indices] = 1
    columns = (run.alice_bases, run.bob_bases, run.alice_bits, run.bob_bits, sifted)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "alice_basis", "bob_basis", "alice_bit", "bob_bit", "sifted"])
        writer.writerows(zip(range(run.n_rounds), *(c.tolist() for c in columns)))


class TestLedger:
    # part and whole simulator chunks, then every round-number width and the
    # edges of the writer's 10^4-row blocks; 1_000_001 crosses each width
    # change of a 10^6-round run, where the writer replaces its row matrix
    @pytest.mark.parametrize("name, n", [*((name, n) for name in ("werner", "pure") for n in (
        7, _CHUNK // 2 + 1, 4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1,
        9, 10, 11, 99, 100, 1000, 9999, 10_000, 10_001, 20_000, 100_001,
    )), ("werner", 1_000_001)])
    def test_matches_reference_writer(self, tmp_path, name, n):
        state = {"werner": werner(0.75), "pure": pure_state(1.0)}[name]
        mer = min_error_rate(state)
        run = simulate_protocol(state, n, 31, mer.b, mer.b_prime)
        run.write_rounds_csv(tmp_path / "fast.csv")
        reference_rounds_csv(decode(run), tmp_path / "reference.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    # any code at every round-number width; n = 0 writes the header alone
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=0, max_value=30_000), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(n=0, seed=0)
    def test_any_codes_match_reference_writer(self, tmp_path_factory, n, seed):
        run = ProtocolRun(n, np.random.default_rng(seed).integers(0, 16, n).astype(np.int8))
        path = tmp_path_factory.mktemp("ledger")
        run.write_rounds_csv(path / "fast.csv")
        reference_rounds_csv(decode(run), path / "reference.csv")
        assert (path / "fast.csv").read_bytes() == (path / "reference.csv").read_bytes()
        if n == 0:
            assert (path / "fast.csv").read_bytes() == b"round,alice_basis,bob_basis,alice_bit,bob_bit,sifted\n"

    def test_choices_are_int8_label_indices(self):
        run = simulate_protocol(werner(0.75), 1_000, 37, (1.0, 0.0, 0.0), (0.0, -1.0, 0.0))
        rounds = decode(run)
        assert rounds.alice_choice.dtype == rounds.bob_choice.dtype == np.int8
        assert set(rounds.alice_choice.tolist()) == set(rounds.bob_choice.tolist()) == {0, 1}
        assert set(rounds.alice_bases) == {"x", "y"} and set(rounds.bob_bases) == {"b", "b'"}


def reference_simulate_protocol(state, n_rounds, seed, b, b_prime):
    """The simulator as one whole-array pass over the documented stream:
    round k reads raw word k of PCG64(seed), Alice's basis is its bit 1,
    Bob's its bit 0, and its top 53 bits over 2^53 are the uniform. One
    mask and one searchsorted per pairing give five per-round arrays, and
    boolean masks the summary numbers."""
    alice_settings = (SETTING_X, SETTING_Y)
    bob_settings = (MeasurementSetting.of(b), MeasurementSetting.of(b_prime))
    cums = np.empty((2, 2, 4))
    for i in range(2):
        for j in range(2):
            cums[i, j] = np.cumsum(outcome_probs(state, alice_settings[i], bob_settings[j]).as_array())
            cums[i, j, 3] = max(cums[i, j, 3], 1.0)

    words = np.random.PCG64(seed).random_raw(n_rounds)
    alice_choice = ((words >> 1) & 1).astype(np.int8)
    bob_choice = (words & 1).astype(np.int8)
    u = (words >> 11).astype(np.float64) / 2.0**53
    outcome = np.empty(n_rounds, dtype=np.int64)
    for i in range(2):
        for j in range(2):
            mask = (alice_choice == i) & (bob_choice == j)
            if mask.any():
                outcome[mask] = np.searchsorted(cums[i, j], u[mask], side="right")
    outcome = np.minimum(outcome, 3)
    alice_bits = np.where(outcome <= 1, 1, -1).astype(np.int8)
    bob_bits = np.where((outcome == 0) | (outcome == 2), 1, -1).astype(np.int8)

    sifted_mask = alice_choice == bob_choice
    sifted_indices = np.flatnonzero(sifted_mask)
    if sifted_indices.size == 0:
        raise EmptySiftedSetError(f"no sifted rounds among {n_rounds}")
    mismatch = alice_bits != bob_bits
    mask_x = sifted_mask & (alice_choice == 0)
    mask_y = sifted_mask & (alice_choice == 1)
    return SimpleNamespace(
        n_rounds=n_rounds,
        alice_choice=alice_choice,
        bob_choice=bob_choice,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
        sifted_indices=sifted_indices,
        alice_bases=np.array(ALICE_LABELS)[alice_choice],
        bob_bases=np.array(BOB_LABELS)[bob_choice],
        empirical_delta_x=float(np.mean(mismatch[mask_x])) if mask_x.any() else float("nan"),
        empirical_delta_y=float(np.mean(mismatch[mask_y])) if mask_y.any() else float("nan"),
        empirical_delta=float(np.count_nonzero(mismatch & sifted_mask)) / sifted_indices.size,
    )


def reference_mismatch_rate(ref, alice_basis, bob_basis):
    mask = (ref.alice_bases == alice_basis) & (ref.bob_bases == bob_basis)
    if not mask.any():
        return float("nan")
    return float(np.mean(ref.alice_bits[mask] != ref.bob_bits[mask]))


def reference_random_key_bias(ref):
    worst = 0.0
    for choice, bits in ((ref.alice_choice, ref.alice_bits), (ref.bob_choice, ref.bob_bits)):
        for k in (0, 1):
            mask = choice == k
            if mask.any():
                worst = max(worst, abs(float(np.mean(bits[mask] > 0)) - 0.5))
    return worst


SIM_STATES = {
    "werner": lambda: werner(0.75),
    "pure": lambda: pure_state(1.0),
    "mixed": lambda: validate_density(np.eye(4) / 4),
    "random3": lambda: random_state(3),
    # the sifted pairings' thresholds tie: (1/2, 1/2, 1/2), two outcomes never occur
    "psi_minus": lambda: bell("psi-"),
}


def assert_matches_reference_simulator(tmp_path, state, n, seed, b, b_prime):
    """The run's code, summary, diagnostics and ledger equal the reference simulator's."""
    try:
        ref = reference_simulate_protocol(state, n, seed, b, b_prime)
    except EmptySiftedSetError:
        with pytest.raises(EmptySiftedSetError):
            simulate_protocol(state, n, seed, b, b_prime)
        return
    run = simulate_protocol(state, n, seed, b, b_prime)
    assert run.code.dtype == np.int8 and run.code.nbytes == n
    expected = {
        "n_rounds": n, "m_sifted": ref.sifted_indices.size, "delta_x_hat": ref.empirical_delta_x,
        "delta_y_hat": ref.empirical_delta_y, "delta_hat": ref.empirical_delta, "delta_analytic": 0.1,
    }
    assert repr(run.summary(delta_analytic=0.1)) == repr(expected)
    assert not run.code.flags.writeable
    want = 8 * ref.alice_choice + 4 * ref.bob_choice + 2 * (ref.alice_bits < 0) + (ref.bob_bits < 0)
    np.testing.assert_array_equal(run.code, want)
    assert repr(random_key_bias(run)) == repr(reference_random_key_bias(ref))
    for alice in ALICE_LABELS:
        for bob in BOB_LABELS:
            assert repr(run.mismatch_rate(alice, bob)) == repr(reference_mismatch_rate(ref, alice, bob))
    run.write_rounds_csv(tmp_path / "run.csv")
    reference_rounds_csv(ref, tmp_path / "reference.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# non-optimal, asymmetric settings: no two pairings share a row of
# cumulative thresholds, so a gather from a wrong row shows
ASYMMETRIC = (random_state(3), (0.6, 0.0, 0.8), (0.0, -0.28, 0.96))


class TestRoundCode:
    @pytest.mark.parametrize("seed", [0, 1, 42])
    # several whole chunks with one round less and one more, and an odd
    # leftover after one chunk
    @pytest.mark.parametrize("n", [
        1, 2, 7, 4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1, _CHUNK + 1, 3 * _CHUNK // 2 - 1,
    ])
    @pytest.mark.parametrize("name", list(SIM_STATES))
    def test_matches_reference_simulator(self, tmp_path, name, n, seed):
        state = SIM_STATES[name]()
        mer = min_error_rate(state)
        assert_matches_reference_simulator(tmp_path, state, n, seed, mer.b, mer.b_prime)

    @pytest.mark.parametrize("seed", [3, 4])  # at n = 1 seed 3 sifts one round, seed 4 none
    @pytest.mark.parametrize("n", [
        1, _CHUNK // 2 - 1, _CHUNK // 2, _CHUNK // 2 + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1,
    ])
    def test_each_pairing_gathers_its_own_thresholds(self, tmp_path, n, seed):
        assert raw_pairings(seed, 1).tolist() == {3: [0], 4: [2]}[seed]
        state, b, b_prime = ASYMMETRIC
        assert len(set(map(tuple, pairing_thresholds(state, b, b_prime)))) == 4
        assert_matches_reference_simulator(tmp_path, state, n, seed, b, b_prime)

    def test_run_retains_one_byte_per_round(self):
        state = werner(0.75)
        mer = min_error_rate(state)
        simulate_protocol(state, 10, 5, mer.b, mer.b_prime)  # lazy imports are not the run's memory
        tracemalloc.start()
        try:
            run = simulate_protocol(state, 1_000_000, 5, mer.b, mer.b_prime)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.code.nbytes == run.n_rounds
        assert retained < 1.5 * 2**20

    def test_memory_stays_flat_while_drawing_and_writing(self, tmp_path):
        state = werner(0.75)
        mer = min_error_rate(state)
        simulate_protocol(state, 10, 5, mer.b, mer.b_prime).write_rounds_csv(tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            run = simulate_protocol(state, 1_000_000, 5, mer.b, mer.b_prime)
            run.summary()
            _, simulate_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            run.write_rounds_csv(tmp_path / "rounds.csv")
            _, ledger_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert simulate_peak < 2 * 2**20
        assert ledger_peak < 8 * 2**20

    @pytest.mark.parametrize("n_rounds,code,message", [
        (5, np.zeros(3, np.int8), "1-D int8 array of n_rounds = 5"),
        (3, np.zeros(5, np.int8), "1-D int8 array of n_rounds = 3"),
        (4, np.zeros((2, 2), np.int8), "1-D int8 array"),
        (3, np.zeros(3, np.int64), "1-D int8 array"),
        (3, [0, 1, 2], "1-D int8 array"),
        (3, np.array([0, 20, 1], np.int8), "0..15, got 0..20"),
        (3, np.array([0, -1, 15], np.int8), "0..15, got -1..15"),
        (-1, np.zeros(0, np.int8), "integer >= 0"),
        (2.0, np.zeros(2, np.int8), "integer >= 0"),
        (True, np.zeros(1, np.int8), "integer >= 0"),
    ])
    def test_rejects_inconsistent_record(self, n_rounds, code, message):
        with pytest.raises(OutOfRangeError, match=message):
            ProtocolRun(n_rounds, code)

    def test_accepts_consistent_record(self):
        empty = ProtocolRun(0, np.zeros(0, np.int8))
        assert empty.summary()["n_rounds"] == 0 and empty.m_sifted == 0
        run = ProtocolRun(np.int64(16), np.arange(16, dtype=np.int8))
        assert run.m_sifted == 8 and not run.code.flags.writeable

    def test_copies_only_a_writeable_code(self):
        code = np.zeros(3, np.int8)
        run = ProtocolRun(3, code)
        assert code.flags.writeable and run.code is not code and not run.code.flags.writeable
        code[0] = 5
        assert run.code[0] == 0
        code.flags.writeable = False
        assert ProtocolRun(3, code).code is code

    # any codes, even and odd counts across several chunks; read-only at an
    # odd byte offset, kept as it is, or strided, which the run copies
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(min_value=0, max_value=3 * _CHUNK + 1), seed=st.integers(min_value=0, max_value=2**32 - 1),
           last=st.integers(min_value=0, max_value=15), offset=st.integers(min_value=0, max_value=1),
           step=st.integers(min_value=1, max_value=2))
    @example(n=0, seed=0, last=0, offset=0, step=1)
    @example(n=1, seed=1, last=15, offset=0, step=1)
    @example(n=2, seed=2, last=15, offset=1, step=1)
    @example(n=_CHUNK - 1, seed=3, last=15, offset=1, step=1)
    @example(n=_CHUNK + 1, seed=4, last=15, offset=0, step=1)
    def test_counts_match_bincount(self, n, seed, last, offset, step):
        buffer = np.random.default_rng(seed).integers(0, 16, offset + step * n).astype(np.int8)
        if n:
            buffer[-step] = last
        buffer.flags.writeable = False
        code = buffer[offset::step]
        run = ProtocolRun(n, code)
        assert (run.code is code) == (step == 1)
        np.testing.assert_array_equal(run._counts, np.bincount(code, minlength=16).reshape(2, 2, 2, 2))

    def test_mismatch_rate_rejects_unknown_basis(self):
        run = simulate_protocol(werner(0.75), 100, 0, SETTING_X, SETTING_Y)
        with pytest.raises(OutOfRangeError):
            run.mismatch_rate("z", "b")


def brute_force_guide(thresholds):
    """The guide table by its definition, bucket by bucket: the code at
    the bucket's first and last m by the float comparison t <= m 2^-53,
    and -1 where the two differ."""
    width = 2 ** (53 - _GUIDE_BITS)
    bucket = np.arange(2**_GUIDE_BITS, dtype=np.uint64)
    guide = np.empty((4, bucket.size), np.int8)
    for p, row in enumerate(thresholds):
        ends = [(bucket * width + offset).astype(np.float64) / 2.0**53 for offset in (0, width - 1)]
        first, last = (np.count_nonzero(row[:, None] <= u, axis=0) for u in ends)
        guide[p] = np.where(first == last, 4 * p + first, -1)
    return guide.ravel()


EDGE = 5 * 2.0**-_GUIDE_BITS  # the first uniform of bucket 5
THRESHOLD_SETS = {
    **{f"random{seed}": lambda seed=seed: np.sort(np.random.default_rng(seed).random((4, 3)), axis=1)
       for seed in range(3)},
    "asymmetric": lambda: pairing_thresholds(*ASYMMETRIC),
    # ties: the sifted pairings' thresholds are (1/2, 1/2, 1/2)
    "psi_minus": lambda: pairing_thresholds(
        bell("psi-"), min_error_rate(bell("psi-")).b, min_error_rate(bell("psi-")).b_prime
    ),
    # zeros, a subnormal, a bucket edge and one ulp either side of it, the
    # last bucket's edge, 1 less one ulp, exactly 1 and 1 plus one ulp
    "adversarial": lambda: np.array([
        [0.0, 0.0, 5e-324],
        [np.nextafter(EDGE, 0.0), EDGE, np.nextafter(EDGE, 1.0)],
        [0.25, 1.0 - 2.0**-_GUIDE_BITS, 1.0],
        [0.5, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
    ]),
}


class TestGuideTable:
    """The simulator decodes a round by one guide-table gather; buckets that
    hold a threshold fall back to an exact count against integer limits."""

    @pytest.mark.parametrize("name", list(THRESHOLD_SETS))
    def test_builder_matches_brute_force(self, name):
        thresholds = THRESHOLD_SETS[name]()
        guide = _guide(_limits(thresholds))
        assert guide.dtype == np.int8 and guide.shape == (4 << _GUIDE_BITS,)
        np.testing.assert_array_equal(guide, brute_force_guide(thresholds))

    @pytest.mark.parametrize("name", list(THRESHOLD_SETS))
    def test_decode_on_crafted_words(self, name):
        # per pairing: m at every limit and one either side of it, at both
        # ends of the limit's bucket, and the least and greatest m
        thresholds = THRESHOLD_SETS[name]()
        limits, shift = _limits(thresholds), 53 - _GUIDE_BITS
        pairings, ms = [], []
        for p in range(4):
            for limit in map(int, limits[p]):
                bucket = limit >> shift
                for m in (limit - 1, limit, limit + 1, bucket << shift, ((bucket + 1) << shift) - 1, 0, 2**53 - 1):
                    if 0 <= m < 2**53:
                        pairings.append(p)
                        ms.append(m)
        low = np.random.default_rng(0).integers(0, 2**9, len(ms), dtype=np.uint64) << np.uint64(2)
        words = (np.array(ms, np.uint64) << np.uint64(11)) | low | np.array(pairings, np.uint64)
        fallback = guide_fallbacks(words, thresholds)
        # both the gather and the exact count run, except for psi-, whose
        # thresholds all sit on bucket edges
        assert fallback.any() == (name != "psi_minus") and not fallback.all()
        # in uneven chunks, so the fallback rounds' positions carry across chunks
        edges = [0, 1, 8, words.size // 2, words.size]
        code = _decode([words[lo:hi] for lo, hi in zip(edges, edges[1:])], words.size, thresholds)
        np.testing.assert_array_equal(code, reference_codes(words, thresholds))

    @pytest.mark.parametrize("seed", [0, 42])
    def test_fallback_rounds_in_several_chunks_match_reference(self, tmp_path, seed):
        state, b, b_prime = ASYMMETRIC
        n = 3 * _CHUNK + 5
        fallback = guide_fallbacks(np.random.PCG64(seed).random_raw(n), pairing_thresholds(state, b, b_prime))
        # every whole chunk has rounds that the guide gives -1, so their
        # reference codes can only come from the exact count
        assert all(fallback[lo:lo + _CHUNK].any() for lo in range(0, n - _CHUNK, _CHUNK))
        assert_matches_reference_simulator(tmp_path, state, n, seed, b, b_prime)


class TestDrawBases:
    """Round k reads raw word k of PCG64(seed): its bits 1 and 0 are the
    pairing 2 i + j, and (w >> 11) 2^-53 is its uniform, the value of
    Generator.random. In a fresh Generator's terms the words are those of
    integers(0, 2**64, dtype=uint64), which hands out raw words one to one,
    and the uniforms those of random."""

    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1])
    # small n, half chunks, and whole and partial chunks on either side of
    # the chunk edges
    @pytest.mark.parametrize("n", [
        1, 2, 3, 7, _CHUNK // 2 - 1, _CHUNK // 2, _CHUNK // 2 + 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
        3 * _CHUNK // 2 + 1, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 100_001,
    ])
    def test_same_stream_as_integers_then_random(self, n, seed):
        words = np.random.PCG64(seed).random_raw(n)
        integers = np.random.Generator(np.random.PCG64(seed)).integers(0, 2**64, n, dtype=np.uint64)
        np.testing.assert_array_equal(integers, words)
        run = simulate_protocol(werner(0.75), n, seed, SETTING_X, SETTING_Y)
        assert run.code.dtype == np.int8 and run.code.shape == (n,)
        np.testing.assert_array_equal(run.code >> 2, words & 3)
        u = (words >> 11) * 2.0**-53
        assert u.tobytes() == np.random.Generator(np.random.PCG64(seed)).random(n).tobytes()

    def test_bases_and_outcomes_follow_their_distributions(self):
        # asymmetric settings give the four pairings four different outcome
        # distributions, so a swapped or correlated split of the word shows
        state, b, b_prime = ASYMMETRIC
        n = 100_000
        counts = np.bincount(simulate_protocol(state, n, 11, b, b_prime).code, minlength=16).reshape(4, 4)
        for pairing, (a, bs) in enumerate((a, bs) for a in (SETTING_X, SETTING_Y) for bs in (b, b_prime)):
            m = int(counts[pairing].sum())
            assert abs(m / n - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / n), pairing
            for k, p in enumerate(outcome_probs(state, a, bs).as_array()):
                assert abs(counts[pairing, k] / m - p) <= 4 * math.sqrt(p * (1 - p) / m), (pairing, k)

    def test_codes_are_pinned_across_numpy_versions(self):
        # I/4 has the exact thresholds 1/4, 1/2, 3/4 in every pairing, so each
        # code is fixed by the raw words alone
        run = simulate_protocol(validate_density(np.eye(4) / 4), 10_000, 42, SETTING_X, SETTING_Y)
        assert run.code[:64].tolist() == [
            3, 5, 3, 6, 12, 3, 7, 3, 12, 9, 5, 15, 10, 11, 13, 8, 10, 12, 11, 2, 7, 13, 7, 3, 3, 0, 13, 4, 0, 14, 2, 15,
            9, 9, 13, 0, 8, 5, 4, 14, 9, 7, 14, 13, 7, 11, 9, 9, 6, 4, 4, 12, 7, 14, 14, 7, 5, 6, 12, 8, 10, 13, 2, 15,
        ]
        assert np.bincount(run.code, minlength=16).tolist() == [
            617, 617, 638, 563, 669, 628, 641, 658, 645, 612, 605, 595, 614, 613, 659, 626,
        ]

    def test_fallback_codes_are_pinned_across_numpy_versions(self):
        # Werner F = 3/4 with settings x and y has the thresholds 5/12, 1/2,
        # 7/12 and 1/12, 1/2, 11/12 in its sifted pairings, off every bucket
        # edge, so some rounds take the exact count; rounds 1144, 3202, 6433
        # and 8261 have uniforms within 2e-4 of 5/12, 11/12 and 1/12
        state, n = werner(0.75), 10_000
        words = np.random.PCG64(42).random_raw(n)
        assert guide_fallbacks(words, pairing_thresholds(state, SETTING_X, SETTING_Y)).any()
        run = simulate_protocol(state, n, 42, SETTING_X, SETTING_Y)
        assert run.code[:64].tolist() == [
            3, 5, 3, 6, 13, 3, 7, 3, 13, 9, 5, 15, 10, 11, 13, 8, 10, 12, 11, 3, 7, 13, 7, 3, 3, 0, 13, 4, 0, 14, 3, 15,
            9, 9, 13, 0, 8, 5, 4, 14, 9, 7, 14, 13, 7, 11, 9, 9, 6, 4, 4, 12, 7, 14, 14, 7, 5, 6, 13, 8, 10, 13, 2, 14,
        ]
        assert run.code[[1144, 3202, 6433, 8261]].tolist() == [0, 15, 14, 13]
        assert np.bincount(run.code, minlength=16).tolist() == [
            1046, 188, 209, 992, 669, 628, 641, 658, 645, 612, 605, 595, 209, 1018, 1065, 220,
        ]


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
