"""Twirling channel tests: Haar sampling moments, exact projection,
Monte Carlo convergence, and the trace-distance metric."""

import math
import tracemalloc

import numpy as np
import pytest

from twirlkit import (
    OutOfRangeError,
    bell,
    conjugate_pair_apply,
    fidelity_phi_plus,
    pure_state,
    random_state,
    trace_distance,
    twirl_analytic,
    twirl_monte_carlo,
    validate_density,
    werner,
)
from twirlkit import twirl
from twirlkit.twirl import _CHUNK, _PAIRS, _haar_su2_batch


def _haar_su2(rng):
    """One Haar-distributed SU(2) matrix from ``rng``."""
    return _haar_su2_batch(rng, 1)[0]


def reference_twirl_monte_carlo(state, n_samples, seed):
    """The per-sample Monte Carlo sum: ``conjugate_pair_apply`` on every Haar
    draw of the (seed, chunk index) streams, averaged."""
    acc = np.zeros((4, 4), dtype=complex)
    for chunk_index, done in enumerate(range(0, n_samples, _CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        u = _haar_su2_batch(rng, min(_CHUNK, n_samples - done))
        acc += conjugate_pair_apply(state, u).rho.sum(axis=0)
    return acc / n_samples


def reference_chunk_moments(n_samples, seed):
    """The moment matrix as each chunk once built it: a fresh (k, 4) draw,
    normalized by ``np.linalg.norm``, and a column gather of the products."""
    moments = np.zeros((10, 10))
    for chunk_index, done in enumerate(range(0, n_samples, _CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        q = rng.standard_normal((min(_CHUNK, n_samples - done), 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q2 = q[:, _PAIRS[0]] * q[:, _PAIRS[1]]
        moments += q2.T @ q2
    return moments


def _product_state():
    # |psi><psi| x diag(0.7, 0.3): rank 2, with a generic complex |psi>
    psi = np.array([0.6, 0.8 * np.exp(0.9j)])
    return validate_density(np.kron(np.outer(psi, psi.conj()), np.diag([0.7, 0.3])))


REFERENCE_STATES = {
    "pure0": lambda: pure_state(0.0),
    "pure_half_pi": lambda: pure_state(math.pi / 2),
    "werner_quarter": lambda: werner(0.25),
    "werner_one": lambda: werner(1.0),
    "maximally_mixed": lambda: validate_density(np.eye(4) / 4),
    "rank2_product": _product_state,
    **{f"random{seed}": (lambda seed=seed: random_state(seed)) for seed in range(5)},
}


class TestHaarSampling:
    def test_unitarity_and_det(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u = _haar_su2(rng)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
            assert abs(np.linalg.det(u) - 1.0) <= 1e-12

    def test_second_moment_of_first_entry(self):
        # The Haar average of |U11|^2 is 1/2: |U11|^2 = q0^2 + q3^2 for a
        # uniform unit quaternion, and each coordinate contributes 1/4 by
        # symmetry of the 3-sphere.
        samples = _haar_su2_batch(np.random.default_rng(1), 100_000)[:, 0, 0]
        assert abs(np.mean(np.abs(samples) ** 2) - 0.5) <= 0.01

    def test_first_moment_vanishes(self):
        samples = _haar_su2_batch(np.random.default_rng(2), 100_000)[:, 0, 0]
        assert abs(np.mean(samples)) <= 0.01

    def test_batch_rows_are_successive_draws(self):
        # So the batched moment tests see the very samples of a one-matrix draw loop.
        rng = np.random.default_rng(1)
        loop = np.array([_haar_su2(rng) for _ in range(1000)])
        np.testing.assert_array_equal(_haar_su2_batch(np.random.default_rng(1), 1000), loop)


class TestConjugatePair:
    def test_identity_leaves_state(self):
        s = random_state(5)
        np.testing.assert_allclose(conjugate_pair_apply(s, np.eye(2)).rho, s.rho, atol=1e-15)

    def test_phi_plus_invariant(self):
        rng = np.random.default_rng(3)
        phi = bell("phi+")
        for _ in range(100):
            out = conjugate_pair_apply(phi, _haar_su2(rng))
            np.testing.assert_allclose(out.rho, phi.rho, atol=1e-12)

    @pytest.mark.parametrize("f", [0.1, 0.5, 0.9])
    def test_werner_invariant(self, f):
        rng = np.random.default_rng(4)
        w = werner(f)
        for _ in range(20):
            out = conjugate_pair_apply(w, _haar_su2(rng))
            np.testing.assert_allclose(out.rho, w.rho, atol=1e-12)

    def test_stack_of_unitaries_matches_each(self):
        u = _haar_su2_batch(np.random.default_rng(8), 5)
        s = random_state(12)
        stacked = conjugate_pair_apply(s, u).rho
        assert stacked.shape == (5, 4, 4)
        for k in range(5):
            np.testing.assert_allclose(stacked[k], conjugate_pair_apply(s, u[k]).rho, rtol=0, atol=1e-15)

    def test_output_is_valid(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            validate_density(conjugate_pair_apply(random_state(seed), _haar_su2(rng)).rho)


class TestTwirlAnalytic:
    @pytest.mark.parametrize("gamma", [0.0, 0.4, math.pi / 3, math.pi / 2])
    def test_pure_maps_to_werner(self, gamma):
        out = twirl_analytic(pure_state(gamma))
        np.testing.assert_allclose(out.rho, werner(math.cos(gamma / 2) ** 2).rho, atol=1e-12)

    @pytest.mark.parametrize("f", [0.0, 0.3, 0.75, 1.0])
    def test_werner_fixed_point(self, f):
        np.testing.assert_allclose(twirl_analytic(werner(f)).rho, werner(f).rho, atol=1e-12)

    def test_maximally_mixed_fixed(self):
        mixed = validate_density(np.eye(4) / 4)
        np.testing.assert_allclose(twirl_analytic(mixed).rho, mixed.rho, atol=1e-15)

    def test_idempotent_on_random_states(self):
        for seed in range(100):
            once = twirl_analytic(random_state(seed))
            np.testing.assert_allclose(twirl_analytic(once).rho, once.rho, atol=1e-12)

    def test_preserves_fidelity(self):
        for seed in range(100):
            s = random_state(seed)
            assert abs(fidelity_phi_plus(twirl_analytic(s)) - fidelity_phi_plus(s)) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for seed in range(50):
            s1, s2 = random_state(2 * seed), random_state(2 * seed + 1)
            p = float(rng.uniform())
            mixed = validate_density(p * s1.rho + (1 - p) * s2.rho)
            lhs = twirl_analytic(mixed).rho
            rhs = p * twirl_analytic(s1).rho + (1 - p) * twirl_analytic(s2).rho
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTwirlMonteCarlo:
    def test_werner_input_converges_immediately(self):
        # Every conjugated sample equals the input, for any sample count.
        report = twirl_monte_carlo(werner(0.6), 50, seed=0)
        assert report.trace_distance_to_analytic <= 1e-12

    def test_pure_state_convergence(self):
        report = twirl_monte_carlo(pure_state(math.pi / 3), 100_000, seed=11)
        assert report.n_samples == 100_000
        assert report.trace_distance_to_analytic <= 0.02
        assert trace_distance(report.result, werner(0.75)) <= 0.02

    def test_deterministic_given_seed(self):
        a = twirl_monte_carlo(pure_state(0.7), 5_000, seed=42)
        b = twirl_monte_carlo(pure_state(0.7), 5_000, seed=42)
        np.testing.assert_array_equal(a.result.rho, b.result.rho)

    def test_error_shrinks_with_samples(self):
        # Quadrupling the sample count should roughly halve the median
        # distance over a small seed ensemble (inverse square-root rate).
        state = pure_state(math.pi / 3)
        small = np.median(
            [twirl_monte_carlo(state, 20_000, seed=s).trace_distance_to_analytic for s in range(10)]
        )
        large = np.median(
            [twirl_monte_carlo(state, 80_000, seed=100 + s).trace_distance_to_analytic for s in range(10)]
        )
        assert 0.3 <= large / small <= 0.7

    def test_rejects_zero_samples(self):
        with pytest.raises(OutOfRangeError, match="n_samples must be >= 1"):
            twirl_monte_carlo(werner(0.5), 0, seed=0)

    @pytest.mark.parametrize("name", list(REFERENCE_STATES))
    @pytest.mark.parametrize("n", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 20_000])
    def test_moments_match_per_sample_sum(self, name, n):
        # The moment path averages the very draws of the per-sample sum;
        # n = 1 pins the stream of chunk 0, n = _CHUNK + 1 that of chunk 1.
        state = REFERENCE_STATES[name]()
        report = twirl_monte_carlo(state, n, seed=29)
        np.testing.assert_allclose(report.result.rho, reference_twirl_monte_carlo(state, n, 29), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 20_000])
    def test_moments_match_reference_chunks(self, n):
        # the shared workspace reproduces the per-chunk arrays bit for bit
        for seed in (0, 29):
            assert twirl._moments(n, seed).tobytes() == reference_chunk_moments(n, seed).tobytes(), seed

    def test_memory_stays_per_chunk(self):
        tracemalloc.start()
        try:
            twirl_monte_carlo(pure_state(math.pi / 3), 200_000, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestTraceDistance:
    def test_zero_on_equal(self):
        s = random_state(8)
        assert trace_distance(s, s) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(bell("phi+"), bell("psi-")) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_versus_bell(self):
        # Difference eigenvalues are {-3/4, 1/4, 1/4, 1/4}, so the distance is 3/4.
        mixed = validate_density(np.eye(4) / 4)
        assert trace_distance(mixed, bell("phi+")) == pytest.approx(0.75, abs=1e-12)

    def test_symmetric(self):
        a, b = random_state(9), random_state(10)
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-14)
