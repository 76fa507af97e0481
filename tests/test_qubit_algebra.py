"""Operator algebra tests.

Expected decomposition values are frozen from an independent oracle that
builds Pauli tensor operators with np.kron and evaluates traces directly,
without going through the library's decomposition path.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twirlkit import (
    ID2,
    SETTING_X,
    SETTING_Y,
    TwoQubitState,
    discord_eigen,
    k_values,
    min_error_rate,
    optimal_partner,
    outcome_probs,
    simulate_protocol,
    twirl_discord_comparison,
    twirl_monte_carlo,
    ID4,
    NonHermitianError,
    NotPositiveError,
    OutOfRangeError,
    TraceNotOneError,
    bell,
    hermitian_eigenvalues,
    hs_norm_sq,
    pauli_compose,
    pauli_decompose,
    pure_state,
    random_state,
    tensor,
    validate_density,
    werner,
    PauliDecomposition,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)
from twirlkit.cli import SweepSpec
from twirlkit.states import pure_x_params

# Independent Pauli literals for the oracle side.
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULIS = (_SX, _SY, _SZ)


def oracle_decompose(rho):
    """Direct trace computation of Bloch vectors and correlation matrix."""
    x = np.array([np.trace(rho @ np.kron(p, np.eye(2))).real for p in _PAULIS])
    y = np.array([np.trace(rho @ np.kron(np.eye(2), p)).real for p in _PAULIS])
    T = np.array([[np.trace(rho @ np.kron(p, q)).real for q in _PAULIS] for p in _PAULIS])
    return x, y, T


class TestTensor:
    def test_identity(self):
        np.testing.assert_array_equal(tensor(ID2, ID2), np.eye(4))

    def test_sigma_z_with_identity(self):
        np.testing.assert_array_equal(tensor(SIGMA_Z, ID2), np.diag([1, 1, -1, -1.0]))

    def test_sigma_x_pair(self):
        # Hand expansion of the 2x2 Kronecker product: anti-diagonal ones.
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        np.testing.assert_array_equal(tensor(SIGMA_X, SIGMA_X), expected)

    def test_matches_numpy_kron(self):
        # one product per entry, as np.kron takes it: the bits of np.kron, on
        # one pair, on a stack and on broadcast stacks, for each member
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 1, 2, 2)) + 1j * rng.standard_normal((6, 1, 2, 2))
        b = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        assert tensor(a[0, 0], b[0]).tobytes() == np.kron(a[0, 0], b[0]).tobytes()
        assert tensor(a[:5, 0], b).tobytes() == np.stack([np.kron(u, v) for u, v in zip(a[:5, 0], b)]).tobytes()
        expected = np.stack([[np.kron(u, v) for v in b] for u in a[:, 0]])
        assert tensor(a, b).shape == (6, 5, 4, 4)
        assert tensor(a, b).tobytes() == expected.tobytes()
        assert tensor(a[:, 0], ID2).tobytes() == np.stack([np.kron(u, ID2) for u in a[:, 0]]).tobytes()

    def test_stacks_that_do_not_broadcast_raise(self):
        with pytest.raises(OutOfRangeError, match="leading axes do not broadcast"):
            tensor(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))


class TestPauliDecompose:
    def test_maximally_mixed(self):
        d = pauli_decompose(ID4 / 4)
        np.testing.assert_allclose(d.x, 0, atol=1e-15)
        np.testing.assert_allclose(d.y, 0, atol=1e-15)
        np.testing.assert_allclose(d.T, 0, atol=1e-15)

    def test_bell_phi_plus(self):
        rho = bell("phi+").rho
        ox, oy, oT = oracle_decompose(rho)
        d = pauli_decompose(rho)
        np.testing.assert_allclose(d.x, ox, atol=1e-14)
        np.testing.assert_allclose(d.y, oy, atol=1e-14)
        np.testing.assert_allclose(d.T, oT, atol=1e-14)
        np.testing.assert_allclose(d.T, np.diag([1.0, -1.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(d.x, 0, atol=1e-14)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2])
    def test_pure_family(self, gamma):
        d = pure_state(gamma).decomp
        expected = (0.0, 0.0, math.sin(gamma))
        np.testing.assert_allclose(d.x, expected, atol=1e-14)
        np.testing.assert_allclose(d.y, expected, atol=1e-14)
        np.testing.assert_allclose(
            d.T, np.diag([math.cos(gamma), -math.cos(gamma), 1.0]), atol=1e-14
        )

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(NonHermitianError):
            pauli_decompose(m)


class TestPauliCompose:
    def test_zero_decomposition(self):
        d = PauliDecomposition(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        np.testing.assert_allclose(pauli_compose(d), ID4 / 4, atol=0)

    @pytest.mark.parametrize("f", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_werner_pauli_form(self, f):
        t = (4 * f - 1) / 3
        d = PauliDecomposition(np.zeros(3), np.zeros(3), np.diag([t, -t, t]))
        np.testing.assert_allclose(pauli_compose(d), werner(f).rho, atol=1e-15)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_roundtrip_compose_decompose(seed):
    rho = random_state(seed).rho
    np.testing.assert_allclose(pauli_compose(pauli_decompose(rho)), rho, atol=1e-12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_purity_identity(seed):
    s = random_state(seed)
    d = s.decomp
    predicted = (1.0 + d.x @ d.x + d.y @ d.y + np.sum(d.T * d.T)) / 4.0
    assert abs(hs_norm_sq(s.rho) - predicted) <= 1e-12
    # and against the brute-force trace
    assert abs(hs_norm_sq(s.rho) - np.trace(s.rho @ s.rho).real) <= 1e-12


class TestHsNorm:
    def test_maximally_mixed(self):
        assert abs(hs_norm_sq(ID4 / 4) - 0.25) <= 1e-15

    @pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
    def test_pure_states(self, kind):
        assert abs(hs_norm_sq(bell(kind).rho) - 1.0) <= 1e-14

    def test_werner_half(self):
        # Brute-force trace oracle: Tr(rho^2) for the F = 1/2 Werner state
        # is 1/4 + 3 (1/3)^2 / 4 = 1/3.
        rho = werner(0.5).rho
        oracle = np.trace(rho @ rho).real
        assert abs(oracle - 1.0 / 3.0) <= 1e-14
        assert abs(hs_norm_sq(rho) - oracle) <= 1e-14


class TestValidateDensity:
    def test_accepts_bell(self):
        s = validate_density(bell("phi+").rho)
        assert hs_norm_sq(s.rho) == pytest.approx(1.0, abs=1e-14)

    def test_trace_not_one(self):
        with pytest.raises(TraceNotOneError):
            validate_density(np.diag([1.0, 1.0, 0.0, 0.0]))

    def test_not_positive(self):
        with pytest.raises(NotPositiveError):
            validate_density(np.diag([1.5, -0.5, 0.0, 0.0]))

    def test_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 0] = 1e-3j
        with pytest.raises(NonHermitianError):
            validate_density(m)

    def test_rho_is_read_only(self):
        s = validate_density(ID4 / 4)
        with pytest.raises(ValueError):
            s.rho[0, 0] = 0.5


def _invalid(kind):
    """A matrix that fails exactly one of construction's checks."""
    m = np.eye(4, dtype=complex) / 4
    if kind == "shape":
        return np.eye(3) / 3
    if kind == "finite":
        m[1, 1] = np.nan
    elif kind == "hermitian":
        m[2, 0] = 1e-3j
    elif kind == "trace":
        m[0, 0] = 0.5
    else:
        m = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
    return m


_INVALID = [
    ("shape", OutOfRangeError, r"expected a 4x4 matrix, got shape \(3, 3\)"),
    ("finite", OutOfRangeError, "matrix entries must be finite"),
    ("hermitian", NonHermitianError, r"deviates from Hermitian by 1\.000e-03 \(atol 1\.0e-12\)"),
    ("trace", TraceNotOneError, r"trace is \(1\.25\+0j\), differs from 1 by 2\.500e-01"),
    ("negative", NotPositiveError, r"smallest eigenvalue -1\.000e\+00 below floor -1\.0e-10"),
]


class TestConstruction:
    """Building a TwoQubitState validates it: each invalid input raises
    validate_density's error and message from the constructor itself."""

    @pytest.mark.parametrize("kind, error, message", _INVALID, ids=[c[0] for c in _INVALID])
    def test_single(self, kind, error, message):
        m = _invalid(kind)
        for build in (TwoQubitState, validate_density):
            with pytest.raises(error, match=f"^{message}$"):
                build(m)

    # every kind but the shape, which is the whole stack's (below)
    @pytest.mark.parametrize("kind, error, message", _INVALID[1:], ids=[c[0] for c in _INVALID[1:]])
    def test_member_six_of_a_stack(self, kind, error, message):
        rhos = np.stack([random_state(seed).rho for seed in range(10)])
        rhos[6] = _invalid(kind)
        rhos[8] = _invalid("negative")
        for build in (TwoQubitState, validate_density):
            with pytest.raises(error, match=f"^state 6: {message}$"):
                build(rhos)

    def test_stack_of_the_wrong_shape(self):
        # the shape is the whole stack's, so no member is named
        with pytest.raises(OutOfRangeError, match=r"^expected a 4x4 matrix, got shape \(10, 3, 3\)$"):
            TwoQubitState(np.stack([np.eye(3) / 3] * 10))

    @pytest.mark.parametrize("kind, error, message", _INVALID, ids=[c[0] for c in _INVALID])
    def test_replace(self, kind, error, message):
        state = validate_density(ID4 / 4)
        with pytest.raises(error, match=f"^{message}$"):
            dataclasses.replace(state, rho=_invalid(kind))


_W = werner(0.75)

# every record that can hold an array; XStateParams is tested with its stacks in test_states
_RECORDS = {
    "TwoQubitState": lambda: validate_density(ID4 / 4),
    "PauliDecomposition": lambda: pauli_decompose(ID4 / 4),
    "MeasurementSetting": lambda: SETTING_X,
    "OutcomeDistribution": lambda: outcome_probs(_W, SETTING_X, SETTING_X),
    "OptimalPartner": lambda: optimal_partner(_W, SETTING_X),
    "MinErrorRate": lambda: min_error_rate(_W),
    "ProtocolRun": lambda: simulate_protocol(_W, 10, 0, SETTING_X, SETTING_Y),
    "DiscordResult": lambda: discord_eigen(_W),
    "KPair": lambda: k_values(pure_x_params(0.5)),
    "TwirlComparison": lambda: twirl_discord_comparison(_W),
    "TwirlReport": lambda: twirl_monte_carlo(_W, 10, 0),
    "SweepSpec": lambda: SweepSpec(family="werner", grid=np.linspace(0.0, 1.0, 3)),
}


@pytest.mark.parametrize("name, make", list(_RECORDS.items()), ids=list(_RECORDS))
def test_records_compare_and_hash_by_identity(name, make):
    """Two records with equal fields compare without numpy's ambiguous
    truth value: equal only when they are one object. A record hashes."""
    r, again = make(), make()
    assert type(r).__name__ == name
    assert r == r and hash(r) == hash(r)
    assert (r == again) is (r is again)


class TestHermitianEigenvalues:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(hermitian_eigenvalues(ID4 / 4), [0.25] * 4, atol=1e-15)

    def test_bell_is_rank_one(self):
        np.testing.assert_allclose(hermitian_eigenvalues(bell("phi+").rho), [1, 0, 0, 0], atol=1e-14)

    def test_werner_three_quarters(self):
        np.testing.assert_allclose(
            hermitian_eigenvalues(werner(0.75).rho),
            [0.75, 1 / 12, 1 / 12, 1 / 12],
            atol=1e-14,
        )

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = 1e-5
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(m)

    def test_descending_and_sum_to_trace(self):
        for seed in range(100):
            ev = hermitian_eigenvalues(random_state(seed).rho)
            assert np.all(np.diff(ev) <= 0)
            # every state passed construction's 1e-12 trace gate, and over
            # these seeds the eigenvalue sum stays within 6.7e-16 (3 eps) of 1
            assert abs(np.sum(ev) - 1.0) <= 16 * np.finfo(float).eps
            assert ev[-1] >= -1e-10
            assert ev[0] <= 1 + 1e-10
