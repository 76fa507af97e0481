"""State constructor and state-file schema tests."""

import dataclasses
import json
import math

import numpy as np
import pytest

from twirlkit import (
    InvalidXParamsError,
    OutOfRangeError,
    SchemaError,
    XStateParams,
    bell,
    depolarized_pure,
    fidelity_phi_plus,
    hs_norm_sq,
    load_state_file,
    pure_state,
    random_state,
    state_from_dict,
    validate_density,
    werner,
    x_state,
)
from twirlkit.states import sample_x_params

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def oracle_T(rho):
    return np.array(
        [[np.trace(rho @ np.kron(p, q)).real for q in (_SX, _SY, _SZ)] for p in (_SX, _SY, _SZ)]
    )


class TestPureState:
    def test_gamma_zero_is_phi_plus(self):
        np.testing.assert_allclose(pure_state(0.0).rho, bell("phi+").rho, atol=1e-15)

    def test_gamma_right_angle_is_product(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(pure_state(math.pi / 2).rho, expected, atol=1e-15)

    def test_entries_at_pi_over_three(self):
        # rho14 = cos(g)/2 and rho11 = (1 + sin(g))/2 from expanding the amplitudes
        rho = pure_state(math.pi / 3).rho
        assert rho[0, 3].real == pytest.approx(0.25, abs=1e-15)
        assert rho[0, 0].real == pytest.approx((1 + math.sin(math.pi / 3)) / 2, abs=1e-15)

    @pytest.mark.parametrize("gamma", [-0.1, math.pi / 2 + 1e-6, 4.0])
    def test_out_of_range(self, gamma):
        with pytest.raises(OutOfRangeError):
            pure_state(gamma)


class TestWerner:
    def test_f_one_is_phi_plus(self):
        np.testing.assert_allclose(werner(1.0).rho, bell("phi+").rho, atol=1e-15)

    def test_f_quarter_is_maximally_mixed(self):
        np.testing.assert_allclose(werner(0.25).rho, np.eye(4) / 4, atol=1e-15)

    def test_correlation_matrix_three_quarters(self):
        np.testing.assert_allclose(
            oracle_T(werner(0.75).rho), np.diag([2 / 3, -2 / 3, 2 / 3]), atol=1e-14
        )

    def test_x_entries(self):
        f = 0.6
        rho = werner(f).rho
        assert rho[0, 0].real == pytest.approx((2 * f + 1) / 6, abs=1e-14)
        assert rho[1, 1].real == pytest.approx((1 - f) / 3, abs=1e-14)
        assert rho[0, 3].real == pytest.approx((4 * f - 1) / 6, abs=1e-14)
        assert rho[1, 2] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("f", [-0.01, 1.01])
    def test_out_of_range(self, f):
        with pytest.raises(OutOfRangeError):
            werner(f)

    def test_bit_identical_to_bell_projector_sum(self):
        def bell_sum(f):
            rho = f * bell("phi+").rho
            for kind in ("phi-", "psi+", "psi-"):
                rho = rho + (1.0 - f) / 3.0 * bell(kind).rho
            return rho

        rng = np.random.default_rng(11)
        grid = np.concatenate([[0.0, 0.25, 1.0, 1 / 3, 0.75], np.linspace(0.0, 1.0, 501), rng.uniform(0.0, 1.0, 500)])
        for f in grid:
            f = float(f)
            np.testing.assert_array_equal(werner(f).rho.view(np.uint64), bell_sum(f).view(np.uint64), err_msg=f"F={f!r}")


class TestBell:
    @pytest.mark.parametrize(
        "kind,diag",
        [
            ("phi+", (1.0, -1.0, 1.0)),
            ("phi-", (-1.0, 1.0, 1.0)),
            ("psi+", (1.0, 1.0, -1.0)),
            ("psi-", (-1.0, -1.0, -1.0)),
        ],
    )
    def test_correlation_matrices(self, kind, diag):
        np.testing.assert_allclose(oracle_T(bell(kind).rho), np.diag(diag), atol=1e-14)

    def test_unknown_kind(self):
        with pytest.raises(OutOfRangeError):
            bell("phi")


class TestXState:
    def test_matches_werner(self):
        f = 0.7
        p = XStateParams(
            rho11=(2 * f + 1) / 6, rho22=(1 - f) / 3, rho33=(1 - f) / 3,
            rho44=(2 * f + 1) / 6, rho14=(4 * f - 1) / 6, rho23=0.0,
        )
        np.testing.assert_allclose(x_state(p).rho, werner(f).rho, atol=1e-12)

    def test_matches_pure(self):
        g = 0.9
        p = XStateParams(
            rho11=(1 + math.sin(g)) / 2, rho22=0.0, rho33=0.0,
            rho44=(1 - math.sin(g)) / 2, rho14=math.cos(g) / 2, rho23=0.0,
        )
        np.testing.assert_allclose(x_state(p).rho, pure_state(g).rho, atol=1e-12)

    def test_basis_state(self):
        p = XStateParams(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(x_state(p).rho, expected, atol=0)

    def test_correlation_zeros(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1, 0.15, 0.1, gamma14=0.7, gamma13=2.1)
        T = oracle_T(x_state(p).rho)
        for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
            assert abs(T[i, j]) <= 1e-14

    def test_phases_enter_off_diagonals(self):
        p = XStateParams(0.4, 0.3, 0.2, 0.1, 0.15, 0.1, gamma14=0.7, gamma13=2.1)
        rho = x_state(p).rho
        assert rho[0, 3] == pytest.approx(0.15 * np.exp(0.7j), abs=1e-15)
        assert rho[1, 2] == pytest.approx(0.1 * np.exp(2.1j), abs=1e-15)
        assert rho[3, 0] == pytest.approx(np.conj(rho[0, 3]), abs=1e-16)

    def test_rejects_bad_normalization(self):
        with pytest.raises(InvalidXParamsError):
            x_state(XStateParams(0.5, 0.5, 0.5, 0.5, 0.0, 0.0))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(InvalidXParamsError):
            x_state(XStateParams(1.2, -0.2, 0.0, 0.0, 0.0, 0.0))

    def test_rejects_oversized_off_diagonal(self):
        with pytest.raises(InvalidXParamsError):
            x_state(XStateParams(0.5, 0.0, 0.0, 0.5, 0.6, 0.0))


def reference_sample_x_params(rng):
    """sample_x_params as it was before it took a count: one set per call."""
    d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    r14 = rng.uniform(0.0, 1.0) * math.sqrt(d[0] * d[3])
    r23 = rng.uniform(0.0, 1.0) * math.sqrt(d[1] * d[2])
    g14, g13 = rng.uniform(0.0, 2 * math.pi, 2)
    return XStateParams(d[0], d[1], d[2], d[3], r14, r23, g14, g13)


def _typed_fields(p):
    return [(type(v), v) for v in dataclasses.astuple(p)]


class TestSampleXParams:
    def test_without_count_keeps_its_stream(self):
        # the same values of the same types, and the generator left where it was
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(200):
            assert _typed_fields(sample_x_params(ours)) == _typed_fields(reference_sample_x_params(theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_with_count_draws_one_admissible_block(self):
        p = sample_x_params(np.random.default_rng(3), 500)
        fields = dataclasses.astuple(p)
        assert all(np.shape(v) == (500,) for v in fields)
        diag = np.stack(fields[:4])
        assert np.all(diag >= 0.0) and np.max(np.abs(diag.sum(axis=0) - 1.0)) <= 1e-12
        assert np.all(p.rho14 <= np.sqrt(p.rho11 * p.rho44)) and np.all(p.rho23 <= np.sqrt(p.rho22 * p.rho33))
        assert np.all((0.0 <= np.stack(fields[6:])) & (np.stack(fields[6:]) < 2 * math.pi))
        assert x_state(p).rho.shape == (500, 4, 4)
        again = sample_x_params(np.random.default_rng(3), 500)
        assert all(np.array_equal(u, v) for u, v in zip(fields, dataclasses.astuple(again)))

    def test_stacks_compare_and_hash_by_identity(self):
        # equal stacks compare without numpy's ambiguous truth value; a stack hashes
        p, q = (sample_x_params(np.random.default_rng(3), 3) for _ in range(2))
        assert all(np.array_equal(u, v) for u, v in zip(dataclasses.astuple(p), dataclasses.astuple(q)))
        assert p == p and p != q
        assert hash(p) == hash(p) and len({p, q}) == 2


class TestDepolarizedPure:
    def test_endpoint_pure(self):
        np.testing.assert_allclose(depolarized_pure(0.4, 1.0).rho, pure_state(0.4).rho, atol=0)

    def test_endpoint_mixed(self):
        np.testing.assert_allclose(depolarized_pure(0.4, 0.0).rho, np.eye(4) / 4, atol=0)

    def test_corner_entry(self):
        # rho14 = p cos(g) / 2
        rho = depolarized_pure(0.0, 0.5).rho
        assert rho[0, 3].real == pytest.approx(0.25, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            depolarized_pure(0.1, 1.5)
        with pytest.raises(OutOfRangeError):
            depolarized_pure(-0.1, 0.5)


class TestFidelity:
    def test_phi_plus(self):
        assert fidelity_phi_plus(bell("phi+")) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert fidelity_phi_plus(validate_density(np.eye(4) / 4)) == pytest.approx(0.25, abs=1e-15)

    def test_pure_family_grid(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            assert abs(fidelity_phi_plus(pure_state(g)) - math.cos(g / 2) ** 2) <= 1e-12


class TestRandomState:
    def test_any_seed_is_valid(self):
        for seed in range(25):
            validate_density(random_state(seed).rho)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_state(123).rho, random_state(123).rho)
        assert np.max(np.abs(random_state(1).rho - random_state(2).rho)) > 1e-3

    def test_purity_spread(self):
        purities = [hs_norm_sq(random_state(seed).rho) for seed in range(10_000)]
        mean = float(np.mean(purities))
        assert 0.25 < mean < 1.0
        assert min(purities) > 0.25


class TestStateSchema:
    def test_family_pure(self):
        s = state_from_dict({"family": "pure", "gamma": 0.5})
        np.testing.assert_allclose(s.rho, pure_state(0.5).rho, atol=0)

    def test_family_werner(self):
        s = state_from_dict({"family": "werner", "F": 0.75})
        np.testing.assert_allclose(s.rho, werner(0.75).rho, atol=0)

    def test_family_depolarized(self):
        s = state_from_dict({"family": "depolarized", "gamma": 0.3, "p": 0.5})
        np.testing.assert_allclose(s.rho, depolarized_pure(0.3, 0.5).rho, atol=0)

    def test_matrix_roundtrip(self):
        rho = werner(0.6).rho
        doc = {"matrix": [[{"re": float(v.real), "im": float(v.imag)} for v in row] for row in rho]}
        np.testing.assert_allclose(state_from_dict(doc).rho, rho, atol=0)

    def test_pauli_form(self):
        t = (4 * 0.75 - 1) / 3
        doc = {"pauli": {"x": [0, 0, 0], "y": [0, 0, 0], "T": np.diag([t, -t, t]).tolist()}}
        np.testing.assert_allclose(state_from_dict(doc).rho, werner(0.75).rho, atol=1e-15)

    def test_requires_exactly_one_representation(self):
        with pytest.raises(SchemaError):
            state_from_dict({"family": "pure", "gamma": 0.1, "pauli": {}})
        with pytest.raises(SchemaError):
            state_from_dict({})

    def test_rejects_unknown_family(self):
        with pytest.raises(SchemaError):
            state_from_dict({"family": "ghz"})
        with pytest.raises(SchemaError):
            state_from_dict({"family": ["pure"]})

    def test_rejects_missing_parameter(self):
        with pytest.raises(SchemaError):
            state_from_dict({"family": "depolarized", "gamma": 0.3})

    def test_rejects_extra_keys(self):
        with pytest.raises(SchemaError):
            state_from_dict({"family": "werner", "F": 0.5, "gamma": 0.1})

    def test_rejects_non_number(self):
        with pytest.raises(SchemaError):
            state_from_dict({"family": "werner", "F": "high"})
        with pytest.raises(SchemaError):
            state_from_dict({"family": "werner", "F": True})

    def test_rejects_bad_matrix_shape(self):
        with pytest.raises(SchemaError):
            state_from_dict({"matrix": [[{"re": 1.0, "im": 0.0}]]})

    def test_invalid_density_still_rejected(self):
        doc = {"pauli": {"x": [0, 0, 0], "y": [0, 0, 0], "T": np.diag([1.0, 1.0, 1.0]).tolist()}}
        with pytest.raises(Exception):
            state_from_dict(doc)

    def test_load_state_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"family": "werner", "F": 0.75}))
        np.testing.assert_allclose(load_state_file(path).rho, werner(0.75).rho, atol=0)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_file(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_state_file(path)
