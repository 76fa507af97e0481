"""Correlation measure tests.

The grid oracle is itself the definition-based reference for the closed
forms; the dephasing map is additionally cross-checked here against an
independently assembled projector construction. The oracle's route for one
state, its scan scored by the dephasing definition rather than the
residual's 3x3 form, then the same closed-form polish rounds on a one-row
form, is kept here as ``reference_discord_grid_oracle``, and the oracle
must agree with it bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from twirlkit import (
    BranchConditionError,
    ConditionsNotMetError,
    OutOfRangeError,
    PauliDecomposition,
    XStateParams,
    bell,
    binary_entropy,
    checks,
    concurrence,
    cq_state,
    delta_min_from_discord,
    depolarized_pure,
    discord_eigen,
    discord_error_rate_bound,
    discord_grid_oracle,
    discord_x_closed_form,
    entanglement_of_formation,
    hs_norm_sq,
    k_values,
    measures,
    min_error_rate,
    pauli_compose,
    pure_state,
    random_state,
    twirl_discord_comparison,
    validate_density,
    werner,
    x_state,
)
from twirlkit.states import sample_x_params
from twirlkit.twirl import _haar_su2_batch


def _haar_su2(rng):
    """One Haar-distributed SU(2) matrix from ``rng``."""
    return _haar_su2_batch(rng, 1)[0]


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


def reference_discord_grid_oracle(state):
    """The grid oracle on one state, every scan point dephased: the first
    grid point within _TIE of the minimum, polished on a one-row form."""
    coarse_steps = 24
    rho = state.rho
    thetas = np.linspace(0.0, np.pi / 2, coarse_steps)
    phis = np.linspace(0.0, 2 * np.pi, coarse_steps, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    tg, pg = tg.ravel(), pg.ravel()
    vals = measures._cq_residual(rho, measures._sph(tg, pg))
    k = int(np.flatnonzero(vals <= vals.min() + measures._TIE)[0])
    g, purity = measures._residual_form(rho[None])
    theta, phi = tg[k:k + 1], pg[k:k + 1]
    for _ in range(measures._POLISH_ROUNDS):
        theta, phi = measures._polish(g, purity, theta, phi)
    n = measures._sph(theta, phi)
    return max(float(measures._cq_residual(rho, n)[0]), 0.0), measures._canonical_direction(n[0])


def _rotated(diagonals, seed, rotations):
    """The states with x = y = 0 and T = diag(d) for each d of ``diagonals``,
    each under ``rotations`` local Haar rotations drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for d in diagonals:
        rho = pauli_compose(PauliDecomposition(np.zeros(3), np.zeros(3), np.diag(d)))
        for _ in range(rotations):
            w = np.kron(_haar_su2(rng), _haar_su2(rng))
            yield validate_density(w @ rho @ w.conj().T)


def _near_degenerate():
    """The oracle probe T = diag(0.5, -0.5(1-eps), 0.3), x = y = 0: each of
    12 eps from 1e-9 to 1e-3 under 10 local Haar rotations."""
    return _rotated([[0.5, -0.5 * (1 - eps), 0.3] for eps in np.logspace(-9, -3, 12)], 2024, 10)


def _wide_probe():
    """The near-degenerate probe over a wider range: eps = 0 and 25 eps
    from 1e-13 to 1e-1, each under 40 local Haar rotations."""
    eps = [0.0, *np.logspace(-13, -1, 25)]
    return _rotated([[0.5, -0.5 * (1 - e), 0.3] for e in eps], 77, 40)


def _bell_diagonal():
    """Bell-diagonal T = diag(c1, -c1(1-t), c3) for t in {0, 1e-10, 1e-6}:
    40 (c1, c3) pairs per t, with c3 in [-0.5, 0.5] and |c1| up to
    0.9 (1 + c3) / 2 so every eigenvalue stays positive, each under 4 local
    Haar rotations."""
    rng = np.random.default_rng(91)
    c3 = rng.uniform(-0.5, 0.5, 40)
    c1 = 0.45 * (1 + c3) * rng.uniform(-1.0, 1.0, 40)
    return _rotated([[a, -a * (1 - t), b] for t in (0.0, 1e-10, 1e-6) for a, b in zip(c1, c3)], 92, 4)


def _products():
    """Product states (random local spectra and frames, and two with zero
    in-plane correlation rows) and I/4."""
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v = _haar_su2(rng), _haar_su2(rng)
        yield validate_density(np.kron(u @ np.diag([0.8, 0.2]) @ u.conj().T, v @ np.diag([0.6, 0.4]) @ v.conj().T))
    a, b = np.array([0.0, 0.0, 0.6]), np.array([0.3, 0.4, 0.5])
    yield validate_density(pauli_compose(PauliDecomposition(a, b, np.outer(a, b))))
    yield validate_density(pauli_compose(PauliDecomposition(-a, b, np.outer(-a, b))))
    yield validate_density(np.eye(4) / 4)


def _x_states():
    rng = np.random.default_rng(11)
    return (x_state(sample_x_params(rng)) for _ in range(40))


def _mirror_states():
    """Correlation matrices with a decoupled x row and dyadic entries: the
    residual is exactly even in n_x, so each minimum lies in the plane
    n_x = 0, where only rounding sets the sign of the reported n_x. The
    second state's scan also meets two exactly tied grid points, and the
    grid's point order picks the start."""
    for t in ([0.25, 0.5, 0.25, 0.125, -0.5], [0.125, 0.5, 0.125, -0.125, -0.5],
              [0.25, 0.25, 0.125, 0.125, -0.5], [0.25, 0.25, -0.25, 0.125, 0.25]):
        T = np.array([[t[0], 0.0, 0.0], [0.0, t[1], t[2]], [0.0, t[3], t[4]]])
        yield validate_density(pauli_compose(PauliDecomposition(np.zeros(3), np.zeros(3), T)))


def _rank_deficient():
    """Random states G G^dag / tr(G G^dag) with G a complex Gaussian 4x1
    (rank 1, pure) or 4x2 (rank 2), 40 of each rank."""
    rng = np.random.default_rng(31)
    for rank in (1, 2):
        for _ in range(40):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            m = g @ g.conj().T
            yield validate_density(m / np.trace(m).real)


ORACLE_FAMILIES = {
    "random": lambda: (random_state(seed) for seed in range(200)),
    "near_degenerate": _near_degenerate,
    "pure": lambda: (pure_state(g) for g in np.linspace(0.0, math.pi / 2, 21)),
    "werner": lambda: (werner(f) for f in np.linspace(0.25, 1.0, 16)),
    "product": _products,
    "x_params": _x_states,
    "mirror": _mirror_states,
    "rank_deficient": _rank_deficient,
}
# Near-degenerate probes with narrow valleys, where one polish round leaves
# the oracle up to 2.6e-6 off; only the eigen-form agreement and the polish
# tests run on them, being too large for the per-state reference.
POLISH_PROBES = {"wide": _wide_probe, "bell_diagonal": _bell_diagonal}


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


STACKS = {
    "two": lambda: pure_state(np.array([0.3, 0.5])),
    "three": lambda: werner(np.array([0.5, 0.75, 0.9])),
    # as many members as the coarse scan has points
    "576": lambda: pure_state(np.linspace(0.1, 1.4, 576)),
}
# the oracle and the three functions that report discord through discord_eigen
DISCORD_CALLS = {
    "discord_grid_oracle": discord_grid_oracle,
    "discord_error_rate_bound": discord_error_rate_bound,
    "delta_min_from_discord": delta_min_from_discord,
    "twirl_discord_comparison": twirl_discord_comparison,
}


def _fields(result):
    """A result's fields in order: the (lhs, rhs) pair, a dataclass's fields, or the value itself."""
    if isinstance(result, tuple):
        return list(result)
    if dataclasses.is_dataclass(result):
        return [getattr(result, f.name) for f in dataclasses.fields(result)]
    return [result]


@pytest.mark.parametrize("stack", list(STACKS))
@pytest.mark.parametrize("call", list(DISCORD_CALLS))
def test_stacked_call_matches_members(call, stack):
    stacked = STACKS[stack]()
    fields = _fields(DISCORD_CALLS[call](stacked))
    for i, rho in enumerate(stacked.rho):
        single = _fields(DISCORD_CALLS[call](validate_density(rho)))
        # one state keeps its Python floats
        assert all(type(v) is float for v in single if not isinstance(v, (str, np.ndarray)))
        assert [v if isinstance(v, str) else v[i].tobytes() for v in fields] == [
            v if isinstance(v, str) else np.asarray(v).tobytes() for v in single
        ], (call, i)


# The oracle against its closed forms 1/8 (pure, gamma = pi/3) and 2/9
# (Werner, F = 3/4), measured with numpy 2.4.6 and OpenBLAS 0.3.31: 5.6e-17
# and 0. Eight times that leaves four units in the last place of 1/2
# (1.1e-16 each) for other LAPACK builds.
ORACLE_VALUE_ATOL = 8 * 5.56e-17


class TestDiscordGridOracle:
    def test_pure_state_value(self):
        res = discord_grid_oracle(pure_state(math.pi / 3))
        assert res.value == pytest.approx(0.125, abs=ORACLE_VALUE_ATOL)
        np.testing.assert_allclose(res.argmin_direction, [0.0, 0.0, 1.0], atol=1e-4)
        assert res.method == "grid-oracle"
        assert discord_grid_oracle(pure_state(1.0)).value == pytest.approx(0.5 * math.cos(1.0) ** 2, abs=1e-12)

    def test_werner_value(self):
        res = discord_grid_oracle(werner(0.75))
        assert res.value == pytest.approx(2 / 9, abs=ORACLE_VALUE_ATOL)
        # fully degenerate landscape: ties resolve to the z axis
        np.testing.assert_allclose(res.argmin_direction, [0.0, 0.0, 1.0], atol=1e-12)

    def test_product_states_have_zero_discord(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            u, v = _haar_su2(rng), _haar_su2(rng)
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

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_bit_identical_to_per_start_reference(self, family):
        for k, s in enumerate(ORACLE_FAMILIES[family]()):
            res = discord_grid_oracle(s)
            value, direction = reference_discord_grid_oracle(s)
            assert type(res.value) is float
            assert (repr(res.value), res.argmin_direction.tobytes()) == (repr(value), direction.tobytes()), (family, k)

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_stack_matches_members(self, family):
        members = list(ORACLE_FAMILIES[family]())
        res = discord_grid_oracle(validate_density(np.stack([s.rho for s in members])))
        assert res.value.shape == (len(members),) and res.argmin_direction.shape == (len(members), 3)
        for k, s in enumerate(members):
            single = discord_grid_oracle(s)
            assert (repr(float(res.value[k])), res.argmin_direction[k].tobytes()) == (
                repr(single.value), single.argmin_direction.tobytes()), (family, k)

    def test_scan_blocks_match_members(self, monkeypatch):
        # two whole scan blocks and one state over; the scan is the one
        # _form_residual call with a shared (576, 3) set of directions
        members = [random_state(seed) for seed in range(2 * measures._SCAN_BLOCK + 1)]
        scanned = []
        form = measures._form_residual

        def recording_form(g, purity, dirs):
            if dirs.ndim == 2:
                scanned.append(len(g))
            return form(g, purity, dirs)

        monkeypatch.setattr(measures, "_form_residual", recording_form)
        res = discord_grid_oracle(validate_density(np.stack([s.rho for s in members])))
        assert scanned == [measures._SCAN_BLOCK, measures._SCAN_BLOCK, 1]
        for k, s in enumerate(members):
            single = discord_grid_oracle(s)
            assert (repr(float(res.value[k])), res.argmin_direction[k].tobytes()) == (
                repr(single.value), single.argmin_direction.tobytes()), k

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_residual_form_is_the_dephasing_distance(self, family):
        rng = np.random.default_rng(8)
        rho = np.stack([s.rho for s in ORACLE_FAMILIES[family]()])
        dirs = np.array([[unit(rng) for _ in range(16)] for _ in rho])
        form = measures._form_residual(*measures._residual_form(rho), dirs)
        for k, m in enumerate(rho):
            np.testing.assert_allclose(form[k], measures._cq_residual(m, dirs[k]), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("seeds", [pytest.param([0], id="0"), pytest.param([5], id="5"),
                                       pytest.param(list(range(10)), id="stack")])
    def test_value_is_dephased_once(self, monkeypatch, seeds):
        # the scan and polish score with the 3x3 form; only the reported values come from the definition
        calls = []
        residual = measures._cq_residual
        monkeypatch.setattr(measures, "_cq_residual", lambda rho, dirs: calls.append(dirs.shape) or residual(rho, dirs))
        states = [random_state(seed) for seed in seeds]
        discord_grid_oracle(states[0] if len(states) == 1 else validate_density(np.stack([s.rho for s in states])))
        assert calls == [(len(seeds), 3)]


def _stacked(family):
    return validate_density(np.stack([s.rho for s in {**ORACLE_FAMILIES, **POLISH_PROBES}[family]()]))


class TestPolish:
    @pytest.mark.parametrize("family", list(ORACLE_FAMILIES) + list(POLISH_PROBES))
    def test_agrees_with_eigen_form(self, family):
        states = _stacked(family)
        gap = np.abs(discord_grid_oracle(states).value - discord_eigen(states).value)
        assert float(np.max(gap)) <= 1e-12, (family, int(np.argmax(gap)))

    @pytest.mark.parametrize("family", list(ORACLE_FAMILIES) + list(POLISH_PROBES))
    def test_never_raises_a_start_form_value(self, monkeypatch, family):
        calls = []
        polish = measures._polish
        monkeypatch.setattr(measures, "_polish", lambda *a: calls.append((a, polish(*a))) or calls[-1][1])
        discord_grid_oracle(_stacked(family))
        assert len(calls) == measures._POLISH_ROUNDS
        for (g, purity, theta, phi), polished in calls:
            before = measures._form_residual(g, purity, measures._sph(theta, phi)[:, None])[:, 0]
            after = measures._form_residual(g, purity, measures._sph(*polished)[:, None])[:, 0]
            assert (after <= before).all()
        # each round starts where the last one ended
        for (_, earlier), ((_, _, theta, phi), _) in zip(calls, calls[1:]):
            assert earlier[0] is theta and earlier[1] is phi

    def test_circle_step_is_the_circle_minimum(self):
        # from random orthonormal (n, w), against a dense scan of the great circle
        rng = np.random.default_rng(12)
        rho = _stacked("random").rho[:50]
        g, purity = measures._residual_form(rho)
        n = np.array([unit(rng) for _ in rho])
        w = np.cross(n, [unit(rng) for _ in rho])
        w /= np.linalg.norm(w, axis=1)[:, None]
        stepped = measures._circle_step(g, purity, n, w)
        a = np.linspace(0.0, np.pi, 3601)
        scan = measures._form_residual(g, purity, np.cos(a)[:, None] * n[:, None] + np.sin(a)[:, None] * w[:, None])
        value = measures._form_residual(g, purity, stepped[:, None])[:, 0]
        assert (value <= scan.min(axis=1) + 1e-15).all()

    def test_gate_keeps_degenerate_landscapes_on_z(self, monkeypatch):
        # every direction minimizes on these; an ungated polish wanders off z
        states = validate_density(np.stack([werner(f).rho for f in np.linspace(0.0, 1.0, 16)] + [np.eye(4) / 4]))
        z = np.tile([0.0, 0.0, 1.0], (len(states.rho), 1))
        np.testing.assert_allclose(discord_grid_oracle(states).argmin_direction, z, rtol=0.0, atol=1e-12)
        polish = measures._polish

        def ungated(*args):
            tie, measures._TIE = measures._TIE, -np.inf
            try:
                return polish(*args)
            finally:
                measures._TIE = tie

        monkeypatch.setattr(measures, "_polish", ungated)
        off_axis = np.hypot(*discord_grid_oracle(states).argmin_direction[:, :2].T)
        assert np.max(off_axis) > 0.1


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


# The X closed form against the oracle on the 40 sampled states of
# test_agrees_with_oracle_when_applicable, measured with numpy 2.4.6 and
# OpenBLAS 0.3.31: 5.55e-17 at worst (2^-54; 20 of the 40 agree exactly).
# Eight times that leaves four units in the last place of 1/2 (1.1e-16
# each) for other LAPACK builds.
X_CLOSED_FORM_ATOL = 8 * 5.56e-17


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
            assert abs(discord_x_closed_form(p).value - oracle.value) <= X_CLOSED_FORM_ATOL
            assert math.hypot(*oracle.argmin_direction[:2]) <= 1e-4


# first-qubit Bloch vectors for the bound's direction: zero, along +z and -z,
# 1e-13 rad off each pole, either side of the |x| = 1e-12 switch to z, and
# in the plane; each with the direction the residual is read along
_TILT = 1e-13
BOUND_DIRECTIONS = {
    "zero": ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
    "plus_z": ((0.0, 0.0, 0.3), (0.0, 0.0, 1.0)),
    "minus_z": ((0.0, 0.0, -0.3), (0.0, 0.0, -1.0)),
    "near_plus_z": ((0.3 * math.sin(_TILT), 0.0, 0.3 * math.cos(_TILT)), (math.sin(_TILT), 0.0, math.cos(_TILT))),
    "near_minus_z": ((0.0, 0.3 * math.sin(_TILT), -0.3 * math.cos(_TILT)), (0.0, math.sin(_TILT), -math.cos(_TILT))),
    "below_switch": ((1e-13, 0.0, 0.0), (0.0, 0.0, 1.0)),
    "above_switch": ((2e-12, 0.0, 0.0), (1.0, 0.0, 0.0)),
    "in_plane": ((0.2, -0.1, 0.0), (2 / math.sqrt(5), -1 / math.sqrt(5), 0.0)),
}
# the closed-form rhs against the residual from the definition: 1.6e-17 was
# the worst measured; snapping the tilted vectors onto the pole moves the
# residual by 2.1e-16 and more
DEPHASING_GAP = 6e-17
# The bound's sides on the pure and Werner families against their shared
# closed form, and against each other: 2.8e-17 and 1.4e-17 were the worst
# measured (numpy 2.4.6, OpenBLAS 0.3.31). Sixteen times the larger leaves
# four units in the last place of 1/2 for other LAPACK builds.
SATURATION_ATOL = 16 * 2.78e-17


class TestDiscordErrorRateBound:
    @pytest.mark.parametrize("gamma", [0.0, 0.6, 1.2, math.pi / 2])
    def test_saturated_on_pure_family(self, gamma):
        lhs, rhs = discord_error_rate_bound(pure_state(gamma))
        assert lhs == pytest.approx(0.5 * math.cos(gamma) ** 2, abs=SATURATION_ATOL)
        assert abs(lhs - rhs) <= SATURATION_ATOL

    @pytest.mark.parametrize("f", [0.25, 0.6, 1.0])
    def test_saturated_on_werner_family(self, f):
        lhs, rhs = discord_error_rate_bound(werner(f))
        assert lhs == pytest.approx((4 * f - 1) ** 2 / 18, abs=SATURATION_ATOL)
        assert abs(lhs - rhs) <= SATURATION_ATOL

    def test_holds_on_random_states(self):
        for seed in range(500):
            lhs, rhs = discord_error_rate_bound(random_state(seed))
            assert lhs <= rhs + 1e-9

    def test_requires_aligned_frame(self):
        # A state whose first-qubit Bloch vector points along x while the
        # correlations live in the z row: the raw rows give a vanishing
        # error-rate side although the discord is 1/16, so the bound only
        # holds in the adapted frame, whose z is the Bloch direction x (the
        # function reads the residual along it).
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
        # the grid oracle witnesses the bound's eigen lhs on a state whose
        # Bloch vector is far from z
        s = random_state(77)
        lhs, _ = discord_error_rate_bound(s)
        assert math.hypot(*s.decomp.x[:2]) > 0.1
        assert abs(discord_grid_oracle(s).value - lhs) <= 1e-9

    @pytest.mark.parametrize("case", list(BOUND_DIRECTIONS))
    def test_rhs_is_the_residual_along_the_bloch_direction(self, case):
        # distinct T rows, so each direction gives its own residual
        x, n = BOUND_DIRECTIONS[case]
        t = np.array([[0.3, 0.05, 0.0], [0.0, -0.2, 0.04], [0.02, 0.0, 0.1]])
        s = validate_density(pauli_compose(PauliDecomposition(np.array(x), np.array([0.0, 0.1, 0.0]), t)))
        _, rhs = discord_error_rate_bound(s)
        assert abs(rhs - hs_norm_sq(cq_state(s, n).rho - s.rho)) <= DEPHASING_GAP


class TestDeltaMinFromDiscord:
    def test_pure_family_anchor(self):
        assert delta_min_from_discord(pure_state(math.pi / 3)) == pytest.approx(0.25, abs=1e-8)

    def test_werner_anchor(self):
        assert delta_min_from_discord(werner(0.75)) == pytest.approx(1 / 6, abs=1e-8)

    def test_equals_min_error_rate_on_families(self):
        # condition I holds where z attains the minimum, also on a degenerate
        # spectrum (Werner states, I/4), where the eigen form's top
        # eigenvector is any direction of a tied eigenspace
        targets = [pure_state(g) for g in np.linspace(0.0, math.pi / 2, 20)]
        targets += [werner(f) for f in [*np.linspace(0.0, 1.0, 10), 0.25, 0.5]]
        targets += [validate_density(np.eye(4) / 4), pure_state(np.linspace(0.0, math.pi / 2, 200))]
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
        with pytest.raises(ConditionsNotMetError, match="is off the z axis") as err:
            delta_min_from_discord(x_state(p))
        assert err.value.condition == "I"

    @pytest.mark.parametrize("t", [
        [[1e-5, 0, 0], [0, 1e-5, 0], [0.09, 0, 0.5]],
        [[5e-5, 0, 0], [0, 5e-5, 0], [0.025, 0, 0.5]],
    ])
    def test_condition_one_gates_in_error_rate_units(self, t):
        # z misses the minimum by under 1e-12 in discord, but near zero
        # discord the square root makes the result 3.9e-8 and 1.6e-8 above
        # min_error_rate, past the promised 1e-8
        state = validate_density(pauli_compose(PauliDecomposition(np.zeros(3), np.zeros(3), np.array(t))))
        assert 0.5 * (1 - math.sqrt(2 * discord_eigen(state).value)) - min_error_rate(state).value > 1e-8
        with pytest.raises(ConditionsNotMetError, match="is off the z axis by .* in error rate") as err:
            delta_min_from_discord(state)
        assert err.value.condition == "I"

    def test_condition_one_rejects_tilted_frame(self):
        rho = 0.25 * (np.eye(4) + 0.5 * np.kron(_SX, np.eye(2)) + 0.5 * np.kron(_SZ, _SZ))
        with pytest.raises(ConditionsNotMetError, match="in-plane magnitude") as err:
            delta_min_from_discord(validate_density(rho))
        assert err.value.condition == "I"

    @pytest.mark.parametrize("members,index,condition", [
        # unequal rows (II) at index 2
        (["werner", "pure", "unequal"], 2, "II"),
        # the first failing member decides, with its own first failed condition
        (["pure", "tilted", "unequal", "off_axis"], 1, "I"),
        (["werner", "unequal", "tilted"], 1, "II"),
        (["pure", "werner", "off_axis"], 2, "I"),
    ])
    def test_stack_names_first_failing_member(self, members, index, condition):
        rhos = {
            "werner": werner(0.75).rho,
            "pure": pure_state(math.pi / 3).rho,
            "unequal": x_state(XStateParams(0.4, 0.35, 0.15, 0.1, 0.1, 0.05)).rho,
            "off_axis": x_state(XStateParams(0.25, 0.25, 0.25, 0.25, 0.25, 0.25)).rho,
            "tilted": 0.25 * (np.eye(4) + 0.5 * np.kron(_SX, np.eye(2)) + 0.5 * np.kron(_SZ, _SZ)),
        }
        stack = validate_density(np.stack([rhos[m] for m in members]))
        with pytest.raises(ConditionsNotMetError) as err:
            delta_min_from_discord(stack)
        assert err.value.condition == condition
        with pytest.raises(ConditionsNotMetError) as single:
            delta_min_from_discord(validate_density(rhos[members[index]]))
        assert str(err.value) == str(single.value).replace("not met: ", f"not met: state {index}: ")


def _real_random_rhos(seed, n, rank):
    """``n`` real states rho = G G^T / tr, G a (4, rank) standard normal matrix."""
    g = np.random.default_rng(seed).standard_normal((n, 4, rank))
    m = g @ g.mT
    return m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]


def _route_concurrence(rho):
    """C from ``_flipped_spectrum`` of the ``eigh`` of ``rho``, whose route follows the dtype of ``rho``."""
    lam = measures._flipped_spectrum(*np.linalg.eigh(rho))
    c = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.where(c > 0.0, c, 0.0)


_ROUTE_CASES = ("bell", "maximally-mixed", "werner-edges", "werner-grid", "rank-one", "full-rank")


@pytest.fixture(scope="module")
def route_cases():
    """(real stack, exact concurrences or None) per case of _ROUTE_CASES."""
    half = 0.5
    edges = np.array([0.0, np.nextafter(half, 0.0), half, np.nextafter(half, 1.0), 1.0])
    grid = np.linspace(0.0, 1.0, 20001)
    psi = np.random.default_rng(31).standard_normal((2000, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    cases = {
        "bell": (np.stack([bell(n).rho.real for n in ("phi+", "phi-", "psi+", "psi-")]), np.ones(4)),
        "maximally-mixed": (np.eye(4)[None] / 4, np.zeros(1)),
        "werner-edges": (werner(edges).rho.real, np.maximum(0.0, 2.0 * edges - 1.0)),
        "werner-grid": (werner(grid).rho.real, np.maximum(0.0, 2.0 * grid - 1.0)),
        "rank-one": (psi[:, :, None] * psi[:, None, :], np.abs(2.0 * (psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2]))),
        "full-rank": (_real_random_rhos(32, 20000, 4), None),
    }
    assert tuple(cases) == _ROUTE_CASES
    return cases


# The symmetric eigensolve (float64 input) and the SVD (complex128 input) on
# the same real stacks, measured with numpy 2.4.6 and OpenBLAS 0.3.31
# against a 40-digit mpmath evaluation of Wootters' route. On the cases with
# a closed form the worst error was 2.4e-15 (real) and 2.8e-15 (complex), on
# rank-one states. On the full-rank stack it was 5.0e-14 (real) and 2.1e-14
# (complex, as the route before it), with the routes 6.6e-14 apart: both
# take the square root of an eigenvalue near 3.7e-7, which turns an eigh
# error of one eps into about eps / (2 sqrt(w)). The bounds leave about 2x
# for other LAPACK builds.
ROUTE_EXACT_BOUND = 5e-15
ROUTE_GAP_BOUND = 1.5e-13


# The concurrence and the entanglement of formation against the pure-family
# closed forms, measured with numpy 2.4.6 and OpenBLAS 0.3.31. Each
# tolerance is four times its group's worst gap:
# - C against cos(gamma) on the pure family and on its twirl, 50 gammas
#   each: 5.6e-16 and 1.22e-15;
# - the EoF of the pure state against that of its twirl, 50 gammas: 1.33e-15;
# - twirl_discord_comparison's c_before and c_after at gamma = pi/3 against
#   1/2: 2.2e-16 and 1.7e-16.
PURE_CONCURRENCE_ATOL = 4 * 1.22e-15
PURE_EOF_ATOL = 4 * 1.33e-15
COMPARISON_CONCURRENCE_ATOL = 4 * 2.22e-16


class TestConcurrence:
    @pytest.mark.parametrize("case", _ROUTE_CASES)
    def test_real_route_matches_complex_route(self, route_cases, case):
        rhos, exact = route_cases[case]
        real, cplx = _route_concurrence(rhos), _route_concurrence(rhos.astype(complex))
        assert np.max(np.abs(real - cplx)) <= (ROUTE_GAP_BOUND if exact is None else ROUTE_EXACT_BOUND)
        if exact is not None:
            assert np.max(np.abs(real - exact)) <= ROUTE_EXACT_BOUND
            assert np.max(np.abs(cplx - exact)) <= ROUTE_EXACT_BOUND
        # the library stores these members as complex and takes the real route
        assert concurrence(validate_density(rhos)).tobytes() == real.tobytes()

    def test_pure_family(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            assert concurrence(pure_state(g)) == pytest.approx(math.cos(g), abs=PURE_CONCURRENCE_ATOL)

    def test_twirled_pure_family(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            assert concurrence(werner(math.cos(g / 2) ** 2)) == pytest.approx(math.cos(g), abs=PURE_CONCURRENCE_ATOL)

    def test_product_state_zero(self):
        assert concurrence(pure_state(math.pi / 2)) == 0.0
        mixed = validate_density(np.eye(4) / 4)
        assert concurrence(mixed) == 0.0

    def test_separable_werner_zero(self):
        assert concurrence(werner(0.25)) == 0.0
        assert concurrence(werner(0.5)) == pytest.approx(0.0, abs=1e-8)

    def test_local_unitary_invariance(self):
        # check's own gate; the worst gap on these 50 states is 1.2e-15
        rng = np.random.default_rng(5)
        for seed in range(50):
            s = random_state(seed)
            w = np.kron(_haar_su2(rng), _haar_su2(rng))
            rotated = validate_density(w @ s.rho @ w.conj().T)
            assert abs(concurrence(rotated) - concurrence(s)) <= checks.TOLERANCES["concurrence_invariance"]


class TestEntanglementOfFormation:
    def test_bell_state(self):
        assert entanglement_of_formation(bell("phi+")) == pytest.approx(1.0, abs=1e-14)

    def test_product_state(self):
        assert entanglement_of_formation(pure_state(math.pi / 2)) == 0.0

    def test_equal_for_pure_and_twirled(self):
        for g in np.linspace(0.0, math.pi / 2, 50):
            e1 = entanglement_of_formation(pure_state(g))
            e2 = entanglement_of_formation(werner(math.cos(g / 2) ** 2))
            assert abs(e1 - e2) <= PURE_EOF_ATOL

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        with pytest.raises(OutOfRangeError):
            binary_entropy(1.5)


# d_before and d_after against their closed forms over this class's pure,
# product and depolarized states: 1.25e-16 was the worst measured (numpy
# 2.4.6, OpenBLAS 0.3.31), and four times that leaves about four units in
# the last place of 1/2 for other LAPACK builds.
COMPARISON_DISCORD_ATOL = 4 * 1.25e-16


class TestTwirlDiscordComparison:
    def test_values_at_pi_over_three(self):
        cmp = twirl_discord_comparison(pure_state(math.pi / 3))
        assert cmp.d_before == pytest.approx(0.125, abs=COMPARISON_DISCORD_ATOL)
        assert cmp.d_after == pytest.approx(2 / 9, abs=COMPARISON_DISCORD_ATOL)
        assert cmp.c_before == pytest.approx(0.5, abs=COMPARISON_CONCURRENCE_ATOL)
        assert cmp.c_after == pytest.approx(0.5, abs=COMPARISON_CONCURRENCE_ATOL)

    def test_product_endpoint(self):
        cmp = twirl_discord_comparison(pure_state(math.pi / 2))
        assert cmp.d_before == pytest.approx(0.0, abs=COMPARISON_DISCORD_ATOL)
        assert cmp.d_after == pytest.approx(1 / 18, abs=COMPARISON_DISCORD_ATOL)
        assert cmp.c_before == 0.0
        assert cmp.c_after == 0.0

    @pytest.mark.parametrize("gamma,p", [(0.4, 0.3), (1.0, 0.7), (math.pi / 4, 0.5)])
    def test_depolarized_formulas(self, gamma, p):
        cmp = twirl_discord_comparison(depolarized_pure(gamma, p))
        cg = math.cos(gamma)
        assert cmp.d_before == pytest.approx(p**2 * cg**2 / 2, abs=COMPARISON_DISCORD_ATOL)
        assert cmp.d_after == pytest.approx(p**2 * (1 + 2 * cg) ** 2 / 18, abs=COMPARISON_DISCORD_ATOL)
        assert cmp.d_after >= cmp.d_before - 1e-12
