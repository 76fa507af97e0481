"""Stacked kernels against the per-state calls and the per-state code
they replaced.

Every kernel that takes a (..., 4, 4) stack must give each member bit for
bit the result that member gets on its own, on Hilbert-Schmidt-random
states and on adversarial ones (Bell and product points of the families,
a degenerate error-rate partner, a Bloch vector along -z and the
near-degenerate correlation spectra of the discord oracle probe). The
``reference_*`` functions are the one-state kernels from before the
kernels took stacks, kept so that both agree with them bit for bit too,
except where a kernel now takes the plain numpy form of its quantity: the
phi+ fidelity and the entanglement of formation agree with their
references to a few units in the last place. The discord / error-rate
bound builds no rotation; its two sides are held to the error-rate terms
and the discord of the states that ``reference_align`` rotates into their
adapted frame. The concurrence reference follows the kernel's one-``eigh``
form, with the spin flip as a matrix, and the route it replaced
(``wootters_concurrence``) is held to the gap measured between them.
A stack with an invalid member raises the single-state error type and
names the first bad index.
"""

import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from twirlkit import (
    SETTING_X,
    SETTING_Y,
    BranchConditionError,
    InvalidXParamsError,
    NonHermitianError,
    NotPositiveError,
    OutOfRangeError,
    PauliDecomposition,
    TraceNotOneError,
    TwoQubitState,
    XStateParams,
    checks,
    concurrence,
    correlation,
    cq_state,
    depolarized_pure,
    discord_eigen,
    discord_error_rate_bound,
    discord_x_closed_form,
    entanglement_of_formation,
    eof_from_concurrence,
    error_rate,
    fidelity_phi_plus,
    hermitian_eigenvalues,
    hs_norm_sq,
    k_values,
    min_error_rate,
    optimal_partner,
    outcome_probs,
    pauli_compose,
    pauli_decompose,
    pure_state,
    random_state,
    trace_distance,
    twirl_analytic,
    validate_density,
    werner,
    x_state,
)
from twirlkit import cli, qubit_algebra
from twirlkit.qubit_algebra import _A_OPS, _AB_OPS, _B_OPS, ID2, SIGMA_Y, _clamp_unit, pauli_sigma
from twirlkit.states import _ginibre, pure_x_params, sample_x_params, werner_x_params
from twirlkit.twirl import _haar_su2_batch

_PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


def reference_decompose(rho):
    return tuple(np.einsum(sub, rho, ops).real
                 for sub, ops in (("ij,kji->k", _A_OPS), ("ij,kji->k", _B_OPS), ("ij,klji->kl", _AB_OPS)))


def reference_random_state(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return m / np.trace(m).real


def reference_compose(x, y, T):
    m = np.array(np.eye(4, dtype=complex))
    m += np.einsum("k,kij->ij", x, _A_OPS)
    m += np.einsum("k,kij->ij", y, _B_OPS)
    m += np.einsum("kl,klij->ij", T, _AB_OPS)
    return m / 4.0


def reference_hs_norm_sq(m):
    return float(np.sum(np.abs(m) ** 2))


def reference_eigenvalues(m):
    return np.linalg.eigvalsh(m)[::-1]


def reference_correlation(a, T, b):
    return float(a @ T @ b)


def reference_outcome_probs(a, x, y, T, b):
    """The four probabilities w_pp, w_pm, w_mp, w_mm, each clamped by min and max."""
    ax, by, corr = float(a @ x), float(b @ y), float(a @ T @ b)
    w = []
    for s, sp in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        w.append(min(max(0.25 * (1.0 + s * ax + sp * by + s * sp * corr), 0.0), 1.0))
    return w


def reference_error_rate(T, b, b_prime):
    x, y = np.eye(3)[:2]
    return min(max(0.5 - 0.25 * (reference_correlation(x, T, b) + reference_correlation(y, T, b_prime)), 0.0), 1.0)


def reference_partner(T, a):
    """The optimal partner's value, direction and degeneracy, from T^T a."""
    row = T.T @ a
    norm = float(np.linalg.norm(row))
    if norm < 1e-12:
        return 0.0, np.array([1.0, 0.0, 0.0]), True
    return norm, row / norm, False


def reference_cq_state(rho, n):
    s = np.einsum("mk,kij->mij", n[None, :], _A_OPS)
    return (0.5 * (rho + s @ rho @ s))[0]


def reference_trace_distance(a, b):
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def reference_fidelity(rho):
    return min(max(float(np.real(_PHI_PLUS.conj() @ rho @ _PHI_PLUS)), 0.0), 1.0)


def reference_werner(f):
    a, c = 0.5 * f, 0.5 * ((1.0 - f) / 3.0)
    m = np.diag(np.array([a + c, c + c, c + c, a + c], dtype=complex))
    m[0, 3] = m[3, 0] = a - c
    return m


def reference_pure(gamma):
    v = np.array([math.cos(math.pi / 4 - gamma / 2), 0.0, 0.0, math.sin(math.pi / 4 - gamma / 2)], dtype=complex)
    return np.outer(v, v.conj())


def reference_row_norms(T):
    """Optimal correlation values for Alice's x and y: the T row norms, 0 below 1e-12."""
    norms = [float(np.linalg.norm(T.T @ a)) for a in np.eye(3)[:2]]
    return [0.0 if n < 1e-12 else n for n in norms]


def reference_discord_eigen(x, T):
    w, v = np.linalg.eigh(np.outer(x, x) + T @ T.T)
    value = 0.25 * (float(x @ x) + float(np.sum(T * T)) - float(w[-1]))
    n = v[:, -1] / np.linalg.norm(v[:, -1])
    for k in (2, 0, 1):
        if n[k] > 1e-12 or n[k] < -1e-12:
            n = n if n[k] > 0 else -n
            break
    else:
        n = np.abs(n)
    return max(value, 0.0), n


def reference_concurrence(rho):
    """The kernel's form on one state, with sy x sy as a matrix: the l_i are
    the singular values of B^T (sy x sy) B, B = V sqrt(max(w, 0)) from the
    eigh of rho, taken as eigenvalue moduli when rho is real."""
    if not np.any(rho.imag):
        rho = rho.real
    w, v = np.linalg.eigh(rho)
    b = v * np.sqrt(np.maximum(w, 0.0))
    flip = _SPIN_FLIP.real if np.isrealobj(rho) else _SPIN_FLIP
    m = b.T @ (flip @ b)
    lam = np.linalg.svd(m, compute_uv=False) if np.iscomplexobj(m) else sorted(np.abs(np.linalg.eigvalsh(m)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def wootters_concurrence(rho):
    """Wootters' route: the singular values of sqrt(rho) (sy x sy) sqrt(rho)*."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def reference_eof(c):
    x = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c)))
    h = 0.0
    if x > 0.0:
        h -= x * math.log2(x)
    if x < 1.0:
        h -= (1.0 - x) * math.log2(1.0 - x)
    return h


def reference_align(rho, x):
    norm = float(np.linalg.norm(x))
    if norm <= 1e-12:
        return rho
    xhat = x / norm
    axis = np.cross(xhat, np.array([0.0, 0.0, 1.0]))
    s, c = float(np.linalg.norm(axis)), float(xhat[2])
    if s <= 1e-12:
        if c > 0.0:
            return rho
        axis, angle = np.array([1.0, 0.0, 0.0]), math.pi
    else:
        axis, angle = axis / s, math.atan2(s, c)
    w = np.kron(math.cos(angle / 2) * ID2 - 1j * math.sin(angle / 2) * pauli_sigma(axis), ID2)
    return w @ rho @ w.conj().T


def _rotated(rho, rng):
    w = np.kron(_haar_su2_batch(rng, 1)[0], _haar_su2_batch(rng, 1)[0])
    return w @ rho @ w.conj().T


def _adversarial():
    rhos = [pure_state(0.0).rho, pure_state(math.pi / 2).rho, werner(0.25).rho, werner(1.0).rho]
    # product state whose T rows for x and y vanish: both partners degenerate
    a, b = np.array([0.0, 0.0, 0.6]), np.array([0.3, 0.4, 0.5])
    rhos.append(pauli_compose(PauliDecomposition(a, b, np.outer(a, b))))
    # first-qubit Bloch vector along -z: aligned by a half turn about x
    rhos.append(pauli_compose(PauliDecomposition(-a, b, np.outer(-a, b))))
    rhos.append(np.eye(4) / 4)
    rng = np.random.default_rng(2024)
    for eps in np.logspace(-9, -3, 12):
        near = pauli_compose(PauliDecomposition(np.zeros(3), np.zeros(3), np.diag([0.5, -0.5 * (1 - eps), 0.3])))
        rhos += [near, _rotated(near, rng)]
    return rhos


@pytest.fixture(scope="module")
def members():
    """Single validated states: 200 random, then the adversarial ones."""
    return [random_state(seed) for seed in range(200)] + [validate_density(r) for r in _adversarial()]


@pytest.fixture(scope="module")
def stack(members):
    return validate_density(np.stack([s.rho for s in members]))


def assert_bits(stacked, singles):
    """The stacked array equals the per-state values bit for bit (sign of zero included)."""
    expected = np.array(singles)
    stacked = np.asarray(stacked)
    assert stacked.shape == expected.shape and stacked.dtype == expected.dtype
    assert stacked.tobytes() == expected.tobytes()


def _ordinal(a):
    """Float64 bit patterns as integers in the order of the floats, so that adjacent floats differ by 1."""
    i = np.asarray(a, dtype=float).view(np.int64)
    return np.where(i < 0, np.iinfo(np.int64).min - i, i)


def assert_ulps(actual, expected, bound):
    """Each entry is within ``bound`` units in the last place of its reference."""
    expected = np.array(expected)
    actual = np.asarray(actual)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype == np.float64
    assert np.max(np.abs(_ordinal(actual) - _ordinal(expected))) <= bound


def test_validate_density_keeps_every_member(stack, members):
    assert stack.rho.shape == (len(members), 4, 4)
    assert_bits(stack.rho, [s.rho for s in members])


def test_random_state():
    seeds = np.arange(200)
    stacked = random_state(seeds)
    assert_bits(stacked.rho, [random_state(int(seed)).rho for seed in seeds])
    assert_bits(stacked.rho, [reference_random_state(int(seed)) for seed in seeds])
    # the seeds check draws for its pools, and a 2-D array of seeds
    large = np.random.default_rng(0).integers(0, 2**63 - 1, 20)
    assert_bits(random_state(large).rho, [reference_random_state(int(seed)) for seed in large])
    grid = random_state(np.arange(6).reshape(2, 3))
    assert grid.rho.shape == (2, 3, 4, 4)
    assert_bits(grid.rho, stacked.rho[:6].reshape(2, 3, 4, 4))
    assert random_state([]).rho.shape == (0, 4, 4)


def test_random_state_is_one_ginibre_block_per_seed():
    # each member is G G^dag / Tr from the (2, 4, 4) normals of its own
    # default_rng(seed): the real parts of G, then its imaginary parts
    seeds = np.random.default_rng(1).integers(0, 2**63 - 1, 50)
    blocks = np.stack([np.random.default_rng(int(seed)).standard_normal((2, 4, 4)) for seed in seeds])
    g = blocks[:, 0] + 1j * blocks[:, 1]
    m = g @ g.conj().mT
    assert_bits(random_state(seeds).rho, m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None])
    assert_bits(random_state(seeds).rho, [_ginibre(b).rho for b in blocks])


def test_check_pool_is_the_kernel_on_its_lane_block():
    config = checks.CheckConfig(seed=11)
    pool = checks._random_states(config, 29, 40)
    normals = checks._rng(config, 29).standard_normal((40, 2, 4, 4))
    assert_bits(pool.rho, _ginibre(normals).rho)
    assert_bits(pool.rho, [_ginibre(b).rho for b in normals])


def test_pauli_compose(stack, members):
    singles = [pauli_compose(s.decomp) for s in members]
    assert_bits(pauli_compose(stack.decomp), singles)
    assert_bits(singles, [reference_compose(s.x, s.y, s.T) for s in members])


def test_hs_norm_sq_and_eigenvalues(stack, members):
    singles = [hs_norm_sq(s.rho) for s in members]
    assert all(type(v) is float for v in singles)
    assert_bits(hs_norm_sq(stack.rho), singles)
    assert_bits(singles, [reference_hs_norm_sq(s.rho) for s in members])
    singles = [hermitian_eigenvalues(s.rho) for s in members]
    assert_bits(hermitian_eigenvalues(stack.rho), singles)
    assert_bits(singles, [reference_eigenvalues(s.rho) for s in members])


def _units(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# random settings per member, then the axes, where probabilities reach 0 and 1
_AXES = [(np.eye(3)[i], np.eye(3)[j]) for i in range(3) for j in range(3)] + [(np.eye(3)[0], -np.eye(3)[1])]


def test_correlation(stack, members):
    rng = np.random.default_rng(11)
    pairs = [(_units(rng, len(members)), _units(rng, len(members)))] + _AXES
    for a, b in pairs:
        a_rows, b_rows = np.broadcast_to(a, (len(members), 3)), np.broadcast_to(b, (len(members), 3))
        singles = [correlation(s, u, v) for s, u, v in zip(members, a_rows, b_rows)]
        assert all(type(c) is float for c in singles)
        assert_bits(correlation(stack, a, b), singles)
        assert_bits(singles, [reference_correlation(u, s.T, v) for s, u, v in zip(members, a_rows, b_rows)])
    # one state, stacked settings
    a, b = pairs[0]
    assert_bits(correlation(members[0], a, b), [correlation(members[0], u, v) for u, v in zip(a, b)])


def test_outcome_probs(stack, members):
    rng = np.random.default_rng(12)
    pairs = [(_units(rng, len(members)), _units(rng, len(members)))] + _AXES
    keys = ("w_pp", "w_pm", "w_mp", "w_mm")
    for a, b in pairs:
        a_rows, b_rows = np.broadcast_to(a, (len(members), 3)), np.broadcast_to(b, (len(members), 3))
        stacked = outcome_probs(stack, a, b)
        singles = [outcome_probs(s, u, v) for s, u, v in zip(members, a_rows, b_rows)]
        assert all(type(getattr(w, key)) is float for w in singles for key in keys)
        for key in keys:
            assert_bits(getattr(stacked, key), [getattr(w, key) for w in singles])
        assert_bits(stacked.as_array(), [w.as_array() for w in singles])
        assert_bits(stacked.as_array(), [reference_outcome_probs(u, s.x, s.y, s.T, v)
                                         for s, u, v in zip(members, a_rows, b_rows)])
        assert_bits(stacked.correlation(), [w.correlation() for w in singles])
    assert any(w == 0.0 for w in outcome_probs(stack, SETTING_X, SETTING_X).as_array().ravel())
    # construction's floor admits an eigenvalue of -1e-10, which puts w_pm at -1e-10 before the clamp
    edge = validate_density(np.diag([0.5 + 1e-10, -1e-10, 0.5, 0.0]))
    assert outcome_probs(edge, (0.0, 0.0, 1.0), (0.0, 0.0, 1.0)).w_pm == 0.0
    a, b = pairs[0]
    assert_bits(outcome_probs(members[0], a, SETTING_Y).as_array(),
                [outcome_probs(members[0], u, SETTING_Y).as_array() for u in a])


def test_pauli_decompose(stack, members):
    d = pauli_decompose(stack.rho)
    singles = [pauli_decompose(s.rho) for s in members]
    references = [reference_decompose(s.rho) for s in members]
    for k, field in enumerate(("x", "y", "T")):
        assert_bits(getattr(d, field), [getattr(s, field) for s in singles])
        assert_bits(getattr(d, field), [r[k] for r in references])
        assert_bits(getattr(stack, field), [getattr(s, field) for s in members])


def test_fidelity_and_twirl(stack, members):
    assert all(type(fidelity_phi_plus(s)) is float for s in members)
    assert_bits(fidelity_phi_plus(stack), [fidelity_phi_plus(s) for s in members])
    # the closed form (rho_00 + rho_03 + rho_30 + rho_33) / 2 against phi+^dag rho phi+:
    # 3 ulp, and one eps on the Werner entries, were the worst measured
    assert_ulps(fidelity_phi_plus(stack), [reference_fidelity(s.rho) for s in members], 3)
    assert_bits(twirl_analytic(stack).rho, [twirl_analytic(s).rho for s in members])
    reference = np.array([reference_werner(reference_fidelity(s.rho)) for s in members])
    assert np.max(np.abs(twirl_analytic(stack).rho - reference)) <= np.finfo(float).eps


def test_family_constructors():
    fs = np.concatenate([[0.0, 0.25, 1.0], np.linspace(0.0, 1.0, 101)])
    gammas = np.concatenate([[0.0, math.pi / 2], np.linspace(0.0, math.pi / 2, 101)])
    assert_bits(werner(fs).rho, [werner(float(f)).rho for f in fs])
    assert_bits(werner(fs).rho, [reference_werner(float(f)) for f in fs])
    assert_bits(pure_state(gammas).rho, [pure_state(float(g)).rho for g in gammas])
    assert_bits(pure_state(gammas).rho, [reference_pure(float(g)) for g in gammas])
    for p in (0.0, 0.37, 1.0):
        assert_bits(depolarized_pure(gammas, p).rho, [depolarized_pure(float(g), p).rho for g in gammas])
        assert_bits(depolarized_pure(gammas, p).rho,
                    [p * reference_pure(float(g)) + (1.0 - p) * np.eye(4, dtype=complex) / 4.0 for g in gammas])


@pytest.fixture(scope="module")
def x_columns():
    """The eight fields of 40 sampled X-state parameter sets, then of the
    pure family at its Bell, inner and product points and of Werner
    states at F = 1/4, 1/2 and 1 (Bell and tie points of the branch)."""
    sets = (sample_x_params(np.random.default_rng(21), 40), pure_x_params(np.array([0.0, 0.7, math.pi / 2])),
            werner_x_params(np.array([0.25, 0.5, 1.0])))
    return [np.concatenate([np.broadcast_to(getattr(p, f.name), np.shape(p.rho11)) for p in sets])
            for f in dataclasses.fields(XStateParams)]


def _x_singles(columns):
    """One XStateParams of Python floats per member of the columns."""
    return [XStateParams(*(float(c[i]) for c in columns)) for i in range(len(columns[0]))]


def test_x_family_params():
    gammas, fs = np.linspace(0.0, math.pi / 2, 101), np.linspace(0.0, 1.0, 101)
    for stacked, singles in ((pure_x_params(gammas), [pure_x_params(float(g)) for g in gammas]),
                             (werner_x_params(fs), [werner_x_params(float(f)) for f in fs])):
        for f in dataclasses.fields(XStateParams):
            column = np.broadcast_to(getattr(stacked, f.name), (101,))
            assert_bits(column, [getattr(p, f.name) for p in singles])


_X_TAKES = [slice(0, n) for n in range(1, 18)] + [slice(None, None, 3)]


@pytest.mark.parametrize("take", _X_TAKES, ids=[f"first{t.stop}" for t in _X_TAKES[:-1]] + ["every3rd"])
def test_x_state_kernels(x_columns, take):
    """Each parameter set of a stack, of any length 1-17 or strided, gets
    its single-call bits from x_state, k_values and the closed form."""
    columns = [c[take] for c in x_columns]
    singles = _x_singles(columns)
    stacked = XStateParams(*columns)
    assert_bits(x_state(stacked).rho, [x_state(p).rho for p in singles])
    k = k_values(stacked)
    assert_bits(k.k1, [k_values(p).k1 for p in singles])
    assert_bits(k.k3, [k_values(p).k3 for p in singles])
    branch = k.k1 <= k.k3 + 1e-12
    closed = discord_x_closed_form(XStateParams(*(c[branch] for c in columns)))
    expected = [discord_x_closed_form(p) for p, inside in zip(singles, branch) if inside]
    assert_bits(closed.value, [r.value for r in expected])
    assert_bits(closed.argmin_direction, [r.argmin_direction for r in expected])
    # one parameter set still gets Python floats
    assert all(type(v) is float for p in singles[:3] for v in (k_values(p).k1, k_values(p).k3))
    assert all(type(r.value) is float for r in expected)


@pytest.mark.parametrize("fields, error", [
    ((1.2, -0.2, 0.0, 0.0, 0.0, 0.0), InvalidXParamsError),
    ((0.5, 0.5, 0.5, 0.5, 0.0, 0.0), InvalidXParamsError),
    ((0.5, 0.0, 0.0, 0.5, -0.1, 0.0), InvalidXParamsError),
    ((0.5, 0.0, 0.0, 0.5, 0.6, 0.0), InvalidXParamsError),
    ((0.0, 0.5, 0.5, 0.0, 0.0, 0.6), InvalidXParamsError),
    ((0.25, 0.25, 0.25, 0.25, 0.25, 0.25), BranchConditionError),
], ids=["negative", "sum", "negative-off", "rho14", "rho23", "branch"])
def test_bad_x_member_names_its_index(x_columns, fields, error):
    # member 6 breaks one rule and member 8 the normalization; the error is
    # member 6's, named. A constraint fails at construction, before any branch
    # check, so where member 6 breaks the branch member 8 breaks it too.
    columns = [np.concatenate([c[40:46], c[:4]]) for c in x_columns]
    for k, v in enumerate(fields):
        columns[k][6] = v
    columns[0][8] = 0.9
    if error is BranchConditionError:
        with pytest.raises(InvalidXParamsError, match=r"^state 8: diagonal sum "):
            XStateParams(*columns)
        for k, v in enumerate(fields):
            columns[k][8] = v
    # construction raises a constraint's error; the closed form, the branch's
    with pytest.raises(error) as single:
        discord_x_closed_form(XStateParams(*(float(c[6]) for c in columns)))
    with pytest.raises(error) as stacked:
        discord_x_closed_form(XStateParams(*columns))
    assert str(stacked.value) == f"state 6: {single.value}"


def test_min_error_rate(stack, members):
    mer = min_error_rate(stack)
    singles = [min_error_rate(s) for s in members]
    assert all(type(m.value) is float and type(m.degenerate_x) is bool for m in singles)
    assert any(m.degenerate_x and m.degenerate_y for m in singles)
    for field in ("value", "delta_x_min", "delta_y_min", "degenerate_x", "degenerate_y"):
        assert_bits(getattr(mer, field), [getattr(m, field) for m in singles])
    assert_bits(mer.b.n, [m.b.n for m in singles])
    assert_bits(mer.b_prime.n, [m.b_prime.n for m in singles])
    norms = [reference_row_norms(s.T) for s in members]
    assert_bits(mer.value, [0.5 - 0.25 * (px + py) for px, py in norms])
    assert_bits(mer.delta_y_min, [0.5 * (1.0 - py) for _, py in norms])


def test_discord_eigen(stack, members):
    result = discord_eigen(stack)
    singles = [discord_eigen(s) for s in members]
    references = [reference_discord_eigen(s.x, s.T) for s in members]
    assert all(type(r.value) is float for r in singles)
    assert_bits(result.value, [r.value for r in singles])
    assert_bits(result.value, [v for v, _ in references])
    assert_bits(result.argmin_direction, [r.argmin_direction for r in singles])
    assert_bits(result.argmin_direction, [n for _, n in references])


# reference_concurrence against Wootters' route on the members: 8.9e-16 was
# the worst measured (numpy 2.4.6, OpenBLAS 0.3.31)
WOOTTERS_GAP = 2e-15


def test_concurrence_and_eof(stack, members):
    c = concurrence(stack)
    singles = [concurrence(s) for s in members]
    assert all(type(v) is float for v in singles)
    assert_bits(c, singles)
    assert_bits(c, [reference_concurrence(s.rho) for s in members])
    assert np.max(np.abs(c - [wootters_concurrence(s.rho) for s in members])) <= WOOTTERS_GAP
    assert_bits(eof_from_concurrence(c), [eof_from_concurrence(v) for v in singles])
    # np.log2 against math.log2: 1 ulp on the grid was the worst measured
    assert_ulps(eof_from_concurrence(c), [reference_eof(v) for v in singles], 1)
    grid = np.linspace(0.0, 1.0, 20001)
    assert_ulps(eof_from_concurrence(grid), [reference_eof(float(v)) for v in grid], 1)
    assert_bits(entanglement_of_formation(stack), [entanglement_of_formation(s) for s in members])


def test_concurrence_routes_per_member(members):
    """Real members (the families, I/4, the near-degenerate probe) and complex
    ones take different routes; interleaved in one stack, on two leading
    axes, or each kind alone, every member gets its single-state bits."""
    real = [s for s in members if not np.any(s.rho.imag)]
    cplx = [s for s in members if np.any(s.rho.imag)]
    assert len(real) >= 10 and len(cplx) >= 10
    mixed = [s for pair in zip(real[:10], cplx[:10]) for s in pair]
    grid = validate_density(np.stack([s.rho for s in mixed]).reshape(5, 4, 4, 4))
    assert_bits(concurrence(grid), np.reshape([concurrence(s) for s in mixed], (5, 4)))
    for kind in (real, cplx):
        assert_bits(concurrence(validate_density(np.stack([s.rho for s in kind]))), [concurrence(s) for s in kind])


# the bound's sides against the error-rate terms and the discord of the
# members rotated into their adapted frame by reference_align: 1.4e-16 (rhs)
# and 2.5e-16 (lhs) were the worst measured
BOUND_GAP = 5e-16


def test_align_and_bound(stack, members):
    lhs, rhs = discord_error_rate_bound(stack)
    singles = [discord_error_rate_bound(s) for s in members]
    assert all(type(a) is float and type(b) is float for a, b in singles)
    assert_bits(lhs, [a for a, _ in singles])
    assert_bits(rhs, [b for _, b in singles])
    aligned = validate_density(np.array([reference_align(s.rho, s.x) for s in members]))
    mer = min_error_rate(aligned)
    assert np.max(np.abs(rhs - ((0.5 - mer.delta_x_min) ** 2 + (0.5 - mer.delta_y_min) ** 2))) <= BOUND_GAP
    assert np.max(np.abs(lhs - discord_eigen(aligned).value)) <= BOUND_GAP


# stack lengths 1 to 17, which vector loops split into a body and a tail, and a strided view
_TAKES = [slice(0, n) for n in range(1, 18)] + [slice(None, None, 3)]


@pytest.fixture(scope="module")
def concurrences():
    """51 concurrences: first those where np.log2 and math.log2 round an
    entropy term differently, the hardest to round, then uniform ones."""
    grid = np.linspace(0.0, 1.0, 20001)
    x = 0.5 * (1.0 + np.sqrt(1.0 - grid * grid))
    hard = [c for c, a, b in zip(grid, x, 1.0 - x)
            if b > 0.0 and (np.log2(a) != math.log2(a) or np.log2(b) != math.log2(b))]
    return np.concatenate([hard, np.random.default_rng(17).uniform(0.0, 1.0, 51)])[:51]


@pytest.mark.parametrize("take", _TAKES, ids=[f"first{t.stop}" for t in _TAKES[:-1]] + ["every3rd"])
def test_ufunc_tails_and_strides(members, concurrences, take):
    """Each member gets its single-call bits from the ufuncs on the plain
    numpy forms, whatever the stack length and however the input is strided."""
    chosen = members[:51][take]
    rhos = np.stack([s.rho for s in members[:51]])
    stack = validate_density(rhos[take])
    assert_bits(fidelity_phi_plus(stack), [fidelity_phi_plus(s) for s in chosen])
    assert_bits(discord_error_rate_bound(stack), np.array([discord_error_rate_bound(s) for s in chosen]).T)
    # the in-plane magnitudes of delta_min_from_discord, on views of the 51 Bloch vectors
    x = validate_density(rhos).x
    assert_bits(np.hypot(x[take, 0], x[take, 1]), [np.hypot(s.x[..., 0], s.x[..., 1]) for s in chosen])
    c = concurrences[take]
    assert_bits(eof_from_concurrence(c), [eof_from_concurrence(float(v)) for v in c])


def _broken(kind):
    m = np.eye(4, dtype=complex) / 4
    if kind == "hermitian":
        m[2, 0] = 1e-3j
    elif kind == "trace":
        m[0, 0] = 0.5
    else:
        m = np.diag([0.75, 0.5, -0.25, 0.0]).astype(complex)
    return m


@pytest.mark.parametrize("kind, error", [
    ("hermitian", NonHermitianError), ("trace", TraceNotOneError), ("negative", NotPositiveError),
])
def test_bad_member_raises_the_single_state_error(members, kind, error):
    rhos = np.stack([s.rho for s in members[:10]])
    rhos[6] = _broken(kind)
    rhos[8] = _broken("hermitian")
    with pytest.raises(error) as single:
        validate_density(rhos[6])
    with pytest.raises(error) as stacked:
        validate_density(rhos)
    assert str(stacked.value) == f"state 6: {single.value}"


def test_bad_member_in_decomposition_and_non_finite(members):
    rhos = np.stack([s.rho for s in members[:5]])
    rhos[3] = _broken("hermitian")
    with pytest.raises(NonHermitianError, match=r"^state 3: deviates from Hermitian by 1\.000e-03 \(atol 1\.0e-12\)$"):
        pauli_decompose(rhos)
    rhos[1, 0, 0] = np.nan
    with pytest.raises(OutOfRangeError, match=r"^state 1: matrix entries must be finite"):
        validate_density(rhos)


def _stacked_error(call, rhos, index, error):
    """Check that ``call`` on the stack raises what it raises on member ``index``, named."""
    with pytest.raises(error) as single:
        call(rhos[index])
    with pytest.raises(error) as stacked:
        call(rhos)
    assert str(stacked.value) == f"state {index}: {single.value}"


def test_bad_member_of_the_new_kernels(members):
    rhos = np.stack([s.rho for s in members[:10]])
    rhos[6] = _broken("hermitian")
    rhos[8] = _broken("hermitian")
    _stacked_error(hermitian_eigenvalues, rhos, 6, NonHermitianError)
    rhos[4, 1, 1] = np.inf
    _stacked_error(hs_norm_sq, rhos, 4, OutOfRangeError)
    units = _units(np.random.default_rng(13), 10)
    units[5] *= 2.0
    _stacked_error(lambda a: correlation(members[0], a, (0.0, 0.0, 1.0)), units, 5, OutOfRangeError)


def test_family_range_names_the_first_bad_value():
    with pytest.raises(OutOfRangeError, match=r"^gamma must lie in \[0, pi/2\], got 2.0$"):
        pure_state(np.array([0.5, 2.0, 3.0]))
    with pytest.raises(OutOfRangeError, match=r"^fidelity must lie in \[0, 1\], got nan$"):
        werner(np.array([0.5, np.nan, -1.0]))


def test_clamp_unit():
    values = [math.nan, -math.inf, -1.0, -1e-300, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.0 + 2**-52, math.inf]
    singles = [_clamp_unit(v) for v in values]
    assert all(type(v) is float for v in singles)
    assert_bits(singles, [min(max(v, 0.0), 1.0) for v in values])
    assert_bits(_clamp_unit(np.array(values)), singles)


def test_cq_state(stack, members):
    dirs = _units(np.random.default_rng(14), len(members))
    singles = [cq_state(s, n).rho for s, n in zip(members, dirs)]
    assert_bits(singles, [reference_cq_state(s.rho, n) for s, n in zip(members, dirs)])
    # stacked states with stacked directions, one direction for a stack, and one state with stacked directions
    assert_bits(cq_state(stack, dirs).rho, singles)
    for n in np.eye(3):
        assert_bits(cq_state(stack, n).rho, [cq_state(s, n).rho for s in members])
    assert_bits(cq_state(members[0], dirs).rho, [cq_state(members[0], n).rho for n in dirs])
    grid = cq_state(validate_density(stack.rho[:6].reshape(2, 3, 4, 4)), dirs[:6].reshape(2, 3, 3))
    assert_bits(grid.rho, np.reshape(singles[:6], (2, 3, 4, 4)))


def test_trace_distance(stack, members):
    singles = [trace_distance(s, twirl_analytic(s)) for s in members]
    assert all(type(v) is float for v in singles)
    assert_bits(singles, [reference_trace_distance(s.rho, twirl_analytic(s).rho) for s in members])
    assert_bits(trace_distance(stack, twirl_analytic(stack)), singles)
    assert_bits(trace_distance(stack, members[0]), [trace_distance(s, members[0]) for s in members])
    assert_bits(trace_distance(members[0], stack), [trace_distance(members[0], s) for s in members])


def test_error_rate(stack, members):
    rng = np.random.default_rng(15)
    pairs = [(_units(rng, len(members)), _units(rng, len(members)))] + _AXES
    for b, b_prime in pairs:
        b_rows, p_rows = np.broadcast_to(b, (len(members), 3)), np.broadcast_to(b_prime, (len(members), 3))
        singles = [error_rate(s, u, v) for s, u, v in zip(members, b_rows, p_rows)]
        assert all(type(d) is float for d in singles)
        assert_bits(error_rate(stack, b, b_prime), singles)
        assert_bits(singles, [reference_error_rate(s.T, u, v) for s, u, v in zip(members, b_rows, p_rows)])
    # one state, stacked settings
    b, b_prime = pairs[0]
    assert_bits(error_rate(members[0], b, b_prime), [error_rate(members[0], u, v) for u, v in zip(b, b_prime)])
    assert_bits(error_rate(members[0], b, SETTING_Y), [error_rate(members[0], u, SETTING_Y) for u in b])


def _assert_partners(stacked, singles):
    """``singles`` holds the single-call partners, nested in the shape of the stacked result."""
    grid = np.array(singles, dtype=object)
    assert grid.shape == np.shape(stacked.value)
    flat = grid.ravel()
    assert all(type(p.value) is float and type(p.degenerate) is bool for p in flat)
    for field in ("value", "degenerate"):
        assert_bits(getattr(stacked, field), np.reshape([getattr(p, field) for p in flat], grid.shape))
    assert_bits(stacked.setting.n, np.reshape([p.setting.n for p in flat], grid.shape + (3,)))


def test_optimal_partner(stack, members):
    rng = np.random.default_rng(16)
    # one state, a (k, 3) stack of settings, on random and on every adversarial member
    for s in members[:20] + members[200:]:
        for settings in (_units(rng, 1), _units(rng, 2), np.eye(3), _units(rng, 3), _units(rng, 20)):
            singles = [optimal_partner(s, a) for a in settings]
            _assert_partners(optimal_partner(s, settings), singles)
            references = [reference_partner(s.T, a) for a in settings]
            assert_bits([p.value for p in singles], [v for v, _, _ in references])
            assert_bits([p.setting.n for p in singles], [n for _, n, _ in references])
            assert_bits([p.degenerate for p in singles], [d for _, _, d in references])
    # an (m, 1) state with (m, 20, 3) settings
    settings = _units(rng, 20 * len(members)).reshape(len(members), 20, 3)
    singles = [[optimal_partner(s, a) for a in row] for s, row in zip(members, settings)]
    _assert_partners(optimal_partner(TwoQubitState(stack.rho[:, None]), settings), singles)
    # the product state among the adversarial members has degenerate x and y partners
    assert optimal_partner(members[204], np.eye(3)[:2]).degenerate.tolist() == [True, True]


def test_bad_member_of_the_state_kernels(members):
    units = _units(np.random.default_rng(17), 10)
    units[5] *= 2.0
    units[7] *= 2.0
    _stacked_error(lambda a: optimal_partner(members[0], a), units, 5, OutOfRangeError)
    _stacked_error(lambda b: error_rate(members[0], b, SETTING_Y), units, 5, OutOfRangeError)
    _stacked_error(lambda n: cq_state(members[0], n), units, 5, OutOfRangeError)


_THREE, _TWO_DIRS = random_state(np.arange(3)), np.eye(3)[:2]


@pytest.mark.parametrize("call, shapes", [
    (lambda: correlation(_THREE, _TWO_DIRS, SETTING_Y), "state (3,), a (2,), b ()"),
    (lambda: outcome_probs(_THREE, SETTING_X, _TWO_DIRS), "state (3,), a (), b (2,)"),
    (lambda: error_rate(_THREE, _TWO_DIRS, SETTING_Y), "state (3,), b (2,), b_prime ()"),
    # each setting broadcasts with one state, but not with the other setting
    (lambda: error_rate(random_state(0), np.eye(3), _TWO_DIRS), "state (), b (3,), b_prime (2,)"),
    (lambda: optimal_partner(_THREE, _TWO_DIRS), "state (3,), a (2,)"),
    (lambda: cq_state(_THREE, _TWO_DIRS), "state (3,), direction (2,)"),
    (lambda: trace_distance(_THREE, random_state(np.arange(2))), "a (3,), b (2,)"),
], ids=["correlation", "outcome_probs", "error_rate", "error_rate_settings", "optimal_partner", "cq_state",
        "trace_distance"])
def test_leading_axes_that_do_not_broadcast_raise(call, shapes):
    with pytest.raises(OutOfRangeError, match=f"^leading axes do not broadcast: {re.escape(shapes)}$"):
        call()


def _real_and_complex(members):
    real = [s for s in members if not np.any(s.rho.imag)]
    cplx = [s for s in members if np.any(s.rho.imag)]
    assert len(real) >= 10 and len(cplx) >= 10
    return real, cplx


def _count_solves(monkeypatch, names=("eigh", "eigvalsh")):
    """Patch the np.linalg solvers ``names`` to log (solver, calling function, input shape) per call."""
    log = []
    for name in names:
        solver = getattr(np.linalg, name)

        def counted(a, *args, solver=solver, name=name, **kw):
            log.append((name, sys._getframe(1).f_code.co_name, a.shape))
            return solver(a, *args, **kw)

        monkeypatch.setattr(np.linalg, name, counted)
    return log


def _interleaved(real, cplx):
    """Six real and four complex members in an uneven order."""
    return [real[0], cplx[0], real[1], real[2], cplx[1], real[3], cplx[2], real[4], real[5], cplx[3]]


def test_validate_density_keeps_the_real_eigenpairs(members):
    """Every validated state, single, stacked, on a (3, 4) grid, complex or
    mixed, holds the record of its route: the mask of its real members and
    bit for bit the (w, v) of np.linalg.eigh of their real parts, in C
    order and read-only. A state rebuilt by replace holds the same record.
    Repr and replace leave the private field out."""
    real, cplx = _real_and_complex(members)
    stacked = validate_density(np.stack([s.rho for s in real]))
    grid = validate_density(np.stack([s.rho for s in real[:12]]).reshape(3, 4, 4, 4))
    mixed = validate_density(np.stack([s.rho for s in _interleaved(real, cplx)]))
    complex_stack = validate_density(np.stack([s.rho for s in cplx]))
    for state in (*real, *cplx, stacked, grid, mixed, complex_stack):
        mask, w, v = state._eigen_record
        flat = state.rho.reshape(-1, 4, 4)
        assert mask.tolist() == [not np.any(rho.imag) for rho in flat]
        expected = np.linalg.eigh(flat[mask].real)
        assert_bits(w, expected.eigenvalues)
        assert_bits(v, expected.eigenvectors)
        assert not (mask.flags.writeable or w.flags.writeable or v.flags.writeable)
    assert mixed._eigen_record[0].tolist() == [True, False, True, True, False, True, False, True, True, False]
    assert_bits(mixed._eigen_record[2], [s._eigen_record[2][0] for s in real[:6]])
    assert complex_stack._eigen_record[1].shape == (0, 4)
    for state in (real[0], cplx[0], stacked, mixed):
        for kept, computed in zip(state._eigen_record, dataclasses.replace(state)._eigen_record):
            assert_bits(computed, kept)
        assert repr(state) == f"TwoQubitState(rho={state.rho!r})"
    private = [f for f in dataclasses.fields(TwoQubitState) if f.name.startswith("_")]
    assert [f.name for f in private] == ["_eigen_record"]
    assert not any(f.init or f.repr for f in private)


def test_concurrence_from_kept_eigenpairs(members, monkeypatch):
    """The concurrence of a real stack and of a mixed real/complex stack
    equals each member's own, bit for bit; a real state or stack runs no
    eigh of its own."""
    real, cplx = _real_and_complex(members)
    single, stacked = real[0], validate_density(np.stack([s.rho for s in real]))
    interleaved = _interleaved(real, cplx)
    mixed = validate_density(np.stack([s.rho for s in interleaved]))
    assert type(concurrence(single)) is float
    for state, singles in ((stacked, real), (mixed, interleaved)):
        assert_bits(concurrence(state), [concurrence(s) for s in singles])
    solves = _count_solves(monkeypatch, ("eigh",))
    concurrence(single), concurrence(stacked)
    assert solves == []


def test_mixed_stack_solves_each_member_once(members, monkeypatch):
    """Validating a mixed stack runs one eigh on its real members and one
    eigvalsh on its complex ones; its concurrence runs eigh on the complex
    members only (and eigvalsh on the real members' spin-flipped matrices).
    A single real or complex state runs each solve on itself and none on an
    empty stack."""
    real, cplx = _real_and_complex(members)
    rhos = np.stack([s.rho for s in _interleaved(real, cplx)])
    solves = _count_solves(monkeypatch)
    state = validate_density(rhos)
    assert solves == [("eigh", "_real_eigh", (6, 4, 4)), ("eigvalsh", "<lambda>", (4, 4, 4))]
    solves.clear()
    concurrence(state)
    assert solves == [("eigvalsh", "_flipped_spectrum", (6, 4, 4)), ("eigh", "<lambda>", (4, 4, 4))]
    one = (1, 4, 4)
    expected = {
        "real": ([("eigh", "_real_eigh", one)], [("eigvalsh", "_flipped_spectrum", one)]),
        "complex": ([("eigvalsh", "<lambda>", one)], [("eigh", "<lambda>", one)]),
    }
    for kind, rho in (("real", real[0].rho), ("complex", cplx[0].rho)):
        validation, spectrum = expected[kind]
        solves.clear()
        concurrence(validate_density(rho))
        assert solves == validation + spectrum


def test_decomp_skips_the_raw_matrix_check(members, monkeypatch):
    """A state takes its decomposition without pauli_decompose's re-check,
    with the same bits."""
    calls = []
    kernel = qubit_algebra.pauli_decompose
    monkeypatch.setattr(qubit_algebra, "pauli_decompose", lambda rho: calls.append(rho) or kernel(rho))
    rhos = np.stack([s.rho for s in members])
    expected = kernel(rhos)
    for state in (validate_density(rhos), TwoQubitState(rhos)):
        for name in ("x", "y", "T"):
            assert_bits(getattr(state.decomp, name), getattr(expected, name))
    assert calls == []


_SWEEP_SPECS = {"pure": None, "werner": None, "depolarized": 0.5}


def _sweep_bytes(spec):
    table = cli.run_sweep(spec)
    return cli.render_sweep_csv(table, spec), cli.render_sweep_json(table, spec)


@pytest.mark.parametrize("family", list(_SWEEP_SPECS))
def test_sweep_blocks_write_the_same_bytes(family, monkeypatch):
    """A grid of 2^14 + 3 points, evaluated in two blocks, and a 50-point grid
    in blocks of 7, write the CSV and JSON bytes of one block over the
    whole grid. The pure and Werner grids reach the Bell state, whose ratio
    is undefined (a null in the JSON)."""
    assert cli._SWEEP_BLOCK == 2**14
    top = 1.0 if family == "werner" else math.pi / 2
    for points, block in ((2**14 + 3, 2**14), (50, 7)):
        spec = cli.SweepSpec(family=family, grid=np.linspace(0.0, top, points), p=_SWEEP_SPECS[family])
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
        blocked = _sweep_bytes(spec)
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", points + 1)
        assert blocked == _sweep_bytes(spec)
    assert ('"ratio": null' in blocked[1]) == (family != "depolarized")


@pytest.mark.parametrize("family", list(_SWEEP_SPECS))
def test_sweep_takes_one_eigh_per_state_stack_per_block(family, monkeypatch):
    """Per block, each of the two state stacks (the family's and its twirl)
    gets one 4x4 eigh, at validation, and no eigvalsh runs on a state: the
    only eigvalsh is the concurrence's, on the spin-flipped matrix."""
    solves = _count_solves(monkeypatch)
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 16)
    cli.run_sweep(cli.SweepSpec(family=family, grid=np.linspace(0.1, 0.9, 40), p=_SWEEP_SPECS[family]))
    blocks = [16, 16, 16, 16, 8, 8]
    assert [call for call in solves if call[0] == "eigh" and call[2][-2:] == (4, 4)] == [
        ("eigh", "_real_eigh", (n, 4, 4)) for n in blocks]
    assert [call for call in solves if call[0] == "eigvalsh"] == [
        ("eigvalsh", "_flipped_spectrum", (n, 4, 4)) for n in blocks]
