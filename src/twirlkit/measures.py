"""Quantum correlation measures and their relations to the key error rate.

Geometric discord is the squared Hilbert-Schmidt distance from a state to
the nearest classical-quantum state, where the measurement acts on the
first qubit only. Three routes are provided: a definition-faithful grid
search over projector directions (the oracle), a closed form for X-type
states on its branch of validity, and a fast eigenvalue form. The module
also implements Wootters concurrence, entanglement of formation, the
bound tying discord to the two optimal error rates, and the before/after
comparison under twirling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchConditionError, ConditionsNotMetError, OutOfRangeError
from .protocol import min_error_rate
from .qubit_algebra import (
    _A_OPS,
    ID2,
    SIGMA_Y,
    TwoQubitState,
    as_unit_vector,
    pauli_sigma,
    tensor,
    validate_density,
)
from .states import XStateParams, _check_x_params
from .twirl import twirl_analytic

# Improvements below this size are treated as ties during the grid search,
# so exactly degenerate landscapes keep the first (lexicographic) direction.
_TIE = 1e-13

_SPIN_FLIP = tensor(SIGMA_Y, SIGMA_Y)


def _dephase(rho: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """(rho + S rho S)/2 = P rho P + Q rho Q with S = (n.sigma) x I and
    P, Q = (I +- S)/2, for unit directions ``dirs`` (m, 3); shape (m, 4, 4)."""
    s = np.einsum("mk,kij->mij", dirs, _A_OPS)
    return 0.5 * (rho + s @ rho @ s)


def cq_state(state: TwoQubitState, direction) -> TwoQubitState:
    """Dephase the first qubit along ``direction``.

    Applies the projector pair (I +- n.sigma)/2 on the first factor and
    sums, producing the classical-quantum state left invariant by that
    measurement. Idempotent in ``direction``.
    """
    return validate_density(_dephase(state.rho, as_unit_vector(direction)[None, :])[0])


@dataclass(frozen=True)
class DiscordResult:
    """Geometric discord value with the minimizing projector direction.

    ``method`` is one of "grid-oracle", "x-closed-form",
    "eigen-closed-form".
    """

    value: float
    argmin_direction: np.ndarray
    method: str

    def __post_init__(self):
        nd = np.asarray(self.argmin_direction, dtype=float)
        nd.flags.writeable = False
        object.__setattr__(self, "argmin_direction", nd)


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    """Pick the representative of {n, -n} with nonnegative z (then x, then y)."""
    n = n / np.linalg.norm(n)
    for k in (2, 0, 1):
        if n[k] > 1e-12:
            return n
        if n[k] < -1e-12:
            return -n
    return np.abs(n)


def _sph(theta, phi) -> np.ndarray:
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _cq_residual(rho: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """||rho - chi(n)||^2 for a batch of projector directions (m, 3)."""
    d = rho - _dephase(rho, dirs)
    return np.einsum("mij,mij->m", d, d.conj()).real


def _pattern_search(rho: np.ndarray, theta: float, phi: float, wt: float, wp: float):
    """Shrinking-neighborhood search: re-center a 5x5 stencil until no
    strict improvement remains, then halve both half-widths; 40 stages."""
    offsets = np.linspace(-1.0, 1.0, 5)
    best_v = float(_cq_residual(rho, _sph(np.array([theta]), np.array([phi])))[0])
    best_t, best_p = theta, phi
    for _ in range(40):
        for _ in range(60):
            tt, pp = np.meshgrid(best_t + wt * offsets, best_p + wp * offsets, indexing="ij")
            vv = _cq_residual(rho, _sph(tt.ravel(), pp.ravel()))
            j = int(np.argmin(vv))
            if vv[j] < best_v - _TIE:
                best_v = float(vv[j])
                best_t = float(tt.ravel()[j])
                best_p = float(pp.ravel()[j])
            else:
                break
        wt *= 0.5
        wp *= 0.5
    return best_v, best_t, best_p


def discord_grid_oracle(state: TwoQubitState) -> DiscordResult:
    """Geometric discord by direct minimization over projector directions.

    Scans a (theta, phi) grid of 24**2 points on the upper
    hemisphere (antipodal directions define the same projector pair), then
    refines with a shrinking-neighborhood pattern search. The refinement
    runs from three starts: the z pole, the best grid point, and the best
    equator point. The pole start keeps exactly degenerate landscapes on
    the z direction; the equator start covers states whose correlation
    block is exactly axis-aligned, where the (theta, phi) chart degenerates
    at the pole and a single pole-adjacent search could stall. Near-ties
    resolve toward the earlier start and the lexicographically first
    (theta, phi).

    Args:
        state: the input state.

    Returns:
        DiscordResult with the minimal squared distance and the canonical
        minimizing direction.
    """
    coarse_steps = 24
    rho = state.rho
    thetas = np.linspace(0.0, np.pi / 2, coarse_steps)
    phis = np.linspace(0.0, 2 * np.pi, coarse_steps, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    tg, pg = tg.ravel(), pg.ravel()
    vals = _cq_residual(rho, _sph(tg, pg))
    k_global = int(np.flatnonzero(vals <= vals.min() + _TIE)[0])
    equator = vals[-coarse_steps:]
    k_eq = len(vals) - coarse_steps + int(np.flatnonzero(equator <= equator.min() + _TIE)[0])

    wt0 = (np.pi / 2) / (coarse_steps - 1)
    wp0 = 2 * np.pi / coarse_steps
    # a repeated start reruns the same deterministic search and cannot win
    starts = list(dict.fromkeys(
        ((0.0, 0.0), (float(tg[k_global]), float(pg[k_global])), (float(tg[k_eq]), float(pg[k_eq])))
    ))
    best_v, best_t, best_p = _pattern_search(rho, *starts[0], wt0, wp0)
    for start in starts[1:]:
        v, t, p = _pattern_search(rho, *start, wt0, wp0)
        if v < best_v - _TIE:
            best_v, best_t, best_p = v, t, p

    return DiscordResult(
        value=max(best_v, 0.0),
        argmin_direction=_canonical_direction(_sph(best_t, best_p)),
        method="grid-oracle",
    )


def discord_eigen(state: TwoQubitState) -> DiscordResult:
    """Fast closed form: (|x|^2 + ||T||_F^2 - lambda_max(x x^T + T T^T)) / 4.

    The distance-minimizing projector direction is the top eigenvector of
    x x^T + T T^T. Agrees with the grid oracle to well below 1e-9.
    """
    d = state.decomp
    m = np.outer(d.x, d.x) + d.T @ d.T.T
    w, v = np.linalg.eigh(m)
    value = 0.25 * (float(d.x @ d.x) + float(np.sum(d.T * d.T)) - float(w[-1]))
    return DiscordResult(
        value=max(value, 0.0),
        argmin_direction=_canonical_direction(v[:, -1]),
        method="eigen-closed-form",
    )


@dataclass(frozen=True)
class KPair:
    """Branch quantities deciding whether z-dephasing is the closest one.

    k1 = 4 (rho14 + rho23)^2 compares the in-plane correlation block
    against k3 = 2 [(rho11 - rho33)^2 + (rho22 - rho44)^2]; the z form
    applies when k1 <= k3.
    """

    k1: float
    k3: float


def k_values(p: XStateParams) -> KPair:
    """Branch quantities for the X-state discord closed form."""
    k1 = 4.0 * (p.rho14 + p.rho23) ** 2
    k3 = 2.0 * ((p.rho11 - p.rho33) ** 2 + (p.rho22 - p.rho44) ** 2)
    return KPair(k1=k1, k3=k3)


def discord_x_closed_form(p: XStateParams) -> DiscordResult:
    """Closed-form discord 2 (rho14^2 + rho23^2) for X states with k1 <= k3.

    On that branch the minimizing measurement is dephasing along z.
    Raises BranchConditionError when k1 > k3; callers must fall back to
    the grid oracle there. Floating-point ties at the branch boundary
    (within 1e-12, where both dephasings are equally close and the two
    expressions coincide) are accepted.
    """
    _check_x_params(p)
    k = k_values(p)
    if k.k1 > k.k3 + 1e-12:
        raise BranchConditionError(f"k1 = {k.k1:.6g} exceeds k3 = {k.k3:.6g}; closed form does not apply")
    return DiscordResult(
        value=2.0 * (p.rho14**2 + p.rho23**2),
        argmin_direction=np.array([0.0, 0.0, 1.0]),
        method="x-closed-form",
    )


def _align_first_bloch_to_z(state: TwoQubitState) -> TwoQubitState:
    """Rotate the first qubit so its Bloch vector points along +z.

    This is the frame in which the standard decomposition carries no
    in-plane first-qubit components; the error-rate bound below is a
    theorem in that frame. States with a vanishing first-qubit Bloch
    vector are returned unchanged.
    """
    x = state.decomp.x
    norm = float(np.linalg.norm(x))
    if norm <= 1e-12:
        return state
    xhat = x / norm
    z = np.array([0.0, 0.0, 1.0])
    axis = np.cross(xhat, z)
    s = float(np.linalg.norm(axis))
    c = float(xhat @ z)
    if s <= 1e-12:
        if c > 0.0:
            return state
        axis = np.array([1.0, 0.0, 0.0])
        angle = math.pi
    else:
        axis = axis / s
        angle = math.atan2(s, c)
    u = math.cos(angle / 2) * ID2 - 1j * math.sin(angle / 2) * pauli_sigma(axis)
    w = np.kron(u, ID2)
    return validate_density(w @ state.rho @ w.conj().T)


def discord_error_rate_bound(state: TwoQubitState, method: str = "grid-oracle") -> tuple[float, float]:
    """Discord versus the bound built from the two optimal error rates.

    Evaluated in the state's adapted local frame (first-qubit Bloch vector
    rotated to z, which leaves the discord unchanged): there
    lhs = D_g <= rhs = (1/2 - delta_x_min)^2 + (1/2 - delta_y_min)^2
    holds for every state. In a frame where the first-qubit Bloch vector
    keeps in-plane components the raw inequality can fail, so the
    alignment is part of the contract.

    Args:
        state: the input state.
        method: "grid-oracle" (default) or "eigen" for the fast path.

    Returns:
        (lhs, rhs) with lhs <= rhs + 1e-9.
    """
    aligned = _align_first_bloch_to_z(state)
    if method == "eigen":
        lhs = discord_eigen(aligned).value
    elif method == "grid-oracle":
        lhs = discord_grid_oracle(aligned).value
    else:
        raise OutOfRangeError(f"unknown method {method!r}")
    mer = min_error_rate(aligned)
    rhs = (0.5 - mer.delta_x_min) ** 2 + (0.5 - mer.delta_y_min) ** 2
    return lhs, rhs


def delta_min_from_discord(state: TwoQubitState) -> float:
    """Minimal error rate from the discord: (1 - sqrt(2 D_g)) / 2.

    Valid when (I) the closest classical-quantum state is the z-dephased
    one, for a state already in the frame with no in-plane first-qubit
    Bloch components, and (II) the two optimal correlation values agree.
    Raises ConditionsNotMetError naming the failed condition; when both
    hold the result equals min_error_rate(state).value to 1e-8.
    """
    d = state.decomp
    in_plane = math.hypot(d.x[0], d.x[1])
    if in_plane > 1e-9:
        raise ConditionsNotMetError(
            "I", f"first-qubit Bloch vector has in-plane magnitude {in_plane:.3e}"
        )
    oracle = discord_grid_oracle(state)
    n = oracle.argmin_direction
    off_axis = math.hypot(n[0], n[1])
    if off_axis > 1e-4:
        raise ConditionsNotMetError(
            "I", f"minimizing direction {n} is off the z axis by {off_axis:.3e}"
        )
    r1 = float(np.linalg.norm(d.T[0]))
    r2 = float(np.linalg.norm(d.T[1]))
    if abs(r1 - r2) > 1e-9:
        raise ConditionsNotMetError(
            "II", f"optimal correlation values differ: {r1:.12g} vs {r2:.12g}"
        )
    return 0.5 * (1.0 - math.sqrt(2.0 * oracle.value))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence from the spin-flipped spectrum.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the descending square
    roots of the eigenvalues of rho (sy x sy) rho* (sy x sy), with the
    conjugation taken entrywise in the computational basis. The l_i are
    evaluated as the singular values of sqrt(rho) (sy x sy) sqrt(rho)*,
    which avoids the square-root blowup of near-zero eigenvalues.
    """
    root = _psd_sqrt(state.rho)
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def binary_entropy(x: float) -> float:
    """H2(x) = -x log2 x - (1-x) log2(1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"binary entropy argument must lie in [0, 1], got {x}")
    h = 0.0
    if x > 0.0:
        h -= x * math.log2(x)
    if x < 1.0:
        h -= (1.0 - x) * math.log2(1.0 - x)
    return h


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation of a state with concurrence ``c``."""
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def entanglement_of_formation(state: TwoQubitState) -> float:
    """Entanglement of formation H2((1 + sqrt(1 - C^2)) / 2)."""
    return eof_from_concurrence(concurrence(state))


@dataclass(frozen=True)
class TwirlComparison:
    """Discord and concurrence before and after the exact twirl."""

    d_before: float
    d_after: float
    c_before: float
    c_after: float


def twirl_discord_comparison(state: TwoQubitState) -> TwirlComparison:
    """Grid-oracle discord and concurrence before and after twirling.

    Reports the four numbers without asserting any ordering; twirling
    preserves the concurrence-based entanglement only for specific
    families, and whether it raises the discord depends on the state.
    """
    after = twirl_analytic(state)
    return TwirlComparison(
        d_before=discord_grid_oracle(state).value,
        d_after=discord_grid_oracle(after).value,
        c_before=concurrence(state),
        c_after=concurrence(after),
    )
