"""Quantum correlation measures and their relations to the key error rate.

Geometric discord is the squared Hilbert-Schmidt distance from a state to
the nearest classical-quantum state, where the measurement acts on the
first qubit only. Every value the library reports comes from the
eigenvalue form (Dakic, Vedral & Brukner, PRL 105, 190502 (2010)); the
checks and tests witness it with a grid oracle (a scan over projector
directions finished by closed-form plane rotations, the value taken from
the definition) and a closed form for X-type states on its branch. The
module also implements Wootters concurrence, entanglement of formation,
the bound tying discord to the two optimal error rates (the residual of
dephasing the first qubit along its own Bloch direction, in the eigen
form's terms), and the before/after comparison under twirling.

``cq_state``, the grid oracle, the eigenvalue form, the concurrence, the
entanglement of formation, the error-rate bound, the discord form of the
minimal error rate and the twirl comparison are batch-first: given a
stacked state (see :mod:`twirlkit.qubit_algebra`) they return stacks, each
member bit for bit its own single-state value, and on one state a single
value. The X-state branch quantities and closed form are
batch-first in the same way over stacks of X-state parameters.

The concurrence takes each member's route and real eigenpairs from the
state's record (see :mod:`twirlkit.qubit_algebra`), so a real member that
``validate_density`` checked takes one 4x4 eigensolve for both; a complex
member runs its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BranchConditionError, ConditionsNotMetError
from .qubit_algebra import (
    _A_OPS,
    TwoQubitState,
    _by_route,
    _check_broadcast,
    _item,
    _raise_first_failure,
    _read_only,
    _vector_norm,
    as_unit_vector,
    validate_density,
)
from .states import XStateParams, _in_range, _x_fields
from .twirl import twirl_analytic

# Improvements below this size are treated as ties by the oracle's scan and
# polish, so exactly degenerate landscapes keep the first grid direction, z.
_TIE = 1e-13
# States per block of the oracle's 24x24 scan, which holds a (block, 576, 3)
# float64 product (about 14 KiB per state) rather than one for the stack.
_SCAN_BLOCK = 256
# Closed-form polish rounds after the oracle's scan. From the best grid
# point, 1 round leaves the oracle up to 2.6e-6 off the eigen form on the
# tests' wide near-degenerate probe; 2 rounds reach the ~1e-13 floor that
# the _TIE gate sets, and a third round moves no start.
_POLISH_ROUNDS = 2
# How far the error rate (1 - sqrt(2 D_z)) / 2 from the residual D_z at z
# may lie below the one from the discord D in delta_min_from_discord's
# condition I; on 200-point pure and Werner grids and on I/4 it is at most
# 3.6e-15. The gate is in error-rate units because the square root turns an
# excess of D_z near zero discord into a far larger error. Since
# D <= D_z <= 1/2 wherever the gap is positive, D_z - D is at most twice the
# gap: at most 1e-12 on every state this gate accepts.
_Z_MINIMUM_SLACK = 5e-13

_Z_AXIS = np.array([0.0, 0.0, 1.0])

# sy x sy is the antidiagonal with these entries, from the first row down
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]


def _dephase(rho: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """(rho + S rho S)/2 = P rho P + Q rho Q with S = (n.sigma) x I and
    P, Q = (I +- S)/2, for unit directions ``dirs`` (..., 3), broadcast with ``rho``."""
    s = np.einsum("...k,kij->...ij", dirs, _A_OPS)
    return 0.5 * (rho + s @ rho @ s)


def cq_state(state: TwoQubitState, direction) -> TwoQubitState:
    """Dephase the first qubit along ``direction``.

    Applies the projector pair (I +- n.sigma)/2 on the first factor and
    sums, producing the classical-quantum state left invariant by that
    measurement. Idempotent in ``direction``; stacked states and directions
    broadcast, and raise OutOfRangeError when their leading axes do not.
    """
    n = as_unit_vector(direction)
    _check_broadcast(state=state.rho.shape[:-2], direction=n.shape[:-1])
    return validate_density(_dephase(state.rho, n))


@dataclass(frozen=True, eq=False)
class DiscordResult:
    """Geometric discord value with the minimizing projector direction.

    ``method`` names the route: "eigen-closed-form" (the one reported),
    "grid-oracle" or "x-closed-form". For a stacked state ``value`` is an
    array and ``argmin_direction`` a (..., 3) stack.
    """

    value: float
    argmin_direction: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "argmin_direction", _read_only(np.asarray(self.argmin_direction, dtype=float)))


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    """Pick the representative of {n, -n} with nonnegative z (then x, then
    y): the first of those components beyond 1e-12 in size decides (a unit
    vector always has one). ``n`` may be a (..., 3) stack."""
    n = n / _vector_norm(n)[..., None]
    zxy = n[..., [2, 0, 1]]
    lead = np.take_along_axis(zxy, np.argmax(np.abs(zxy) > 1e-12, axis=-1)[..., None], axis=-1)
    return np.where(lead < 0.0, -n, n)


def _sph(theta, phi) -> np.ndarray:
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def _cq_residual(rho: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """||rho - chi(n)||^2 for a batch of projector directions (m, 3), of one
    state rho (4, 4) or of one state per direction (m, 4, 4)."""
    d = rho - _dephase(rho, dirs)
    return np.einsum("mij,mij->m", d, d.conj()).real


def _residual_form(rho: np.ndarray):
    """The residual n -> ||rho - chi(n)||^2 of each member of a (m, 4, 4)
    stack as the quadratic form (tr rho^2 - n^T G n) / 2: returns the
    (m, 3, 3) stack of G and the (m,) purities tr rho^2.

    With S = (n.sigma) x I, rho - chi(n) = (rho - S rho S)/2 and S^2 = I,
    so the squared distance is (tr rho^2 - tr(rho S rho S))/2; S is linear
    in n, which makes the last trace the quadratic form of
    G_kl = Re tr(rho A_k rho A_l). Built from rho and the operators alone,
    with no decomposition or eigenvalue.
    """
    ra = rho[:, None] @ _A_OPS
    purity = np.einsum("mij,mji->m", rho, rho).real
    g = np.einsum("mkij,mlji->mkl", ra, ra).real
    return g, purity


def _form_residual(g: np.ndarray, purity: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """(tr rho^2 - n^T G n) / 2 for G (m, 3, 3) and purities (m,), at unit
    directions (m, k, 3), or (k, 3) shared by every member; shape (m, k)."""
    q = dirs @ g
    q *= dirs
    return 0.5 * (purity[:, None] - q.sum(axis=-1))


def _half_angle(c2: np.ndarray, s2: np.ndarray):
    """cos and sin of the angle b in [-pi/2, pi/2] with (cos 2b, sin 2b)
    along (c2, s2), that is of atan2(s2, c2) / 2 up to a half turn; b = 0
    where both vanish. Built from square roots and divisions only, which
    round the same for a member wherever it sits in a stack."""
    r = np.sqrt(c2 * c2 + s2 * s2)
    # (r + c2, s2) and (|s2|, +-(r - c2)) both point along b; each is free of
    # the cancellation the other meets
    x = np.where(c2 >= 0.0, r + c2, np.abs(s2))
    y = np.where(c2 >= 0.0, s2, np.copysign(r - c2, s2))
    norm = np.sqrt(x * x + y * y)
    flat = norm == 0.0
    norm[flat] = 1.0
    return np.where(flat, 1.0, x / norm), y / norm


def _circle_step(g: np.ndarray, purity: np.ndarray, n: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per start, the direction of the residual's exact minimum on the great
    circle n cos a + w sin a (n, w orthonormal, (m, 3) each).

    Along the circle the form is A + B cos 2a + C sin 2a, so its values at
    a = 0, pi/4 and pi/2 fix A, B and C, and the minimum lies at
    2a = atan2(C, B) + pi.
    """
    f = _form_residual(g, purity, np.stack([n, (n + w) * math.sqrt(0.5), w], axis=1))
    a = 0.5 * (f[:, 0] + f[:, 2])
    cos_a, sin_a = _half_angle(a - f[:, 0], a - f[:, 1])
    return cos_a[:, None] * n + sin_a[:, None] * w


def _polish(g: np.ndarray, purity: np.ndarray, theta: np.ndarray, phi: np.ndarray):
    """One closed-form polish round from each start; returns the new
    (theta, phi) arrays.

    The tangent plane at n = _sph(theta, phi) has the basis e_theta, e_phi;
    the 2x2 block M of the start's own G in it comes from the form at
    e_theta, e_phi and their bisector, and its principal directions are at
    the angle atan2(2 M01, M00 - M11) / 2. One exact line step along the
    great circle toward each principal direction in turn (the second stays
    orthogonal to the first step's plane) is a Jacobi-style pair of plane
    rotations (Golub & Van Loan, Matrix Computations, section 8.5). A start
    moves only where the stepped direction beats its form value by more
    than _TIE, so exactly degenerate landscapes keep the start.
    """
    n = _sph(theta, phi)
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    u = np.stack([ct * cp, ct * sp, -st], axis=-1)
    v = np.stack([-sp, cp, np.zeros_like(phi)], axis=-1)
    before, f_u, f_uv, f_v = _form_residual(g, purity, np.stack([n, u, (u + v) * math.sqrt(0.5), v], axis=1)).T
    # the form is (purity - d^T G d) / 2: M00 - M11 = 2 (f_v - f_u), 2 M01 = 2 (f_u + f_v) - 4 f_uv
    cos_b, sin_b = _half_angle(f_v - f_u, f_u + f_v - 2.0 * f_uv)
    w1 = cos_b[:, None] * u + sin_b[:, None] * v
    w2 = cos_b[:, None] * v - sin_b[:, None] * u
    stepped = _circle_step(g, purity, _circle_step(g, purity, n, w1), w2)
    moved = _form_residual(g, purity, stepped[:, None])[:, 0] < before - _TIE
    x, y, z = stepped.T
    return np.where(moved, np.arctan2(np.hypot(x, y), z), theta), np.where(moved, np.arctan2(y, x), phi)


def _first_at_min(vals: np.ndarray) -> np.ndarray:
    """Per row, the index of the first value within _TIE of the row's minimum."""
    return np.argmax(vals <= vals.min(axis=-1, keepdims=True) + _TIE, axis=-1)


def discord_grid_oracle(state: TwoQubitState) -> DiscordResult:
    """Geometric discord by direct minimization over projector directions.

    Scans a (theta, phi) grid of 24**2 points on the upper hemisphere
    (antipodal directions define the same projector pair), then runs
    ``_POLISH_ROUNDS`` closed-form ``_polish`` rounds from the best grid
    point, the first within _TIE of the scan's minimum (so an exactly
    degenerate landscape starts, and stays, on the z pole). Both score
    directions with the residual's 3x3 quadratic form
    (tr rho^2 - n^T G n) / 2 (see ``_residual_form``). On the sphere that
    form's only local minimum is the global one, up to sign, so one start
    is enough.

    The scan takes the members of a stack ``_SCAN_BLOCK`` at a time and the
    polish takes them all at once, each member's arithmetic on its own row,
    so each member gets bit for bit its single-state result. The value
    reported comes from the definition: the state is dephased along its
    polished direction and its distance to the state taken once.

    Args:
        state: the input state, or a stacked state.

    Returns:
        DiscordResult with the minimal squared distance and the canonical
        minimizing direction: a float and a 3-vector for one state, an
        array and a (..., 3) stack for a stacked state.
    """
    coarse_steps = 24
    shape = state.rho.shape[:-2]
    rho = state.rho.reshape(-1, 4, 4)
    g, purity = _residual_form(rho)
    thetas = np.linspace(0.0, np.pi / 2, coarse_steps)
    phis = np.linspace(0.0, 2 * np.pi, coarse_steps, endpoint=False)
    tg, pg = (a.ravel() for a in np.meshgrid(thetas, phis, indexing="ij"))
    dirs = _sph(tg, pg)
    best = np.empty(len(rho), dtype=np.intp)
    for lo in range(0, len(rho), _SCAN_BLOCK):
        block = slice(lo, lo + _SCAN_BLOCK)
        best[block] = _first_at_min(_form_residual(g[block], purity[block], dirs))
    theta, phi = tg[best], pg[best]
    for _ in range(_POLISH_ROUNDS):
        theta, phi = _polish(g, purity, theta, phi)
    directions = _sph(theta, phi)
    value = _cq_residual(rho, directions).reshape(shape)
    return DiscordResult(
        value=_item(np.where(0.0 > value, 0.0, value)),
        argmin_direction=_canonical_direction(directions).reshape(shape + (3,)),
        method="grid-oracle",
    )


def discord_eigen(state: TwoQubitState) -> DiscordResult:
    """Fast closed form: (|x|^2 + ||T||_F^2 - lambda_max(x x^T + T T^T)) / 4.

    The distance-minimizing projector direction is the top eigenvector of
    x x^T + T T^T. Agrees with the grid oracle to well below 1e-9.
    """
    d = state.decomp
    m = d.x[..., :, None] * d.x[..., None, :] + d.T @ d.T.mT
    w, v = np.linalg.eigh(m)
    value = 0.25 * (np.vecdot(d.x, d.x) + np.sum(d.T * d.T, axis=(-2, -1)) - w[..., -1])
    return DiscordResult(
        value=_item(np.where(0.0 > value, 0.0, value)),
        argmin_direction=_canonical_direction(v[..., :, -1]),
        method="eigen-closed-form",
    )


@dataclass(frozen=True, eq=False)
class KPair:
    """Branch quantities deciding whether z-dephasing is the closest one.

    k1 = 4 (rho14 + rho23)^2 compares the in-plane correlation block
    against k3 = 2 [(rho11 - rho33)^2 + (rho22 - rho44)^2]; the z form
    applies when k1 <= k3.
    """

    k1: float
    k3: float


def k_values(p: XStateParams) -> KPair:
    """Branch quantities for the X-state discord closed form; arrays for a
    stack of parameter sets."""
    d11, d22, d33, d44, r14, r23 = _x_fields(p)[:6]
    k1 = 4.0 * (r14 + r23) ** 2
    k3 = 2.0 * ((d11 - d33) ** 2 + (d22 - d44) ** 2)
    return KPair(k1=_item(k1), k3=_item(k3))


def discord_x_closed_form(p: XStateParams) -> DiscordResult:
    """Closed-form discord 2 (rho14^2 + rho23^2) for X states with k1 <= k3.

    On that branch the minimizing measurement is dephasing along z.
    Raises BranchConditionError when k1 > k3; callers must fall back to
    ``discord_eigen`` there. Floating-point ties at the branch boundary
    (within 1e-12, where both dephasings are equally close and the two
    expressions coincide) are accepted. A stack of parameter sets gives a
    stacked result, and an error names the first failing set.
    """
    k = k_values(p)
    k1, k3 = np.asarray(k.k1), np.asarray(k.k3)
    _raise_first_failure(k1.shape, ((
        k1 > k3 + 1e-12, BranchConditionError,
        lambda i: f"k1 = {k1[i]:.6g} exceeds k3 = {k3[i]:.6g}; closed form does not apply",
    ),))
    r14, r23 = _x_fields(p)[4:6]
    return DiscordResult(
        value=_item(2.0 * (r14**2 + r23**2)),
        argmin_direction=np.broadcast_to(_Z_AXIS, k1.shape + (3,)),
        method="x-closed-form",
    )


def _residual_along(d, n: np.ndarray) -> np.ndarray:
    """The residual ||rho - chi(n)||^2 of dephasing the first qubit along
    unit directions ``n`` (..., 3), from the decomposition ``d``:
    (|x|^2 + ||T||_F^2 - (n.x)^2 - |n^T T|^2) / 4 (Dakic, Vedral & Brukner).
    The discord is its minimum over n."""
    nt = np.vecdot(n[..., :, None], d.T, axis=-2)
    return 0.25 * (np.vecdot(d.x, d.x) + np.sum(d.T * d.T, axis=(-2, -1)) - np.square(np.vecdot(n, d.x))
                   - np.vecdot(nt, nt))


def discord_error_rate_bound(state: TwoQubitState) -> tuple[float, float]:
    """Discord versus the bound built from the two optimal error rates.

    In the state's adapted local frame, where the first-qubit Bloch vector x
    points along z, lhs = D_g <= rhs = (1/2 - delta_x_min)^2 + (1/2 - delta_y_min)^2
    holds for every state. There rhs is a quarter of the squared x and y
    rows of T, which is the residual of dephasing the first qubit along its
    own Bloch direction x/|x|; no local rotation changes that residual, and
    D_g is its minimum over all directions. So both sides are taken in the
    given frame, with no rotation built: lhs from ``discord_eigen`` and rhs
    from the residual along x/|x|, or along z when |x| <= 1e-12. A Bloch
    vector near the z axis is used as it is. In a frame where x keeps
    in-plane components the raw two-term bound, read off that frame's rows
    of T, can fail.

    Args:
        state: the input state, or a stacked state.

    Returns:
        (lhs, rhs) with lhs <= rhs + 1e-9; arrays for a stacked state.
    """
    d = state.decomp
    norm = _vector_norm(d.x)
    small = norm <= 1e-12
    n = np.where(small[..., None], _Z_AXIS, d.x / np.where(small, 1.0, norm)[..., None])
    return discord_eigen(state).value, _item(_residual_along(d, n))


def delta_min_from_discord(state: TwoQubitState) -> float:
    """Minimal error rate from the discord: (1 - sqrt(2 D_g)) / 2.

    Valid when (I) z attains the minimum, for a state already in the frame
    with no in-plane first-qubit Bloch components: with D_z the residual at
    z, (|x|^2 + ||T||^2 - x_z^2 - ||T_z||^2) / 4, the error rate
    (1 - sqrt(2 D_z)) / 2 lies below the result by at most
    _Z_MINIMUM_SLACK; and (II) the two optimal correlation values agree.
    Raises ConditionsNotMetError naming the failed condition; when
    both hold the result equals min_error_rate(state).value to 1e-8. A
    stacked state gives an array; the error names the first failing member
    and its first failed condition.
    """
    d = state.decomp
    in_plane = np.hypot(d.x[..., 0], d.x[..., 1])
    eigen = discord_eigen(state)
    d_z = _residual_along(d, _Z_AXIS)
    # how far the error rate from D_z lies below the one from the discord
    above = 0.5 * (np.sqrt(2.0 * np.maximum(d_z, 0.0)) - np.sqrt(2.0 * eigen.value))
    r1, r2 = _vector_norm(d.T[..., 0, :]), _vector_norm(d.T[..., 1, :])
    _raise_first_failure(in_plane.shape, (
        (in_plane > 1e-9, partial(ConditionsNotMetError, "I"),
         lambda i: f"first-qubit Bloch vector has in-plane magnitude {in_plane[i]:.3e}"),
        (above > _Z_MINIMUM_SLACK, partial(ConditionsNotMetError, "I"),
         lambda i: f"minimizing direction {eigen.argmin_direction[i]} is off the z axis by {above[i]:.3e} "
                   "in error rate"),
        (np.abs(r1 - r2) > 1e-9, partial(ConditionsNotMetError, "II"),
         lambda i: f"optimal correlation values differ: {r1[i]:.12g} vs {r2[i]:.12g}"),
    ))
    return _item(0.5 * (1.0 - np.sqrt(2.0 * eigen.value)))


def _flipped_spectrum(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The descending l_i of each member of a stack with eigenpairs (w, v),
    rho = V diag(w) V^dag: with s = sqrt(max(w, 0)), B = V diag(s) and
    S = sy x sy, they are the singular values of B^T S B, the complex
    conjugate of diag(s) (V^dag S V*) diag(s).

    A real orthogonal V gives a real symmetric B^T S B, whose singular
    values are the moduli of its eigenvalues; a complex V takes the SVD.
    """
    b = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    # S B is B with its rows reversed and signed
    m = b.mT @ (_FLIP_SIGNS * b[..., ::-1, :])
    if np.iscomplexobj(m):
        return np.linalg.svd(m, compute_uv=False)
    lam = np.abs(np.linalg.eigvalsh(m))
    lam.sort(axis=-1)
    return lam[..., ::-1]


def concurrence(state: TwoQubitState):
    """Wootters concurrence from the spin-flipped spectrum.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the descending square
    roots of the eigenvalues of rho (sy x sy) rho* (sy x sy), with the
    conjugation taken entrywise in the computational basis. With
    rho = V diag(w) V^dag the l_i are the singular values of
    diag(s) (V^dag (sy x sy) V*) diag(s), s = sqrt(max(w, 0)): the same
    eigenvectors bring sqrt(rho) (sy x sy) sqrt(rho)* to that form, and
    working with s rather than with rho rho~ avoids the square-root blowup
    of near-zero eigenvalues.

    A member whose imaginary part is exactly zero starts from the real
    eigenpairs in the state's record (see :mod:`twirlkit.qubit_algebra`);
    any other member runs one complex ``eigh``. Each member gets the same
    LAPACK calls on the same values alone and in any stack, so the same
    bits. A float for one state, an array for a stack.
    """
    l1, l2, l3, l4 = _by_route(state.rho, state._eigen_record, _flipped_spectrum,
                               lambda c: _flipped_spectrum(*np.linalg.eigh(c))).T
    c = l1 - l2 - l3 - l4
    return _item(np.where(c > 0.0, c, 0.0).reshape(state.rho.shape[:-2]))


def binary_entropy(x):
    """H2(x) = -x log2 x - (1-x) log2(1-x), with 0 log 0 = 0; entrywise for an array."""
    x = _in_range(x, 1.0, "binary entropy argument", "1")
    h = np.where(x > 0.0, 0.0 - x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)
    q = 1.0 - x
    return _item(np.where(x < 1.0, h - q * np.log2(np.where(x < 1.0, q, 1.0)), h))


def eof_from_concurrence(c):
    """Entanglement of formation of a state with concurrence ``c`` (entrywise for an array)."""
    c = np.asarray(c, dtype=float)
    r = 1.0 - c * c
    return binary_entropy(0.5 * (1.0 + np.sqrt(np.where(r > 0.0, r, 0.0))))


def entanglement_of_formation(state: TwoQubitState) -> float:
    """Entanglement of formation H2((1 + sqrt(1 - C^2)) / 2)."""
    return eof_from_concurrence(concurrence(state))


@dataclass(frozen=True, eq=False)
class TwirlComparison:
    """Discord and concurrence before and after the exact twirl (arrays for a stacked state)."""

    d_before: float
    d_after: float
    c_before: float
    c_after: float


def twirl_discord_comparison(state: TwoQubitState) -> TwirlComparison:
    """Discord (``discord_eigen``) and concurrence before and after twirling.

    Reports the four numbers without asserting any ordering; twirling
    preserves the concurrence-based entanglement only for specific
    families, and whether it raises the discord depends on the state.
    A stacked state gives four arrays.
    """
    after = twirl_analytic(state)
    return TwirlComparison(d_before=discord_eigen(state).value, d_after=discord_eigen(after).value,
                           c_before=concurrence(state), c_after=concurrence(after))
