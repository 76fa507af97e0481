"""The U x U* twirling channel and its Monte Carlo realization.

The channel averages conjugation by U x U* over Haar-random U in SU(2).
Its exact action projects any two-qubit state onto the Werner family while
preserving the phi+ fidelity; the Monte Carlo average over explicit Haar
samples serves as an independent check of that projection.

The Monte Carlo average is taken through sample moments. U = q0 I + i q.sigma
is linear in its unit quaternion q, so W = U x U* is the quadratic form
sum_{a<=b} q_a q_b B_ab with ten fixed 4x4 operators B_ab. The sample sum
sum_n W_n rho W_n^dag is then sum_kl M_kl B_k rho B_l^dag, where
M = sum_n Q2_n Q2_n^T is the 10x10 moment matrix of the products
Q2 = [q_a q_b]_{a<=b}. This is the same empirical average over the same
explicit draws as the per-sample sum; no Haar-integral identity enters, so
it stays independent of the exact twirl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit_algebra import (
    TwoQubitState, _as_square, _check_broadcast, _check_sampler_inputs, _item, tensor, validate_density,
)
from .states import fidelity_phi_plus, werner

# Samples are drawn in fixed-size chunks, each from a sub-seed derived from
# (seed, chunk index), so the draws do not depend on how many chunks a call
# takes; a chunk's memory is the only working set, whatever the sample count.
_CHUNK = 8192

# The (a, b) index pairs, a <= b, of the ten quaternion products q_a q_b.
_PAIRS = np.triu_indices(4)


def _unit_columns(qt: np.ndarray) -> np.ndarray:
    """Scale each column of ``qt`` (4, n) to unit length in place and return
    it. The squares are summed row after row, in the order in which
    ``np.linalg.norm(qt.T, axis=1)`` sums them, so the columns are bit for
    bit the normalized rows of ``qt.T``."""
    norm = qt[0] * qt[0]
    for row in qt[1:]:
        norm += row * row
    qt /= np.sqrt(norm, out=norm)
    return qt


def _haar_quaternions(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform unit quaternions: four standard normals per row, normalized."""
    return _unit_columns(rng.standard_normal((n, 4)).T.copy()).T


def _su2(q: np.ndarray) -> np.ndarray:
    """U = q0 I + i (q1 sx + q2 sy + q3 sz) for each row of ``q``; linear in q."""
    u = np.empty((len(q), 2, 2), dtype=complex)
    u[:, 0, 0] = q[:, 0] + 1j * q[:, 3]
    u[:, 0, 1] = q[:, 2] + 1j * q[:, 1]
    u[:, 1, 0] = -q[:, 2] + 1j * q[:, 1]
    u[:, 1, 1] = q[:, 0] - 1j * q[:, 3]
    return u


def _haar_su2_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Haar-distributed SU(2) matrices drawn from ``rng``, an (n, 2, 2) stack.

    A uniform unit quaternion (four standard normals, normalized) maps to
    U = q0 I + i (q1 sx + q2 sy + q3 sz), which is exactly Haar on SU(2).
    The rows are the matrices that ``n`` successive one-matrix draws give.
    """
    return _su2(_haar_quaternions(rng, n))


def _quadratic_basis() -> np.ndarray:
    """The ten B_ab, in ``_PAIRS`` order, with U x U* = sum_{a<=b} q_a q_b B_ab.

    Polarization of the q -> U x U* map: B_aa = W(e_a) and, for a < b,
    B_ab = W(e_a + e_b) - W(e_a) - W(e_b). All entries are exact small
    integers times 1 or i.
    """
    eye = np.eye(4)
    a, b = _PAIRS
    u, v = _su2(eye), _su2(eye[a] + eye[b])
    single, pair = tensor(u, u.conj()), tensor(v, v.conj())
    return np.where((a == b)[:, None, None], single[a], pair - single[a] - single[b])


_BASIS = _quadratic_basis()


def _chunk_moments(draws: np.ndarray, work: np.ndarray) -> np.ndarray:
    """sum_n Q2_n Q2_n^T over the unit quaternions q_n of one chunk, with
    Q2 = [q_a q_b]_{a<=b}.

    ``draws`` (k, 4) holds the chunk's raw standard normals, one quaternion
    per row. ``work`` is a flat float buffer of at least 14 k entries that
    the caller reuses from chunk to chunk: a transposed copy of the draws
    (4, k) is normalized there, and the ten products are written row by row
    beside it (10, k).
    """
    k = len(draws)
    qt = work[:4 * k].reshape(4, k)
    q2 = work[4 * k:14 * k].reshape(len(_PAIRS[0]), k)
    np.copyto(qt, draws.T)
    _unit_columns(qt)
    for row, a, b in zip(q2, *_PAIRS):
        np.multiply(qt[a], qt[b], out=row)
    return q2 @ q2.T


def _moments(n_samples: int, seed: int) -> np.ndarray:
    """The 10x10 moment matrix of ``n_samples`` Haar quaternions, summed
    over chunks whose draws come from (seed, chunk index). One draw buffer
    and one chunk workspace serve every chunk, so the peak stays at one
    chunk's memory."""
    draws = np.empty(4 * _CHUNK)
    work = np.empty(14 * _CHUNK)
    moments = np.zeros((len(_BASIS), len(_BASIS)))
    for chunk_index, done in enumerate(range(0, n_samples, _CHUNK)):
        k = min(_CHUNK, n_samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        chunk = draws[:4 * k].reshape(k, 4)
        rng.standard_normal(out=chunk)
        moments += _chunk_moments(chunk, work)
    return moments


def conjugate_pair_apply(state: TwoQubitState, u) -> TwoQubitState:
    """Apply (U x U*) rho (U x U*)^dag for a 2x2 unitary U, or for each U of
    a (..., 2, 2) stack (giving a stacked state)."""
    u = _as_square(u, 2)
    w = tensor(u, u.conj())
    return validate_density(w @ state.rho @ w.conj().swapaxes(-1, -2))


def twirl_analytic(state: TwoQubitState) -> TwoQubitState:
    """Exact twirl: the Werner state with the input's phi+ fidelity (member
    by member for a stacked state)."""
    return werner(fidelity_phi_plus(state))


def trace_distance(a: TwoQubitState, b: TwoQubitState) -> float:
    """Half the sum of absolute eigenvalues of a - b, member by member for
    stacks; OutOfRangeError when their leading axes do not broadcast."""
    _check_broadcast(a=a.rho.shape[:-2], b=b.rho.shape[:-2])
    ev = np.linalg.eigvalsh(_as_square(a.rho - b.rho, 4))
    return _item(0.5 * np.sum(np.abs(ev), axis=-1))


@dataclass(frozen=True, eq=False)
class TwirlReport:
    """Monte Carlo twirl output with its distance to the exact projection."""

    result: TwoQubitState
    n_samples: int
    trace_distance_to_analytic: float


def twirl_monte_carlo(state: TwoQubitState, n_samples: int, seed: int) -> TwirlReport:
    """Average (U x U*) rho (U x U*)^dag over ``n_samples`` Haar draws.

    Deterministic given ``seed``: samples are generated in chunks whose
    sub-streams derive from (seed, chunk index). Each chunk adds its
    quaternion products to the 10x10 moment matrix, which is contracted
    with the ``_BASIS`` operators once at the end (see the module
    docstring). The averaged matrix is re-validated; its trace stays within
    1e-12 of 1 by construction and is renormalized if that ever fails. The
    report carries the trace distance to the exact twirl.

    Raises OutOfRangeError for a stacked state, a sample count that is not
    an integer >= 1 or a seed that is not an integer >= 0.
    """
    _check_sampler_inputs(state, n_samples, "n_samples", seed)
    moments = _moments(n_samples, seed)
    rotated = _BASIS @ state.rho
    mean = np.einsum("kl,kac,ldc->ad", moments, rotated, _BASIS.conj()) / n_samples
    drift = abs(np.trace(mean) - 1.0)
    if drift > 1e-12:
        mean = mean / np.trace(mean).real
    result = validate_density(mean)
    return TwirlReport(
        result=result,
        n_samples=n_samples,
        trace_distance_to_analytic=trace_distance(result, twirl_analytic(state)),
    )
