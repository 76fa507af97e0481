"""The U x U* twirling channel and its Monte Carlo realization.

The channel averages conjugation by U x U* over Haar-random U in SU(2).
Its exact action projects any two-qubit state onto the Werner family while
preserving the phi+ fidelity; the Monte Carlo average over explicit Haar
samples serves as an independent check of that projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qubit_algebra import TwoQubitState, _as_square, validate_density
from .states import fidelity_phi_plus, werner

# Samples are averaged in fixed-size chunks, each driven by a sub-seed
# derived from (seed, chunk index). Chunks may be farmed out to workers;
# the accumulated sum is order-independent up to float reassociation.
_CHUNK = 8192


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed SU(2) matrix drawn from ``rng``.

    A uniform unit quaternion (four standard normals, normalized) maps to
    U = q0 I + i (q1 sx + q2 sy + q3 sz), which is exactly Haar on SU(2).
    """
    return _haar_su2_batch(rng, 1)[0]


def _haar_su2_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    u = np.empty((n, 2, 2), dtype=complex)
    u[:, 0, 0] = q[:, 0] + 1j * q[:, 3]
    u[:, 0, 1] = q[:, 2] + 1j * q[:, 1]
    u[:, 1, 0] = -q[:, 2] + 1j * q[:, 1]
    u[:, 1, 1] = q[:, 0] - 1j * q[:, 3]
    return u


def conjugate_pair_apply(state: TwoQubitState, u) -> TwoQubitState:
    """Apply (U x U*) rho (U x U*)^dag for a single 2x2 unitary U."""
    w = np.kron(_as_square(u, 2), np.conj(_as_square(u, 2)))
    return validate_density(w @ state.rho @ w.conj().T)


def twirl_analytic(state: TwoQubitState) -> TwoQubitState:
    """Exact twirl: the Werner state with the input's phi+ fidelity (member
    by member for a stacked state)."""
    return werner(fidelity_phi_plus(state))


def trace_distance(a: TwoQubitState, b: TwoQubitState) -> float:
    """Half the sum of absolute eigenvalues of the difference a - b."""
    ev = np.linalg.eigvalsh(a.rho - b.rho)
    return float(0.5 * np.sum(np.abs(ev)))


@dataclass(frozen=True)
class TwirlReport:
    """Monte Carlo twirl output with its distance to the exact projection."""

    result: TwoQubitState
    n_samples: int
    trace_distance_to_analytic: float


def twirl_monte_carlo(state: TwoQubitState, n_samples: int, seed: int) -> TwirlReport:
    """Average (U x U*) rho (U x U*)^dag over ``n_samples`` Haar draws.

    Deterministic given ``seed``: samples are generated in chunks whose
    sub-streams derive from (seed, chunk index). The averaged matrix is
    re-validated; its trace stays within 1e-12 of 1 by construction and is
    renormalized if that ever fails. The report carries the trace distance
    to the exact twirl.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rho = state.rho
    acc = np.zeros((4, 4), dtype=complex)
    done = 0
    chunk_index = 0
    while done < n_samples:
        m = min(_CHUNK, n_samples - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))
        u = _haar_su2_batch(rng, m)
        w = np.einsum("nij,nkl->nikjl", u, u.conj()).reshape(m, 4, 4)
        rotated = np.einsum("nab,bc->nac", w, rho)
        acc += np.einsum("nac,ndc->ad", rotated, w.conj())
        done += m
        chunk_index += 1
    mean = acc / n_samples
    drift = abs(np.trace(mean) - 1.0)
    if drift > 1e-12:
        mean = mean / np.trace(mean).real
    result = validate_density(mean)
    return TwirlReport(
        result=result,
        n_samples=n_samples,
        trace_distance_to_analytic=trace_distance(result, twirl_analytic(state)),
    )
