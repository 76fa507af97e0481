"""Correlation functions, joint-outcome statistics, optimal measurement
settings, analytic error rates, and stochastic simulation of the
entanglement-based key distribution scheme.

Alice measures spin observables along the Bloch x and y axes, so her
raw key symbols are unbiased for states whose first-qubit Bloch vector
points along z. Bob measures along two directions b and b'. Rounds where
the pairing is (x, b') or (y, b) are discarded during sifting; the error
rate is the probability that the two parties' sifted symbols disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySiftedSetError, NotADistributionError, OutOfRangeError
from .qubit_algebra import TwoQubitState, _item, _vector_norm, as_unit_vector


@dataclass(frozen=True)
class MeasurementSetting:
    """A unit Bloch direction naming the spin observable n . sigma.

    ``n`` may also be a (..., 3) stack of directions, one per member of a
    stacked state, as the optimal settings of a stack are.
    """

    n: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", as_unit_vector(self.n))

    @classmethod
    def of(cls, value) -> "MeasurementSetting":
        if isinstance(value, MeasurementSetting):
            return value
        return cls(value)


SETTING_X = MeasurementSetting((1.0, 0.0, 0.0))
SETTING_Y = MeasurementSetting((0.0, 1.0, 0.0))

ALICE_LABELS = ("x", "y")
BOB_LABELS = ("b", "b'")


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the four joint outcomes (+,+), (+,-), (-,+), (-,-)."""

    w_pp: float
    w_pm: float
    w_mp: float
    w_mm: float

    def as_array(self) -> np.ndarray:
        return np.array([self.w_pp, self.w_pm, self.w_mp, self.w_mm])

    def correlation(self) -> float:
        return self.w_pp + self.w_mm - self.w_pm - self.w_mp

    def mismatch(self) -> float:
        return self.w_pm + self.w_mp


def correlation(state: TwoQubitState, a, b) -> float:
    """Expectation of (a . sigma) x (b . sigma), computed as a^T T b."""
    av = MeasurementSetting.of(a).n
    bv = MeasurementSetting.of(b).n
    return float(av @ state.T @ bv)


def outcome_probs(state: TwoQubitState, a, b) -> OutcomeDistribution:
    """Born-rule probabilities for the joint measurement along a and b.

    w(s, s') = (1/4) [1 + s (a . x) + s' (b . y) + s s' a^T T b] for signs
    s, s' in {+1, -1}. Raises NotADistributionError when a probability
    falls below -1e-10, which signals an invalid state slipped through.
    """
    av = MeasurementSetting.of(a).n
    bv = MeasurementSetting.of(b).n
    d = state.decomp
    ax = float(av @ d.x)
    by = float(bv @ d.y)
    corr = float(av @ d.T @ bv)
    w = {}
    for s, sp, key in ((1, 1, "w_pp"), (1, -1, "w_pm"), (-1, 1, "w_mp"), (-1, -1, "w_mm")):
        p = 0.25 * (1.0 + s * ax + sp * by + s * sp * corr)
        if p < -1e-10:
            raise NotADistributionError(f"{key} = {p:.3e} for a={av}, b={bv}")
        w[key] = min(max(p, 0.0), 1.0)
    return OutcomeDistribution(**w)


@dataclass(frozen=True)
class OptimalPartner:
    """Bob's correlation-maximizing direction for a fixed Alice setting.

    ``degenerate`` flags a vanishing T row, where every direction is
    equally (un)correlated; the value is then 0 and the direction is a
    conventional placeholder. For a stacked state the fields are arrays.
    """

    setting: MeasurementSetting
    value: float
    degenerate: bool = False


def optimal_partner(state: TwoQubitState, a) -> OptimalPartner:
    """Maximize a^T T b over unit b: the maximizer is T^T a normalized."""
    av = MeasurementSetting.of(a).n
    row = state.T.mT @ av
    norm = _vector_norm(row)
    degenerate = norm < 1e-12
    safe = np.where(degenerate, 1.0, norm)[..., None]
    setting = np.where(degenerate[..., None], (1.0, 0.0, 0.0), row / safe)
    return OptimalPartner(MeasurementSetting(setting), _item(np.where(degenerate, 0.0, norm)), _item(degenerate))


def error_rate(state: TwoQubitState, b, b_prime) -> float:
    """Average sifted-key error rate for Alice fixed at x and y.

    delta = 1/2 - (<x x b> + <y x b'>) / 4, clipped to [0, 1].
    """
    d = 0.5 - 0.25 * (correlation(state, SETTING_X, b) + correlation(state, SETTING_Y, b_prime))
    return min(max(d, 0.0), 1.0)


@dataclass(frozen=True)
class MinErrorRate:
    """Minimal error rate with the optimizing Bob settings.

    delta_x_min and delta_y_min are the per-basis minima (1 - row norm)/2;
    value combines them as 1/2 - (row1 + row2 norms)/4. For a stacked
    state the fields are arrays.
    """

    value: float
    b: MeasurementSetting
    b_prime: MeasurementSetting
    delta_x_min: float
    delta_y_min: float
    degenerate_x: bool = False
    degenerate_y: bool = False


def min_error_rate(state: TwoQubitState) -> MinErrorRate:
    """Minimize the error rate over Bob's settings (Alice fixed at x, y),
    for one state or every member of a stack."""
    px = optimal_partner(state, SETTING_X)
    py = optimal_partner(state, SETTING_Y)
    return MinErrorRate(
        value=0.5 - 0.25 * (px.value + py.value),
        b=px.setting,
        b_prime=py.setting,
        delta_x_min=0.5 * (1.0 - px.value),
        delta_y_min=0.5 * (1.0 - py.value),
        degenerate_x=px.degenerate,
        degenerate_y=py.degenerate,
    )


# A ledger row after its round number: one tail per (Alice basis, Bob
# basis, Alice bit, Bob bit), at index 8 i + 4 j + 2 [s < 0] + [t < 0].
# The sifted flag is the basis match, the rule simulate_protocol sifts by.
_LEDGER_TAILS = np.array([
    f",{ALICE_LABELS[i]},{BOB_LABELS[j]},{s},{t},{int(i == j)}\n"
    for i in (0, 1) for j in (0, 1) for s in (1, -1) for t in (1, -1)
])
# Rounds formatted per write, so the writer's memory does not grow with n.
_LEDGER_CHUNK = 1 << 16


@dataclass(frozen=True)
class ProtocolRun:
    """Ledger of one simulated key distribution run.

    Per-round arrays hold the setting choices as int8 indices into
    ``ALICE_LABELS`` and ``BOB_LABELS`` and the +-1 outcomes.
    ``sifted_indices`` lists the rounds kept after discarding the (x, b')
    and (y, b) pairings; the discarded rounds remain in the ledger for
    diagnostics. ``empirical_delta`` is the sifted-count weighted mean of
    the two per-basis mismatch rates.
    """

    n_rounds: int
    alice_choice: np.ndarray
    bob_choice: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    sifted_indices: np.ndarray
    empirical_delta_x: float
    empirical_delta_y: float
    empirical_delta: float

    def __post_init__(self):
        for name in ("alice_choice", "bob_choice", "alice_bits", "bob_bits", "sifted_indices"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def alice_bases(self) -> np.ndarray:
        """Alice's per-round basis labels, "x" or "y"."""
        return np.array(ALICE_LABELS)[self.alice_choice]

    @property
    def bob_bases(self) -> np.ndarray:
        """Bob's per-round basis labels, "b" or "b'"."""
        return np.array(BOB_LABELS)[self.bob_choice]

    @property
    def m_sifted(self) -> int:
        return int(self.sifted_indices.size)

    def _key(self, bits: np.ndarray) -> str:
        kept = bits[self.sifted_indices]
        return "".join("+" if v > 0 else "-" for v in kept)

    def alice_key(self) -> str:
        """Alice's sifted key as a +/- symbol string in time order."""
        return self._key(self.alice_bits)

    def bob_key(self) -> str:
        return self._key(self.bob_bits)

    def mismatch_rate(self, alice_basis: str, bob_basis: str) -> float:
        """Observed disagreement rate for one basis pairing (nan if unseen)."""
        mask = (self.alice_bases == alice_basis) & (self.bob_bases == bob_basis)
        if not mask.any():
            return float("nan")
        return float(np.mean(self.alice_bits[mask] != self.bob_bits[mask]))

    def summary(self, delta_analytic: float | None = None) -> dict:
        """Summary dictionary matching the documented JSON schema."""
        return {
            "n_rounds": self.n_rounds,
            "m_sifted": self.m_sifted,
            "delta_x_hat": self.empirical_delta_x,
            "delta_y_hat": self.empirical_delta_y,
            "delta_hat": self.empirical_delta,
            "delta_analytic": delta_analytic,
        }

    def write_rounds_csv(self, path) -> None:
        """Write the per-round ledger: round, bases, bits, sifted flag."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("round,alice_basis,bob_basis,alice_bit,bob_bit,sifted\n")
            for lo in range(0, self.n_rounds, _LEDGER_CHUNK):
                part = slice(lo, lo + _LEDGER_CHUNK)
                code = (8 * self.alice_choice[part] + 4 * self.bob_choice[part]
                        + 2 * (self.alice_bits[part] < 0) + (self.bob_bits[part] < 0))
                rows = np.char.add(np.arange(lo, lo + code.size).astype(str), _LEDGER_TAILS[code])
                fh.write("".join(rows.tolist()))


def simulate_protocol(state: TwoQubitState, n_rounds: int, seed: int, b, b_prime) -> ProtocolRun:
    """Simulate the key distribution rounds for a shared two-qubit state.

    Each round Alice picks x or y and Bob picks b or b' uniformly at
    random; the joint outcome is drawn from the exact four-outcome
    distribution by inverse CDF on a single uniform draw. Sifting keeps
    the (x, b) and (y, b') pairings. Deterministic given ``seed``.

    Raises EmptySiftedSetError when no round survives sifting, which can
    only happen for very small ``n_rounds``.
    """
    if n_rounds < 1:
        raise OutOfRangeError(f"n_rounds must be >= 1, got {n_rounds}")
    alice_settings = (SETTING_X, SETTING_Y)
    bob_settings = (MeasurementSetting.of(b), MeasurementSetting.of(b_prime))

    # Cumulative outcome distributions for the four setting pairings.
    cums = np.empty((2, 2, 4))
    for i in range(2):
        for j in range(2):
            cums[i, j] = np.cumsum(outcome_probs(state, alice_settings[i], bob_settings[j]).as_array())
            cums[i, j, 3] = max(cums[i, j, 3], 1.0)

    rng = np.random.default_rng(seed)
    # int64 draws keep the seeded stream; the run stores them as int8
    alice_choice = rng.integers(0, 2, n_rounds).astype(np.int8)
    bob_choice = rng.integers(0, 2, n_rounds).astype(np.int8)
    u = rng.random(n_rounds)

    outcome = np.empty(n_rounds, dtype=np.int64)
    for i in range(2):
        for j in range(2):
            mask = (alice_choice == i) & (bob_choice == j)
            if mask.any():
                outcome[mask] = np.searchsorted(cums[i, j], u[mask], side="right")
    outcome = np.minimum(outcome, 3)

    # outcome index: 0 (+,+), 1 (+,-), 2 (-,+), 3 (-,-)
    alice_bits = np.where(outcome <= 1, 1, -1).astype(np.int8)
    bob_bits = np.where((outcome == 0) | (outcome == 2), 1, -1).astype(np.int8)

    sifted_mask = alice_choice == bob_choice
    sifted_indices = np.flatnonzero(sifted_mask)
    if sifted_indices.size == 0:
        raise EmptySiftedSetError(f"no sifted rounds among {n_rounds}")

    mismatch = alice_bits != bob_bits
    mask_x = sifted_mask & (alice_choice == 0)
    mask_y = sifted_mask & (alice_choice == 1)
    n_x = int(np.count_nonzero(mask_x))
    n_y = int(np.count_nonzero(mask_y))
    delta_x = float(np.mean(mismatch[mask_x])) if n_x else float("nan")
    delta_y = float(np.mean(mismatch[mask_y])) if n_y else float("nan")
    delta = float(np.count_nonzero(mismatch & sifted_mask)) / sifted_indices.size

    return ProtocolRun(
        n_rounds=n_rounds,
        alice_choice=alice_choice,
        bob_choice=bob_choice,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
        sifted_indices=sifted_indices,
        empirical_delta_x=delta_x,
        empirical_delta_y=delta_y,
        empirical_delta=delta,
    )


def random_key_bias(run: ProtocolRun) -> float:
    """Largest deviation of any party-basis +1 frequency from 1/2.

    Frequencies are taken over all rounds where the party used that basis
    (not only sifted rounds). For a state whose first-qubit Bloch vector
    is along z and in-plane Alice settings, the analytic bias vanishes.
    """
    if run.n_rounds < 1:
        raise OutOfRangeError("run has no rounds")
    worst = 0.0
    for choice, bits in ((run.alice_choice, run.alice_bits), (run.bob_choice, run.bob_bits)):
        for k in (0, 1):
            mask = choice == k
            if mask.any():
                freq = float(np.mean(bits[mask] > 0))
                worst = max(worst, abs(freq - 0.5))
    return worst


def binomial_gate(delta: float, m: int) -> float:
    """Half-width of the 4-sigma binomial band around an error rate."""
    if m < 1:
        raise OutOfRangeError("need at least one sifted round")
    return 4.0 * math.sqrt(max(delta * (1.0 - delta), 0.0) / m)
