"""Correlation functions, joint-outcome statistics, optimal measurement
settings, analytic error rates, and stochastic simulation of the
entanglement-based key distribution scheme.

Alice measures spin observables along the Bloch x and y axes, so her
raw key symbols are unbiased for states whose first-qubit Bloch vector
points along z. Bob measures along two directions b and b'. Rounds where
the pairing is (x, b') or (y, b) are discarded during sifting; the error
rate is the probability that the two parties' sifted symbols disagree.

A simulated run (``ProtocolRun``) keeps one int8 code per round, packing
both basis choices and both outcomes. Its summary counts and the
per-round ledger are both read from that one array. Round k of a run
reads one raw 64-bit word, word k of the seed's PCG64 stream (the layout
is in ``simulate_protocol``). The simulator reads the words and fills the
codes in chunks of ``_CHUNK`` rounds, and the summary counts them two
rounds at a time, in chunks of ``_CHUNK`` pairs. A round's code is one
gather from a guide table keyed by its pairing and the top bits of its
word; the few rounds whose bucket holds an outcome threshold are counted
exactly against integer limits after the last chunk (``_decode``). The
ledger writer builds the rows' bytes in blocks of 10^4 rounds that start
at multiples of 10^4, so that past the first block every round number in
a block has the same width. It keeps one row matrix per width and gathers
each row's tail as one 16-byte element. The memory beyond the one byte
per round does not grow with the round count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptySiftedSetError, OutOfRangeError
from .qubit_algebra import (
    TwoQubitState,
    _check_broadcast,
    _check_sampler_inputs,
    _clamp_unit,
    _item,
    _read_only,
    _vector_norm,
    as_unit_vector,
)


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """A unit Bloch direction naming the spin observable n . sigma.

    ``n`` may also be a (..., 3) stack. Kernels broadcast a stacked state's
    leading axes against the settings': one state with (k, 3) settings gives
    k values, an (m,) stack with (m, 3) settings m values, and an (m, 1)
    stack with (m, k, 3) settings (m, k) values.
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


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Probabilities of the four joint outcomes (+,+), (+,-), (-,+), (-,-);
    arrays for a stacked state or stacked settings."""

    w_pp: float
    w_pm: float
    w_mp: float
    w_mm: float

    def as_array(self) -> np.ndarray:
        """The four probabilities along a last axis of length 4."""
        return np.stack([self.w_pp, self.w_pm, self.w_mp, self.w_mm], axis=-1)

    def correlation(self) -> float:
        return self.w_pp + self.w_mm - self.w_pm - self.w_mp


def correlation(state: TwoQubitState, a, b) -> float:
    """Expectation of (a . sigma) x (b . sigma), computed as a^T T b; an
    array for a stacked state or stacked settings. Raises OutOfRangeError when
    their leading axes do not broadcast."""
    av = MeasurementSetting.of(a).n
    bv = MeasurementSetting.of(b).n
    _check_broadcast(state=state.rho.shape[:-2], a=av.shape[:-1], b=bv.shape[:-1])
    # (a^T T) . b, in the order av @ T @ bv takes on one state, so a member's bits are its own
    return _item(np.vecdot((av[..., None, :] @ state.T)[..., 0, :], bv))


def outcome_probs(state: TwoQubitState, a, b) -> OutcomeDistribution:
    """Born-rule probabilities for the joint measurement along a and b.

    w(s, s') = (1/4) [1 + s (a . x) + s' (b . y) + s s' a^T T b] for signs
    s, s' in {+1, -1}, each clamped to [0, 1]: the state is valid, so a
    value outside that range comes from rounding or from an eigenvalue
    within construction's floor. A stacked state or stacked settings give
    arrays. Leading axes that do not broadcast raise OutOfRangeError, as in
    ``correlation``.
    """
    a, b = MeasurementSetting.of(a), MeasurementSetting.of(b)
    corr = correlation(state, a, b)
    ax, by = np.vecdot(a.n, state.x), np.vecdot(b.n, state.y)
    w = {key: 0.25 * (1.0 + s * ax + sp * by + s * sp * corr)
         for s, sp, key in ((1, 1, "w_pp"), (1, -1, "w_pm"), (-1, 1, "w_mp"), (-1, -1, "w_mm"))}
    return OutcomeDistribution(**{key: _clamp_unit(p) for key, p in w.items()})


@dataclass(frozen=True, eq=False)
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
    """Maximize a^T T b over unit b: the maximizer is T^T a normalized; arrays
    for stacks. Raises OutOfRangeError when their leading axes do not broadcast."""
    av = MeasurementSetting.of(a).n
    _check_broadcast(state=state.rho.shape[:-2], a=av.shape[:-1])
    row = (state.T.mT @ av[..., None])[..., 0]
    norm = _vector_norm(row)
    degenerate = norm < 1e-12
    safe = np.where(degenerate, 1.0, norm)[..., None]
    setting = np.where(degenerate[..., None], (1.0, 0.0, 0.0), row / safe)
    return OptimalPartner(MeasurementSetting(setting), _item(np.where(degenerate, 0.0, norm)), _item(degenerate))


def error_rate(state: TwoQubitState, b, b_prime) -> float:
    """Average sifted-key error rate for Alice fixed at x and y.

    delta = 1/2 - (<x x b> + <y x b'>) / 4, clipped to [0, 1]; an array for
    stacks. Raises OutOfRangeError when the leading axes of the state and of
    the settings do not broadcast.
    """
    b, b_prime = MeasurementSetting.of(b), MeasurementSetting.of(b_prime)
    _check_broadcast(state=state.rho.shape[:-2], b=b.n.shape[:-1], b_prime=b_prime.n.shape[:-1])
    d = 0.5 - 0.25 * (correlation(state, SETTING_X, b) + correlation(state, SETTING_Y, b_prime))
    return _clamp_unit(d)


@dataclass(frozen=True, eq=False)
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


# A ledger row after its round number, as NUL-padded ASCII: one tail per
# round code (see ProtocolRun). The sifted flag is the basis match, the rule
# simulate_protocol sifts by. The longest tail has 14 bytes; padded to 16,
# a tail reads as one complex128, which take gathers a row at a time.
_LEDGER_TAILS = np.array([
    f",{ALICE_LABELS[i]},{BOB_LABELS[j]},{s},{t},{int(i == j)}\n"
    for i in (0, 1) for j in (0, 1) for s in (1, -1) for t in (1, -1)
], dtype="S16").view(np.complex128)
# The ledger writer's blocks of rows start at multiples of _LEDGER_BLOCK, so
# past the first block a block's round numbers share their leading digits
# and have one width. _LEDGER_DIGITS is the last four digits of every round
# number in a block as ASCII; _LEDGER_FIRST_DIGITS the same for the first
# block, with NUL in place of leading zeros.
# Built in int16: int64 temporaries raise the peak RSS of an import by
# about 0.5 MiB.
_LEDGER_BLOCK = 10**4
_LEDGER_DIGITS = (
    np.arange(_LEDGER_BLOCK, dtype=np.int16)[:, None] // np.array((1000, 100, 10, 1), np.int16) % 10 + 48
).astype(np.uint8)
_LEDGER_FIRST_DIGITS = np.where(
    np.arange(_LEDGER_BLOCK, dtype=np.int16)[:, None] >= np.array((1000, 100, 10, 0), np.int16), _LEDGER_DIGITS, 0
)
# Rounds per chunk of the simulator, and pairs of rounds per chunk of the
# summary count, so that only the run's one byte per round grows with n.
# Larger chunks cut the fixed cost per chunk but raise the peak memory, as
# the simulator holds three uint64 buffers of _CHUNK words.
_CHUNK = 1 << 14


def _chunks(n: int):
    """Consecutive slices of at most _CHUNK rounds that cover range(n)."""
    return (slice(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK))


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """Record of one simulated key distribution run: one int8 code per round.

    ``code[k] = 8 i + 4 j + 2 [s < 0] + [t < 0]`` for round k, where i
    indexes Alice's basis in ``ALICE_LABELS``, j Bob's in ``BOB_LABELS``,
    and s, t are their +-1 outcomes. Sifting keeps the rounds with i == j;
    the discarded (x, b') and (y, b) rounds stay for diagnostics. Raises
    OutOfRangeError unless ``n_rounds`` is an integer >= 0 and ``code`` a
    1-D int8 array of ``n_rounds`` entries in 0..15. A read-only ``code`` is
    kept as it is if it is contiguous; a writeable or strided one is copied,
    and the caller's array stays writeable.

    ``m_sifted``, the per-basis mismatch rates ``empirical_delta_x``/``_y``,
    their sifted-count weighted mean ``empirical_delta``, ``mismatch_rate``
    and ``random_key_bias`` all read one 16-bin count of the codes.
    """

    n_rounds: int
    code: np.ndarray

    def __post_init__(self):
        n, code = self.n_rounds, np.asarray(self.code)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise OutOfRangeError(f"n_rounds must be an integer >= 0, got {n!r}")
        if code.dtype != np.int8 or code.shape != (n,):
            raise OutOfRangeError(
                f"code must be a 1-D int8 array of n_rounds = {n} entries, got {code.dtype} of shape {code.shape}"
            )
        if n and (code.min() < 0 or code.max() > 15):
            raise OutOfRangeError(f"round codes must lie in 0..15, got {code.min()}..{code.max()}")
        kept = code.flags.c_contiguous and not code.flags.writeable
        object.__setattr__(self, "code", code if kept else _read_only(code.copy()))

    @cached_property
    def _counts(self) -> np.ndarray:
        """Rounds per code, as a (2, 2, 2, 2) table over (i, j, [s<0], [t<0]).

        The codes are counted two rounds at a time. Read as uint16, the
        codes c, c' of rounds 2k and 2k + 1 give c + 256 c' (c' + 256 c on a
        big-endian machine), so one bincount per chunk of _CHUNK pairs fills
        a table of pairs with 16 rows and 16 used columns. The two codes'
        counts are its column and row sums, in either byte order. An odd
        last round is added alone.
        """
        pairs = np.zeros((16, 256), dtype=np.intp)
        flat = pairs.reshape(-1)[:15 * 256 + 16]
        even = self.code[:self.n_rounds - self.n_rounds % 2].view(np.uint16)
        for s in _chunks(even.size):
            flat += np.bincount(even[s], minlength=flat.size)
        counts = pairs[:, :16].sum(axis=0) + pairs[:, :16].sum(axis=1)
        if self.n_rounds % 2:
            counts[self.code[-1]] += 1
        return _read_only(counts.reshape(2, 2, 2, 2))

    def _rate(self, i, j) -> float:
        """Disagreeing share of the rounds with Alice basis i and Bob basis j
        (index arrays select several pairings); nan if there are none."""
        counts = self._counts[i, j]
        total = int(counts.sum())
        if not total:
            return float("nan")
        return int(counts[..., 0, 1].sum() + counts[..., 1, 0].sum()) / total

    m_sifted = property(lambda run: int(run._counts[[0, 1], [0, 1]].sum()))
    empirical_delta_x = property(lambda run: run._rate(0, 0))
    empirical_delta_y = property(lambda run: run._rate(1, 1))
    empirical_delta = property(lambda run: run._rate([0, 1], [0, 1]))

    def mismatch_rate(self, alice_basis: str, bob_basis: str) -> float:
        """Observed disagreement rate for one basis pairing (nan if unseen)."""
        if alice_basis not in ALICE_LABELS or bob_basis not in BOB_LABELS:
            raise OutOfRangeError(f"unknown basis pairing ({alice_basis!r}, {bob_basis!r})")
        return self._rate(ALICE_LABELS.index(alice_basis), BOB_LABELS.index(bob_basis))

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
        """Write the per-round ledger: round, bases, bits, sifted flag.

        Each block of _LEDGER_BLOCK rows is one uint8 matrix with a row per
        round: the round number's leading digits, its last four digits and
        the 16-byte tail of its code. The matrix is reused while the leading
        digits keep their width, so its four digit columns are written once
        per width and each block refills the leading digits and the tails,
        the tails as one 16-byte gather per row. The NUL padding is dropped
        and the rest is written in one call.
        """
        rows = np.empty((0, 0), np.uint8)
        with open(path, "wb") as fh:
            fh.write(b"round,alice_basis,bob_basis,alice_bit,bob_bit,sifted\n")
            for lo in range(0, self.n_rounds, _LEDGER_BLOCK):
                hi = min(lo + _LEDGER_BLOCK, self.n_rounds)
                head = np.frombuffer(str(lo // _LEDGER_BLOCK).encode() if lo else b"", np.uint8)
                # a width's first block is short only if it is the run's last,
                # so its hi - lo rows serve every block of the width
                if rows.shape[1] != head.size + 20:
                    rows = np.empty((hi - lo, head.size + 20), np.uint8)
                    rows[:, head.size:-16] = (_LEDGER_DIGITS if lo else _LEDGER_FIRST_DIGITS)[:hi - lo]
                block = rows[:hi - lo]
                block[:, :head.size] = head
                block[:, -16:].view(np.complex128)[:, 0] = _LEDGER_TAILS.take(self.code[lo:hi])
                fh.write(block[block != 0])


def _limits(thresholds: np.ndarray) -> np.ndarray:
    """The least m with t <= m 2^-53, as uint64, for each threshold t >= 0.

    t 2^53 is exact, and so is its ceiling, so ``m >= limit`` decides
    ``t <= (w >> 11) * 2**-53`` as the float comparison does. A threshold
    of 1 or more, which no uniform reaches, gets 2^53, which no m reaches.
    """
    return np.ceil(np.fmin(thresholds, 1.0) * 2.0**53).astype(np.uint64)


# A round's guide bucket is the top _GUIDE_BITS bits of its m = w >> 11,
# which are the top bits of its word; a bucket spans 2^_BUCKET_SHIFT m.
_GUIDE_BITS = 12
_BUCKET_SHIFT = 53 - _GUIDE_BITS


def _guide(limits: np.ndarray) -> np.ndarray:
    """The guide table of a (4, 3) array of pairings' limits: int8 entry
    ``(p << _GUIDE_BITS) | bucket`` is the code 4 p + (count of the
    pairing's limits at or below every m of the bucket), or -1 where a limit
    falls inside the bucket, so that the count depends on m there.

    Each pairing's row is the run of codes 4 p, 4 p + 1, ... that steps up
    at the bucket holding each limit, limit >> _BUCKET_SHIFT; where that
    bucket is marked -1, the step takes effect from the next one.
    """
    edges = np.column_stack([
        np.zeros(4, np.intp), (limits >> _BUCKET_SHIFT).astype(np.intp), np.full(4, 1 << _GUIDE_BITS),
    ])
    guide = np.repeat(np.arange(16, dtype=np.int8), np.diff(edges).ravel())
    p, k = np.nonzero(limits & ((1 << _BUCKET_SHIFT) - 1))
    guide[(p << _GUIDE_BITS) + (limits[p, k] >> _BUCKET_SHIFT).astype(np.intp)] = -1
    return guide


def _decode(word_chunks, n_rounds: int, thresholds: np.ndarray) -> np.ndarray:
    """The int8 codes of n_rounds rounds, from their raw words.

    ``word_chunks`` yields the rounds' uint64 words in order, as arrays of
    at most _CHUNK words; ``thresholds`` is the (4, 3) array of each
    pairing's first three cumulative outcome probabilities. A round with
    word w has pairing p = w & 3 and m = w >> 11, and its code is
    4 p + (count of the pairing's thresholds t with t <= m 2^-53). The
    guide table gives that code by the pairing and the top bits of w; the
    rounds whose bucket holds a limit (``_guide`` marks them -1) are
    collected with their words and counted exactly against the limits
    after the last chunk.
    """
    limits = _limits(thresholds)
    guide = _guide(limits)
    code = np.empty(n_rounds, dtype=np.int8)
    key, top = np.empty(_CHUNK, np.uint64), np.empty(_CHUNK, np.uint64)
    exact_at, exact_words = [], []
    lo = 0
    for words in word_chunks:
        k, t, chunk = key[:words.size], top[:words.size], code[lo:lo + words.size]
        np.left_shift(np.bitwise_and(words, 3, out=k), _GUIDE_BITS, out=k)
        np.bitwise_or(k, np.right_shift(words, 64 - _GUIDE_BITS, out=t), out=k)
        # the keys are below 2^14, so their uint64 bits read as intp, the
        # index type take uses without a cast
        guide.take(k.view(np.intp), out=chunk)
        at = np.flatnonzero(chunk < 0)
        if at.size:
            exact_at.append(at + lo)
            exact_words.append(words[at])
        lo += words.size
    if exact_at:
        words = np.concatenate(exact_words)
        pairing = (words & 3).astype(np.intp)
        code[np.concatenate(exact_at)] = 4 * pairing + np.count_nonzero(
            limits[pairing] <= (words >> 11)[:, None], axis=1
        )
    return code


def simulate_protocol(state: TwoQubitState, n_rounds: int, seed: int, b, b_prime) -> ProtocolRun:
    """Simulate the key distribution rounds for a shared two-qubit state.

    Each round Alice picks x or y and Bob picks b or b' uniformly at
    random; the joint outcome is drawn from the exact four-outcome
    distribution by inverse CDF on a single uniform draw. Sifting keeps
    the (x, b) and (y, b') pairings.

    Round k reads w, raw word k of ``np.random.PCG64(seed)`` (the bit
    generator of ``default_rng(seed)``): bit 1 of w is Alice's basis i,
    bit 0 Bob's basis j, and the round's uniform is ``(w >> 11) * 2**-53``,
    the form of ``Generator.random``. Numpy keeps raw bit-generator streams
    stable across versions (NEP 19), so a seed's rounds do not depend on
    the numpy version. The outcome index 0 (+,+), 1 (+,-), 2 (-,+), 3 (-,-)
    is the count of the pairing's first three cumulative probabilities at
    or below the uniform (``_decode``).

    Raises OutOfRangeError for a stacked state, a round count that is not
    an integer >= 1 or a seed that is not an integer >= 0, and
    EmptySiftedSetError when no round survives sifting, which can only
    happen for very small ``n_rounds``.
    """
    _check_sampler_inputs(state, n_rounds, "n_rounds", seed)
    b, b_prime = MeasurementSetting.of(b).n, MeasurementSetting.of(b_prime).n
    # One stacked call over the pairings 2 i + j: Alice's settings by row,
    # Bob's by column.
    probs = outcome_probs(state, np.array([[SETTING_X.n] * 2, [SETTING_Y.n] * 2]), np.array([[b, b_prime]] * 2))
    thresholds = np.cumsum(probs.as_array(), axis=-1).reshape(4, 4)[:, :3]

    bitgen = np.random.PCG64(seed)
    code = _decode((bitgen.random_raw(s.stop - s.start) for s in _chunks(n_rounds)), n_rounds, thresholds)
    # read-only, so the run keeps this array without a copy
    run = ProtocolRun(n_rounds=n_rounds, code=_read_only(code))
    if run.m_sifted == 0:
        raise EmptySiftedSetError(f"no sifted rounds among {n_rounds}")
    return run


def random_key_bias(run: ProtocolRun) -> float:
    """Largest deviation of any party-basis +1 frequency from 1/2.

    Frequencies are taken over all rounds where the party used that basis
    (not only sifted rounds). For a state whose first-qubit Bloch vector
    is along z and in-plane Alice settings, the analytic bias vanishes.
    """
    if run.n_rounds < 1:
        raise OutOfRangeError("run has no rounds")
    worst = 0.0
    # rounds per (basis, [bit < 0]), for Alice and then for Bob
    for table in (run._counts.sum(axis=(1, 3)), run._counts.sum(axis=(0, 2))):
        for k in (0, 1):
            total = int(table[k].sum())
            if total:
                worst = max(worst, abs(int(table[k, 0]) / total - 0.5))
    return worst


def binomial_gate(delta: float, m: int) -> float:
    """Half-width of the 4-sigma binomial band around an error rate."""
    if m < 1:
        raise OutOfRangeError("need at least one sifted round")
    return 4.0 * math.sqrt(max(delta * (1.0 - delta), 0.0) / m)
