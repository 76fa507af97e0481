"""Complex 2x2 / 4x4 operator algebra for two-qubit states.

Matrices are plain complex numpy arrays. Two-qubit operators live in the
product basis |uu>, |ud>, |du>, |dd>, where |u> is the +1 eigenvector of
sigma_z. A state is carried as a :class:`TwoQubitState`, which caches its
Pauli decomposition (local Bloch vectors and the 3x3 correlation matrix).

The kernels are batch-first. ``validate_density``, ``pauli_decompose``,
``hs_norm_sq`` and ``hermitian_eigenvalues`` take a stack of shape
(..., 4, 4), ``pauli_compose`` a stacked decomposition, and a
``TwoQubitState`` may hold such a stack; every array derived from it
(Bloch vectors, correlation matrices, directions, values) carries the
same leading axes. One 4x4 matrix is the stack with no leading axes, so
the per-state calls run the same code and return the same types as
before: a float where a stack gives an array. Each member of a stack
gets bit for bit the result it gets on its own, and every member is
validated; an error raised for a stack names the index of the first
failing member.

Building a ``TwoQubitState`` validates it, and ``validate_density`` is
that construction: there is no unchecked state. Each member's eigensolve
route is decided once, in ``_real_eigh``: a real symmetric ``eigh`` for a
member whose imaginary part is exactly zero, a complex solve for any
other. Every state holds that record, the real members' mask and
eigenpairs (160 bytes per real member), which construction sets and
``measures.concurrence`` reuses. A state's decomposition takes no
re-check; ``pauli_decompose`` and ``hermitian_eigenvalues``, which take
raw matrices, keep their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NonHermitianError, NotPositiveError, OutOfRangeError, TraceNotOneError

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    return _read_only(np.array(a))


SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = _frozen(np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]))
ID2 = _frozen(np.eye(2, dtype=complex))
ID4 = _frozen(np.eye(4, dtype=complex))


def _item(a):
    """A 0-d numpy result as a Python scalar (float or bool); a stacked result as is."""
    return a.item() if a.ndim == 0 else a


def _clamp_unit(v):
    """``v`` clamped to [0, 1] with the picks of min(max(v, 0.0), 1.0), signed zeros and nan included."""
    return _item(np.where(1.0 < v, 1.0, np.where(0.0 > v, 0.0, v)))


def _vector_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of real vectors along the last axis.

    The same dot product as ``np.linalg.norm`` of one 1-D vector, so a
    stacked norm equals the single-vector norm bit for bit (the reducing
    forms of ``np.linalg.norm(axis=-1)`` round differently).
    """
    return np.sqrt(np.vecdot(v, v))


def _raise_first_failure(shape: tuple, failures) -> None:
    """Raise for the first member of a stack of ``shape`` that fails a check.

    ``failures`` lists (mask, error type, message(index)) in the order a
    single member is checked; the first failing check of the first failing
    member (in C order) is raised. A member of a stack is named by its
    index; with no leading axes the message is the single-state one.
    """
    masks = [mask for mask, _, _ in failures if np.count_nonzero(mask)]
    if not masks:
        return
    index = tuple(int(k) for k in np.unravel_index(int(np.argmax(np.logical_or.reduce(masks))), shape))
    for mask, error, message in failures:
        if mask[index]:
            text = message(index)
            if shape:
                text = f"state {index[0] if len(index) == 1 else index}: {text}"
            raise error(text)


def _check_broadcast(**shapes: tuple) -> None:
    """Raise OutOfRangeError naming every shape unless the stacks' leading
    axes ``shapes`` broadcast together."""
    if len(set(shapes.values()) - {()}) < 2:  # equal or empty shapes always broadcast
        return
    try:
        np.broadcast_shapes(*shapes.values())
    except ValueError:
        named = ", ".join(f"{name} {shape}" for name, shape in shapes.items())
        raise OutOfRangeError(f"leading axes do not broadcast: {named}") from None


def _as_square(a, dim: int) -> np.ndarray:
    """A finite complex dim x dim matrix or (..., dim, dim) stack."""
    m = np.asarray(a, dtype=complex)
    if m.shape[-2:] != (dim, dim):
        raise OutOfRangeError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    _raise_first_failure(m.shape[:-2], ((~finite, OutOfRangeError, lambda i: "matrix entries must be finite"),))
    return m


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators in the |uu>,|ud>,|du>,|dd> ordering;
    (..., 2, 2) stacks broadcast to a (..., 4, 4) stack. Each entry is the
    one product np.kron takes, so a member's bits are np.kron's."""
    a, b = _as_square(a, 2), _as_square(b, 2)
    _check_broadcast(a=a.shape[:-2], b=b.shape[:-2])
    w = a[..., :, None, :, None] * b[..., None, :, None, :]
    return w.reshape(*w.shape[:-4], 4, 4)


def pauli_sigma(n) -> np.ndarray:
    """The spin observable n . sigma for a real 3-vector n (or a (..., 3) stack)."""
    v = np.asarray(n, dtype=float)
    return np.einsum("...k,kij->...ij", v, PAULIS)


def as_unit_vector(n) -> np.ndarray:
    """Validate and freeze a real unit 3-vector, or a (..., 3) stack of them
    (each norm within 1e-12 of 1)."""
    v = np.asarray(n, dtype=float)
    if v.shape[-1:] != (3,):
        raise OutOfRangeError(f"expected a 3-vector, got shape {v.shape}")
    norm = _vector_norm(v)
    off = ~(np.abs(norm - 1.0) <= 1e-12)  # also true for a nan or inf norm
    _raise_first_failure(v.shape[:-1], ((off, OutOfRangeError,
                                        lambda i: f"vector norm {norm[i]} differs from 1 beyond 1e-12"),))
    return _frozen(v)


def hs_norm_sq(a) -> float:
    """Squared Hilbert-Schmidt norm Tr(A A^dag) = sum of squared entry
    moduli; an array of them for a (..., 4, 4) stack."""
    m = _as_square(a, 4)
    return _item(np.sum(np.abs(m) ** 2, axis=(-2, -1)))


def _hermitian_defect(m: np.ndarray) -> np.ndarray:
    """Largest entrywise deviation from Hermitian of each matrix in a stack."""
    with np.errstate(over="ignore"):  # a difference past the float range is inf, which fails its gate
        return np.max(np.abs(m - m.conj().mT), axis=(-2, -1))


def hermitian_eigenvalues(a) -> np.ndarray:
    """Real eigenvalues of a Hermitian 4x4 matrix, sorted in descending
    order; a (..., 4) array of them for a (..., 4, 4) stack.

    Raises NonHermitianError when a matrix deviates from its adjoint by
    more than 1e-10 in any entry.
    """
    m = _as_square(a, 4)
    defect = _hermitian_defect(m)
    message = "matrix deviates from Hermitian by {:.3e} (atol 1.0e-10)"
    _raise_first_failure(m.shape[:-2], ((defect > 1e-10, NonHermitianError, lambda i: message.format(defect[i])),))
    return np.linalg.eigvalsh(m)[..., ::-1]


# Fixed operator stacks used by the decomposition; built once at import.
_A_OPS = _frozen(tensor(PAULIS, ID2))
_B_OPS = _frozen(tensor(ID2, PAULIS))
_AB_OPS = _frozen(tensor(PAULIS[:, None], PAULIS))


@dataclass(frozen=True, eq=False)
class PauliDecomposition:
    """Bloch vectors x (first qubit), y (second qubit) and correlation matrix T.

    Encodes rho = (1/4) [I + sum_i x_i s_i x I + sum_j y_j I x s_j
    + sum_ij T_ij s_i x s_j] with T_ij = Tr[rho (s_i x s_j)]. For a stack
    of states the fields carry its leading axes: x and y are (..., 3) and
    T is (..., 3, 3).
    """

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        for name, trailing in (("x", (3,)), ("y", (3,)), ("T", (3, 3))):
            a = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, _frozen(a.reshape(a.shape[:a.ndim - len(trailing)] + trailing)))


def _decompose(m: np.ndarray) -> PauliDecomposition:
    """The Pauli decomposition of a complex (..., 4, 4) stack, with no check."""
    x = np.einsum("...ij,kji->...k", m, _A_OPS)
    y = np.einsum("...ij,kji->...k", m, _B_OPS)
    T = np.einsum("...ij,klji->...kl", m, _AB_OPS)
    return PauliDecomposition(x.real, y.real, T.real)


def pauli_decompose(rho) -> PauliDecomposition:
    """Extract Bloch vectors and correlation matrix from a density matrix
    or a (..., 4, 4) stack of them.

    The traces Tr[rho (s_i x I)], Tr[rho (I x s_j)] and Tr[rho (s_i x s_j)]
    are real for Hermitian rho. An input whose entries deviate from
    Hermitian by more than HERMITIAN_ATOL, the rule validate_density
    applies, raises NonHermitianError; within it the real parts are kept.
    """
    m = _as_square(rho, 4)
    defect = _hermitian_defect(m)
    _raise_first_failure(m.shape[:-2], ((defect > HERMITIAN_ATOL, NonHermitianError,
                                        lambda i: f"input deviates from Hermitian by {defect[i]:.3e}"),))
    return _decompose(m)


def pauli_compose(d: PauliDecomposition) -> np.ndarray:
    """Rebuild the 4x4 matrix from a Pauli decomposition (inverse of
    pauli_decompose); a (..., 4, 4) stack for a stacked decomposition."""
    m = ID4 + np.einsum("...k,kij->...ij", d.x, _A_OPS)
    m += np.einsum("...k,kij->...ij", d.y, _B_OPS)
    m += np.einsum("...kl,klij->...ij", d.T, _AB_OPS)
    return m / 4.0


_NO_PAIRS = (_frozen(np.empty((0, 4))), _frozen(np.empty((0, 4, 4))))


def _real_eigh(m: np.ndarray) -> tuple:
    """Each member's eigensolve route, decided once for a (..., 4, 4) stack:
    (real, w, v), read-only and over the members in C order. ``real`` marks
    the members whose imaginary part is exactly zero, and (w, v) is
    ``np.linalg.eigh`` of their real parts: a view of the stack when every
    member is real, and no solve when none is."""
    flat = m.reshape(-1, 4, 4)
    real = ~flat.imag.any(axis=(-2, -1))
    n_real = np.count_nonzero(real)
    w, v = _NO_PAIRS if not n_real else np.linalg.eigh(flat.real if n_real == len(flat) else flat.real[real])
    return _read_only(real), _read_only(w), _read_only(v)


def _by_route(m: np.ndarray, record: tuple, on_real, on_other) -> np.ndarray:
    """One row per member of the stack ``m`` with ``_real_eigh`` ``record``,
    in C order: those of ``on_real(w, v)`` at the real members and of
    ``on_other(members)`` at the rest. A route that every member takes gets
    the stack itself."""
    real, w, v = record
    if len(w) == len(real):
        return on_real(w, v)
    if not len(w):
        return on_other(m.reshape(-1, 4, 4))
    rows = on_real(w, v)
    out = np.empty((len(real), *rows.shape[1:]))
    out[real] = rows
    out[~real] = on_other(m.reshape(-1, 4, 4)[~real])
    return out


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A two-qubit density matrix, validated at construction, with cached
    Pauli decomposition.

    ``rho`` is one 4x4 matrix or a (..., 4, 4) stack of them; ``x``, ``y``
    and ``T`` then carry the same leading axes. Building a state checks
    every member: a finite 4x4 shape, Hermiticity, unit trace and
    positivity. It raises OutOfRangeError, NonHermitianError,
    TraceNotOneError or NotPositiveError naming the violated invariant and
    its magnitude, and for a stack the index of the first failing member.
    Instances are immutable.

    A real member's smallest eigenvalue comes from the eigenpairs of
    ``_real_eigh``, which the state keeps as ``_eigen_record``, and any
    other member's from a complex ``eigvalsh``: no member is solved twice.
    """

    rho: np.ndarray
    _eigen_record: tuple = field(init=False, repr=False)

    def __post_init__(self):
        m = _as_square(self.rho, 4)
        defect = _hermitian_defect(m)
        with np.errstate(over="ignore"):  # a trace past the float range is inf, which fails its gate
            tr = np.trace(m, axis1=-2, axis2=-1)
        record = _real_eigh(m)
        smallest = _by_route(m, record, lambda w, v: w[:, 0],
                             lambda c: np.linalg.eigvalsh(c)[:, 0]).reshape(m.shape[:-2])
        _raise_first_failure(m.shape[:-2], (
            (defect > HERMITIAN_ATOL, NonHermitianError,
             lambda i: f"deviates from Hermitian by {defect[i]:.3e} (atol {HERMITIAN_ATOL:.1e})"),
            (np.abs(tr - 1.0) > TRACE_ATOL, TraceNotOneError,
             lambda i: f"trace is {complex(tr[i])}, differs from 1 by {abs(complex(tr[i]) - 1.0):.3e}"),
            (smallest < EIGENVALUE_FLOOR, NotPositiveError,
             lambda i: f"smallest eigenvalue {smallest[i]:.3e} below floor {EIGENVALUE_FLOOR:.1e}"),
        ))
        object.__setattr__(self, "rho", _frozen(m))
        object.__setattr__(self, "_eigen_record", record)

    @cached_property
    def decomp(self) -> PauliDecomposition:
        return _decompose(self.rho)

    @property
    def x(self) -> np.ndarray:
        return self.decomp.x

    @property
    def y(self) -> np.ndarray:
        return self.decomp.y

    @property
    def T(self) -> np.ndarray:
        return self.decomp.T


def validate_density(rho) -> TwoQubitState:
    """``TwoQubitState(rho)``: construction checks ``rho`` (see
    :class:`TwoQubitState` for the checks and the errors they raise)."""
    return TwoQubitState(rho)


def _check_sampler_inputs(state: TwoQubitState, count, count_name: str, seed) -> None:
    """Reject what a seeded sampler of one state cannot run on.

    Raises OutOfRangeError for a stacked state, a ``count`` that is not an
    integer >= 1 (a bool is not a count) or a ``seed`` that is not an
    integer >= 0.
    """
    if state.rho.ndim != 2:
        raise OutOfRangeError(f"expected one state, got a stack of shape {state.rho.shape[:-2]}")
    for value, name, minimum in ((count, count_name, 1), (seed, "seed", 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise OutOfRangeError(f"{name} must be >= {minimum}, got {value}")
