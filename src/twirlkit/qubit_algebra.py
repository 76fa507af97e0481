"""Complex 2x2 / 4x4 operator algebra for two-qubit states.

Matrices are plain complex numpy arrays. Two-qubit operators live in the
product basis |uu>, |ud>, |du>, |dd>, where |u> is the +1 eigenvector of
sigma_z. A state is carried as a :class:`TwoQubitState`, which caches its
Pauli decomposition (local Bloch vectors and the 3x3 correlation matrix).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonHermitianError, NotPositiveError, OutOfRangeError, TraceNotOneError

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))
PAULIS = _frozen(np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]))
ID2 = _frozen(np.eye(2, dtype=complex))
ID4 = _frozen(np.eye(4, dtype=complex))


def _as_square(a, dim: int) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.shape != (dim, dim):
        raise OutOfRangeError(f"expected a {dim}x{dim} matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise OutOfRangeError("matrix entries must be finite")
    return m


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators in the |uu>,|ud>,|du>,|dd> ordering."""
    return np.kron(_as_square(a, 2), _as_square(b, 2))


def pauli_sigma(n) -> np.ndarray:
    """The spin observable n . sigma for a real 3-vector n."""
    v = np.asarray(n, dtype=float)
    return np.einsum("k,kij->ij", v, PAULIS)


def as_unit_vector(n, atol: float = 1e-12) -> np.ndarray:
    """Validate and freeze a real unit 3-vector."""
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise OutOfRangeError(f"expected a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= atol:  # also true for a nan or inf norm
        raise OutOfRangeError(f"vector norm {norm} differs from 1 beyond {atol}")
    return _frozen(v)


def hs_norm_sq(a) -> float:
    """Squared Hilbert-Schmidt norm Tr(A A^dag) = sum of squared entry moduli."""
    m = _as_square(a, 4)
    return float(np.sum(np.abs(m) ** 2))


def _hermitian_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def hermitian_eigenvalues(a, atol: float = 1e-10) -> np.ndarray:
    """Real eigenvalues of a Hermitian 4x4 matrix, sorted in descending order.

    Raises NonHermitianError when ``a`` deviates from its adjoint by more
    than ``atol`` in any entry.
    """
    m = _as_square(a, 4)
    defect = _hermitian_defect(m)
    if defect > atol:
        raise NonHermitianError(f"matrix deviates from Hermitian by {defect:.3e} (atol {atol:.1e})")
    return np.linalg.eigvalsh(m)[::-1]


# Fixed operator stacks used by the decomposition; built once at import.
_A_OPS = _frozen(np.stack([np.kron(p, ID2) for p in PAULIS]))
_B_OPS = _frozen(np.stack([np.kron(ID2, p) for p in PAULIS]))
_AB_OPS = _frozen(np.stack([np.stack([np.kron(p, q) for q in PAULIS]) for p in PAULIS]))


@dataclass(frozen=True)
class PauliDecomposition:
    """Bloch vectors x (first qubit), y (second qubit) and correlation matrix T.

    Encodes rho = (1/4) [I + sum_i x_i s_i x I + sum_j y_j I x s_j
    + sum_ij T_ij s_i x s_j] with T_ij = Tr[rho (s_i x s_j)].
    """

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen(np.asarray(self.x, dtype=float).reshape(3)))
        object.__setattr__(self, "y", _frozen(np.asarray(self.y, dtype=float).reshape(3)))
        object.__setattr__(self, "T", _frozen(np.asarray(self.T, dtype=float).reshape(3, 3)))


def pauli_decompose(rho) -> PauliDecomposition:
    """Extract Bloch vectors and correlation matrix from a density matrix.

    The traces Tr[rho (s_i x I)], Tr[rho (I x s_j)] and Tr[rho (s_i x s_j)]
    are real for Hermitian rho; imaginary parts above 1e-12 signal a
    non-Hermitian input and raise NonHermitianError.
    """
    m = _as_square(rho, 4)
    defect = _hermitian_defect(m)
    if defect > HERMITIAN_ATOL:
        raise NonHermitianError(f"input deviates from Hermitian by {defect:.3e}")
    x = np.einsum("ij,kji->k", m, _A_OPS)
    y = np.einsum("ij,kji->k", m, _B_OPS)
    T = np.einsum("ij,klji->kl", m, _AB_OPS)
    worst_imag = max(np.max(np.abs(x.imag)), np.max(np.abs(y.imag)), np.max(np.abs(T.imag)))
    if worst_imag > HERMITIAN_ATOL:
        raise NonHermitianError(f"decomposition traces have imaginary part {worst_imag:.3e}")
    return PauliDecomposition(x.real, y.real, T.real)


def pauli_compose(d: PauliDecomposition) -> np.ndarray:
    """Rebuild the 4x4 matrix from a Pauli decomposition (inverse of pauli_decompose)."""
    m = np.array(ID4)
    m += np.einsum("k,kij->ij", d.x, _A_OPS)
    m += np.einsum("k,kij->ij", d.y, _B_OPS)
    m += np.einsum("kl,klij->ij", d.T, _AB_OPS)
    return m / 4.0


@dataclass(frozen=True)
class TwoQubitState:
    """A validated two-qubit density matrix with cached Pauli decomposition.

    Instances are immutable; build them through :func:`validate_density` or
    the constructors in :mod:`twirlkit.states`.
    """

    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _frozen(np.asarray(self.rho, dtype=complex)))

    @cached_property
    def decomp(self) -> PauliDecomposition:
        return pauli_decompose(self.rho)

    @property
    def x(self) -> np.ndarray:
        return self.decomp.x

    @property
    def y(self) -> np.ndarray:
        return self.decomp.y

    @property
    def T(self) -> np.ndarray:
        return self.decomp.T

    def purity(self) -> float:
        return hs_norm_sq(self.rho)


def validate_density(rho) -> TwoQubitState:
    """Check Hermiticity, unit trace and positivity, then wrap the matrix.

    Raises NonHermitianError, TraceNotOneError or NotPositiveError naming
    the violated invariant and its magnitude.
    """
    m = _as_square(rho, 4)
    defect = _hermitian_defect(m)
    if defect > HERMITIAN_ATOL:
        raise NonHermitianError(f"deviates from Hermitian by {defect:.3e} (atol {HERMITIAN_ATOL:.1e})")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise TraceNotOneError(f"trace is {tr}, differs from 1 by {abs(tr - 1.0):.3e}")
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest < EIGENVALUE_FLOOR:
        raise NotPositiveError(f"smallest eigenvalue {smallest:.3e} below floor {EIGENVALUE_FLOOR:.1e}")
    return TwoQubitState(m)
