"""Constructors for the state families used throughout the toolkit.

Includes the one-parameter pure family, Werner states, the four Bell
projectors, general X-type states with their parameters for the two
families and for random sampling, depolarized pure states, a fidelity
functional, a seeded random-state generator, and the JSON state-file
loader consumed by the command line front end.

The family constructors, the random-state generator and the fidelity
are batch-first: a parameter or seed array gives a stacked state (see
:mod:`twirlkit.qubit_algebra`), and a stack gives an array of fidelities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidXParamsError, OutOfRangeError, SchemaError
from .qubit_algebra import (
    ID4,
    PauliDecomposition,
    TwoQubitState,
    _clamp_unit,
    _item,
    _raise_first_failure,
    pauli_compose,
    validate_density,
)

# (diagonal pair, off-diagonal sign); entries are exact halves so the
# projectors and everything derived from them stay float-exact.
_BELL_SUPPORT = {
    "phi+": ((0, 3), 0.5),
    "phi-": ((0, 3), -0.5),
    "psi+": ((1, 2), 0.5),
    "psi-": ((1, 2), -0.5),
}

BELL_KINDS = tuple(_BELL_SUPPORT)


def bell(kind: str) -> TwoQubitState:
    """Rank-1 projector onto a Bell state; kind is one of phi+, phi-, psi+, psi-."""
    try:
        (i, j), off = _BELL_SUPPORT[kind]
    except KeyError:
        raise OutOfRangeError(f"unknown Bell state {kind!r}; choose from {BELL_KINDS}") from None
    m = np.zeros((4, 4), dtype=complex)
    m[i, i] = m[j, j] = 0.5
    m[i, j] = m[j, i] = off
    return validate_density(m)


def _in_range(values, top: float, what: str, top_label: str) -> np.ndarray:
    """``values`` as a float array, after checking each lies in [0, top];
    the first one outside (nan included) is named, a scalar as given."""
    v = np.asarray(values, dtype=float)
    outside = ~((0.0 <= v) & (v <= top))
    if outside.any():
        bad = values if v.ndim == 0 else v[outside][0]
        raise OutOfRangeError(f"{what} must lie in [0, {top_label}], got {bad}")
    return v


def _pure_rho(gamma) -> np.ndarray:
    gamma = _in_range(gamma, math.pi / 2, "gamma", "pi/2")
    v = np.zeros(gamma.shape + (4,), dtype=complex)
    v[..., 0] = np.cos(math.pi / 4 - gamma / 2)
    v[..., 3] = np.sin(math.pi / 4 - gamma / 2)
    return v[..., :, None] * v.conj()[..., None, :]


def pure_state(gamma) -> TwoQubitState:
    """Pure state cos(pi/4 - gamma/2)|uu> + sin(pi/4 - gamma/2)|dd>.

    gamma runs over [0, pi/2]; gamma = 0 gives the phi+ Bell state and
    gamma = pi/2 the product state |uu>. Bloch form: x = y = (0, 0, sin g),
    T = diag(cos g, -cos g, 1). An array of gammas gives a stacked state.
    """
    return validate_density(_pure_rho(gamma))


def werner(f) -> TwoQubitState:
    """Werner state: fidelity-F mixture of phi+ with the other three Bell states.

    Equivalent Bloch form: x = y = 0,
    T = ((4F-1)/3) diag(1, -1, 1). An array of fidelities gives a stacked state.
    """
    f = _in_range(f, 1.0, "fidelity", "1")
    # Closed form (Bennett et al. 1996), added in the Bell-projector-sum order: bit for bit that sum.
    a, c = 0.5 * f, 0.5 * ((1.0 - f) / 3.0)
    m = np.zeros(f.shape + (4, 4), dtype=complex)
    m[..., 0, 0] = m[..., 3, 3] = a + c
    m[..., 1, 1] = m[..., 2, 2] = c + c
    m[..., 0, 3] = m[..., 3, 0] = a - c
    return validate_density(m)


@dataclass(frozen=True, eq=False)
class XStateParams:
    """Parameters of an X-type density matrix.

    Diagonal entries rho11..rho44, nonnegative off-diagonal magnitudes
    rho14 (outer block) and rho23 (inner block), and their phases in
    radians. The phases multiply the upper off-diagonal entries as
    exp(i gamma). Any field may be an array: the fields broadcast
    together to a stack of parameter sets, so a set compares and hashes
    by identity.
    """

    rho11: float
    rho22: float
    rho33: float
    rho44: float
    rho14: float
    rho23: float
    gamma14: float = 0.0
    gamma13: float = 0.0


def _x_fields(p: XStateParams) -> list[np.ndarray]:
    """The eight fields of ``p`` as float arrays broadcast to one shape."""
    return np.broadcast_arrays(*(np.asarray(getattr(p, f.name), dtype=float) for f in fields(p)))


def _x_param_failures(p: XStateParams) -> tuple:
    """The positivity and normalization checks of ``p`` as the (mask, error,
    message) triples ``_raise_first_failure`` takes, in the order a single
    parameter set is checked."""
    names = [f.name for f in fields(p)][:6]
    d11, d22, d33, d44, r14, r23 = columns = _x_fields(p)[:6]

    def member(i):  # rho11..rho23 of set i: as given for one set, floats for a stack
        return dict(zip(names, (getattr(p, n) for n in names) if not d11.shape else (float(c[i]) for c in columns)))

    def oversized(off, a, b):
        def message(i):
            f = member(i)
            return f"{off} = {f[off]} exceeds sqrt({a} {b}) = {math.sqrt(f[a] * f[b])}"
        return message

    # a product below zero has a negative factor, which the first check reports
    return (
        (np.minimum(np.minimum(d11, d22), np.minimum(d33, d44)) < 0.0, InvalidXParamsError,
         lambda i: f"diagonal entries must be nonnegative, got {tuple(member(i).values())[:4]}"),
        (np.abs(d11 + d22 + d33 + d44 - 1.0) > 1e-12, InvalidXParamsError,
         lambda i: f"diagonal sum {sum(tuple(member(i).values())[:4])} differs from 1 beyond 1e-12"),
        ((r14 < 0.0) | (r23 < 0.0), InvalidXParamsError, lambda i: "off-diagonal magnitudes must be nonnegative"),
        (r14 > np.sqrt(np.maximum(d11 * d44, 0.0)) + 1e-12, InvalidXParamsError, oversized("rho14", "rho11", "rho44")),
        (r23 > np.sqrt(np.maximum(d22 * d33, 0.0)) + 1e-12, InvalidXParamsError, oversized("rho23", "rho22", "rho33")),
    )


def sample_x_params(rng: np.random.Generator, count: int | None = None) -> XStateParams:
    """Random X-state parameters: uniform simplex diagonal, admissible
    off-diagonal magnitudes, uniform phases.

    With no ``count``, one parameter set from a Dirichlet draw, two
    uniforms and two phases. With a count, a stack of ``count`` sets drawn
    as one block of each.
    """
    d = np.moveaxis(rng.dirichlet((1.0, 1.0, 1.0, 1.0), count), -1, 0)
    r14 = rng.uniform(0.0, 1.0, count) * _item(np.sqrt(d[0] * d[3]))
    r23 = rng.uniform(0.0, 1.0, count) * _item(np.sqrt(d[1] * d[2]))
    g14, g13 = rng.uniform(0.0, 2 * math.pi, 2 if count is None else (2, count))
    return XStateParams(d[0], d[1], d[2], d[3], r14, r23, g14, g13)


def pure_x_params(gamma) -> XStateParams:
    """X-state parameters of the pure family at angle gamma (an array gives a stack)."""
    g = np.asarray(gamma, dtype=float)
    sg = np.sin(g)
    return XStateParams(
        rho11=_item((1.0 + sg) / 2.0), rho22=0.0, rho33=0.0, rho44=_item((1.0 - sg) / 2.0),
        rho14=_item(np.cos(g) / 2.0), rho23=0.0,
    )


def werner_x_params(f) -> XStateParams:
    """X-state parameters of the Werner state with fidelity f (an array gives a stack)."""
    f = np.asarray(f, dtype=float)
    diag, off = _item((2.0 * f + 1.0) / 6.0), _item((1.0 - f) / 3.0)
    return XStateParams(
        rho11=diag, rho22=off, rho33=off, rho44=diag, rho14=_item(np.abs(4.0 * f - 1.0) / 6.0), rho23=0.0,
    )


def x_state(p: XStateParams) -> TwoQubitState:
    """Density matrix with support on the diagonal and anti-diagonal only.

    The correlation matrix of such a state has T13 = T23 = T31 = T32 = 0.
    Raises InvalidXParamsError naming the violated positivity or
    normalization constraint. A stack of parameter sets gives a stacked
    state, and its error names the first failing set.
    """
    d11, d22, d33, d44, r14, r23, g14, g13 = _x_fields(p)
    _raise_first_failure(d11.shape, _x_param_failures(p))
    m = np.zeros(d11.shape + (4, 4), dtype=complex)
    m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = d11, d22, d33, d44
    m[..., 0, 3] = r14 * np.exp(1j * g14)
    m[..., 3, 0] = np.conj(m[..., 0, 3])
    m[..., 1, 2] = r23 * np.exp(1j * g13)
    m[..., 2, 1] = np.conj(m[..., 1, 2])
    return validate_density(m)


def depolarized_pure(gamma, p) -> TwoQubitState:
    """Convex mixture p * pure_state(gamma) + (1 - p) * I/4; arrays of
    gamma and p broadcast to a stacked state."""
    p = _in_range(p, 1.0, "mixing weight", "1")[..., None, None]
    return validate_density(p * _pure_rho(gamma) + (1.0 - p) * ID4 / 4.0)


def fidelity_phi_plus(state: TwoQubitState):
    """Overlap <phi+| rho |phi+> = (rho_00 + rho_03 + rho_30 + rho_33) / 2, a
    real number in [0, 1]; an array of them for a stack."""
    rho = state.rho
    return _clamp_unit(0.5 * (rho[..., 0, 0] + rho[..., 0, 3] + rho[..., 3, 0] + rho[..., 3, 3]).real)


def _ginibre(normals: np.ndarray) -> TwoQubitState:
    """The validated state G G^dag / Tr(G G^dag) for each (2, 4, 4) block of
    standard normals in ``normals`` (..., 2, 4, 4): the real parts of G and
    then its imaginary parts. This is the Hilbert-Schmidt measure
    (Zyczkowski & Sommers, J. Phys. A 34, 7111 (2001))."""
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    m = g @ g.conj().mT
    return validate_density(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])


def random_state(seed) -> TwoQubitState:
    """Random density matrix G G^dag / Tr(G G^dag) for a complex Gaussian G.

    Samples from the Hilbert-Schmidt measure; deterministic given the seed.
    An array of seeds gives a stacked state with one member per seed, each
    drawn from its own ``default_rng(seed)``, and validates it once.
    """
    seeds = np.asarray(seed)
    normals = np.empty(seeds.shape + (2, 4, 4))
    flat = normals.reshape(-1, 2, 4, 4)
    for k, s in enumerate(seeds.ravel().tolist()):
        flat[k] = np.random.default_rng(s).standard_normal((2, 4, 4))
    return _ginibre(normals)


FAMILY_PARAMS = {"pure": ("gamma",), "werner": ("F",), "depolarized": ("gamma", "p")}


def family_state(family: str, *values) -> TwoQubitState:
    """Member of a named family; ``values`` follow ``FAMILY_PARAMS[family]``
    (arrays of them give a stacked state)."""
    # Called by module-level name, so a constructor rebound on the module (a wrapper) is what runs.
    if family == "pure":
        return pure_state(*values)
    if family == "werner":
        return werner(*values)
    if family == "depolarized":
        return depolarized_pure(*values)
    raise SchemaError(f"unknown family {family!r}; choose from {sorted(FAMILY_PARAMS)}")


def _require_number(value, label: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"{label} is too large for a float") from exc


def _require_numbers(value, shape: tuple, label: str):
    """``value`` as nested lists of floats of ``shape``, each entry checked by ``_require_number``."""
    if not shape:
        return _require_number(value, label)
    if not isinstance(value, list) or len(value) != shape[0]:
        got = f"{len(value)} entries" if isinstance(value, list) else type(value).__name__
        raise SchemaError(f"{label} must be a list of {shape[0]} entries, got {got}")
    return [_require_numbers(v, shape[1:], f"{label}[{i}]") for i, v in enumerate(value)]


def state_from_dict(doc: dict) -> TwoQubitState:
    """Build a state from one of the three JSON representations.

    Exactly one of the keys "matrix" (4x4 of {"re":, "im":} objects),
    "pauli" ({"x": [3], "y": [3], "T": [[3]x3]}) or "family"
    ("pure" | "werner" | "depolarized" with gamma / F / p parameters)
    must be present. The result is validated as a density matrix.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"state document must be an object, got {type(doc).__name__}")
    present = [k for k in ("matrix", "pauli", "family") if k in doc]
    if len(present) != 1:
        raise SchemaError(f"exactly one of matrix/pauli/family required, found {present}")
    kind = present[0]

    if kind == "matrix":
        if set(doc) != {"matrix"}:
            raise SchemaError(f"unexpected keys alongside 'matrix': {sorted(set(doc) - {'matrix'})}")
        rows = doc["matrix"]
        if not (isinstance(rows, list) and len(rows) == 4 and all(isinstance(r, list) and len(r) == 4 for r in rows)):
            raise SchemaError("'matrix' must be a 4x4 array of {re, im} objects")
        m = np.zeros((4, 4), dtype=complex)
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if not isinstance(cell, dict) or set(cell) != {"re", "im"}:
                    raise SchemaError(f"matrix entry ({i},{j}) must be an object with keys re, im")
                m[i, j] = _require_number(cell["re"], "re") + 1j * _require_number(cell["im"], "im")
        return validate_density(m)

    if kind == "pauli":
        if set(doc) != {"pauli"}:
            raise SchemaError(f"unexpected keys alongside 'pauli': {sorted(set(doc) - {'pauli'})}")
        block = doc["pauli"]
        if not isinstance(block, dict) or set(block) != {"x", "y", "T"}:
            raise SchemaError("'pauli' must be an object with keys x, y, T")
        x, y, T = (np.array(_require_numbers(block[k], shape, f"pauli {k}"))
                   for k, shape in (("x", (3,)), ("y", (3,)), ("T", (3, 3))))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum fails the finite check
            m = pauli_compose(PauliDecomposition(x, y, T))
        return validate_density(m)

    family = doc["family"]
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        raise SchemaError(f"unknown family {family!r}; choose from {sorted(FAMILY_PARAMS)}")
    needed = FAMILY_PARAMS[family]
    extra = set(doc) - {"family", *needed}
    missing = [k for k in needed if k not in doc]
    if extra or missing:
        raise SchemaError(f"family {family!r} needs keys {needed}; missing {missing}, unexpected {sorted(extra)}")
    return family_state(family, *(_require_number(doc[k], k) for k in needed))


def load_state_file(path) -> TwoQubitState:
    """Read a JSON state file and normalize it to a validated TwoQubitState."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8 and too many digits
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return state_from_dict(doc)
