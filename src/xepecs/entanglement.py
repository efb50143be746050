"""Spin-polarization entangled state, density matrices and entanglement entropy.

Subsystem A is the photoelectron spin, subsystem B the emitted-photon
polarization. The pure two-qubit state is the normalized amplitude array

    |psi> = (1 / sqrt(sum |A|^2)) * sum_(sigma lambda) A_(sigma lambda)
            |spin sigma> |polarization lambda>

and the entanglement entropy is the base-2 von Neumann entropy of the reduced
spin density matrix. For the default orthogonal polarization pair
(beta1 = 90 deg, beta2 = 180 deg) the state is the closed form

    (1 / (3 sqrt(C))) * [ sin(theta) |U2> + e^(i phi) (i |D1> - cos(theta) |D2>) ]

up to a global phase, with C = 2/9 for unit norm; its reduced spin matrix has
eigenvalues (1 +/- |cos(theta)|) / 2. This module computes that state through
the amplitudes, as for any other pair; the closed form is in
``tests/reference.py``, and the tests hold the pipeline to it.

A single state normalizes its amplitudes, and its reduced matrix is a checked
``DensityMatrix``. An angle sweep forms no amplitude: they are R(epsilon)
times a geometry array G (see ``amplitudes``), so R only decides whether the
states are defined, and G G^dag = [[a, b], [b*, d]] has, with C, S and X the
sums over the pair of cos^2 beta, sin^2 beta and cos beta sin beta, the real
invariants a = KAPPA^2 C sin^2 theta, d = (C cos^2 theta + S)/2 (a + d = 1),
|b| = KAPPA |sin theta| hypot(C cos theta, X)/sqrt(2) and
|det G| = KAPPA |sin theta| |sin(beta2 - beta1)|/sqrt(2), which give its two
eigenvalues in closed form. Both routes name the inputs when a squared
amplitude norm is not finite or is 0, check the norm (a sweep at the bounds of
a + d, not at each angle) and turn eigenvalues into bits the same way.
Their theta terms depend on the grid alone: a sweep keeps the last checked grid
with them and its float tuple, for a repeat under any geometry, energy or model.
The state needs a polarization basis: for a pair of axes that is not
orthogonal, ``EntangledState`` and a sweep are a DomainError, so no state,
reduction or density matrix is formed over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, isfinite, sin, sqrt
from typing import Sequence

import numpy as np

from .amplitudes import (CHANNELS, KAPPA, AmplitudeSet, _channel_index, _check_array, calculator,
                         channel_label)
from .fockspace import Spin
from .model import DomainError, ModelParams
from .polarization import EmissionGeometry, _orthogonal

__all__ = [
    "EntangledState",
    "DensityMatrix",
    "EntropyCurve",
    "entangled_state",
    "full_density_matrix",
    "reduce_to_spin",
    "reduce_to_polarization",
    "von_neumann_entropy",
    "entropy_sweep",
]

SPIN_POLARIZATION_BASIS = tuple(map(channel_label, CHANNELS))

_NORM_TOL = 1e-12
_MATRIX_TOL = 1e-12
_ENTROPY_INPUT_TOL = 1e-8
_EIGENVALUE_CLIP = 1e-12
_PURE_SPECTRUM = (0.0, 0.0, 0.0, 1.0)   # of |psi><psi| for a unit psi, ascending as eigvalsh


def _check_orthogonal(geom: EmissionGeometry) -> None:
    """DomainError naming both angles unless the polarization pair of ``geom`` is orthogonal."""
    if not _orthogonal(geom.beta1, geom.beta2):
        raise DomainError(f"polarization axes beta1={geom.beta1!r} and beta2={geom.beta2!r} rad "
                          "are not orthogonal; the spin-polarization state needs a basis")


def _check_squared_norm(norm_sq: float, params: ModelParams | None, epsilon: float) -> None:
    """DomainError naming the inputs unless a squared amplitude norm is finite and > 0."""
    if isfinite(norm_sq) and norm_sq != 0.0:
        return
    inputs = f"epsilon={epsilon!r}" if params is None else f"{params!r}, epsilon={epsilon!r}"
    reason = ("all coincidence amplitudes vanish; state undefined" if isfinite(norm_sq)
              else "coincidence amplitudes are not finite")
    raise DomainError(f"{inputs}: {reason}")


def _check_norm(norm_sq: float) -> None:
    """DomainError unless a squared state norm is within 1e-12 of 1."""
    if not abs(norm_sq - 1.0) <= _NORM_TOL:
        raise DomainError(f"state norm^2 differs from 1 by more than {_NORM_TOL}")


def _check_trace(m: np.ndarray, tol: float) -> None:
    """DomainError unless every matrix of a (..., n, n) stack has trace 1 to ``tol`` (NaN fails)."""
    if not (abs(m.trace(axis1=-2, axis2=-1) - 1.0) <= tol).all():
        raise DomainError("matrix trace differs from 1")


def _check_density(m: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalues of the Hermitian part of each matrix in a (..., n, n) stack.

    Raises DomainError unless every matrix is Hermitian, has unit trace and
    no eigenvalue below -tol, each to ``tol``. Every comparison is written
    so that NaN fails it.
    """
    m_h = m.conj().swapaxes(-1, -2)
    if not np.all(np.abs(m - m_h) <= tol):
        raise DomainError("matrix is not Hermitian")
    _check_trace(m, tol)
    eigenvalues = np.linalg.eigvalsh(0.5 * (m + m_h))
    if not np.all(eigenvalues >= -tol):
        raise DomainError("matrix has a negative eigenvalue")
    return eigenvalues


def _spin_spectrum(a, d, b, det) -> np.ndarray:
    """The eigenvalues (lambda_-, lambda_+) of spin matrices [[a, b], [b*, d]], stacked,
    from arrays of a, d, |b| and |det|: lambda_+ = (a + d)/2 + hypot((a - d)/2, |b|)
    and lambda_- = min(|det|^2 / lambda_+, lambda_+), which does not cancel near
    a separable state. Their sum is a + d, the norm ``_check_norm`` bounds, so
    only positivity is checked: a DomainError unless lambda_- >= -1e-12 (NaN fails)."""
    upper = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
    lower = np.minimum(det * det / upper, upper)
    if not (lower >= -_MATRIX_TOL).all():
        raise DomainError("matrix has a negative eigenvalue")
    return np.array((lower, upper))


def _grid_terms(thetas: np.ndarray) -> tuple[np.ndarray, ...]:
    """The read-only terms of the polar angles thetas (radians) that
    ``_spin_invariants`` takes: sin^2, cos, cos^2 and |sin| KAPPA/sqrt(2)."""
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    terms = (sin_t * sin_t, cos_t, cos_t * cos_t, np.abs(sin_t) * (KAPPA / sqrt(2.0)))
    for term in terms:
        term.setflags(write=False)
    return terms


def _spin_invariants(terms: tuple[np.ndarray, ...], geom: EmissionGeometry):
    """(a, d, |b|, |det G|) at the angles of ``_grid_terms`` for the pair of
    ``geom`` (see the module docstring); phi, a phase of G, drops out."""
    (c1, s1), (c2, s2) = (cos(geom.beta1), sin(geom.beta1)), (cos(geom.beta2), sin(geom.beta2))
    c, s, x = c1 * c1 + c2 * c2, s1 * s1 + s2 * s2, c1 * s1 + c2 * s2
    sin_sq, cos_t, cos_sq, scale = terms
    return ((KAPPA * KAPPA * c) * sin_sq, 0.5 * (c * cos_sq + s),
            scale * np.hypot(c * cos_t, x), scale * abs(sin(geom.beta2 - geom.beta1)))


_grid_slot = (None, (), ())   # (the degrees' bytes, their float tuple, _grid_terms): a checked grid


def _angle_grid(thetas_deg: Sequence[float]) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    """(the angles as a float tuple, their ``_grid_terms``) of a 1-D sequence of degrees
    in [0, 180], else a ValueError naming the first bad value. The last grid that
    passed is kept, keyed by its float64 bytes (0.0 and -0.0 differ)."""
    global _grid_slot
    degrees = np.asarray(thetas_deg, dtype=float)
    if degrees.ndim != 1:
        raise ValueError("theta must be a 1-D sequence of angles")
    key, slot = degrees.tobytes(), _grid_slot
    if slot[0] != key:
        inside = (degrees >= 0.0) & (degrees <= 180.0)   # NaN fails too
        if not inside.all():
            raise ValueError(f"theta: {float(degrees[~inside][0])} outside [0, 180] degrees")
        slot = _grid_slot = (key, tuple(degrees.tolist()), _grid_terms(np.radians(degrees)))
    return slot[1], slot[2]


def _entropy_bits(eigenvalues: np.ndarray):
    """-sum p log2 p of checked density eigenvalues (first axis: the eigenvalue), clipped
    to [0, 1]; below 1e-12 (jitter) adds 0. The terms add along that axis left to right,
    as np.sum does, subtracted from 0.0: a separable state gives 0, not -0."""
    p = eigenvalues.clip(0.0, 1.0)
    terms = np.log2(p, out=np.zeros(p.shape), where=p >= _EIGENVALUE_CLIP)
    total = 0.0
    for column in np.multiply(terms, p, out=terms):   # p log2 p, formed in place
        total = total + column
    return 0.0 - total


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class EntangledState:
    """Normalized coefficients over the (U1, U2, D1, D2) product basis: the (2, 2)
    complex array coeffs[sigma, lambda - 1], stored as given, made read-only;
    anything but an ndarray is a TypeError and any other shape a ValueError, each
    naming it. A polarization pair that is not orthogonal is a DomainError naming
    both angles."""

    coeffs: np.ndarray
    epsilon: float | None
    geometry: EmissionGeometry

    def __post_init__(self):
        _check_array("coeffs", self.coeffs)
        if self.coeffs.shape != (2, 2):
            raise ValueError(f"coeffs must have shape (2, 2), got {self.coeffs.shape}")
        self.coeffs.flags.writeable = False
        _check_orthogonal(self.geometry)
        _check_norm((abs(self.coeffs) ** 2).sum())

    def __getitem__(self, channel: tuple[Spin, int]) -> complex:
        return complex(self.coeffs[_channel_index(channel)])

    def vector(self) -> np.ndarray:
        return self.coeffs.ravel()


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with basis labels.

    ``eigenvalues`` are those taken by the validity check on construction.
    """

    basis: tuple[str, ...]
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        n = len(self.basis)
        if m.shape != (n, n):
            raise ValueError("matrix shape does not match basis")
        object.__setattr__(self, "eigenvalues", _check_density(m, _MATRIX_TOL))


def _check_bits(entropy: np.ndarray) -> None:
    """ValueError naming the first entropy outside [0, 1] bits by more than 1e-9 (NaN too)."""
    if entropy.size and not (entropy.min() >= -1e-9 and entropy.max() <= 1.0 + 1e-9):
        outside = np.flatnonzero(~((entropy >= -1e-9) & (entropy <= 1.0 + 1e-9)))
        raise ValueError(f"entropy {float(entropy[outside[0]])} outside [0, 1] bits")


@dataclass(frozen=True)
class EntropyCurve:
    """Entropy (bits) per emission angle (degrees); any 1-D sequences, kept as float
    tuples. A field that is not 1-D raises ValueError."""

    thetas: tuple[float, ...]
    entropy: tuple[float, ...]

    def __post_init__(self):
        thetas, entropy = (np.asarray(x, dtype=float) for x in (self.thetas, self.entropy))
        for name, values in (("thetas", thetas), ("entropy", entropy)):
            if values.ndim != 1:
                raise ValueError(f"{name} must be a 1-D sequence")
        if len(thetas) != len(entropy):
            raise ValueError("angle and entropy lengths differ")
        _check_bits(entropy)
        object.__setattr__(self, "thetas", tuple(thetas.tolist()))
        object.__setattr__(self, "entropy", tuple(entropy.tolist()))


def entangled_state(amps: AmplitudeSet) -> EntangledState:
    """Normalize the four coincidence amplitudes into a two-qubit state, scaled to
    a largest modulus of 1 first, so that a subnormal squared norm loses no digits.
    A polarization pair that is not orthogonal is a DomainError naming both angles
    (from ``EntangledState``)."""
    norm_sq = 0.0   # in Python floats, in np.sum's order: an overflow leaves an inf, no warning
    for z in amps.values.ravel().tolist():
        norm_sq += z.real * z.real + z.imag * z.imag
    _check_squared_norm(norm_sq, amps.params, amps.epsilon)
    scaled = amps.values / abs(amps.values).max()
    coeffs = scaled * (1.0 / sqrt((scaled.real ** 2 + scaled.imag ** 2).sum()))
    return EntangledState(coeffs, amps.epsilon, amps.geometry)


def full_density_matrix(state: EntangledState) -> DensityMatrix:
    """|psi><psi| over the four spin-polarization product states, written
    exactly Hermitian (numpy's complex products leave roundoff that is not),
    with the exact spectrum (0, 0, 0, 1) and no eigensolve: of ``DensityMatrix``'s
    checks only the trace can fail on it (the state's norm is held to 1e-12),
    so only the trace is checked again. The state holds an orthogonal
    polarization pair."""
    v = state.vector()
    m = v[:, None] * v.conj()
    m = 0.5 * (m + m.conj().T)
    _check_trace(m, _MATRIX_TOL)
    rho = object.__new__(DensityMatrix)   # its __post_init__ would solve for the spectrum
    rho.__dict__.update(basis=SPIN_POLARIZATION_BASIS, matrix=m,
                        eigenvalues=np.array(_PURE_SPECTRUM))
    return rho


def _check_reducible(obj) -> None:
    """TypeError naming the type unless ``obj`` is a DensityMatrix or an EntangledState,
    and a ValueError naming the shape of a DensityMatrix that is not 4 x 4."""
    if isinstance(obj, DensityMatrix):
        if obj.matrix.shape != (4, 4):
            raise ValueError(f"rho must have shape (4, 4), got {obj.matrix.shape}")
    elif not isinstance(obj, EntangledState):
        raise TypeError(f"expected a DensityMatrix or an EntangledState, got {type(obj).__name__}")


def reduce_to_spin(obj) -> DensityMatrix:
    """Partial trace over the photon polarization, leaving the spin qubit."""
    _check_reducible(obj)
    if isinstance(obj, DensityMatrix):
        reduced = np.einsum("albl->ab", obj.matrix.reshape(2, 2, 2, 2))
    else:
        reduced = obj.coeffs @ obj.coeffs.conj().T
    return DensityMatrix(("U", "D"), reduced)


def reduce_to_polarization(obj) -> DensityMatrix:
    """Partial trace over the photoelectron spin, leaving the photon qubit."""
    _check_reducible(obj)
    if isinstance(obj, DensityMatrix):
        reduced = np.einsum("alam->lm", obj.matrix.reshape(2, 2, 2, 2))
    else:
        reduced = obj.coeffs.T @ obj.coeffs.conj()
    return DensityMatrix(("1", "2"), reduced)


def von_neumann_entropy(rho):
    """Base-2 von Neumann entropy -Tr[rho log2 rho].

    Accepts a DensityMatrix (already checked to 1e-12 on construction), a
    plain Hermitian array, or a stack of them with shape (..., n, n). Returns
    a float for one matrix and an array of shape (...) for a stack. Raises
    DomainError if an array violates Hermiticity, unit trace or positivity
    beyond 1e-8; smaller negative eigenvalue jitter is clipped to zero. Another
    shape (1-D, n != m or n = 0) is a ValueError naming it, before any math.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if m.ndim < 2 or not m.shape[-2] == m.shape[-1] > 0:
        raise ValueError(f"rho must have shape (..., n, n) with n >= 1, got {m.shape}")
    eigenvalues = (rho.eigenvalues if isinstance(rho, DensityMatrix)
                   else _check_density(m, _ENTROPY_INPUT_TOL))
    entropy = _entropy_bits(np.moveaxis(eigenvalues, -1, 0))
    return float(entropy) if eigenvalues.ndim == 1 else entropy


def entropy_sweep(params: ModelParams, geom_template: EmissionGeometry,
                  thetas_deg: Sequence[float], epsilon: float) -> EntropyCurve:
    """Entanglement entropy against emission angle.

    The angles (degrees, any 1-D sequence in [0, 180], else a ValueError naming
    the first bad value before any math) are checked and their trig terms formed
    once per grid: the last grid swept is kept with its float tuple, so a repeat
    of it, with any geometry, energy or model, forms no sin or cos. A polarization
    pair that is not orthogonal is a DomainError naming both angles. One cached
    model build per parameter set and one R(epsilon), then real array math over
    all angles: the invariants of G G^dag, the checks of ``entangled_state`` and
    ``EntangledState`` at the least and greatest a + d (which decide every angle's),
    the closed-form spectrum with ``DensityMatrix``'s positivity check, and its bits.
    """
    thetas, terms = _angle_grid(thetas_deg)
    _check_orthogonal(geom_template)
    r = calculator(params).reduced_amplitude(epsilon)
    a, d, b, det = _spin_invariants(terms, geom_template)
    norm_sq, r_sq = a + d, r.real * r.real + r.imag * r.imag   # |R|^2 (a + d) grows with a + d
    bounds = (float(norm_sq.max()), float(norm_sq.min())) if norm_sq.size else ()
    for bound in bounds:   # an inf or a NaN at any angle is one at the max, a 0 one at the min
        _check_squared_norm(r_sq * bound, params, epsilon)
    for bound in bounds:
        _check_norm(bound)
    entropy = _entropy_bits(_spin_spectrum(a, d, b, det))
    _check_bits(entropy)
    curve = object.__new__(EntropyCurve)   # its __post_init__ would convert both fields again
    curve.__dict__.update(thetas=thetas, entropy=tuple(entropy.tolist()))
    return curve
