"""Spin-polarization entangled state, density matrices and entanglement entropy.

Subsystem A is the photoelectron spin, subsystem B the emitted-photon
polarization. The pure two-qubit state is the normalized amplitude map

    |psi> = (1 / sqrt(sum |A|^2)) * sum_(sigma lambda) A_(sigma lambda)
            |spin sigma> |polarization lambda>

and the entanglement entropy is the base-2 von Neumann entropy of the reduced
spin density matrix. For the default orthogonal polarization pair
(beta1 = 90 deg, beta2 = 180 deg) the state also has the closed form

    (1 / (3 sqrt(C))) * [ sin(theta) |U2> + e^(i phi) (i |D1> - cos(theta) |D2>) ]

which this module keeps as an independent cross-check of the full amplitude
pipeline; its reduced spin matrix has eigenvalues (1 +/- |cos(theta)|) / 2.

``entropy_sweep`` evaluates a whole angle sweep as arrays: one amplitude
contraction, one stack of 2x2 reduced matrices and one batched entropy, with
the validity checks of the single-state path applied to every angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, radians, sin, sqrt
from typing import Mapping, Sequence

import numpy as np

from .amplitudes import CHANNELS, AmplitudeSet, calculator
from .fockspace import Spin
from .model import ModelParams
from .polarization import EmissionGeometry

__all__ = [
    "DomainError",
    "EntangledState",
    "DensityMatrix",
    "EntropyCurve",
    "entangled_state",
    "closed_form_state",
    "full_density_matrix",
    "reduce_to_spin",
    "reduce_to_polarization",
    "von_neumann_entropy",
    "entropy_sweep",
]

SPIN_POLARIZATION_BASIS = ("U1", "U2", "D1", "D2")

_NORM_TOL = 1e-12
_MATRIX_TOL = 1e-12
_ENTROPY_INPUT_TOL = 1e-8
_EIGENVALUE_CLIP = 1e-12


class DomainError(ValueError):
    """A computation left the physically meaningful domain."""


@dataclass(frozen=True)
class EntangledState:
    """Normalized coefficients over the (U1, U2, D1, D2) product basis."""

    coeffs: Mapping[tuple[Spin, int], complex]
    epsilon: float | None
    geometry: EmissionGeometry

    def __post_init__(self):
        norm_sq = sum(abs(c) ** 2 for c in self.coeffs.values())
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq} differs from 1")

    def vector(self) -> np.ndarray:
        return np.array([self.coeffs[c] for c in CHANNELS])

    def fidelity(self, other: "EntangledState") -> float:
        """|<self|other>|, insensitive to global phases."""
        return float(abs(np.vdot(self.vector(), other.vector())))


def _check_density(m: np.ndarray, tol: float) -> np.ndarray:
    """Eigenvalues of the Hermitian part of each matrix in a (..., n, n) stack.

    Raises DomainError unless every matrix is Hermitian, has unit trace and
    no eigenvalue below -tol, each to ``tol``. Every comparison is written
    so that NaN fails it.
    """
    m_h = m.conj().swapaxes(-1, -2)
    if not np.all(np.abs(m - m_h) <= tol):
        raise DomainError("matrix is not Hermitian")
    if not np.all(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0) <= tol):
        raise DomainError("matrix trace differs from 1")
    eigenvalues = np.linalg.eigvalsh(0.5 * (m + m_h))
    if not np.all(eigenvalues >= -tol):
        raise DomainError("matrix has a negative eigenvalue")
    return eigenvalues


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with basis labels."""

    basis: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        n = len(self.basis)
        if m.shape != (n, n):
            raise ValueError("matrix shape does not match basis")
        _check_density(m, _MATRIX_TOL)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class EntropyCurve:
    """Entanglement entropy (bits) per emission angle (degrees)."""

    thetas: tuple[float, ...]
    entropy: tuple[float, ...]

    def __post_init__(self):
        if len(self.thetas) != len(self.entropy):
            raise ValueError("angle and entropy lengths differ")
        for s in self.entropy:
            if not -1e-9 <= s <= 1.0 + 1e-9:
                raise ValueError(f"entropy {s} outside [0, 1] bits")


def entangled_state(amps: AmplitudeSet) -> EntangledState:
    """Normalize the four coincidence amplitudes into a two-qubit state."""
    norm_sq = amps.total_strength()
    if not np.isfinite(norm_sq):
        raise DomainError("coincidence amplitudes are not finite")
    if norm_sq == 0.0:
        raise DomainError("all coincidence amplitudes vanish; state undefined")
    scale = 1.0 / sqrt(norm_sq)
    coeffs = {c: amps[c] * scale for c in CHANNELS}
    return EntangledState(coeffs, amps.epsilon, amps.geometry)


def _is_angle(value: float, target_deg: float, tol: float = 1e-9) -> bool:
    diff = (value - radians(target_deg)) % (2.0 * pi)
    return min(diff, 2.0 * pi - diff) < tol


def closed_form_state(geom: EmissionGeometry, C: float = 2.0 / 9.0) -> EntangledState:
    """The analytic entangled state for beta1 = 90 deg, beta2 = 180 deg.

    ``C`` is the squared norm of the unnormalized amplitude 4-vector; the
    default 2/9 makes the coefficients exactly normalized.
    """
    if not (_is_angle(geom.beta1, 90.0) and _is_angle(geom.beta2, 180.0)):
        raise ValueError("closed form requires beta1 = 90 deg and beta2 = 180 deg")
    phase = complex(cos(geom.phi), sin(geom.phi))
    scale = 1.0 / (3.0 * sqrt(C))
    coeffs = {
        (Spin.UP, 1): 0j,
        (Spin.UP, 2): scale * sin(geom.theta) + 0j,
        (Spin.DOWN, 1): scale * 1j * phase,
        (Spin.DOWN, 2): -scale * cos(geom.theta) * phase,
    }
    return EntangledState(coeffs, None, geom)


def full_density_matrix(state: EntangledState) -> DensityMatrix:
    """|psi><psi| over the four spin-polarization product states."""
    v = state.vector()
    return DensityMatrix(SPIN_POLARIZATION_BASIS, np.outer(v, v.conj()))


def _coefficient_matrix(obj) -> np.ndarray:
    """2x2 coefficient array c[spin, polarization] from a pure state."""
    if isinstance(obj, EntangledState):
        return obj.vector().reshape(2, 2)
    raise TypeError(f"expected EntangledState or DensityMatrix, got {type(obj).__name__}")


def reduce_to_spin(obj) -> DensityMatrix:
    """Partial trace over the photon polarization, leaving the spin qubit."""
    if isinstance(obj, DensityMatrix):
        rho = np.asarray(obj.matrix).reshape(2, 2, 2, 2)
        reduced = np.einsum("albl->ab", rho)
    else:
        c = _coefficient_matrix(obj)
        reduced = c @ c.conj().T
    return DensityMatrix(("U", "D"), reduced)


def reduce_to_polarization(obj) -> DensityMatrix:
    """Partial trace over the photoelectron spin, leaving the photon qubit."""
    if isinstance(obj, DensityMatrix):
        rho = np.asarray(obj.matrix).reshape(2, 2, 2, 2)
        reduced = np.einsum("alam->lm", rho)
    else:
        c = _coefficient_matrix(obj)
        reduced = c.T @ c.conj()
    return DensityMatrix(("1", "2"), reduced)


def von_neumann_entropy(rho):
    """Base-2 von Neumann entropy -Tr[rho log2 rho].

    Accepts a DensityMatrix, a plain Hermitian array, or a stack of them with
    shape (..., n, n). Returns a float for one matrix and an array of shape
    (...) for a stack. Raises DomainError if any input violates Hermiticity,
    unit trace or positivity beyond 1e-8; smaller negative eigenvalue jitter
    is clipped to zero.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    eigenvalues = _check_density(m, _ENTROPY_INPUT_TOL)

    clipped = np.clip(eigenvalues, 0.0, 1.0)
    clipped[np.abs(clipped) < _EIGENVALUE_CLIP] = 0.0
    positive = clipped > 0.0
    logs = np.log2(clipped, out=np.zeros_like(clipped), where=positive)
    entropy = -np.sum(clipped * logs, axis=-1)
    return float(entropy) if m.ndim == 2 else entropy


def entropy_sweep(params: ModelParams, geom_template: EmissionGeometry,
                  thetas_deg: Sequence[float], epsilon: float) -> EntropyCurve:
    """Entanglement entropy against emission angle.

    One cached model build per parameter set, then array math over all
    angles: the amplitudes are one contraction of the polarization
    components with the per-spin resonant vectors. Every angle passes the
    checks of ``EmissionGeometry``, ``entangled_state``, ``EntangledState``,
    ``DensityMatrix`` and ``von_neumann_entropy`` at their tolerances; a
    non-finite result raises DomainError.
    """
    thetas = np.radians(np.asarray(thetas_deg, dtype=float))
    if not np.all((thetas >= 0.0) & (thetas <= pi)):
        raise ValueError("theta must lie in [0, pi]")

    amps = calculator(params).amplitude_array(thetas, geom_template, epsilon)
    norm_sq = np.sum(np.abs(amps) ** 2, axis=(1, 2))
    if np.any(norm_sq == 0.0):
        raise DomainError("all coincidence amplitudes vanish; state undefined")
    coeffs = amps * (1.0 / np.sqrt(norm_sq))[:, np.newaxis, np.newaxis]
    if not np.all(np.abs(np.sum(np.abs(coeffs) ** 2, axis=(1, 2)) - 1.0) <= _NORM_TOL):
        raise DomainError("state norm^2 differs from 1")

    reduced = coeffs @ coeffs.conj().swapaxes(-1, -2)   # spin density matrices
    _check_density(reduced, _MATRIX_TOL)
    entropy = von_neumann_entropy(reduced)
    return EntropyCurve(tuple(float(t) for t in thetas_deg), tuple(entropy.tolist()))
