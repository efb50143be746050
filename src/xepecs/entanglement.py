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

A single state and an angle sweep take one path: the same helpers normalize
a (..., 2, 2) stack of amplitudes (rejecting non-finite or vanishing ones
with the parameter set and kinetic energy named), check the norm, check
each reduced matrix once while taking its eigenvalues, and turn those
eigenvalues into bits. ``entropy_sweep`` runs that path once over all angles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, radians, sin, sqrt
from typing import Mapping, Sequence

import numpy as np

from .amplitudes import CHANNELS, AmplitudeSet, calculator
from .fockspace import Spin
from .model import DomainError, ModelParams
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


def _normalize(amps: np.ndarray, params: ModelParams | None, epsilon: float) -> np.ndarray:
    """Coefficients c[..., sigma, lambda] of the normalized states of a stack of
    amplitudes, or a DomainError naming the inputs if any state is undefined."""
    def undefined(reason: str) -> DomainError:
        inputs = f"epsilon={epsilon!r}" if params is None else f"{params!r}, epsilon={epsilon!r}"
        return DomainError(f"{inputs}: {reason}")

    norm_sq = np.sum(np.abs(amps) ** 2, axis=(-2, -1))
    if not np.all(np.isfinite(norm_sq)):
        raise undefined("coincidence amplitudes are not finite")
    if np.any(norm_sq == 0.0):
        raise undefined("all coincidence amplitudes vanish; state undefined")
    return amps * (1.0 / np.sqrt(norm_sq))[..., np.newaxis, np.newaxis]


def _check_norm(coeffs: np.ndarray) -> None:
    """DomainError unless every state of a (..., 2, 2) coefficient stack has norm 1."""
    norm_sq = np.sum(np.abs(coeffs) ** 2, axis=(-2, -1))
    if not np.all(np.abs(norm_sq - 1.0) <= _NORM_TOL):
        raise DomainError(f"state norm^2 differs from 1 by more than {_NORM_TOL}")


def _spin_matrix(coeffs: np.ndarray) -> np.ndarray:
    """c c^dag: the reduced spin matrices of a (..., 2, 2) coefficient stack."""
    return coeffs @ coeffs.conj().swapaxes(-1, -2)


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


def _entropy_bits(eigenvalues: np.ndarray):
    """-sum p log2 p over the last axis of checked density eigenvalues; jitter
    below 1e-12 counts as zero. A float for one spectrum, else an array. The
    sum is subtracted from 0.0, so a separable state gives 0, not -0."""
    clipped = np.clip(eigenvalues, 0.0, 1.0)
    clipped[np.abs(clipped) < _EIGENVALUE_CLIP] = 0.0
    positive = clipped > 0.0
    logs = np.log2(clipped, out=np.zeros_like(clipped), where=positive)
    entropy = 0.0 - np.sum(clipped * logs, axis=-1)
    return float(entropy) if eigenvalues.ndim == 1 else entropy


@dataclass(frozen=True)
class EntangledState:
    """Normalized coefficients over the (U1, U2, D1, D2) product basis."""

    coeffs: Mapping[tuple[Spin, int], complex]
    epsilon: float | None
    geometry: EmissionGeometry

    def __post_init__(self):
        _check_norm(self.vector().reshape(2, 2))

    def vector(self) -> np.ndarray:
        return np.array([self.coeffs[c] for c in CHANNELS])

    def fidelity(self, other: "EntangledState") -> float:
        """|<self|other>|, insensitive to global phases."""
        return float(abs(np.vdot(self.vector(), other.vector())))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with basis labels.

    ``eigenvalues`` are those taken by the validity check on construction.
    """

    basis: tuple[str, ...]
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        n = len(self.basis)
        if m.shape != (n, n):
            raise ValueError("matrix shape does not match basis")
        object.__setattr__(self, "eigenvalues", _check_density(m, _MATRIX_TOL))

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
    coeffs = _normalize(amps.vector().reshape(2, 2), amps.params, amps.epsilon)
    return EntangledState(dict(zip(CHANNELS, coeffs.ravel().tolist())),
                          amps.epsilon, amps.geometry)


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
        reduced = _spin_matrix(_coefficient_matrix(obj))
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

    Accepts a DensityMatrix (already checked to 1e-12 on construction), a
    plain Hermitian array, or a stack of them with shape (..., n, n). Returns
    a float for one matrix and an array of shape (...) for a stack. Raises
    DomainError if an array violates Hermiticity, unit trace or positivity
    beyond 1e-8; smaller negative eigenvalue jitter is clipped to zero.
    """
    if isinstance(rho, DensityMatrix):
        return _entropy_bits(rho.eigenvalues)
    return _entropy_bits(_check_density(np.asarray(rho, dtype=complex), _ENTROPY_INPUT_TOL))


def entropy_sweep(params: ModelParams, geom_template: EmissionGeometry,
                  thetas_deg: Sequence[float], epsilon: float) -> EntropyCurve:
    """Entanglement entropy against emission angle.

    One cached model build per parameter set, then the single-state path
    over all angles at once: one amplitude contraction, then the
    normalization, norm and density checks at the tolerances of
    ``entangled_state``, ``EntangledState`` and ``DensityMatrix``, and one
    batched eigenvalue decomposition.
    """
    thetas = np.radians(np.asarray(thetas_deg, dtype=float))
    if not np.all((thetas >= 0.0) & (thetas <= pi)):
        raise ValueError("theta must lie in [0, pi]")

    amps = calculator(params).amplitude_array(thetas, geom_template, epsilon)
    coeffs = _normalize(amps, params, epsilon)
    _check_norm(coeffs)
    entropy = _entropy_bits(_check_density(_spin_matrix(coeffs), _MATRIX_TOL))
    return EntropyCurve(tuple(float(t) for t in thetas_deg), tuple(entropy.tolist()))
