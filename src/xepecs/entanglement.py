"""Spin-polarization entangled state, density matrices and entanglement entropy.

Subsystem A is the photoelectron spin, subsystem B the emitted-photon
polarization. The pure two-qubit state is the normalized amplitude array

    |psi> = (1 / sqrt(sum |A|^2)) * sum_(sigma lambda) A_(sigma lambda)
            |spin sigma> |polarization lambda>

and the entanglement entropy is the base-2 von Neumann entropy of the reduced
spin density matrix. For the default orthogonal polarization pair
(beta1 = 90 deg, beta2 = 180 deg) the state also has the closed form

    (1 / (3 sqrt(C))) * [ sin(theta) |U2> + e^(i phi) (i |D1> - cos(theta) |D2>) ]

which this module keeps as an independent cross-check of the full amplitude
pipeline; its reduced spin matrix has eigenvalues (1 +/- |cos(theta)|) / 2.

A single state and an angle sweep share one normalization of a (..., 2, 2)
amplitude stack (rejecting non-finite or vanishing amplitudes with the
parameter set and kinetic energy named) and one norm check. A single state's
reduced matrix is a checked ``DensityMatrix``; ``entropy_sweep`` takes the
reduced spin eigenvalues of every angle in closed form from |det c|
(concurrence 2|det c|), with no eigenvalue decomposition. Both turn
eigenvalues into bits the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, pi, radians, sin, sqrt
from typing import Sequence

import numpy as np

from .amplitudes import CHANNEL_INDEX, CHANNELS, AmplitudeSet, calculator, channel_label
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

SPIN_POLARIZATION_BASIS = tuple(map(channel_label, CHANNELS))

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


def _spin_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Eigenvalues (lambda_-, lambda_+) of the reduced spin matrices c c^dag of a
    (..., 2, 2) coefficient stack, in closed form, without forming c c^dag.

    With a and d the squared norms of the rows of c and b = c_00 conj(c_10) +
    c_01 conj(c_11), lambda_+ = (a + d)/2 + hypot((a - d)/2, |b|) and
    lambda_- = min(|det c|^2 / lambda_+, lambda_+), which does not cancel near
    a separable state (det c = 0). Both are real and lambda_- + lambda_+ = a + d,
    the norm that ``_check_norm`` bounds, so only positivity is left to check:
    raises DomainError unless lambda_- >= -1e-12, a comparison NaN fails.
    """
    c00, c01, c10, c11 = np.moveaxis(coeffs.reshape(*coeffs.shape[:-2], 4), -1, 0)
    sq = coeffs.real ** 2 + coeffs.imag ** 2
    a, d = sq[..., 0, 0] + sq[..., 0, 1], sq[..., 1, 0] + sq[..., 1, 1]
    b = c00 * c10.conj() + c01 * c11.conj()
    det = c00 * c11 - c01 * c10
    upper = 0.5 * (a + d) + np.hypot(0.5 * (a - d), np.abs(b))
    lower = np.minimum((det.real ** 2 + det.imag ** 2) / upper, upper)
    if not np.all(lower >= -_MATRIX_TOL):
        raise DomainError("matrix has a negative eigenvalue")
    return np.stack([lower, upper], axis=-1)


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


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class EntangledState:
    """Normalized coefficients over the (U1, U2, D1, D2) product basis: the (2, 2)
    complex array coeffs[sigma, lambda - 1], stored as given, made read-only."""

    coeffs: np.ndarray
    epsilon: float | None
    geometry: EmissionGeometry

    def __post_init__(self):
        self.coeffs.flags.writeable = False
        _check_norm(self.coeffs)

    def __getitem__(self, channel: tuple[Spin, int]) -> complex:
        return complex(self.coeffs[CHANNEL_INDEX[channel]])

    def vector(self) -> np.ndarray:
        return self.coeffs.ravel()

    def fidelity(self, other: "EntangledState") -> float:
        """|<self|other>|, insensitive to global phases."""
        return float(abs(np.vdot(self.vector(), other.vector())))


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
        entropy = np.asarray(self.entropy, dtype=float)
        outside = np.flatnonzero(~((entropy >= -1e-9) & (entropy <= 1.0 + 1e-9)))
        if outside.size:
            raise ValueError(f"entropy {float(entropy[outside[0]])} outside [0, 1] bits")


def entangled_state(amps: AmplitudeSet) -> EntangledState:
    """Normalize the four coincidence amplitudes into a two-qubit state."""
    return EntangledState(_normalize(amps.values, amps.params, amps.epsilon),
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
    coeffs = np.array([[0j, scale * sin(geom.theta)],
                       [scale * 1j * phase, -scale * cos(geom.theta) * phase]])
    return EntangledState(coeffs, None, geom)


def full_density_matrix(state: EntangledState) -> DensityMatrix:
    """|psi><psi| over the four spin-polarization product states, written
    exactly Hermitian (numpy's complex products leave roundoff that is not)."""
    v = state.vector()
    m = np.outer(v, v.conj())
    return DensityMatrix(SPIN_POLARIZATION_BASIS, 0.5 * (m + m.conj().T))


def reduce_to_spin(obj) -> DensityMatrix:
    """Partial trace over the photon polarization, leaving the spin qubit."""
    if isinstance(obj, DensityMatrix):
        reduced = np.einsum("albl->ab", obj.matrix.reshape(2, 2, 2, 2))
    else:
        reduced = _spin_matrix(obj.coeffs)
    return DensityMatrix(("U", "D"), reduced)


def reduce_to_polarization(obj) -> DensityMatrix:
    """Partial trace over the photoelectron spin, leaving the photon qubit."""
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
    beyond 1e-8; smaller negative eigenvalue jitter is clipped to zero.
    """
    if isinstance(rho, DensityMatrix):
        return _entropy_bits(rho.eigenvalues)
    return _entropy_bits(_check_density(np.asarray(rho, dtype=complex), _ENTROPY_INPUT_TOL))


def entropy_sweep(params: ModelParams, geom_template: EmissionGeometry,
                  thetas_deg: Sequence[float], epsilon: float) -> EntropyCurve:
    """Entanglement entropy against emission angle.

    One cached model build per parameter set, then array math over all
    angles at once: one amplitude product, the normalization and norm check
    of ``entangled_state`` and ``EntangledState``, and the reduced spin
    eigenvalues in closed form (``_spin_spectrum``), with the positivity
    check of ``DensityMatrix`` at the same tolerance.
    """
    thetas = np.radians(np.asarray(thetas_deg, dtype=float))
    amps = calculator(params).amplitude_array(thetas, geom_template, epsilon)
    coeffs = _normalize(amps, params, epsilon)
    _check_norm(coeffs)
    entropy = _entropy_bits(_spin_spectrum(coeffs))
    return EntropyCurve(tuple(map(float, thetas_deg)), tuple(entropy.tolist()))
