"""Emission geometry and polarization coefficients of the decay photon.

The emitted photon propagates along k_hat(theta, phi); its two linear
polarization vectors lie in the plane spanned by the spherical unit vectors
e_theta and e_phi,

    e_lambda(beta) = cos(beta) e_theta + sin(beta) e_phi,

so they automatically satisfy the transversality (Coulomb gauge) condition.
The dipole matrix elements only need the projections of e_lambda on the
spherical basis vectors e_0 = z, e_(+/-1) = -/+ (x +/- i y)/sqrt(2)
(Condon-Shortley). For linear polarization these are

    alpha_0  = -cos(beta) sin(theta)
    alpha_-1 = sqrt(1/2) (cos(beta) cos(theta) + i sin(beta)) e^(i phi)

and both closed forms are cross-checked against the geometric projection on
every evaluation. ``polarization_components`` evaluates the same projections
for a whole array of emission angles at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import cos, pi, radians, sin

import numpy as np

__all__ = [
    "EmissionGeometry",
    "PolarizationCoeffs",
    "basis_vectors",
    "polarization_vector",
    "spherical_components",
    "polarization_components",
    "alpha_coeffs",
]

_CROSS_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class EmissionGeometry:
    """Direction (theta, phi) of the emitted photon and polarization angles.

    All angles in radians; beta1 and beta2 fix the two linear polarization
    axes in the (e_theta, e_phi) plane and must not coincide modulo pi.
    """

    theta: float
    phi: float = 0.0
    beta1: float = pi / 2.0
    beta2: float = pi

    def __post_init__(self):
        if not 0.0 <= self.theta <= pi:
            raise ValueError("theta must lie in [0, pi]")
        if abs(sin(self.beta1 - self.beta2)) < 1e-12:
            raise ValueError("beta1 and beta2 coincide modulo pi; "
                             "polarizations are not independent")

    @classmethod
    def from_degrees(cls, theta: float, phi: float = 0.0,
                     beta1: float = 90.0, beta2: float = 180.0) -> "EmissionGeometry":
        return cls(radians(theta), radians(phi), radians(beta1), radians(beta2))

    def with_theta(self, theta: float) -> "EmissionGeometry":
        return replace(self, theta=theta)

    def beta(self, i: int) -> float:
        if i == 1:
            return self.beta1
        if i == 2:
            return self.beta2
        raise ValueError("polarization index must be 1 or 2")


def basis_vectors(geom: EmissionGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(e_theta, e_phi, k_hat) as real orthonormal 3-vectors."""
    st, ct = sin(geom.theta), cos(geom.theta)
    sp, cp = sin(geom.phi), cos(geom.phi)
    e_theta = np.array([ct * cp, ct * sp, -st])
    e_phi = np.array([-sp, cp, 0.0])
    k_hat = np.array([st * cp, st * sp, ct])
    return e_theta, e_phi, k_hat


def polarization_vector(geom: EmissionGeometry, i: int) -> np.ndarray:
    """Linear polarization axis e_lambda_i, transverse to k_hat."""
    beta = geom.beta(i)
    e_theta, e_phi, _ = basis_vectors(geom)
    return cos(beta) * e_theta + sin(beta) * e_phi


def spherical_components(v: np.ndarray) -> tuple[complex, complex, complex]:
    """Projections (q = +1, 0, -1) of a 3-vector on the spherical basis.

    Component q is v . conj(e_q) with e_0 = z and e_(+/-1) = -/+(x +/- iy)/sqrt(2).
    """
    vx, vy, vz = (complex(c) for c in v)
    plus = -(vx - 1j * vy) / np.sqrt(2.0)
    zero = vz
    minus = (vx + 1j * vy) / np.sqrt(2.0)
    return plus, zero, minus


def polarization_components(thetas: np.ndarray, phi: float, beta1: float, beta2: float
                            ) -> np.ndarray:
    """Spherical projections of both polarization vectors for an array of angles.

    Returns an (N, 2, 3) complex array: entry [n, i - 1, :] equals
    ``spherical_components(polarization_vector(geom, i))`` for the geometry
    with polar angle thetas[n] (radians) and the fixed phi, beta1 and beta2.
    """
    st, ct = np.sin(thetas), np.cos(thetas)
    sp, cp = sin(phi), cos(phi)
    cb = np.array([cos(beta1), cos(beta2)])
    sb = np.array([sin(beta1), sin(beta2)])
    # e_lambda = cos(beta) e_theta + sin(beta) e_phi, component by component
    vx = cb * (ct * cp)[:, np.newaxis] + sb * -sp
    vy = cb * (ct * sp)[:, np.newaxis] + sb * cp
    vz = cb * -st[:, np.newaxis] + sb * 0.0
    out = np.empty(vx.shape + (3,), dtype=complex)
    out[..., 0] = -(vx - 1j * vy) / np.sqrt(2.0)
    out[..., 1] = vz
    out[..., 2] = (vx + 1j * vy) / np.sqrt(2.0)
    return out


@dataclass(frozen=True)
class PolarizationCoeffs:
    """alpha_0 and alpha_-1 for the two polarizations of a stored geometry."""

    alpha0: tuple[complex, complex]
    alpha_m1: tuple[complex, complex]
    geometry: EmissionGeometry

    def for_polarization(self, i: int) -> tuple[complex, complex]:
        """(alpha_0, alpha_-1) of polarization i in {1, 2}."""
        if i not in (1, 2):
            raise ValueError("polarization index must be 1 or 2")
        return self.alpha0[i - 1], self.alpha_m1[i - 1]


def alpha_coeffs(geom: EmissionGeometry) -> PolarizationCoeffs:
    """Closed-form alpha coefficients, verified against the projection route."""
    st, ct = sin(geom.theta), cos(geom.theta)
    phase = complex(cos(geom.phi), sin(geom.phi))

    a0 = []
    am1 = []
    for i in (1, 2):
        beta = geom.beta(i)
        closed0 = complex(-cos(beta) * st)
        closed1 = np.sqrt(0.5) * (cos(beta) * ct + 1j * sin(beta)) * phase

        _, proj0, proj1 = spherical_components(polarization_vector(geom, i))
        if abs(closed0 - proj0) > _CROSS_CHECK_TOL or abs(closed1 - proj1) > _CROSS_CHECK_TOL:
            raise RuntimeError("polarization coefficient cross-check failed")
        a0.append(closed0)
        am1.append(complex(closed1))

    return PolarizationCoeffs((a0[0], a0[1]), (am1[0], am1[1]), geom)
