"""Emission geometry and polarization coefficients of the decay photon.

The emitted photon propagates along k_hat(theta, phi); its two linear
polarization vectors lie in the plane spanned by the spherical unit vectors
e_theta and e_phi,

    e_lambda(beta) = cos(beta) e_theta + sin(beta) e_phi,

so they automatically satisfy the transversality (Coulomb gauge) condition.
The dipole matrix elements need only the projections on the spherical basis
vectors e_0 = z and e_-1 = (x - i y)/sqrt(2) (Condon-Shortley), alpha_0 for
the up photoelectron and alpha_-1 for the down one. ``alpha_components``
evaluates both for both polarizations at one emission direction, from the
closed forms for linear polarization

    alpha_0  = -cos(beta) sin(theta)
    alpha_-1 = sqrt(1/2) (cos(beta) cos(theta) + i sin(beta)) e^(i phi)

Any two distinct axes give amplitudes; only an orthogonal pair (``_orthogonal``,
one test for the state and the command line) is a polarization basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, isfinite, pi, radians, sin, sqrt

import numpy as np

__all__ = [
    "EmissionGeometry",
    "alpha_components",
]

# largest |cos(beta1 - beta2)| of an orthogonal polarization pair
_ORTHOGONALITY_TOL = 1e-9


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
        for name in ("theta", "phi", "beta1", "beta2"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.theta <= pi:
            raise ValueError("theta must lie in [0, pi]")
        if abs(sin(self.beta1 - self.beta2)) < 1e-12:
            raise ValueError("beta1 and beta2 coincide modulo pi; "
                             "polarizations are not independent")

    @classmethod
    def from_degrees(cls, theta: float, phi: float = 0.0,
                     beta1: float = 90.0, beta2: float = 180.0) -> "EmissionGeometry":
        return cls(radians(theta), radians(phi), radians(beta1), radians(beta2))


def _orthogonal(beta1: float, beta2: float) -> bool:
    """Whether the axes at beta1 and beta2 (radians) are orthogonal; NaN is not."""
    return abs(cos(beta1 - beta2)) <= _ORTHOGONALITY_TOL


def alpha_components(theta: float, phi: float, beta1: float, beta2: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """alpha_0 (real) and alpha_-1 (complex) as two 2-arrays, entry [i - 1] for the
    polarization vector cos(beta_i) e_theta + sin(beta_i) e_phi at the polar angle
    theta and the azimuth phi (radians). A theta that is NaN or outside [0, pi]
    raises ValueError."""
    if not 0.0 <= theta <= pi:   # NaN fails too
        raise ValueError("theta must lie in [0, pi]")
    cb = np.array([cos(beta1), cos(beta2)])
    sb = np.array([sin(beta1), sin(beta2)])
    phase = complex(cos(phi), sin(phi))
    return -cb * sin(theta), phase * (cb * cos(theta) + 1j * sb) / sqrt(2.0)
