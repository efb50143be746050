"""Independent routes the tests hold the package to: the photon-emission
operator for any polarization pair through the Fock-space layer, the
photoemission elements of any initial state, the per-eigenstate resonance
terms, and the spherical projections of one polarization vector, in closed
form and by projection."""

from math import cos, sin
from typing import NamedTuple

import numpy as np

from xepecs.amplitudes import PHOTOEMISSION_VERTEX, _EMISSION_VERTEX, _EMITTED, _final_state
from xepecs.fockspace import (
    PhotonMode, Shell, Spin, SpinOrbital, annihilate, annihilate_photon, basis_vector,
    combine, create, create_photoelectron, create_photon, inner,
)
from xepecs.model import SubspaceLabel, intermediate_subspace
from xepecs.polarization import polarization_vector


def spherical_components(v):
    """Projections v . conj(e_q) (q = +1, 0, -1) of a 3-vector on the spherical
    basis e_0 = z, e_(+/-1) = -/+(x +/- iy)/sqrt(2)."""
    vx, vy, vz = (complex(c) for c in v)
    return -(vx - 1j * vy) / np.sqrt(2.0), vz, (vx + 1j * vy) / np.sqrt(2.0)


def photoemission_elements(g, eig, sigma):
    """<i_sigma| c^dag_(eps sigma) s_sigma a |g> for every eigenstate i of ``eig``,
    which must be the intermediate eigensystem matching the photoelectron spin."""
    if eig.subspace != intermediate_subspace(sigma):
        raise ValueError(f"eigensystem over {eig.subspace.label.value} does not match "
                         f"photoelectron spin {sigma}")
    w = annihilate(annihilate_photon(g, PhotonMode.INCIDENT), SpinOrbital(Shell.S1S, 0, sigma))
    w = PHOTOEMISSION_VERTEX * create_photoelectron(w, sigma)
    components = np.array([inner(create_photoelectron(basis_vector(b), sigma), w)
                           for b in eig.subspace.basis])
    return eig.vectors.conj().T @ components


def _apply_mph(v, alphas):
    """The 2p -> 1s photon-emission operator; alphas[lam] holds the spherical
    projections (q = +1, 0, -1) of polarization vector lam, and each term is
    _EMISSION_VERTEX[m] * alpha_(-m) * b^dag_lam s^dag_sigma p_(m sigma)."""
    terms = []
    for lam, alpha in alphas.items():
        for m, vertex in _EMISSION_VERTEX.items():
            d = vertex * alpha[1 + m]
            if d == 0:
                continue
            for sigma in (Spin.UP, Spin.DOWN):
                w = create(annihilate(v, SpinOrbital(Shell.P2P, m, sigma)),
                           SpinOrbital(Shell.S1S, 0, sigma))
                terms.append((d, create_photon(w, _EMITTED[lam])))
    return combine(terms)


def dipole_block(geom, sub):
    """<f_(sigma lambda)| M_ph |basis state> for both polarizations of ``geom``,
    rows lambda = 1, 2 and columns the basis of ``sub``."""
    sigma = Spin.UP if sub.label is SubspaceLabel.M0 else Spin.DOWN
    alphas = {i: spherical_components(polarization_vector(geom, i)) for i in (1, 2)}
    block = np.zeros((2, sub.dim), dtype=complex)
    for col, b in enumerate(sub.basis):
        image = _apply_mph(create_photoelectron(basis_vector(b), sigma), alphas)
        for lam in (1, 2):
            block[lam - 1, col] = inner(_final_state(sigma, lam), image)
    return block


class DipoleBlock(NamedTuple):
    """Both spin blocks of the emission matrix for one geometry."""

    up_block: np.ndarray    # 2 x 4, over the M = 0 basis
    down_block: np.ndarray  # 2 x 3, over the M = 1 basis

    @classmethod
    def from_geometry(cls, geom):
        return cls(*(dipole_block(geom, intermediate_subspace(s)) for s in Spin))


def per_eigenstate_terms(calc, geom, epsilon, sigma):
    """The resonance terms (lambda, i) of ``calc`` before the sum over eigenstates i."""
    eig = calc.eigensystems[sigma]
    emission = dipole_block(geom, eig.subspace) @ eig.vectors
    return emission * calc.pe_elements[sigma] / calc._resonance(sigma, epsilon)


class PolarizationCoeffs(NamedTuple):
    """alpha_0 and alpha_-1 of the two polarizations of a geometry."""

    alpha0: tuple[complex, complex]
    alpha_m1: tuple[complex, complex]


def alpha_coeffs(geom):
    """The closed forms alpha_0 = -cos(beta) sin(theta) and
    alpha_-1 = sqrt(1/2) (cos(beta) cos(theta) + i sin(beta)) e^(i phi),
    each checked against the projection of the polarization vector to 1e-12."""
    phase = complex(cos(geom.phi), sin(geom.phi))
    pairs = []
    for i in (1, 2):
        beta = geom.beta(i)
        closed0 = complex(-cos(beta) * sin(geom.theta))
        closed1 = complex(np.sqrt(0.5) * (cos(beta) * cos(geom.theta) + 1j * sin(beta)) * phase)
        _, proj0, proj1 = spherical_components(polarization_vector(geom, i))
        if abs(closed0 - proj0) > 1e-12 or abs(closed1 - proj1) > 1e-12:
            raise RuntimeError("polarization coefficient cross-check failed")
        pairs.append((closed0, closed1))
    return PolarizationCoeffs(*zip(*pairs))
