"""Photoemission and radiative-decay matrix elements, and the coincidence
amplitudes A(sigma, lambda; epsilon) of the second-order process.

The incident photon ejects a 1s electron of spin sigma, the core-excited
intermediate states i propagate with a resonant denominator, and the 2p -> 1s
decay emits a photon of polarization lambda:

    A(sigma, lambda) = sum_i  <f_(sigma lambda)| M_ph |i_sigma>
                              * <i_sigma| c^dag_(eps sigma) s_sigma a |g>
                              / (Omega + eps_s + E'_g - E'_i - epsilon + i Gamma_1s)

E' are eigenvalues of the couplings H' of ``model``; the level energies enter
only as eps_s, for the removed 1s electron (here and in the photoemission
lines Omega + eps_s + E'_g - E'_i), and as eps_p in the emission line
omega_0 = Omega + eps_p + E'_g - epsilon. The calculator writes these once.

Only the electrons are second-quantized; the photons and the photoelectron
label the channel. Each gives every bracket a factor 1: a photon count goes
1 -> 0 or 0 -> 1 (sqrt(1)), and the photoelectron, above the 8 orbitals, gives
bra and ket of equal electron count the same fermionic sign. So the
photoemission components are the vertex times <b| s_sigma |g>, and the decay
is the one-body operator sum_(m, s) d_m s^dag_s p_(m s), whose Fock matrix
from the s^1 p^1 states to the closed 1s^2 shell comes from the builder of the
``model`` operators. Both are built once per process. With the radial dipole
integral 1 and the photoemission vertex 1/sqrt(2), both spins remove unit 1s
strength (only ratios are observable).

M_ph is linear in the spherical components alpha_q (q = +1, 0, -1) of the
emitted polarization. Per intermediate subspace the Fock-space layer builds
D_sigma[q, b] = <f_sigma| M_ph(alpha = e_q) |b> over the basis states b, and
the photoemission components c_sigma[b] = <b| c^dag_(eps sigma) s_sigma a |g>.
Per ``ModelParams`` the calculator forms pe_sigma = V_sigma^dag c_sigma and,
per kinetic energy, one 3-vector

    t_sigma[q] = sum_i (D_sigma V_sigma)[q, i] pe_sigma[i] / denom_sigma[i],

so A(sigma, lambda) = sum_q alpha_(lambda q) t_sigma[q]. For N emission
angles at once that is one (2N x 3) @ (3 x 2) matrix product of the stacked
polarization components with t^T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import inf, isfinite, pi, sqrt

import numpy as np

from .angular import cg
from .fockspace import Shell, Spin, SpinOrbital, annihilate, basis_vector, inner
from .model import (
    DomainError,
    ModelParams,
    SubspaceLabel,
    _configuration,
    _fock_matrix,
    _read_only,
    final_state_energy,
    ground_coupling_energy,
    ground_state,
    initial_energy,
    intermediate_eigensystem,
    intermediate_subspace,
    subspace,
)
from .polarization import EmissionGeometry, polarization_components

__all__ = [
    "CHANNELS",
    "CHANNEL_INDEX",
    "channel_label",
    "AmplitudeSet",
    "xepecs_amplitudes",
    "AmplitudeCalculator",
    "calculator",
]

# (photoelectron spin, emitted polarization) channels in fixed order, and the
# index [sigma, lambda - 1] of each in a (2, 2) array whose ravel() is that order
CHANNELS: tuple[tuple[Spin, int], ...] = (
    (Spin.UP, 1), (Spin.UP, 2), (Spin.DOWN, 1), (Spin.DOWN, 2),
)
CHANNEL_INDEX = {channel: divmod(k, 2) for k, channel in enumerate(CHANNELS)}

# Total 1s photoemission strength over both spin channels normalized to 1.
PHOTOEMISSION_VERTEX = 1.0 / sqrt(2.0)

# Angular factor of <1s| r_q |2p_m>, radial integral set to 1, from the CG
# layer: d_m = -<1 m; 1 -m|0 0> = (-1)^m / sqrt(3) multiplies alpha_(-m).
_EMISSION_VERTEX = {m: -cg(1, m, 1, -m, 0, 0) for m in (1, 0, -1)}

# parameter sets whose calculators are kept by ``calculator``
_CALCULATOR_CACHE_SIZE = 8


def channel_label(channel: tuple[Spin, int]) -> str:
    """Short tag like 'U2' for a (spin, polarization) channel."""
    sigma, lam = channel
    return f"{'U' if sigma is Spin.UP else 'D'}{lam}"


@cache
def _ground_components(sigma: Spin) -> np.ndarray:
    """<b| c^dag_(eps sigma) s_sigma a |g> = vertex * <b| s_sigma |g> of the
    ground state g over the intermediate basis states b (read-only), built once."""
    w = PHOTOEMISSION_VERTEX * annihilate(ground_state(), SpinOrbital(Shell.S1S, 0, sigma))
    return _read_only(np.array([inner(basis_vector(b), w)
                                for b in intermediate_subspace(sigma).basis]))


@cache
def _emission_basis(label: SubspaceLabel) -> np.ndarray:
    """D[q, b] = <f| M_ph(alpha = e_q) |b> for q = +1, 0, -1 (read-only, 3 x dim).

    M_ph(e_q) keeps the one vertex that alpha_q multiplies, d_m with m = -q,
    in the one-body operator sum_s d_m s^dag_s p_(m s). Row q is its Fock
    matrix from the s^1 p^1 states to the closed 1s^2 shell, sliced to the
    basis of ``label``; built on first use, once per process. The emitted
    polarization only labels the final state, so these rows serve both.
    """
    closed, col = _configuration((2, 0)), _configuration((1, 1))
    basis = [col[b] for b in subspace(label).basis]
    rows = []
    for m in (-1, 0, 1):   # q = +1, 0, -1
        table = np.zeros((8, 8))
        for s in Spin:
            table[SpinOrbital(Shell.S1S, 0, s).index,
                  SpinOrbital(Shell.P2P, m, s).index] = _EMISSION_VERTEX[m]
        rows.append(_fock_matrix(table, closed, col)[0, basis])
    return _read_only(np.array(rows))


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class AmplitudeSet:
    """The four coincidence amplitudes at one photoelectron kinetic energy: the
    (2, 2) complex array values[sigma, lambda - 1], stored as given, made read-only."""

    epsilon: float
    values: np.ndarray
    geometry: EmissionGeometry
    params: ModelParams | None = None   # the model, where the calculator made the set

    def __post_init__(self):
        self.values.flags.writeable = False

    def __getitem__(self, channel: tuple[Spin, int]) -> complex:
        return complex(self.values[CHANNEL_INDEX[channel]])

    def vector(self) -> np.ndarray:
        """Amplitudes in (U1, U2, D1, D2) order."""
        return self.values.ravel()


class AmplitudeCalculator:
    """Everything the amplitudes need that depends only on the model parameters.

    The energies E_g, E_f and E'_g, the intermediate eigensystems, the
    photoemission line positions and elements, and the emission matrices
    D_sigma V_sigma over the eigenstates are computed once on construction
    and stored read-only. None of this runs the Fock-space operators: their
    work is cached per process in ``model`` and in this module. Per kinetic
    energy, ``spin_vectors`` does the resonant sum; per geometry, the
    amplitudes are a contraction of those vectors with the polarization
    components, for one angle or for an array of them. A model that leaves
    the domain raises ``DomainError`` naming the parameter set.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        try:
            self.ground_coupling = ground_coupling_energy(params)   # E'_g
            self.E_g = initial_energy(params, self.ground_coupling)
            self.E_f = final_state_energy(params)
            self.eigensystems = {sigma: intermediate_eigensystem(params, sigma) for sigma in Spin}
            width = max(params.Gamma_1s, params.gamma)   # Lorentzian HWHMs, squared in spectra
            if not width * width < inf:
                raise DomainError(f"a Lorentzian width of {width:g} eV overflows its square")
        except DomainError as exc:
            raise DomainError(f"{params!r}: {exc}") from exc
        self.line_positions = {sigma: params.Omega + params.eps_s
                               + (self.ground_coupling - eig.coupling_energies)
                               for sigma, eig in self.eigensystems.items()}
        self.pe_elements = {
            sigma: eig.vectors.conj().T @ _ground_components(sigma)
            for sigma, eig in self.eigensystems.items()
        }
        self.emission = {
            sigma: _emission_basis(eig.subspace.label) @ eig.vectors   # (q, i)
            for sigma, eig in self.eigensystems.items()
        }
        for sigma, eig in self.eigensystems.items():
            for array in (eig.coupling_energies, eig.vectors, self.line_positions[sigma],
                          self.pe_elements[sigma], self.emission[sigma]):
                array.flags.writeable = False

    def emission_line(self, epsilon: float) -> float:
        """omega_0 = Omega + eps_p + E'_g - epsilon, the emitted-photon energy."""
        return self.params.Omega + self.params.eps_p + self.ground_coupling - epsilon

    def _resonance(self, sigma: Spin, epsilon: float) -> np.ndarray:
        """Omega + eps_s + E'_g - E'_i - epsilon + i Gamma_1s over the eigenstates i."""
        return self.line_positions[sigma] - epsilon + 1j * self.params.Gamma_1s

    def spin_vectors(self, epsilon: float) -> np.ndarray:
        """t[sigma, q]: the resonant sum over eigenstates, rows (up, down); a
        DomainError (a ValueError) if ``epsilon`` is not finite."""
        if not isfinite(epsilon):
            raise DomainError(f"epsilon must be finite, got {epsilon!r}")
        return np.array([self.emission[s] @ (self.pe_elements[s] / self._resonance(s, epsilon))
                         for s in Spin])

    def amplitude_array(self, thetas: np.ndarray, geom: EmissionGeometry, epsilon: float
                        ) -> np.ndarray:
        """A[n, sigma, lambda] at the polar angles thetas (radians).

        phi, beta1 and beta2 are taken from ``geom``; sigma runs (up, down)
        and lambda (1, 2), so ``A[n].ravel()`` is in CHANNELS order. A theta
        that is NaN or outside [0, pi] raises ValueError.
        """
        if not ((thetas >= 0.0) & (thetas <= pi)).all():
            raise ValueError("theta must lie in [0, pi]")
        alphas = polarization_components(thetas, geom.phi, geom.beta1, geom.beta2)
        summed = alphas.reshape(-1, 3) @ self.spin_vectors(epsilon).T   # (n lambda, sigma)
        return summed.reshape(-1, 2, 2).swapaxes(1, 2)

    def amplitudes(self, geom: EmissionGeometry, epsilon: float) -> AmplitudeSet:
        values = self.amplitude_array(np.array([geom.theta]), geom, epsilon)[0]
        return AmplitudeSet(epsilon, values, geom, self.params)


@lru_cache(maxsize=_CALCULATOR_CACHE_SIZE)
def calculator(params: ModelParams) -> AmplitudeCalculator:
    """The shared calculator for a parameter set, built on first request."""
    return AmplitudeCalculator(params)


def xepecs_amplitudes(params: ModelParams, geom: EmissionGeometry, epsilon: float
                      ) -> AmplitudeSet:
    """The four A(sigma, lambda) at the given kinetic energy and geometry."""
    return calculator(params).amplitudes(geom, epsilon)
