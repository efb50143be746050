"""xepecs: photoelectron / emitted-photon coincidence spectroscopy of a
minimal two-shell atom, including the spin-polarization entanglement of the
outgoing pair."""

from .angular import HalfInt, CoupledLabel, cg, coupled_state
from .fockspace import (
    FockState,
    ManyBodyVector,
    Shell,
    Spin,
    SpinOrbital,
)
from .model import (
    EigenSystem,
    ModelParams,
    Subspace,
    SubspaceLabel,
    build_hamiltonian,
    diagonalize,
    initial_state,
    intermediate_eigensystem,
    subspace,
)
from .polarization import EmissionGeometry, basis_vectors, polarization_vector
from .amplitudes import AmplitudeCalculator, AmplitudeSet, xepecs_amplitudes
from .spectra import (
    LineSpectrum,
    SpectralLine,
    SpectrumSeries,
    auto_epsilon,
    broaden,
    xepecs_spectrum,
    xps_lines,
)
from .entanglement import (
    DensityMatrix,
    DomainError,
    EntangledState,
    EntropyCurve,
    closed_form_state,
    entangled_state,
    entropy_sweep,
    full_density_matrix,
    reduce_to_polarization,
    reduce_to_spin,
    von_neumann_entropy,
)

__version__ = "0.1.0"
