"""xepecs: photoelectron / emitted-photon coincidence spectroscopy of a
minimal two-shell atom, including the spin-polarization entanglement of the
outgoing pair."""

from .angular import HalfInt, cg
from .fockspace import FockState, Shell, Spin, SpinOrbital
from .model import (
    DomainError,
    EigenSystem,
    ModelParams,
    Subspace,
    SubspaceLabel,
    intermediate_eigensystem,
    subspace,
)
from .polarization import EmissionGeometry
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
    EntangledState,
    EntropyCurve,
    entangled_state,
    entropy_sweep,
    full_density_matrix,
    reduce_to_polarization,
    reduce_to_spin,
    von_neumann_entropy,
)

__all__ = [
    "HalfInt", "cg",
    "FockState", "Shell", "Spin", "SpinOrbital",
    "DomainError", "EigenSystem", "ModelParams", "Subspace", "SubspaceLabel",
    "intermediate_eigensystem", "subspace",
    "EmissionGeometry",
    "AmplitudeCalculator", "AmplitudeSet", "xepecs_amplitudes",
    "LineSpectrum", "SpectralLine", "SpectrumSeries",
    "auto_epsilon", "broaden", "xepecs_spectrum", "xps_lines",
    "DensityMatrix", "EntangledState", "EntropyCurve", "entangled_state", "entropy_sweep",
    "full_density_matrix", "reduce_to_polarization", "reduce_to_spin", "von_neumann_entropy",
]

__version__ = "0.1.0"
