"""Spin-resolved core-level photoemission and coincidence emission spectra.

Line positions follow energy conservation: a photoelectron line sits at
epsilon_i = Omega + E_g - E_i, and the emitted-photon line of the coincidence
spectrum at omega_0 = Omega + E_g - epsilon - E_f with the unique closed-shell
final state. Discrete lines are convolved with a unit-area Lorentzian whose
``width`` parameter is the half width at half maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .angular import HalfInt
from .fockspace import Shell, Spin, SpinOrbital, create, inner, vacuum
from .amplitudes import calculator, channel_label
from .model import ModelParams, apply_hamiltonian
from .polarization import EmissionGeometry

__all__ = [
    "SpectralLine",
    "LineSpectrum",
    "SpectrumSeries",
    "xps_lines",
    "broaden",
    "xepecs_spectrum",
    "default_xps_grid",
    "default_emission_grid",
    "final_state_energy",
    "auto_epsilon",
]


@dataclass(frozen=True)
class SpectralLine:
    position: float          # eV
    weight: float            # >= 0
    j: HalfInt | None        # total angular momentum of the intermediate state
    channel: str


@dataclass(frozen=True)
class LineSpectrum:
    lines: tuple[SpectralLine, ...]

    def __post_init__(self):
        for line in self.lines:
            if not np.isfinite(line.position) or line.weight < 0:
                raise ValueError("lines need finite positions and non-negative weights")

    def total_weight(self) -> float:
        return sum(line.weight for line in self.lines)

    def select(self, j) -> "LineSpectrum":
        j = HalfInt.of(j)
        return LineSpectrum(tuple(l for l in self.lines if l.j == j))


@dataclass(frozen=True)
class SpectrumSeries:
    grid: np.ndarray
    intensity: np.ndarray
    channel: str

    def __post_init__(self):
        if len(self.grid) != len(self.intensity):
            raise ValueError("grid and intensity lengths differ")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly ascending")
        if np.any(self.intensity < 0):
            raise ValueError("intensity must be non-negative")


def xps_lines(params: ModelParams, sigma: Spin) -> LineSpectrum:
    """Photoemission line spectrum for one photoelectron spin.

    One line per intermediate eigenstate, positioned at Omega + E_g - E_i
    with weight |<i| c^dag s a |g>|^2. Dipole-forbidden eigenstates are kept
    with (numerically) zero weight so the selection rules stay visible.
    """
    calc = calculator(params)
    eig = calc.eigensystems[sigma]
    elements = calc.pe_elements[sigma]
    lines = tuple(
        SpectralLine(
            position=params.Omega + calc.E_g - float(e),
            weight=float(abs(el) ** 2),
            j=j,
            channel=f"xps_{sigma.value}",
        )
        for e, el, j in zip(eig.energies, elements, eig.j_labels)
    )
    return LineSpectrum(lines)


def broaden(lines: LineSpectrum, width: float, grid: np.ndarray,
            channel: str | None = None) -> SpectrumSeries:
    """Convolve a line spectrum with a unit-area Lorentzian of HWHM ``width``."""
    if not width > 0:
        raise ValueError("width must be > 0")
    grid = np.asarray(grid, dtype=float)
    intensity = np.zeros_like(grid)
    for line in lines.lines:
        intensity += line.weight * (width / pi) / ((grid - line.position) ** 2 + width ** 2)
    if channel is None:
        channel = lines.lines[0].channel if lines.lines else ""
    return SpectrumSeries(grid, intensity, channel)


def final_state_energy(params: ModelParams) -> float:
    """Energy of the closed-shell electron final state, computed mechanically."""
    closed = create(create(vacuum(), SpinOrbital(Shell.S1S, 0, Spin.DOWN)),
                    SpinOrbital(Shell.S1S, 0, Spin.UP))
    return inner(closed, apply_hamiltonian(params, closed)).real


def default_xps_grid() -> np.ndarray:
    """Kinetic energies 5.0 .. 8.0 eV in 0.005 eV steps."""
    return np.linspace(5.0, 8.0, 601)


def default_emission_grid(center: float) -> np.ndarray:
    """Emitted-photon energies center +/- 3 eV in 0.005 eV steps."""
    return center + np.linspace(-3.0, 3.0, 1201)


def xepecs_spectrum(params: ModelParams, geom: EmissionGeometry, epsilon: float,
                    channel: tuple[Spin, int], grid: np.ndarray | None = None
                    ) -> SpectrumSeries:
    """Emitted-photon spectrum of one (spin, polarization) coincidence channel.

    A single line at omega_0 = Omega + E_g - epsilon - E_f carrying weight
    |A(sigma, lambda; epsilon)|^2, broadened with the emitted-photon
    resolution ``gamma``.
    """
    calc = calculator(params)
    amps = calc.amplitudes(geom, epsilon)
    omega0 = params.Omega + calc.E_g - epsilon - final_state_energy(params)
    if grid is None:
        grid = default_emission_grid(omega0)
    label = channel_label(channel)
    line = SpectralLine(omega0, abs(amps[channel]) ** 2, None, label)
    return broaden(LineSpectrum((line,)), params.gamma, grid, channel=label)


def auto_epsilon(params: ModelParams) -> float:
    """Default photoelectron kinetic energy: the maximum of the broadened
    J = 1 photoemission peak (taken from the down-spin channel, which carries
    only J = 1 lines), on the default kinetic-energy grid."""
    lines = xps_lines(params, Spin.DOWN).select(1)
    grid = default_xps_grid()
    series = broaden(lines, params.Gamma_1s, grid)
    return float(grid[int(np.argmax(series.intensity))])
