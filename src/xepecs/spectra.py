"""Spin-resolved core-level photoemission and coincidence emission spectra.

Line positions follow energy conservation, written once by the calculator: a
photoelectron line at epsilon_i = Omega + eps_s + E'_g - E'_i, and the emitted
photon of the coincidence spectrum at omega_0 = Omega + eps_p + E'_g - epsilon
(see ``amplitudes``). Discrete lines are convolved with a unit-area Lorentzian
of half width at half maximum ``width``; a dark line (weight 0) adds nothing to
a sum that holds a bright one, so the sums leave it out.

Both default grids have a 0.005 eV step, and the emission grid spans 3 eV on
either side of its line. A model or kinetic energy that puts a line where
double precision cannot resolve that step (beyond about 3.5e13 eV), or that
sums an energy that large into a line position, is a domain error naming the
inputs, not a collapsed grid, a multiplet rounded away or an overflowing
Lorentzian. The calculator takes that verdict on each spin's photoemission
lines once, and each read of them raises it: ``xps_lines``, ``auto_epsilon``
and the coincidence spectrum (R(epsilon) sums the down-spin J = 1 lines), which
checks omega_0 once per amplitude set and returns rows of its checked block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi

import numpy as np

from .angular import HalfInt
from .fockspace import Spin
from .amplitudes import (_EMISSION_HALF_WIDTH, _GRID_STEP, _channel_index, _check_width,
                         _unresolved, calculator, channel_label)
from .model import DomainError, ModelParams, _read_only
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
    "auto_epsilon",
]

_XPS_GRID = _read_only(np.linspace(5.0, 8.0, 601))
_EMISSION_OFFSETS = _read_only(np.linspace(-_EMISSION_HALF_WIDTH, _EMISSION_HALF_WIDTH, 1201))


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
        for line in self.lines:   # NaN fails
            if not isfinite(line.position) or not line.weight >= 0:
                raise DomainError("lines need finite positions and non-negative weights")


@dataclass(frozen=True, eq=False)   # array fields: == is identity
class SpectrumSeries:
    grid: np.ndarray
    intensity: np.ndarray
    channel: str

    def __post_init__(self):
        _check_spectrum(self.grid, self.intensity)


def _check_spectrum(grid: np.ndarray, intensity: np.ndarray, ndim: int = 1) -> None:
    """ValueError unless ``grid`` is 1-D and strictly ascending and ``intensity``
    (a series, or a block of them) has ``ndim`` axes, the last as long as
    ``grid``, and is non-negative; NaN fails every check."""
    if np.ndim(grid) != 1:
        raise ValueError("grid must be a 1-D sequence")
    if np.ndim(intensity) != ndim:
        raise ValueError(f"intensity must be {ndim}-D")
    if np.shape(intensity)[-1] != len(grid):
        raise ValueError("grid and intensity lengths differ")
    if not np.greater(grid[1:], grid[:-1]).all():
        raise ValueError("grid must be strictly ascending")
    if not np.greater_equal(intensity, 0.0).all():
        raise ValueError("intensity must be non-negative")


def _check_lines(params: ModelParams, unresolved, epsilon: float | None = None) -> None:
    """DomainError naming ``params`` (and ``epsilon``, if given) if ``unresolved``, a
    verdict of ``amplitudes._unresolved`` on line positions and the terms summed into
    them (the calculator keeps one per spin's photoemission lines), is an energy."""
    if unresolved is not None:
        inputs = repr(params) if epsilon is None else f"{params!r}, epsilon={epsilon!r}"
        raise DomainError(f"{inputs}: {unresolved:.6g} eV in a line position is beyond "
                          f"the {_GRID_STEP} eV resolution of the spectrum grids")


def _xps_arrays(params: ModelParams, sigma: Spin):
    """Positions, weights and J labels of one spin's lines (see ``xps_lines``), checked."""
    calc = calculator(params)
    _check_lines(params, calc.line_verdicts[sigma])
    return calc.line_positions[sigma], calc.line_weights[sigma], calc.eigensystems[sigma].j_labels


def xps_lines(params: ModelParams, sigma: Spin) -> LineSpectrum:
    """Photoemission line spectrum for one photoelectron spin.

    One line per intermediate eigenstate i, at Omega + eps_s + E'_g - E'_i
    with weight |<i| c^dag s a |g>|^2. Dipole-forbidden eigenstates are kept
    with (numerically) zero weight so the selection rules stay visible.
    """
    return LineSpectrum(tuple(SpectralLine(float(x), float(w), j, f"xps_{sigma.value}")
                              for x, w, j in zip(*_xps_arrays(params, sigma))))


def _lorentzians(positions, weights, width: float, grid: np.ndarray) -> np.ndarray:
    """The (lines x grid) Lorentzians weight * L(grid - position), ``positions``
    a column with one per line or one number that every line shares; a
    ValueError, before any math, unless the array ``grid`` is 1-D."""
    if grid.ndim != 1:
        raise ValueError("grid must be a 1-D sequence")
    with np.errstate(over="ignore"):   # a square beyond the float range gives the Lorentzian 0
        return weights[:, None] * (width / pi) / ((grid - positions) ** 2 + width ** 2)


def broaden(lines: LineSpectrum, width: float, grid: np.ndarray) -> SpectrumSeries:
    """Convolve a line spectrum with a unit-area Lorentzian of HWHM ``width``
    (a ValueError unless it passes ``amplitudes._check_width``); the series
    takes the first line's channel, or "" when there are no lines."""
    _check_width(width)
    grid = np.asarray(grid, dtype=float)
    summed = [line for line in lines.lines if line.weight != 0.0] or lines.lines   # bright, if any
    positions = np.array([line.position for line in summed], dtype=float)
    weights = np.array([line.weight for line in summed], dtype=float)
    intensity = _lorentzians(positions[:, None], weights, width, grid).sum(axis=0)   # line order
    return SpectrumSeries(grid, intensity, lines.lines[0].channel if lines.lines else "")


def default_xps_grid() -> np.ndarray:
    """Kinetic energies 5.0 .. 8.0 eV in 0.005 eV steps."""
    return _XPS_GRID.copy()


def default_emission_grid(center: float) -> np.ndarray:
    """Emitted-photon energies center +/- 3 eV in 0.005 eV steps."""
    return center + _EMISSION_OFFSETS


def xepecs_spectrum(params: ModelParams, geom: EmissionGeometry, epsilon: float,
                    channel: tuple[Spin, int], grid: np.ndarray | None = None
                    ) -> SpectrumSeries:
    """Emitted-photon spectrum of one (spin, polarization) coincidence channel.

    A single line at omega_0 = Omega + eps_p + E'_g - epsilon carrying weight
    |A(sigma, lambda; epsilon)|^2, broadened with the emitted-photon
    resolution ``gamma``: the row of the channel in one (4, n) block, the
    weights in CHANNELS order times one Lorentzian profile (the float order of
    ``broaden``). The calculator keeps the block of its last amplitude set
    with its grid, both read-only: the default grid around omega_0, or a copy
    of ``grid`` (1-D). A call for that amplitude set with no grid after a
    default build, or with the grid a call returned, reads the block; any
    other grid builds it again, so a caller's array is never kept or frozen.
    Each amplitude set is checked once, before its first build.
    """
    row, col = _channel_index(channel)   # of the (2, 2) amplitudes; 2 * row + col in CHANNELS
    calc = calculator(params)
    amps = calc.amplitudes(geom, epsilon)
    slot = calc._block_slot   # (amplitude set, built on the default grid, grid, block)
    if slot[0] is not amps or not (slot[1] if grid is None else grid is slot[2]):
        omega0 = calc.emission_line(epsilon)
        if slot[0] is not amps:   # the slot holds only a set that passed these
            _check_lines(params, _unresolved(
                [omega0, params.Omega, params.eps_p, calc.ground_coupling, epsilon]), epsilon)
            _check_lines(params, calc.line_verdicts[Spin.DOWN], epsilon)   # R sums its J = 1 lines
        # omega_0 and its terms passed the resolution check, each |A|^2 <= |R|^2 / 2 < inf,
        # and the calculator checked gamma
        weights = np.array([abs(a) ** 2 for a in amps.values.ravel().tolist()])   # CHANNELS order
        kept = _read_only(default_emission_grid(omega0) if grid is None
                          else np.array(grid, dtype=float))
        block = _read_only(_lorentzians(omega0, weights, params.gamma, kept))
        _check_spectrum(kept, block, ndim=2)   # the grid and every row, once
        slot = calc._block_slot = (amps, grid is None, kept, block)
    series = object.__new__(SpectrumSeries)   # a row of the checked block: no __post_init__
    series.__dict__.update(grid=slot[2], intensity=slot[3][2 * row + col],
                           channel=channel_label(channel))
    return series


def auto_epsilon(params: ModelParams) -> float:
    """Default photoelectron kinetic energy: the maximum of the broadened
    J = 1 photoemission peak (taken from the down-spin channel, whose J = 2
    line has weight exactly 0), on the default kinetic-energy grid."""
    positions, weights, _ = _xps_arrays(params, Spin.DOWN)
    bright = weights != 0.0   # the dark J = 2 line adds nothing to the sum
    rows = _lorentzians(positions[bright, None], weights[bright], params.Gamma_1s, _XPS_GRID)
    return float(_XPS_GRID[rows.sum(axis=0).argmax()])
