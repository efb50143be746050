"""Photoemission line spectra, Lorentzian broadening and coincidence spectra."""

import math

import numpy as np
import pytest

from xepecs import amplitudes, spectra
from xepecs.amplitudes import CHANNELS, calculator, channel_label, xepecs_amplitudes
from xepecs.angular import HalfInt
from xepecs.entanglement import entangled_state, entropy_sweep, full_density_matrix
from xepecs.fockspace import Spin
from xepecs.model import DomainError, ModelParams
from xepecs.polarization import EmissionGeometry
from xepecs.spectra import (
    LineSpectrum,
    SpectralLine,
    SpectrumSeries,
    auto_epsilon,
    broaden,
    default_emission_grid,
    default_xps_grid,
    xepecs_spectrum,
    xps_lines,
)

PARAMS = ModelParams()
NAN, INF = float("nan"), float("inf")
U1, U2 = (Spin.UP, 1), (Spin.UP, 2)
D1, D2 = (Spin.DOWN, 1), (Spin.DOWN, 2)


def bright(spectrum, threshold=1e-12):
    return [l for l in spectrum.lines if l.weight > threshold]


def j1_lines(spectrum):
    return [l for l in spectrum.lines if l.j == HalfInt.of(1)]


class TestXpsLines:
    def test_line_counts_by_selection_rules(self):
        up = xps_lines(PARAMS, Spin.UP)
        down = xps_lines(PARAMS, Spin.DOWN)
        assert len(up.lines) == 4 and len(down.lines) == 3
        assert sorted(float(l.j) for l in bright(up)) == [0.0, 1.0, 1.0]
        assert sorted(float(l.j) for l in bright(down)) == [1.0, 1.0]

    def test_j2_lines_are_dark(self):
        for spin in (Spin.UP, Spin.DOWN):
            for line in xps_lines(PARAMS, spin).lines:
                if line.j == HalfInt.of(2):
                    assert line.weight == 0.0

    def test_dark_j2_line_leaves_no_peak_under_a_narrow_core_hole(self):
        # the up-spin J = 2 level lies on the grid point 6.4 eV; its roundoff
        # weight (1.8e-33) over a width of 1e-160 once made a 5.8e126 peak there
        params = ModelParams(Gamma_1s=1e-160)
        for spin in Spin:
            series = broaden(xps_lines(params, spin), params.Gamma_1s, default_xps_grid())
            assert series.intensity.max() < 1e-100

    def test_j1_positions_degenerate_between_spins(self):
        up = sorted(l.position for l in j1_lines(xps_lines(PARAMS, Spin.UP)))
        down = sorted(l.position for l in j1_lines(xps_lines(PARAMS, Spin.DOWN)))
        assert np.allclose(up, down, atol=1e-10)

    def test_down_weights_twice_up_per_line(self):
        up = sorted(j1_lines(xps_lines(PARAMS, Spin.UP)), key=lambda l: l.position)
        down = sorted(j1_lines(xps_lines(PARAMS, Spin.DOWN)), key=lambda l: l.position)
        for u, d in zip(up, down):
            assert d.weight == pytest.approx(2.0 * u.weight, abs=1e-10)

    def test_total_weight_is_one(self):
        total = sum(l.weight for spin in Spin for l in xps_lines(PARAMS, spin).lines)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_positions_follow_energy_conservation(self):
        # kinetic energies sit within the incident energy minus binding scale
        for spin in (Spin.UP, Spin.DOWN):
            for line in xps_lines(PARAMS, spin).lines:
                assert 5.0 < line.position < 8.0


class TestBroaden:
    def test_single_line_peak_height(self):
        lines = LineSpectrum((SpectralLine(2.0, 1.0, None, "test"),))
        grid = np.linspace(0.0, 4.0, 401)
        series = broaden(lines, 0.25, grid)
        peak = int(np.argmax(series.intensity))
        assert grid[peak] == pytest.approx(2.0)
        assert series.intensity[peak] == pytest.approx(1.0 / (math.pi * 0.25), rel=1e-12)

    def test_unit_area(self):
        lines = LineSpectrum((SpectralLine(0.0, 0.7, None, "test"),))
        grid = np.linspace(-400.0, 400.0, 160001)
        series = broaden(lines, 0.5, grid)
        integral = np.trapezoid(series.intensity, grid)
        assert integral == pytest.approx(0.7, rel=1e-2)

    def test_linearity(self):
        a = LineSpectrum((SpectralLine(1.0, 0.4, None, "a"),))
        b = LineSpectrum((SpectralLine(2.5, 0.6, None, "b"),))
        both = LineSpectrum(a.lines + b.lines)
        grid = np.linspace(0.0, 4.0, 101)
        combined = broaden(both, 0.3, grid).intensity
        separate = broaden(a, 0.3, grid).intensity + broaden(b, 0.3, grid).intensity
        assert np.allclose(combined, separate, atol=1e-14)

    def test_width_must_be_positive(self):
        lines = LineSpectrum((SpectralLine(0.0, 1.0, None, "test"),))
        with pytest.raises(ValueError, match="width"):
            broaden(lines, 0.0, np.linspace(-1, 1, 11))

    @pytest.mark.parametrize("width, message", [
        (INF, "overflows its square"), (1e200, "overflows its square"),
        (1e-170, "underflows its square"), (5e-324, "underflows its square"),
        (NAN, "width must be > 0"), (-0.5, "width must be > 0"),
    ])
    def test_width_must_have_a_finite_nonzero_square(self, width, message):
        lines = LineSpectrum((SpectralLine(0.0, 1.0, None, "test"),))
        with pytest.raises(ValueError, match=message):
            broaden(lines, width, np.linspace(-1, 1, 11))

    def test_equals_the_per_line_sum_bit_for_bit(self):
        lines = xps_lines(ModelParams(G=0.7, zeta=0.3), Spin.UP)
        grid = default_xps_grid()
        expected = np.zeros_like(grid)
        for line in lines.lines:
            expected += line.weight * (0.45 / math.pi) / ((grid - line.position) ** 2 + 0.45 ** 2)
        assert broaden(lines, 0.45, grid).intensity.tobytes() == expected.tobytes()

    def test_equality_is_identity(self):
        # an ndarray field would make a generated == raise ValueError and hash TypeError
        lines = xps_lines(ModelParams(), Spin.UP)
        series, other = (broaden(lines, 0.45, default_xps_grid()) for _ in range(2))
        assert series == series and not series == other and series != other
        assert len({series, other, series}) == 2

    def test_no_lines_give_zero_intensity(self):
        series = broaden(LineSpectrum(()), 0.3, np.linspace(0.0, 1.0, 5))
        assert series.channel == "" and np.array_equal(series.intensity, np.zeros(5))


class TestSpectrumChecks:
    """NaN fails every check, as in the density-matrix checks."""

    def test_nan_grid_is_not_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            SpectrumSeries(np.array([0.0, NAN, 2.0]), np.array([1.0, 1.0, 1.0]), "x")
        with pytest.raises(ValueError, match="ascending"):
            SpectrumSeries(np.array([0.0, NAN, 2.0]), np.array([1.0, NAN, 1.0]), "x")

    def test_nan_intensity_is_not_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpectrumSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, NAN, 1.0]), "x")

    def test_nan_weight_is_rejected(self):
        with pytest.raises(DomainError, match="non-negative weights"):
            LineSpectrum((SpectralLine(1.0, NAN, None, "x"),))


class TestXepecsSpectrum:
    def test_overlap_at_90_degrees(self):
        geom = EmissionGeometry.from_degrees(90.0, 0.0)
        eps = auto_epsilon(PARAMS)
        u2 = xepecs_spectrum(PARAMS, geom, eps, U2)
        d1 = xepecs_spectrum(PARAMS, geom, eps, D1)
        assert np.max(np.abs(u2.intensity - d1.intensity)) < 1e-10

    def test_dark_channels_at_90_degrees(self):
        geom = EmissionGeometry.from_degrees(90.0, 0.0)
        eps = auto_epsilon(PARAMS)
        for channel in (U1, D2):
            series = xepecs_spectrum(PARAMS, geom, eps, channel)
            assert np.max(series.intensity) < 1e-25

    def test_peak_ratio_two_at_45_degrees(self):
        geom = EmissionGeometry.from_degrees(45.0, 0.0)
        eps = auto_epsilon(PARAMS)
        u2 = xepecs_spectrum(PARAMS, geom, eps, U2)
        d1 = xepecs_spectrum(PARAMS, geom, eps, D1)
        ratio = np.max(d1.intensity) / np.max(u2.intensity)
        assert ratio == pytest.approx(2.0, abs=1e-10)

    def test_line_sits_at_energy_conservation(self):
        eps = 6.3
        geom = EmissionGeometry.from_degrees(70.0, 0.0)
        series = xepecs_spectrum(PARAMS, geom, eps, D1)
        omega0 = PARAMS.Omega + (2 * PARAMS.eps_s + PARAMS.eps_p - PARAMS.zeta) \
            - eps - 2 * PARAMS.eps_s
        peak = series.grid[int(np.argmax(series.intensity))]
        assert peak == pytest.approx(omega0, abs=0.005)

    def test_phi_independence(self):
        eps = 6.1
        for channel in (U2, D1, D2):
            base = xepecs_spectrum(PARAMS, EmissionGeometry.from_degrees(55.0, 0.0),
                                   eps, channel)
            other = xepecs_spectrum(PARAMS, EmissionGeometry.from_degrees(55.0, 123.0),
                                    eps, channel)
            assert np.max(np.abs(base.intensity - other.intensity)) < 1e-12

    @pytest.mark.parametrize("params", [ModelParams(eps_s=1e20), ModelParams(eps_s=-1e14),
                                        ModelParams(zeta=1e20), ModelParams(G=-1e20)])
    def test_unresolved_down_spin_lines_leave_no_coincidence_spectrum(self, params):
        # one check of the lines for both spectra: R(epsilon) sums the down-spin J = 1 lines
        with pytest.raises(DomainError, match="resolution of the spectrum grids"):
            xps_lines(params, Spin.DOWN)
        with pytest.raises(DomainError, match=r"epsilon=6\.5: .* resolution of the spectrum"):
            xepecs_spectrum(params, EmissionGeometry.from_degrees(45.0, 0.0), 6.5, D1)

    def test_intensity_scales_quadratically_with_amplitudes(self):
        # doubling the line weight (the squared amplitude) doubles the series
        grid = np.linspace(-1, 1, 21)
        one = broaden(LineSpectrum((SpectralLine(0.0, 0.3, None, "x"),)), 0.4, grid)
        two = broaden(LineSpectrum((SpectralLine(0.0, 0.6, None, "x"),)), 0.4, grid)
        assert np.allclose(two.intensity, 2.0 * one.intensity, atol=1e-14)


class TestDefaults:
    def test_grids(self):
        g = default_xps_grid()
        assert g[0] == 5.0 and g[-1] == 8.0 and len(g) == 601
        assert np.allclose(np.diff(g), 0.005)
        e = default_emission_grid(8.0)
        assert e[0] == pytest.approx(5.0) and e[-1] == pytest.approx(11.0)
        assert len(e) == 1201

    @pytest.mark.parametrize("params", [
        PARAMS, ModelParams(G=0.0, zeta=0.31), ModelParams(G=0.83, zeta=0.0),
        ModelParams(G=0.4, zeta=0.45, Gamma_1s=0.21), ModelParams(Omega=15.0),
        ModelParams(Omega=30.0, G=0.6),
    ])
    def test_auto_epsilon_equals_the_line_spectrum_route(self, params):
        grid = default_xps_grid()
        lines = LineSpectrum(tuple(j1_lines(xps_lines(params, Spin.DOWN))))
        series = broaden(lines, params.Gamma_1s, grid)
        assert auto_epsilon(params) == float(grid[int(np.argmax(series.intensity))])

    def test_default_grids_do_not_share_memory(self):
        for make in (default_xps_grid, lambda: default_emission_grid(8.0)):
            make()[:] = 0.0
            assert make()[0] == 5.0
        assert auto_epsilon(PARAMS) == 6.48   # read from the kept grid, not the zeroed copies

    def test_auto_epsilon_near_strong_j1_line(self):
        eps = auto_epsilon(PARAMS)
        strongest = max(xps_lines(PARAMS, Spin.DOWN).lines, key=lambda l: l.weight)
        assert abs(eps - strongest.position) < PARAMS.Gamma_1s


def one_line_route(params, geom, epsilon, channel, grid):
    """The public route of one coincidence channel: one line, broadened."""
    calc = calculator(params)
    label = channel_label(channel)
    weight = abs(calc.amplitudes(geom, epsilon)[channel]) ** 2
    line = SpectralLine(calc.emission_line(epsilon), weight, None, label)
    return broaden(LineSpectrum((line,)), params.gamma, grid, channel=label)


BLOCK_HARD_CASES = [
    (ModelParams(), EmissionGeometry.from_degrees(90.0), 6.48),
    (ModelParams(G=0.0, zeta=0.0), EmissionGeometry.from_degrees(0.0, 33.0), 6.5),
    (ModelParams(G=0.0, zeta=1e-8), EmissionGeometry.from_degrees(180.0, 0.0, 10.0, 100.0), 6.1),
    (ModelParams(G=1.0, zeta=0.0, gamma=1e-150), EmissionGeometry.from_degrees(45.0), 6.5),
    (ModelParams(Gamma_1s=1e-16, gamma=30.0), EmissionGeometry.from_degrees(45.0), 6.4),
    # a pair that is not orthogonal still has spectra
    (ModelParams(), EmissionGeometry.from_degrees(90.0, 0.0, 90.0, 120.0), 6.5),
]


def block_draws(n=30):
    rng = np.random.default_rng(71)
    for i in range(n):
        params = ModelParams(G=0.0 if i % 3 == 0 else rng.uniform(0.0, 1.0),
                             zeta=0.0 if i % 3 == 1 else rng.uniform(0.0, 0.5),
                             eps_p=rng.uniform(-7.0, -3.0), Gamma_1s=rng.uniform(0.2, 0.8),
                             gamma=rng.uniform(0.2, 0.6))
        beta1 = rng.uniform(0.0, 180.0)
        geom = EmissionGeometry.from_degrees(rng.uniform(0.0, 180.0), rng.uniform(0.0, 360.0),
                                             beta1, beta1 + rng.uniform(10.0, 170.0))
        yield params, geom, rng.uniform(5.0, 8.0)


class TestCoincidenceBlock:
    """The four channels of one amplitude set share one kept grid and (4, n) block."""

    @pytest.mark.parametrize("params, geom, epsilon", BLOCK_HARD_CASES + list(block_draws()))
    def test_every_channel_is_the_one_line_route_bit_for_bit(self, params, geom, epsilon):
        omega0 = calculator(params).emission_line(epsilon)
        caller = np.linspace(omega0 - 1.0, omega0 + 2.0, 301)
        for grid_of in (lambda returned: None, lambda returned: returned,
                        lambda returned: caller.copy()):
            returned = None
            for channel in CHANNELS:
                grid = grid_of(returned)
                series = xepecs_spectrum(params, geom, epsilon, channel, grid)
                expected = one_line_route(params, geom, epsilon, channel,
                                          default_emission_grid(omega0) if grid is None else grid)
                assert series.channel == expected.channel == channel_label(channel)
                assert series.grid.tobytes() == expected.grid.tobytes()
                assert series.intensity.tobytes() == expected.intensity.tobytes()
                returned = series.grid

    def test_four_channels_build_the_block_once(self, monkeypatch):
        builds = []
        monkeypatch.setattr(spectra, "_check_width", builds.append)   # runs once per build
        geom = EmissionGeometry.from_degrees(45.0, 10.0)
        for grid_of in (lambda series: None, lambda series: series.grid):
            calculator.cache_clear()
            builds.clear()
            first = xepecs_spectrum(PARAMS, geom, 6.5, CHANNELS[0])
            rows = [xepecs_spectrum(PARAMS, geom, 6.5, ch, grid_of(first)) for ch in CHANNELS]
            assert builds == [PARAMS.gamma]
            assert all(row.grid is first.grid for row in rows)
            assert all(row.intensity.base is first.intensity.base for row in rows)
            assert first.intensity.base.shape == (4, 1201)

    def test_returned_grid_and_intensity_are_read_only(self):
        caller = np.linspace(5.0, 11.0, 601)
        for grid in (None, caller):
            series = xepecs_spectrum(PARAMS, EmissionGeometry.from_degrees(45.0), 6.5, D1, grid)
            for array in (series.grid, series.intensity):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
        assert caller.flags.writeable and series.grid is not caller

    def test_a_caller_grid_mutated_in_place_gives_the_new_profile(self):
        geom = EmissionGeometry.from_degrees(45.0)
        grid = np.linspace(5.0, 11.0, 601)
        before = xepecs_spectrum(PARAMS, geom, 6.5, D1, grid)
        grid += 0.25
        after = xepecs_spectrum(PARAMS, geom, 6.5, D1, grid)
        assert grid.flags.writeable
        assert np.array_equal(after.grid, grid) and not np.array_equal(before.grid, grid)
        expected = one_line_route(PARAMS, geom, 6.5, D1, grid)
        assert after.intensity.tobytes() == expected.intensity.tobytes()
        # a caller grid that equals the kept one is still a new array, and rebuilt
        again = xepecs_spectrum(PARAMS, geom, 6.5, D1, grid.copy())
        assert again.grid is not after.grid and np.array_equal(again.grid, after.grid)

    def test_a_default_build_is_not_read_for_a_caller_grid_and_back(self):
        geom = EmissionGeometry.from_degrees(45.0)
        default = xepecs_spectrum(PARAMS, geom, 6.5, U2)
        caller = np.linspace(6.0, 7.0, 11)
        assert np.array_equal(xepecs_spectrum(PARAMS, geom, 6.5, U2, caller).grid, caller)
        assert np.array_equal(xepecs_spectrum(PARAMS, geom, 6.5, U2).grid, default.grid)

    @pytest.mark.parametrize("change", ["geometry", "epsilon", "cache_clear"])
    def test_another_measurement_or_calculator_is_a_miss(self, monkeypatch, change):
        builds = []
        monkeypatch.setattr(spectra, "_check_width", builds.append)
        geom, epsilon = EmissionGeometry.from_degrees(45.0), 6.5
        first = xepecs_spectrum(PARAMS, geom, epsilon, D1)
        if change == "geometry":
            geom = EmissionGeometry.from_degrees(46.0)
        elif change == "epsilon":
            epsilon = 6.6
        else:
            calculator.cache_clear()
        builds.clear()
        second = xepecs_spectrum(PARAMS, geom, epsilon, D1, first.grid)
        assert builds == [PARAMS.gamma]
        expected = one_line_route(PARAMS, geom, epsilon, D1, first.grid)
        assert second.intensity.tobytes() == expected.intensity.tobytes()

    def test_an_unknown_channel_is_a_key_error(self):
        with pytest.raises(KeyError):
            xepecs_spectrum(PARAMS, EmissionGeometry.from_degrees(45.0), 6.5, (Spin.UP, 3))


NOT_1D = {"4x4": np.arange(16.0).reshape(4, 4), "2x3": np.arange(6.0).reshape(2, 3),
          "0-d": np.array(6.5)}


class TestGridShape:
    """A grid that is not 1-D is a ValueError before any math: a 4 x 4 grid once gave
    a series of meaningless intensities, a 2 x 3 grid numpy's broadcast error and a
    0-d grid a TypeError, so each message is matched whole."""

    @pytest.mark.parametrize("grid", NOT_1D.values(), ids=NOT_1D.keys())
    def test_series(self, grid):
        with pytest.raises(ValueError, match="^grid must be a 1-D sequence$"):
            SpectrumSeries(grid, np.zeros_like(grid), "x")

    @pytest.mark.parametrize("grid", [*NOT_1D.values(), [[5.0, 6.0], [7.0, 8.0]]],
                             ids=[*NOT_1D.keys(), "nested list"])
    def test_broaden_and_the_coincidence_spectrum(self, grid):
        calculator.cache_clear()
        with pytest.raises(ValueError, match="^grid must be a 1-D sequence$"):
            broaden(xps_lines(PARAMS, Spin.UP), 0.5, grid)
        geom = EmissionGeometry.from_degrees(45.0)
        for _ in range(2):   # a rejected grid leaves nothing in the block slot
            with pytest.raises(ValueError, match="^grid must be a 1-D sequence$"):
                xepecs_spectrum(PARAMS, geom, 6.5, D1, grid)
        assert calculator(PARAMS)._block_slot[0] is None


class TestChecksRunOnce:
    """The calculator takes one line verdict per spin when it is built, and the
    coincidence spectrum checks the epsilon terms once per amplitude set; each
    verdict is raised on every read, never at build time."""

    def test_the_param_scan_sequence(self, monkeypatch):
        verdicts, series_checks = [], []
        rule, post_init = amplitudes._unresolved, SpectrumSeries.__post_init__

        def counted(energies):
            verdicts.append(list(energies))
            return rule(energies)

        def counted_post_init(series):
            series_checks.append(series.channel)
            post_init(series)

        for module in (amplitudes, spectra):
            monkeypatch.setattr(module, "_unresolved", counted)
        monkeypatch.setattr(SpectrumSeries, "__post_init__", counted_post_init)
        calculator.cache_clear()
        params, grid = ModelParams(G=0.4, zeta=0.2, Gamma_1s=0.3), default_xps_grid()
        for spin in (Spin.UP, Spin.DOWN):
            broaden(xps_lines(params, spin), params.Gamma_1s, grid)
        epsilon = auto_epsilon(params)
        calc = calculator(params)
        assert verdicts == [[*calc.line_positions[spin].tolist(), params.Omega, params.eps_s,
                             calc.ground_coupling, *calc.eigensystems[spin].coupling_energies]
                            for spin in (Spin.UP, Spin.DOWN)]
        for theta in (63.0, 64.0):   # two amplitude sets
            geom = EmissionGeometry.from_degrees(theta, 10.0)
            full_density_matrix(entangled_state(xepecs_amplitudes(params, geom, epsilon)))
            emission_grid = None
            for channel in CHANNELS:
                emission_grid = xepecs_spectrum(params, geom, epsilon, channel,
                                                emission_grid).grid
            entropy_sweep(params, geom, [0.0, 45.0, 90.0], epsilon)
            # another grid builds the block again, for an amplitude set already checked
            xepecs_spectrum(params, geom, epsilon, D1, emission_grid.copy())
        eps_terms = [calc.emission_line(epsilon), params.Omega, params.eps_p,
                     calc.ground_coupling, epsilon]
        assert verdicts[2:] == [eps_terms, eps_terms]
        # one check of each block build (two sets, each on two grids), none of the rows
        assert series_checks == ["xps_up", "xps_down"] + [""] * 4

    def test_a_verdict_is_raised_on_every_read_never_at_build(self):
        calculator.cache_clear()
        params = ModelParams(eps_s=1e20)
        calc = calculator(params)
        assert all(calc.line_verdicts[spin] is not None for spin in Spin)
        for spin in Spin:
            errors = []
            for _ in range(2):
                with pytest.raises(DomainError) as info:
                    xps_lines(params, spin)
                errors.append(info.value)
            assert type(errors[0]) is type(errors[1]) and str(errors[0]) == str(errors[1])
            assert str(errors[0]).startswith(f"{params!r}: ")
            assert "resolution of the spectrum grids" in str(errors[0])
        geom = EmissionGeometry.from_degrees(45.0)
        for epsilon in (6.5, 6.6, 6.5):
            with pytest.raises(DomainError, match=rf"epsilon={epsilon}: .* resolution of the"):
                xepecs_spectrum(params, geom, epsilon, D1)
        assert calc._block_slot[0] is None
        # a state at a fixed epsilon does not read the lines
        state = entangled_state(xepecs_amplitudes(params, geom, 6.5))
        assert full_density_matrix(state).matrix.any()
