"""Photoemission elements, dipole blocks and the coincidence amplitudes."""

import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from xepecs import amplitudes
from xepecs.angular import HalfInt
from xepecs.entanglement import entropy_sweep
from xepecs.fockspace import Spin
from xepecs.model import ModelParams, SubspaceLabel
from xepecs.amplitudes import (
    CHANNELS,
    AmplitudeCalculator,
    AmplitudeSet,
    _decay_vector,
    _photoemission_vector,
    calculator,
    channel_label,
    xepecs_amplitudes,
)
from xepecs.polarization import EmissionGeometry, alpha_components
from xepecs.spectra import xepecs_spectrum

from reference import (
    DipoleBlock,
    emission_basis,
    alpha_coeffs,
    dipole_block,
    ground_state,
    initial_state,
    intermediate_subspace,
    label_basis,
    per_eigenstate_terms,
    photoemission_components,
    photoemission_elements,
    rounded_root,
    subspace,
)

PARAMS = ModelParams()


@pytest.fixture(scope="module")
def calc():
    return AmplitudeCalculator(PARAMS)


class TestPhotoemissionElements:
    def test_completeness_over_both_channels(self, calc):
        total = sum(float(np.sum(np.abs(calc.pe_elements[s]) ** 2))
                    for s in (Spin.UP, Spin.DOWN))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_j2_states_are_dark(self, calc):
        for spin in (Spin.UP, Spin.DOWN):
            eig = calc.eigensystems[spin]
            for el, j in zip(calc.pe_elements[spin], eig.j_labels):
                if j == HalfInt.of(2):
                    assert el == 0.0

    def test_j0_state_appears_only_in_up_channel(self, calc):
        up = calc.eigensystems[Spin.UP]
        assert HalfInt.of(0) in up.j_labels
        j0 = up.j_labels.index(HalfInt.of(0))
        assert abs(calc.pe_elements[Spin.UP][j0]) ** 2 == pytest.approx(0.25, abs=1e-12)
        assert HalfInt.of(0) not in calc.eigensystems[Spin.DOWN].j_labels

    def test_down_j1_strength_twice_up(self, calc):
        def j1_strength(spin):
            eig = calc.eigensystems[spin]
            return sum(abs(el) ** 2 for el, j in zip(calc.pe_elements[spin], eig.j_labels)
                       if j == HalfInt.of(1))

        assert j1_strength(Spin.DOWN) == pytest.approx(2.0 * j1_strength(Spin.UP),
                                                       abs=1e-12)

    def test_spin_subspace_mismatch_rejected(self):
        g, _ = initial_state(PARAMS)
        eig_up = AmplitudeCalculator(PARAMS).eigensystems[Spin.UP]
        with pytest.raises(ValueError, match="match"):
            photoemission_elements(g, eig_up, Spin.DOWN)


class TestFullRegisterRoute:
    """The once-per-process vectors in the coupled basis, from a Clebsch-Gordan
    coefficient and a 6j symbol each, against the route that carries the
    photoelectron and photon registers, to 1e-15; and against their closed
    forms, each its exact value rounded once."""

    def test_decay_vector(self):
        # the q = -1 row of the down-spin (M = 1) emission basis; only 1P1 decays
        row = emission_basis(SubspaceLabel.M1)[2] @ label_basis(SubspaceLabel.M1)
        assert np.max(np.abs(_decay_vector() - row)) <= 1e-15
        assert list(_decay_vector()) == [rounded_root(-1, Fraction(2, 3)), 0.0, 0.0]

    @pytest.mark.parametrize("sigma", list(Spin))
    def test_photoemission_vector(self, sigma):
        sub = intermediate_subspace(sigma)
        components = photoemission_components(ground_state(), sigma, sub)
        expected = label_basis(sub.label).T @ components
        assert np.max(np.abs(_photoemission_vector(sigma) - expected)) <= 1e-15
        # up: 3P0, 1P1, 3P1, 3P2 and down: 1P1, 3P1, 3P2, each its exact value
        # rounded once; 3P2 is dark exactly, and each spin removes strength 1/2
        closed_form = {Spin.UP: [(1, Fraction(1, 4)), (1, Fraction(1, 12)), (1, Fraction(1, 6)),
                                 (0, Fraction(0))],
                       Spin.DOWN: [(-1, Fraction(1, 6)), (-1, Fraction(1, 3)), (0, Fraction(0))]}
        assert list(_photoemission_vector(sigma)) == [rounded_root(*x) for x in closed_form[sigma]]
        assert sum(square for _, square in closed_form[sigma]) == Fraction(1, 2)


class TestDipoleBlock:
    def test_block_pattern(self):
        # up rows proportional to (1, 0, 0, -1) by sqrt(1/3) alpha_0, down rows
        # proportional to (-1, 0, 1) by sqrt(1/3) alpha_-1
        for theta, phi in ((37.0, 12.0), (90.0, 0.0), (120.0, 250.0)):
            geom = EmissionGeometry.from_degrees(theta, phi)
            blocks = DipoleBlock.from_geometry(geom)
            coeffs = alpha_coeffs(geom)
            root3 = math.sqrt(1.0 / 3.0)
            for i in (1, 2):
                expected_up = root3 * coeffs.alpha0[i - 1] * np.array([1, 0, 0, -1])
                expected_down = root3 * coeffs.alpha_m1[i - 1] * np.array([-1, 0, 1])
                assert np.allclose(blocks.up_block[i - 1], expected_up, atol=1e-14)
                assert np.allclose(blocks.down_block[i - 1], expected_down, atol=1e-14)

    def test_zero_columns_for_any_geometry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            geom = EmissionGeometry.from_degrees(rng.uniform(0, 180), rng.uniform(0, 360))
            blocks = DipoleBlock.from_geometry(geom)
            assert np.max(np.abs(blocks.up_block[:, 1:3])) < 1e-15
            assert np.max(np.abs(blocks.down_block[:, 1])) < 1e-15

    def test_first_polarization_dark_at_90(self):
        blocks = DipoleBlock.from_geometry(EmissionGeometry.from_degrees(90.0))
        assert np.max(np.abs(blocks.up_block[0])) < 1e-15    # lambda1, beta1 = 90 deg
        assert np.max(np.abs(blocks.down_block[1])) < 1e-15  # lambda2, beta2 = 180 deg

    def test_cross_spin_blocks_vanish(self):
        # a final state with an up photoelectron has no matrix element with
        # the M = 1 basis (down photoelectron) and vice versa
        from reference import (
            PE_MODE, _apply_mph, basis_vector, fermion, final_state, inner, lift,
            polarization_vector, spherical_components,
        )

        geom = EmissionGeometry.from_degrees(77.0, 31.0)
        alphas = {i: spherical_components(polarization_vector(geom, i)) for i in (1, 2)}
        for bra_spin, ket_spin in ((Spin.UP, Spin.DOWN), (Spin.DOWN, Spin.UP)):
            for b in intermediate_subspace(ket_spin).basis:
                ket = fermion(lift(basis_vector(b)), PE_MODE[ket_spin], True)
                image = _apply_mph(ket, alphas)
                for lam in (1, 2):
                    assert inner(final_state(bra_spin, lam), image) == 0.0

    def test_block_shapes(self):
        geom = EmissionGeometry.from_degrees(70.0)
        blocks = DipoleBlock.from_geometry(geom)
        assert blocks.up_block.shape == (2, 4)
        assert blocks.down_block.shape == (2, 3)
        up = dipole_block(geom, subspace(AmplitudeCalculator(PARAMS).eigensystems[Spin.UP].label))
        assert np.array_equal(up, blocks.up_block)


class TestAmplitudes:
    def test_wigner_eckart_reduction(self, calc):
        # A(up, l) : A(down, l') = (1/3) alpha_0^l : (sqrt(2)/3) alpha_-1^l'
        # up to one global factor, for random geometry and kinetic energy
        rng = np.random.default_rng(17)
        for _ in range(100):
            geom = EmissionGeometry.from_degrees(rng.uniform(1.0, 179.0),
                                                 rng.uniform(0.0, 360.0))
            eps = rng.uniform(4.0, 9.0)
            amps = calc.amplitudes(geom, eps)
            coeffs = alpha_coeffs(geom)
            predicted = {
                (Spin.UP, 1): coeffs.alpha0[0] / 3.0,
                (Spin.UP, 2): coeffs.alpha0[1] / 3.0,
                (Spin.DOWN, 1): math.sqrt(2.0) / 3.0 * coeffs.alpha_m1[0],
                (Spin.DOWN, 2): math.sqrt(2.0) / 3.0 * coeffs.alpha_m1[1],
            }
            reference = max(CHANNELS, key=lambda c: abs(predicted[c]))
            factor = amps[reference] / predicted[reference]
            for c in CHANNELS:
                assert abs(amps[c] - factor * predicted[c]) < 1e-10 * abs(factor)

    def test_up2_down1_equal_magnitude_at_90(self, calc):
        amps = calc.amplitudes(EmissionGeometry.from_degrees(90.0, 0.0), 6.2)
        assert abs(amps[(Spin.UP, 2)]) == pytest.approx(abs(amps[(Spin.DOWN, 1)]),
                                                        abs=1e-14)

    def test_up_channels_vanish_along_the_axis(self, calc):
        amps = calc.amplitudes(EmissionGeometry.from_degrees(0.0, 0.0), 6.2)
        assert abs(amps[(Spin.UP, 1)]) < 1e-15
        assert abs(amps[(Spin.UP, 2)]) < 1e-15

    def test_j0_terms_vanish_per_eigenstate(self, calc):
        geom = EmissionGeometry.from_degrees(47.0, 110.0)
        terms = per_eigenstate_terms(calc, geom, 6.0, Spin.UP)
        eig = calc.eigensystems[Spin.UP]
        for i, j in enumerate(eig.j_labels):
            if j in (HalfInt.of(0), HalfInt.of(2)):
                assert np.max(np.abs(terms[:, i])) < 1e-14

    def test_continuous_in_epsilon(self, calc):
        geom = EmissionGeometry.from_degrees(75.0)
        grid = np.linspace(-50.0, 50.0, 401)
        values = np.array([calc.amplitudes(geom, e)[(Spin.DOWN, 1)] for e in grid])
        assert np.all(np.isfinite(values))
        # resonances are bounded by the half width
        assert np.max(np.abs(values)) < 10.0 / PARAMS.Gamma_1s

    def test_convenience_wrapper(self):
        geom = EmissionGeometry.from_degrees(90.0)
        a = xepecs_amplitudes(PARAMS, geom, 6.2)
        b = AmplitudeCalculator(PARAMS).amplitudes(geom, 6.2)
        assert np.allclose(a.vector(), b.vector(), atol=1e-15)
        assert a.epsilon == 6.2

    def test_channel_labels(self):
        assert [channel_label(c) for c in CHANNELS] == ["U1", "U2", "D1", "D2"]


NAN, INF = float("nan"), float("inf")


class TestInputValidation:
    @pytest.mark.parametrize("call", [
        lambda: xepecs_amplitudes(PARAMS, EmissionGeometry(math.pi / 2), NAN),
        lambda: calculator(PARAMS).amplitudes(EmissionGeometry(1.0), -INF),
        lambda: calculator(PARAMS).reduced_amplitude(INF),
    ])
    def test_non_finite_epsilon(self, call):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            call()

    @pytest.mark.parametrize("theta", [7.0, NAN, -1e-12, math.pi + 1e-12, INF, -INF])
    def test_polar_angle_outside_zero_to_pi(self, theta):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            alpha_components(theta, 0.3, 1.0, 2.0)
        outside = EmissionGeometry(1.0)
        object.__setattr__(outside, "theta", theta)   # past the geometry's own check
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):   # before epsilon
            calculator(PARAMS).amplitudes(outside, NAN)

    @pytest.mark.parametrize("shape", [(4,), (4, 4), (1, 2), (2, 2, 1)])
    def test_values_that_are_not_2_by_2_are_named(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape (2, 2), got {shape}")):
            AmplitudeSet(6.5, np.full(shape, 0.5, dtype=complex), EmissionGeometry(1.0))

    def test_values_that_are_no_array_are_a_type_error(self):
        with pytest.raises(TypeError, match="values must be a numpy array, got list"):
            AmplitudeSet(6.5, [[1, 2], [3, 4]], EmissionGeometry(1.0))


def bits(z: complex) -> bytes:
    return struct.pack("2d", z.real, z.imag)


class TestKeptResults:
    """A calculator keeps its last amplitude set; R is summed again on each miss."""

    def test_one_measurement_takes_one_sum_and_one_polarization_row(self, monkeypatch):
        counts = {"alpha_components": 0, "reduced_amplitude": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args):
                counts[name] += 1
                return original(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counted(amplitudes, "alpha_components")
        counted(AmplitudeCalculator, "reduced_amplitude")
        calculator.cache_clear()
        params = ModelParams(G=0.3125, zeta=0.1875)
        geom = EmissionGeometry.from_degrees(40.0, 25.0, 10.0, 100.0)
        for channel in CHANNELS:
            xepecs_spectrum(params, geom, 6.4, channel)
        xepecs_amplitudes(params, geom, 6.4)
        assert counts == {"alpha_components": 1, "reduced_amplitude": 1}
        # a sweep sums R once and forms no amplitude set
        entropy_sweep(params, geom, [0.0, 45.0, 90.0], 6.4)
        assert counts == {"alpha_components": 1, "reduced_amplitude": 2}
        xepecs_amplitudes(params, geom, 6.5)
        assert counts == {"alpha_components": 2, "reduced_amplitude": 3}

    def test_interleaved_hits_equal_a_fresh_calculator_bit_for_bit(self):
        calc = AmplitudeCalculator(PARAMS)
        plus, minus = EmissionGeometry(0.0, 0.3), EmissionGeometry(-0.0, 0.3)
        oblique = EmissionGeometry.from_degrees(70.0, 10.0)
        sequence = [(plus, 6.4), (plus, 6.4), (minus, 6.4), (plus, 6.4), (oblique, 6.4),
                    (oblique, 6.6), (oblique, 6.4), (minus, 6.6), (minus, 6.6), (plus, 6.6),
                    (oblique, 0.0), (oblique, -0.0), (oblique, 0.0), (plus, 6.4)]
        for geom, epsilon in sequence:
            fresh = AmplitudeCalculator(PARAMS)
            assert (calc.amplitudes(geom, epsilon).values.tobytes()
                    == fresh.amplitudes(geom, epsilon).values.tobytes())
            assert bits(calc.reduced_amplitude(epsilon)) == bits(fresh.reduced_amplitude(epsilon))
            assert calc.amplitudes(geom, epsilon) is calc.amplitudes(geom, epsilon)

    def test_zeros_of_either_sign_have_their_own_keys(self):
        calc = AmplitudeCalculator(PARAMS)
        plus = calc.amplitudes(EmissionGeometry(0.0), 6.4)
        assert calc.amplitudes(EmissionGeometry(-0.0), 6.4) is not plus

    def test_kept_arrays_are_read_only(self):
        calc = AmplitudeCalculator(PARAMS)
        values = calc.amplitudes(EmissionGeometry(1.0), 6.5).values
        with pytest.raises(ValueError):
            values[0, 0] = 0.0

    def test_bad_inputs_raise_after_a_kept_result(self):
        calc = AmplitudeCalculator(PARAMS)
        geom = EmissionGeometry(1.0)
        calc.amplitudes(geom, 6.5)
        for epsilon in (NAN, INF):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                calc.amplitudes(geom, epsilon)
            with pytest.raises(ValueError, match="epsilon must be finite"):
                calc.reduced_amplitude(epsilon)
        outside = EmissionGeometry(1.0)
        object.__setattr__(outside, "theta", NAN)   # past the geometry's own check
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            calc.amplitudes(outside, 6.5)
