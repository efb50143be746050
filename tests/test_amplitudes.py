"""Photoemission elements, dipole blocks and the coincidence amplitudes."""

import math

import numpy as np
import pytest

from xepecs.angular import HalfInt
from xepecs.fockspace import Spin
from xepecs.model import ModelParams, initial_state, intermediate_eigensystem
from xepecs.amplitudes import CHANNELS, AmplitudeCalculator, channel_label, xepecs_amplitudes
from xepecs.polarization import EmissionGeometry

from reference import (
    DipoleBlock,
    alpha_coeffs,
    dipole_block,
    per_eigenstate_terms,
    photoemission_elements,
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
                    assert abs(el) < 1e-12

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
        eig_up = intermediate_eigensystem(PARAMS, Spin.UP)
        with pytest.raises(ValueError, match="match"):
            photoemission_elements(g, eig_up, Spin.DOWN)


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
        from reference import _apply_mph, spherical_components
        from xepecs.amplitudes import _final_state
        from xepecs.fockspace import basis_vector, create_photoelectron, inner
        from xepecs.model import intermediate_subspace
        from xepecs.polarization import polarization_vector

        geom = EmissionGeometry.from_degrees(77.0, 31.0)
        alphas = {i: spherical_components(polarization_vector(geom, i)) for i in (1, 2)}
        for bra_spin, ket_spin in ((Spin.UP, Spin.DOWN), (Spin.DOWN, Spin.UP)):
            for b in intermediate_subspace(ket_spin).basis:
                image = _apply_mph(create_photoelectron(basis_vector(b), ket_spin), alphas)
                for lam in (1, 2):
                    assert inner(_final_state(bra_spin, lam), image) == 0.0

    def test_block_shapes(self):
        geom = EmissionGeometry.from_degrees(70.0)
        blocks = DipoleBlock.from_geometry(geom)
        assert blocks.up_block.shape == (2, 4)
        assert blocks.down_block.shape == (2, 3)
        up = dipole_block(geom, intermediate_eigensystem(PARAMS, Spin.UP).subspace)
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
