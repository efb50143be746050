"""Geometry of the emitted photon: frames, polarization axes, alpha coefficients."""

import math

import numpy as np
import pytest

from xepecs.polarization import EmissionGeometry

from reference import alpha_coeffs, basis_vectors, polarization_vector, spherical_components


def random_geometries(n, seed=0, betas=False):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        theta = rng.uniform(0.0, 180.0)
        phi = rng.uniform(0.0, 360.0)
        if betas:
            beta1 = rng.uniform(0.0, 360.0)
            beta2 = beta1 + rng.uniform(10.0, 170.0)
        else:
            beta1, beta2 = 90.0, 180.0
        out.append(EmissionGeometry.from_degrees(theta, phi, beta1, beta2))
    return out


class TestFrame:
    def test_reference_direction(self):
        e_theta, e_phi, k_hat = basis_vectors(EmissionGeometry.from_degrees(90.0, 0.0))
        assert np.allclose(e_theta, [0.0, 0.0, -1.0], atol=1e-15)
        assert np.allclose(e_phi, [0.0, 1.0, 0.0], atol=1e-15)
        assert np.allclose(k_hat, [1.0, 0.0, 0.0], atol=1e-15)

    def test_orthonormal_for_random_angles(self):
        for geom in random_geometries(50, seed=1):
            e_theta, e_phi, k_hat = basis_vectors(geom)
            gram = np.array([e_theta, e_phi, k_hat]) @ np.array([e_theta, e_phi, k_hat]).T
            assert np.allclose(gram, np.eye(3), atol=1e-12)


class TestPolarizationVector:
    def test_beta_special_cases(self):
        geom = EmissionGeometry.from_degrees(63.0, 21.0)
        e_theta, e_phi, _ = basis_vectors(geom)
        assert np.allclose(polarization_vector(geom, 1), e_phi, atol=1e-15)
        assert np.allclose(polarization_vector(geom, 2), -e_theta, atol=1e-15)

    def test_transversality(self):
        for geom in random_geometries(100, seed=2, betas=True):
            _, _, k_hat = basis_vectors(geom)
            for i in (1, 2):
                assert abs(polarization_vector(geom, i) @ k_hat) < 1e-12

    def test_bad_index(self):
        geom = EmissionGeometry.from_degrees(10.0)
        with pytest.raises(ValueError):
            polarization_vector(geom, 3)


class TestAlphaCoefficients:
    def test_alpha0_special_cases(self):
        c = alpha_coeffs(EmissionGeometry.from_degrees(90.0, 0.0))
        # beta2 = 180 deg, theta = 90 deg: alpha_0 = -cos(180) sin(90) = 1
        assert c.alpha0[1] == pytest.approx(1.0, abs=1e-15)
        # beta1 = 90 deg: alpha_0 = 0 regardless of theta
        for theta in (10.0, 45.0, 120.0):
            c = alpha_coeffs(EmissionGeometry.from_degrees(theta, 5.0))
            assert abs(c.alpha0[0]) < 1e-15

    def test_alpha_m1_at_phi_zero(self):
        # beta = 90 deg: alpha_-1 = i/sqrt(2) for every theta
        for theta in (5.0, 45.0, 90.0, 170.0):
            c = alpha_coeffs(EmissionGeometry.from_degrees(theta, 0.0))
            assert c.alpha_m1[0] == pytest.approx(1j / math.sqrt(2), abs=1e-14)

    def test_closed_form_equals_projection(self):
        # the cross-check built into alpha_coeffs must hold for random angles
        for geom in random_geometries(1000, seed=3, betas=True):
            c = alpha_coeffs(geom)
            for i in (1, 2):
                _, proj0, proj1 = spherical_components(polarization_vector(geom, i))
                assert abs(c.alpha0[i - 1] - proj0) < 1e-12
                assert abs(c.alpha_m1[i - 1] - proj1) < 1e-12

    def test_completeness_over_orthogonal_pair(self):
        for theta in np.linspace(0.0, 180.0, 61):
            c = alpha_coeffs(EmissionGeometry.from_degrees(theta, 33.0))
            st = math.sin(math.radians(theta))
            ct = math.cos(math.radians(theta))
            total0 = abs(c.alpha0[0]) ** 2 + abs(c.alpha0[1]) ** 2
            total1 = abs(c.alpha_m1[0]) ** 2 + abs(c.alpha_m1[1]) ** 2
            assert total0 == pytest.approx(st ** 2, abs=1e-12)
            assert total1 == pytest.approx((1 + ct ** 2) / 2, abs=1e-12)


class TestGeometryValidation:
    def test_theta_range(self):
        with pytest.raises(ValueError, match="theta"):
            EmissionGeometry.from_degrees(190.0)

    @pytest.mark.parametrize("name", ["theta", "phi", "beta1", "beta2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_named(self, name, value):
        angles = {"theta": 1.0, "phi": 0.0, "beta1": math.pi / 2, "beta2": math.pi, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EmissionGeometry(**angles)

    def test_degenerate_polarization_pair(self):
        with pytest.raises(ValueError, match="beta"):
            EmissionGeometry.from_degrees(90.0, 0.0, 30.0, 210.0)
