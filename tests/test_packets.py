"""Gaussian packet amplitudes and free-space spreading."""
import cmath
import math

import numpy as np
import pytest

from whichway import (
    Geometry,
    ValidationError,
    effective_tau,
    evolved_amplitude,
    spread_sigma,
)

EPS = 1e-5
TAU = 7.957747154594767e-08  # 5e-7 * 1 / 2pi, hand-checked


class TestGeometry:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            Geometry(5e-7, -1e-4, 1.0, 1e-5)
        with pytest.raises(ValidationError):
            Geometry(0.0, 1e-4, 1.0, 1e-5)

    def test_warns_on_overlapping_packets(self):
        # the warning names the code that built the Geometry, not its __init__
        with pytest.warns(UserWarning) as record:
            Geometry(5e-7, 3e-5, 1.0, 1e-5)
        assert [w.filename for w in record] == [__file__]


class TestGridRule:
    """The grid rule holds NumPy's limits without importing NumPy."""

    def test_limits_are_numpys(self):
        from whichway import packets

        assert packets.MAX_FLOATS == np.iinfo(np.intp).max // 8
        assert packets.SMALLEST_NORMAL == np.finfo(float).smallest_normal
        assert packets.grid_points(0.0, packets.SMALLEST_NORMAL, 2) == 2
        with pytest.raises(ValidationError, match="not a normal float"):
            packets.grid_points(0.0, packets.SMALLEST_NORMAL / 2, 2)

    def test_bounds_and_count(self):
        from whichway.packets import MAX_FLOATS, grid_points

        assert grid_points(-1.0, 1.0, 64.0) == 64
        for bounds in ((1.0, -1.0), (0.0, 0.0), (math.nan, 1.0), (0.0, math.inf)):
            with pytest.raises(ValidationError):
                grid_points(*bounds, 64)
        for n in (1, 2.5, MAX_FLOATS + 1):
            with pytest.raises(ValidationError, match="n_points"):
                grid_points(-1.0, 1.0, n)


class TestEffectiveTau:
    def test_hand_value(self, standard_geom):
        assert effective_tau(standard_geom) == pytest.approx(TAU, rel=1e-12)

    def test_linear_in_screen_distance(self, standard_geom):
        doubled = Geometry(5e-7, 1e-4, 2.0, 1e-5)
        assert effective_tau(doubled) == pytest.approx(2 * effective_tau(standard_geom),
                                                       rel=1e-15)

    def test_vanishes_with_screen_distance(self):
        near = Geometry(5e-7, 1e-4, 1e-12, 1e-5)
        assert effective_tau(near) < 1e-18


def slit_plane_packet(xs, center, eps):
    """(8 pi eps^2)^(-1/4) exp(-(x - center)^2 / 4 eps^2)."""
    return (8 * math.pi * eps**2) ** -0.25 * np.exp(-((xs - center) ** 2) / (4 * eps**2))


class TestEvolvedAmplitude:
    def test_slit_plane_peak_value(self):
        expected = (8 * math.pi * EPS**2) ** -0.25
        assert abs(evolved_amplitude(0.3, 0.3, EPS, 0.0)) == pytest.approx(expected, rel=1e-15)

    def test_slit_plane_modulus_is_the_gaussian(self):
        xs = np.linspace(-5 * EPS, 5 * EPS, 101)
        np.testing.assert_allclose(
            np.abs(evolved_amplitude(xs, 0.0, EPS, 0.0)),
            slit_plane_packet(xs, 0.0, EPS),
            rtol=1e-12,
        )

    def test_slit_plane_packet_integrates_to_one_half(self):
        # trapezoid oracle on a dense grid; the prefactor convention puts 1/2
        # in each packet so the two-branch state totals ~1
        xs = np.linspace(-10 * EPS, 10 * EPS, 40001)
        total = np.trapezoid(np.abs(evolved_amplitude(xs, 0.0, EPS, 0.0)) ** 2, xs)
        assert total == pytest.approx(0.5, abs=1e-10)

    def test_peak_decreases_with_spreading(self):
        taus = [0.0, 1e-10, 1e-9, 1e-8, TAU]
        peaks = [abs(evolved_amplitude(0.0, 0.0, EPS, t)) for t in taus]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_spread_packet_is_gaussian_with_sigma_t(self):
        # |g|^2 must be a (1/2)-mass Gaussian of std sigma_t; compare against
        # the normal density directly on a dense grid
        sig = spread_sigma(EPS, TAU)
        assert sig == pytest.approx(3.9789e-3, rel=1e-4)  # hand arithmetic
        xs = np.linspace(-8 * sig, 8 * sig, 20001)
        density = np.abs(evolved_amplitude(xs, 0.0, EPS, TAU)) ** 2
        reference = 0.5 / (math.sqrt(2 * math.pi) * sig) * np.exp(-(xs**2) / (2 * sig**2))
        assert np.max(np.abs(density - reference)) < 1e-10

    def test_phase_at_center_is_prefactor_phase(self):
        g0 = evolved_amplitude(0.0, 0.0, EPS, TAU)
        prefactor = 1 / math.sqrt(2) / cmath.sqrt(
            math.sqrt(2 * math.pi) * (EPS + 0.5j * TAU / EPS)
        )
        assert cmath.phase(g0) == pytest.approx(cmath.phase(prefactor), abs=1e-14)

    def test_phase_grows_quadratically(self):
        g0 = evolved_amplitude(0.0, 0.0, EPS, TAU)
        d1 = cmath.phase(evolved_amplitude(1e-4, 0.0, EPS, TAU) / g0)
        d2 = cmath.phase(evolved_amplitude(2e-4, 0.0, EPS, TAU) / g0)
        assert d2 == pytest.approx(4 * d1, rel=1e-6)

    def test_time_reversal_conjugates(self):
        xs = np.linspace(-5e-3, 5e-3, 101)
        fwd = evolved_amplitude(xs, 0.0, EPS, TAU)
        bwd = evolved_amplitude(xs, 0.0, EPS, -TAU)
        np.testing.assert_allclose(bwd, np.conj(fwd), rtol=1e-14)

    def test_branch_continuity_at_zero(self):
        g_small = evolved_amplitude(2e-5, 0.0, EPS, 1e-30)
        g_zero = evolved_amplitude(2e-5, 0.0, EPS, 0.0)
        assert abs(g_small - g_zero) < 1e-12 * abs(g_zero)


class TestSpreadSigma:
    def test_no_evolution(self):
        assert spread_sigma(EPS, 0.0) == EPS

    def test_hand_value(self):
        assert spread_sigma(EPS, TAU) == pytest.approx(3.9789e-3, rel=1e-4)

    def test_never_below_initial_width(self, rng):
        for tau in rng.uniform(0, 1e-6, size=50):
            assert spread_sigma(EPS, tau) >= EPS
