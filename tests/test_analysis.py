"""Complementarity metrics: bounds, numeric visibility, duality and recoil reports."""
import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy import constants

from whichway import (
    Geometry,
    ScreenGrid,
    bohr_analysis,
    conditional_patterns,
    default_grid,
    distinguishability,
    duality_report,
    eraser_branch_visibilities,
    extrema_positions,
    fringe_spacing,
    fringe_width,
    local_visibility,
    make_detector_pair,
    mub_basis,
    numeric_visibility,
    pattern_on_grid,
    rotated_basis,
    variance,
    visibility_bound,
    PAULI_Z,
)


class TestAnalyticBounds:
    def test_distinguishability_limits(self):
        assert distinguishability(make_detector_pair(0.0)) == 1.0
        assert distinguishability(make_detector_pair(1.0)) == 0.0
        assert distinguishability(make_detector_pair(0.6)) == pytest.approx(0.8, abs=1e-15)

    def test_visibility_bound_is_overlap(self):
        assert visibility_bound(make_detector_pair(0.0)) == 0.0
        assert visibility_bound(make_detector_pair(1.0)) == 1.0

    def test_saturation_identity(self, rng):
        for _ in range(1000):
            pair = make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
            total = distinguishability(pair) ** 2 + visibility_bound(pair) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_variance_identity(self, rng):
        # D^2 + Var(pointer observable) = 1
        for _ in range(1000):
            pair = make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
            total = distinguishability(pair) ** 2 + variance(pair.d1, PAULI_Z)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestLocalVisibility:
    def test_center_equals_overlap(self, standard_geom):
        pair = make_detector_pair(0.73)
        assert local_visibility(0.0, standard_geom, pair) == pytest.approx(0.73, abs=1e-15)

    def test_vanishes_far_out(self, standard_geom):
        pair = make_detector_pair(0.73)
        assert local_visibility(20.0, standard_geom, pair) < 1e-12
        assert local_visibility(-20.0, standard_geom, pair) < 1e-12

    def test_below_bound_off_center(self, standard_geom):
        pair = make_detector_pair(0.6)
        w = fringe_width(standard_geom)
        assert local_visibility(w, standard_geom, pair) < 0.6

    def test_tracks_offcenter_fringe_contrast(self, standard_geom, joint_state):
        # Michelson contrast of the fringe pair bracketing x = w: the max near
        # w against the mean of its two flanking minima.  The envelope tilts
        # both, so agreement is order-0.1 here, but the analytic value must
        # sit at or above the measured one and below s.
        s = 0.6
        w = fringe_width(standard_geom)
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(s))
        xs = pat.grid.xs()
        max_pos = extrema_positions(pat, kind="maxima")
        target = max_pos[np.argmin(np.abs(max_pos - w))]
        min_pos = extrema_positions(pat, kind="minima")
        below = min_pos[min_pos < target][-1]
        above = min_pos[min_pos > target][0]

        def value_at(x):
            return pat.intensity[np.argmin(np.abs(xs - x))]

        mavg = 0.5 * (value_at(below) + value_at(above))
        michelson = (value_at(target) - mavg) / (value_at(target) + mavg)
        analytic = local_visibility(w, standard_geom, pair := make_detector_pair(s))
        assert analytic < s
        assert michelson == pytest.approx(analytic, abs=0.12)


class TestNumericVisibility:
    def test_fringe_free_pattern_returns_zero(self, standard_geom, joint_state):
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(0.0))
        assert numeric_visibility(pat) == 0.0

    def test_full_overlap_reaches_unity(self, standard_geom, joint_state):
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(1.0))
        assert numeric_visibility(pat) == pytest.approx(1.0, abs=0.01)

    def test_partial_overlap_matches_s(self, standard_geom, joint_state):
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(0.6))
        assert numeric_visibility(pat) == pytest.approx(0.6, abs=0.02)

    def test_small_overlap_without_extrema(self, standard_geom, joint_state):
        # at this geometry the s=0.05 ripple produces no local extrema at all;
        # the estimator must still recover the contrast
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(0.05))
        assert len(extrema_positions(pat, kind="maxima", window=0.02)) <= 1
        assert numeric_visibility(pat) == pytest.approx(0.05, abs=0.02)

    def test_never_exceeds_bound_materially(self, standard_geom, joint_state):
        for s in np.linspace(0.0, 1.0, 11):
            pat = pattern_on_grid(default_grid(standard_geom), joint_state(float(s)))
            assert numeric_visibility(pat) <= visibility_bound(make_detector_pair(float(s))) + 0.01

    @pytest.mark.filterwarnings("error")
    # the lobe search's spectrum of every other sample has no interior bin
    # below 5 points
    @pytest.mark.parametrize("n_points", [2, 3, 4])
    def test_spectrum_without_an_interior_bin_reads_zero(self, standard_geom, joint_state,
                                                         n_points):
        pat = pattern_on_grid(ScreenGrid(-1e-9, 1e-9, n_points), joint_state(0.6, 0.3))
        assert numeric_visibility(pat) == 0.0

    def test_phase_does_not_change_contrast(self, standard_geom, joint_state):
        for theta in (0.0, 0.9, -2.2):
            pat = pattern_on_grid(default_grid(standard_geom), joint_state(0.4, theta))
            assert numeric_visibility(pat) == pytest.approx(0.4, abs=0.02)


def _oracle_visibility(geom, s):
    """V* = s exp(-d^2 / 8 sigma_t^2), derived here from the free Gaussian.

    A packet psi(x, 0) ~ exp(-x^2 / 4 eps^2) flies freely to
    psi(x, tau) ~ exp(-x^2 / (4 eps^2 + 2 i tau)), with tau = hbar t / m =
    lambda L / 2 pi for a flight time t = L / v and lambda = h / m v.  Its
    density is a Gaussian of variance sigma_t^2 = eps^2 + (tau / 2 eps)^2.
    The slits' packets g+ and g-, centered at +d/2 and -d/2, have moduli
    |g+-|^2 = |A|^2 exp(-(x -+ d/2)^2 / 2 sigma_t^2); their product has
    modulus |A|^2 exp(-((x - d/2)^2 + (x + d/2)^2) / 4 sigma_t^2)
    = |A|^2 G(x) exp(-d^2 / 8 sigma_t^2), G(x) = exp(-x^2 / 2 sigma_t^2),
    and, the quadratic phases cancelling, a phase linear in x, kappa x.
    With path amplitudes 1/sqrt2 and |<d1|d2>| = s the pattern is
    I = (|g+|^2 + |g-|^2) / 2 + s Re(e^{i phi} conj(g+) g-), and the
    which-way reference (orthogonal detector states) drops the cross term:
    I_ww = (|g+|^2 + |g-|^2) / 2, whose integral is |A|^2 sqrt(2 pi) sigma_t.
    I - I_ww = s |A|^2 exp(-d^2 / 8 sigma_t^2) G(x) cos(kappa x + phi), and
    at k = kappa the co-rotating half of the cosine gives
    |int (I - I_ww) e^{-i kappa x} dx| = s |A|^2 exp(-d^2 / 8 sigma_t^2)
    sqrt(2 pi) sigma_t / 2; the counter-rotating half carries
    exp(-2 kappa^2 sigma_t^2) and is negligible.  So the demodulated
    contrast 2 |int (I - I_ww) e^{-i kappa x} dx| / int I_ww is
    V* = s exp(-d^2 / 8 sigma_t^2).
    """
    eps = geom.packet_width
    tau = geom.wavelength * geom.screen_dist / (2.0 * math.pi)
    sigma_t2 = eps * eps + (tau / (2.0 * eps)) ** 2
    return s * math.exp(-geom.slit_sep**2 / (8.0 * sigma_t2))


# (slit_sep / packet_width, screen_dist) -> |V - V*| / s bound
ORACLE_GEOMETRIES = {
    (10, 1.0): 1e-8, (10, 100.0): 1e-8, (10, 1e4): 1e-8,
    (8, 1.0): 1e-8, (8, 100.0): 1e-8,
    (10, 1e-2): 1e-7, (10, 1e-3): 1e-7,  # near field: sigma_t / d 0.41 and 0.11
}


def _assert_reads_the_oracle(geom, grid, tol):
    for s in (1e-3, 0.3, 0.6, 0.9, 1.0):
        expected = _oracle_visibility(geom, s)
        for theta in np.linspace(-math.pi, math.pi, 13):
            rep = duality_report(geom, make_detector_pair(s, float(theta)), grid)
            assert abs(rep.V_numeric - expected) <= tol * s
            assert rep.egy_ok


class TestVisibilityOracle:
    @pytest.mark.parametrize("ratio, screen_dist", sorted(ORACLE_GEOMETRIES))
    def test_numeric_visibility_reads_the_oracle(self, ratio, screen_dist):
        geom = Geometry(5e-7, 1e-4, screen_dist, 1e-4 / ratio)
        _assert_reads_the_oracle(geom, default_grid(geom), ORACLE_GEOMETRIES[ratio, screen_dist])

    # odd counts put a sample at x = 0; the lobe search's spectrum is a power
    # of two long whatever the count
    @pytest.mark.parametrize("n_points", [4097, 8193, 16385])
    @pytest.mark.parametrize("ratio, screen_dist", sorted(ORACLE_GEOMETRIES))
    def test_odd_grids_read_the_oracle(self, ratio, screen_dist, n_points):
        geom = Geometry(5e-7, 1e-4, screen_dist, 1e-4 / ratio)
        half = 5.0 * fringe_width(geom)
        grid = ScreenGrid(-half, half, n_points)
        _assert_reads_the_oracle(geom, grid, ORACLE_GEOMETRIES[ratio, screen_dist])

    @pytest.mark.xfail(strict=True, reason="default_grid's 5 fringe widths cut the envelope "
                       "once slit_sep exceeds about 10 packet widths")
    def test_known_defect_default_grid_cuts_the_envelope(self):
        # slit_sep 25 packet widths: the default grid spans +-2.5 sigma_t,
        # and V_numeric overshoots V* by about 1e-4 of s
        geom = Geometry(5e-7, 1e-4, 1.0, 4e-6)
        rep = duality_report(geom, make_detector_pair(0.5, 1.0))
        assert rep.egy_ok


class TestFringeSpacing:
    def test_minima_spacing_standard(self, standard_geom, joint_state):
        pat = pattern_on_grid(ScreenGrid(-2.5e-2, 2.5e-2, 20001), joint_state(1.0))
        w = fringe_width(standard_geom)
        assert fringe_spacing(pat, kind="minima", window=2 * w) == pytest.approx(w, rel=1e-4)

    def test_needs_two_extrema(self, standard_geom, joint_state):
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(0.0))
        with pytest.raises(Exception):
            fringe_spacing(pat, kind="maxima")


class TestEraserVisibilities:
    def test_mub_branches_fully_visible(self, standard_geom, joint_state):
        er = conditional_patterns(default_grid(standard_geom), joint_state(0.0), mub_basis())
        v1, v2 = eraser_branch_visibilities(er)
        assert v1 == pytest.approx(1.0, abs=0.01)
        assert v2 == pytest.approx(1.0, abs=0.01)

    def test_pointer_branches_blind(self, standard_geom, joint_state):
        er = conditional_patterns(
            default_grid(standard_geom), joint_state(0.0), rotated_basis(0.0)
        )
        assert eraser_branch_visibilities(er) == (0.0, 0.0)

    def test_unconditioned_bound_saturated(self, standard_geom, joint_state):
        # symmetric eraser: branch weights 1/2 each, so the eraser-observable
        # variance is 1 and the unconditioned visibility bound 1 - dQ2 = 0
        js = joint_state(0.0)
        er = conditional_patterns(default_grid(standard_geom), js, mub_basis())
        w1, w2 = er.branch_weights
        dq2 = 1.0 - (w1 - w2) ** 2
        assert dq2 == pytest.approx(1.0, abs=1e-9)
        uncond = pattern_on_grid(default_grid(standard_geom), js)
        assert numeric_visibility(uncond) ** 2 <= (1.0 - dq2) + 1e-9


class TestDualityReport:
    def test_which_way_limit(self, standard_geom):
        rep = duality_report(standard_geom, make_detector_pair(0.0))
        assert rep.D == 1.0
        assert rep.V_numeric == 0.0
        assert rep.lhs == 1.0
        assert rep.egy_ok and rep.unc_ok

    def test_full_interference_limit(self, standard_geom):
        rep = duality_report(standard_geom, make_detector_pair(1.0))
        assert rep.D == 0.0
        assert rep.V_numeric == pytest.approx(1.0, abs=0.01)
        assert rep.lhs <= 1.0 + 1e-9

    def test_sweep_stays_on_the_bound(self, standard_geom):
        lhs_values = []
        for s in np.linspace(0.0, 1.0, 11):
            rep = duality_report(standard_geom, make_detector_pair(float(s)))
            assert rep.egy_ok and rep.unc_ok
            assert rep.rhs_unc <= 1.0 + 1e-12
            lhs_values.append(rep.lhs)
        assert 0.97 <= max(lhs_values) <= 1.001

    def test_uncertainty_closure(self, standard_geom, rng):
        for _ in range(25):
            pair = make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
            rep = duality_report(standard_geom, pair)
            assert rep.dP2 + rep.dQ2 >= 1.0 - 1e-12
            assert rep.rhs_unc <= 1.0 + 1e-12


class TestBohrAnalysis:
    def test_standard_values(self, standard_geom):
        rep = bohr_analysis(standard_geom)
        assert rep.fringe_sep == pytest.approx(5e-3, rel=1e-12)
        assert rep.delta_x == pytest.approx(3.9789e-4, rel=1e-4)
        assert rep.delta_px == pytest.approx(
            (constants.h / 5e-7) * (1e-4 / 1.0), rel=1e-12
        )
        assert rep.ratio == pytest.approx(1.0 / (4 * math.pi), abs=1e-12)

    def test_ratio_is_geometry_free(self, rng):
        for _ in range(100):
            geom = Geometry(
                wavelength=rng.uniform(1e-7, 1e-6),
                screen_dist=rng.uniform(0.1, 10.0),
                slit_sep=rng.uniform(1e-5, 1e-3),
                packet_width=1e-7,
            )
            assert bohr_analysis(geom).ratio == pytest.approx(1 / (4 * math.pi), abs=1e-12)

    def test_ratio_is_the_reports_own_quotient(self, standard_geom, rng):
        geoms = [standard_geom] + [
            Geometry(
                wavelength=rng.uniform(1e-7, 1e-6),
                screen_dist=rng.uniform(0.1, 10.0),
                slit_sep=rng.uniform(1e-5, 1e-3),
                packet_width=1e-7,
            )
            for _ in range(20)
        ]
        for geom in geoms:
            rep = bohr_analysis(geom)
            assert rep.ratio == rep.delta_x / rep.fringe_sep

    def test_underflowing_pitch_is_numeric_failure(self):
        from whichway import NumericFailure

        # lambda L underflows to 0 while delta_px stays finite (about 6.6e290)
        geom = Geometry(wavelength=1e-200, slit_sep=1.0, screen_dist=1e-124, packet_width=1e-5)
        with pytest.raises(NumericFailure, match="fringe_sep"):
            bohr_analysis(geom)

    def test_minimum_uncertainty_product(self, standard_geom):
        rep = bohr_analysis(standard_geom)
        assert rep.delta_px * rep.delta_x == pytest.approx(constants.hbar / 2, rel=1e-13)


class TestReportInvariants:
    def test_bohr_report_rejects_wrong_ratio(self):
        from whichway import BohrReport, ValidationError

        with pytest.raises(ValidationError):
            BohrReport(delta_px=1.0, delta_x=1.0, fringe_sep=1.0)  # ratio 1

    def test_bohr_report_rejects_nan_ratio(self):
        from whichway import BohrReport, ValidationError

        with pytest.raises(ValidationError):
            BohrReport(delta_px=1.0, delta_x=float("nan"), fringe_sep=1.0)

    def test_duality_report_rejects_impossible_variances(self):
        from whichway import DualityReport, ValidationError

        with pytest.raises(ValidationError):
            DualityReport(D=1.0, V_bound=0.0, V_numeric=0.0, dP2=0.0, dQ2=0.0,
                          lhs=1.0, rhs_unc=2.0)

    @pytest.mark.parametrize("lhs, rhs_unc, egy_ok, unc_ok", [
        (1.0, 1.0, True, True),
        (1.0 + 2e-9, 1.0, False, False),
        (0.9, 0.8, True, False),
    ])
    def test_duality_report_derives_its_flags(self, lhs, rhs_unc, egy_ok, unc_ok):
        from whichway import DualityReport

        rep = DualityReport(D=0.0, V_bound=1.0, V_numeric=1.0, dP2=0.5, dQ2=1.5 - rhs_unc,
                            lhs=lhs, rhs_unc=rhs_unc)
        assert (rep.egy_ok, rep.unc_ok) == (egy_ok, unc_ok)
        assert list(asdict(rep)) == ["D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs",
                                     "rhs_unc", "egy_ok", "unc_ok"]
