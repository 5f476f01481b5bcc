"""Screen patterns: direct vs closed-form routes, normalization, eraser conditioning."""
import cmath
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from whichway import (
    DetectorState,
    Geometry,
    JointState,
    MeasurementBasis,
    NumericFailure,
    PatternSamples,
    ScreenGrid,
    ValidationError,
    closed_form_on_grid,
    closed_form_parts,
    conditional_patterns,
    default_grid,
    duality_report,
    evolved_amplitude,
    effective_tau,
    fringe_width,
    intensity_closed_form,
    intensity_direct,
    make_detector_pair,
    mub_basis,
    oscillatory_residual,
    pattern_on_grid,
    rotated_basis,
    extrema_positions,
    spread_sigma,
)
from whichway import cli, pattern

W_STANDARD = 0.005000031582734083  # 5e-3 + 16 pi^2 eps^4/(lam d L), hand-checked


class TestScreenGrid:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValidationError):
            ScreenGrid(1.0, -1.0, 100)

    def test_rejects_single_point(self):
        with pytest.raises(ValidationError):
            ScreenGrid(-1.0, 1.0, 1)

    def test_spacing_and_points(self):
        grid = ScreenGrid(-1.0, 1.0, 5)
        assert grid.spacing() == 0.5
        np.testing.assert_allclose(grid.xs(), [-1.0, -0.5, 0.0, 0.5, 1.0])


class TestJointState:
    def test_default_amps_are_symmetric(self, joint_state):
        w1, w2, _ = joint_state(0.5).path_state()
        assert w1 == w2 == pytest.approx(0.5, abs=1e-15)

    def test_rejects_unnormalized_amps(self, standard_geom):
        with pytest.raises(ValidationError):
            JointState(standard_geom, make_detector_pair(0.5), path_amps=(1.0, 1.0))

    def test_path_state_is_the_seam_to_every_packet_pattern(self, standard_geom, monkeypatch):
        # mixed path states (w1 != w2, |c|^2 < w1 w2), none of which a pure
        # detector state gives, reach the direct pattern, its which-way
        # reference, each eraser branch and the closed form through
        # path_state alone
        basis = rotated_basis(0.4)
        states = {None: (0.7, 0.3, 0.25 * cmath.exp(0.6j)),
                  basis.b1: (0.5, 0.1, 0.1 * cmath.exp(-1.1j)),
                  basis.b2: (0.2, 0.2, 0.05j)}
        monkeypatch.setattr(JointState, "path_state",
                            lambda self, outcome=None: states[outcome])
        js = JointState(standard_geom, make_detector_pair(0.5, 0.3))
        grid = ScreenGrid(-5 * W_STANDARD, 5 * W_STANDARD, 2048)
        xs, wts = grid.xs(), grid._weights
        tau, d = effective_tau(standard_geom), standard_geom.slit_sep
        g1, g2 = (evolved_amplitude(xs, center, standard_geom.packet_width, tau)
                  for center in (+d / 2, -d / 2))

        def expected(w1, w2, c=0.0):
            return 2.0 * (w1 * abs(g1) ** 2 + w2 * abs(g2) ** 2
                          + 2.0 * (c * np.conj(g1) * g2).real)

        def assert_close(got, want):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

        direct = expected(*states[None])
        assert_close(intensity_direct(xs, js), direct)
        assert_close(intensity_closed_form(xs, js), direct)
        envelope, interference = closed_form_parts(xs, js)
        assert_close(envelope, expected(*states[None][:2]))
        assert_close(interference, direct - expected(*states[None][:2]))
        samples = pattern_on_grid(grid, js)
        assert_close(samples.intensity, direct / (wts @ direct))
        assert_close(samples.which_way(), expected(*states[None][:2]) / (wts @ direct))
        er = conditional_patterns(grid, js, basis)
        total = wts @ (expected(*states[basis.b1]) + expected(*states[basis.b2]))
        for branch, b in ((er.i_b, basis.b1), (er.i_b_perp, basis.b2)):
            assert_close(branch.intensity, expected(*states[b]) / total)
            assert_close(branch.which_way(), expected(*states[b][:2]) / total)

    def test_path_state_is_the_seam_to_the_eraser_observable(self, standard_geom, monkeypatch):
        # the duality report's dQ2 = 1 - q^2 reads each outcome's probability
        # p(b) = w1 + w2 of path_state(b), q = p(b1) - p(b2) over the
        # eraser's basis; q^2 <= s^2 keeps rhs_unc = 1 - s^2 + q^2 below 1
        basis = mub_basis()
        states = {None: (0.7, 0.3, 0.2 * cmath.exp(0.6j)),
                  basis.b1: (0.375, 0.25, 0.2j),
                  basis.b2: (0.25, 0.125, 0.1)}
        monkeypatch.setattr(JointState, "path_state",
                            lambda self, outcome=None: states[outcome])
        s = 0.5
        q = sum(states[basis.b1][:2]) - sum(states[basis.b2][:2])
        assert q * q <= s * s
        grid = ScreenGrid(-5 * W_STANDARD, 5 * W_STANDARD, 2048)
        rep = duality_report(standard_geom, make_detector_pair(s, 0.3), grid)
        assert rep.dQ2 == 1.0 - q * q
        assert rep.rhs_unc == pytest.approx(1.0 - s * s + q * q, abs=1e-15)


class TestFringeWidth:
    def test_standard_value(self, standard_geom):
        assert fringe_width(standard_geom) == pytest.approx(W_STANDARD, rel=1e-12)

    def test_young_limit(self):
        from whichway import Geometry

        geom = Geometry(5e-7, 1e-4, 1.0, 1e-9)
        assert fringe_width(geom) == pytest.approx(5e-3, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_increasing_in_packet_width(self):
        from whichway import Geometry

        widths = [fringe_width(Geometry(5e-7, 1e-4, 1.0, e)) for e in (1e-6, 1e-5, 3e-5)]
        assert widths[0] < widths[1] < widths[2]


class TestDefaultGrid:
    @pytest.mark.parametrize("n_points", [1, 0, 2.5, math.inf, math.nan])
    def test_bad_point_count_is_validation_error(self, standard_geom, n_points):
        with pytest.raises(ValidationError):
            default_grid(standard_geom, n_points)

    @pytest.mark.parametrize("geometry", [
        (1e300, 1.0, 1e8, 1e-5),  # +-5 fringe widths overflow
        (1e-300, 1.0, 1e-20, 1e-200),  # the spacing is subnormal
    ])
    def test_grid_outside_the_float_range_is_numeric_failure(self, geometry):
        from whichway import Geometry

        with pytest.raises(NumericFailure):
            default_grid(Geometry(*geometry))


class TestIntensityRoutes:
    def test_orthogonal_pair_is_incoherent_sum(self, standard_geom, joint_state):
        js = joint_state(0.0)
        tau = effective_tau(standard_geom)
        d = standard_geom.slit_sep
        g1 = evolved_amplitude(0.0, +d / 2, standard_geom.packet_width, tau)
        g2 = evolved_amplitude(0.0, -d / 2, standard_geom.packet_width, tau)
        assert intensity_direct(0.0, js) == pytest.approx(
            abs(g1) ** 2 + abs(g2) ** 2, rel=1e-14
        )

    def test_identical_states_fully_constructive(self, standard_geom, joint_state):
        js = joint_state(1.0)
        tau = effective_tau(standard_geom)
        g = evolved_amplitude(0.0, standard_geom.slit_sep / 2, standard_geom.packet_width, tau)
        assert intensity_direct(0.0, js) == pytest.approx(4 * abs(g) ** 2, rel=1e-13)

    def test_cross_oracle_at_center(self, joint_state):
        js = joint_state(0.6)
        assert intensity_direct(0.0, js) == pytest.approx(
            intensity_closed_form(0.0, js), rel=1e-12
        )

    def test_oracle_equivalence_on_grid(self, standard_geom, rng):
        xs = default_grid(standard_geom).xs()
        for _ in range(5):
            js = JointState(
                standard_geom, make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
            )
            direct = intensity_direct(xs, js)
            closed = intensity_closed_form(xs, js)
            mask = direct > 1e-300
            assert np.max(np.abs(direct[mask] - closed[mask]) / closed[mask]) < 1e-10

    def test_closed_form_matches_direct_at_unequal_amps(self, standard_geom):
        js = JointState(standard_geom, make_detector_pair(0.5),
                        path_amps=(math.sqrt(0.8), math.sqrt(0.2)))
        assert intensity_closed_form(0.0, js) == pytest.approx(
            intensity_direct(0.0, js), rel=1e-12
        )
        xs = default_grid(standard_geom).xs()
        envelope, interference = closed_form_parts(xs, js)
        assert np.max(np.abs(intensity_direct(xs, js) - (envelope + interference))
                      / envelope) <= 1e-10

    def test_mirror_symmetry(self, joint_state):
        js = joint_state(0.7, 0.0)
        xs = np.linspace(1e-4, 2e-2, 500)
        np.testing.assert_allclose(
            intensity_direct(xs, js), intensity_direct(-xs, js), rtol=1e-12
        )

    def test_phase_flip_orders_center_intensity(self, joint_state):
        js0 = joint_state(0.6, 0.0)
        jspi = joint_state(0.6, math.pi)
        envelope0, _ = closed_form_parts(0.0, js0)
        assert intensity_closed_form(0.0, jspi) < envelope0 < intensity_closed_form(0.0, js0)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
    def test_interference_term_at_center(self, joint_state, theta):
        # cross term at x=0 is s cos(theta) times the envelope there
        s = 0.8
        js = joint_state(s, theta)
        envelope, interference = closed_form_parts(0.0, js)
        assert interference == pytest.approx(s * math.cos(theta) * envelope, abs=1e-15)

    def test_positivity_before_clamping(self, standard_geom, rng):
        xs = default_grid(standard_geom).xs()
        for _ in range(5):
            js = JointState(
                standard_geom, make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
            )
            assert intensity_direct(xs, js).min() > -1e-15
            assert intensity_closed_form(xs, js).min() > -1e-15

    def test_normalization_drift_bound(self, standard_geom):
        # raw integral deviates from 1 only through the packet-overlap cross
        # term, bounded by exp(-d^2/8 eps^2)
        bound = math.exp(-standard_geom.slit_sep**2 / (8 * standard_geom.packet_width**2))
        xs = np.linspace(-0.04, 0.04, 32001)
        for s, theta in [(1.0, 0.0), (0.6, 0.0), (1.0, math.pi), (0.5, 1.1)]:
            js = JointState(standard_geom, make_detector_pair(s, theta))
            total = np.trapezoid(intensity_direct(xs, js), xs)
            assert abs(total - 1.0) <= bound + 1e-9


class TestPatternOnGrid:
    def test_unit_integral_and_norm_constant(self, standard_geom, joint_state):
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(0.6))
        xs = pat.grid.xs()
        assert np.trapezoid(pat.intensity, xs) == pytest.approx(1.0, abs=1e-9)
        assert math.isfinite(pat.norm_constant) and pat.norm_constant > 0

    def test_modes_agree_after_normalization(self, standard_geom, joint_state):
        grid = default_grid(standard_geom)
        direct = pattern_on_grid(grid, joint_state(0.6))
        closed = closed_form_on_grid(grid, joint_state(0.6))[0]
        mask = direct.intensity > 1e-300
        np.testing.assert_allclose(
            direct.intensity[mask], closed.intensity[mask], rtol=1e-10
        )

    def test_coarse_grid_refused_when_fringes_present(self, standard_geom, joint_state):
        coarse = ScreenGrid(-0.025, 0.025, 64)  # spacing ~ w/6.3
        with pytest.raises(ValidationError):
            pattern_on_grid(coarse, joint_state(0.5))

    def test_coarse_grid_allowed_without_fringes(self, standard_geom, joint_state):
        coarse = ScreenGrid(-0.025, 0.025, 64)
        pattern_on_grid(coarse, joint_state(0.0))

    def test_smooth_pattern_has_no_interior_minima(self, standard_geom, joint_state):
        pat = pattern_on_grid(default_grid(standard_geom), joint_state(0.0))
        assert oscillatory_residual(pat) < 1e-9
        assert len(extrema_positions(pat, kind="minima", window=0.02)) == 0

    def test_dense_grid_minima_spacing(self, standard_geom, joint_state):
        # s=1 minima are pinned by the near-zeros of the oscillation, so their
        # spacing tracks the fringe width; the maxima are envelope-shifted at
        # this geometry and are deliberately not used here
        grid = ScreenGrid(-2.5e-2, 2.5e-2, 20001)
        pat = pattern_on_grid(grid, joint_state(1.0))
        pos = extrema_positions(pat, kind="minima", window=2 * W_STANDARD)
        gaps = np.diff(pos)
        np.testing.assert_allclose(gaps, W_STANDARD, rtol=1e-4)


class TestClosedFormOnGrid:
    @pytest.mark.parametrize("grid, calls", [
        (None, 1),  # the default grid, one block
        # ceil(20000 / _BLOCK) blocks
        ({"x_min": -0.025, "x_max": 0.025, "n_points": 20000}, -(-20000 // pattern._BLOCK)),
    ])
    def test_pattern_evaluates_the_closed_form_once(self, tmp_path, standard_geom, joint_state,
                                                    grid, calls):
        config = {"geometry": {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0,
                               "packet_width": 1e-5},
                  "detector": {"overlap": 0.6, "phase": 0.3}}
        if grid:
            config["grid"] = grid
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["pattern", "--config", str(path), "--out", str(tmp_path / "out.csv")]
        with mock.patch.object(pattern, "_closed_parts", wraps=pattern._closed_parts) as parts:
            assert cli.main(argv) == 0
        assert parts.call_count == calls
        # the parts returned are the closed form's, divided by the pattern's
        # normalization, bit for bit
        screen = ScreenGrid(**grid) if grid else default_grid(standard_geom)
        js = joint_state(0.6, 0.3)
        samples, envelope, interference = closed_form_on_grid(screen, js)
        for got, raw in zip((envelope, interference), closed_form_parts(screen.xs(), js)):
            assert got.tobytes() == (raw / samples.norm_constant).tobytes()
        # a grid too coarse for the fringes is refused before any evaluation
        with mock.patch.object(pattern, "_closed_parts", wraps=pattern._closed_parts) as parts:
            with pytest.raises(ValidationError):
                closed_form_on_grid(ScreenGrid(-0.025, 0.025, 64), js)
        assert parts.call_count == 0


class TestConditionalPatterns:
    def test_completeness_against_unconditioned(self, standard_geom, joint_state):
        js = joint_state(0.0)
        grid = default_grid(standard_geom)
        er = conditional_patterns(grid, js, mub_basis())
        uncond = pattern_on_grid(grid, js)
        combined = er.i_b.intensity + er.i_b_perp.intensity
        mask = uncond.intensity > 1e-300
        np.testing.assert_allclose(
            combined[mask], uncond.intensity[mask], rtol=1e-12
        )

    def test_fringes_and_antifringes(self, separated_geom):
        js = JointState(separated_geom, make_detector_pair(0.0))
        grid = ScreenGrid(-0.025, 0.025, 8193)  # odd count puts x=0 on the grid
        er = conditional_patterns(grid, js, mub_basis())
        xs = grid.xs()
        w = fringe_width(separated_geom)
        assert abs(xs[np.argmax(er.i_b.intensity)]) < grid.spacing()
        shift = abs(xs[np.argmax(er.i_b.intensity)] - xs[np.argmax(er.i_b_perp.intensity)])
        assert abs(shift - w / 2) <= grid.spacing()

    def test_sum_is_fringe_free(self, standard_geom, joint_state):
        er = conditional_patterns(default_grid(standard_geom), joint_state(0.0), mub_basis())
        assert oscillatory_residual(er.i_sum) < 1e-9

    def test_pointer_basis_keeps_which_way(self, standard_geom, joint_state):
        er = conditional_patterns(
            default_grid(standard_geom), joint_state(0.0), rotated_basis(0.0)
        )
        # each branch is a single displaced hump: no oscillation at all
        assert oscillatory_residual(er.i_b) < 1e-9
        assert oscillatory_residual(er.i_b_perp) < 1e-9

    def test_branch_weights_sum_to_one(self, standard_geom, joint_state, rng):
        grid = default_grid(standard_geom)
        for s in (0.0, 0.3, 0.9):
            er = conditional_patterns(grid, joint_state(s), mub_basis())
            weights = [grid._weights @ b.intensity for b in (er.i_b, er.i_b_perp)]
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("ratio", [5.0, 8.0, 12.5])
    def test_branch_integrals_follow_the_path_states(self, ratio):
        # a branch integrates to (w1(b) + w2(b) + 2 Re c(b) o) / (w1 + w2 + 2 Re c o),
        # o = exp(-d^2 / 8 eps^2) the packets' overlap at the slits, on a grid
        # that holds the envelope to 8 sigma_t either side
        geom = Geometry(5e-7, 1e-4, 1.0, 1e-4 / ratio)
        sigma_t = spread_sigma(geom.packet_width, effective_tau(geom))
        half = max(5.0 * fringe_width(geom), 8.0 * sigma_t)
        grid = ScreenGrid(-half, half, 8192)
        o = math.exp(-ratio * ratio / 8.0)
        rng = np.random.default_rng(int(10 * ratio))
        for _ in range(40):
            s, theta, chi, phi, polar, azimuth = rng.uniform(
                [0.0, -math.pi, 0.0, -math.pi, 0.0, -math.pi],
                [1.0, math.pi, math.pi / 2, math.pi, math.pi, math.pi])
            amps = (math.cos(chi), math.sin(chi) * cmath.exp(1j * phi))
            js = JointState(geom, make_detector_pair(s, theta), amps)
            turn = cmath.exp(1j * azimuth)
            basis = MeasurementBasis(
                DetectorState(math.cos(polar / 2), math.sin(polar / 2) * turn),
                DetectorState(math.sin(polar / 2), -math.cos(polar / 2) * turn))
            er = conditional_patterns(grid, js, basis)
            w1, w2, c = js.path_state()
            for branch, b in ((er.i_b, basis.b1), (er.i_b_perp, basis.b2)):
                w1b, w2b, cb = js.path_state(b)
                want = (w1b + w2b + 2.0 * cb.real * o) / (w1 + w2 + 2.0 * c.real * o)
                assert abs(grid._weights @ branch.intensity - want) <= 1e-14

    def test_unequal_amps_still_complete(self, standard_geom):
        amp1 = math.sqrt(0.7)
        amp2 = complex(0, math.sqrt(0.3))
        js = JointState(standard_geom, make_detector_pair(0.4, 0.5), path_amps=(amp1, amp2))
        grid = default_grid(standard_geom)
        er = conditional_patterns(grid, js, mub_basis())
        direct = intensity_direct(grid.xs(), js)
        combined = (er.i_b.intensity + er.i_b_perp.intensity) * er.i_b.norm_constant
        mask = direct > 1e-300
        np.testing.assert_allclose(combined[mask], direct[mask], rtol=1e-12)

    def test_coarse_grid_refused(self, standard_geom, joint_state):
        with pytest.raises(ValidationError):
            conditional_patterns(ScreenGrid(-0.025, 0.025, 64), joint_state(0.0), mub_basis())


class TestNumericFailurePath:
    @pytest.mark.filterwarnings("error")
    def test_overflowing_envelope_is_reported(self):
        # pathological geometry: the envelope's e^{x d/2 sigma^2} overflows
        # on one side of the grid and underflows to 0 on the other, where
        # the gaussian underflows, producing NaN in the closed form
        from whichway import Geometry

        geom = Geometry(1e-12, 1e-2, 1e-3, 1e-9)
        js = JointState(geom, make_detector_pair(0.0))
        grid = ScreenGrid(-0.02, 0.02, 256)
        with pytest.raises(NumericFailure):
            closed_form_on_grid(grid, js)

    @pytest.mark.parametrize("overlap", [0.0, 0.6])
    @pytest.mark.parametrize("n_points", [4097, 8193, 16385])
    def test_residue_relative_to_the_peak_is_clamped(self, standard_geom, overlap, n_points):
        # the fringe-free branch cancels to about -4e-15 at x = 0, where the
        # raw peak is about 160: rounding, not a failure
        js = JointState(standard_geom, make_detector_pair(overlap))
        grid = ScreenGrid(-0.025, 0.025, n_points)
        er = conditional_patterns(grid, js, rotated_basis(math.pi / 4))
        for branch in (er.i_b, er.i_b_perp):
            assert branch.intensity.min() >= 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", ["overflow", "nan"])
    def test_which_way_reference_range_is_checked(self, standard_geom, joint_state, bad,
                                                  monkeypatch):
        # the reference 2 P / norm_constant fails when its largest value
        # passes the largest float though the smallest stays finite, and when
        # P holds a NaN anywhere
        grid = ScreenGrid(-0.025, 0.025, 8192)
        samples = pattern_on_grid(grid, joint_state(0.6))
        kept = pattern._which_way_sum(*samples.reference)
        if bad == "overflow":
            samples = PatternSamples(samples.grid, samples.intensity, float(kept.max()) * 1e-308,
                                     samples.reference)
            assert 2.0 * float(kept.min()) / samples.norm_constant < math.inf
        else:
            kept = kept.copy()
            kept[grid.n_points // 3] = math.nan
            monkeypatch.setattr(pattern, "_which_way_sum", lambda *args: kept)
        with pytest.raises(NumericFailure,
                           match="^the which-way reference is outside the float range$"):
            samples.which_way()

    def test_clamp_floor_scales_with_the_largest_raw_value(self):
        weights = np.full(4, 0.5)
        ok = [np.array([100.0, -9e-14, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, -5e-15])]
        pattern._clamp_and_normalize(weights, ok)
        assert ok[0][1] == 0.0 and ok[1][3] == 0.0
        for bad in ([np.array([100.0, -2e-13, 1.0, 0.0])], [np.array([0.5, -2e-15, 0.1, 0.0])]):
            with pytest.raises(NumericFailure, match=r"intensity -2e-1[35] below the clamp floor"):
                pattern._clamp_and_normalize(weights, bad)

    @pytest.mark.parametrize("branch", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_fail_in_either_branch(self, bad, branch):
        # NaN and -inf show in a branch's minimum, +inf only in its maximum
        branches = [np.array([1.0, 0.5, 0.25, 0.0]), np.array([0.0, 0.25, 0.5, 1.0])]
        branches[branch][1] = bad
        with pytest.raises(NumericFailure, match="^non-finite intensity values on the grid$"):
            pattern._clamp_and_normalize(np.full(4, 0.5), branches)


class TestBlockedKernelMemory:
    """On a grid of many blocks a kernel call holds its outputs and one
    block's scratch, no grid-sized temporaries (traced by tracemalloc)."""

    N_POINTS = 2**18

    @staticmethod
    def _traced_peak(call):
        call()  # the kept packets and which-way sum are made here
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kernel, bound", [
        ("direct", 1.5), ("closed_form", 1.5), ("closed_form_parts", 2.5), ("pattern_on_grid", 1.5),
        ("closed_form_on_grid", 3.5), ("conditional", 3.5), ("direct_on_grid", 1.5),
    ])
    def test_peak_is_the_outputs_and_block_scratch(self, standard_geom, kernel, bound):
        js = JointState(standard_geom, make_detector_pair(0.6, 0.3))
        grid = default_grid(standard_geom, self.N_POINTS)
        xs = grid.xs()
        call = {
            "direct": lambda: intensity_direct(xs, js),
            "closed_form": lambda: intensity_closed_form(xs, js),
            "closed_form_parts": lambda: closed_form_parts(xs, js),
            "pattern_on_grid": lambda: pattern_on_grid(grid, js),
            "closed_form_on_grid": lambda: closed_form_on_grid(grid, js),
            "conditional": lambda: conditional_patterns(grid, js, rotated_basis(0.7)),
            "direct_on_grid": lambda: intensity_direct(grid, js),
        }[kernel]
        assert self._traced_peak(call) <= bound * xs.nbytes
