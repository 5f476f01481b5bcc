"""The real-arithmetic branch kernel behind the direct and conditional routes.

Its kept arrays are |g1|^2, |g2|^2 and conj(g1) g2 of the complex packets;
the direct route agrees with the closed form and with the four-term complex
expansion; the eraser branches add up to the direct pattern; the in-place
clamp equals the old copying one bit for bit; and kernels evaluated in blocks
equal one evaluation over all the points bit for bit.
"""
import cmath
import math
from functools import reduce
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from whichway import (  # noqa: E402
    DetectorState, Geometry, JointState, MeasurementBasis, ScreenGrid, closed_form_parts,
    conditional_patterns, default_grid, effective_tau, evolved_amplitude, fringe_width,
    inner_product, intensity_closed_form, intensity_direct, make_detector_pair, pattern_on_grid,
)
from whichway import pattern  # noqa: E402
from whichway.pattern import CLAMP_FLOOR, _clamp_and_normalize  # noqa: E402

# slit separation 8-20 packet widths and an evolved width of several slit
# separations: the estimator's far-field regime
geometries = st.builds(
    lambda lam, dist, sep, ratio: Geometry(lam, sep, dist, sep / ratio),
    st.floats(4e-7, 6e-7), st.floats(0.5, 2.0), st.floats(5e-5, 2e-4), st.floats(8.0, 20.0),
)
# 0 < s < 1e-4 is a known make_detector_pair defect, kept out here
pairs = st.builds(make_detector_pair, st.just(0.0) | st.floats(1e-3, 1.0),
                  st.floats(-math.pi, math.pi))
unequal_amps = st.builds(
    lambda chi, phi: (math.cos(chi), math.sin(chi) * cmath.exp(1j * phi)),
    st.floats(0.0, math.pi / 2), st.floats(-math.pi, math.pi),
)
bases = st.builds(
    lambda polar, azimuth: MeasurementBasis(
        DetectorState(math.cos(polar / 2), math.sin(polar / 2) * cmath.exp(1j * azimuth)),
        DetectorState(math.sin(polar / 2), -math.cos(polar / 2) * cmath.exp(1j * azimuth)),
    ),
    st.floats(0.0, math.pi), st.floats(-math.pi, math.pi),
)

POINTS = 2048


def _packets(xs, geom):
    tau = effective_tau(geom)
    return (evolved_amplitude(xs, +0.5 * geom.slit_sep, geom.packet_width, tau),
            evolved_amplitude(xs, -0.5 * geom.slit_sep, geom.packet_width, tau))


def _assert_routes_agree(direct, js, xs):
    """Pointwise agreement to 1e-10 of the local incoherent sum (the closed
    form's envelope), which stays meaningful at dark fringes; the 1e-300
    floor admits underflow far out on a grid made for another geometry."""
    env, intf = closed_form_parts(xs, js)
    assert np.all(np.abs(direct - (env + intf)) <= 1e-10 * env + 1e-300)


@settings(max_examples=60, deadline=None)
@given(geometries, pairs)
def test_direct_matches_closed_form_on_positions(geom, pair):
    js = JointState(geom, pair)
    xs = default_grid(geom, POINTS).xs()
    _assert_routes_agree(intensity_direct(xs, js), js, xs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(geometries, pairs), min_size=2, max_size=4))
def test_direct_matches_closed_form_on_one_kept_grid(calls):
    # one grid serves every geometry, and the first comes back at the end,
    # so the grid swaps its kept packets at least twice
    grid = default_grid(calls[0][0], POINTS)
    for geom, pair in calls + calls[:1]:
        js = JointState(geom, pair)
        kept = intensity_direct(grid, js)
        assert kept.tobytes() == intensity_direct(grid.xs(), js).tobytes()
        _assert_routes_agree(kept, js, grid.xs())


@settings(max_examples=60, deadline=None)
@given(geometries, pairs, unequal_amps)
def test_direct_is_the_four_term_expansion(geom, pair, amps):
    js = JointState(geom, pair, amps)
    xs = default_grid(geom, POINTS).xs()
    g1, g2 = _packets(xs, geom)
    a1, a2 = js.path_amps
    # 2 |a1 g1 d1 + a2 g2 d2|^2, expanded with the detector overlap
    cross = np.conj(a1 * g1) * a2 * g2 * inner_product(pair.d1, pair.d2)
    expected = 2.0 * (abs(a1 * g1) ** 2 + abs(a2 * g2) ** 2 + 2.0 * cross.real)
    got = intensity_direct(xs, js)
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(expected)


@settings(max_examples=60, deadline=None)
@given(geometries, pairs, unequal_amps, bases)
def test_eraser_is_complete(geom, pair, amps, basis):
    js = JointState(geom, pair, amps)
    grid = default_grid(geom, POINTS)
    er = conditional_patterns(grid, js, basis)
    direct = pattern_on_grid(grid, js).intensity
    assert np.max(np.abs(er.i_b.intensity + er.i_b_perp.intensity - direct)) \
        <= 1e-12 * np.max(direct)
    assert sum(er.branch_weights) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("wavelength, screen_dist", [(5e-7, 1.0), (4e-7, 0.5), (6e-7, 2.0)])
def test_kept_arrays_are_the_packet_products(wavelength, screen_dist):
    geom = Geometry(wavelength, 1e-4, screen_dist, 1e-5)
    grid = default_grid(geom)
    kept = grid._packets(geom)
    g1, g2 = _packets(grid.xs(), geom)
    cross = np.conj(g1) * g2
    peak = np.max(np.abs(g1) ** 2)
    for got, want in ((kept.mod1, np.abs(g1) ** 2), (kept.mod2, np.abs(g2) ** 2),
                      (kept.cross_re, cross.real), (kept.cross_im, cross.imag)):
        assert np.max(np.abs(got - want)) <= 1e-13 * peak
        with pytest.raises(ValueError):
            got[0] = 1.0


def _copying_clamp(weights, branches):
    """The clamp/normalize as it was before it worked in place."""
    clamped = [np.where(raw < 0.0, 0.0, raw) for raw in branches]
    total = float(weights @ reduce(np.add, clamped))
    return (*(arr / total for arr in clamped), total)


residue = st.sampled_from([-0.0, 0.0, CLAMP_FLOOR, -5e-324, 5e-324]) \
    | st.floats(CLAMP_FLOOR, 0.0) | st.floats(0.0, 1e3)


@st.composite
def clamp_inputs(draw):
    n = draw(st.integers(2, 300))
    weights = draw(arrays(np.float64, n, elements=st.floats(1e-3, 1.0)))
    branches = draw(st.lists(arrays(np.float64, n, elements=residue), min_size=1, max_size=2))
    return weights, branches


@settings(max_examples=300, deadline=None)
@given(clamp_inputs())
def test_in_place_clamp_equals_copying_clamp(data):
    weights, branches = data
    # a tiny total overflows the division alike in both forms
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        expected = _copying_clamp(weights, [b.copy() for b in branches])
        assume(expected[-1] > 0.0)
        got = _clamp_and_normalize(weights, branches)
    assert got[-1] == expected[-1]
    for arr, original, want in zip(got, branches, expected):
        assert arr is original
        assert arr.tobytes() == want.tobytes()


def _kernel_bytes(js, equal_js, basis, xs, n_points):
    """Every kernel's result at xs, and on a fresh n-point grid, as bytes."""
    results = [intensity_direct(xs, js), intensity_closed_form(xs, equal_js),
               *closed_form_parts(xs, equal_js)]
    if n_points >= 2:
        # resolves the fringes however few its points
        half = min(5.0, (n_points - 1) / 20.0) * fringe_width(js.geom)
        results.append(intensity_direct(ScreenGrid(-half, half, n_points), js))
        er = conditional_patterns(ScreenGrid(-half, half, n_points), js, basis)
        results += [er.i_b.intensity, er.i_b_perp.intensity, er.i_sum.intensity,
                    np.array([*er.branch_weights, er.i_b.norm_constant])]
    if len(xs) == 1:
        x = float(xs[0])
        results += [np.float64(intensity_direct(x, js)),
                    np.float64(intensity_closed_form(x, equal_js)),
                    np.array(closed_form_parts(x, equal_js))]
    return [r.tobytes() for r in results]


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("n_points", [1, 2, 8191, 8192, 8193, 3 * 8192 + 5])
@settings(max_examples=6, deadline=None)
@given(geometries, pairs, unequal_amps, bases)
def test_blocks_are_bit_identical_to_one_block(n_points, shuffled, geom, pair, amps, basis):
    js, equal_js = JointState(geom, pair, amps), JointState(geom, pair)
    xs = default_grid(geom, max(n_points, 2)).xs()[:n_points]
    if shuffled:
        xs = np.random.default_rng(n_points).permutation(xs)
    blocked = _kernel_bytes(js, equal_js, basis, xs, n_points)
    with mock.patch.object(pattern, "_BLOCK", n_points):
        assert _kernel_bytes(js, equal_js, basis, xs, n_points) == blocked
