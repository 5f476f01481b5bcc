"""The real-arithmetic branch kernel behind the direct and conditional routes.

Its kept arrays are |g1|^2, |g2|^2 and conj(g1) g2 of the complex packets;
their cross phase's cos and sin, taken from the tangent of the half phase,
match np.cos and np.sin; the direct route agrees with the closed form on
any path weights and with the four-term complex expansion; the eraser
branches add up to the direct pattern, each is the closed form on its
outcome's path state, and the path states of a basis's outcomes add up to
the unconditioned one; the in-place clamp equals the old copying one bit for bit;
the direct pattern and its which-way reference, read from the kept
which-way sum, equal two full combines of freshly evolved packets bit for
bit, however one grid is reused; the closed form's samples are read
against their own envelope, evolve no packet, and read the direct route's
visibility; kernels evaluated in blocks, on 1-D or 2-D positions, equal one
evaluation over all the points bit for bit; and the visibility estimator,
which finds the fringe lobe in a half-length, power-of-two spectrum, reads
what one spectrum of every sample reads inside its regime, and on grids
that cut the envelope reads apart from it by a pinned gap.
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
    DetectorState, Geometry, JointState, MeasurementBasis, ScreenGrid, closed_form_on_grid,
    closed_form_parts, conditional_patterns, default_grid, effective_tau, evolved_amplitude,
    fringe_width, inner_product, intensity_closed_form, intensity_direct, make_detector_pair,
    pattern_on_grid, rotated_basis,
)
from whichway import analysis, numeric_visibility, pattern  # noqa: E402
from whichway.packets import spread_sigma  # noqa: E402
from whichway.pattern import CLAMP_FLOOR, _clamp_and_normalize  # noqa: E402

# slit separation 8-20 packet widths and an evolved width of several slit
# separations: the estimator's far-field regime
geometries = st.builds(
    lambda lam, dist, sep, ratio: Geometry(lam, sep, dist, sep / ratio),
    st.floats(4e-7, 6e-7), st.floats(0.5, 2.0), st.floats(5e-5, 2e-4), st.floats(8.0, 20.0),
)
pairs = st.builds(make_detector_pair, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))
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
#: Enough points to cross two or more kernel block boundaries into a
#: shorter last block.
PAST_BLOCKS = 3 * pattern._BLOCK + 5


def _packets(xs, geom):
    tau = effective_tau(geom)
    return (evolved_amplitude(xs, +0.5 * geom.slit_sep, geom.packet_width, tau),
            evolved_amplitude(xs, -0.5 * geom.slit_sep, geom.packet_width, tau))


def _assert_routes_agree(direct, env, intf):
    """Pointwise agreement to 1e-10 of the local incoherent sum (the closed
    form's envelope), which stays meaningful at dark fringes; the 1e-300
    floor admits underflow far out on a grid made for another geometry."""
    assert np.all(np.abs(direct - (env + intf)) <= 1e-10 * env + 1e-300)


# the amplitudes cover every w1 in [0, 1] and, with the pairs, every
# |c| <= sqrt(w1 w2)
@settings(max_examples=60, deadline=None)
@given(geometries, pairs, unequal_amps)
def test_direct_matches_closed_form_on_positions(geom, pair, amps):
    js = JointState(geom, pair, amps)
    xs = default_grid(geom, POINTS).xs()
    _assert_routes_agree(intensity_direct(xs, js), *closed_form_parts(xs, js))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(geometries, pairs, unequal_amps), min_size=2, max_size=4),
       st.sampled_from([POINTS, PAST_BLOCKS]))
def test_direct_matches_closed_form_on_one_kept_grid(calls, n_points):
    # one grid serves every geometry, and the first comes back at the end,
    # so the kept packets change hands at least twice; on the longer grid
    # the positions route evolves each block in one reused scratch, across
    # block boundaries into a shorter last block
    grid = default_grid(calls[0][0], n_points)
    for geom, pair, amps in calls + calls[:1]:
        js = JointState(geom, pair, amps)
        kept = intensity_direct(grid, js)
        assert kept.tobytes() == intensity_direct(grid.xs(), js).tobytes()
        _assert_routes_agree(kept, *closed_form_parts(grid.xs(), js))


@settings(max_examples=60, deadline=None)
@given(geometries, pairs, unequal_amps, bases)
def test_eraser_branches_are_the_closed_form_on_their_path_states(geom, pair, amps, basis):
    # the eraser across the two routes: each branch, un-normalized, is the
    # closed form on the path state conditioned on its outcome, so the
    # branches' sum is the unconditioned closed form
    js = JointState(geom, pair, amps)
    grid = default_grid(geom, POINTS)
    er = conditional_patterns(grid, js, basis)
    for branch, outcome in ((er.i_b, basis.b1), (er.i_b_perp, basis.b2)):
        out = [np.empty(POINTS) for _ in range(3)]
        parts = pattern._closed_parts(grid.xs(), pattern._spread(geom), js.path_state(outcome), out)
        _assert_routes_agree(branch.intensity * branch.norm_constant, *parts)


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
    weights = [grid._weights @ b.intensity for b in (er.i_b, er.i_b_perp)]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-math.pi, math.pi), unequal_amps,
       st.floats(-math.pi, math.pi))
def test_path_states_of_the_outcomes_add_up_to_the_unconditioned_one(s, theta, amps, angle):
    # the eraser's completeness at its source: sum_b |<b|d_j>|^2 = 1 and
    # sum_b conj(<b|d1>) <b|d2> = <d1|d2>
    geom = Geometry(5e-7, 1e-4, 1.0, 1e-5)
    js = JointState(geom, make_detector_pair(s, theta), amps)
    basis = rotated_basis(angle)
    outcomes = [js.path_state(b) for b in (basis.b1, basis.b2)]
    for whole, parts in zip(js.path_state(), zip(*outcomes)):
        assert abs(sum(parts) - whole) <= 1e-15
    er = conditional_patterns(default_grid(geom, 128), js, basis)
    # each branch's reference holds the packets and its path weights
    for whole, parts in zip(er.i_sum.reference[1:],
                            zip(er.i_b.reference[1:], er.i_b_perp.reference[1:])):
        assert abs(sum(parts) - whole) <= 1e-15


# the ranges of the in-schema configs in test_properties.py, packets that
# overlap at the slits included
schema_geometries = st.builds(Geometry, st.floats(4e-7, 6e-7), st.floats(5e-5, 2e-4),
                              st.floats(0.5, 2.0), st.floats(2.5e-6, 2.5e-5))
any_amps = st.just((math.sqrt(0.5), math.sqrt(0.5))) | unequal_amps


def _two_combines(grid, js):
    """The direct pattern, its norm_constant and its which-way reference as
    two full combines of freshly evolved packets: _combine with the cross
    weight c, normalized, and _combine with c = 0, divided by the
    norm_constant."""
    packets = pattern._evolve(grid.xs(), js.geom)
    a1, a2 = js.path_amps
    w1, w2 = abs(a1) ** 2, abs(a2) ** 2
    c = a1.conjugate() * a2 * inner_product(js.pair.d1, js.pair.d2)
    raw = pattern._combine(packets, [(w1, w2, c)])[0]
    intensity, total = _clamp_and_normalize(grid._weights, [raw])
    reference = pattern._combine(packets, [(w1, w2, 0.0)])[0] / total
    return intensity.tobytes(), total, reference.tobytes()


def _kept_sum_bits(grid, js):
    """What pattern_on_grid and which_way give for js on grid, in the form
    of _two_combines."""
    samples = pattern_on_grid(grid, js)
    return samples.intensity.tobytes(), samples.norm_constant, samples.which_way().tobytes()


@pytest.mark.filterwarnings("ignore:slit_sep:UserWarning")
@settings(max_examples=80, deadline=None)
@given(schema_geometries, pairs, any_amps, st.sampled_from([128, POINTS, PAST_BLOCKS]))
def test_kept_which_way_sum_gives_the_bits_of_two_combines(geom, pair, amps, n_points):
    js = JointState(geom, pair, amps)
    grid = default_grid.__wrapped__(geom, n_points)
    fresh = ScreenGrid(grid.x_min, grid.x_max, grid.n_points)
    assert _kept_sum_bits(grid, js) == _two_combines(fresh, js)


def test_one_grid_reused_across_geometries_and_path_weights_keeps_the_bits(uncached):
    # geometry A, then B, then A again, each with two sets of path weights
    # and back, and an eraser's which-way reference in between: the kept
    # packets and which-way sum change hands, and every pattern and
    # reference equals one from freshly evolved packets
    near, far = Geometry(5e-7, 1e-4, 1.0, 1e-5), Geometry(5e-7, 1e-4, 2.0, 1e-5)
    shared = ScreenGrid(-0.02, 0.02, 2048)
    amp_sets = [(math.sqrt(0.5), math.sqrt(0.5)), (0.6, 0.8j), (math.sqrt(0.5), math.sqrt(0.5))]
    basis = MeasurementBasis(DetectorState(0.8, 0.6), DetectorState(0.6, -0.8))
    for geom in (near, far, near):
        for amps in amp_sets:
            js = JointState(geom, make_detector_pair(0.7, 0.4), amps)
            fresh = ScreenGrid(shared.x_min, shared.x_max, shared.n_points)
            assert _kept_sum_bits(shared, js) == _two_combines(fresh, js)
            reference = conditional_patterns(shared, js, basis).i_b.which_way()
            fresh_eraser = uncached(conditional_patterns, fresh, js, basis)
            assert reference.tobytes() == fresh_eraser.i_b.which_way().tobytes()


def test_closed_form_samples_are_read_against_their_own_envelope(uncached):
    # reading V from the closed form's samples evolves no packet: the
    # envelope is their reference, read-only, and which_way copies it
    geom = Geometry(5e-7, 1e-4, 1.0, 1e-5)
    js = JointState(geom, make_detector_pair(0.6, 0.3))
    samples, envelope, _ = closed_form_on_grid(default_grid(geom), js)
    with mock.patch.object(pattern, "_evolve", wraps=pattern._evolve) as evolve:
        v = uncached(numeric_visibility, samples)
        ref = samples.which_way()
    assert evolve.call_count == 0
    assert v == pytest.approx(0.6, abs=1e-2)
    assert samples.reference is envelope and not envelope.flags.writeable
    assert ref is not envelope and ref.flags.writeable and ref.tobytes() == envelope.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.floats(8.0, 16.0), st.floats(0.3, 3.0), st.floats(0.05, 0.99), st.floats(0.0, 1.0),
       st.floats(-math.pi, math.pi))
def test_both_routes_read_one_visibility(ratio, screen_dist, weight, s, theta):
    # V from the closed form's samples against their envelope and from the
    # direct route's against their packets' which-way sum: two readings of
    # one V, derived apart, on any path weights.  Each pattern's rounding
    # against its reference leaves about 1e-17 of V whatever s, so the bound
    # has a floor: s = 4e-7 reads 1.8e-18 apart, 4.4e-12 s
    geom = Geometry(5e-7, 1e-4, screen_dist, 1e-4 / ratio)
    amps = (math.sqrt(weight), math.sqrt(1.0 - weight))
    js = JointState(geom, make_detector_pair(s, theta), amps)
    grid = default_grid(geom)
    closed = numeric_visibility(closed_form_on_grid(grid, js)[0])
    assert abs(closed - numeric_visibility(pattern_on_grid(grid, js))) <= 1e-14 * s + 1e-16


@pytest.mark.parametrize("wavelength, screen_dist", [(5e-7, 1.0), (4e-7, 0.5), (6e-7, 2.0)])
def test_kept_arrays_are_the_packet_products(wavelength, screen_dist):
    geom = Geometry(wavelength, 1e-4, screen_dist, 1e-5)
    grid = default_grid(geom)
    kept = pattern._packets(grid, geom)
    g1, g2 = _packets(grid.xs(), geom)
    cross = np.conj(g1) * g2
    peak = np.max(np.abs(g1) ** 2)
    for got, want in ((kept.mod1, np.abs(g1) ** 2), (kept.mod2, np.abs(g2) ** 2),
                      (kept.cross_re, cross.real), (kept.cross_im, cross.imag)):
        assert np.max(np.abs(got - want)) <= 1e-13 * peak
        with pytest.raises(ValueError):
            got[0] = 1.0


def _unit_packets(xs, scale):
    """_evolve's kept arrays at positions xs for a stand-in geometry whose
    Gaussian factors are 1, so that cross_re and cross_im are cos and sin of
    the cross phase.

    Slits at +-1 m and q = 1/beta = -i scale give the phase
    phi = Im(q) (u1 - u2) = 4 scale x; with scale a power of two, phi and
    phi/2 are exact.
    """
    beta = 1.0 / complex(0.0, -scale)
    assert 1.0 / beta == complex(0.0, -scale)
    with mock.patch.object(pattern, "evolution_constants", lambda eps, tau: (1.0, beta)):
        return pattern._evolve(np.asarray(xs, dtype=float), Geometry(5e-7, 2.0, 1.0, 1e-5))


FAR = 2.0**598  # scale for phases past 1e150, so that (x -+ 1)^2 stays finite


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("phases, scale", [
    ([0.0, -0.0, 5e-324, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1e5, 1e15], 0.25),
    ([1e300, -1e300], FAR),
    (np.random.default_rng(14).uniform(-1e4, 1e4, PAST_BLOCKS), 0.25),
], ids=["special", "huge", "spread"])
def test_half_angle_form_matches_cos_and_sin(phases, scale):
    kept = _unit_packets(np.divide(phases, 4.0 * scale), scale)
    assert np.all(kept.mod1 == 1.0) and np.all(kept.mod2 == 1.0)
    assert np.max(np.abs(kept.cross_re - np.cos(phases))) <= 4.5e-16
    assert np.max(np.abs(kept.cross_im - np.sin(phases))) <= 4.5e-16


@pytest.mark.filterwarnings("error")
def test_non_finite_phases_give_nan():
    # at x = +-1e150 the phase 4 FAR x overflows to +-inf while the Gaussian
    # factors stay 1; a NaN position makes a NaN phase
    kept = _unit_packets([1e150, -1e150, math.nan], FAR)
    assert np.all(kept.mod1[:2] == 1.0)
    assert np.all(np.isnan(kept.cross_re)) and np.all(np.isnan(kept.cross_im))


@settings(max_examples=60, deadline=None)
@given(geometries)
def test_cross_term_modulus_is_the_product_of_the_moduli(geom):
    # |conj(g1) g2|^2 = |g1|^2 |g2|^2 whatever the phase, with no libm
    # function or closed form to compare with
    kept = pattern._packets(default_grid(geom, POINTS), geom)
    product = kept.mod1 * kept.mod2
    modulus = kept.cross_re**2 + kept.cross_im**2
    assert np.all(np.abs(modulus - product) <= 1e-14 * product)


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


def _position_bytes(js, xs):
    """The results of the kernels on positions at xs, as bytes."""
    results = [intensity_direct(xs, js), intensity_closed_form(xs, js), *closed_form_parts(xs, js)]
    return [r.tobytes() for r in results]


def _kernel_bytes(js, basis, xs, n_points):
    """Every kernel's result at xs, and on a fresh n-point grid, as bytes."""
    results = []
    if n_points >= 2:
        # resolves the fringes however few its points
        half = min(5.0, (n_points - 1) / 20.0) * fringe_width(js.geom)
        results.append(intensity_direct(ScreenGrid(-half, half, n_points), js))
        grid = ScreenGrid(-half, half, n_points)
        er = conditional_patterns(grid, js, basis)
        results += [er.i_b.intensity, er.i_b_perp.intensity, er.i_sum.intensity,
                    np.array([grid._weights @ er.i_b.intensity,
                              grid._weights @ er.i_b_perp.intensity, er.i_b.norm_constant])]
    if len(xs) == 1:
        x = float(xs[0])
        results += [np.float64(intensity_direct(x, js)),
                    np.float64(intensity_closed_form(x, js)),
                    np.array(closed_form_parts(x, js))]
    return _position_bytes(js, xs) + [r.tobytes() for r in results]


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("n_points", [1, 2, pattern._BLOCK - 1, pattern._BLOCK,
                                      pattern._BLOCK + 1, PAST_BLOCKS])
@settings(max_examples=6, deadline=None)
@given(geometries, pairs, unequal_amps, bases)
def test_blocks_are_bit_identical_to_one_block(n_points, shuffled, geom, pair, amps, basis):
    js = JointState(geom, pair, amps)
    xs = default_grid(geom, max(n_points, 2)).xs()[:n_points]
    if shuffled:
        xs = np.random.default_rng(n_points).permutation(xs)
    blocked = _kernel_bytes(js, basis, xs, n_points)
    # a 2-D array is cut into blocks of its rows, and its scratch is shaped
    # like them: a column of many blocks, and a row that is one block
    for shaped in (xs.reshape(-1, 1), xs.reshape(1, -1)):
        assert _position_bytes(js, shaped) == blocked[:4]
    with mock.patch.object(pattern, "_BLOCK", n_points):
        assert _kernel_bytes(js, basis, xs, n_points) == blocked


def _full_spectrum_visibility(samples):
    """numeric_visibility with the fringe lobe found in one rfft of all n
    weighted samples, not of every other one zero-padded to a power of two:
    the reference for the estimator's lobe search."""
    ref = samples.which_way()
    r = samples.intensity - ref
    if np.all(np.abs(r) < analysis.FLATNESS_RTOL * samples.intensity.max()):
        return 0.0
    r *= samples.grid._weights
    spectrum = np.abs(np.fft.rfft(r))
    j = 1 + int(np.argmax(spectrum[1:-1]))
    lm, l0, lp = np.log(spectrum[j - 1:j + 2])
    freq = j + 0.5 * (lm - lp) / (lm - 2.0 * l0 + lp)
    modulus = analysis._dft_modulus(r, 2.0 * math.pi * freq / len(r))
    return min(2.0 * modulus / float(samples.grid._weights @ ref), 1.0)


@settings(max_examples=60, deadline=None)
@given(geometries, pairs, st.sampled_from([128, 4097, 8192, 8193, 16385, 3 * 8192 + 5]))
def test_half_length_lobe_search_reads_what_the_full_spectrum_reads(geom, pair, n_points):
    # the estimator's regime: a grid that holds the envelope to 7.5 sigma_t
    # and resolves the fringes (default_grid cuts the envelope past about
    # 9 packet widths, where the lobe is no longer a Gaussian and the two
    # searches, on different bins for odd counts, read apart)
    w = fringe_width(geom)
    half = max(5.0 * w, 7.5 * spread_sigma(geom.packet_width, effective_tau(geom)))
    assume(2.0 * half / (n_points - 1) <= w / 8.0)
    samples = pattern_on_grid(ScreenGrid(-half, half, n_points), JointState(geom, pair))
    expected = _full_spectrum_visibility(samples)
    assert abs(numeric_visibility(samples) - expected) <= 1e-13 * pair.overlap_mag


@pytest.mark.parametrize("geom, overlap, phase, grid, apart", [
    # 1000 points over +-3.3 fringe widths, +-2.1 sigma_t, at d = 19.8 eps
    (Geometry(4.7147350919600273e-07, 1.5503382859782266e-04, 0.9864872650740643,
              7.834136065758588e-06), 0.21877355907286744, 1.4544896708435058,
     ScreenGrid(-0.00996834122475366, 0.00996834122475366, 1000), 1.250e-4),
    # 16385 points over +-1.6 fringe widths and sigma_t at d = 12.6 eps, the
    # widest gap of 200 seeded configs of tools/compare_trees.py
    (Geometry(5.298852279059951e-07, 1.0397679204729188e-04, 1.6631688423585191,
              8.256212909803708e-06), 0.3681592784522497, 0.60530361965818,
     ScreenGrid(-0.013492859642233823, 0.013492859642233823, 16385), 3.385e-3),
])
def test_out_of_regime_the_two_lobe_searches_read_apart(geom, overlap, phase, grid, apart):
    # a grid that cuts the envelope leaves the lobe non-Gaussian, so the
    # 3-point refinement depends on which bins it reads, and those differ
    # for a count that is not a power of two: the half-length search reads
    # far more than 1e-13 s from the full-length one, by the measured gap,
    # and both are up to about 6e-3 s off V*
    samples = pattern_on_grid(grid, JointState(geom, make_detector_pair(overlap, phase)))
    got, full = numeric_visibility(samples), _full_spectrum_visibility(samples)
    assert abs(got - full) / overlap == pytest.approx(apart, rel=1e-3)
    sigma_t = spread_sigma(geom.packet_width, effective_tau(geom))
    v_star = overlap * math.exp(-geom.slit_sep**2 / (8.0 * sigma_t**2))
    for v in (got, full):
        assert abs(v - v_star) < 1e-2 * overlap
