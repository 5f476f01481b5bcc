"""The scan-duality pipeline shares work across sweep values without
changing a bit: its rows equal per-value duality reports.  The in-package
envelope fit agrees with NumPy's polyfit, and its polynomial evaluation
equals polyval bit for bit.  The estimator fits once and takes at most one
spectrum per pattern: its fringe-free verdict on the fitted core agrees with
the all-samples residual, its lobe search starts at the bin NumPy's own
wavenumbers give, and its block-split demodulation sum agrees with the
direct sum."""
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from whichway import (  # noqa: E402
    Geometry, JointState, PatternSamples, ScreenGrid, conditional_patterns, default_grid,
    duality_report, make_detector_pair, pattern_on_grid, rotated_basis,
)
from whichway import analysis  # noqa: E402
from whichway.analysis import (  # noqa: E402
    FLATNESS_RTOL, _dft_modulus, _first_bin_from, _horner, _quartic_fit, numeric_visibility,
    oscillatory_residual,
)
from whichway.cli import main  # noqa: E402

P = np.polynomial.polynomial

GEOMETRY = {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0, "packet_width": 1e-5}
GRID = {"x_min": -0.025, "x_max": 0.025, "n_points": 4096}
COLUMNS = ["s", "D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs", "rhs_unc", "egy_ok", "unc_ok"]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def spread_samples(draw):
    """Samples whose quartic fit is well conditioned: abscissae spread over
    an interval no farther from 0 than its own width, weights within a
    factor 100 of each other."""
    n = draw(st.integers(8, 600))
    scale = draw(st.floats(1e-3, 1e3))
    offset = draw(st.floats(-1.0, 1.0))
    jitter = draw(arrays(np.float64, n, elements=st.floats(-0.4, 0.4)))
    x = scale * (offset + (2 * np.arange(n) + jitter) / (n - 1) - 1)
    # values far from underflow, so every product w y x^i keeps its digits
    sizes = st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6)
    y = draw(arrays(np.float64, n, elements=sizes))
    w = draw(arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
    return scale, x, y, w


@settings(max_examples=200, deadline=None)
@given(st.lists(spread_samples(), min_size=1, max_size=3))
def test_quartic_fit_agrees_with_polyfit(fits):
    for scale, x, y, w in fits:
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.RankWarning)
            got = _quartic_fit(x, y, w)
        ref = P.polyfit(x, y, 4, w=w)
        # compared as coefficients of x / scale, which are all of one size
        powers = scale ** np.arange(5)
        err = np.max(np.abs((got - ref) * powers))
        assert err <= 1e-9 * max(np.max(np.abs(ref * powers)), np.max(np.abs(y)))


@st.composite
def rank_deficient_samples(draw):
    """Samples with fewer than five distinct abscissae of nonzero weight,
    and any number of others of weight 0."""
    values = draw(st.lists(finite, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 300))
    picks = draw(arrays(np.intp, n, elements=st.integers(0, len(values) - 1)))
    w = draw(arrays(np.float64, n, elements=st.just(0.0) | st.floats(1e-3, 1e3)))
    unweighted = draw(arrays(np.float64, st.integers(0, 20), elements=finite))
    x = np.concatenate([np.array(values)[picks], unweighted])
    w = np.concatenate([w, np.zeros(len(unweighted))])
    y = draw(arrays(np.float64, len(x), elements=finite))
    return x, y, w


@settings(max_examples=200, deadline=None)
@given(rank_deficient_samples())
def test_quartic_fit_warns_on_rank_deficient_samples(data):
    x, y, w = data
    with pytest.warns(np.exceptions.RankWarning):
        coeffs = _quartic_fit(x, y, w)
    assert np.all(np.isfinite(coeffs))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, 5, elements=finite),
       st.integers(1, 300).flatmap(lambda n: arrays(np.float64, n, elements=finite)))
def test_horner_is_polyval_bit_for_bit(coeffs, x):
    assert _bits(_horner(coeffs, x)) == _bits(P.polyval(x, coeffs))



def test_quartic_fit_agrees_with_polyfit_on_grid_sized_samples():
    # test_quartic_fit_agrees_with_polyfit draws at most 600 samples
    rng = np.random.default_rng(7)
    for n in (5000, 40, 4999, 5001):
        x, y, w = rng.normal(size=n), rng.normal(size=n), rng.uniform(0, 2, size=n)
        got = _quartic_fit(x, y, w)
        ref = P.polyfit(x, y, 4, w=w)
        assert np.max(np.abs(got - ref)) <= 1e-9 * max(np.max(np.abs(ref)), np.max(np.abs(y)))


@st.composite
def in_regime_patterns(draw):
    """Direct patterns inside the estimator's far-field regime (slit
    separation at least 8 packet widths), at every phase."""
    slit_sep = draw(st.floats(5e-5, 2e-4))
    geom = Geometry(draw(st.floats(4e-7, 6e-7)), slit_sep, draw(st.floats(0.3, 3.0)),
                    draw(st.floats(3e-6, slit_sep / 8)))
    pair = make_detector_pair(draw(st.just(0.0) | st.floats(1e-3, 1.0)),
                              draw(st.floats(-math.pi, math.pi)))
    return pattern_on_grid(default_grid(geom), JointState(geom, pair))


def _polyfit_quartic(x, y, w):
    return P.polyfit(x, y, 4, w=w)


@settings(max_examples=60, deadline=None)
@given(in_regime_patterns())
def test_numeric_visibility_matches_a_polyfit_envelope(samples):
    got = numeric_visibility(samples)
    with mock.patch.object(analysis, "_quartic_fit", _polyfit_quartic):
        ref = numeric_visibility(samples)
    assert abs(got - ref) <= 1e-12


def test_block_split_modulus_is_the_direct_sum():
    # The direct float64 sum rounds each phase k x to half an ulp of itself,
    # up to 9e-13 rad near Nyquist on these grids, which leaves it a few
    # 1e-12 of its own modulus off for random residuals; so both sides are
    # compared on the scale of the summed terms, sum |r|.
    rng = np.random.default_rng(7)
    for n in (2, 3, 4999, 5000, 8192, 8193):
        grid = ScreenGrid(-0.025, 0.025, n)
        xs, h = grid.xs(), grid.spacing()
        for k in np.append(rng.uniform(0.0, math.pi / h, 8), [0.0, math.pi / h]):
            r = rng.normal(size=n)
            ref = math.hypot(r @ np.cos(k * xs), r @ np.sin(k * xs))
            assert abs(_dft_modulus(r, k * h) - ref) <= 1e-12 * np.sum(np.abs(r))


# The flatness test on the fitted core runs before the spectral screen on
# every geometry, so it gives every fringe-free verdict here.  The thin-packet
# geometry is kept because its fringe-free patterns would pass that screen.
FRINGE_FREE_GEOMETRIES = {"reference": Geometry(5e-7, 1e-4, 1.0, 1e-5),
                          "thin-packets": Geometry(5e-7, 1e-4, 1.0, 5e-6)}


@pytest.mark.parametrize("phase", [-3.0, -1.0, 0.0, 0.3, 1.5, 3.1])
@pytest.mark.parametrize("name", sorted(FRINGE_FREE_GEOMETRIES))
def test_fringe_free_verdict_on_the_core_agrees_with_the_residual(name, phase):
    geom = FRINGE_FREE_GEOMETRIES[name]
    grid = default_grid(geom)
    js = JointState(geom, make_detector_pair(0.0, phase))
    flat = [pattern_on_grid(grid, js, mode) for mode in ("direct", "closed_form")]
    flat.append(conditional_patterns(grid, js, rotated_basis(math.pi / 4)).i_sum)
    for samples in flat:
        with mock.patch.object(analysis, "_quartic_fit", wraps=_quartic_fit) as fit:
            assert numeric_visibility(samples) == 0.0
        assert fit.call_count <= 1
        assert oscillatory_residual(samples) < FLATNESS_RTOL
    for overlap in (1e-3, 0.3, 1.0):
        samples = pattern_on_grid(grid, JointState(geom, make_detector_pair(overlap, phase)))
        with mock.patch.object(analysis, "_quartic_fit", wraps=_quartic_fit) as fit:
            assert numeric_visibility(samples) > 0.0
        assert fit.call_count == 1


def _counted_visibility(samples):
    """numeric_visibility of samples, its rfft calls and its envelope fits."""
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft, \
            mock.patch.object(analysis, "_quartic_fit", wraps=_quartic_fit) as fit:
        visibility = numeric_visibility(samples)
    return visibility, rfft.call_count, fit.call_count


@pytest.mark.parametrize("name", sorted(FRINGE_FREE_GEOMETRIES))
def test_one_spectrum_per_fringed_pattern_and_none_per_flat_one(name):
    geom = FRINGE_FREE_GEOMETRIES[name]
    grid = default_grid(geom)
    for phase in (-3.0, 0.3, 3.1):
        flat = JointState(geom, make_detector_pair(0.0, phase))
        for mode in ("direct", "closed_form"):
            assert _counted_visibility(pattern_on_grid(grid, flat, mode)) == (0.0, 0, 1)
        for overlap in (1e-3, 0.3, 1.0):
            fringed = JointState(geom, make_detector_pair(overlap, phase))
            visibility, spectra, fits = _counted_visibility(pattern_on_grid(grid, fringed))
            assert visibility > 0.0 and (spectra, fits) == (1, 1)


def test_moments_reject_a_spike_before_any_fit_or_spectrum():
    # one sample at x = 0 exactly: the variance is exactly 0
    grid = ScreenGrid(-1.0, 1.0, 5)
    spike = PatternSamples(grid, np.array([0.0, 0.0, 2.0, 0.0, 0.0]), 1.0, "direct")
    assert _counted_visibility(spike) == (0.0, 0, 0)


@st.composite
def bin_searches(draw):
    """An rfft size, a sample spacing and cutoffs on, next to, between and
    past the bins' angular wavenumbers."""
    n = draw(st.integers(2, 20000))
    spacing = draw(st.floats(1e-12, 1e3))
    ks = 2.0 * math.pi * np.fft.rfftfreq(n, d=spacing)
    on = [float(ks[j]) for j in draw(st.lists(st.integers(0, len(ks) - 1), max_size=5))]
    near = [math.nextafter(k, direction) for k in on for direction in (-math.inf, math.inf)]
    between = draw(st.lists(st.floats(-1.0, 1.2 * float(ks[-1])), max_size=5))
    return n, spacing, ks, on + near + between + [math.inf]


@settings(max_examples=300, deadline=None)
@given(bin_searches())
def test_first_bin_is_searchsorted_on_the_rfft_wavenumbers(search):
    n, spacing, ks, cutoffs = search
    for cutoff in cutoffs:
        got = _first_bin_from(cutoff, 1.0 / (n * spacing), len(ks))
        assert got == int(np.searchsorted(ks, cutoff))


SWEEP_VALUES = {
    # 0 < s < 1e-4 is a known make_detector_pair defect, kept out here
    "overlap": st.just(0.0) | st.floats(1e-3, 1.0),
    "phase": st.floats(-math.pi, math.pi),
    "screen_dist": st.floats(0.3, 3.0),
    "packet_width": st.floats(3e-6, 1.2e-5),
}


@st.composite
def sweeps(draw):
    param = draw(st.sampled_from(sorted(SWEEP_VALUES)))
    values = draw(st.lists(SWEEP_VALUES[param], min_size=1, max_size=4))
    if draw(st.booleans()):
        values.append(values[-1])  # a run of equal geometries
    base = {"geometry": GEOMETRY,
            "detector": {"overlap": draw(st.floats(1e-3, 1.0)),
                         "phase": draw(st.floats(-1.5, 1.5))}}
    if draw(st.booleans()):
        base["grid"] = GRID
    return {"base": base, "sweep_param": param, "values": values}


def _reference(sweep, value):
    """duality_report for one sweep value, on its own fresh grid."""
    base = sweep["base"]
    geo = dict(base["geometry"])
    overlap, phase = base["detector"]["overlap"], base["detector"]["phase"]
    param = sweep["sweep_param"]
    if param == "overlap":
        overlap = value
    elif param == "phase":
        phase = value
    else:
        geo[param] = value
    geometry = Geometry(geo["lambda_d"], geo["slit_sep"], geo["screen_dist"],
                        geo["packet_width"])
    pair = make_detector_pair(overlap, phase)
    grid = ScreenGrid(**base["grid"]) if "grid" in base else default_grid(geometry)
    return pair.overlap_mag, duality_report(geometry, pair, grid)


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_scan_duality_rows_are_per_value_reports(tmp_path_factory, sweep):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg, out = tmp / "sweep.json", tmp / "out.csv"
    cfg.write_text(json.dumps(sweep))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thick packets warn in Geometry
        assert main(["scan-duality", "--config", str(cfg), "--out", str(out)]) == 0
        expected = [_reference(sweep, v) for v in sweep["values"]]
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == COLUMNS
    assert len(lines) == len(expected) + 1
    for line, (s, rep) in zip(lines[1:], expected):
        cells = line.split(",")
        want = [s] + [getattr(rep, name) for name in COLUMNS[1:]]
        for cell, value in zip(cells, want):
            if isinstance(value, bool):
                assert cell == ("true" if value else "false")
            else:
                assert float(cell).hex() == float(value).hex()


def test_shared_grid_patterns_equal_fresh_grid_patterns():
    # one grid serves several geometries and states, in an order that makes
    # it swap its kept packets; every pattern equals one on a fresh grid
    near = Geometry(5e-7, 1e-4, 1.0, 1e-5)
    far = Geometry(5e-7, 1e-4, 2.0, 1e-5)
    shared = ScreenGrid(**GRID)
    calls = [(near, 0.3, 0.0), (near, 0.8, 1.1), (far, 0.5, -0.7), (near, 1.0, 0.2)]
    for geom, overlap, angle in calls:
        js = JointState(geom, make_detector_pair(overlap, 0.4))
        fresh = ScreenGrid(**GRID)
        assert (_bits(pattern_on_grid(shared, js).intensity)
                == _bits(pattern_on_grid(ScreenGrid(**GRID), js).intensity))
        got = conditional_patterns(shared, js, rotated_basis(angle))
        ref = conditional_patterns(fresh, js, rotated_basis(angle))
        for name in ("i_b", "i_b_perp", "i_sum"):
            assert _bits(getattr(got, name).intensity) == _bits(getattr(ref, name).intensity)
