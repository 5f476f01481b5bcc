"""The scan-duality pipeline shares work across sweep values without
changing a bit: its rows equal per-value duality reports.  The envelope fit
of oscillatory_residual (NumPy's polyfit) reads the same residual at every
intensity scale and warns when fewer than five samples are fitted.  The
visibility estimator takes at most one spectrum per pattern: its
fringe-free verdict against the which-way reference agrees with the
all-samples residual, its block-split demodulation sum agrees with the
direct sum, and its visibility keeps every pure detector state within the
duality bound.  default_grid keeps the last grid it made, so duality
reports for many detector states on one geometry evolve the packets
once; an overlap or phase sweep also sums their moduli once, a screen_dist
sweep once per value."""
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from whichway import (  # noqa: E402
    Geometry, JointState, PatternSamples, ScreenGrid, closed_form_on_grid, conditional_patterns,
    default_grid, duality_report, fringe_width, make_detector_pair, pattern_on_grid,
    rotated_basis,
)
from whichway import pattern  # noqa: E402
from whichway.analysis import (  # noqa: E402
    DUALITY_TOL, FLATNESS_RTOL, _dft_modulus, distinguishability,
    numeric_visibility, oscillatory_residual,
)
from whichway.cli import main  # noqa: E402
from whichway.packets import effective_tau, spread_sigma  # noqa: E402

GEOMETRY = {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0, "packet_width": 1e-5}
GRID = {"x_min": -0.025, "x_max": 0.025, "n_points": 4096}
COLUMNS = ["s", "D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs", "rhs_unc", "egy_ok", "unc_ok"]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overlap", [0.0, 0.6])
def test_envelope_fit_holds_float_range_intensities(overlap):
    # the fit runs on the samples scaled by a power of two, so the residual
    # is the same number at every scale, up to the edge of the float range
    geom = Geometry(5e-7, 1e-4, 1.0, 1e-5)
    samples = pattern_on_grid(default_grid(geom),
                              JointState(geom, make_detector_pair(overlap, 0.3)))
    residual = oscillatory_residual(samples)
    for k in (-900, -200, 200, 996):
        scaled = PatternSamples(samples.grid, samples.intensity * 2.0**k, samples.norm_constant,
                                samples.geom, samples.path_weights)
        assert oscillatory_residual(scaled) == residual
    assert float(scaled.intensity.max()) > 1e300


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [1, 3, 4, 5])
def test_envelope_fit_warns_below_five_fitted_samples(count):
    # samples at 1e-13 of the peak lie under the fit's 1e-12 floor; with
    # five fitted samples any warning is an error
    geom = Geometry(5e-7, 1e-4, 1.0, 1e-5)
    samples = pattern_on_grid(ScreenGrid(-0.01, 0.01, 64),
                              JointState(geom, make_detector_pair(0.6, 0.3)))
    ys = np.full(64, 1e-13 * float(samples.intensity.max()))
    ys[20:20 + count] = samples.intensity[20:20 + count]
    sparse = PatternSamples(samples.grid, ys, samples.norm_constant, samples.geom,
                            samples.path_weights)
    if count < 5:
        with pytest.warns(np.exceptions.RankWarning):
            residual = oscillatory_residual(sparse)
    else:
        residual = oscillatory_residual(sparse)
    assert math.isfinite(residual)


@st.composite
def in_regime_patterns(draw):
    """Direct patterns inside the estimator's far-field regime (slit
    separation at least 8 packet widths), at every overlap and phase, with
    the detector pair they were made with.  The grid holds the envelope to
    7 sigma_t as well as 5 fringe widths either side: default_grid's 5
    fringe widths alone hold it only while the slit separation stays below
    about 10 packet widths (see test_analysis.py)."""
    slit_sep = draw(st.floats(5e-5, 2e-4))
    geom = Geometry(draw(st.floats(4e-7, 6e-7)), slit_sep, draw(st.floats(0.3, 3.0)),
                    draw(st.floats(3e-6, slit_sep / 8)))
    pair = make_detector_pair(draw(st.floats(0.0, 1.0)), draw(st.floats(-math.pi, math.pi)))
    sigma_t = spread_sigma(geom.packet_width, effective_tau(geom))
    half = max(5.0 * fringe_width(geom), 7.0 * sigma_t)
    return pair, pattern_on_grid(ScreenGrid(-half, half, 8192), JointState(geom, pair))


@settings(max_examples=100, deadline=None)
@given(in_regime_patterns())
def test_pure_states_meet_the_duality_bound(pair_and_samples):
    pair, samples = pair_and_samples
    lhs = distinguishability(pair) ** 2 + numeric_visibility(samples) ** 2
    assert lhs <= 1.0 + DUALITY_TOL


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


# A fringe-free pattern equals its which-way reference to rounding, so the
# estimator gives its verdict before any spectrum.  The thin-packet geometry
# (slit separation 20 packet widths) is one whose default grid cuts the
# envelope; the verdicts do not depend on that.
FRINGE_FREE_GEOMETRIES = {"reference": Geometry(5e-7, 1e-4, 1.0, 1e-5),
                          "thin-packets": Geometry(5e-7, 1e-4, 1.0, 5e-6)}


@pytest.mark.parametrize("phase", [-3.0, -1.0, 0.0, 0.3, 1.5, 3.1])
@pytest.mark.parametrize("name", sorted(FRINGE_FREE_GEOMETRIES))
def test_fringe_free_verdict_on_the_core_agrees_with_the_residual(name, phase):
    geom = FRINGE_FREE_GEOMETRIES[name]
    grid = default_grid(geom)
    js = JointState(geom, make_detector_pair(0.0, phase))
    flat = [pattern_on_grid(grid, js), closed_form_on_grid(grid, js)[0]]
    flat.append(conditional_patterns(grid, js, rotated_basis(math.pi / 4)).i_sum)
    for samples in flat:
        assert numeric_visibility(samples) == 0.0
        assert oscillatory_residual(samples) < FLATNESS_RTOL
    for overlap in (1e-6, 1e-3, 0.3, 1.0):
        samples = pattern_on_grid(grid, JointState(geom, make_detector_pair(overlap, phase)))
        assert numeric_visibility(samples) > 0.0


def _counted_visibility(samples):
    """numeric_visibility of samples and its rfft calls."""
    with mock.patch.object(np.fft, "rfft", wraps=np.fft.rfft) as rfft:
        visibility = numeric_visibility(samples)
    return visibility, rfft.call_count


@pytest.mark.parametrize("name", sorted(FRINGE_FREE_GEOMETRIES))
def test_one_spectrum_per_fringed_pattern_and_none_per_flat_one(name):
    geom = FRINGE_FREE_GEOMETRIES[name]
    grid = default_grid(geom)
    for phase in (-3.0, 0.3, 3.1):
        flat = JointState(geom, make_detector_pair(0.0, phase))
        for samples in (pattern_on_grid(grid, flat), closed_form_on_grid(grid, flat)[0]):
            assert _counted_visibility(samples) == (0.0, 0)
        for overlap in (1e-3, 0.3, 1.0):
            fringed = JointState(geom, make_detector_pair(overlap, phase))
            visibility, spectra = _counted_visibility(pattern_on_grid(grid, fringed))
            assert visibility > 0.0 and spectra == 1


def _counted_sweep(tmp_path, param, values, grid):
    """Run scan-duality over values; the packet evolutions and the which-way
    sums it built, each sum one _combine(packets, [(w1, w2, None)]) call."""
    default_grid.cache_clear()  # so no grid keeps the packets yet
    base = {"geometry": GEOMETRY, "detector": {"overlap": 0.6, "phase": 0.3}}
    if grid:
        base["grid"] = GRID
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"base": base, "sweep_param": param, "values": values}))
    with mock.patch.object(pattern, "_evolve", wraps=pattern._evolve) as evolve, \
            mock.patch.object(pattern, "_combine", wraps=pattern._combine) as combine:
        assert main(["scan-duality", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    sums = [call for call in combine.call_args_list if call.args[1][0][2] is None]
    return evolve.call_count, len(sums)


@pytest.mark.parametrize("grid", [False, True], ids=["default-grid", "configured-grid"])
@pytest.mark.parametrize("param, values", [
    ("overlap", [0.0, 0.3, 0.6, 0.9, 1.0]),
    ("phase", [-3.0, -1.0, 0.2, 1.5, 3.1]),
])
def test_detector_sweep_evolves_and_sums_the_packets_once(tmp_path, param, values, grid):
    assert _counted_sweep(tmp_path, param, values, grid) == (1, 1)


@pytest.mark.parametrize("grid", [False, True], ids=["default-grid", "configured-grid"])
def test_screen_dist_sweep_evolves_and_sums_the_packets_once_per_value(tmp_path, grid):
    values = [1.61, 1.62, 1.63, 1.64]
    assert _counted_sweep(tmp_path, "screen_dist", values, grid) == (4, 4)


SWEEP_VALUES = {
    "overlap": st.floats(0.0, 1.0),
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
            "detector": {"overlap": draw(SWEEP_VALUES["overlap"]),
                         "phase": draw(SWEEP_VALUES["phase"])}}
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
    grid = ScreenGrid(**base["grid"]) if "grid" in base else default_grid.__wrapped__(geometry)
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


def test_default_grid_is_kept_until_other_arguments():
    near = Geometry(5e-7, 1e-4, 1.0, 1e-5)
    grid = default_grid(near)
    assert default_grid(near) is grid
    assert default_grid(Geometry(5e-7, 1e-4, 1.0, 1e-5)) is grid  # an equal geometry
    other = default_grid(Geometry(5e-7, 1e-4, 2.0, 1e-5))
    assert other is not grid and other.x_max != grid.x_max
    assert default_grid(near) is not grid  # the cache holds one grid


def test_duality_reports_on_one_geometry_evolve_the_packets_once():
    # a geometry no other test uses, so no grid with its packets is kept yet
    geom = Geometry(5.5e-7, 1.1e-4, 1.3, 1e-5)
    pairs = [make_detector_pair(s, theta)
             for s, theta in ((0.0, 0.0), (0.3, 1.1), (0.6, 0.3), (0.9, -2.0), (1.0, 3.0))]
    with mock.patch.object(pattern, "_evolve", wraps=pattern._evolve) as evolve:
        reports = [duality_report(geom, pair) for pair in pairs]
    assert evolve.call_count == 1
    kept = default_grid(geom)
    for pair, report in zip(pairs, reports):
        fresh = ScreenGrid(kept.x_min, kept.x_max, kept.n_points)
        ref = duality_report(geom, pair, fresh)
        for name in COLUMNS[1:]:
            assert _bits(getattr(report, name)) == _bits(getattr(ref, name))
