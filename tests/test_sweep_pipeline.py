"""The scan-duality pipeline shares work across sweep values without
changing a bit: its rows equal per-value duality reports, and the in-package
envelope fit equals NumPy's polyfit/polyval."""
import json
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from whichway import (  # noqa: E402
    Geometry, JointState, ScreenGrid, conditional_patterns, default_grid, duality_report,
    make_detector_pair, pattern_on_grid, rotated_basis,
)
from whichway.analysis import _horner, _quartic_fit  # noqa: E402
from whichway.cli import main  # noqa: E402

P = np.polynomial.polynomial

GEOMETRY = {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0, "packet_width": 1e-5}
GRID = {"x_min": -0.025, "x_max": 0.025, "n_points": 4096}
COLUMNS = ["s", "D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs", "rhs_unc", "egy_ok", "unc_ok"]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _outcome(fn, *args, **kwargs):
    """(value, exception type, warning categories) of one call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = fn(*args, **kwargs), None
        except np.linalg.LinAlgError as exc:
            value, error = None, type(exc)
    return value, error, [w.category for w in caught]


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
samples = st.integers(1, 300).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=finite),
    arrays(np.float64, n, elements=finite),
    arrays(np.float64, n, elements=st.floats(0.0, 1e3)),
))


@settings(max_examples=200, deadline=None)
@given(samples)
def test_quartic_fit_is_polyfit_bit_for_bit(data):
    x, y, w = data
    ref, ref_error, ref_warnings = _outcome(P.polyfit, x, y, 4, w=w)
    got, error, got_warnings = _outcome(_quartic_fit, x, y, w)
    assert (error, got_warnings) == (ref_error, ref_warnings)
    if ref_error is None:
        assert _bits(got) == _bits(ref)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, 5, elements=finite),
       st.integers(1, 300).flatmap(lambda n: arrays(np.float64, n, elements=finite)))
def test_horner_is_polyval_bit_for_bit(coeffs, x):
    assert _bits(_horner(coeffs, x)) == _bits(P.polyval(x, coeffs))


def test_quartic_fit_reuses_one_buffer_across_sizes():
    # a later, smaller fit runs on a strided view of the kept buffer
    rng = np.random.default_rng(7)
    for n in (5000, 40, 4999, 5001):
        x, y, w = rng.normal(size=n), rng.normal(size=n), rng.uniform(0, 2, size=n)
        assert _bits(_quartic_fit(x, y, w)) == _bits(P.polyfit(x, y, 4, w=w))


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
