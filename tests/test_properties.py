"""Property tests: the qubit sum uncertainty over random Bloch vectors,
byte-determinism of every subcommand over random in-schema configs, and one
exit code with at most one stderr line over the whole float range."""
import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from whichway import PAULI_X, state_from_bloch, sum_uncertainty  # noqa: E402
from whichway.cli import main  # noqa: E402

components = st.floats(-1.0, 1.0)


@st.composite
def bloch_vectors(draw):
    # a first component of exactly 0 draws from the <sigma_x> = 0 great circle
    v = (draw(st.just(0.0) | components), draw(components), draw(components))
    norm = math.sqrt(sum(c * c for c in v))
    assume(norm > 1e-3)
    return tuple(c / norm for c in v)


@settings(max_examples=200, deadline=None)
@given(bloch_vectors())
def test_sum_uncertainty_is_one_plus_sigma_x_squared(n):
    state = state_from_bloch(*n)
    _, _, total = sum_uncertainty(state)
    sx = PAULI_X.expectation(state)
    assert total >= 1.0 - 1e-12
    # so the bound is met within 1e-12 exactly where <sigma_x> = 0
    assert abs(total - (1.0 + sx * sx)) <= 1e-12
    if n[0] == 0.0:
        assert abs(total - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# CLI byte-determinism
# ---------------------------------------------------------------------------

angles = st.floats(-math.pi, math.pi)
# every overlap and every phase: make_detector_pair accepts any s in [0, 1],
# and the visibility estimator reads every phase alike
overlaps = st.floats(0.0, 1.0)
phases = angles
formats = st.sampled_from(["csv", "json"])


@st.composite
def run_configs(draw, with_grid=True):
    geometry = {
        "lambda_d": draw(st.floats(4e-7, 6e-7)),
        "slit_sep": draw(st.floats(5e-5, 2e-4)),
        "screen_dist": draw(st.floats(0.5, 2.0)),
        "packet_width": draw(st.floats(2.5e-6, 2.5e-5)),
    }
    cfg = {
        "geometry": geometry,
        "detector": {"overlap": draw(overlaps), "phase": draw(phases)},
        "eraser": {"enabled": True, "basis_angle": draw(angles)},
    }
    if with_grid:
        # 1-3 fringe widths either side, always fine enough to resolve them
        w = geometry["lambda_d"] * geometry["screen_dist"] / geometry["slit_sep"]
        half = draw(st.floats(1.0, 3.0)) * w
        cfg["grid"] = {"x_min": -half, "x_max": half, "n_points": draw(st.integers(64, 512))}
    if draw(st.booleans()):
        cfg["output"] = {"format": draw(formats)}
    return cfg


sweep_values = {
    "overlap": overlaps,
    "phase": phases,
    "packet_width": st.floats(2.5e-6, 2.5e-5),
    "screen_dist": st.floats(0.5, 2.0),
}


@st.composite
def sweep_configs(draw):
    param = draw(st.sampled_from(sorted(sweep_values)))
    return {
        "base": draw(run_configs(with_grid=False)),
        "sweep_param": param,
        "values": draw(st.lists(sweep_values[param], min_size=1, max_size=3)),
    }


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("command", ["pattern", "eraser", "bohr", "scan-duality"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_configured_subcommands_are_byte_deterministic(command, data):
    cfg = data.draw(sweep_configs() if command == "scan-duality" else run_configs())
    flags = data.draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = [command, "--config", path, *flags]
        first = _run(argv)
        assert first[0] == 0
        assert _run(argv) == first


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 300), st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))
def test_uncertainty_scan_is_byte_deterministic(samples, flags):
    argv = ["uncertainty-scan", "--samples", str(samples), *flags]
    first = _run(argv)
    assert first[0] == 0
    assert _run(argv) == first


# ---------------------------------------------------------------------------
# the whole float range: every failure is one line and an exit code
# ---------------------------------------------------------------------------

# log-uniform from the smallest subnormal to near the largest float
lengths = st.floats(math.log(5e-324), math.log(1.7e308)).map(
    lambda t: min(max(math.exp(t), 5e-324), 1.7e308))
finite = st.floats(allow_nan=False, allow_infinity=False)
positions = st.just(0.0) | st.builds(lambda sign, v: sign * v, st.sampled_from([-1.0, 1.0]),
                                     lengths)
any_sweep_values = {
    "overlap": st.floats(0.0, 1.0),
    "phase": finite,
    "packet_width": lengths,
    "screen_dist": lengths,
}


@st.composite
def any_configs(draw):
    """A subcommand and an in-schema config for it, with lengths anywhere in
    the float range."""
    command = draw(st.sampled_from(["pattern", "eraser", "bohr", "scan-duality"]))
    names = ("lambda_d", "slit_sep", "screen_dist", "packet_width")
    cfg = {
        "geometry": {name: draw(lengths) for name in names},
        "detector": {"overlap": draw(st.floats(0.0, 1.0)), "phase": draw(finite)},
        "eraser": {"enabled": True, "basis_angle": draw(finite)},
    }
    if draw(st.booleans()):
        x_min, x_max = sorted((draw(positions), draw(positions)))
        assume(x_min < x_max)
        cfg["grid"] = {"x_min": x_min, "x_max": x_max, "n_points": draw(st.integers(64, 512))}
    if command == "scan-duality":
        param = draw(st.sampled_from(sorted(any_sweep_values)))
        values = draw(st.lists(any_sweep_values[param], min_size=1, max_size=3))
        cfg = {"base": cfg, "sweep_param": param, "values": values}
    return command, cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_configs())
# a sweep whose intensities near 1e300 once overflowed the estimator's
# envelope fit, held here whatever Hypothesis draws
@example(("scan-duality", {
    "base": {"geometry": {"lambda_d": 1.586e15, "slit_sep": 1.0, "screen_dist": 3.1e-169,
                          "packet_width": 1.0},
             "detector": {"overlap": 0.0, "phase": 0.0},
             "eraser": {"enabled": True, "basis_angle": 0.0}},
    "sweep_param": "packet_width", "values": [1.2254e-156]}))
def test_any_float_range_config_ends_in_an_exit_code(command_and_cfg):
    command, cfg = command_and_cfg
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out_path = os.path.join(tmp, "out")
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
            # a RuntimeWarning is a kernel leaving the float range without
            # saying so, and fails the test.  The geometry's UserWarning that
            # the packets overlap at the slits is advice, not a failure.
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)
            code = main([command, "--config", path, "--out", out_path])
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert not os.path.exists(out_path)
