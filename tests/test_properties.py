"""Property tests: the qubit sum uncertainty over random Bloch vectors, and
byte-determinism of every subcommand over random in-schema configs."""
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
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
# two known defects kept out, as in the benchmark's inputs: overlaps in
# (0, 1e-4), and detector phases past +-pi/2 that reach the visibility estimator
overlaps = st.just(0.0) | st.floats(1e-3, 1.0)
phases = st.floats(-math.pi / 2, math.pi / 2)
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
