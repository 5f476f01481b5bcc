"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""
import functools
import json
import math
import time

import numpy as np
import pytest

from whichway import (
    Geometry,
    JointState,
    ScreenGrid,
    bloch_sphere_lattice,
    bohr_analysis,
    conditional_patterns,
    default_grid,
    distinguishability,
    duality_report,
    extrema_positions,
    fringe_width,
    intensity_closed_form,
    intensity_direct,
    make_detector_pair,
    mub_basis,
    oscillatory_residual,
    pattern_on_grid,
    state_from_bloch,
    sum_uncertainty,
    variance,
    visibility_bound,
    PAULI_X,
    PAULI_Z,
)
from whichway.cli import main as cli_main

STANDARD = Geometry(wavelength=5e-7, slit_sep=1e-4, screen_dist=1.0, packet_width=1e-5)


def criterion(number, label, budget_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {number}. {label}: FAIL")
                raise
            elapsed = time.perf_counter() - start
            print(f"[acceptance] {number}. {label}: PASS ({elapsed:.2f}s / budget {budget_s}s)")
            assert elapsed <= budget_s, f"runtime {elapsed:.2f}s exceeds {budget_s}s budget"

        return wrapper

    return decorate


@criterion(1, "EGY duality sweep", 10.0)
def test_duality_sweep():
    grid = default_grid(STANDARD)
    for s in np.arange(0.0, 1.0 + 1e-9, 0.05):
        rep = duality_report(STANDARD, make_detector_pair(float(s)), grid)
        assert rep.D**2 + rep.V_numeric**2 <= 1.0 + 1e-9, f"duality violated at s={s}"
        assert abs(rep.V_numeric - s) <= 0.02, (
            f"visibility estimate off at s={s}: {rep.V_numeric}"
        )


@criterion(2, "analytic saturation identity", 1.0)
def test_analytic_saturation():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        pair = make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
        total = distinguishability(pair) ** 2 + visibility_bound(pair) ** 2
        assert abs(total - 1.0) <= 1e-12


@criterion(3, "direct vs closed-form oracle equivalence", 5.0)
def test_oracle_equivalence():
    rng = np.random.default_rng(3)
    xs = default_grid(STANDARD, n_points=8192).xs()
    for _ in range(20):
        js = JointState(
            STANDARD, make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
        )
        direct = intensity_direct(xs, js)
        closed = intensity_closed_form(xs, js)
        mask = direct > 1e-300
        rel = np.max(np.abs(direct[mask] - closed[mask]) / closed[mask])
        assert rel <= 1e-10, f"routes disagree: rel error {rel}"


def _measured_spacing(geom):
    w = fringe_width(geom)
    grid = ScreenGrid(-2.5 * w, 2.5 * w, 4096)
    pat = pattern_on_grid(grid, JointState(geom, make_detector_pair(1.0)))
    pos = extrema_positions(pat, kind="maxima", window=1.7 * w)
    assert len(pos) >= 3, "expected the central maximum and both neighbours"
    return np.diff(pos)


@criterion(4, "fringe width vs extrema spacing", 10.0)
def test_fringe_width():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lam = rng.uniform(2e-7, 8e-7)
        dist = rng.uniform(0.5, 2.0)
        eps = rng.uniform(2e-6, 2e-5)
        geom = Geometry(lam, eps * rng.uniform(60, 150), dist, eps)
        assert geom.packet_width**2 <= lam * dist / 100.0
        gaps = _measured_spacing(geom)
        np.testing.assert_allclose(gaps, fringe_width(geom), rtol=0.01)
    # Young limit: packets narrow enough that w collapses to lam L / d
    for _ in range(5):
        lam = rng.uniform(2e-7, 8e-7)
        dist = rng.uniform(0.5, 2.0)
        eps = rng.uniform(2e-7, 1e-6)
        geom = Geometry(lam, eps * rng.uniform(60, 150), dist, eps)
        gaps = _measured_spacing(geom)
        young = lam * dist / geom.slit_sep
        np.testing.assert_allclose(gaps, young, rtol=0.01)


@criterion(5, "eraser completeness and antifringes", 5.0)
def test_eraser():
    geom = Geometry(wavelength=5e-7, slit_sep=1e-4, screen_dist=1.0, packet_width=1e-6)
    w = fringe_width(geom)
    grid = ScreenGrid(-5 * w, 5 * w, 8193)  # odd count puts x=0 on the grid
    js = JointState(geom, make_detector_pair(0.0))
    er = conditional_patterns(grid, js, mub_basis())
    uncond = pattern_on_grid(grid, js, mode="direct")
    combined = er.i_b.intensity + er.i_b_perp.intensity
    mask = uncond.intensity > 1e-300
    rel = np.max(np.abs(combined[mask] - uncond.intensity[mask]) / uncond.intensity[mask])
    assert rel <= 1e-12, f"branches do not reassemble the pattern: {rel}"
    assert oscillatory_residual(er.i_sum) < 1e-9
    xs = grid.xs()
    shift = abs(xs[np.argmax(er.i_b.intensity)] - xs[np.argmax(er.i_b_perp.intensity)])
    assert abs(shift - w / 2) <= grid.spacing(), (
        f"antifringe displacement {shift} != w/2 = {w / 2}"
    )


@criterion(6, "qubit sum uncertainty on the Bloch lattice", 1.0)
def test_sum_uncertainty_lattice():
    lattice = bloch_sphere_lattice(10000)
    sums = np.empty(len(lattice))
    transverse = np.empty(len(lattice))
    for i, (n1, n2, n3) in enumerate(lattice):
        state = state_from_bloch(n1, n2, n3)
        sums[i] = sum_uncertainty(state)[2]
        transverse[i] = PAULI_X.expectation(state)
    assert sums.min() >= 1.0 - 1e-12
    saturated = np.abs(transverse) < 1e-13
    assert saturated.any(), "lattice must contain saturation points"
    np.testing.assert_allclose(sums[saturated], 1.0, atol=1e-12)


@criterion(7, "variance identity D^2 + dP^2 = 1", 1.0)
def test_variance_identity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        pair = make_detector_pair(rng.uniform(), rng.uniform(-math.pi, math.pi))
        total = distinguishability(pair) ** 2 + variance(pair.d1, PAULI_Z)
        assert abs(total - 1.0) <= 1e-12


@criterion(8, "recoil-argument report", 1.0)
def test_bohr_report():
    from scipy import constants

    rng = np.random.default_rng(8)
    for _ in range(100):
        geom = Geometry(
            wavelength=rng.uniform(1e-7, 1e-6),
            slit_sep=rng.uniform(1e-5, 1e-3),
            screen_dist=rng.uniform(0.1, 10.0),
            packet_width=1e-7,
        )
        rep = bohr_analysis(geom)
        assert abs(rep.ratio - 1.0 / (4.0 * math.pi)) <= 1e-12
        assert rep.delta_px * rep.delta_x == pytest.approx(constants.hbar / 2.0, rel=1e-13)


@criterion(9, "CLI determinism and exit-code contract", 5.0)
def test_cli_contract(tmp_path):
    base = {
        "geometry": {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0,
                     "packet_width": 1e-5},
        "detector": {"overlap": 0.6, "phase": 0.0},
    }
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps(base))
    eraser_cfg = tmp_path / "eraser.json"
    eraser_cfg.write_text(json.dumps({
        **base,
        "geometry": dict(base["geometry"], packet_width=1e-6),
        "detector": {"overlap": 0.0},
        "eraser": {"enabled": True, "basis_angle": math.pi / 4},
    }))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "base": base, "sweep_param": "overlap", "values": [0.0, 0.5, 1.0],
    }))

    invocations = {
        "pattern": ["pattern", "--config", str(run_cfg)],
        "scan": ["scan-duality", "--config", str(sweep_cfg)],
        "eraser": ["eraser", "--config", str(eraser_cfg)],
        "unc": ["uncertainty-scan", "--samples", "400"],
        "bohr": ["bohr", "--config", str(run_cfg)],
    }
    for name, argv in invocations.items():
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{name} output not deterministic"

    # validation failure: negative slit separation, exit 1, no file
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({
        **base, "geometry": dict(base["geometry"], slit_sep=-1e-4),
    }))
    bad_out = tmp_path / "bad.csv"
    assert cli_main(["pattern", "--config", str(bad_cfg), "--out", str(bad_out)]) == 1
    assert not bad_out.exists()

    # forced numeric failure: exponential overflow meets gaussian underflow, exit 2
    numfail_cfg = tmp_path / "numfail.json"
    numfail_cfg.write_text(json.dumps({
        "geometry": {"lambda_d": 1e-12, "slit_sep": 1e-2, "screen_dist": 1e-3,
                     "packet_width": 1e-9},
        "detector": {"overlap": 0.0},
        "grid": {"x_min": -0.02, "x_max": 0.02, "n_points": 256},
    }))
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli_main(["pattern", "--config", str(numfail_cfg)]) == 2
