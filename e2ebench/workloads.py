"""Seeded inputs for the four benchmark workloads.

Every config and argv a workload hands to whichway is drawn here from the
run's seed and written into the run's work directory; the program sees
nothing else.  No draw is ever filtered or re-drawn after a check fails.

Geometries stay in the visibility estimator's documented far-field regime:
slit separation 1e-4 m is 10 packet widths (>= 8), and the evolved packet
width sigma_t = lambda L / (4 pi eps) is at least 16 slit separations.

Two input regions where the program is known to be wrong are left out, so
that the perf baseline is defined; test_bench.py pins both defects with
strict xfail tests, which start failing once a fix lands and the range here
can be widened:

- Overlaps in (0, 1e-4): make_detector_pair rejects its own pair
  (cancellation in sqrt((1 - sqrt(1 - s^2)) / 2)), so every subcommand exits
  with a config error.  Overlaps are drawn from {0} and [OVERLAP_MIN, 1].
- Detector phases past about +-1.7 rad in scan-duality: the visibility
  estimator overshoots s by up to 6e-4, so D^2 + V^2 exceeds 1.  Phases
  that reach the estimator are drawn from [-pi/2, pi/2]; kernel-only jobs
  (pattern, eraser, warm-kernels) use the full circle.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("cli-jobs", "sweep-long", "dense-grid", "warm-kernels")

DEFAULT_POINTS = 8192
DENSE_POINTS = 2**18
SWEEP_VALUES = 700
SCAN_VALUES = 11
UNCERTAINTY_SAMPLES = 10000
WARM_STATES = 8

SLIT_SEP = 1e-4
PACKET_WIDTH = 1e-5
ESTIMATOR_PHASE = math.pi / 2
OVERLAP_MIN = 1e-3


@dataclass(frozen=True)
class Job:
    """One cold ``python -m whichway`` invocation and what its output must show."""

    key: str
    kind: str
    argv: tuple[str, ...]
    out: Path
    fmt: str
    configs: int
    points: int
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KernelState:
    """One seeded detector state for the warm-kernels loop."""

    overlap: float
    phase: float
    basis_angle: float


@dataclass(frozen=True)
class KernelPlan:
    geometry: dict
    half_span: float
    n_points: int
    states: tuple[KernelState, ...]


def fringe_width(geo: dict) -> float:
    """Same formula as whichway.pattern.fringe_width, restated so that the
    generator does not import the program."""
    lam, d, dist, eps = geo["lambda_d"], geo["slit_sep"], geo["screen_dist"], geo["packet_width"]
    return lam * dist / d + 16.0 * math.pi**2 * eps**4 / (lam * d * dist)


def _geometry(rng: random.Random) -> dict:
    return {
        "lambda_d": rng.uniform(4e-7, 6e-7),
        "slit_sep": SLIT_SEP,
        "screen_dist": rng.uniform(0.5, 2.0),
        "packet_width": PACKET_WIDTH,
    }


def _dense_grid(geo: dict) -> dict:
    half = 5.0 * fringe_width(geo)
    return {"x_min": -half, "x_max": half, "n_points": DENSE_POINTS}


def _write(workdir: Path, name: str, obj: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _fmt(rng: random.Random) -> str:
    return rng.choice(("csv", "json"))


def _run_job(workdir, key, kind, run_cfg, fmt, points, expect=None) -> Job:
    cfg = _write(workdir, f"{key}.json", run_cfg)
    out = workdir / f"{key}.out"
    return Job(key, kind, (kind, "--config", cfg, "--out", str(out)), out, fmt, 1, points,
               expect or {})


def _sweep_job(workdir, key, base, param, values) -> Job:
    cfg = _write(workdir, f"{key}.json", {"base": base, "sweep_param": param, "values": values})
    out = workdir / f"{key}.out"
    fmt = base["output"]["format"]
    return Job(key, "scan-duality", ("scan-duality", "--config", cfg, "--out", str(out)), out,
               fmt, len(values), len(values) * DEFAULT_POINTS,
               {"param": param, "values": values})


def _detector(rng: random.Random, phase_limit: float) -> dict:
    return {"overlap": rng.uniform(OVERLAP_MIN, 1.0),
            "phase": rng.uniform(-phase_limit, phase_limit)}


def _overlap_values(rng: random.Random, n: int) -> list[float]:
    # s = 0 exercises the estimator's fringe-free early exit
    return [0.0] + [rng.uniform(OVERLAP_MIN, 1.0) for _ in range(n - 1)]


def cli_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    """One of each subcommand on the default grid, the way a user runs them."""
    geo = _geometry(rng)
    fmts = [_fmt(rng) for _ in range(5)]
    base = {"geometry": geo, "detector": _detector(rng, math.pi)}
    eraser = {**base, "eraser": {"enabled": True, "basis_angle": rng.uniform(0.0, math.pi)}}
    scan_base = {"geometry": geo, "detector": _detector(rng, ESTIMATOR_PHASE),
                 "output": {"format": fmts[4]}}
    unc_out = workdir / "uncertainty.out"
    return [
        _run_job(workdir, "pattern", "pattern", {**base, "output": {"format": fmts[0]}},
                 fmts[0], DEFAULT_POINTS),
        _run_job(workdir, "eraser", "eraser", {**eraser, "output": {"format": fmts[1]}},
                 fmts[1], DEFAULT_POINTS),
        _run_job(workdir, "bohr", "bohr", {**base, "output": {"format": fmts[2]}}, fmts[2], 0),
        Job("uncertainty", "uncertainty-scan",
            ("uncertainty-scan", "--samples", str(UNCERTAINTY_SAMPLES), "--format", fmts[3],
             "--out", str(unc_out)),
            unc_out, fmts[3], 1, 0, {"samples": UNCERTAINTY_SAMPLES}),
        _sweep_job(workdir, "scan", scan_base, "overlap", _overlap_values(rng, SCAN_VALUES)),
    ]


def sweep_long(rng: random.Random, workdir: Path) -> list[Job]:
    """Long scan-duality jobs over overlap, phase and screen distance."""
    jobs = []
    for key, param in (("overlap", "overlap"), ("phase", "phase"), ("screen", "screen_dist")):
        base = {"geometry": _geometry(rng), "detector": _detector(rng, ESTIMATOR_PHASE),
                "output": {"format": _fmt(rng)}}
        if param == "overlap":
            values = _overlap_values(rng, SWEEP_VALUES)
        elif param == "phase":
            values = [rng.uniform(-ESTIMATOR_PHASE, ESTIMATOR_PHASE) for _ in range(SWEEP_VALUES)]
        else:
            values = [rng.uniform(0.5, 2.0) for _ in range(SWEEP_VALUES)]
        jobs.append(_sweep_job(workdir, key, base, param, values))
    return jobs


def dense_grid(rng: random.Random, workdir: Path) -> list[Job]:
    """pattern and eraser on a 2^18-point grid, each once as csv and once as json."""
    jobs = []
    for kind, fmt in (("pattern", "csv"), ("eraser", "json"), ("pattern", "json"),
                      ("eraser", "csv")):
        geo = _geometry(rng)
        cfg = {"geometry": geo, "detector": _detector(rng, math.pi), "grid": _dense_grid(geo),
               "output": {"format": fmt}}
        if kind == "eraser":
            cfg["eraser"] = {"enabled": True, "basis_angle": rng.uniform(0.0, math.pi)}
        jobs.append(_run_job(workdir, f"{kind}-{fmt}", kind, cfg, fmt, DENSE_POINTS))
    return jobs


def warm_kernels(rng: random.Random) -> KernelPlan:
    geo = _geometry(rng)
    states = tuple(
        KernelState(rng.uniform(OVERLAP_MIN, 1.0), rng.uniform(-math.pi, math.pi),
                    rng.uniform(0.0, math.pi))
        for _ in range(WARM_STATES)
    )
    return KernelPlan(geo, 5.0 * fringe_width(geo), DENSE_POINTS, states)


CLI_GENERATORS = {"cli-jobs": cli_jobs, "sweep-long": sweep_long, "dense-grid": dense_grid}
