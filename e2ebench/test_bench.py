"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest e2ebench -q

They import whichway from ./src, like the benchmark does.
"""
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks
import run
import tracer
import workloads
from whichway import (
    Geometry,
    ValidationError,
    cli,
    default_grid,
    duality_report,
    make_detector_pair,
)

BASE = {
    "geometry": {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0, "packet_width": 1e-5},
    "detector": {"overlap": 0.6, "phase": 0.3},
    "eraser": {"enabled": True, "basis_angle": 0.7},
}


def _job(tmp_path, kind, fmt, expect=None, base=BASE):
    cfg = tmp_path / "cfg.json"
    if kind == "scan-duality":
        cfg.write_text(json.dumps({"base": {k: base[k] for k in ("geometry", "detector")},
                                   "sweep_param": "overlap", "values": expect["values"]}))
    else:
        cfg.write_text(json.dumps(base))
    out = tmp_path / f"{kind}.{fmt}"
    if kind == "uncertainty-scan":
        argv = (kind, "--samples", str(expect["samples"]))
    else:
        argv = (kind, "--config", str(cfg))
    argv += ("--format", fmt, "--out", str(out))
    return workloads.Job(kind, kind, argv, out, fmt, 1, 0, expect or {})


def _scale(column):
    """Corrupter: the middle row's value in `column`, 1% too large."""
    def corrupt(data: bytes, fmt: str) -> bytes:
        if fmt == "json":
            obj = json.loads(data)
            col = obj[column]
            if isinstance(col, list):
                col[len(col) // 2] *= 1.01
            else:
                obj[column] = col * 1.01
            return (json.dumps(obj) + "\n").encode()
        lines = data.decode().split("\n")
        i = lines[0].split(",").index(column)
        row = max(1, (len(lines) - 1) // 2)
        fields = lines[row].split(",")
        fields[i] = repr(float(fields[i]) * 1.01)
        lines[row] = ",".join(fields)
        return "\n".join(lines).encode()
    return corrupt


def _drop_row(data: bytes, fmt: str) -> bytes:
    lines = data.decode().split("\n")
    del lines[len(lines) // 2]
    return "\n".join(lines).encode()


CASES = [
    ("pattern", "csv", None, _scale("intensity")),
    ("pattern", "json", None, _scale("envelope")),
    ("eraser", "csv", None, _scale("i_sum")),
    ("eraser", "json", None, _scale("i_q1")),
    ("bohr", "json", None, _scale("ratio")),
    ("bohr", "csv", None, _scale("ratio")),
    ("uncertainty-scan", "csv", {"samples": 50}, _drop_row),
    ("scan-duality", "json", {"param": "overlap", "values": [0.0, 0.5, 1.0]},
     _scale("V_numeric")),
    ("scan-duality", "csv", {"param": "overlap", "values": [0.0, 0.5, 1.0]}, _scale("lhs")),
]


@pytest.mark.parametrize("kind,fmt,expect,corrupt", CASES)
def test_checker_passes_real_output_and_fails_corrupted(tmp_path, kind, fmt, expect, corrupt):
    job = _job(tmp_path, kind, fmt, expect)
    assert cli.main(list(job.argv)) == 0
    tally = run.Tally()
    run.account(tally, job, 0, "")
    assert (tally.attempted, tally.failed) == (1, 0), tally.failures

    job.out.write_bytes(corrupt(job.out.read_bytes(), fmt))
    corrupted = run.Tally()
    run.account(corrupted, job, 0, "")
    assert (corrupted.attempted, corrupted.failed) == (1, 1)


def test_changed_bytes_on_a_repeated_job_count_as_a_failure(tmp_path):
    job = _job(tmp_path, "pattern", "csv")
    tally = run.Tally()
    assert cli.main(list(job.argv)) == 0
    run.account(tally, job, 0, "")
    # a valid output, but not the same bytes
    job = _job(tmp_path, "pattern", "csv", base={**BASE, "detector": {"overlap": 0.5}})
    assert cli.main(list(job.argv)) == 0
    run.account(tally, job, 0, "")
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "differ" in tally.failures[0]


def test_scan_check_catches_a_duality_violation():
    header = ",".join(checks.SCAN_COLUMNS)
    s, d = 0.5, math.sqrt(0.75)
    v = 0.5 + 1e-6  # D^2 + V^2 just above 1
    lhs = d * d + v * v
    row = f"{s!r},{d!r},{s!r},{v!r},1,0,{lhs!r},1.5,false,true"
    data = f"{header}\n{row}\n".encode()
    with pytest.raises(checks.CheckFailure, match="exceeds 1"):
        checks.check_output("scan-duality", data, "csv", {"param": "overlap", "values": [s]})


def test_nonzero_exit_and_missing_output_count_as_failures(tmp_path):
    job = _job(tmp_path, "pattern", "csv")
    tally = run.Tally()
    run.account(tally, job, 1, "config error")
    run.account(tally, job, 0, "")  # exit 0 but no file written
    assert (tally.attempted, tally.failed) == (2, 2)


def test_tracer_self_times_add_up_and_uninstall_restores(tmp_path):
    job = _job(tmp_path, "scan-duality", "csv", {"param": "overlap", "values": [0.0, 0.7]})
    original = cli.duality_report
    spans = tracer.Tracer()
    spans.install()
    try:
        assert cli.duality_report is not original
        spans.job = 0
        assert cli.main(list(job.argv)) == 0
    finally:
        spans.uninstall()
    assert cli.duality_report is original
    assert spans.absent == []
    metrics = spans.layer_metrics(1)
    self_sum = sum(metrics[m] for m in tracer.SELF_LAYERS.values())
    roots = sum(end - start for _, start, end, parent, _ in spans.spans if parent < 0)
    assert self_sum == pytest.approx(roots * 1e3, rel=1e-9)
    assert metrics["analysis.fringe_free_share"] == 0.5  # s = 0 is fringe-free
    assert metrics["pattern.points"] == 2 * 8192


def test_tracer_reports_a_removed_function_as_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (("qubit", "whichway.qubit", "gone"),))
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert spans.absent == ["whichway.qubit.gone"]


def test_import_costs_do_not_double_count_nested_packages():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        10 |        110 |     numpy",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:        20 |         70 |     scipy",
        "import time:         5 |        185 |   whichway",
        "import time:         3 |        188 | whichway.cli",
    ])
    costs = tracer.import_costs(tracer.parse_importtime(text))
    assert costs["import.total_ms"] == pytest.approx(0.188)
    assert costs["import.numpy_ms"] == pytest.approx(0.110)
    assert costs["import.scipy_ms"] == pytest.approx(0.070)
    assert costs["import.whichway_self_ms"] == pytest.approx(0.008)


def test_reference_clock_scales_by_the_probes_around_each_time(monkeypatch):
    ref = run.REFERENCE_S
    probes = iter([1.0] * 5 + [2 * ref, 2 * ref, 4 * ref])  # five warm-up probes first
    monkeypatch.setattr(run.ReferenceClock, "_time", staticmethod(lambda: next(probes)))
    clock = run.ReferenceClock()
    assert clock.scale([1.0, 3.0]) == pytest.approx([0.5, 1.5])  # host at half speed
    assert clock.scale([3.0]) == pytest.approx([1.0])  # probes 2x and 4x: mean 3x


# Known defects of the program that the workloads steer around (see
# workloads.py).  strict: once one is fixed, its test fails here as a
# reminder to widen the benchmark's input range.

@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="make_detector_pair rejects its own pair for 0 < s < 1e-4")
def test_known_defect_tiny_overlap():
    make_detector_pair(1.8286478619233826e-05)  # fails; 5e-6 happens to pass


@pytest.mark.xfail(strict=True,
                   reason="the visibility estimator overshoots s at detector phases near pi")
def test_known_defect_estimator_overshoot_at_large_phase():
    geom = Geometry(5e-7, 1e-4, 1.0, 1e-5)
    rep = duality_report(geom, make_detector_pair(0.5, 3.0), default_grid(geom))
    assert rep.lhs <= 1.0 + checks.DUALITY_TOL


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
