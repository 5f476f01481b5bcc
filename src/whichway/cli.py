"""Command-line interface: config ingestion, runs and sweeps, CSV/JSON emission.

Exit codes: 0 success, 1 configuration/validation problem, 2 numeric failure.
Output bytes are a deterministic function of the config (floats serialized
with 17 significant digits; run chatter goes to stderr).
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources

import numpy as np

from ._schema import schema_error
from .analysis import DualityReport, bohr_analysis, duality_report
from .errors import NumericFailure, ValidationError
from .packets import Geometry
from .pattern import (
    JointState,
    ScreenGrid,
    closed_form_parts,
    conditional_patterns,
    default_grid,
    pattern_on_grid,
)
from .qubit import (
    DetectorPair,
    bloch_sphere_lattice,
    make_detector_pair,
    rotated_basis,
    states_from_bloch,
    sum_uncertainty,
)

_SCHEMA = json.loads(
    resources.files("whichway").joinpath("config_schema.json").read_text(encoding="utf-8")
)
# same $defs, different entry point
_SWEEP_SCHEMA = {**_SCHEMA, "$ref": "#/$defs/sweep"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 is reserved for numeric
    # failures here, so route usage problems through the config-error path.
    def error(self, message):
        raise _UsageError(message)


def _cells(column) -> list[str]:
    """Serialize a column or scalar: floats at 17 significant digits, bools lowercase."""
    values = np.atleast_1d(column)
    if values.dtype == np.bool_:
        return ["true" if v else "false" for v in values.tolist()]
    return ["%.17g" % v for v in values.tolist()]


def _emit_csv(columns: dict) -> str:
    """One header line, then one line per row; a scalar field makes a single row."""
    rows = map(",".join, zip(*map(_cells, columns.values())))
    return "\n".join([",".join(columns), *rows]) + "\n"


def _emit_json(fields: dict) -> str:
    # hand-rolled so floats keep the 17-digit contract (json.dumps uses repr)
    def render(value):
        cells = _cells(value)
        return "[" + ", ".join(cells) + "]" if np.ndim(value) else cells[0]

    return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in fields.items()) + "}\n"


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or pipe such as /dev/stdout must be written, not renamed over
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        # write beside the file and rename over it, so an interrupted write
        # leaves the old file or none, never a truncated one; a symlink is
        # followed so the file it names is replaced, not the link
        target = os.path.realpath(path)
        tmp = f"{target}.{os.getpid()}.tmp"
        fh = open(tmp, "x", encoding="utf-8", newline="")
        try:
            with fh:
                fh.write(text)
            if os.path.exists(target):
                # the replacement keeps the old file's permission bits
                os.chmod(tmp, os.stat(target).st_mode & 0o7777)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    print(f"wrote {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    geometry: Geometry
    overlap: float
    phase: float
    grid: ScreenGrid | None
    eraser_enabled: bool
    basis_angle: float
    out_format: str | None
    out_path: str | None


def _int_in_float_range(text: str) -> int:
    value = int(text)
    float(value)  # every config number is used as a float: OverflowError past its range
    return value


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_int=_int_in_float_range)
    except OverflowError as exc:
        raise ValidationError(f"config {path} has an integer too large for a float") from exc
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals past Python's digit limit; RecursionError, arrays or objects
    # nested past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc


def _run_config_from_dict(raw: dict) -> RunConfig:
    error = schema_error(raw, _SCHEMA)
    if error is not None:
        raise ValidationError(f"config rejected by schema: {error}")
    geo = raw["geometry"]
    geometry = Geometry(
        wavelength=geo["lambda_d"],
        slit_sep=geo["slit_sep"],
        screen_dist=geo["screen_dist"],
        packet_width=geo["packet_width"],
    )
    grid_cfg = raw.get("grid")
    grid = None
    if grid_cfg is not None:
        grid = ScreenGrid(grid_cfg["x_min"], grid_cfg["x_max"], grid_cfg["n_points"])
    eraser = raw.get("eraser", {})
    output = raw.get("output", {})
    return RunConfig(
        geometry=geometry,
        overlap=raw["detector"]["overlap"],
        phase=raw["detector"].get("phase", 0.0),
        grid=grid,
        eraser_enabled=eraser.get("enabled", False),
        basis_angle=eraser.get("basis_angle", math.pi / 4.0),
        out_format=output.get("format"),
        out_path=output.get("path"),
    )


def load_run_config(path: str) -> RunConfig:
    return _run_config_from_dict(_load_json(path))


def load_sweep_config(path: str) -> tuple[RunConfig, list[tuple[Geometry, DetectorPair]]]:
    """The base config, and the geometry and detector pair of every sweep
    value, all built (so all checked) before anything is evaluated."""
    raw = _load_json(path)
    error = schema_error(raw, _SWEEP_SCHEMA)
    if error is not None:
        raise ValidationError(f"sweep config rejected by schema: {error}")
    base = _run_config_from_dict(raw["base"])
    param = raw["sweep_param"]
    runs = []
    for value in map(float, raw["values"]):
        if param in ("overlap", "phase"):
            run = replace(base, **{param: value})
        else:
            run = replace(base, geometry=replace(base.geometry, **{param: value}))
        runs.append((run.geometry, make_detector_pair(run.overlap, run.phase)))
    return base, runs


@contextmanager
def _sized(what: str):
    """Name ``what`` in the MemoryError raised when it does not fit in memory."""
    try:
        yield
    except MemoryError:
        raise MemoryError(f"{what} does not fit in memory") from None


# ---------------------------------------------------------------------------
# subcommands: each returns its config (None without one) and its columns
# ---------------------------------------------------------------------------

def _cmd_pattern(args) -> tuple[RunConfig, dict]:
    cfg = load_run_config(args.config)
    js = JointState(cfg.geometry, make_detector_pair(cfg.overlap, cfg.phase))
    grid = cfg.grid or default_grid(cfg.geometry)
    with _sized(f"a grid of {grid.n_points} points"):
        samples = pattern_on_grid(grid, js, mode="closed_form")
        envelope, interference = closed_form_parts(grid.xs(), js)
        envelope /= samples.norm_constant
        interference /= samples.norm_constant
    return cfg, {
        "x_m": grid.xs(),
        "intensity": samples.intensity,
        "envelope": envelope,
        "interference_term": interference,
    }


def _cmd_scan_duality(args) -> tuple[RunConfig, dict]:
    base, runs = load_sweep_config(args.config)
    reports = []
    for geometry, pair in runs:
        grid = base.grid or default_grid(geometry)
        with _sized(f"a grid of {grid.n_points} points"):
            reports.append(duality_report(geometry, pair, grid))
    columns = {"s": [pair.overlap_mag for _, pair in runs]}
    for field in fields(DualityReport):
        columns[field.name] = [getattr(rep, field.name) for rep in reports]
    return base, columns


def _cmd_eraser(args) -> tuple[RunConfig, dict]:
    cfg = load_run_config(args.config)
    if not cfg.eraser_enabled:
        raise ValidationError("eraser subcommand requires eraser.enabled = true in the config")
    js = JointState(cfg.geometry, make_detector_pair(cfg.overlap, cfg.phase))
    basis = rotated_basis(cfg.basis_angle)
    grid = cfg.grid or default_grid(cfg.geometry)
    with _sized(f"a grid of {grid.n_points} points"):
        er = conditional_patterns(grid, js, basis)
    return cfg, {
        "x_m": grid.xs(),
        "i_q1": er.i_b.intensity,
        "i_q2": er.i_b_perp.intensity,
        "i_sum": er.i_sum.intensity,
    }


def _cmd_uncertainty_scan(args) -> tuple[None, dict]:
    if args.samples < 1:
        raise ValidationError(f"samples must be >= 1, got {args.samples}")
    with _sized(f"a lattice of {args.samples} points"):
        lattice = bloch_sphere_lattice(args.samples)
        var_sigma2, var_sigma3, sums = sum_uncertainty(states_from_bloch(lattice))
    return None, {"n1": lattice[:, 0], "n2": lattice[:, 1], "n3": lattice[:, 2],
                  "var_sigma2": var_sigma2, "var_sigma3": var_sigma3, "sum": sums,
                  "min_sum": sums.min()}


def _cmd_bohr(args) -> tuple[RunConfig, dict]:
    cfg = load_run_config(args.config)
    return cfg, asdict(bohr_analysis(cfg.geometry))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="whichway",
        description="Which-way double-slit toolkit: patterns, duality scans, "
                    "quantum eraser, uncertainty sweeps, recoil estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, func, needs_config=True):
        p = sub.add_parser(name, help=help_text, description=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", default=None, choices=["csv", "json"],
                       help="output format (default: csv; bohr defaults to json)")
        p.set_defaults(func=func, default_format="csv")
        return p

    add("pattern", "screen pattern with envelope/interference decomposition", _cmd_pattern)
    add("scan-duality", "distinguishability/visibility duality table over a sweep",
        _cmd_scan_duality)
    add("eraser", "conditioned fringe/antifringe patterns for a detector basis", _cmd_eraser)
    scan = add("uncertainty-scan", "qubit sum-uncertainty over a Bloch-sphere lattice",
               _cmd_uncertainty_scan, needs_config=False)
    scan.add_argument("--samples", type=int, default=10000,
                      help="number of lattice points (default 10000)")
    add("bohr", "recoil-argument report for the configured geometry",
        _cmd_bohr).set_defaults(default_format="json")
    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the process exit code instead of calling sys.exit."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        cfg, columns = args.func(args)
        # --format, then the config's output block, then the subcommand default
        out_format, out_path = (cfg.out_format, cfg.out_path) if cfg else (None, None)
        if (args.format or out_format or args.default_format) == "json":
            text = _emit_json(columns)
        else:
            # uncertainty-scan's minimum is a trailer row, not a column
            min_sum = columns.pop("min_sum", None)
            text = _emit_csv(columns)
            if min_sum is not None:
                text += f"min_sum,,,,,{_cells(min_sum)[0]}\n"
        _write_output(text, args.out or out_path)
        return 0
    except (ValidationError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the grid or lattice the config asks for is too large
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def _keep_freed_memory():
    """Fix glibc's trim and mmap thresholds for this process.

    Every scan-duality value allocates and frees a few hundred KB of
    grid-sized arrays: the pattern, the estimator's which-way reference and
    the spectrum of their difference, and for a screen_dist or packet_width
    sweep a new grid with its positions, weights and packets.  glibc's
    default thresholds adapt to the allocation history, so whether that
    memory is handed back to the OS and faulted in again on the next value
    depends on heap layout.  On the benchmark's seed-7 700-value sweeps
    (8192 points, x86-64 Linux, in process after the imports), each job took
    370 to 413 minor faults with these thresholds.  Without them the overlap
    and phase sweeps took about 400 and the screen_dist sweep about 67.5k,
    which made it up to 0.3 s slower than its 0.5 to 0.6 s.  Fixed
    thresholds keep the memory in the heap.  Other C libraries are left as
    they are.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: smaller blocks come from the heap
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: free heap kept before trimming


def run():
    """Console-script and ``python -m whichway`` entry point."""
    _keep_freed_memory()
    raise SystemExit(main())
