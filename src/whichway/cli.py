"""Command-line interface: config ingestion, runs and sweeps, CSV/JSON emission.

Exit codes: 0 success, 1 configuration/validation problem or a stdout that
cannot be written, 2 numeric failure; a stderr that cannot be written
changes none of them.  Output bytes are a deterministic function of the
config (floats serialized with 17 significant digits; run chatter goes to
stderr).

``run``, the entry point of the script and of ``python -m whichway``, also
sets up the process around ``main``: glibc's allocator thresholds and the
one-line warning format before it, and after it the flush of stdout and
``gc.freeze()``, so that the interpreter's shutdown collections skip the
job's objects.  ``main`` called from Python leaves all of these as they are.

Every job is a fresh process, so this module imports at load only the
standard library, the config schema, the record base, ``Geometry`` and the
recoil report, and each subcommand imports the modules it computes with
when it runs (``tests/test_import_floor.py`` pins which; no job imports
``dataclasses`` or ``importlib.resources``).  The package's public names
still read through this module (``cli.duality_report`` is
``analysis.duality_report``).
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager

from ._record import Record, init_field
from ._schema import schema_error
from .errors import NumericFailure, ValidationError
from .packets import Geometry, grid_points
from .recoil import bohr_analysis


def __getattr__(name):
    # the package's public names read through this module, as when it
    # imported them at load; the subcommands import theirs when they run
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# read through the package's loader, as pkgutil.get_data reads, so that a
# zipped package reads it too
_SCHEMA = json.loads(
    __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "config_schema.json"))
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


def _plain(value):
    """A NumPy array or scalar as Python values (a list, or one float or
    bool); Python values as they are."""
    return value.tolist() if hasattr(value, "tolist") else value


def _cells(column) -> list[str]:
    """Serialize a column or scalar: floats at 17 significant digits, bools lowercase."""
    values = _plain(column)
    if not isinstance(values, list):
        values = [values]
    if values and all(type(v) is bool for v in values):
        return ["true" if v else "false" for v in values]
    return ["%.17g" % v for v in values]


def _emit_csv(columns: dict) -> str:
    """One header line, then one line per row; a scalar field makes a single row."""
    rows = map(",".join, zip(*map(_cells, columns.values())))
    return "\n".join([",".join(columns), *rows]) + "\n"


def _emit_json(fields: dict) -> str:
    # hand-rolled so floats keep the 17-digit contract (json.dumps uses repr)
    def render(value):
        value = _plain(value)
        cells = _cells(value)
        return "[" + ", ".join(cells) + "]" if isinstance(value, list) else cells[0]

    return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in fields.items()) + "}\n"


def _note(line: str):
    """Print one line to stderr, if it can be written: a stderr that is
    closed (sys.stderr None) or fails (``2> /dev/full``) changes no exit code."""
    if sys.stderr is not None:  # print would write to stdout
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


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
    _note(f"wrote {path}")


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

class RunConfig(Record):
    """A checked run config.  grid holds the configured grid's x_min, x_max
    and n_points; the subcommands that compute on it build the ScreenGrid."""

    __slots__ = _fields = ("geometry", "overlap", "phase", "grid", "eraser_enabled",
                           "basis_angle", "out_format", "out_path")

    def __init__(self, geometry, overlap, phase, grid, eraser_enabled, basis_angle,
                 out_format, out_path):
        values = (geometry, overlap, phase, grid, eraser_enabled, basis_angle, out_format,
                  out_path)
        for name, value in zip(self._fields, values):
            init_field(self, name, value)
        init_field(self, "_values", values)


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


def _geometry(geo: dict) -> Geometry:
    """The Geometry of a config's geometry block."""
    return Geometry(
        wavelength=geo["lambda_d"],
        slit_sep=geo["slit_sep"],
        screen_dist=geo["screen_dist"],
        packet_width=geo["packet_width"],
    )


def _run_config_from_dict(raw: dict) -> RunConfig:
    error = schema_error(raw, _SCHEMA)
    if error is not None:
        raise ValidationError(f"config rejected by schema: {error}")
    geometry = _geometry(raw["geometry"])
    grid_cfg = raw.get("grid")
    grid = None
    if grid_cfg is not None:
        x_min, x_max = grid_cfg["x_min"], grid_cfg["x_max"]
        grid = (x_min, x_max, grid_points(x_min, x_max, grid_cfg["n_points"]))
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
    value, all built (so all checked) before anything is evaluated.  A
    geometry sweep builds the base detector pair once, after its first
    geometry, and shares it between the values."""
    from .qubit import make_detector_pair

    raw = _load_json(path)
    error = schema_error(raw, _SWEEP_SCHEMA)
    if error is not None:
        raise ValidationError(f"sweep config rejected by schema: {error}")
    base = _run_config_from_dict(raw["base"])
    param = raw["sweep_param"]
    values = map(float, raw["values"])
    if param == "overlap":
        return base, [(base.geometry, make_detector_pair(v, base.phase)) for v in values]
    if param == "phase":
        return base, [(base.geometry, make_detector_pair(base.overlap, v)) for v in values]
    runs, pair = [], None
    for value in values:
        geometry = _geometry({**raw["base"]["geometry"], param: value})
        if pair is None:
            pair = make_detector_pair(base.overlap, base.phase)
        runs.append((geometry, pair))
    return base, runs


def _grid(cfg: RunConfig, geometry: Geometry):
    """The ScreenGrid the config configures, or else the default grid for geometry."""
    from .pattern import ScreenGrid, default_grid

    return ScreenGrid(*cfg.grid) if cfg.grid else default_grid(geometry)


def _grid_size(cfg: RunConfig) -> str:
    """The grids a job on cfg computes on, as ``_sized`` names them: the
    configured grid, or else the default grid of each geometry."""
    from .pattern import DEFAULT_POINTS

    return f"a grid of {cfg.grid[2] if cfg.grid else DEFAULT_POINTS} points"


@contextmanager
def _sized(what: str):
    """Name ``what`` in the MemoryError raised when it does not fit in memory.
    A block that builds a grid inside it reports NumPy's refusal of the
    grid's size, which ``ScreenGrid`` raises as a MemoryError, the same way."""
    try:
        yield
    except MemoryError:
        raise MemoryError(f"{what} does not fit in memory") from None


# ---------------------------------------------------------------------------
# subcommands: each returns its config (None without one) and its columns
# ---------------------------------------------------------------------------

def _cmd_pattern(args) -> tuple[RunConfig, dict]:
    from .pattern import JointState, closed_form_on_grid
    from .qubit import make_detector_pair

    cfg = load_run_config(args.config)
    js = JointState(cfg.geometry, make_detector_pair(cfg.overlap, cfg.phase))
    with _sized(_grid_size(cfg)):
        grid = _grid(cfg, cfg.geometry)
        samples, envelope, interference = closed_form_on_grid(grid, js)
    return cfg, {
        "x_m": grid.xs(),
        "intensity": samples.intensity,
        "envelope": envelope,
        "interference_term": interference,
    }


def _cmd_scan_duality(args) -> tuple[RunConfig, dict]:
    from .analysis import DualityReport, duality_report
    from .pattern import ScreenGrid, default_grid

    base, runs = load_sweep_config(args.config)
    reports = []
    with _sized(_grid_size(base)):
        configured = ScreenGrid(*base.grid) if base.grid else None  # one for every value
        for geometry, pair in runs:
            reports.append(duality_report(geometry, pair, configured or default_grid(geometry)))
    columns = {"s": [pair.overlap_mag for _, pair in runs]}
    for name in DualityReport._fields:
        columns[name] = [getattr(rep, name) for rep in reports]
    return base, columns


def _cmd_eraser(args) -> tuple[RunConfig, dict]:
    from .pattern import JointState, conditional_patterns
    from .qubit import make_detector_pair, rotated_basis

    cfg = load_run_config(args.config)
    if not cfg.eraser_enabled:
        raise ValidationError("eraser subcommand requires eraser.enabled = true in the config")
    js = JointState(cfg.geometry, make_detector_pair(cfg.overlap, cfg.phase))
    basis = rotated_basis(cfg.basis_angle)
    with _sized(_grid_size(cfg)):
        grid = _grid(cfg, cfg.geometry)
        er = conditional_patterns(grid, js, basis)
    return cfg, {
        "x_m": grid.xs(),
        "i_q1": er.i_b.intensity,
        "i_q2": er.i_b_perp.intensity,
        "i_sum": er.i_sum.intensity,
    }


def _cmd_uncertainty_scan(args) -> tuple[None, dict]:
    from .qubit import bloch_sphere_lattice, states_from_bloch, sum_uncertainty

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
    report = bohr_analysis(cfg.geometry)
    return cfg, {name: getattr(report, name) for name in report._fields}


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
        _note(f"usage error: {exc}")
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
        _note(f"config error: {exc}")
        return 1
    except MemoryError as exc:
        # the grid or lattice the config asks for is too large
        _note(f"config error: {str(exc) or 'out of memory'}")
        return 1
    except NumericFailure as exc:
        _note(f"numeric failure: {exc}")
        return 2


def _keep_freed_memory():
    """Fix glibc's trim and mmap thresholds for this process.

    Every scan-duality value allocates and frees grid-sized arrays: the
    pattern, the estimator's which-way reference and the spectrum of their
    difference, and for a screen_dist or packet_width sweep a new grid with
    its positions, weights and packets.  glibc's default thresholds adapt
    to the allocation history, so whether that memory is handed back to the
    OS and faulted in again on the next value depends on heap layout.
    Fixed thresholds keep it in the heap.  Measured on x86-64 Linux with
    the benchmark's inputs (medians of 5 alternating runs), the setting
    pays on configured grids larger than the default: a cold 700-value
    screen_dist sweep on 20000 points took 5.6k minor faults and 0.78 s of
    CPU time with it, against 109.8k and 1.01 s without, and on 12000
    points 5.4k and 0.57 s against 43.1k and 0.61 s.  On the default
    8192-point grid the same cold sweep takes about 5.0k faults either way;
    run in a process that had imported NumPy and the kernels first, it took
    0.3k to 0.4k faults with the setting and 51k to 56k without.  Other C
    libraries are left as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: smaller blocks come from the heap
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD: free heap kept before trimming


def _warning_line(message, category, filename, lineno, line=None):
    """A warning as the CLI prints it: one line, without the source file and
    line that raised it, so stderr does not depend on the source layout."""
    return f"warning: {message}\n"


def _skip_exit_collection():
    """Freeze every object the process holds, so that the collections of the
    interpreter's shutdown skip them.

    Once NumPy is loaded a job holds about 21.7k objects the cyclic collector
    tracks (a ``bohr`` job 12.5k), and finalization collects over all of them.
    Frozen, cold ``pattern`` and ``bohr`` jobs took 153 and 59 ms of wall
    time, against 174 and 68 ms (medians of 9 alternating runs on one pinned
    CPU, x86-64 Linux, Python 3.11.7).  The ``atexit`` hooks and the
    shutdown flush of stdio still run.
    """
    gc.freeze()


def _flush_or_drop(stream) -> OSError | None:
    """Flush ``stream``, and return the error if that fails; its file
    descriptor then points at the null device, so that the interpreter's
    shutdown flush of the bytes still buffered does not fail a second time
    and make the exit code 120."""
    try:
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def run():
    """Console-script and ``python -m whichway`` entry point: it sets up the
    process (the allocator thresholds and the warning format), runs
    ``main``, flushes stdout and stderr and freezes the collector before it
    exits.  ``main`` called from Python leaves all of these as they are.

    Buffered stdout is written at the latest by that flush.  A stdout that
    cannot be written there (``> /dev/full``, a closed pipe) is a config
    error, exit 1.  A stderr that cannot be written (``2> /dev/full``)
    changes no exit code: ``_note`` ignores the failed line, and this flush
    drops the bytes it left in the buffer.
    """
    _keep_freed_memory()
    warnings.formatwarning = _warning_line
    code = main()
    # each is None when the process starts with its fd closed
    if sys.stdout is not None:
        exc = _flush_or_drop(sys.stdout)
        if exc is not None:
            _note(f"config error: {exc}")
            code = 1
    if sys.stderr is not None:
        _flush_or_drop(sys.stderr)
    _skip_exit_collection()
    raise SystemExit(code)
