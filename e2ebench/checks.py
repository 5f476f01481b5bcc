"""Correctness checks on whichway outputs, run outside the timed interval.

Each check parses one output exactly as the CLI wrote it and raises
CheckFailure when the physics it encodes does not hold.  Tolerances are the
ones the repository's own test suite uses.  A check returns the number of
data rows it read, which the benchmark counts as rows written.
"""
from __future__ import annotations

import io
import json
import math

import numpy as np

#: Slack on D^2 + V^2 <= 1, the CLI's own DUALITY_TOL.
DUALITY_TOL = 1e-9
#: |V_numeric - s| allowed on overlap sweeps (acceptance criterion 1).
VISIBILITY_TOL = 0.02
#: Relative agreement of the direct and closed-form routes (criterion 3).
ROUTE_RTOL = 1e-10

PATTERN_COLUMNS = ["x_m", "intensity", "envelope", "interference_term"]
ERASER_COLUMNS = ["x_m", "i_q1", "i_q2", "i_sum"]
SCAN_COLUMNS = ["s", "D", "V_bound", "V_numeric", "dP2", "dQ2", "lhs", "rhs_unc", "egy_ok",
                "unc_ok"]
UNCERTAINTY_COLUMNS = ["n1", "n2", "n3", "var_sigma2", "var_sigma3", "sum"]
BOHR_FIELDS = ["delta_px", "delta_x", "fringe_sep", "ratio"]


class CheckFailure(Exception):
    """An output is missing, unparsable, or violates an invariant."""


def _require(ok, message: str):
    if not ok:
        raise CheckFailure(message)


def _is_number(v) -> bool:
    # the CLI prints 1.0 as "1", which JSON reads back as an int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_columns(data: bytes, header: list[str]) -> dict:
    try:
        obj = json.loads(data)
    except ValueError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from exc
    _require(isinstance(obj, dict), "JSON output is not an object")
    _require(list(obj)[: len(header)] == header, f"JSON keys {list(obj)} != {header}")
    return obj


def _csv_numeric(data: bytes, header: list[str], skip_footer: int = 0) -> np.ndarray:
    text = data.decode("utf-8")
    lines = text.split("\n")
    _require(lines[-1] == "", "CSV output does not end with a newline")
    _require(lines[0] == ",".join(header), f"CSV header {lines[0]!r} != {header}")
    body = lines[1 : len(lines) - 1 - skip_footer]
    try:
        table = np.loadtxt(io.StringIO("\n".join(body)), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailure(f"CSV body does not parse: {exc}") from exc
    _require(table.shape[1] == len(header), f"CSV has {table.shape[1]} columns")
    return table


def _columns(data: bytes, fmt: str, header: list[str]) -> dict[str, np.ndarray]:
    if fmt == "json":
        obj = _json_columns(data, header)
        try:
            cols = {name: np.asarray(obj[name], dtype=float) for name in header}
        except (TypeError, ValueError) as exc:
            raise CheckFailure(f"non-numeric JSON column: {exc}") from exc
        _require(len({len(c) for c in cols.values()}) == 1, "JSON columns differ in length")
        return cols
    table = _csv_numeric(data, header)
    return {name: table[:, i] for i, name in enumerate(header)}


def _unit_integral(ys: np.ndarray, xs: np.ndarray, name: str):
    total = float(np.trapezoid(ys, xs))
    _require(abs(total - 1.0) <= 1e-9, f"{name} integrates to {total!r}, not 1")


def check_pattern(data: bytes, fmt: str, expect: dict) -> int:
    c = _columns(data, fmt, PATTERN_COLUMNS)
    intensity, parts = c["intensity"], c["envelope"] + c["interference_term"]
    _require(np.all(np.isfinite(intensity)), "non-finite intensity")
    peak = float(intensity.max())
    worst = float(np.max(np.abs(intensity - parts)))
    _require(worst <= 1e-9 * peak, f"intensity != envelope + interference by {worst!r}")
    _unit_integral(intensity, c["x_m"], "intensity")
    return len(intensity)


def check_eraser(data: bytes, fmt: str, expect: dict) -> int:
    c = _columns(data, fmt, ERASER_COLUMNS)
    total = c["i_sum"]
    _require(np.all(np.isfinite(total)), "non-finite i_sum")
    worst = float(np.max(np.abs(c["i_q1"] + c["i_q2"] - total)))
    _require(worst <= 1e-12 * float(total.max()), f"i_q1 + i_q2 != i_sum by {worst!r}")
    _unit_integral(total, c["x_m"], "i_sum")
    return len(total)


def _scan_table(data: bytes, fmt: str) -> dict[str, np.ndarray]:
    if fmt == "json":
        obj = _json_columns(data, SCAN_COLUMNS)
        raw = {name: obj[name] for name in SCAN_COLUMNS}
    else:
        text = data.decode("utf-8")
        lines = text.split("\n")
        _require(lines[-1] == "" and lines[0] == ",".join(SCAN_COLUMNS), "bad CSV framing")
        rows = [line.split(",") for line in lines[1:-1]]
        _require(all(len(r) == len(SCAN_COLUMNS) for r in rows), "ragged CSV rows")
        raw = {name: [r[i] for r in rows] for i, name in enumerate(SCAN_COLUMNS)}
        for flag in ("egy_ok", "unc_ok"):
            _require(set(raw[flag]) <= {"true", "false"}, f"{flag} is not a bool column")
            raw[flag] = [v == "true" for v in raw[flag]]
    cols = {}
    for name in SCAN_COLUMNS:
        if name in ("egy_ok", "unc_ok"):
            _require(all(isinstance(v, bool) for v in raw[name]), f"{name} is not boolean")
            cols[name] = np.asarray(raw[name], dtype=bool)
        else:
            try:
                cols[name] = np.asarray(raw[name], dtype=float)
            except ValueError as exc:
                raise CheckFailure(f"column {name} does not parse: {exc}") from exc
    return cols


def check_scan(data: bytes, fmt: str, expect: dict) -> int:
    c = _scan_table(data, fmt)
    values = expect["values"]
    lhs = c["lhs"]
    _require(len(lhs) == len(values), f"{len(lhs)} rows for {len(values)} sweep values")
    _require(np.all(np.isfinite(lhs)), "non-finite lhs")
    recomputed = c["D"] ** 2 + c["V_numeric"] ** 2
    _require(np.all(np.abs(lhs - recomputed) <= 1e-12), "lhs != D^2 + V_numeric^2")
    worst = float(lhs.max())
    _require(worst <= 1.0 + DUALITY_TOL, f"D^2 + V^2 = {worst!r} exceeds 1")
    _require(np.array_equal(c["egy_ok"], lhs <= 1.0 + DUALITY_TOL), "egy_ok disagrees with lhs")
    _require(np.array_equal(c["unc_ok"], lhs <= c["rhs_unc"] + DUALITY_TOL),
             "unc_ok disagrees with lhs and rhs_unc")
    if expect["param"] == "overlap":
        s = np.asarray(values, dtype=float)
        _require(np.array_equal(c["s"], s), "s column differs from the sweep values")
        dev = float(np.max(np.abs(c["V_numeric"] - s)))
        _require(dev <= VISIBILITY_TOL, f"|V_numeric - s| reaches {dev!r}")
    return len(lhs)


def check_uncertainty(data: bytes, fmt: str, expect: dict) -> int:
    if fmt == "json":
        obj = _json_columns(data, UNCERTAINTY_COLUMNS)
        _require(list(obj) == UNCERTAINTY_COLUMNS + ["min_sum"], "JSON keys differ")
        sums = np.asarray(obj["sum"], dtype=float)
        min_sum = obj["min_sum"]
        _require(_is_number(min_sum), "min_sum is not a number")
    else:
        lines = data.decode("utf-8").split("\n")
        footer = lines[-2].split(",")
        _require(len(footer) == 6 and footer[0] == "min_sum", "CSV lacks the min_sum footer")
        try:
            min_sum = float(footer[5])
        except ValueError as exc:
            raise CheckFailure(f"min_sum does not parse: {exc}") from exc
        sums = _csv_numeric(data, UNCERTAINTY_COLUMNS, skip_footer=1)[:, 5]
    _require(len(sums) == expect["samples"], f"{len(sums)} rows for {expect['samples']} samples")
    _require(min_sum == float(sums.min()), "min_sum is not the column minimum")
    _require(min_sum >= 1.0 - 1e-12, f"sum uncertainty {min_sum!r} below 1")
    return len(sums)


def check_bohr(data: bytes, fmt: str, expect: dict) -> int:
    if fmt == "json":
        obj = _json_columns(data, BOHR_FIELDS)
        ratio = obj["ratio"]
        _require(_is_number(ratio), "ratio is not a number")
    else:
        ratio = float(_csv_numeric(data, BOHR_FIELDS)[0, 3])
    _require(abs(ratio - 0.25 / math.pi) <= 1e-12, f"ratio {ratio!r} is not 1/4pi")
    return 1


CHECKS = {
    "pattern": check_pattern,
    "eraser": check_eraser,
    "scan-duality": check_scan,
    "uncertainty-scan": check_uncertainty,
    "bohr": check_bohr,
}


def check_output(kind: str, data: bytes, fmt: str, expect: dict) -> int:
    """Check one CLI output; returns its data row count or raises CheckFailure."""
    try:
        return CHECKS[kind](data, fmt, expect)
    except (KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        raise CheckFailure(f"malformed {kind} output: {exc!r}") from exc


def check_routes(direct: np.ndarray, closed: np.ndarray):
    """The direct and closed-form intensities agree to ROUTE_RTOL relative."""
    _require(np.all(np.isfinite(direct)) and np.all(np.isfinite(closed)),
             "non-finite kernel output")
    mask = direct > 1e-300
    rel = float(np.max(np.abs(direct[mask] - closed[mask]) / closed[mask]))
    _require(rel <= ROUTE_RTOL, f"direct and closed-form routes differ by {rel!r} relative")
