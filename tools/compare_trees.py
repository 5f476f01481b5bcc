"""Compare this tree's CLI output, or its API results, with another commit's.

    python tools/compare_trees.py --base <rev> [--n 200] [--api]

The base commit is checked out with ``git worktree add --detach`` into a
temporary directory, which is removed afterwards.  ``--n`` seeded configs
are drawn for every subcommand (``pattern``, ``eraser``, ``bohr``,
``uncertainty-scan``, ``scan-duality`` over all four sweep parameters):
in-range, overlapping-packet and float-range geometries, the default grid
and configured grids (odd point counts and grids too coarse to resolve the
fringes included), csv and json by flag or config, ``--out`` and stdout,
and bad ``--samples``.  Each config runs once in each tree as a fresh
``python -m whichway`` process with that tree's ``src`` on ``PYTHONPATH``,
in a fresh working directory, so the argv is the same byte for byte.

Exit codes, stderr (each tree's path replaced by ``<tree>``) and the output
bytes (stdout, or the ``--out`` file) are compared.  Each config that
differs is printed with its subcommand, its config, its first differing
line, the largest |delta| of each numeric column (absolute, and relative
to the base value) and the number of flipped cells of each true/false
column, such as ``egy_ok``.  A summary by subcommand follows, with the
largest deltas and the flipped cells over all configs.  The exit code is 0
when every config is identical and 1 otherwise.

``--api`` compares what the CLI cannot reach instead, calling the package
in one process per tree: ``--n`` seeded cases (see ``API_KINDS``) on joint
states with unequal path amplitudes, then every construction in
``_invalid_constructions``.  Each case's results (array bytes, the repr of
other values, and the type and message of an exception or warning) are
hashed into one digest, and the digests of the two trees are compared case
by case.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("scan-duality", "pattern", "eraser", "bohr", "uncertainty-scan")
SWEEP_PARAMS = ("overlap", "phase", "packet_width", "screen_dist")
POINT_COUNTS = (64, 128, 1000, 4096, 4097, 8192, 8193, 16385)


@dataclass(frozen=True)
class Case:
    """One CLI invocation: the argv after ``python -m whichway``, and the
    config written beside it as config.json (None for uncertainty-scan)."""

    command: str
    argv: tuple[str, ...]
    config: dict | None
    out: str | None


@dataclass(frozen=True)
class Outcome:
    code: int
    stderr: str
    output: bytes


def fringe_width(geo: dict) -> float:
    """whichway.pattern.fringe_width, restated so that drawing configs
    imports neither tree."""
    lam, d, dist, eps = geo["lambda_d"], geo["slit_sep"], geo["screen_dist"], geo["packet_width"]
    try:
        return lam * dist / d + 16.0 * math.pi**2 * eps**4 / (lam * d * dist)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _geometry(rng: random.Random) -> dict:
    kind = rng.random()
    if kind < 0.1:  # anywhere in the float range: most end in exit 1 or 2
        return {name: _log_uniform(rng, 1e-300, 1e300)
                for name in ("lambda_d", "slit_sep", "screen_dist", "packet_width")}
    slit_sep = rng.uniform(5e-5, 2e-4)
    # slit separations of 8-20 packet widths, or 2-4: packets that overlap
    # at the slits, which Geometry warns about
    ratio = rng.uniform(2.0, 4.0) if kind < 0.25 else rng.uniform(8.0, 20.0)
    return {"lambda_d": rng.uniform(4e-7, 6e-7), "slit_sep": slit_sep,
            "screen_dist": rng.uniform(0.5, 2.0), "packet_width": slit_sep / ratio}


def _overlap(rng: random.Random) -> float:
    return rng.choice((0.0, 1.0, _log_uniform(rng, 1e-9, 1e-3), rng.uniform(0.0, 1.0),
                       rng.uniform(0.0, 1.0)))


def _run_config(rng: random.Random, command: str) -> dict:
    geometry = _geometry(rng)
    cfg = {"geometry": geometry, "detector": {"overlap": _overlap(rng)}}
    if rng.random() < 0.8:
        cfg["detector"]["phase"] = rng.uniform(-math.pi, math.pi)
    if rng.random() < 0.5:
        # 2-8 fringe widths either side; 64 points over 16 widths cannot
        # resolve the fringes and is refused
        half = rng.uniform(2.0, 8.0) * fringe_width(geometry)
        if math.isfinite(half):
            cfg["grid"] = {"x_min": -half, "x_max": half, "n_points": rng.choice(POINT_COUNTS)}
    if command == "eraser" and rng.random() < 0.95:
        cfg["eraser"] = {"enabled": True}
        if rng.random() < 0.8:
            cfg["eraser"]["basis_angle"] = rng.uniform(0.0, math.pi)
    if rng.random() < 0.3:
        cfg["output"] = {"format": rng.choice(("csv", "json"))}
    return cfg


def _sweep_values(rng: random.Random, param: str, base: dict) -> list[float]:
    count = rng.randint(1, 12)
    if param == "overlap":
        return [_overlap(rng) for _ in range(count)]
    if param == "phase":
        return [rng.uniform(-math.pi, math.pi) for _ in range(count)]
    if param == "screen_dist":
        return [rng.uniform(0.5, 2.0) for _ in range(count)]
    sep = base["geometry"]["slit_sep"]
    return [sep / rng.uniform(8.0, 20.0) for _ in range(count)]


def draw_cases(n: int, seed: int) -> list[Case]:
    """n seeded cases, the subcommands in turn so that each gets its share."""
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        command = COMMANDS[i % len(COMMANDS)]
        flags: list[str] = []
        if rng.random() < 0.5:
            flags += ["--format", rng.choice(("csv", "json"))]
        out = f"out.{rng.choice(('csv', 'json', 'txt'))}" if rng.random() < 0.5 else None
        if out is not None:
            flags += ["--out", out]
        if command == "uncertainty-scan":
            samples = rng.choice((rng.randint(1, 3000), rng.randint(1, 3000), 0, -3))
            cases.append(Case(command, (command, "--samples", str(samples), *flags), None, out))
            continue
        config = _run_config(rng, command)
        if command == "scan-duality":
            param = rng.choice(SWEEP_PARAMS)
            config = {"base": config, "sweep_param": param,
                      "values": _sweep_values(rng, param, config)}
        cases.append(Case(command, (command, "--config", "config.json", *flags), config, out))
    return cases


def run_case(tree: Path, case: Case, workdir: Path) -> Outcome:
    """Run case in a fresh process of the whichway under tree/src."""
    workdir.mkdir(parents=True)
    if case.config is not None:
        (workdir / "config.json").write_text(json.dumps(case.config), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "whichway", *case.argv], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    output = proc.stdout
    if case.out is not None and (workdir / case.out).is_file():
        output += (workdir / case.out).read_bytes()
    stderr = proc.stderr.decode("utf-8", "replace").replace(str(tree), "<tree>")
    return Outcome(proc.returncode, stderr, output)


def _columns(text: str) -> dict[str, list[str]]:
    """The cells of a csv or json output by column name; {} when it is
    neither."""
    if text.startswith("{"):
        try:
            parsed = json.loads(text)
        except ValueError:
            return {}
        return {k: [str(x) for x in (v if isinstance(v, list) else [v])]
                for k, v in parsed.items()}
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body if i < len(row)] for i, name in enumerate(header)}


def _paired_columns(base: bytes, head: bytes):
    """(name, base cells, head cells) of each column both outputs hold with
    the same number of cells."""
    old = _columns(base.decode("utf-8", "replace"))
    new = _columns(head.decode("utf-8", "replace"))
    for name, cells in old.items():
        if name in new and len(new[name]) == len(cells):
            yield name, cells, new[name]


def column_deltas(base: bytes, head: bytes) -> dict[str, tuple[float, float]]:
    """For each column whose cells are all numbers in both outputs: the
    largest |head - base|, and the largest |head - base| / |base| over the
    cells where base is not 0."""
    deltas = {}
    for name, cells, new_cells in _paired_columns(base, head):
        try:
            pairs = [(float(a), float(b)) for a, b in zip(cells, new_cells)]
        except ValueError:
            continue
        diffs = [abs(b - a) for a, b in pairs]
        rel = [abs(b - a) / abs(a) for a, b in pairs if a != 0.0]
        deltas[name] = (max(diffs, default=0.0), max(rel, default=0.0))
    return deltas


def _is_flag(cells: list[str]) -> bool:
    # csv writes true/false, and a json bool reads back as True/False
    return bool(cells) and all(cell.lower() in ("true", "false") for cell in cells)


def flag_flips(base: bytes, head: bytes) -> dict[str, tuple[int, int]]:
    """For each column whose cells are all true/false in both outputs: the
    number of cells that flipped, and the number of cells."""
    return {name: (sum(a.lower() != b.lower() for a, b in zip(cells, new_cells)), len(cells))
            for name, cells, new_cells in _paired_columns(base, head)
            if _is_flag(cells) and _is_flag(new_cells)}


def first_difference(base: str, head: str) -> tuple[int, str, str] | None:
    """(line number, base line, head line) of the first line that differs."""
    old, new = base.splitlines(), head.splitlines()
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else "<missing>"
        b = new[i] if i < len(new) else "<missing>"
        if a != b:
            return i + 1, a, b
    return None


def describe(case: Case, base: Outcome, head: Outcome) -> list[str]:
    """Lines that say how head differs from base; [] when it does not."""
    lines = []
    if base.code != head.code:
        lines.append(f"  exit code: base {base.code}, tree {head.code}")
    for what, a, b in (("stderr", base.stderr, head.stderr),
                       ("output", base.output.decode("utf-8", "replace"),
                        head.output.decode("utf-8", "replace"))):
        diff = first_difference(a, b)
        if diff is not None:
            number, old, new = diff
            lines.append(f"  {what} line {number}:\n    base: {old[:200]}\n    tree: {new[:200]}")
    if base.output != head.output:
        for name, (absolute, relative) in column_deltas(base.output, head.output).items():
            if absolute:
                lines.append(f"  max |delta| {name}: {absolute:.3g} (relative {relative:.3g})")
        for name, (flipped, cells) in flag_flips(base.output, head.output).items():
            lines.append(f"  flipped {name}: {flipped} of {cells}")
    if lines:
        lines.insert(0, f"{case.command} {' '.join(case.argv[1:])}\n  config: "
                        f"{json.dumps(case.config)}")
    return lines


def compare(base_tree: Path, head_tree: Path, n: int, seed: int, report=print) -> int:
    """Run n seeded cases in both trees and report each difference and a
    summary; returns the number of cases that differ."""
    cases = draw_cases(n, seed)
    differing: Counter = Counter()
    codes: Counter = Counter()
    worst: dict[str, tuple[float, float]] = {}
    flips: Counter = Counter()
    flag_cells: Counter = Counter()
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        for i, case in enumerate(cases):
            base = run_case(base_tree, case, Path(tmp, "base", str(i)))
            head = run_case(head_tree, case, Path(tmp, "tree", str(i)))
            codes[head.code] += 1
            lines = describe(case, base, head)
            if lines:
                differing[case.command] += 1
                report(f"[{i}] " + "\n".join(lines))
                for name, (absolute, relative) in column_deltas(base.output, head.output).items():
                    old = worst.get(name, (0.0, 0.0))
                    worst[name] = (max(old[0], absolute), max(old[1], relative))
                for name, (flipped, cells) in flag_flips(base.output, head.output).items():
                    flips[name] += flipped
                    flag_cells[name] += cells
    total = Counter(case.command for case in cases)
    report(f"{n} configs (seed {seed}); exit codes "
           + ", ".join(f"{code}: {count}" for code, count in sorted(codes.items())))
    for command in COMMANDS:
        report(f"  {command}: {total[command] - differing[command]} of {total[command]} "
               "identical")
    for name, (absolute, relative) in sorted(worst.items()):
        if absolute:
            report(f"  max |delta| over all configs, {name}: {absolute:.3g} "
                   f"(relative {relative:.3g})")
    report(f"  flipped true/false cells over all configs: {sum(flips.values())}")
    for name in sorted(flag_cells):
        report(f"  flipped {name}: {flips[name]} of the {flag_cells[name]} cells "
               "in differing outputs")
    return sum(differing.values())


# ---------------------------------------------------------------------------
# --api: seeded API cases, one digest each
# ---------------------------------------------------------------------------

def _api_geometry(rng: random.Random):
    from whichway import Geometry

    geo = _geometry(rng)
    return Geometry(geo["lambda_d"], geo["slit_sep"], geo["screen_dist"], geo["packet_width"])


def _api_joint_state(rng: random.Random):
    """A JointState with unequal path amplitudes, which no subcommand builds."""
    from whichway import JointState, make_detector_pair

    geom = _api_geometry(rng)
    pair = make_detector_pair(_overlap(rng), rng.uniform(-math.pi, math.pi))
    t = rng.uniform(0.0, 0.5 * math.pi)
    return JointState(geom, pair, (math.cos(t), math.sin(t) * cmath.exp(1j * rng.uniform(-4, 4))))


def _api_grid(rng: random.Random, geom):
    from whichway import ScreenGrid, default_grid, fringe_width

    if rng.random() < 0.5:
        return default_grid(geom)
    half = rng.uniform(2.0, 8.0) * fringe_width(geom)
    return ScreenGrid(-half, half, rng.choice(POINT_COUNTS))


def _samples_parts(samples) -> list:
    return [samples.intensity, samples.norm_constant, samples.path_weights]


def _api_pattern(rng: random.Random) -> list:
    """The path states, both routes' grid patterns, their which-way
    references and visibilities, on unequal path amplitudes."""
    from whichway import closed_form_on_grid, numeric_visibility, pattern_on_grid, rotated_basis

    js = _api_joint_state(rng)
    basis = rotated_basis(rng.uniform(0.0, math.pi))
    parts = [repr(js), js.path_state(), js.path_state(basis.b1), js.path_state(basis.b2)]
    grid = _api_grid(rng, js.geom)
    direct = pattern_on_grid(grid, js)
    parts += _samples_parts(direct) + [direct.which_way(), numeric_visibility(direct)]
    closed, envelope, interference = closed_form_on_grid(grid, js)
    return parts + _samples_parts(closed) + [envelope, interference, closed.which_way()]


def _api_positions(rng: random.Random) -> list:
    """Both intensity routes and the closed form's parts at positions, one
    and many, past one kernel block too, and across two block boundaries
    into a partial last block."""
    from whichway import closed_form_parts, fringe_width, intensity_closed_form, intensity_direct

    js = _api_joint_state(rng)
    half = rng.uniform(1.0, 8.0) * fringe_width(js.geom)
    count = rng.choice((1, 7, 1000, 9000, 3 * 8192 + 5))
    xs = np.array([rng.uniform(-half, half) for _ in range(count)])
    x = xs[0].item()
    return [intensity_direct(xs, js), intensity_closed_form(xs, js), *closed_form_parts(xs, js),
            intensity_direct(x, js), intensity_closed_form(x, js), closed_form_parts(x, js)]


def _api_eraser(rng: random.Random) -> list:
    """Both conditioned branches and their sum, their which-way references
    and visibilities, on unequal path amplitudes."""
    from whichway import (conditional_patterns, eraser_branch_visibilities, mub_basis,
                          rotated_basis)

    js = _api_joint_state(rng)
    basis = mub_basis() if rng.random() < 0.3 else rotated_basis(rng.uniform(0.0, math.pi))
    er = conditional_patterns(_api_grid(rng, js.geom), js, basis)
    return [*_samples_parts(er.i_b), *_samples_parts(er.i_b_perp), *_samples_parts(er.i_sum),
            er.i_b.which_way(), er.i_b_perp.which_way(), eraser_branch_visibilities(er)]


def _api_observable(rng: random.Random) -> list:
    """The eraser observable on unequal path weights (duality_report builds
    only equal ones) and the detector state's variances."""
    from whichway import sum_uncertainty
    from whichway.analysis import _eraser_observable_expectation

    js = _api_joint_state(rng)
    return [_eraser_observable_expectation(js), *sum_uncertainty(js.pair.d1)]


def _invalid_constructions() -> tuple:
    """Constructions that each of the 14 records refuses: bad values, and
    missing or unknown arguments."""
    import whichway as w
    from whichway.cli import RunConfig
    from whichway.pattern import BranchPackets

    geom = w.Geometry(5e-7, 1e-4, 1.0, 1e-5)
    pair = w.make_detector_pair(0.6, 0.3)
    nan = math.nan
    return (
        lambda: w.Geometry(-5e-7, 1e-4, 1.0, 1e-5),
        lambda: w.Geometry(5e-7, 1e-4, nan, 1e-5),
        lambda: w.Geometry(5e-7, 1e-4, 1.0, "wide"),
        lambda: w.Geometry(5e-7, 1e-4, 1.0),
        lambda: w.BohrReport(1.0, 1.0, 1.0),
        lambda: w.BohrReport(1.0, 1.0, 0.0),
        lambda: w.BohrReport(1.0, 1.0, 1.0, ratio=1.0),
        lambda: RunConfig(geom, 0.6, 0.3, None, False, 0.7, None),
        lambda: w.DetectorState(1.0, 1.0),
        lambda: w.DetectorState(complex(nan, 0.0), 0.0),
        lambda: w.DetectorState(c1=1.0),
        lambda: w.DetectorStates(np.ones(2), np.zeros(3)),
        lambda: w.DetectorStates(np.ones((2, 1)), np.zeros((2, 1))),
        lambda: w.DetectorStates(np.array([1.0, nan]), np.zeros(2)),
        lambda: w.DetectorStates(np.array([1.0, 0.9]), np.zeros(2)),
        lambda: w.DetectorPair(pair.d1, 0.5),
        lambda: w.DetectorPair(pair.d1, 0.6, d2=pair.d1),
        lambda: w.DichotomicObservable((1.0, 1.0, 0.0)),
        lambda: w.DichotomicObservable((1.0, 0.0)),
        lambda: w.DichotomicObservable((nan, 0.0, 0.0)),
        lambda: w.MeasurementBasis(pair.d1, pair.d1),
        lambda: w.ScreenGrid(0.01, -0.01, 128),
        lambda: w.ScreenGrid(-0.01, 0.01, 1),
        lambda: w.ScreenGrid(-0.01, math.inf, 128),
        lambda: w.ScreenGrid(0.0, 1e-320, 64),
        lambda: w.JointState(geom, pair, (1.0, 1.0)),
        lambda: w.JointState(geom, pair, (1.0,)),
        lambda: w.JointState(geom, pair, (nan, 0.0)),
        lambda: w.DualityReport(D=1.0, V_bound=0.0, V_numeric=0.0, dP2=0.0, dQ2=0.0,
                                lhs=1.0, rhs_unc=2.0),
        lambda: w.DualityReport(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, egy_ok=True),
        lambda: w.PatternSamples(None, None, 1.0, geom),
        lambda: w.EraserResult(None, None),
        lambda: BranchPackets(None, None, None, None, None),
    )


#: Each kind of seeded API case, drawn in turn.
API_KINDS = {"pattern": _api_pattern, "positions": _api_positions, "eraser": _api_eraser,
             "observable": _api_observable}


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (np.ndarray, np.generic)):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _outcome_digest(case) -> str:
    """The digest of what case() returns, or of the exception it raises,
    with the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parts = case()
        except Exception as exc:
            parts = [f"{type(exc).__name__}: {exc}"]
    parts += [f"{w.category.__name__} in {Path(w.filename).name}: {w.message}" for w in caught]
    return _digest(parts)


def api_digests(n: int, seed: int) -> list[tuple[str, str]]:
    """(kind, digest) of n seeded API cases, then of each invalid
    construction, run against the whichway that ``import whichway`` finds.
    Case i draws from its own seed, so a case that fails early does not
    shift the draws of the next."""
    digests = []
    for i in range(n):
        kind = list(API_KINDS)[i % len(API_KINDS)]
        rng = random.Random(seed * 1_000_003 + i)
        digests.append((kind, _outcome_digest(lambda: API_KINDS[kind](rng))))
    for construction in _invalid_constructions():
        digests.append(("invalid", _outcome_digest(lambda: ["no error", repr(construction())])))
    return digests


def run_api(tree: Path, n: int, seed: int) -> list[tuple[str, str]]:
    """api_digests(n, seed) in a fresh process of the whichway under tree/src."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"import compare_trees; print(json.dumps(compare_trees.api_digests({n}, {seed})))")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="compare-api-") as cwd:
        proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"API cases failed in {tree}:\n{proc.stderr}")
    return [tuple(case) for case in json.loads(proc.stdout.splitlines()[-1])]


def compare_api(base_tree: Path, head_tree: Path, n: int, seed: int, report=print) -> int:
    """Run n seeded API cases in both trees and report each case whose
    digest differs and a summary by kind; returns the number that differ."""
    base, head = run_api(base_tree, n, seed), run_api(head_tree, n, seed)
    differing: Counter = Counter()
    for i, ((kind, old), (_, new)) in enumerate(zip(base, head)):
        if old != new:
            differing[kind] += 1
            report(f"[{i}] {kind}: base {old[:16]}, tree {new[:16]}")
    total = Counter(kind for kind, _ in base)
    report(f"{n} seeded API cases (seed {seed}) and {total['invalid']} invalid constructions")
    for kind in [*API_KINDS, "invalid"]:
        report(f"  {kind}: {total[kind] - differing[kind]} of {total[kind]} identical")
    return sum(differing.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--n", type=int, default=200,
                        help="number of configs or API cases (default 200)")
    parser.add_argument("--api", action="store_true",
                        help="compare seeded API cases instead of CLI runs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-base-") as tmp:
        checkout = Path(tmp, "base")
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(checkout), args.base], check=True)
        try:
            differing = (compare_api if args.api else compare)(checkout, ROOT, args.n, 0)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(checkout)], check=False)
            shutil.rmtree(checkout, ignore_errors=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
