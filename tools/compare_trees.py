"""Compare this tree's CLI output with another commit's, config by config.

    python tools/compare_trees.py --base <rev> [--n 200]

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
line and the largest |delta| of each numeric column (absolute, and relative
to the base value).  A summary by subcommand follows.  The exit code is 0
when every config is identical and 1 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

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


def column_deltas(base: bytes, head: bytes) -> dict[str, tuple[float, float]]:
    """For each column whose cells are all numbers in both outputs: the
    largest |head - base|, and the largest |head - base| / |base| over the
    cells where base is not 0."""
    old = _columns(base.decode("utf-8", "replace"))
    new = _columns(head.decode("utf-8", "replace"))
    deltas = {}
    for name, cells in old.items():
        if name not in new or len(new[name]) != len(cells):
            continue
        try:
            pairs = [(float(a), float(b)) for a, b in zip(cells, new[name])]
        except ValueError:
            continue
        diffs = [abs(b - a) for a, b in pairs]
        rel = [abs(b - a) / abs(a) for a, b in pairs if a != 0.0]
        deltas[name] = (max(diffs, default=0.0), max(rel, default=0.0))
    return deltas


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
    return sum(differing.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--n", type=int, default=200, help="number of configs (default 200)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-base-") as tmp:
        checkout = Path(tmp, "base")
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(checkout), args.base], check=True)
        try:
            differing = compare(checkout, ROOT, args.n, 0)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(checkout)], check=False)
            shutil.rmtree(checkout, ignore_errors=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], check=False)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
