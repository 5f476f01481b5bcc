"""Outside-in tracing: spans around whichway's public functions, from the
benchmark's own process, plus import costs from ``-X importtime``.

The program is not modified.  ``Tracer.install`` replaces each traced
function in every ``whichway`` module namespace that binds it (``cli`` imports
``closed_form_parts``, ``duality_report`` and others by name, and calls them
through its own globals), and ``uninstall`` puts the originals back.  A name
that a later refactor removes is reported as absent instead of failing.

A span is (function, start, end, parent span, job id).  Spans stay in memory
until the run ends.  A span's self time is its duration minus the durations
of its direct children; since calls nest, the self times of one job's spans
add up to the duration of its root spans.
"""
from __future__ import annotations

import functools
import gzip
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: (layer, module, function).  Self time of each function adds to its layer.
#: The layers are whichway's modules; packets is scalar set-up today and is
#: counted inside the pattern spans that call it.
TRACED = (
    ("cli.main", "whichway.cli", "main"),
    ("cli.config", "whichway.cli", "load_run_config"),
    ("cli.config", "whichway.cli", "load_sweep_config"),
    ("pattern.kernel", "whichway.pattern", "intensity_direct"),
    ("pattern.kernel", "whichway.pattern", "intensity_closed_form"),
    ("pattern.kernel", "whichway.pattern", "closed_form_parts"),
    ("pattern.kernel", "whichway.pattern", "conditional_patterns"),
    ("pattern.grid", "whichway.pattern", "pattern_on_grid"),
    ("analysis.visibility", "whichway.analysis", "numeric_visibility"),
    ("analysis.residual", "whichway.analysis", "oscillatory_residual"),
    ("analysis.report", "whichway.analysis", "duality_report"),
    ("qubit", "whichway.qubit", "make_detector_pair"),
    ("qubit", "whichway.qubit", "state_from_bloch"),
    ("qubit", "whichway.qubit", "sum_uncertainty"),
)

#: Per-layer metrics of the traced run: name -> (unit, better).  Times and
#: counts are per replayed operation (one CLI job, or one kernel call).
PER_LAYER = {
    "import.total_ms": ("ms", "lower"),
    "import.numpy_ms": ("ms", "lower"),
    "import.scipy_ms": ("ms", "lower"),
    "import.jsonschema_ms": ("ms", "lower"),
    "import.whichway_self_ms": ("ms", "lower"),
    "cli.main_ms": ("ms", "lower"),
    "cli.config_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "pattern.kernel_ms": ("ms", "lower"),
    "pattern.grid_ms": ("ms", "lower"),
    "pattern.points": ("count", "lower"),
    "pattern.calls": ("count", "lower"),
    "analysis.visibility_ms": ("ms", "lower"),
    "analysis.residual_ms": ("ms", "lower"),
    "analysis.report_self_ms": ("ms", "lower"),
    "analysis.calls": ("count", "lower"),
    "analysis.fringe_free_share": ("fraction", "higher"),
    "qubit.ms": ("ms", "lower"),
    "qubit.calls": ("count", "lower"),
    "trace.job_ms": ("ms", "lower"),
    "trace.untraced_job_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
}

#: The self-time layers that partition a traced job.
SELF_LAYERS = {
    "cli.main": "cli.self_ms",
    "cli.config": "cli.config_ms",
    "pattern.kernel": "pattern.kernel_ms",
    "pattern.grid": "pattern.grid_ms",
    "analysis.visibility": "analysis.visibility_ms",
    "analysis.residual": "analysis.residual_ms",
    "analysis.report": "analysis.report_self_ms",
    "qubit": "qubit.ms",
}


def _points(args) -> int:
    grid = args[0]
    n = getattr(grid, "n_points", None)
    if n is not None:
        return int(n)
    return int(getattr(grid, "size", 1))


class Tracer:
    """Records spans for the TRACED functions while installed.

    The functions are looked up on the first install, so whichway must be
    imported by then; install and uninstall may then alternate freely.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list = []
        self.points = 0
        self.fringe_free = 0
        self.absent: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._targets = None

    def _resolve(self) -> list:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "whichway" or name.startswith("whichway."))}
        targets = []
        for layer, module, name in TRACED:
            original = getattr(modules.get(module), name, None)
            if original is None:
                self.absent.append(f"{module}.{name}")
                continue
            wrapper = self._wrap(len(self.names), layer, original)
            self.names.append(f"{module}.{name}")
            self.layers.append(layer)
            targets += [(mod, name, original, wrapper) for mod in modules.values()
                        if getattr(mod, name, None) is original]
        return targets

    def install(self):
        if self._targets is None:
            self._targets = self._resolve()
        for mod, name, _, wrapper in self._targets:
            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original, _ in self._targets or ():
            setattr(mod, name, original)

    def _wrap(self, index: int, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts_points = layer == "pattern.kernel"
        flags_zero = fn.__name__ == "numeric_visibility"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (index, start, end, parent, self.job)
            if counts_points:
                self.points += _points(args)
            if flags_zero and result == 0.0:
                self.fringe_free += 1
            return result

        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-operation layer metrics over `jobs` replayed operations."""
        own = self.self_times()
        out = {metric: 0.0 for metric in SELF_LAYERS.values()}
        out.update({"cli.main_ms": 0.0, "pattern.points": 0, "pattern.calls": 0,
                    "analysis.calls": 0, "qubit.calls": 0})
        visibility_calls = 0
        for i, (index, start, end, _, _) in enumerate(self.spans):
            layer = self.layers[index]
            out[SELF_LAYERS[layer]] += own[i] * 1e3
            module = layer.split(".")[0]
            if layer == "cli.main":
                out["cli.main_ms"] += (end - start) * 1e3
            elif module in ("pattern", "analysis", "qubit"):
                out[f"{module}.calls"] += 1
            if layer == "analysis.visibility":
                visibility_calls += 1
        out["pattern.points"] = self.points
        share = self.fringe_free / visibility_calls if visibility_calls else 0.0
        per_job = {name: value / jobs for name, value in out.items()}
        per_job["analysis.fringe_free_share"] = share
        return per_job

    def dump(self, path: Path, extra: dict):
        """Write every span, gzipped (times in microseconds from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            **extra,
            "functions": self.names,
            "layers": self.layers,
            "absent": self.absent,
            "span_fields": ["function", "start_us", "end_us", "parent", "job"],
            "spans": [[i, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p, j]
                      for i, s, e, p, j in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# import costs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImportEntry:
    name: str
    level: int
    self_us: int
    cumulative_us: int


def parse_importtime(stderr: str) -> list[ImportEntry]:
    """Entries of ``-X importtime`` output, in the order Python printed them
    (a module appears after everything it imported)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        field = parts[2]
        name = field.strip()
        level = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append(ImportEntry(name, level, int(parts[0]), int(parts[1])))
    return entries


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def import_costs(entries: list[ImportEntry]) -> dict[str, float]:
    """import.* metrics (ms) for one ``import whichway.cli``.

    A package's cost is the cumulative time of its entries that no tracked
    package imported: numpy modules that scipy pulls in count as scipy's, so
    the package costs never overlap.
    """
    outermost: dict[str, float] = {"numpy": 0.0, "scipy": 0.0, "jsonschema": 0.0}
    total = whichway_self = 0.0
    stack: list[ImportEntry] = []
    for entry in reversed(entries):  # parents before their children
        while stack and stack[-1].level >= entry.level:
            stack.pop()
        outer = not any(_in_package(a.name, p) for a in stack for p in outermost)
        for package in outermost:
            if outer and _in_package(entry.name, package):
                outermost[package] += entry.cumulative_us / 1e3
        if _in_package(entry.name, "whichway"):
            whichway_self += entry.self_us / 1e3
            if entry.level == 0:
                total += entry.cumulative_us / 1e3
        stack.append(entry)
    return {
        "import.total_ms": total,
        "import.numpy_ms": outermost["numpy"],
        "import.scipy_ms": outermost["scipy"],
        "import.jsonschema_ms": outermost["jsonschema"],
        "import.whichway_self_ms": whichway_self,
    }


def measure_imports(python: str, env: dict, cwd: Path, runs: int) -> dict[str, float]:
    """Median import.* metrics over `runs` fresh interpreters."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import whichway.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
                              check=True)
        samples.append(import_costs(parse_importtime(proc.stderr)))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
