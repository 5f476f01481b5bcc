"""whichway end-to-end benchmark.

    python3 e2ebench/run.py --workload cli-jobs --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: whichway is imported from ./src, never from
an installed copy.  Every workload is a closed loop with one client issuing
one operation at a time; inputs come from --seed (see workloads.py) and every
output is checked (see checks.py) outside the timed interval.

--trace 0 measures the end-to-end metrics, without tracing, with every time
scaled to one host speed (see ReferenceClock).  --trace 1
replays the same operations in this process, once plain and once with spans
around whichway's public functions (see tracer.py), and reports per-layer
metrics and the tracing overhead.  Either way the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Human-readable
lines, the run metadata and the spans go before it and into .e2ebench/.
"""
from __future__ import annotations

import os

# Set before numpy loads, here and in every child: polyfit's LAPACK call must
# not spread over the two cores the client and the job share.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".e2ebench"

#: Metric name -> unit.  Every workload reports all of them under --trace 0.
END_TO_END = {
    "setup_s": "s",
    "job_ms_p50": "ms",
    "jobs_per_s": "1/s",
    "configs_per_s": "1/s",
    "rows_per_s": "1/s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 9
IMPORT_RUNS = 3
JOB_TIMEOUT_S = 60.0
#: A measuring loop stops after this long whatever else it still wants, so
#: that a run ends within the 180 s a run may take.
LOOP_LIMIT_S = 110.0
#: Share of --seconds that the plain half of the traced replay runs for.
REPLAY_SHARE = 0.35


@dataclass
class Tally:
    """Operations of one run and the work they completed."""

    times_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    configs: int = 0
    rows: int = 0
    points: int = 0
    peak_rss_kb: int = 0
    out_bytes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def fail(self, what: str, why: str):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{what}: {why}")

    def same_as_before(self, key: str, digest: str) -> bool:
        """Byte-determinism: a repeated operation must reproduce its first output."""
        return self.digests.setdefault(key, digest) == digest


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def versions() -> dict:
    out = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            out[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            out[dist] = "absent"
    return out


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

_BACKEND = ("b = getattr(whichway, 'backend_name', None); "
            "print(repr(t), b() if b else 'absent')")

SETUP_CLI = "import time; import whichway.cli; t = time.perf_counter(); import whichway; " + _BACKEND


def setup_warm(plan: workloads.KernelPlan) -> str:
    g = plan.geometry
    return (
        "import time; import whichway; "
        f"js = whichway.JointState(whichway.Geometry({g['lambda_d']!r}, {g['slit_sep']!r}, "
        f"{g['screen_dist']!r}, {g['packet_width']!r}), whichway.make_detector_pair(0.5)); "
        f"xs = whichway.ScreenGrid({-plan.half_span!r}, {plan.half_span!r}, {plan.n_points}).xs(); "
        "whichway.intensity_direct(xs, js); t = time.perf_counter(); " + _BACKEND
    )


def reference_work():
    """Work that does not touch whichway: numpy and pure Python on a small array."""
    x = np.linspace(-1.0, 1.0, 8192)
    acc = 0.0
    for k in range(24):
        y = np.exp(-x * x * (k + 1)) * np.cos(40.0 * x + k)
        acc += float(np.abs(np.fft.rfft(y)).max())
    return acc + sum(i * i for i in range(60_000))


#: reference_work's median time, in seconds, on the host where the baseline
#: in README.md was measured.
REFERENCE_S = 0.0105


class ReferenceClock:
    """Scales wall times to the host speed at which reference_work takes
    REFERENCE_S.

    A shared 2-core host switches between speeds about 1.4x apart every few
    seconds, so raw times of one workload spread by a quarter from run to
    run.  reference_work is timed before and after each thing measured, and
    its time is scaled by REFERENCE_S over the mean of the two.
    """

    def __init__(self):
        for _ in range(5):
            self._time()  # warm-up
        self.samples = [self._time()]

    @staticmethod
    def _time() -> float:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start

    def scale(self, times: list[float]) -> list[float]:
        """`times`, measured since the last call, at the reference speed."""
        self.samples.append(self._time())
        factor = 2.0 * REFERENCE_S / (self.samples[-2] + self.samples[-1])
        return [t * factor for t in times]


class SetupProbe:
    """Seconds from interpreter launch until `code` has imported and warmed up.

    perf_counter is CLOCK_MONOTONIC, shared by parent and child.  One
    untimed launch first fills the bytecode and page caches.
    """

    def __init__(self, code: str, env: dict):
        self.argv, self.env = [sys.executable, "-c", code], env
        self.samples: list[float] = []
        self.backend = "absent"
        subprocess.run(self.argv, env=env, cwd=ROOT, capture_output=True, timeout=60, check=True)

    def sample(self):
        start = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        stamp, self.backend = proc.stdout.split()
        self.samples.append(float(stamp) - start)
        return self.samples[-1]


# ---------------------------------------------------------------------------
# operations
#
# A unit is one CLI job, or the three kernel calls of one detector state.
# unit(n) runs the n-th unit of the workload's cycle, checks its outputs into
# the tally, and returns the wall time of each operation it ran.
# ---------------------------------------------------------------------------

def account(tally: Tally, job: workloads.Job, code: int, detail: str):
    """Check one finished job's output and add its work to the tally."""
    tally.attempted += 1
    if code != 0:
        tally.fail(job.key, f"exit code {code}: {detail[-300:]}")
        return
    try:
        data = job.out.read_bytes()
        rows = checks.check_output(job.kind, data, job.fmt, job.expect)
    except (OSError, checks.CheckFailure) as exc:
        tally.fail(job.key, str(exc))
        return
    if not tally.same_as_before(job.key, hashlib.sha256(data).hexdigest()):
        tally.fail(job.key, "output bytes differ from the first run of the same job")
        return
    tally.configs += job.configs
    tally.rows += rows
    tally.points += job.points


def cold_jobs(jobs: list, env: dict, errlog: Path, tally: Tally):
    """Units that each run one `python -m whichway` process, timed from spawn to reap."""
    def unit(n: int) -> list[float]:
        job = jobs[n % len(jobs)]
        job.out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "whichway", *job.argv]
        with open(errlog, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, env=env, cwd=ROOT)
            watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        tally.peak_rss_kb = max(tally.peak_rss_kb, usage.ru_maxrss)
        account(tally, job, proc.returncode,
                errlog.read_text(errors="replace") if proc.returncode else "")
        return [elapsed]
    return unit


def inprocess_jobs(cli, jobs: list, tally: Tally):
    """Units that each run one job in this process through cli.main(argv)."""
    def unit(n: int) -> list[float]:
        job = jobs[n % len(jobs)]
        job.out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(job.argv))
            elapsed = time.perf_counter() - start
        tally.out_bytes.append(job.out.stat().st_size if job.out.exists() else 0)
        account(tally, job, code, err.getvalue())
        return [elapsed]
    return unit


def import_whichway():
    sys.path.insert(0, str(SRC))
    import whichway
    import whichway.cli  # noqa: F401  (traced as a layer)

    if not Path(whichway.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"whichway was imported from {whichway.__file__}, not {SRC}")
    return whichway


def kernel_states(ww, plan: workloads.KernelPlan):
    """Per seeded detector state, its three kernel calls.

    Functions are looked up on the package at call time so that the tracer's
    wrappers take effect.
    """
    g = plan.geometry
    geom = ww.Geometry(g["lambda_d"], g["slit_sep"], g["screen_dist"], g["packet_width"])
    grid = ww.ScreenGrid(-plan.half_span, plan.half_span, plan.n_points)
    xs = grid.xs()
    states = []
    for st in plan.states:
        js = ww.JointState(geom, ww.make_detector_pair(st.overlap, st.phase))
        basis = ww.rotated_basis(st.basis_angle)
        states.append((
            ("direct", lambda js=js: ww.intensity_direct(xs, js)),
            ("closed", lambda js=js: ww.intensity_closed_form(xs, js)),
            ("conditional", lambda js=js, b=basis: ww.conditional_patterns(grid, js, b)),
        ))
    return states


def kernel_bytes(result) -> bytes:
    if hasattr(result, "i_b"):
        return b"".join(p.intensity.tobytes() for p in (result.i_b, result.i_b_perp, result.i_sum))
    return result.tobytes()


def kernel_calls(states: list, n_points: int, tally: Tally):
    """Units that each make the three kernel calls of one detector state."""
    def unit(n: int) -> list[float]:
        state = n % len(states)
        outputs, times = {}, []
        for kind, call in states[state]:
            start = time.perf_counter()
            outputs[kind] = call()
            times.append(time.perf_counter() - start)
        check_state(tally, state, outputs, n_points)
        return times
    return unit


def check_state(tally: Tally, state: int, outputs: dict, n_points: int):
    """Route agreement and determinism for one detector state's three calls."""
    bad = {}
    try:
        checks.check_routes(outputs["direct"], outputs["closed"])
    except checks.CheckFailure as exc:
        bad = {"direct": str(exc), "closed": str(exc)}
    for kind, result in outputs.items():
        digest = hashlib.sha256(kernel_bytes(result)).hexdigest()
        if not tally.same_as_before(f"{state}:{kind}", digest):
            bad.setdefault(kind, "output bytes differ from the first call")
    tally.attempted += len(outputs)
    for kind, why in bad.items():
        tally.fail(f"state {state} {kind}", why)
    good = len(outputs) - len(bad)
    tally.configs += 0 if bad else 1
    tally.rows += good * n_points
    tally.points += good * n_points


def units_for(name: str, seed: int, env: dict, workdir: Path, inprocess: bool):
    """(make_unit(tally), cycle length) for a workload; inputs come from the seed."""
    rng = random.Random(seed)
    if name == "warm-kernels":
        plan = workloads.warm_kernels(rng)
        states = kernel_states(import_whichway(), plan)
        return (lambda tally: kernel_calls(states, plan.n_points, tally)), len(states)
    jobs = workloads.CLI_GENERATORS[name](rng, workdir)
    if inprocess:
        cli = import_whichway().cli
        return (lambda tally: inprocess_jobs(cli, jobs, tally)), len(jobs)
    errlog = workdir / "stderr.log"
    return (lambda tally: cold_jobs(jobs, env, errlog, tally)), len(jobs)


# ---------------------------------------------------------------------------
# end-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def summarize(setup_times: list, times: list, tally: Tally) -> dict:
    """End-to-end timings and rates from set-up and operation times."""
    busy = sum(times)
    return {
        "setup_s": statistics.median(setup_times),
        "job_ms_p50": statistics.median(times) * 1e3,
        "jobs_per_s": len(times) / busy,
        "configs_per_s": tally.configs / busy,
        "rows_per_s": tally.rows / busy,
        "points_per_s": tally.points / busy,
    }


def end_to_end(name: str, seed: int, seconds: float, env: dict, workdir: Path):
    inprocess = name == "warm-kernels"
    code = setup_warm(workloads.warm_kernels(random.Random(seed))) \
        if name == "warm-kernels" else SETUP_CLI
    setup = SetupProbe(code, env)
    make_unit, cycle = units_for(name, seed, env, workdir, inprocess)
    if inprocess:
        make_unit(Tally())(0)  # warm-up
    tally = Tally()
    unit = make_unit(tally)
    clock = ReferenceClock()
    times, setup_times = [], []
    # cli-jobs cycles through five subcommands of very different output sizes;
    # stopping mid-cycle would swing configs_per_s and rows_per_s by which
    # subcommands made it in, so that workload stops on a cycle boundary.
    whole_cycles = name == "cli-jobs"
    limit = time.perf_counter() + LOOP_LIMIT_S
    n = 0
    # at least one repeat of the first unit, for the determinism check
    while (sum(tally.times_s) < seconds or n <= cycle or (whole_cycles and n % cycle)) \
            and time.perf_counter() < limit:
        # set-up launches are spread over the run, like the operations
        if len(setup.samples) < SETUP_RUNS \
                and len(setup.samples) * seconds <= sum(tally.times_s) * SETUP_RUNS:
            setup_times += clock.scale([setup.sample()])
        unit_times = unit(n)
        tally.times_s += unit_times
        times += clock.scale(unit_times)
        n += 1
    while len(setup.samples) < SETUP_RUNS:
        setup_times += clock.scale([setup.sample()])
    if inprocess:
        tally.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = summarize(setup_times, times, tally)
    metrics["peak_rss_mb"] = tally.peak_rss_kb / 1024.0
    extra = {
        "operations": len(tally.times_s),
        "in_process": inprocess,
        "error_rate": tally.failed / tally.attempted,
        "host_slowdown": statistics.median(clock.samples) / REFERENCE_S,
        "unscaled": summarize(setup.samples, tally.times_s, tally),
        "reference_samples_s": clock.samples,
        "setup_samples_s": setup.samples,
        "job_ms_samples": [t * 1e3 for t in tally.times_s],
        "backend": setup.backend,
    }
    if len(times) >= 100:  # ten samples beyond the 90th percentile
        extra["job_ms_p90"] = statistics.quantiles(times, n=10)[8] * 1e3
    return tally, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

def traced(name: str, seed: int, seconds: float, env: dict, workdir: Path):
    """Replay the workload's units in this process, each once plain and then
    once with spans.  The overhead is their ratio at the reference speed,
    applied to the traced time, so that the host's speed changes between
    the two replays do not enter it."""
    imports = tracer.measure_imports(sys.executable, env, ROOT, IMPORT_RUNS)
    make_unit, cycle = units_for(name, seed, env, workdir, inprocess=True)
    make_unit(Tally())(0)  # warm-up
    tally = Tally()
    unit = make_unit(tally)
    spans = tracer.Tracer()
    clock = ReferenceClock()
    plain, timed, plain_ref, timed_ref = [], [], [], []
    limit = time.perf_counter() + LOOP_LIMIT_S
    n = 0
    # at least one whole cycle, so that every generated job is traced
    while (sum(plain) < REPLAY_SHARE * seconds or n < cycle) and time.perf_counter() < limit:
        unit_times = unit(n)
        plain += unit_times
        plain_ref += clock.scale(unit_times)
        spans.job = n
        spans.install()
        try:
            unit_times = unit(n)
        finally:
            spans.uninstall()
        timed += unit_times
        timed_ref += clock.scale(unit_times)
        n += 1
    ops = len(timed)
    layer = spans.layer_metrics(ops)
    job_ms = sum(timed) / ops * 1e3
    overhead_ms = job_ms * (1.0 - sum(plain_ref) / sum(timed_ref))
    metrics = {
        **imports,
        **layer,
        "cli.bytes_out": statistics.fmean(tally.out_bytes) if tally.out_bytes else 0.0,
        "trace.job_ms": job_ms,
        "trace.untraced_job_ms": job_ms - overhead_ms,
        "trace.overhead_ms": overhead_ms,
        "trace.unattributed_ms": job_ms - sum(layer[m] for m in tracer.SELF_LAYERS.values()),
    }
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json.gz"
    spans.dump(spans_path, {"workload": name, "seed": seed, "operations": ops})
    ww = sys.modules["whichway"]
    extra = {
        "operations": ops,
        "error_rate": tally.failed / tally.attempted,
        "absent": spans.absent,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "backend": ww.backend_name() if hasattr(ww, "backend_name") else "absent",
    }
    return tally, {k: (v, tracer.PER_LAYER[k][0]) for k, v in metrics.items()}, extra


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "whichway" / "cli.py").is_file():
        print(f"error: no whichway sources under {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    # One CPU for the client, its jobs and the reference: the loop is closed,
    # so they never run at once, and the host's two CPUs change speed apart.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    measure = traced if args.trace else end_to_end
    try:
        tally, metrics, extra = measure(args.workload, args.seed, args.seconds, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        **versions(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "thread_env": THREAD_ENV,
        "loop": "closed, one client, one operation at a time",
        **extra,
        "failures": tally.failures,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1), encoding="utf-8")

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key:28s} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
