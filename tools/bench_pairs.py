"""Run the end-to-end benchmark in pairs on another commit and this tree.

    python tools/bench_pairs.py --base <rev> --workload <name> [--pairs 10] [--seed N]

The base commit is checked out as ``tools/compare_trees.py`` checks it out,
into a temporary git worktree removed afterwards.  Pair i runs
``e2ebench/run.py --workload <name> --seed N+i --seconds <run_seconds> --trace 0``
once in each tree, from that tree's root, with the run length that
``BENCHMARK.json`` fixes, so both sides of a pair draw the same inputs; the
base runs first in even pairs and this tree in odd ones.
Children run with ``PYTHONDONTWRITEBYTECODE=1``, and nothing is measured
here: every number is what run.py prints on its last line.

It refuses to start when ``e2ebench/`` or ``BENCHMARK.json`` differ between
the trees, since then the two sides do not run one benchmark, or when a
``__pycache__`` exists under either tree's ``src/``: bytecode compiled in one
tree and not in the other skews its cold jobs.

One record is appended to ``BENCH_<workload>.json`` at the root of this
tree, a JSON list: the base commit, this tree's commit and whether its
``src/``, ``e2ebench/`` or ``BENCHMARK.json`` differ from it, each side's
``tree`` id (see ``tree_id``), the seconds and seeds, each run's
``correct``, ``failed`` and end-to-end metrics, and the ``summary`` of each
metric (see ``summarize``).  A record measured before its change is
committed names the parent as its commit; the head's ``tree`` id is what
names the measured code, and ``tree_id`` of a checkout reproduces it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_trees import ROOT, base_checkout  # noqa: E402

SIDES = ("base", "head")
BENCHMARKED = ("src", "e2ebench", "BENCHMARK.json")


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (its ``end_to_end`` list),
    from runs of {"pair", "side", "metrics"}: each side's median and
    quartiles (inclusive method), the ratio of the head's median to the
    base's, and the pairs the head wins in the metric's ``better``
    direction, ties counting for neither side.  Only the pairs where both
    sides report a metric count for it; the ratio is None on a base median
    of 0."""
    summary = {}
    for spec in end_to_end:
        name = spec["name"]
        by_pair: dict[int, dict] = {}
        for run in runs:
            if name in run["metrics"]:
                by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        entry = {"unit": spec["unit"], "better": spec["better"], "pairs": len(pairs)}
        for side in SIDES:
            values = [p[side] for p in pairs]
            q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                              if len(values) > 1 else values * 3)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        base_median = entry["base"]["median"]
        entry["ratio"] = entry["head"]["median"] / base_median if base_median else None
        entry["head_wins"] = sum(sign * (p["head"] - p["base"]) > 0 for p in pairs)
        summary[name] = entry
    return summary


def _files(tree: Path, rel: str) -> dict[str, bytes]:
    """The bytes of rel, a file or a directory's files outside __pycache__,
    by path relative to tree."""
    top = tree / rel
    paths = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
    return {str(p.relative_to(tree)): p.read_bytes() for p in paths
            if "__pycache__" not in p.parts}


def tree_id(tree: Path) -> str:
    """The sha256 of the files a benchmark run reads from tree: ``src/``,
    ``e2ebench/`` and ``BENCHMARK.json`` outside __pycache__, each as its
    path and its bytes."""
    digest = hashlib.sha256()
    for rel in BENCHMARKED:
        for path, data in sorted(_files(tree, rel).items()):
            digest.update(b"%d:%s%d:" % (len(path), path.encode(), len(data)))
            digest.update(data)
    return digest.hexdigest()


def refusals(base_tree: Path, head_tree: Path) -> list[str]:
    """Why the two trees cannot be benchmarked as a pair; [] when they can."""
    reasons = [f"{rel} differs between the trees" for rel in ("e2ebench", "BENCHMARK.json")
               if _files(base_tree, rel) != _files(head_tree, rel)]
    for side, tree in zip(SIDES, (base_tree, head_tree)):
        reasons += [f"{side} tree has {p}: remove it, it skews cold jobs"
                    for p in sorted((tree / "src").rglob("__pycache__"))]
    return reasons


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of tree's e2ebench/run.py: its correct, failed and metrics."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # run.py finds its own tree's src
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(base_tree: Path, head_tree: Path, workload: str, pairs: int, seconds: float,
          seed: int) -> list[dict]:
    """The runs of ``pairs`` pairs, the side that runs first alternating."""
    runs = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            tree = base_tree if side == "base" else head_tree
            run = {"pair": i, "seed": seed + i, "side": side,
                   **run_once(tree, workload, seed + i, seconds)}
            print(f"pair {i} seed {seed + i} {side}: correct {run['correct']}, "
                  f"failed {run['failed']}, "
                  + ", ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items()), flush=True)
            runs.append(run)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="the seed of pair 0")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = {
        "workload": args.workload,
        "base": {"commit": _git("rev-parse", args.base)},
        "head": {"commit": _git("rev-parse", "HEAD"),
                 "dirty": bool(_git("status", "--porcelain", "--", *BENCHMARKED)),
                 "tree": tree_id(ROOT)},
        "seconds": spec["run_seconds"],
        "seeds": [args.seed + i for i in range(args.pairs)],
    }
    with base_checkout(record["base"]["commit"]) as checkout:
        reasons = refusals(checkout, ROOT)
        if reasons:
            print("refusing to run:\n  " + "\n  ".join(reasons), file=sys.stderr)
            return 2
        record["base"]["tree"] = tree_id(checkout)
        record["runs"] = bench(checkout, ROOT, args.workload, args.pairs, record["seconds"],
                               args.seed)
    record["summary"] = summarize(record["runs"], spec["end_to_end"])
    out = ROOT / f"BENCH_{args.workload}.json"
    records = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else []
    out.write_text(json.dumps(records + [record], indent=1) + "\n", encoding="utf-8")
    for name, entry in record["summary"].items():
        base, head = entry["base"], entry["head"]
        ratio = "-" if entry["ratio"] is None else f"{entry['ratio']:.4g}"
        print(f"{name:14s} base {base['median']:.6g} [{base['q1']:.6g}, {base['q3']:.6g}]  "
              f"head {head['median']:.6g} [{head['q1']:.6g}, {head['q3']:.6g}] "
              f"{entry['unit']}  x{ratio}, head wins {entry['head_wins']} of {entry['pairs']}")
    print(f"appended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
