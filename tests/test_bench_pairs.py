"""tools/bench_pairs.py: the summary of fixed pairs of runs, and the trees
it refuses to pair."""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules["bench_pairs"] = bench_pairs
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _runs(values):
    """Runs of {"pair", "side", "metrics"} from (pair, side, metrics)."""
    return [{"pair": pair, "side": side, "metrics": metrics} for pair, side, metrics in values]


def test_summary_of_fixed_pairs():
    runs = _runs([
        (0, "base", {"points_per_s": 4.0, "peak_rss_mb": 72.0, "rows_per_s": 0.0}),
        (0, "head", {"points_per_s": 4.4, "peak_rss_mb": 72.0, "rows_per_s": 0.0}),
        (1, "head", {"points_per_s": 4.6, "peak_rss_mb": 71.0, "rows_per_s": 0.0}),
        (1, "base", {"points_per_s": 4.2, "peak_rss_mb": 72.5, "rows_per_s": 0.0}),
        (2, "base", {"points_per_s": 4.4, "peak_rss_mb": 73.0, "rows_per_s": 0.0}),
        (2, "head", {"points_per_s": 4.2, "peak_rss_mb": 74.0, "rows_per_s": 0.0}),
        (3, "base", {"points_per_s": 4.1, "peak_rss_mb": 72.0, "rows_per_s": 0.0}),
        (3, "head", {"points_per_s": 4.5, "peak_rss_mb": 71.5, "rows_per_s": 0.0}),
        (4, "base", {"points_per_s": 9.9}),  # no head run: pair 4 counts for nothing
    ])
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["points_per_s", "peak_rss_mb", "rows_per_s"]  # no setup_s run
    points = summary["points_per_s"]
    assert points["unit"] == "1/s" and points["better"] == "higher" and points["pairs"] == 4
    # inclusive quartiles of 4.0, 4.1, 4.2, 4.4 and of 4.2, 4.4, 4.5, 4.6
    assert points["base"] == pytest.approx({"median": 4.15, "q1": 4.075, "q3": 4.25})
    assert points["head"] == pytest.approx({"median": 4.45, "q1": 4.35, "q3": 4.525})
    assert points["ratio"] == pytest.approx(4.45 / 4.15)
    assert points["head_wins"] == 3
    # lower is better; the tie in pair 0 counts for neither side
    rss = summary["peak_rss_mb"]
    assert rss["head_wins"] == 2
    assert rss["base"]["median"] == 72.25 and rss["head"]["median"] == 71.75
    # a base median of 0 has no ratio, and equal values win nothing
    rows = summary["rows_per_s"]
    assert rows["ratio"] is None and rows["head_wins"] == 0


def _tree(path, benchmark="{}"):
    (path / "e2ebench").mkdir(parents=True)
    (path / "e2ebench" / "run.py").write_text("pass\n")
    (path / "src" / "whichway").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(benchmark)
    return path


def test_refusals(tmp_path):
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")
    assert bench_pairs.refusals(base, head) == []
    # bytecode under e2ebench/ is not the benchmark; under src/ it skews cold jobs
    (head / "e2ebench" / "__pycache__").mkdir()
    (head / "e2ebench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
    assert bench_pairs.refusals(base, head) == []
    (head / "src" / "whichway" / "__pycache__").mkdir()
    (head / "BENCHMARK.json").write_text('{"run_seconds": 5}')
    (base / "e2ebench" / "extra.py").write_text("")
    reasons = bench_pairs.refusals(base, head)
    assert reasons[:2] == ["e2ebench differs between the trees",
                           "BENCHMARK.json differs between the trees"]
    assert len(reasons) == 3 and "head tree has" in reasons[2] and "__pycache__" in reasons[2]


def test_tree_id_names_the_benchmarked_files(tmp_path):
    base, head = _tree(tmp_path / "base"), _tree(tmp_path / "head")
    assert bench_pairs.tree_id(base) == bench_pairs.tree_id(head)
    # bytecode and files outside src/, e2ebench/ and BENCHMARK.json do not count
    (head / "src" / "whichway" / "__pycache__").mkdir()
    (head / "src" / "whichway" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    (head / "README.md").write_text("notes\n")
    assert bench_pairs.tree_id(base) == bench_pairs.tree_id(head)
    (head / "src" / "whichway" / "a.py").write_text("x = 1\n")
    moved = bench_pairs.tree_id(head)
    assert moved != bench_pairs.tree_id(base)
    # the same bytes under another name are another tree
    (head / "src" / "whichway" / "a.py").rename(head / "src" / "whichway" / "b.py")
    assert bench_pairs.tree_id(head) not in (moved, bench_pairs.tree_id(base))
