"""tools/compare_trees.py: the tree compared with itself is identical, and a
difference is reported with its first differing line and each numeric
column's largest change."""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_trees", ROOT / "tools" / "compare_trees.py")
compare_trees = importlib.util.module_from_spec(_spec)
sys.modules["compare_trees"] = compare_trees
_spec.loader.exec_module(compare_trees)


def test_the_tree_against_itself_is_identical():
    lines = []
    assert compare_trees.compare(ROOT, ROOT, 3, seed=0, report=lines.append) == 0
    assert lines[0].startswith("3 configs (seed 0); exit codes ")
    assert "  scan-duality: 1 of 1 identical" in lines


def test_draws_are_seeded_and_cover_every_subcommand():
    cases = compare_trees.draw_cases(40, seed=3)
    assert cases == compare_trees.draw_cases(40, seed=3)
    assert {case.command for case in cases} == set(compare_trees.COMMANDS)


def test_a_difference_is_reported_by_line_and_column():
    case = compare_trees.Case("scan-duality", ("scan-duality", "--config", "config.json"),
                              {"sweep_param": "overlap"}, None)
    base = compare_trees.Outcome(0, "", b"s,V_numeric,egy_ok\n0.5,0.25,true\n1,1,true\n")
    head = compare_trees.Outcome(0, "", b"s,V_numeric,egy_ok\n0.5,0.26,true\n1,1,true\n")
    lines = compare_trees.describe(case, base, head)
    text = "\n".join(lines)
    assert "output line 2:\n    base: 0.5,0.25,true\n    tree: 0.5,0.26,true" in text
    assert any(line.startswith("  max |delta| V_numeric: 0.01") for line in lines)
    assert not any("max |delta| s:" in line for line in lines)
    assert compare_trees.describe(case, base, base) == []
    failed = compare_trees.Outcome(2, "numeric failure: x\n", b"")
    assert "  exit code: base 0, tree 2" in compare_trees.describe(case, base, failed)
