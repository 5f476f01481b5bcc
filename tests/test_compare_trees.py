"""tools/compare_trees.py: the tree compared with itself is identical, and a
difference is reported with its first differing line, each numeric
column's largest change and each true/false column's flipped cells.  The
--api cases compared with themselves are identical too, and a differing
digest is reported by case and kind."""
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_a_flipped_flag_is_counted_per_config_and_in_the_summary(monkeypatch):
    case = compare_trees.Case("scan-duality", ("scan-duality", "--config", "config.json"),
                              {"sweep_param": "overlap"}, None)
    base = compare_trees.Outcome(0, "", b"s,dQ2,egy_ok,unc_ok\n0.5,0.75,true,true\n"
                                        b"1,1,true,true\n")
    head = compare_trees.Outcome(0, "", b"s,dQ2,egy_ok,unc_ok\n0.5,0.75,true,false\n"
                                        b"1,1,true,true\n")
    lines = compare_trees.describe(case, base, head)
    assert "  flipped unc_ok: 1 of 2" in lines
    assert "  flipped egy_ok: 0 of 2" in lines
    assert not any("flipped s:" in line or "flipped dQ2:" in line for line in lines)
    # json bools read back as True/False
    assert compare_trees.flag_flips(b'{"egy_ok": [true, true]}', b'{"egy_ok": [true, false]}') \
        == {"egy_ok": (1, 2)}
    # every config reads these two outputs: 5 configs flip one unc_ok cell each
    monkeypatch.setattr(compare_trees, "run_case",
                        lambda tree, case, workdir: base if tree == "base" else head)
    report = []
    assert compare_trees.compare("base", "head", 5, seed=0, report=report.append) == 5
    assert "  flipped true/false cells over all configs: 5" in report
    assert "  flipped unc_ok: 5 of the 10 cells in differing outputs" in report
    assert "  flipped egy_ok: 0 of the 10 cells in differing outputs" in report


def test_the_api_cases_against_this_tree_are_identical():
    lines = []
    assert compare_trees.compare_api(ROOT, ROOT, 8, seed=0, report=lines.append) == 0
    count = len(compare_trees._invalid_constructions())
    assert lines[0] == f"8 seeded API cases (seed 0) and {count} invalid constructions"
    assert "  pattern: 2 of 2 identical" in lines
    assert f"  invalid: {count} of {count} identical" in lines


def test_api_digests_are_seeded_and_cover_every_kind():
    digests = compare_trees.api_digests(8, seed=1)
    assert digests == compare_trees.api_digests(8, seed=1)
    assert {kind for kind, _ in digests} == {*compare_trees.API_KINDS, "invalid"}
    assert digests[:8] != compare_trees.api_digests(8, seed=2)[:8]
    # every invalid construction raises
    for construction in compare_trees._invalid_constructions():
        with pytest.raises(Exception):
            construction()


def test_an_api_difference_is_reported_by_case_and_kind(monkeypatch):
    cases = [("pattern", "a" * 64), ("positions", "b" * 64), ("invalid", "c" * 64)]
    changed = [cases[0], ("positions", "d" * 64), cases[2]]
    monkeypatch.setattr(compare_trees, "run_api",
                        lambda tree, n, seed: cases if tree == "base" else changed)
    report = []
    assert compare_trees.compare_api("base", "head", 2, seed=0, report=report.append) == 1
    assert report[0] == "[1] positions: base bbbbbbbbbbbbbbbb, tree dddddddddddddddd"
    assert "  positions: 0 of 1 identical" in report
    assert "  pattern: 1 of 1 identical" in report
