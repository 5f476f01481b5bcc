"""The import floor: what each entry point loads, measured in a fresh interpreter.

Every CLI job is a fresh process that pays for each module it imports.  The
CLI imports neither scipy nor jsonschema; ``import whichway``, ``import
whichway.cli`` and ``bohr`` load no NumPy; ``uncertainty-scan`` loads no
``pattern`` or ``analysis``, and ``pattern`` and ``eraser`` no ``analysis``.
``scan-duality`` loads ``analysis`` but not ``numpy.polynomial``, which only
the ``oscillatory_residual`` diagnostic uses.  No entry point loads
``dataclasses``, and those that load no NumPy load no ``inspect`` either
(NumPy imports it itself).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import whichway

SRC = str(Path(whichway.__file__).resolve().parents[1])

# runs the statement, then prints the names in sys.modules on the last line
PROBE = """
import sys
try:
    {statement}
finally:
    print(*sorted(sys.modules))
"""

RUN = {"geometry": {"lambda_d": 5e-7, "slit_sep": 1e-4, "screen_dist": 1.0,
                    "packet_width": 1e-5},
       "detector": {"overlap": 0.6, "phase": 0.3},
       "grid": {"x_min": -0.01, "x_max": 0.01, "n_points": 128},
       "eraser": {"enabled": True}}

# two overlap values on RUN's 128-point grid
SWEEP = {"base": RUN, "sweep_param": "overlap", "values": [0.3, 0.6]}


def loaded(statement: str, *argv: str) -> set[str]:
    """The modules loaded after ``statement`` runs in a fresh interpreter
    whose arguments are argv; the statement must succeed (a subcommand run
    through ``run()`` exits 0)."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(statement=statement), *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def subcommand_loads(tmp_path, command: str) -> set[str]:
    """The modules loaded by one run of ``command`` through the CLI's entry point."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SWEEP if command == "scan-duality" else RUN))
    args = ["--samples", "5"] if command == "uncertainty-scan" else ["--config", str(cfg)]
    modules = loaded("import whichway.cli\n    whichway.cli.run()",
                     command, *args, "--out", str(tmp_path / "out"))
    assert (tmp_path / "out").stat().st_size > 0  # the job ran
    return modules


def packages(modules: set[str], *names: str) -> set[str]:
    return {m for m in modules if m.split(".")[0] in names}


def test_cli_import_loads_no_scipy_or_jsonschema():
    assert packages(loaded("import whichway.cli"), "scipy", "jsonschema") == set()


@pytest.mark.parametrize("statement", ["import whichway", "import whichway.cli"])
def test_import_loads_no_numpy(statement):
    modules = loaded(statement)
    assert packages(modules, "numpy") == set()
    if statement == "import whichway":
        assert packages(modules, "whichway") == {"whichway"}


def test_bohr_loads_no_numpy(tmp_path):
    modules = subcommand_loads(tmp_path, "bohr")
    assert packages(modules, "numpy") == set()
    assert {"whichway.pattern", "whichway.analysis", "whichway.qubit"}.isdisjoint(modules)
    assert "inspect" not in modules


@pytest.mark.parametrize("statement", ["import whichway", "import whichway.cli"])
def test_import_loads_no_dataclasses_or_inspect(statement):
    assert {"dataclasses", "inspect"}.isdisjoint(loaded(statement))


@pytest.mark.parametrize("command",
                         ["bohr", "uncertainty-scan", "pattern", "eraser", "scan-duality"])
def test_subcommands_load_no_dataclasses(tmp_path, command):
    assert "dataclasses" not in subcommand_loads(tmp_path, command)


def test_uncertainty_scan_loads_neither_pattern_nor_analysis(tmp_path):
    modules = subcommand_loads(tmp_path, "uncertainty-scan")
    assert "whichway.qubit" in modules
    assert {"whichway.pattern", "whichway.analysis"}.isdisjoint(modules)


@pytest.mark.parametrize("command", ["pattern", "eraser"])
def test_pattern_and_eraser_load_no_analysis(tmp_path, command):
    modules = subcommand_loads(tmp_path, command)
    assert "whichway.pattern" in modules
    assert "whichway.analysis" not in modules


def test_scan_duality_loads_analysis_but_no_polynomial_fit(tmp_path):
    modules = subcommand_loads(tmp_path, "scan-duality")
    assert "whichway.analysis" in modules
    assert packages(modules, "numpy") and "numpy.polynomial" not in modules


class TestPublicNames:
    """The package resolves its names on first access, from one table."""

    def test_every_name_resolves_and_is_listed(self):
        for name in whichway.__all__:
            assert getattr(whichway, name) is not None
        assert set(whichway.__all__) <= set(dir(whichway))
        assert len(set(whichway.__all__)) == len(whichway.__all__)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from whichway import *", namespace)
        assert set(whichway.__all__) <= set(namespace)

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            whichway.no_such_name
        assert getattr(whichway, "backend_name", None) is None
        from whichway import cli

        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name

    def test_names_come_from_their_home_modules(self):
        from whichway import analysis, cli, recoil

        assert whichway.bohr_analysis is recoil.bohr_analysis
        assert whichway.BohrReport is recoil.BohrReport
        # the recoil report has one home: analysis does not re-export it
        assert {"PLANCK_H", "BohrReport", "bohr_analysis"}.isdisjoint(vars(analysis))
        assert cli.duality_report is analysis.duality_report
