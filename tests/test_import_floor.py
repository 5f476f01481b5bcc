"""The import floor: what each entry point loads, measured in a fresh interpreter.

Every CLI job is a fresh process that pays for each module it imports.  The
CLI imports neither scipy nor jsonschema; ``import whichway``, ``import
whichway.cli`` and ``bohr`` load no NumPy; ``uncertainty-scan`` loads no
``pattern`` or ``analysis``, and ``pattern`` and ``eraser`` no ``analysis``.
``scan-duality`` loads ``analysis`` but not ``numpy.polynomial``, which only
the ``oscillatory_residual`` diagnostic uses.  No entry point loads
``dataclasses`` or the resource reader (``importlib.resources`` with
``pathlib``, ``tempfile`` and ``zipfile``), and those that load no NumPy
load no ``inspect`` or ``typing`` either (NumPy imports both itself).
The bulk formatter ``whichway._format`` is loaded only by the jobs that write
NumPy columns, so not by ``import whichway.cli`` or ``bohr``, and no job
loads ``fractions`` or ``decimal``.

The probes run under ``python -S``, with this tree and NumPy's directory on
PYTHONPATH: a ``.pth`` file in site-packages may import modules at every
interpreter start, and would hide what whichway itself loads.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import whichway

SRC = str(Path(whichway.__file__).resolve().parents[1])
# the directory NumPy is installed in, found without importing it
NUMPY_SITE = str(Path(importlib.util.find_spec("numpy").origin).parents[1])
RESOURCE_READER = {"importlib.resources", "pathlib", "tempfile", "zipfile"}
SUBCOMMANDS = ["bohr", "uncertainty-scan", "pattern", "eraser", "scan-duality"]

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
    without ``site`` whose arguments are argv; the statement must succeed (a
    subcommand run through ``run()`` exits 0)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, NUMPY_SITE])}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE.format(statement=statement), *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def subcommand_loads(tmp_path_factory):
    """The modules loaded by one run of a subcommand through the CLI's entry
    point; each subcommand runs once for the whole module."""
    runs = {}

    def loads(command: str) -> set[str]:
        if command not in runs:
            tmp_path = tmp_path_factory.mktemp(command)
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps(SWEEP if command == "scan-duality" else RUN))
            args = ["--samples", "5"] if command == "uncertainty-scan" else ["--config", str(cfg)]
            runs[command] = loaded("import whichway.cli\n    whichway.cli.run()",
                                   command, *args, "--out", str(tmp_path / "out"))
            assert (tmp_path / "out").stat().st_size > 0  # the job ran
        return runs[command]

    return loads


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


def test_bohr_loads_no_numpy(subcommand_loads):
    modules = subcommand_loads("bohr")
    assert packages(modules, "numpy") == set()
    assert {"whichway.pattern", "whichway.analysis", "whichway.qubit"}.isdisjoint(modules)
    assert "inspect" not in modules


@pytest.mark.parametrize("statement", ["import whichway", "import whichway.cli"])
def test_import_loads_no_dataclasses_or_inspect(statement):
    assert {"dataclasses", "inspect"}.isdisjoint(loaded(statement))


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommands_load_no_dataclasses(subcommand_loads, command):
    assert "dataclasses" not in subcommand_loads(command)


@pytest.mark.parametrize("statement", ["import whichway", "import whichway.cli"])
def test_import_loads_no_resource_reader_or_typing(statement):
    assert (RESOURCE_READER | {"typing"}).isdisjoint(loaded(statement))


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommands_load_no_resource_reader(subcommand_loads, command):
    # the schema is read through the package's loader; NumPy imports typing
    # itself, so only the jobs without NumPy (bohr) are held to no typing
    modules = subcommand_loads(command)
    assert RESOURCE_READER.isdisjoint(modules)
    if "numpy" not in modules:
        assert "typing" not in modules


@pytest.mark.parametrize("statement", ["import whichway", "import whichway.cli"])
def test_import_loads_no_formatter(statement):
    assert "whichway._format" not in loaded(statement)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_only_jobs_with_numpy_columns_load_the_formatter(subcommand_loads, command):
    modules = subcommand_loads(command)
    assert ("whichway._format" in modules) == (command != "bohr")
    assert {"fractions", "decimal"}.isdisjoint(modules)


def test_uncertainty_scan_loads_neither_pattern_nor_analysis(subcommand_loads):
    modules = subcommand_loads("uncertainty-scan")
    assert "whichway.qubit" in modules
    assert {"whichway.pattern", "whichway.analysis"}.isdisjoint(modules)


@pytest.mark.parametrize("command", ["pattern", "eraser"])
def test_pattern_and_eraser_load_no_analysis(subcommand_loads, command):
    modules = subcommand_loads(command)
    assert "whichway.pattern" in modules
    assert "whichway.analysis" not in modules


def test_scan_duality_loads_analysis_but_no_polynomial_fit(subcommand_loads):
    modules = subcommand_loads("scan-duality")
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
