"""Importing the CLI pulls in no optional heavyweights: neither scipy nor jsonschema."""
import os
import subprocess
import sys
from pathlib import Path

import whichway

PROBE = (
    "import sys, whichway.cli; "
    "print(' '.join(sorted(m for m in sys.modules "
    "if m.split('.')[0] in ('scipy', 'jsonschema'))))"
)


def test_cli_import_loads_no_scipy_or_jsonschema():
    src = str(Path(whichway.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout.split() == []
