"""Only the grid routes load numpy, each checked in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

EVAL = ["eval", "--family", "T1", "--m", "1", "--x", "0.5pi"]

CASES = [
    pytest.param("import trigzeta", False, id="import-trigzeta"),
    pytest.param("import trigzeta.cli", False, id="import-cli"),
    pytest.param(f"from trigzeta import cli; code = cli.main({EVAL})", False, id="eval-text"),
    pytest.param(
        f"from trigzeta import cli; code = cli.main({EVAL + ['--format', 'json']})", False,
        id="eval-json",
    ),
    pytest.param(
        "from trigzeta import cli; code = cli.main(['verify', '--suite', 'special-values'])",
        False, id="verify-special-values",
    ),
    pytest.param(
        "from trigzeta import cli; code = cli.main(['sweep', '--family', 'T3', '--m', '1', "
        "'--grid', '3'])", True, id="sweep",
    ),
]


@pytest.mark.parametrize("statement, loads_numpy", CASES)
def test_numpy_is_loaded_only_by_grid_routes(statement, loads_numpy):
    # the last line printed says whether numpy was imported; a command
    # must also succeed, so that a refusal cannot pass for a scalar route
    script = f"import sys\ncode = 0\n{statement}\nprint(code, 'numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_numpy}"
