"""Each route loads only the modules it uses, checked in a fresh interpreter.

Only the grid routes load numpy, only the routes that write JSON load
json, only ``verify`` loads the suites (``trigzeta.verify``), no route
loads dataclasses or the exact rationals of ``fractions`` and
``decimal``, and the suites load no CLI.  After ``import trigzeta.cli``
every name that ``benchmarks/tracer.py`` wraps resolves.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def cli_call(argv: list[str]) -> str:
    return f"from trigzeta import cli; code = cli.main({argv})"


EVAL = ["eval", "--family", "T1", "--m", "1", "--x", "0.5pi"]
SWEEP_CSV = ["sweep", "--family", "T3", "--m", "1", "--grid", "3", "--format", "csv"]

ROUTES = {
    "import-trigzeta": "import trigzeta",
    "import-cli": "import trigzeta.cli",
    "eval-text": cli_call(EVAL),
    "eval-json": cli_call(EVAL + ["--format", "json"]),
    "verify-special-values": cli_call(["verify", "--suite", "special-values"]),
    "sweep": cli_call(SWEEP_CSV),
}


def run_fresh(statement: str, modules: list[str]) -> str:
    """'<exit code> <loaded?>...' for each of ``modules`` after ``statement``.

    A command must also succeed, so that a refusal cannot pass for the
    route it refused.
    """
    report = f"print(code, *[m in sys.modules for m in {modules!r}])"
    script = f"import sys\ncode = 0\n{statement}\n{report}"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("route", ROUTES)
def test_numpy_is_loaded_only_by_grid_routes(route):
    assert run_fresh(ROUTES[route], ["numpy"]) == f"0 {route == 'sweep'}"


@pytest.mark.parametrize("route", ROUTES)
def test_json_only_where_json_is_written_and_never_dataclasses(route):
    assert run_fresh(ROUTES[route], ["json", "dataclasses"]) == f"0 {route == 'eval-json'} False"


@pytest.mark.parametrize("route", [route for route in ROUTES if not route.startswith("verify")])
def test_only_verify_loads_the_suites_and_exact_rationals(route):
    modules = ["fractions", "decimal", "trigzeta.verify"]
    assert run_fresh(ROUTES[route], modules) == "0 False False False"


def test_verify_loads_the_suites():
    # the limit tables' exact rationals are integer pairs, so not even
    # verify, which builds them for the table2 suite, loads fractions
    modules = ["trigzeta.verify", "fractions", "decimal"]
    assert run_fresh(ROUTES["verify-special-values"], modules) == "0 True False False"
    verify_all = cli_call(["verify", "--suite", "all", "--out", os.devnull])
    assert run_fresh(verify_all, modules) == "0 True False False"


def test_import_cli_loads_dirichlet():
    # the benchmark tracer reads sys.modules["trigzeta.dirichlet"] when it
    # installs, so the package must not load dirichlet lazily
    assert run_fresh(ROUTES["import-cli"], ["trigzeta.dirichlet"]) == "0 True"


def test_verify_loads_no_cli():
    # the table2 suite reads its grids from closedforms, not from the CLI
    statement = "import io\nfrom trigzeta import verify\nverify.SUITES['table2'](io.StringIO())"
    assert run_fresh(statement, ["trigzeta.cli"]) == "0 False"


def test_cli_reexports_the_grid():
    from trigzeta import cli, closedforms

    assert cli.grid_points is closedforms.grid_points
    assert cli.MAX_GRID == closedforms.MAX_GRID


def test_the_benchmark_tracer_binds_names_that_resolve():
    # benchmarks/tracer.py wraps the layer functions by (module, name); a
    # name removed from the package would otherwise show only when it runs
    tracer_path = SRC.parent / "benchmarks" / "tracer.py"
    statement = f"""import importlib.util
import trigzeta.cli
spec = importlib.util.spec_from_file_location("tracer", {str(tracer_path)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
targets = [t for layer in tracer.LAYERS.values() for t in layer] + [tracer.COUNTED]
originals = [getattr(sys.modules[module], name) for module, name in targets]
t = tracer.Tracer()
t.install()
patched = {{id(original) for _, _, original in t._patched}}
assert all(id(f) in patched for f in originals), targets
t.uninstall()
assert [getattr(sys.modules[m], n) for m, n in targets] == originals"""
    assert run_fresh(statement, ["trigzeta.dirichlet"]) == "0 True"
