"""Print a fingerprint of the CLI's output on a fixed list of commands.

Each of the 540 commands runs through ``trigzeta.cli.main`` in process,
with ``COLUMNS=80``, and gives one line: the argv, the exit code, and the
sha256 of stdout and of stderr.  Running it on two trees and diffing the
outputs shows every command whose bytes changed:

    python3 tests/cli_corpus.py > after.txt

The package is imported from the ``src`` beside this file's directory.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

FAMILIES = [f"T{i}" for i in range(1, 9)]
FORMATS = ("text", "json")
SUITES = ("all", "table2", "identities", "choi-srivastava", "special-values")
GRIDS = (9, 31, 33, 35, 127, 129, 131)
EVAL_XS = ("0", "0.5pi", "-1", "1e-300", "5e-324")


def corpus() -> list[list[str]]:
    argvs = [["verify", "--suite", suite, "--format", fmt] for suite in SUITES for fmt in FORMATS]
    for family in FAMILIES:
        for grid in GRIDS:
            argvs.append(["sweep", "--family", family, "--m", "1..8", "--grid", str(grid),
                          "--format", "csv"])
            argvs.append(["compare", "--family", family, "--m", "1", "--grid", str(grid),
                          "--format", "json"])
        argvs.append(["sweep", "--family", family, "--m", "2,5", "--grid", "1",
                      "--format", "json"])
        for m in ("1", "8"):
            for x in EVAL_XS:
                argvs.append(["eval", "--family", family, "--m", m, "--x", x,
                              "--format", "json"])
    # every other format of each command, and the help of those with a grid
    for family in FAMILIES:
        for grid in GRIDS:
            for command, m, fmt in (("compare", "1", "csv"), ("compare", "1", "text"),
                                    ("sweep", "1..8", "text")):
                argvs.append([command, "--family", family, "--m", m, "--grid", str(grid),
                              "--format", fmt])
        for m in ("1", "8"):
            for x in EVAL_XS:
                for fmt in ("text", "csv"):
                    argvs.append(["eval", "--family", family, "--m", m, "--x", x,
                                  "--format", fmt])
    argvs += [["compare", "--help"], ["sweep", "--help"]]
    return argvs


def run(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return " ".join([" ".join(argv), "->", str(code), *digests])


def main() -> int:
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from trigzeta.cli import main as cli_main

    for argv in corpus():
        print(run(cli_main, argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
