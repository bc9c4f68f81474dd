"""Command-line front end: evaluation, cross-validation, sweeps, verification.

Subcommands
    eval     closed-form value and its zeta'-term breakdown at one point
    compare  closed form vs independent oracle on an x-grid
    sweep    compare over a range of weights, emitted as CSV/JSON
    verify   property suites (special-values, identities, choi-srivastava,
             table2, all) with machine-readable pass/fail lines

Exit codes: 0 success, 2 domain error, 3 convergence error,
4 verification failure.  All output is deterministic: records are
ordered by (family, m, x) and numbers are printed with 17 significant
digits in machine formats (12 in human format).  ``compare`` and
``sweep`` print every record, then exit 4 if ``oracle_gate`` fails at
some entry: |closed - oracle| above est_oracle + est_closed.  They take
no tolerance; the oracle refuses (exit 3) a point whose estimate exceeds
``direct_sum_grid``'s default tolerance, 1e-10.

``build_parser`` builds the one parser from ``COMMANDS``, the one table
of each subcommand's help line, function and arguments.  ``parse_args``
parses with one parser per process, built on its first call and reused
by every later ``main`` call; argparse keeps no state between parses.
The suites live in ``trigzeta.verify``, which only ``verify`` imports,
when it runs.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys

from .closedforms import (  # MAX_GRID for the callers that read it as cli.MAX_GRID
    _MAX_WEIGHT, MAX_GRID, SERIES, SeriesSpec, closed_form_eval, closed_form_grid, grid_points,
    oracle_gate,
)
from .errors import DomainError, TrigZetaError, VerificationError
from .oracles import direct_sum_grid

FAMILIES = tuple(SERIES)

CSV_HEADER = [
    "family",
    "m",
    "x",
    "closed_form",
    "oracle",
    "abs_err",
    "rel_err",
    "oracle_method",
    "terms_used",
]


def _fmt(value: float, machine: bool) -> str:
    return format(value, ".17g" if machine else ".12g")


def parse_x(text: str) -> float:
    """Parse an x argument; accepts plain floats and pi-multiples (0.5pi)."""
    t = text.strip().lower()
    try:
        if t.endswith("pi"):
            head = t[:-2]
            if head in ("", "+"):
                return math.pi
            if head == "-":
                return -math.pi
            return float(head) * math.pi
        return float(t)
    except ValueError:
        raise DomainError(f"cannot parse x={text!r}") from None


def parse_m_range(text: str) -> list[int]:
    """Parse --m for sweeps: '2', '1..3', or '1,2,3'."""
    t = text.strip()
    try:
        if ".." in t:
            lo, hi = (int(part) for part in t.split("..", 1))
        else:
            weights = [int(part) for part in t.split(",")]
            lo, hi = min(weights), max(weights)
    except ValueError:
        raise DomainError(f"cannot parse weights {text!r}") from None
    # checked before a range is listed, so a huge one is never built
    if not 1 <= lo <= hi <= _MAX_WEIGHT:
        raise DomainError(f"weights {text!r} must be a non-empty list in [1, {_MAX_WEIGHT}]")
    return list(range(lo, hi + 1)) if ".." in t else sorted(set(weights))


def make_records(family: str, weights, xs) -> tuple[dict[str, list], str | None]:
    """Closed form vs oracle for every weight and x, as columns, and the gate.

    Returns one list per name of ``CSV_HEADER``, in that order, each in
    weight-major, x-minor order: ascending (m, x) for the sorted weights
    of ``parse_m_range`` and the ascending ``grid_points``; and the
    ``oracle_gate`` message of the first entry that fails it, or None.
    The oracle and the closed forms each run once over the whole grid, so
    what they share across weights (the oracle's phases, the closed forms'
    zeta' offsets) is computed once per x.
    """
    import numpy as np

    oracles, errs, terms, methods = direct_sum_grid(family, weights, xs)
    closed_forms = closed_form_grid(family, weights, xs)
    abs_errs = np.abs(closed_forms - oracles)
    columns = (
        [family] * oracles.size,
        [m for m in weights for _ in xs],
        list(xs) * len(weights),
        closed_forms.ravel().tolist(),
        oracles.ravel().tolist(),
        abs_errs.ravel().tolist(),
        (abs_errs / (1.0 + np.abs(oracles))).ravel().tolist(),
        methods * len(weights),
        terms.ravel().tolist(),
    )
    return dict(zip(CSV_HEADER, columns)), oracle_gate(
        family, weights, xs, closed_forms, oracles, errs)


def _write_json(doc, out) -> None:
    import json

    out.write(json.dumps(doc, indent=2) + "\n")


def _emit_records(records: dict[str, list], fmt: str, out) -> None:
    rows = zip(*(records[name] for name in CSV_HEADER))
    if fmt == "csv":
        # no field needs quoting: names of families and methods, and numbers.
        # The x column repeats one grid's float objects once per weight, so
        # each object is formatted once: keyed by identity, as 0.0 == -0.0
        xs = {id(x): x for x in records["x"]}
        x_text = {key: f"{x:.17g}" for key, x in xs.items()}
        out.write(",".join(CSV_HEADER) + "\n")
        out.write("".join(
            "%s,%d,%s,%.17g,%.17g,%.17g,%.17g,%s,%d\n"
            % (family, m, x_text[id(x)], closed, oracle, abs_err, rel_err, method, terms)
            for family, m, x, closed, oracle, abs_err, rel_err, method, terms in rows
        ))
    elif fmt == "json":
        _write_json([dict(zip(CSV_HEADER, row)) for row in rows], out)
    else:
        for family, m, x, closed, oracle, _, rel_err, method, terms in rows:
            out.write(
                f"{family} m={m} x={_fmt(x, False)} "
                f"closed={_fmt(closed, False)} oracle={_fmt(oracle, False)} "
                f"rel_err={_fmt(rel_err, False)} method={method} "
                f"terms={terms}\n"
            )


def cmd_eval(args, out) -> int:
    x = parse_x(args.x)
    spec = SeriesSpec.from_family(args.family, args.m)
    result = closed_form_eval(spec, x)
    if args.format == "json":
        _write_json({
            "family": args.family,
            "m": args.m,
            "x": x,
            "value": result.value,
            "prefactor": result.prefactor,
            "terms": [
                {"coeff": c, "s": s, "a": a, "zeta_sderiv": zeta}
                for (c, s, a), zeta in zip(result.terms, result.zeta_sderivs)
            ],
        }, out)
    else:
        machine = args.format == "csv"
        out.write(f"family={args.family} m={args.m} x={_fmt(x, machine)}\n")
        out.write(f"value = {_fmt(result.value, machine)}\n")
        out.write(f"prefactor = {_fmt(result.prefactor, machine)}\n")
        for (c, s, a), zeta in zip(result.terms, result.zeta_sderivs):
            out.write(
                f"  term coeff={_fmt(c, machine)} s={_fmt(s, machine)} "
                f"a={_fmt(a, machine)} zeta'={_fmt(zeta, machine)}\n"
            )
    return 0


def cmd_compare(args, out) -> int:
    import numpy as np

    records, failure = make_records(args.family, [args.m], grid_points(args.family, args.grid))
    _emit_records(records, args.format, out)
    if args.format != "json":  # max_rel_err is nan if any rel_err is nan
        out.write(f"max_rel_err = {_fmt(float(np.max(records['rel_err'])), True)}\n")
    if failure:
        raise VerificationError(failure)
    return 0


def cmd_sweep(args, out) -> int:
    weights = parse_m_range(args.m)
    records, failure = make_records(args.family, weights, grid_points(args.family, args.grid))
    _emit_records(records, args.format if args.format != "text" else "csv", out)
    if failure:
        raise VerificationError(failure)
    return 0


def cmd_verify(args, out) -> int:
    from .verify import SUITES

    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_checks = []
    for name in names:
        all_checks.extend(SUITES[name](out))
    failed = [c for c in all_checks if not c[1]]
    if args.format == "json":
        _write_json([
            {"check": name, "passed": ok, "detail": detail}
            for name, ok, detail in all_checks
        ], out)
    else:
        for name, ok, detail in all_checks:
            out.write(f"{'PASS' if ok else 'FAIL'} {name}: {detail}\n")
        out.write(f"{len(all_checks) - len(failed)}/{len(all_checks)} checks passed\n")
    if failed:
        raise VerificationError(f"{len(failed)} verification check(s) failed")
    return 0


# argument specs: (flag, keywords of ``add_argument``)
_FAMILY = ("--family", {"required": True, "choices": FAMILIES})
_FORMAT = ("--format", {"choices": ("csv", "json", "text"), "default": "text"})
_OUT = ("--out", {"help": "write output to this file"})
_M = ("--m", {"type": int, "required": True})
_WEIGHTS = ("--m", {"required": True, "help": "weight range: 2, 1..3, or 1,2,3"})
_X = ("--x", {"required": True, "help": "number or pi-multiple, e.g. 0.5pi"})
_GRID = ("--grid", {"type": int, "default": 9})
_SUITE = ("--suite", {"default": "all", "choices": (
    "special-values", "identities", "choi-srivastava", "table2", "all")})

# subcommand name -> (its line in the root help, its function, its argument specs in order)
COMMANDS = {
    "eval": ("closed form at one point", cmd_eval, (_FAMILY, _FORMAT, _OUT, _M, _X)),
    "compare": ("closed form vs oracle on a grid", cmd_compare,
                (_FAMILY, _FORMAT, _OUT, _M, _GRID)),
    "sweep": ("compare over a weight range, CSV/JSON", cmd_sweep,
              (_FAMILY, _FORMAT, _OUT, _WEIGHTS, _GRID)),
    "verify": ("run property suites", cmd_verify, (_FORMAT, _OUT, _SUITE)),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reads ``--opt=--`` as the value "--", as Python 3.13 does; older ones store []."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="trigzeta",
        description="Closed forms of trigonometric series over Hurwitz zeta "
        "derivatives, with independent summation oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, specs) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in specs:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=func)
    return parser


_parser = functools.cache(build_parser)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by the one parser of this process."""
    return _parser().parse_args(argv)


def _join_x(argv: list[str]) -> list[str]:
    """``--x VALUE`` as ``--x=VALUE``, so that argparse takes -0.25pi as the value.

    A separate token that starts with "-" and is not a plain number reads
    as an option to argparse.  Every option of this parser starts with
    "--", so a token that does is left alone, as argparse's missing value.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] == "--x" and not token.startswith("--"):
            joined[-1] = f"--x={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    args = parse_args(_join_x(sys.argv[1:] if argv is None else argv))
    buffer = io.StringIO()
    code = 0
    try:
        code = args.func(args, buffer)
    except (TrigZetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.exit_code if isinstance(exc, TrigZetaError) else 1
    text = buffer.getvalue()
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
