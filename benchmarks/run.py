"""trigzeta benchmark: time to a verified answer through the CLI.

    python3 benchmarks/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/``;
each invocation calls ``trigzeta.cli.main(argv)`` in this one
single-threaded process with stdout and stderr captured, and every
output is checked against ``reference.json`` (30-digit mpmath values
written by ``make_reference.py``).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads are closed loops: one caller, each invocation starts when the
previous one returns.  The seed permutes the invocation order and gives
half the families the grid count below the nominal one and half the count
above it, so every x moves while the number of points stays fixed.

* ``sweep_grid``  ``sweep --m 1..8 --format csv`` for T1..T8 on grids of
  31/35 (nominal 33) points: 2112 points, mostly plan and kernel time.
* ``compare_m1``  ``compare --m 1 --format csv`` for T1..T8 on grids of
  127/131 (nominal 129) points: 1032 points, mostly oracle time.
* ``verify_all``  ``verify --suite all --format json``: one invocation,
  which the seed cannot vary; the only workload that reaches
  ``dirichlet``.

An op is one grid point, or one verify check.  It *fails* when it yields
no usable answer: an unexpected exit code, output that does not parse, a
row whose family, m or x is not the requested one, a verify check that
reports FAIL, a deviation report that does not name exactly ["T8"], or
output that differs between passes.  A point that is answered but whose
closed form or oracle misses the reference by more than the CLI default
1e-8 (relative error |d|/(1+|ref|)) is *unverified*.  ``correct`` is
false when any op fails or any value is off by more than 1e-4, which is
a wrong answer rather than an imprecise one.  An op that fails counts
as zero digits.

End-to-end metrics (``--trace 0``), measured untraced after a warm-up pass:

* ``setup_s``            median seconds for a fresh interpreter to
                         ``import trigzeta.cli`` (numpy and the Bernoulli
                         table), over several interpreters
* ``wall_s``             seconds of program time for one pass, the
                         fastest of the timed passes
* ``ops_per_s``          ops in a pass over ``wall_s``
* ``closed_form_digits`` -log10 of the worst closed-form relative error
                         against the reference; on ``verify_all`` the
                         worst gap of the closed-form log identities
* ``oracle_digits``      the same for the oracle column; on
                         ``verify_all`` the table2 report's
                         closed-form-vs-oracle gap on its deviation rows
* ``verified_frac``      ops neither failed nor unverified, over ops
                         attempted (one minus the failure share)
* ``peak_rss_mb``        peak resident memory of this process

Pass times are noisy on a shared host: co-tenant load slows whole
stretches of passes by 10-40%, so the median pass of a run moves with the
load while the fastest pass moves much less.

Per-layer metrics (``--trace 1``) come from traced passes alternated with
untraced ones; see ``tracer.py`` for the layers.  Counts and self times
are per pass (low medians over traced passes).  Latency percentiles are
inclusive of child spans and pool every traced call; ``<layer>.samples``
gives the pool size, and traced passes repeat until each pool holds at
least 1000 calls or the run has used twice its time.  The overhead is the
fastest traced pass over the fastest untraced one, minus 1.  The spans
are written to ``.bench_trace/`` at the end.
"""

from __future__ import annotations

import os

# Before numpy is imported, here or in a child interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".bench_trace"

WORKLOADS = ("sweep_grid", "compare_m1", "verify_all")
FAMILIES = tuple(f"T{i}" for i in range(1, 9))
# Grid counts a seed picks from (nominal 33 and 129); reference.json covers them.
SWEEP_COUNTS = (31, 35)
COMPARE_COUNTS = (127, 131)
VERIFY_CHECKS = 131  # checks in `verify --suite all`; fewer counts the shortfall as failed
REPORT_PREFIX = "TABLE2-DEVIATION-REPORT "
CSV_HEADER = "family,m,x,closed_form,oracle,abs_err,rel_err,oracle_method,terms_used"

TOL = 1e-8  # CLI default tolerance: beyond it a point is unverified
WRONG = 1e-4  # beyond it a value is wrong, and the run is not correct
ERR_FLOOR = 1e-17  # caps digits at 17
SETUP_SAMPLES = 11
MIN_SAMPLES = 1000  # pooled calls needed before a p99 is reported
P99_LAYERS = ("kernel", "closed_form", "oracle")
ORACLE_METHODS = ("direct", "euler_accelerated", "cesaro")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    family: str | None = None
    count: int | None = None
    weights: tuple[int, ...] = ()


@dataclass
class Tally:
    """Outcome of checking ops; one per invocation, summed per run."""

    ops: int = 0
    failed: int = 0
    unverified: int = 0
    wrong: int = 0
    closed_err: float = 0.0  # worst relative error seen
    oracle_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, why: str) -> "Tally":
        """Count ops with no usable answer; they have no digits."""
        self.ops += ops
        self.failed += ops
        self.closed_err = self.oracle_err = 1.0
        self.problems.append(why)
        return self

    def add(self, other: "Tally") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.unverified += other.unverified
        self.wrong += other.wrong
        self.closed_err = max(self.closed_err, other.closed_err)
        self.oracle_err = max(self.oracle_err, other.oracle_err)
        self.problems.extend(other.problems)


def invocations(workload: str, seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    if workload == "verify_all":
        return [Invocation(("verify", "--suite", "all", "--format", "json"))]
    if workload == "sweep_grid":
        choices, weights, m_arg, command = SWEEP_COUNTS, tuple(range(1, 9)), "1..8", "sweep"
    else:
        choices, weights, m_arg, command = COMPARE_COUNTS, (1,), "1", "compare"
    counts = [choices[i % 2] for i in range(len(FAMILIES))]
    rng.shuffle(counts)
    order = list(zip(FAMILIES, counts))
    rng.shuffle(order)
    return [
        Invocation(
            (command, "--family", family, "--m", m_arg, "--grid", str(count), "--format", "csv"),
            family, count, weights,
        )
        for family, count in order
    ]


def _rel(value: float, ref: float) -> float:
    err = abs(value - ref) / (1.0 + abs(ref))
    return err if err == err else math.inf


def check_points(inv: Invocation, code: int, out: str, reference: dict) -> Tally:
    grid = reference["grids"][f"{inv.family}/{inv.count}"]
    expected = [(m, x, ref) for m in inv.weights for x, ref in zip(grid["x"], grid[str(m)])]
    tally = Tally()
    name = " ".join(inv.argv)
    if code != 0:
        return tally.fail(len(expected), f"{name}: exit code {code}, expected 0")
    lines = out.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return tally.fail(len(expected), f"{name}: missing CSV header")
    rows = lines[1:]
    if inv.argv[0] == "compare":
        if not rows or not rows[-1].startswith("max_rel_err = "):
            return tally.fail(len(expected), f"{name}: missing max_rel_err line")
        rows = rows[:-1]
    if len(rows) != len(expected):
        return tally.fail(len(expected), f"{name}: {len(rows)} rows, expected {len(expected)}")
    for row, (m, x_ref, ref) in zip(rows, expected):
        fields = row.split(",")
        try:
            family, m_got, x, closed, oracle = fields[0], int(fields[1]), *map(float, fields[2:5])
        except (ValueError, IndexError):
            tally.fail(1, f"{name}: unparsable row {row!r}")
            continue
        if (family, m_got) != (inv.family, m) or abs(x - x_ref) > 1e-12 * (1.0 + abs(x_ref)):
            tally.fail(1, f"{name}: row {row!r} is not {inv.family} m={m} x={x_ref!r}")
            continue
        closed_err, oracle_err = _rel(closed, ref), _rel(oracle, ref)
        worst = max(closed_err, oracle_err)
        if worst > WRONG:
            tally.wrong += 1
            tally.problems.append(f"{name}: m={m} x={x!r} off the reference by {worst:.3e}")
        tally.ops += 1
        tally.unverified += worst > TOL
        tally.closed_err = max(tally.closed_err, closed_err)
        tally.oracle_err = max(tally.oracle_err, oracle_err)
    return tally


def check_verify(code: int, out: str) -> Tally:
    tally = Tally()
    if code != 0:
        return tally.fail(VERIFY_CHECKS, f"verify: exit code {code}, expected 0")
    head, _, body = out.partition("\n")
    try:
        if not head.startswith(REPORT_PREFIX):
            raise ValueError(f"first line is not {REPORT_PREFIX.strip()}")
        rows = json.loads(head[len(REPORT_PREFIX):])["deviations"]
        deviations = [row["row"] for row in rows]
        theorem_gaps = [float(row["theorem_evaluator_max_rel_gap_vs_oracle"]) for row in rows]
        checks = [(c["check"], c["passed"] is True, c["detail"]) for c in json.loads(body)]
        identity_gaps = [
            float(detail.split()[1])
            for name, _, detail in checks
            if name.startswith(("identity.T2m1", "identity.T4m1"))
        ]
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return tally.fail(VERIFY_CHECKS, f"verify: output does not parse: {exc}")
    tally.closed_err = max(identity_gaps, default=1.0)
    tally.oracle_err = max(theorem_gaps, default=1.0)
    failing = [name for name, ok, _ in checks if not ok]
    if deviations != ["T8"]:
        failing += [name for name, ok, _ in checks if ok and name.startswith("table2.")]
    tally.ops = len(checks) - len(failing)
    if len(checks) < VERIFY_CHECKS:
        tally.fail(VERIFY_CHECKS - len(checks), f"verify: {len(checks)} checks, expected {VERIFY_CHECKS}")
    if failing:
        tally.fail(
            len(failing),
            f"verify: {len(failing)} check(s) failed ({', '.join(failing[:5])}); "
            f"deviation report names {deviations}, expected ['T8']",
        )
    return tally


def digits(err: float) -> float:
    return math.log10(1.0 / min(1.0, max(err, ERR_FLOOR)))


def call_main(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, invs: list[Invocation], reference: dict):
        import trigzeta.cli

        self.cli = trigzeta.cli
        self.invs = invs
        self.reference = reference
        self.first: list[tuple[str, Tally] | None] = [None] * len(invs)
        self.tally = Tally()
        self.ops_per_pass = 0

    def _check(self, i: int, inv: Invocation, code: int, out: str) -> Tally:
        first = self.first[i]
        if first is not None:
            if (f"{code}\n{out}") == first[0]:
                return first[1]
            return Tally().fail(first[1].ops, f"{' '.join(inv.argv)}: output differs between passes")
        if inv.argv[0] == "verify":
            tally = check_verify(code, out)
        else:
            tally = check_points(inv, code, out, self.reference)
        self.first[i] = (f"{code}\n{out}", tally)
        return tally

    def run_pass(self, tracer=None) -> tuple[float, float, float]:
        """One pass: (program seconds, whole-pass seconds, checking seconds)."""
        main = self.cli.main if tracer is None else tracer.span("cli", self.cli.main)
        program = checking = 0.0
        pass_tally = Tally()
        start = time.perf_counter()
        for i, inv in enumerate(self.invs):
            if tracer is not None:
                tracer.invocation = i
            t0 = time.perf_counter()
            code, out = call_main(main, inv.argv)
            t1 = time.perf_counter()
            pass_tally.add(self._check(i, inv, code, out))
            checking += time.perf_counter() - t1
            program += t1 - t0
        whole = time.perf_counter() - start
        self.tally.add(pass_tally)
        self.ops_per_pass = pass_tally.ops
        return program, whole, checking


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import trigzeta.cli."""
    code = (
        "import time; t = time.perf_counter(); import trigzeta.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one also writes bytecode caches
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _keep_going(passes: int, last: float, deadline: float) -> bool:
    return passes == 0 or time.perf_counter() + last <= deadline


def end_to_end(runner: Runner, seconds: float) -> dict:
    runner.run_pass()  # warm-up
    deadline = time.perf_counter() + seconds
    walls = []
    while _keep_going(len(walls), walls[-1] if walls else 0.0, deadline):
        walls.append(runner.run_pass()[0])
    wall = min(walls)
    t = runner.tally
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (runner.ops_per_pass / wall, "1/s"),
        "closed_form_digits": (digits(t.closed_err), "digits"),
        "oracle_digits": (digits(t.oracle_err), "digits"),
        "verified_frac": ((t.ops - t.failed - t.unverified) / t.ops, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _pass_profile(spans: list[tuple], pochhammer: int) -> dict:
    """Counts and self times of the spans of one traced pass."""
    calls, self_s = Counter(), Counter()
    plan_s, kernel_sa = set(), set()
    terms = oracle_failed = 0
    for _, _, _, layer, _, _, own, key in spans:
        calls[layer] += 1
        self_s[layer] += own
        if layer == "plan":
            plan_s.add(key)
        elif layer == "kernel":
            kernel_sa.add(key)
        elif layer == "oracle":
            if key == "failed":
                oracle_failed += 1
            else:
                terms += key[1]
                self_s[f"oracle.{key[0]}"] += own
    return {
        "calls": calls,
        "self_s": self_s,
        "plan.unique_s_frac": len(plan_s) / calls["plan"] if calls["plan"] else 0.0,
        "kernel.unique_sa_frac": len(kernel_sa) / calls["kernel"] if calls["kernel"] else 0.0,
        "oracle.terms_used": terms,
        "oracle.failed": oracle_failed,
        "pochhammer.calls": pochhammer,
    }


def per_layer(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    runner.run_pass()  # warm-up
    deadline = time.perf_counter() + seconds
    untraced, traced, unaccounted, checking, profiles = [], [], [], [], []
    latencies = {layer: [] for layer in P99_LAYERS}

    def short_of_samples() -> bool:
        return any(len(v) < MIN_SAMPLES for v in latencies.values())

    while (
        not traced
        or short_of_samples()
        or _keep_going(len(traced), untraced[-1] + traced[-1], deadline)
    ):
        untraced.append(runner.run_pass()[0])
        first_span, pochhammer = len(tracer.spans), tracer.counts["pochhammer"]
        tracer.install()
        try:
            program, whole, check = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans[first_span:]
        profile = _pass_profile(spans, tracer.counts["pochhammer"] - pochhammer)
        for _, _, _, layer, t0, t1, _, key in spans:
            if layer in ("kernel", "oracle"):
                latencies[layer].append(t1 - t0)
            elif key == "closed_form_eval":
                latencies["closed_form"].append(t1 - t0)
        traced.append(program)
        checking.append(check)
        layers_self = sum(profile["self_s"][layer] for layer in profile["calls"])
        unaccounted.append(whole - layers_self - check)
        profiles.append(profile)
        if short_of_samples() and time.perf_counter() > deadline + seconds:
            break  # a pool that cannot fill in time reports what it has

    def med(get) -> float:
        return statistics.median_low(get(p) for p in profiles)

    metrics = {}
    for layer in ("plan", "kernel", "assembly", "oracle", "dirichlet", "cli"):
        metrics[f"{layer}.calls"] = (med(lambda p: p["calls"][layer]), "count")
        if layer != "oracle":
            metrics[f"{layer}.self_s"] = (med(lambda p: p["self_s"][layer]), "s")
    metrics["pochhammer.calls"] = (med(lambda p: p["pochhammer.calls"]), "count")
    for name in ("plan.unique_s_frac", "kernel.unique_sa_frac"):
        metrics[name] = (med(lambda p: p[name]), "fraction")
    for method in ORACLE_METHODS:
        metrics[f"oracle.{method}.self_s"] = (med(lambda p: p["self_s"][f"oracle.{method}"]), "s")
    metrics["oracle.terms_used"] = (med(lambda p: p["oracle.terms_used"]), "count")
    metrics["oracle.failed"] = (med(lambda p: p["oracle.failed"]), "count")
    for layer, values in latencies.items():
        values.sort()
        metrics[f"{layer}.samples"] = (len(values), "count")
        metrics[f"{layer}.p50_us"] = (_percentile(values, 0.50) * 1e6 if values else 0.0, "us")
        metrics[f"{layer}.p99_us"] = (_percentile(values, 0.99) * 1e6 if values else 0.0, "us")
    metrics["trace.passes"] = (len(traced), "count")
    metrics["trace.overhead_frac"] = (min(traced) / min(untraced) - 1.0, "fraction")
    metrics["trace.unaccounted_s"] = (statistics.median(unaccounted), "s")
    metrics["bench.check_s"] = (statistics.median(checking), "s")

    TRACE_DIR.mkdir(exist_ok=True)
    with open(TRACE_DIR / f"{workload}-seed{seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trigzeta" / "cli.py").is_file():
        print(f"error: no trigzeta package under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    invs = invocations(args.workload, args.seed)

    runner = Runner(invs, reference)
    if args.trace:
        metrics = per_layer(runner, args.seconds, args.workload, args.seed)
    else:
        metrics = {"setup_s": (measure_setup(), "s"), **end_to_end(runner, args.seconds)}

    t = runner.tally
    correct = t.failed == 0 and t.wrong == 0 and not t.problems
    for problem in list(dict.fromkeys(t.problems))[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    grids = " ".join(f"{inv.family}:{inv.count}" for inv in invs if inv.family)
    print(f"# {args.workload} seed={args.seed} {grids}".rstrip())
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": t.ops,
        "failed": t.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
