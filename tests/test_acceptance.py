"""Acceptance suite: ten end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.
"""

import math
import time

from trigzeta.cli import grid_points, main
from trigzeta.closedforms import (
    SeriesSpec,
    TABLE2_ROWS,
    closed_form_eval,
    general_closed_form,
)
from trigzeta.dirichlet import (
    beta_fn,
    eta,
    riemann_zeta,
    zeta_prime_neg_even,
)
from trigzeta.hurwitz import hurwitz_zeta, hurwitz_zeta_sderiv
from trigzeta.oracles import direct_sum
from trigzeta.verify import (
    _hurwitz_formula_partials,
    choi_srivastava_grid,
    lambda_probe_orders,
)

FAMILIES = tuple(f"T{i}" for i in range(1, 9))


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance criterion {n}: {detail}"


def test_criterion_1_closed_form_vs_oracle_grid():
    start = time.monotonic()
    worst = 0.0
    worst_at = None
    count = 0
    for family in FAMILIES:
        for m in (1, 2, 3):
            spec = SeriesSpec.from_family(family, m)
            for x in grid_points(family, 9):
                closed = closed_form_eval(spec, x).value
                oracle = direct_sum(spec, x, 1e-10).value
                rel = abs(closed - oracle) / (1.0 + abs(oracle))
                count += 1
                if rel > worst:
                    worst, worst_at = rel, (family, m, x)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0 and count == 216
    report(1, ok,
           f"{count} grid points, worst rel_err {worst:.3e} at {worst_at}, "
           f"{elapsed:.1f}s")


def test_criterion_2_special_values():
    gaps = [
        ("eta(1)", abs(eta(1.0) - math.log(2.0))),
        ("beta(0)", abs(beta_fn(0.0) - 0.5)),
        ("beta(1)", abs(beta_fn(1.0) - math.pi / 4.0)),
        ("zeta(0)", abs(riemann_zeta(0.0) + 0.5)),
    ]
    for n in range(1, 6):
        gaps.append((f"zeta(-{2*n})", abs(riemann_zeta(-2.0 * n))))
        gaps.append((f"beta({1-2*n})", abs(beta_fn(float(1 - 2 * n)))))
    worst_name, worst = max(gaps, key=lambda g: g[1])
    report(2, worst <= 1e-12,
           f"{len(gaps)} special values, worst gap {worst:.3e} at {worst_name}")


def test_criterion_3_zeta_derivative_anchors():
    worst_neg = 0.0
    for n in range(1, 5):
        gap = abs(hurwitz_zeta_sderiv(-2.0 * n, 1.0) - zeta_prime_neg_even(n))
        worst_neg = max(worst_neg, gap)
    worst_zero = 0.0
    for a in (0.25, 0.5, 0.75, 1.0):
        want = math.lgamma(a) - 0.5 * math.log(2.0 * math.pi)
        worst_zero = max(worst_zero, abs(hurwitz_zeta_sderiv(0.0, a) - want))
    ok = worst_neg <= 1e-9 and worst_zero <= 1e-10
    report(3, ok,
           f"zeta'(-2n) worst gap {worst_neg:.3e}, "
           f"zeta'(0,a) worst gap {worst_zero:.3e}")


def test_criterion_4_log_identities():
    worst = 0.0
    for x in (0.4, 1.0, 1.9, 2.7, 3.9):
        got = closed_form_eval(SeriesSpec.from_family("T2", 1), x).value
        worst = max(worst, abs(got + math.log(2.0 * math.sin(0.5 * x))))
    for x in (-2.5, -1.0, 0.3, 1.4, 2.8):
        got = closed_form_eval(SeriesSpec.from_family("T4", 1), x).value
        worst = max(worst, abs(got - math.log(2.0 * math.cos(0.5 * x))))
    report(4, worst <= 1e-10, f"10 identity points, worst gap {worst:.3e}")


def test_criterion_5_catalan_anchor():
    reference = direct_sum(
        SeriesSpec.from_family("T1", 1), math.pi / 2.0, 1e-12)
    closed = closed_form_eval(
        SeriesSpec.from_family("T1", 1), math.pi / 2.0).value
    gap = abs(closed - reference.value)
    ok = gap <= 1e-10 and reference.error_estimate <= 1e-12
    report(5, ok,
           f"closed {closed:.12f} vs reference {reference.value:.12f} "
           f"(est {reference.error_estimate:.1e}), gap {gap:.3e}")


def test_criterion_6_zeta_series_identity():
    worst = 0.0
    count = 0
    for a in (1.0, 0.25, 0.75):
        lhs, rhs = choi_srivastava_grid(range(5), a, (0.04, -0.04, 0.2 * a, -0.2 * a))
        worst = max(worst, float(abs(lhs - rhs).max()))
        count += lhs.size
    report(6, worst <= 1e-9, f"{count} (n,a,t) points, worst gap {worst:.3e}")


def test_criterion_7_hurwitz_formula_truncated():
    ok = True
    worst_ratio = 0.0
    for s in (2.0, 3.0):
        for a in (0.25, 0.5, 1.0):
            terms = 20_000
            partial = _hurwitz_formula_partials(s, [a], terms)[0]
            want = hurwitz_zeta(1.0 - s, a)
            bound = (
                2.0 * math.gamma(s) / (2.0 * math.pi) ** s
                * terms ** (1.0 - s) / (s - 1.0)
            )
            gap = abs(partial - want)
            ok = ok and gap <= bound
            worst_ratio = max(worst_ratio, gap / bound)
    report(7, ok, f"6 (s,a) points, worst gap/bound ratio {worst_ratio:.3f}")


def test_criterion_8_limit_probes():
    lam = lambda_probe_orders()[1]
    eta_val = 0.5 * (eta(1.0 - 1e-6) + eta(1.0 + 1e-6))
    lam_gap = abs(lam - 0.5)
    eta_gap = abs(eta_val - math.log(2.0))
    ok = lam_gap <= 1e-6 and eta_gap <= 1e-8
    report(8, ok, f"s*lambda(1+s) gap {lam_gap:.3e}, eta(1) gap {eta_gap:.3e}")


def test_criterion_9_master_formula_rows():
    deviating = []
    theorem_ok = True
    for row in TABLE2_ROWS:
        worst_vs_theorem = 0.0
        worst_vs_oracle = 0.0
        for m in (1, 2, 3):
            spec = SeriesSpec.from_family(row.family, m)
            for x in grid_points(row.family, 9):
                theorem = closed_form_eval(spec, x).value
                literal = general_closed_form(row.family, m, x)
                worst_vs_theorem = max(
                    worst_vs_theorem,
                    abs(literal - theorem) / (1.0 + abs(theorem)))
                oracle = direct_sum(spec, x, 1e-10).value
                worst_vs_oracle = max(
                    worst_vs_oracle,
                    abs(theorem - oracle) / (1.0 + abs(oracle)))
        if worst_vs_theorem > 1e-8:
            deviating.append(row.family)
            theorem_ok = theorem_ok and worst_vs_oracle <= 1e-8
    # acceptable either way: all rows match, or every deviating row is
    # named in a non-empty report and its theorem evaluator still passes
    # the oracle grid
    code = main(["verify", "--suite", "table2"])
    ok = (not deviating and code == 0) or (
        deviating and theorem_ok and code == 0)
    report(9, ok,
           f"deviating rows {deviating or 'none'}, "
           f"theorem evaluators pass oracle grid: {theorem_ok}")


def test_criterion_10_deterministic_sweep(tmp_path, capsys):
    argv = ["sweep", "--family", "T3", "--m", "1..3", "--grid", "9",
            "--format", "csv"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = main(argv + ["--out", str(out_a)])
    code_b = main(argv + ["--out", str(out_b)])
    same = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and same
    report(10, ok,
           f"two sweep runs byte-identical: {same} "
           f"({len(out_a.read_bytes())} bytes)")
