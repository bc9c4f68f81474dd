"""Tests for the independent oracle evaluation paths."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trigzeta import oracles
from trigzeta.cli import grid_points
from trigzeta.closedforms import SeriesSpec, closed_form_eval
from trigzeta.errors import ConvergenceError, DomainError
from trigzeta.oracles import (
    OracleReport,
    choi_srivastava_check,
    direct_sum,
    lambda_probe_orders,
    lambda_series_path,
    limit_probe_eta_and_lambda,
    power_series_eval,
)

CATALAN = 0.915965594177219
EULER_GAMMA = 0.5772156649015329


class TestDirectSum:
    def test_clausen_anchor(self):
        # [DERIVED] this IS the brute-force oracle; 12-digit Catalan reference
        rep = direct_sum(SeriesSpec.from_family("T1", 1), math.pi / 2.0, 1e-10)
        assert rep.value == pytest.approx(CATALAN, abs=1e-10)
        assert rep.method == "direct"
        assert rep.error_estimate <= 1e-10

    def test_sine_series_vanishes_at_pi(self):
        # [TRIVIAL] all terms of sum sin(n pi)/n^6 are zero
        rep = direct_sum(SeriesSpec.from_family("T1", 3), math.pi, 1e-10)
        assert abs(rep.value) < 1e-12

    def test_alternating_log_value(self):
        # [DERIVED] sum (-1)^(n+1) cos(n pi/3)/n = (1/2) ln 3
        rep = direct_sum(SeriesSpec.from_family("T4", 1), math.pi / 3.0, 1e-10)
        assert rep.value == pytest.approx(0.5 * math.log(3.0), abs=1e-9)
        assert rep.method == "euler_accelerated"

    def test_method_dispatch(self):
        cases = {
            ("T1", 2): "direct",
            ("T2", 1): "direct",
            ("T2", 2): "direct",
            ("T3", 1): "euler_accelerated",
            ("T4", 1): "euler_accelerated",
            ("T5", 1): "direct",
            ("T6", 1): "direct",
            ("T6", 2): "direct",
            ("T7", 1): "euler_accelerated",
            ("T8", 1): "euler_accelerated",
        }
        for (fam, m), want in cases.items():
            spec = SeriesSpec.from_family(fam, m)
            lo, hi = spec.interval
            rep = direct_sum(spec, lo + 0.4 * (hi - lo), 1e-9)
            assert rep.method == want, (fam, m)

    def test_tolerance_consistency(self):
        # direct_sum at tol T and T/10 differ by at most 2T
        for fam, m, t in [("T1", 2, 0.3), ("T3", 1, 0.6), ("T5", 2, 0.5)]:
            spec = SeriesSpec.from_family(fam, m)
            lo, hi = spec.interval
            x = lo + t * (hi - lo)
            coarse = direct_sum(spec, x, 1e-9).value
            fine = direct_sum(spec, x, 1e-10).value
            assert abs(coarse - fine) <= 2e-9

    def test_tol_floor(self):
        with pytest.raises(DomainError):
            direct_sum(SeriesSpec.from_family("T1", 1), 1.0, 1e-13)

    def test_report_invariants(self):
        with pytest.raises(DomainError):
            OracleReport(1.0, "direct", 10, 0.0)
        with pytest.raises(DomainError):
            OracleReport(1.0, "direct", 10, math.inf)

    @given(st.sampled_from(["T1", "T3", "T5", "T7"]), st.integers(1, 3),
           st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_closed_form(self, fam, m, t):
        spec = SeriesSpec.from_family(fam, m)
        lo, hi = spec.interval
        x = lo + t * (hi - lo)
        rep = direct_sum(spec, x, 1e-10)
        cf = closed_form_eval(spec, x).value
        assert abs(cf - rep.value) <= 1e-8 * (1.0 + abs(rep.value))


class TestByPartsErrorEstimate:
    # [DERIVED] sum cos(nx)/n = -log(2 sin(x/2)) on (0, 2pi) and
    # sum cos((2n-1)x)/(2n-1) = -(1/2) log tan(x/2) on (0, pi)
    EXACT = {
        "T2": lambda x: -math.log(2.0 * math.sin(0.5 * x)),
        "T6": lambda x: -0.5 * math.log(math.tan(0.5 * x)),
    }

    @pytest.mark.parametrize("family", ["T2", "T6"])
    def test_weight_one_cosine_near_endpoints(self, family):
        # near the ends the forward differences of the tail lose digits;
        # the estimate must cover that loss, or the oracle must refuse
        spec = SeriesSpec.from_family(family, 1)
        hi = spec.interval[1]
        answered = 0
        for x0 in (1e-3, 0.01, 0.05):
            for x in (x0, hi - x0):
                for tol in (1e-10, 1e-8, 1e-6):
                    try:
                        rep = direct_sum(spec, x, tol)
                    except ConvergenceError:
                        continue
                    answered += 1
                    err = abs(rep.value - self.EXACT[family](x))
                    assert err <= rep.error_estimate, (x, tol, err, rep.error_estimate)
        assert answered >= 6


def _reference_points():
    """(family, m, x, 30-digit value) of both frozen mpmath fixtures."""
    here = Path(__file__).parent
    tables = list(json.loads((here / "reference.json").read_text())["closed_form"].items())
    grids = json.loads((here.parent / "benchmarks" / "reference.json").read_text())["grids"]
    tables += [(key.split("/")[0], entry) for key, entry in grids.items()]
    for family, entry in tables:
        for m in range(1, 9):
            for x, ref in zip(entry["x"], entry.get(str(m), ())):
                yield family, m, x, ref


class TestErrorEstimateIsHonest:
    # The points the oracle refuses: the 128 points 1e-6 of the interval
    # from an end (term cap) and the 8 weight-one points 1e-3 from an end
    # where the differences of the tail lose too many digits.
    REFUSED = 136

    def test_estimate_bounds_the_error_on_both_fixtures(self):
        refused = answered = 0
        for family, m, x, ref in _reference_points():
            try:
                rep = direct_sum(SeriesSpec.from_family(family, m), x, 1e-10)
            except ConvergenceError:
                refused += 1
                continue
            answered += 1
            err = abs(rep.value - ref)
            assert err <= rep.error_estimate, (family, m, x, err, rep.error_estimate)
        assert answered == 7120 - self.REFUSED
        assert refused == self.REFUSED

    def test_head_length_follows_the_tail_bound(self):
        # 200/|1-z| terms plus the difference orders: at most hundreds on
        # the CLI grids, which stay 5% clear of the ends
        for family in ("T1", "T4", "T6", "T8"):
            for m in (1, 4, 8):
                spec = SeriesSpec.from_family(family, m)
                for x in grid_points(family, 9):
                    rep = direct_sum(spec, x, 1e-10)
                    assert 100 <= rep.terms_used <= 700, (family, m, x, rep.terms_used)

    @pytest.mark.parametrize("family", ["T2", "T3", "T5", "T8"])
    def test_longer_head_agrees_within_the_estimates(self, family, monkeypatch):
        # the same series summed with a 16x longer head must agree within
        # the sum of the two error estimates
        spec = SeriesSpec.from_family(family, 2)
        xs = grid_points(family, 8)  # no x = 0, where sine series skip the sum
        short = [direct_sum(spec, x, 1e-10) for x in xs]
        monkeypatch.setattr(oracles, "_HEAD_SCALE", 3200.0)
        for x, rep in zip(xs, short):
            long = direct_sum(spec, x, 1e-10)
            assert long.terms_used > rep.terms_used
            gap = abs(long.value - rep.value)
            assert gap <= long.error_estimate + rep.error_estimate, (x, gap)


class TestPowerSeries:
    def test_matches_direct_sum_nonsingular(self):
        # zeta-family sin at alpha=2.5 vs the T1-like literal sum: compare
        # against a high-order closed check via the direct engine at alpha=2.5
        # is not available (integer alpha only), so brute-force partial sum:
        import numpy as np

        for family, kind, alpha, x in [
            ("zeta", "sin", 2.5, 1.0),
            ("zeta", "cos", 2.5, 0.5),
            ("lambda", "sin", 2.5, 0.8),
            ("beta", "cos", 2.0, 0.4),
        ]:
            a, b, sgn = {
                "zeta": (1, 0, 1), "eta": (1, 0, -1),
                "lambda": (2, 1, 1), "beta": (2, 1, -1),
            }[family]
            n = np.arange(1, 2_000_001, dtype=np.float64)
            d = a * n - b
            f = np.sin if kind == "sin" else np.cos
            signs = np.where(n % 2 == 1, 1.0, float(sgn))
            brute = float(np.sum(signs * f(d * x) / d**alpha))
            got = power_series_eval(family, kind, alpha, x)
            assert got == pytest.approx(brute, abs=1e-9), (family, kind)

    def test_odd_series_at_zero(self):
        # [TRIVIAL] beta-family sin at x=0
        assert power_series_eval("beta", "sin", 3.0, 0.0) == 0.0

    def test_singular_alpha_rejected(self):
        for family, kind, alpha in [
            ("zeta", "sin", 4.0), ("zeta", "cos", 3.0),
            ("lambda", "sin", 2.0), ("lambda", "cos", 5.0),
        ]:
            with pytest.raises(DomainError):
                power_series_eval(family, kind, alpha, 0.5)

    def test_eta_beta_integer_alpha_fine(self):
        assert math.isfinite(power_series_eval("eta", "cos", 3.0, 0.4))
        assert math.isfinite(power_series_eval("beta", "sin", 3.0, 0.6))

    @given(st.floats(0.05, 1.2))
    @settings(max_examples=20, deadline=None)
    def test_parity(self, x):
        # delta=1 rows odd in x, delta=0 rows even (symmetric intervals)
        assert power_series_eval("eta", "sin", 2.0, -x) == -power_series_eval(
            "eta", "sin", 2.0, x)
        assert power_series_eval("beta", "cos", 2.0, -x) == power_series_eval(
            "beta", "cos", 2.0, x)

    def test_divergent_truncation(self):
        with pytest.raises(ConvergenceError) as exc:
            power_series_eval("zeta", "sin", 2.5, 6.1)
        assert exc.value.best_value is not None

    def test_region_enforced(self):
        with pytest.raises(DomainError):
            power_series_eval("lambda", "sin", 2.5, 3.5)


class TestChoiSrivastava:
    def test_closed_value_example(self):
        # n=0, a=1, t=1/2: both sides equal (1/2) ln pi - gamma/2
        lhs, rhs = choi_srivastava_check(0, 1.0, 0.5)
        want = 0.5 * math.log(math.pi) - 0.5 * EULER_GAMMA
        assert lhs == pytest.approx(want, abs=1e-9)
        assert rhs == pytest.approx(want, abs=1e-12)

    def test_t_zero_trivial(self):
        lhs, rhs = choi_srivastava_check(0, 1.0, 0.0)
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_grid_gap(self):
        for n in range(5):
            for a in (1.0, 0.25, 0.75):
                for t in (0.05, -0.05, 0.2 * a, -0.2 * a):
                    lhs, rhs = choi_srivastava_check(n, a, t)
                    assert abs(lhs - rhs) <= 1e-9, (n, a, t)

    def test_domain(self):
        with pytest.raises(DomainError):
            choi_srivastava_check(-1, 1.0, 0.1)
        with pytest.raises(DomainError):
            choi_srivastava_check(9, 1.0, 0.1)
        with pytest.raises(DomainError):
            choi_srivastava_check(1, 1.0, 1.0)
        with pytest.raises(DomainError):
            choi_srivastava_check(1, -1.0, 0.1)


class TestLambdaSeriesPath:
    def test_catalan(self):
        got = lambda_series_path(SeriesSpec.from_family("T5", 1), math.pi / 2.0)
        assert got == pytest.approx(CATALAN, abs=1e-8)

    def test_matches_direct_sum(self):
        spec = SeriesSpec.from_family("T6", 2)
        got = lambda_series_path(spec, 1.0)
        want = direct_sum(spec, 1.0, 1e-10).value
        assert got == pytest.approx(want, abs=1e-8)

    def test_matches_closed_form(self):
        spec = SeriesSpec.from_family("T5", 2)
        got = lambda_series_path(spec, math.pi / 2.0)
        want = closed_form_eval(spec, math.pi / 2.0).value
        assert got == pytest.approx(want, abs=1e-8)

    def test_family_restriction(self):
        with pytest.raises(DomainError):
            lambda_series_path(SeriesSpec.from_family("T1", 1), 0.5)
        with pytest.raises(DomainError):
            lambda_series_path(SeriesSpec.from_family("T5", 1), 3.5)


class TestLimitProbes:
    def test_probe_values(self):
        lam, eta_val = limit_probe_eta_and_lambda()
        assert lam == pytest.approx(0.5, abs=1e-6)
        assert eta_val == pytest.approx(math.log(2.0), abs=1e-8)

    def test_richardson_consistency(self):
        o1, o2 = lambda_probe_orders()
        assert abs(o1 - o2) < 1e-7
