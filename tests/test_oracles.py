"""Tests for the independent oracle evaluation paths."""

import ast
import cmath
import functools
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trigzeta import closedforms, oracles, verify
from trigzeta.cli import grid_points, make_records
from trigzeta.closedforms import SeriesSpec, closed_form_eval
from trigzeta.dirichlet import eta
from trigzeta.errors import ConvergenceError, DomainError
from trigzeta.foundations import BERNOULLI, digamma, harmonic, pochhammer
from trigzeta.hurwitz import hurwitz_zeta, hurwitz_zeta_sderiv
from trigzeta.oracles import DIRECT_TERM_CAP, OracleReport, direct_sum, direct_sum_grid
from trigzeta.verify import (
    _suite_choi_srivastava,
    choi_srivastava_grid,
    lambda_probe_orders,
    limit_series_eval,
)

CATALAN = 0.915965594177219
EULER_GAMMA = 0.5772156649015329
# the two frozen mpmath fixtures: 30-digit values per family and weight
HERE = Path(__file__).parent
TEST_REFERENCE = json.loads((HERE / "reference.json").read_text())["closed_form"]
BENCH_GRIDS = json.loads((HERE.parent / "benchmarks" / "reference.json").read_text())["grids"]


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
        with pytest.raises(DomainError):
            # NaN never fails the gate err > tol, so it must not get that far
            direct_sum(SeriesSpec.from_family("T2", 1), 2.0 * math.pi * 1.0001e-3, math.nan)

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


def _reference_grids():
    """(family, xs, {weight: 30-digit values}) of both frozen mpmath fixtures."""
    tables = list(TEST_REFERENCE.items())
    tables += [(key.split("/")[0], entry) for key, entry in BENCH_GRIDS.items()]
    for family, entry in tables:
        yield family, entry["x"], {m: entry[str(m)] for m in WEIGHTS if str(m) in entry}


class TestErrorEstimateIsHonest:
    # The points the oracle refuses: the 128 points 1e-6 of the interval
    # from an end (term cap) and the 8 weight-one points 1e-3 from an end
    # where the differences of the tail lose too many digits.
    REFUSED = 136

    def test_estimate_bounds_the_error_on_both_fixtures(self):
        # one grid call per fixture grid, without the points refused at
        # every weight; an estimate above 1e-10 is a refusal at tol 1e-10
        refused = answered = 0
        for family, xs, refs in _reference_grids():
            kept = _answered(family, xs)
            refused += len(refs) * (len(xs) - len(kept))
            values, errs, _, _ = direct_sum_grid(family, list(refs), kept, math.inf)
            for (m, refs_m), row, err_row in zip(refs.items(), values.tolist(), errs.tolist()):
                ref_at = dict(zip(xs, refs_m))
                for x, value, estimate in zip(kept, row, err_row):
                    if estimate > 1e-10:
                        refused += 1
                        continue
                    answered += 1
                    err = abs(value - ref_at[x])
                    assert err <= estimate, (family, m, x, err, estimate)
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


# --- per-point reference: the oracle as it was before grids -------------
#
# One series at a time, with its own partial sum and tail.  direct_sum_grid
# must reproduce it bit for bit in the value and the term count.

_REF_CHUNK = 1_000_000
_REF_EPS = sys.float_info.epsilon


def _ref_partial_sum_complex(a, b, sign, alpha, x, m):
    total = 0.0 + 0.0j
    mass = 0.0
    moment = 0.0
    start = 1
    while start <= m:
        stop = min(m, start + _REF_CHUNK - 1)
        d = np.arange(a * start - b, a * stop - b + 1, a, dtype=np.float64)
        g = d ** (-float(alpha))
        mass += float(g.sum())
        moment += float(np.dot(d, g))
        if sign < 0:
            g[start % 2::2] *= -1.0
        phases = d * x
        total += complex((g * np.cos(phases)).sum(), (g * np.sin(phases)).sum())
        start = stop + 1
    depth = math.log2(m) + 12 + math.ceil(m / _REF_CHUNK)
    rounding = _REF_EPS * (0.5 * x * moment + (2.5 + 0.5 * depth) * mass)
    return total, rounding


@functools.cache  # a pure function: the grid and tail tests share many lanes
def _ref_tail_by_parts(a, b, sign, alpha, x, m1):
    z = sign * cmath.exp(1j * a * x)
    one_minus = 1.0 - z
    ratio = abs(z / one_minus)
    d_m1 = a * m1 - b
    factor = sign ** (m1 - 1) * cmath.exp(1j * (d_m1 * x)) / one_minus
    step = -z / one_minus
    eps_g = _REF_EPS * d_m1 ** (-float(alpha))
    diag = []
    tail = 0.0 + 0.0j
    best = (tail, math.inf, 0, 0.0)
    rounding = size = 0.0
    for j in range(60):
        cur = (a * (m1 + j) - b) ** (-float(alpha))
        for k in range(j):
            diag[k], cur = cur, diag[k] - cur
        diag.append(cur)
        tail += factor * cur
        factor *= step
        weight = ratio ** (j + 1)
        rounding += weight * 2.0**j * eps_g
        bound = weight * cur
        size += bound
        err = max(bound, 1e-18) + rounding
        if err > best[1]:
            break
        best = (tail, err, j + 1, size)
        if bound < 1e-18:
            break
    tail, err, used, size = best
    err += _REF_EPS * (0.5 * d_m1 * x + (used + 2) * (ratio + 2.0)) * size
    return tail, err, used


def _ref_head_length(spec, x):
    """The head length at x, or the refusal at resonance or the term cap naming x."""
    one_minus = abs(1.0 - spec.sign * cmath.exp(1j * spec.a * abs(x)))
    if one_minus < 1e-8:
        raise ConvergenceError(
            f"series phase too close to resonance at x={x}; no tail bound available"
        )
    m = int(200.0 / one_minus)
    if m > DIRECT_TERM_CAP:
        raise ConvergenceError(f"term cap {DIRECT_TERM_CAP} exceeded for x={x}")
    return m


def _ref_sum_by_parts(spec, x, tol, method, fold):
    a, b, sign = spec.a, spec.b, spec.sign
    m = _ref_head_length(spec, x)
    x = abs(x)
    partial, partial_err = _ref_partial_sum_complex(a, b, sign, spec.alpha, x, m)
    tail, tail_err, j_used = _ref_tail_by_parts(a, b, sign, spec.alpha, x, m + 1)
    total = partial + tail
    value = fold * (total.imag if spec.kind == "sin" else total.real)
    err = partial_err + tail_err + 0.5 * _REF_EPS * abs(value)
    if not (math.isfinite(err) and err > 0.0):
        raise DomainError("error_estimate must be finite and positive")
    if err > tol:
        raise ConvergenceError(
            f"direct summation reached error estimate {err:.3e} > tol {tol:.3e}",
            best_value=value,
        )
    return OracleReport(value, method, m + j_used, err)


def _ref_direct_sum(spec, x, tol):
    lo, hi = spec.interval
    margin = 1e-9 * (hi - lo)
    if not (lo + margin <= x <= hi - margin):
        raise DomainError(f"x={x} outside open interval ({lo}, {hi}) for family {spec.family}")
    fold = -1.0 if x < 0.0 and spec.kind == "sin" else 1.0
    if x == 0.0 and spec.kind == "sin":
        return OracleReport(0.0, "direct", 1, 1e-18)
    method = "euler_accelerated" if spec.sign < 0 else "direct"
    return _ref_sum_by_parts(spec, x, tol, method, fold)


def _first_refusal(calls):
    """The exception of the first call that raises, or None."""
    for call in calls:
        try:
            call()
        except ConvergenceError as exc:
            return exc
    return None


def _same_refusal(got, want):
    assert want is not None
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert got.best_value == want.best_value


FAMILIES = tuple(f"T{i}" for i in range(1, 9))
WEIGHTS = tuple(range(1, 9))


def _fixture_xs(family):
    """Every x of both frozen fixtures for ``family``, in a fixed order."""
    xs = TEST_REFERENCE[family]["x"]
    for key in sorted(BENCH_GRIDS):
        if key.split("/")[0] == family:
            xs = xs + BENCH_GRIDS[key]["x"]
    return xs


def _answered(family, xs):
    """The xs where the oracle meets neither resonance nor the term cap."""
    spec = SeriesSpec.from_family(family, 1)
    answered = []
    for x in xs:  # the term cap and resonance do not depend on the weight
        if x != 0.0 or spec.kind != "sin":  # a sine series vanishes at 0
            try:
                _ref_head_length(spec, abs(x))
            except ConvergenceError:
                continue
        answered.append(x)
    return answered


class TestLockstepTail:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_tail_equals_the_scalar_reference(self, family):
        # every planned point of the 33-point CLI grid and of both fixtures,
        # at every weight: value, error bound and order, bit for bit
        spec = SeriesSpec.from_family(family, 1)
        a, b, sign = spec.a, spec.b, spec.sign
        xs, plans = [], []
        for x in grid_points(family, 33) + _fixture_xs(family):
            plan = oracles._plan_point(a, b, sign, abs(x))
            if isinstance(plan, tuple):
                xs.append(abs(x))
                plans.append(plan)
        alphas = [SeriesSpec.from_family(family, m).alpha for m in WEIGHTS]
        sine = spec.kind == "sin"
        tail, err, used = (t.tolist() for t in oracles._tails(a, b, alphas, xs, plans, sine))
        for w, alpha in enumerate(alphas):
            for p, (x, plan) in enumerate(zip(xs, plans)):
                want, want_err, want_used = _ref_tail_by_parts(a, b, sign, alpha, x, plan[0] + 1)
                want = want.imag if sine else want.real
                got = (tail[w][p], err[w][p], used[w][p])
                assert got == (want, want_err, want_used), (family, alpha, x)


class TestGridOracle:
    TOL = 1e-8  # answers the weight-one points 1e-3 from an end

    def _check_grid(self, family, xs):
        values, errs, terms, methods = direct_sum_grid(family, WEIGHTS, xs, self.TOL)
        assert values.shape == errs.shape == terms.shape == (len(WEIGHTS), len(xs))
        assert len(methods) == len(xs)
        for m, *rows in zip(WEIGHTS, values.tolist(), errs.tolist(), terms.tolist()):
            spec = SeriesSpec.from_family(family, m)
            for x, value, err, terms_used, method in zip(xs, *rows, methods):
                want = _ref_direct_sum(spec, x, self.TOL)
                assert value == want.value, (family, m, x)
                assert terms_used == want.terms_used, (family, m, x)
                assert method == want.method, (family, m, x)
                assert err == pytest.approx(want.error_estimate, rel=1e-12, abs=0)

    @pytest.mark.parametrize("chunk", [None, 97])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_grid_equals_per_point_reference(self, family, chunk, monkeypatch):
        if chunk is not None:  # heads of 100 to 650 terms split into chunks
            monkeypatch.setattr(oracles, "_CHUNK", chunk)
            monkeypatch.setitem(globals(), "_REF_CHUNK", chunk)
        self._check_grid(family, grid_points(family, 9))
        xs = _answered(family, _fixture_xs(family))
        if chunk is not None:
            xs = xs[::4]
        self._check_grid(family, xs)

    @pytest.mark.parametrize("chunk", [None, 97])
    def test_scalar_call_is_its_grid_entry(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(oracles, "_CHUNK", chunk)
        for family in FAMILIES:
            xs = grid_points(family, 9)
            values, errs, terms, methods = direct_sum_grid(family, WEIGHTS, xs, 1e-10)
            for m, *rows in zip(WEIGHTS, values.tolist(), errs.tolist(), terms.tolist()):
                spec = SeriesSpec.from_family(family, m)
                for x, value, err, terms_used, method in zip(xs, *rows, methods):
                    rep = direct_sum(spec, x, 1e-10)
                    assert rep == OracleReport(value, method, terms_used, err), (family, m, x)
                    assert type(rep.value) is float and type(rep.terms_used) is int

    def test_long_head_is_split(self, monkeypatch):
        # a head of 50,000 terms in chunks of 97, next to a short one; then
        # a head longer than the default chunk of 2^16 terms, which the
        # reference sums in one chunk of 10^6, so they agree to rounding
        monkeypatch.setattr(oracles, "_CHUNK", 97)
        monkeypatch.setitem(globals(), "_REF_CHUNK", 97)
        xs = [200.0 / 50_000, 2.0]
        values, errs, terms, _ = direct_sum_grid("T2", (3, 2), xs, 1e-10)
        for m, *rows in zip((3, 2), values.tolist(), errs.tolist(), terms.tolist()):
            for x, value, err, terms_used in zip(xs, *rows):
                want = _ref_direct_sum(SeriesSpec.from_family("T2", m), x, 1e-10)
                assert (value, terms_used) == (want.value, want.terms_used)
                assert err == pytest.approx(want.error_estimate, rel=1e-12, abs=0)
        monkeypatch.undo()
        x = 200.0 / 100_000
        got = direct_sum(SeriesSpec.from_family("T2", 2), x, 1e-10)
        want = _ref_direct_sum(SeriesSpec.from_family("T2", 2), x, 1e-10)
        assert got.terms_used == want.terms_used > oracles._CHUNK
        assert got.value == pytest.approx(want.value, rel=1e-14)

    @pytest.mark.parametrize("family", ["T1", "T7"])
    def test_long_sine_head_is_split(self, family, monkeypatch):
        # the same for sine series, whose heads sum only the sines: heads
        # of about 50,000 and 100,000 terms (|1 - z| = 0.004 and 0.002)
        *xs, beyond = {
            "T1": [200.0 / 50_000, 2.0, 200.0 / 100_000],
            "T7": [0.5 * math.pi - 0.002, 0.5, 0.5 * math.pi - 0.001],
        }[family]
        monkeypatch.setattr(oracles, "_CHUNK", 97)
        monkeypatch.setitem(globals(), "_REF_CHUNK", 97)
        values, errs, terms, _ = direct_sum_grid(family, (3, 2), xs, 1e-10)
        assert terms.max() > 40_000
        for m, *rows in zip((3, 2), values.tolist(), errs.tolist(), terms.tolist()):
            for x, value, err, terms_used in zip(xs, *rows):
                want = _ref_direct_sum(SeriesSpec.from_family(family, m), x, 1e-10)
                assert (value, terms_used) == (want.value, want.terms_used)
                assert err == pytest.approx(want.error_estimate, rel=1e-12, abs=0)
        monkeypatch.undo()
        got = direct_sum(SeriesSpec.from_family(family, 2), beyond, 1e-10)
        want = _ref_direct_sum(SeriesSpec.from_family(family, 2), beyond, 1e-10)
        assert got.terms_used == want.terms_used > oracles._CHUNK
        assert got.value == pytest.approx(want.value, rel=1e-14)

    def test_empty_grid(self):
        values, errs, terms, methods = direct_sum_grid("T1", (1, 2), [], 1e-10)
        assert values.shape == errs.shape == terms.shape == (2, 0) and methods == []
        values, errs, terms, methods = direct_sum_grid("T1", (), [1.0], 1e-10)
        assert values.shape == errs.shape == terms.shape == (0, 1) and methods == ["direct"]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            direct_sum_grid("T1", (1,), [1.0], 1e-13)
        with pytest.raises(DomainError):
            direct_sum_grid("T9", (1,), [1.0], 1e-10)
        with pytest.raises(DomainError):
            direct_sum_grid("T1", (closedforms._MAX_WEIGHT + 1,), [1.0], 1e-10)
        with pytest.raises(DomainError):
            direct_sum_grid("T1", (1,), [1.0, 7.0], 1e-10)


def _spy_on_tails(monkeypatch):
    """Record the number of points of each ``_tails`` call, one per batch."""
    calls = []
    tails = oracles._tails

    def spy(a, b, alphas, xs, plans, sine):
        calls.append(len(xs))
        return tails(a, b, alphas, xs, plans, sine)

    monkeypatch.setattr(oracles, "_tails", spy)
    return calls


class TestBatches:
    # heads of 100 to 638 terms: about 380,000 in all, several batches
    XS = grid_points("T6", 2000)
    WEIGHTS = (1, 2, 8)
    SLICE = 97  # at most 97 * 638 terms, so every slice is one batch

    def test_reports_do_not_depend_on_the_batches(self, monkeypatch):
        calls = _spy_on_tails(monkeypatch)
        grid = direct_sum_grid("T6", self.WEIGHTS, self.XS, 1e-10)
        ends = list(itertools.accumulate(calls))[:-1]
        assert ends and any(end % self.SLICE for end in ends)  # a slice straddles a batch
        for start in range(0, len(self.XS), self.SLICE):
            calls.clear()
            part = direct_sum_grid("T6", self.WEIGHTS, self.XS[start:start + self.SLICE], 1e-10)
            assert len(calls) == 1
            for column, part_column in zip(grid[:3], part[:3]):
                assert np.array_equal(column[:, start:start + self.SLICE], part_column), start
            assert grid[3][start:start + self.SLICE] == part[3], start

    def test_tails_hold_at_most_one_batch(self, monkeypatch):
        # every head is at least 100 terms, so a batch of at most _CHUNK
        # terms holds at most _CHUNK // 100 points
        calls = _spy_on_tails(monkeypatch)
        direct_sum_grid("T6", self.WEIGHTS, self.XS, 1e-10)
        assert sum(calls) == len(self.XS)
        assert max(calls) <= oracles._CHUNK // 100


class TestGridRefusalOrder:
    # x a fraction t of the interval from its lower end: 1e-6 from an end
    # exceeds the term cap at every weight; the weight-one cosine points
    # 1e-3 from an end exceed tol 1e-10 at m = 1 only
    CASES = [
        ("T2", (1, 2), (0.5, 1e-3, 1 - 1e-6)),
        ("T2", (1, 2), (0.5, 1 - 1e-6, 1e-3)),
        ("T2", (2, 3), (0.3, 1e-3, 0.7, 1e-6)),
        ("T2", (2, 1), (0.3, 1 - 1e-3, 0.7)),
        ("T4", (1, 4), (0.5, 1 - 1e-3, 1e-3, 0.2)),
        ("T6", (5, 1, 2), (1e-3, 0.4, 1 - 1e-6)),
        ("T7", (1,), (1e-3 + 0.0, 0.5, 1 - 1e-3)),
        ("T7", (3, 1), (0.5, 1 - 1e-6, 1e-3)),
        ("T3", (1, 8), (0.25, 1e-6, 0.75)),
        ("T8", (2, 6), (0.9, 1 - 1e-6, 1e-6)),
    ]

    @staticmethod
    def _xs(family, fractions):
        lo, hi = SeriesSpec.from_family(family, 1).interval
        return [lo + t * (hi - lo) for t in fractions]

    @pytest.mark.parametrize("family, weights, fractions", CASES)
    def test_grid_raises_the_first_scalar_refusal(self, family, weights, fractions):
        xs = self._xs(family, fractions)
        want = _first_refusal(
            lambda spec=SeriesSpec.from_family(family, m), x=x: _ref_direct_sum(spec, x, 1e-10)
            for m in weights
            for x in xs
        )
        with pytest.raises(ConvergenceError) as got:
            direct_sum_grid(family, weights, xs, 1e-10)
        _same_refusal(got.value, want)

    @pytest.mark.parametrize("family, weights, fractions", CASES)
    def test_make_records_raises_the_first_refusal(self, family, weights, fractions):
        xs = self._xs(family, fractions)

        def record(spec, x):  # the oracle runs at its default tol, 1e-10
            closed_form_eval(spec, x)
            _ref_direct_sum(spec, x, 1e-10)

        want = _first_refusal(
            lambda spec=SeriesSpec.from_family(family, m), x=x: record(spec, x)
            for m in weights
            for x in xs
        )
        with pytest.raises(ConvergenceError) as got:
            make_records(family, list(weights), xs)
        _same_refusal(got.value, want)

    # failing points in different batches: heads of 31,831 (1e-3 from an
    # end) and 106,103 terms (3e-4 from an end) fail tol at m = 1 only, a
    # point 1e-6 from an end fails the term cap at every weight and is in
    # no batch
    CROSS_BATCH = [
        ("T2", (2, 1), (1e-3, 3e-4, 0.5, 1 - 1e-6)),
        ("T4", (3, 1), (3e-4, 0.5, 1 - 3e-4)),
        ("T6", (2, 1), (3e-4, 0.5, 1e-3, 1 - 1e-6, 0.7)),
        ("T7", (1,), (0.5, 1 - 3e-4, 3e-4)),
    ]

    @pytest.mark.parametrize("family, weights, fractions", CROSS_BATCH)
    def test_refusal_order_spans_the_batches(self, family, weights, fractions, monkeypatch):
        monkeypatch.setitem(globals(), "_REF_CHUNK", oracles._CHUNK)  # heads beyond 2^16
        xs = self._xs(family, fractions)
        want = _first_refusal(
            lambda spec=SeriesSpec.from_family(family, m), x=x: _ref_direct_sum(spec, x, 1e-10)
            for m in weights
            for x in xs
        )
        calls = _spy_on_tails(monkeypatch)
        with pytest.raises(ConvergenceError) as got:
            direct_sum_grid(family, weights, xs, 1e-10)
        assert len(calls) >= 2
        _same_refusal(got.value, want)

    # (weight row, point) -> the tail's error estimate there; lanes count
    # in weight-major, x-minor order, so (0, 4) comes before (1, 1)
    GUARDED = [
        ({(1, 3): math.nan, (2, 0): 0.0}, DomainError),
        ({(2, 0): 0.0, (2, 4): math.nan}, DomainError),
        ({(1, 3): math.nan, (1, 1): 1.0}, ConvergenceError),
        ({(0, 4): 0.0, (1, 1): 1.0}, DomainError),
    ]

    @pytest.mark.parametrize("lanes, error", GUARDED)
    def test_estimate_guard_in_weight_major_order(self, lanes, error, monkeypatch):
        # an estimate that is not finite and positive (NaN, or 0 where the
        # rounding terms are switched off) fails at its place in the order,
        # as one above tol does, whichever error the grid meets first
        xs = grid_points("T2", 5)
        values = direct_sum_grid("T2", (1, 2, 3), xs, 1e-10)[0]
        tails = oracles._tails

        def spoiled(a, b, alphas, xs, plans, sine):
            tail, err, used = tails(a, b, alphas, xs, plans, sine)
            for lane, estimate in lanes.items():
                err[lane] = estimate
            return tail, err, used

        monkeypatch.setattr(oracles, "_tails", spoiled)
        monkeypatch.setattr(oracles, "_EPS", 0.0)  # heads and totals add no rounding
        with pytest.raises(error) as got:
            direct_sum_grid("T2", (1, 2, 3), xs, 1e-10)
        if error is DomainError:
            assert str(got.value) == "error_estimate must be finite and positive"
        else:
            assert str(got.value) == "direct summation reached error estimate 1.000e+00 > tol 1.000e-10"
            assert got.value.best_value == values[1, 1].item()

    def test_refused_point_keeps_the_sign_of_the_series(self):
        # a sine series is odd in x, and so is the best value it refuses
        spec = SeriesSpec.from_family("T7", 1)
        x = -1.5676547341413067  # 1e-3 of the interval from its lower end
        with pytest.raises(ConvergenceError) as got:
            direct_sum(spec, x, 1e-10)
        with pytest.raises(ConvergenceError) as mirror:
            direct_sum(spec, -x, 1e-10)
        assert got.value.best_value == pytest.approx(-3.2280858755777664, rel=1e-12)
        assert got.value.best_value == -mirror.value.best_value

    def test_answered_rows_before_a_refusal_match(self):
        # a grid whose refusals all lie in weights it does not ask for
        xs = self._xs("T2", (0.3, 1e-3, 0.7))
        values, _, terms, _ = direct_sum_grid("T2", (2, 3), xs, 1e-10)
        for m, *rows in zip((2, 3), values.tolist(), terms.tolist()):
            for x, value, terms_used in zip(xs, *rows):
                want = _ref_direct_sum(SeriesSpec.from_family("T2", m), x, 1e-10)
                assert (value, terms_used) == (want.value, want.terms_used)


def _slip_fold(monkeypatch, kind):
    """Negate the brackets' parity sign at x < 0 for the ``kind`` families.

    Every ``trigzeta`` module attribute bound to ``closedforms._fold`` is
    rebound, as the benchmark tracer rebinds what it wraps, since callers
    hold the name they imported.
    """
    original = closedforms._fold

    def slipped(spec, x):
        sign, t = original(spec, x)
        return (-sign if x < 0.0 and spec.kind == kind else sign), t

    for name, module in list(sys.modules.items()):
        if name.startswith("trigzeta") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, slipped)


class TestSignedSum:
    """The oracle sums each series at the signed x and shares no fold."""

    @pytest.mark.parametrize("kind, families", [("cos", ("T4", "T8")), ("sin", ("T3", "T7"))])
    def test_compare_catches_a_fold_slip(self, kind, families, monkeypatch):
        from trigzeta.cli import main

        argv = ["compare", "--m", "2", "--grid", "33", "--family"]
        for family in families:
            assert main(argv + [family]) == 0
        _slip_fold(monkeypatch, kind)
        for family in families:
            assert main(argv + [family]) == 4, family

    @pytest.mark.parametrize("kind, failing", [
        ("cos", ["table2.T4.literal", "table2.T8.deviation-covered"]),
        ("sin", ["table2.T3.literal", "table2.T7.literal"]),
    ])
    def test_table2_catches_a_fold_slip(self, kind, failing, capsys, monkeypatch):
        # limit_series_eval takes the sign of x itself, so a slipped fold
        # moves the brackets alone: the rows whose grids hold x < 0 fail,
        # and the report still serialises, with a Python bool
        from trigzeta.cli import main

        _slip_fold(monkeypatch, kind)
        assert main(["verify", "--suite", "table2", "--format", "json"]) == 4
        head, _, body = capsys.readouterr().out.partition("\n")
        assert [c["check"] for c in json.loads(body) if not c["passed"]] == failing
        report = json.loads(head.removeprefix("TABLE2-DEVIATION-REPORT "))
        [row] = report["deviations"]
        assert row["theorem_evaluator_passes"] is (kind == "sin")

    def test_verify_imports_no_fold(self):
        tree = ast.parse(Path(verify.__file__).read_text())
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names]
        assert "_fold" not in names and "_EPS" not in names

    @pytest.mark.parametrize("family", ["T3", "T4", "T7", "T8"])
    def test_value_at_minus_x_is_the_parity_image(self, family):
        # bit for bit: minus the value at x for a sine family, the value at
        # x for a cosine family; estimates, terms and methods equal
        lo, hi = SeriesSpec.from_family(family, 1).interval
        rng = np.random.default_rng(36)
        xs = grid_points(family, 33) + grid_points(family, 129)
        xs += (lo + (0.05 + 0.9 * rng.random(200)) * (hi - lo)).tolist()
        plus = direct_sum_grid(family, WEIGHTS, xs, 1e-6)
        minus = direct_sum_grid(family, WEIGHTS, [-x for x in xs], 1e-6)
        parity = -1.0 if SeriesSpec.from_family(family, 1).kind == "sin" else 1.0
        assert np.array_equal(minus[0], parity * plus[0])
        for got, want in zip(minus[1:], plus[1:]):
            assert np.array_equal(got, want)

    def test_oracles_import_only_the_catalogue(self):
        tree = ast.parse(Path(oracles.__file__).read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                if (node.module or "").split(".")[-1] == "closedforms":
                    imported += names
                assert "closedforms" not in names
            elif isinstance(node, ast.Import):
                assert all("closedforms" not in alias.name for alias in node.names)
        assert imported == ["SeriesSpec"]


def _ref_choi_srivastava(n, a, t):
    """Both sides of the Choi-Srivastava identity at one point, term by term."""
    lhs_parts = []
    for k in range(2, 401):
        term = hurwitz_zeta(float(k), a) * t ** (n + k) / pochhammer(float(k), n + 1)
        lhs_parts.append(term)
        if abs(term) < 1e-19 and k > 8:
            break
    h_n = harmonic(n)
    inner = hurwitz_zeta_sderiv(-float(n), a - t) - hurwitz_zeta_sderiv(-float(n), a)
    for k in range(1, n + 1):
        s = float(k - n)
        piece = hurwitz_zeta(s, a) * (h_n - harmonic(n - k)) - hurwitz_zeta_sderiv(s, a)
        inner += (-t) ** k * math.comb(n, k) * piece
    rhs = (-1.0) ** n / math.factorial(n) * inner
    rhs += (h_n + digamma(a)) * t ** (n + 1) / math.factorial(n + 1)
    return math.fsum(lhs_parts), rhs


class TestChoiSrivastava:
    def test_closed_value_example(self):
        # n=0, a=1, t=1/2: both sides equal (1/2) ln pi - gamma/2
        lhs, rhs = (side[0, 0] for side in choi_srivastava_grid([0], 1.0, [0.5]))
        want = 0.5 * math.log(math.pi) - 0.5 * EULER_GAMMA
        assert lhs == pytest.approx(want, abs=1e-9)
        assert rhs == pytest.approx(want, abs=1e-12)

    def test_t_zero_trivial(self):
        lhs, rhs = (side[0, 0] for side in choi_srivastava_grid([0], 1.0, [0.0]))
        assert lhs == 0.0
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_grid_gap(self):
        for a in (1.0, 0.25, 0.75):
            lhs, rhs = choi_srivastava_grid(range(5), a, (0.05, -0.05, 0.2 * a, -0.2 * a))
            assert lhs.shape == rhs.shape == (5, 4)
            assert np.abs(lhs - rhs).max() <= 1e-14, a

    def test_suite_gaps_from_n2(self):
        # from n = 2 the right side reads zeta(0, a) and zeta(-1, a), which
        # the Bernoulli rows give to within a quarter of an eps
        gaps = {name: float(detail.split()[1])
                for name, _, detail in _suite_choi_srivastava()
                if not name.startswith(("choi.n0.", "choi.n1."))}
        assert len(gaps) == 36
        assert max(gaps.values()) <= 1e-16, gaps

    @pytest.mark.parametrize("a", [1.0, 0.25, 0.75, 2.0])
    def test_grid_equals_scalar(self, a):
        # every entry, bit for bit, is the per-point loop and the 1 x 1 grid
        ns = range(2) if a == 2.0 else range(9)
        ts = [0.0, 0.04, -0.04, 0.2 * a, -0.2 * a, 0.5 * a]
        lhs, rhs = choi_srivastava_grid(ns, a, ts)
        for n, lhs_row, rhs_row in zip(ns, lhs.tolist(), rhs.tolist()):
            for t, got in zip(ts, zip(lhs_row, rhs_row)):
                one = tuple(side.item() for side in choi_srivastava_grid([n], a, [t]))
                assert got == one == _ref_choi_srivastava(n, a, t), (n, a, t)

    @pytest.mark.parametrize("ns, a, ts", [
        ([-1], 1.0, [0.1]),
        ([9], 1.0, [0.1]),
        ([0, 9], 1.0, [0.1]),
        ([1], -1.0, [0.1]),
        ([1], 0.0, [0.0]),
        ([1], 1.0, [1.0]),
        ([1], 1.0, [0.1, -1.5]),
        # n >= 2 needs zeta'(-n, .) on the Taylor domain, a and a - t < 5/2
        ([5], 3.0, [0.1]),
        (range(9), 3.0, [0.1, -0.1]),
        (range(9), 2.6, [0.2, -0.1]),
        (range(9), 2.45, [0.1, -0.1]),
        ([2.5], 1.0, [0.1]),
        ([1], math.nan, [0.1]),
        ([1], math.inf, [0.1]),
    ])
    def test_grid_domain(self, ns, a, ts, monkeypatch):
        # the whole domain is checked before the first kernel call
        calls = []

        def spy(kernel):
            return lambda s, x: calls.append((kernel.__name__, s, x)) or kernel(s, x)

        monkeypatch.setattr(verify, "hurwitz_zeta", spy(hurwitz_zeta))
        monkeypatch.setattr(verify, "hurwitz_zeta_sderiv", spy(hurwitz_zeta_sderiv))
        with pytest.raises(DomainError):
            choi_srivastava_grid(ns, a, ts)
        assert calls == []

    def test_suite_computes_each_zeta_once(self, monkeypatch):
        # one verify pass asks for each zeta(s, a) once, and caches nothing
        # between passes
        calls = []

        def counted(s, a):
            calls.append((s, a))
            return hurwitz_zeta(s, a)

        monkeypatch.setattr(verify, "hurwitz_zeta", counted)
        first = _suite_choi_srivastava()
        count = len(calls)
        assert count == len(set(calls)) > 0
        assert {a for _, a in calls} == {1.0, 0.25, 0.75}
        assert _suite_choi_srivastava() == first
        assert len(calls) == 2 * count

    def test_domain(self):
        for n, a, t in [(-1, 1.0, 0.1), (9, 1.0, 0.1), (1, 1.0, 1.0), (1, -1.0, 0.1),
                        (1, 1.0, math.nan),
                        # n >= 2 needs zeta'(-n, .) on the Taylor domain, a and a - t < 5/2
                        (5, 3.0, 0.1), (2, 2.4, -0.2),
                        # zeta(k, 0.1) overflows a float from about k = 308 on,
                        # before the lhs series is cut at |t| = 0.09
                        (0, 0.1, 0.09)]:
            with pytest.raises(DomainError):
                choi_srivastava_grid([n], a, [t])
        # n <= 1 takes no Taylor value at a, so a and a - t may pass 5/2
        ts = [0.1, -0.1]
        lhs, rhs = choi_srivastava_grid([0, 1], 3.0, ts)
        for n, j in itertools.product(range(2), range(2)):
            assert (lhs[n, j].item(), rhs[n, j].item()) == _ref_choi_srivastava(n, 3.0, ts[j])


FAMILIES = [f"T{i}" for i in range(1, 9)]
PAIRS = [(family, m) for family in FAMILIES for m in range(1, 9)]
# radius of convergence in x of each family's power series: zeta, eta,
# lambda and beta rows
LIMIT_RADIUS = {
    "T1": 2.0 * math.pi, "T2": 2.0 * math.pi, "T3": math.pi, "T4": math.pi,
    "T5": math.pi, "T6": math.pi, "T7": 0.5 * math.pi, "T8": 0.5 * math.pi,
}
# the far end E of each interval, as a multiple of pi, and the family whose
# series at y = E - |x| equals +-1 times the family's series at x
LIMIT_FAR_END = {
    "T1": (2.0, "T1"), "T2": (2.0, "T2"), "T3": (1.0, "T1"), "T4": (1.0, "T2"),
    "T5": (1.0, "T5"), "T6": (1.0, "T6"), "T7": (0.5, "T6"), "T8": (0.5, "T5"),
}


class TestLimitSeries:
    @pytest.mark.parametrize("family, m", PAIRS)
    def test_matches_reference_and_closed_form(self, family, m):
        # 30-digit mpmath values on the 9-point grid plus points 1e-6 and
        # 1e-3 of the interval from each end; no point is refused
        entry = TEST_REFERENCE[family]
        assert set(grid_points(family, 9)) <= set(entry["x"])
        spec = SeriesSpec.from_family(family, m)
        for x, ref in zip(entry["x"], entry[str(m)]):
            got = limit_series_eval(spec, x)
            closed = closed_form_eval(spec, x).value
            assert abs(got - ref) <= 1e-13 * (1.0 + abs(ref)), (x, got, ref)
            assert abs(got - closed) <= 1e-13 * (1.0 + abs(ref)), (x, got, closed)

    @pytest.mark.parametrize("family, m", PAIRS)
    def test_answers_within_half_radius(self, family, m):
        # every point of the interval lies within half the radius of the
        # expansion at 0 or of the one at the far end, so the whole interval
        # is scanned: 199 even points plus points 1e-6 and 1e-3 of the
        # interval from each end
        spec = SeriesSpec.from_family(family, m)
        lo, hi = spec.interval
        end, target = LIMIT_FAR_END[family]
        fractions = [i / 200 for i in range(1, 200)] + [1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6]
        for x in (lo + t * (hi - lo) for t in fractions):
            near = abs(x) / LIMIT_RADIUS[family]
            far = (end * math.pi - abs(x)) / LIMIT_RADIUS[target]
            assert min(near, far) <= 0.5, x
            got = limit_series_eval(spec, x)
            closed = closed_form_eval(spec, x).value
            assert abs(got - closed) <= 1e-13 * (1.0 + abs(closed)), (x, got, closed)

    @pytest.mark.parametrize("family, m", PAIRS)
    def test_parity(self, family, m):
        # sine families odd in x, cosine families even; the intervals of the
        # zeta and lambda rows hold no negative x
        spec = SeriesSpec.from_family(family, m)
        lo, hi = spec.interval
        if lo == 0.0:
            with pytest.raises(DomainError):
                limit_series_eval(spec, -0.5)
            return
        parity = -1.0 if spec.kind == "sin" else 1.0
        for t in (0.05, 0.3, 0.5):
            assert limit_series_eval(spec, -t * hi) == parity * limit_series_eval(spec, t * hi)
        at_zero = limit_series_eval(spec, 0.0)
        if spec.kind == "sin":
            assert at_zero == 0.0
        else:
            assert at_zero == pytest.approx(closed_form_eval(spec, 0.0).value, rel=1e-13)

    @pytest.mark.parametrize("family, m", PAIRS)
    def test_domain(self, family, m):
        spec = SeriesSpec.from_family(family, m)
        lo, hi = spec.interval
        for bad in (lo, hi, lo - 0.1, hi + 0.1, math.nan):
            with pytest.raises(DomainError):
                limit_series_eval(spec, bad)

    def test_exact_coefficients_round_as_fractions(self):
        # every coefficient at order <= 0, rebuilt from Fractions: F(-j) is
        # zeta(-j) = (-1)^j B_{j+1}/(j+1) times 1 - 2^(j+1) (eta) or
        # 1 - 2^j (lambda), or E_j/2 (beta)
        euler = [Fraction(1)]
        for n in range(1, len(BERNOULLI)):
            euler.append(0 if n % 2 else -sum(math.comb(n, i) * euler[i] for i in range(0, n, 2)))

        def exact(sign, a, j):
            zeta = (-1) ** j * Fraction(*BERNOULLI[j + 1]) / (j + 1)
            rows = {(1, 1): zeta, (-1, 1): (1 - 2 ** (j + 1)) * zeta,
                    (1, 2): (1 - 2**j) * zeta, (-1, 2): euler[j] / 2}
            return rows[sign, a]

        checked = 0
        for family, m in PAIRS:
            spec = SeriesSpec.from_family(family, m)
            coeffs, delta = verify._limit_table(family, m)[:2]
            for k, coeff in enumerate(reversed(coeffs)):
                order = spec.alpha - 2 * k - delta
                if order <= 0:
                    want = float((-1) ** k * exact(spec.sign, spec.a, -order)
                                 / math.factorial(2 * k + delta))
                    assert (coeff, math.copysign(1.0, coeff)) == (want, math.copysign(1.0, want))
                    checked += 1
        assert checked == 64 * 32  # F(0), F(-1), ..., F(-63) at every (family, m), one parity

    def test_catalan_anchor(self):
        # [DERIVED] sum sin((2n-1) pi/2)/(2n-1)^2 = Catalan's constant
        got = limit_series_eval(SeriesSpec.from_family("T5", 1), math.pi / 2.0)
        assert got == pytest.approx(CATALAN, abs=1e-15)



def same_float(got, want):
    """got == want, with the sign of a zero."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def limit_points(family):
    """The 9- and 33-point grids, the reference xs, points 1e-9 of the
    interval from each end, and x = 0, -0.0 and negative x where the
    interval holds them."""
    lo, hi = SeriesSpec.from_family(family, 1).interval
    xs = grid_points(family, 9) + grid_points(family, 33) + TEST_REFERENCE[family]["x"]
    xs += [lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo)]
    if lo < 0.0:
        xs += [0.0, -0.0, -5e-324, -1e-300, -1.0]
    return xs


class TestLimitGrid:
    WEIGHTS = range(1, 9)

    def test_equals_scalar_calls(self):
        # all 64 (family, m) pairs in one call, bit for bit
        points = [(family, limit_points(family)) for family in FAMILIES]
        grids = verify._limit_grid(points, self.WEIGHTS)
        assert len(grids) == len(points)
        for (family, xs), grid in zip(points, grids):
            assert grid.shape == (len(self.WEIGHTS), len(xs))
            for m, row in zip(self.WEIGHTS, grid.tolist()):
                spec = SeriesSpec.from_family(family, m)
                for x, got in zip(xs, row):
                    assert same_float(got, limit_series_eval(spec, x)), (family, m, x)

    def test_bad_input_raises_the_scalar_message(self):
        for family in FAMILIES:
            lo, hi = SeriesSpec.from_family(family, 1).interval
            for bad in (lo, hi, hi + 0.1, math.nan):
                with pytest.raises(DomainError) as want:
                    limit_series_eval(SeriesSpec.from_family(family, 2), bad)
                with pytest.raises(DomainError) as got:
                    verify._limit_grid([(family, [0.5 * (lo + hi), bad])], self.WEIGHTS)
                assert str(got.value) == str(want.value)
        with pytest.raises(DomainError):
            verify._limit_grid([("T1", [1.0])], [9])

    def test_first_refusing_lane_raises_its_error(self, monkeypatch):
        # T1's m = 3 table cut to its last 4 coefficients refuses T1 at
        # m = 3 and T3 (whose far end reads T1) near +-pi; the grid raises
        # the scalar error of the first refusing lane in (family, m, x)
        # order, T3 listed first
        table = verify._limit_table

        def cut(family, m):
            entry = table(family, m)
            return (entry[0][-4:], *entry[1:]) if (family, m) == ("T1", 3) else entry

        monkeypatch.setattr(verify, "_limit_table", cut)
        fresh = functools.cache(verify._limit_stack.__wrapped__)  # built from the cut table
        monkeypatch.setattr(verify, "_limit_stack", fresh)
        points = [(family, limit_points(family)) for family in ("T2", "T3", "T1")]
        want = None
        for family, xs in points:
            for m in self.WEIGHTS:
                for x in xs:
                    try:
                        limit_series_eval(SeriesSpec.from_family(family, m), x)
                    except ConvergenceError as exc:
                        want = want or (family, m, x, exc)
        assert want is not None and want[:2] == ("T3", 3), want
        with pytest.raises(ConvergenceError) as got:
            verify._limit_grid(points, self.WEIGHTS)
        assert str(got.value) == str(want[3])
        assert same_float(got.value.best_value, want[3].best_value)


class TestLimitProbes:
    def test_probe_values(self):
        lam = lambda_probe_orders()[1]
        eta_val = 0.5 * (eta(1.0 - 1e-6) + eta(1.0 + 1e-6))
        assert lam == pytest.approx(0.5, abs=1e-6)
        assert eta_val == pytest.approx(math.log(2.0), abs=1e-8)

    def test_richardson_consistency(self):
        o1, o2 = lambda_probe_orders()
        assert abs(o1 - o2) < 1e-7
