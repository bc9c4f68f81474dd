"""Tests for the eight closed-form evaluators and the master formula."""

import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trigzeta import closedforms
from trigzeta.cli import grid_points, make_records
from trigzeta.closedforms import (
    SeriesSpec,
    TABLE2_ROWS,
    closed_form_eval,
    closed_form_grid,
    general_closed_form,
)
from trigzeta.dirichlet import beta_fn, eta
from trigzeta.errors import DomainError
from trigzeta.hurwitz import hurwitz_zeta_sderiv
from trigzeta.oracles import direct_sum_grid
from trigzeta.verify import _limit_grid

CATALAN = 0.915965594177219  # 15-digit reference, cross-checked by the
                             # direct-sum oracle in test_oracles

FAMILIES = [f"T{i}" for i in range(1, 9)]

# [DERIVED] frozen outputs of the independent direct-sum oracle
# (tol 1e-12; method and error estimate recorded at freeze time)
ORACLE_FROZEN = [
    ("T1", 2, 1.0, 0.8958052386793802),  # direct, est 2.0e-14
    ("T1", 3, 4.0, -0.7421079079137327),  # direct, est 1.4e-14
    ("T2", 2, 2.0, -0.4679714720849709),  # direct, est 1.6e-14
    ("T3", 1, 1.5, 0.8902054880584414),  # euler_accelerated, est 2.3e-14
    ("T3", 2, -2.0, -0.9491506646638717),  # euler_accelerated, est 2.0e-14
    ("T4", 2, 2.5, -0.801393368865802),  # euler_accelerated, est 4.4e-14
    ("T5", 1, 0.7, 0.7125900830620403),  # direct, est 1.7e-14
    ("T5", 2, 2.0, 0.9052882907991581),  # direct, est 1.6e-14
    ("T6", 2, 1.2, 0.3353585863954317),  # direct, est 1.1e-14
    ("T7", 1, 0.9, 0.5269615568705426),  # euler_accelerated, est 1.8e-14
    ("T7", 2, -1.2, -0.9423807163827983),  # euler_accelerated, est 1.9e-14
    ("T8", 1, 1.0, 0.6406374955786956),  # euler_accelerated, est 1.8e-14
    ("T8", 3, 0.5, 0.8774415804950895),  # euler_accelerated, est 1.6e-14
]


class TestSeriesSpec:
    def test_family_round_trip(self):
        for fam in FAMILIES:
            spec = SeriesSpec.from_family(fam, 2)
            assert spec.family == fam

    def test_alpha_parity(self):
        assert SeriesSpec.from_family("T1", 2).alpha == 4
        assert SeriesSpec.from_family("T2", 2).alpha == 3
        assert SeriesSpec.from_family("T7", 2).alpha == 3
        assert SeriesSpec.from_family("T8", 2).alpha == 4

    def test_intervals(self):
        assert SeriesSpec.from_family("T1", 1).interval == (0.0, 2.0 * math.pi)
        assert SeriesSpec.from_family("T3", 1).interval == (-math.pi, math.pi)
        assert SeriesSpec.from_family("T5", 1).interval == (0.0, math.pi)
        assert SeriesSpec.from_family("T7", 1).interval == (
            -math.pi / 2.0, math.pi / 2.0)

    def test_weight_bounds(self):
        with pytest.raises(DomainError):
            SeriesSpec.from_family("T1", 0)
        with pytest.raises(DomainError):
            SeriesSpec.from_family("T1", closedforms._MAX_WEIGHT + 1)
        with pytest.raises(DomainError):
            SeriesSpec.from_family("T1", 1.5)
        with pytest.raises(DomainError):
            SeriesSpec.from_family("T9", 1)


class TestClosedFormValues:
    def test_matches_frozen_oracle(self):
        for fam, m, x, want in ORACLE_FROZEN:
            got = closed_form_eval(SeriesSpec.from_family(fam, m), x).value
            assert got == pytest.approx(want, abs=1e-9), (fam, m, x)

    def test_clausen_log_identity(self):
        # [PAPER] T2 m=1: sum cos(nx)/n = -ln(2 sin(x/2))
        for x in (0.4, 1.0, 1.9, 2.7, 3.9):
            got = closed_form_eval(SeriesSpec.from_family("T2", 1), x).value
            assert got == pytest.approx(-math.log(2.0 * math.sin(0.5 * x)), abs=1e-12)

    def test_alternating_log_identity(self):
        # [PAPER] T4 m=1: sum (-1)^(n+1) cos(nx)/n = ln(2 cos(x/2))
        for x in (-2.5, -1.0, 0.3, 1.4, 2.8):
            got = closed_form_eval(SeriesSpec.from_family("T4", 1), x).value
            assert got == pytest.approx(math.log(2.0 * math.cos(0.5 * x)), abs=1e-12)

    def test_catalan_anchors(self):
        # [DERIVED] Catalan reference digits; three independent families
        assert closed_form_eval(
            SeriesSpec.from_family("T1", 1), math.pi / 2.0).value == pytest.approx(
            CATALAN, abs=1e-10)
        assert closed_form_eval(
            SeriesSpec.from_family("T5", 1), math.pi / 2.0).value == pytest.approx(
            CATALAN, abs=1e-10)
        assert closed_form_eval(
            SeriesSpec.from_family("T8", 1), 0.0).value == pytest.approx(
            CATALAN, abs=1e-10)

    def test_symmetric_families_at_zero(self):
        # [TRIVIAL] sin families vanish; alternating cos families hit
        # eta/beta values
        assert closed_form_eval(SeriesSpec.from_family("T3", 2), 0.0).value == 0.0
        assert closed_form_eval(SeriesSpec.from_family("T7", 2), 0.0).value == 0.0
        # the zeta'-bracket route carries ~1e-11 derivative errors scaled
        # by prefactors of ~20-30, so these identities hold to ~1e-9
        got4 = closed_form_eval(SeriesSpec.from_family("T4", 2), 0.0).value
        assert got4 == pytest.approx(eta(3.0), abs=1e-9)
        got8 = closed_form_eval(SeriesSpec.from_family("T8", 2), 0.0).value
        assert got8 == pytest.approx(beta_fn(4.0), abs=1e-9)

    def test_subnormal_offsets_take_the_rule_at_zero(self):
        # where x/2pi is subnormal the offsets round to 0 or to one another;
        # every route agrees with the series there
        xs = [sign * x for x in (5e-324, 2e-323, 1e-310) for sign in (1.0, -1.0)]
        for family in ("T3", "T4", "T7", "T8"):
            grid = closed_form_grid(family, (1, 2), xs)
            oracle = direct_sum_grid(family, (1, 2), xs)[0]
            limits, = _limit_grid([(family, xs)], (1, 2))
            for w, m in enumerate((1, 2)):
                spec = SeriesSpec.from_family(family, m)
                for j, x in enumerate(xs):
                    want = limits[w, j]
                    for got in (closed_form_eval(spec, x).value, grid[w, j], oracle[w, j]):
                        assert abs(got - want) <= 1e-15 * (1.0 + abs(want)), (family, m, x)
        for x in xs:
            got = closed_form_eval(SeriesSpec.from_family("T4", 1), x).value
            assert abs(got - math.log(2.0)) <= math.ulp(1.0), x

    def test_t4_at_zero_m1(self):
        res = closed_form_eval(SeriesSpec.from_family("T4", 1), 0.0)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-14)
        rebuilt = res.prefactor * math.fsum(
            c * hurwitz_zeta_sderiv(s, a) for c, s, a in res.terms
        )
        assert rebuilt == pytest.approx(res.value, abs=1e-14)


class TestAccuracyAgainstOracle:
    # About 10x the worst |closed - oracle| / (1 + |oracle|) measured per
    # weight on the 9-point grids (2.3e-14, 1.1e-15, 1.4e-15, 1.0e-15,
    # 5.6e-16, 5.8e-16, 6.0e-16, 1.3e-15); at m = 1 the oracle's own error
    # dominates.  A wrong bracket or prefactor is off by O(1).
    BOUNDS = {1: 2.5e-13, 2: 1.2e-14, 3: 1.5e-14, 4: 1e-14,
              5: 6e-15, 6: 6e-15, 7: 6e-15, 8: 1.5e-14}

    @pytest.mark.parametrize("m", range(1, 9))
    def test_all_families_on_grid(self, m):
        for fam in FAMILIES:
            spec = SeriesSpec.from_family(fam, m)
            xs = grid_points(fam, 9)
            for x, oracle in zip(xs, direct_sum_grid(fam, [m], xs, 1e-10)[0][0].tolist()):
                closed = closed_form_eval(spec, x).value
                rel = abs(closed - oracle) / (1.0 + abs(oracle))
                assert rel <= self.BOUNDS[m], (fam, m, x, rel)


REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())


class TestAccuracyAgainstReference:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_weights_to_the_interval_ends(self, family):
        # 30-digit mpmath values from tests/make_reference.py: the 9-point
        # grid plus points 1e-6 and 1e-3 of the interval from each end
        entry = REFERENCE["closed_form"][family]
        for m in range(1, 9):
            spec = SeriesSpec.from_family(family, m)
            for x, ref in zip(entry["x"], entry[str(m)]):
                got = closed_form_eval(spec, x).value
                rel = abs(got - ref) / (1.0 + abs(ref))
                assert rel <= 1e-13, (family, m, x, rel)


def same_float(got, want):
    """Equal, with the same sign of zero."""
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def fixture_xs(family):
    """Every x of both frozen fixtures for ``family``."""
    grids = json.loads(
        (Path(__file__).parent.parent / "benchmarks" / "reference.json").read_text()
    )["grids"]
    xs = list(REFERENCE["closed_form"][family]["x"])
    for key in sorted(grids):
        if key.split("/")[0] == family:
            xs += grids[key]["x"]
    return xs


class TestClosedFormGrid:
    WEIGHTS = (3, 1, 8, 2, 7, 4, 6, 5)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_scalar_evaluator(self, family):
        lo, hi = SeriesSpec.from_family(family, 1).interval
        xs = grid_points(family, 9) + grid_points(family, 31) + grid_points(family, 35)
        if lo < 0.0:  # odd counts hit x = 0 on the symmetric intervals
            assert 0.0 in xs
            xs += [-x for x in xs if x > 0.0]
        xs += fixture_xs(family)
        xs += [lo + t * (hi - lo) for t in (1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6)]
        grid = closed_form_grid(family, self.WEIGHTS, xs)
        assert grid.shape == (len(self.WEIGHTS), len(xs))
        for m, row in zip(self.WEIGHTS, grid.tolist()):
            spec = SeriesSpec.from_family(family, m)
            for x, got in zip(xs, row):
                assert same_float(got, closed_form_eval(spec, x).value), (family, m, x)

    def test_make_records_takes_the_grid_values(self):
        for family in FAMILIES:
            xs = grid_points(family, 9)
            records = make_records(family, list(self.WEIGHTS), xs)[0]
            want = [
                closed_form_eval(SeriesSpec.from_family(family, m), x).value
                for m in self.WEIGHTS
                for x in xs
            ]
            assert records["closed_form"] == want

    def test_empty_grid(self):
        assert closed_form_grid("T1", (1, 2), []).shape == (2, 0)
        assert closed_form_grid("T1", (), [1.0]).shape == (0, 1)

    def test_bad_input_raises_the_scalar_message(self):
        for family in FAMILIES:
            lo, hi = SeriesSpec.from_family(family, 1).interval
            for bad in (lo, hi, lo - 0.1, hi + 0.1):
                with pytest.raises(DomainError) as want:
                    closed_form_eval(SeriesSpec.from_family(family, 2), bad)
                xs = [0.5 * (lo + hi), bad]
                with pytest.raises(DomainError) as got:
                    closed_form_grid(family, (1, 2), xs)
                assert str(got.value) == str(want.value)
                with pytest.raises(DomainError) as got:
                    make_records(family, [1, 2], xs)
                assert str(got.value) == str(want.value)
        for family, weights in (
            ("T9", (1,)), ("T1", (closedforms._MAX_WEIGHT + 1,)), ("T1", (1, 0))
        ):
            with pytest.raises(DomainError):
                closed_form_grid(family, weights, [1.0])


class TestBracketGridTables:
    WEIGHTS = range(1, 9)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_equals_one_table_calls(self, family):
        # the literal table through the grid is general_closed_form, bit for
        # bit, x = 0 of T3, T4, T7 and T8 included
        xs = grid_points(family, 9) + REFERENCE["closed_form"][family]["x"]
        grid, = closedforms._bracket_grid([(closedforms._LITERAL_CONSTANTS, family, xs)],
                                          self.WEIGHTS)
        assert grid.shape == (len(self.WEIGHTS), len(xs))
        for m, row in zip(self.WEIGHTS, grid.tolist()):
            for x, got in zip(xs, row):
                assert same_float(got, general_closed_form(family, m, x)), (family, m, x)


    def test_one_call_equals_one_reading_calls(self, monkeypatch):
        # every family in both tables, on grids that differ by reading and
        # hold x = 0 (T3, T4, T7, T8), -0.0 and negative x: the merged call
        # makes one kernel pass per zeta' order set, 0, 2, .., 14 (p = 0)
        # and 1, 3, .., 15 (p = 1), and each value is its one-reading call's
        readings = []
        for family in FAMILIES:
            lo = SeriesSpec.from_family(family, 1).interval[0]
            xs = grid_points(family, 9)
            negative = [-x for x in grid_points(family, 31) if x > 0.0] + [-0.0]
            readings.append((closedforms._BRACKET_CONSTANTS, family,
                             xs + negative if lo < 0.0 else xs))
            readings.append((closedforms._LITERAL_CONSTANTS, family, xs))
        want = [closedforms._bracket_grid([reading], self.WEIGHTS)[0] for reading in readings]
        calls = []
        kernel = closedforms.hurwitz_zeta_sderiv_grid

        def spy(orders, offsets):
            calls.append(sorted(int(n) for n in orders))
            return kernel(orders, offsets)

        monkeypatch.setattr(closedforms, "hurwitz_zeta_sderiv_grid", spy)
        got = closedforms._bracket_grid(readings, self.WEIGHTS)
        assert sorted(calls) == [list(range(0, 16, 2)), list(range(1, 16, 2))]
        assert len(got) == len(readings)
        for (_, family, xs), grid, one in zip(readings, got, want):
            assert grid.shape == one.shape == (len(self.WEIGHTS), len(xs))
            for m, row, one_row in zip(self.WEIGHTS, grid.tolist(), one.tolist()):
                for x, value, one_value in zip(xs, row, one_row):
                    assert same_float(value, one_value), (family, m, x)
        # T8's two tables read the same offsets but differ in j and sign
        corrected, literal = got[-2:]
        assert not (corrected[:, :literal.shape[1]] == literal).all()


def zero_grid(family):
    """A 33-point CLI grid, with 0 and +-5e-324 where the interval holds 0."""
    xs = grid_points(family, 33)
    if SeriesSpec.from_family(family, 1).interval[0] < 0.0:
        xs += [0.0, -0.0, 5e-324, -5e-324]
    return xs


class TestZeroRule:
    T4_NEAR_ZERO = [sign * x for x in (1e-300, 1e-50, 1e-9, 9.9e-9) for sign in (1.0, -1.0)]

    @pytest.mark.parametrize("m", range(1, 9))
    def test_t4_takes_its_zero_value_below_1e_8(self, m):
        # the bracket is up to 156 eps off there at m = 1, as its logarithms
        # cancel, while T4(x) - T4(0) is O(x^2)
        spec = SeriesSpec.from_family("T4", m)
        at_zero = closedforms._at_zero(spec)
        if m == 1:
            assert at_zero.value == math.log(2.0)
        grid = closed_form_grid("T4", (m,), self.T4_NEAR_ZERO)[0].tolist()
        limits = _limit_grid([("T4", self.T4_NEAR_ZERO)], (m,))[0][0].tolist()
        for x, got, want in zip(self.T4_NEAR_ZERO, grid, limits):
            assert closed_form_eval(spec, x) == at_zero, x
            assert same_float(got, at_zero.value), x
            assert abs(at_zero.value - want) <= sys.float_info.epsilon * (1.0 + abs(want)), x

    @pytest.mark.parametrize("family", FAMILIES)
    def test_grid_makes_no_scalar_bracket_call(self, family, monkeypatch):
        calls = []
        bracket_eval = closedforms._bracket_eval

        def spy(*args):
            calls.append(args)
            return bracket_eval(*args)

        monkeypatch.setattr(closedforms, "_bracket_eval", spy)
        tables = (closedforms._BRACKET_CONSTANTS, closedforms._LITERAL_CONSTANTS)
        closedforms._bracket_grid([(constants, family, zero_grid(family)) for constants in tables],
                                  range(1, 9))
        assert calls == []

    @pytest.mark.parametrize("family, most", [("T3", 0), ("T4", 1), ("T7", 0), ("T8", 0)])
    def test_grid_scalar_kernel_calls(self, family, most, monkeypatch):
        # T8's x = 0 joins the kernel grid; T4's x = 0 value takes at most
        # one scalar zeta' per weight, and the sine families none
        calls = []
        sderiv = closedforms.hurwitz_zeta_sderiv

        def spy(s, a):
            calls.append((s, a))
            return sderiv(s, a)

        monkeypatch.setattr(closedforms, "hurwitz_zeta_sderiv", spy)
        closed_form_grid(family, range(1, 9), zero_grid(family))
        assert len(calls) <= most * 8

    def test_rule_covers_the_families_that_reach_zero(self):
        # a family whose interval holds 0 takes the x = 0 rule, unless every
        # offset of its bracket stays positive there in both tables (T8);
        # no other family has an entry
        tables = (closedforms._BRACKET_CONSTANTS, closedforms._LITERAL_CONSTANTS)
        for family in FAMILIES:
            reaches_zero = SeriesSpec.from_family(family, 1).interval[0] < 0.0
            positive = all(
                closedforms._offset(a0, a_y, 0.0) > 0.0
                for constants in tables
                for m in range(1, 9)
                for _, a0, a_y in constants[family, m][2]
            )
            if family in closedforms._ZERO_BELOW:
                assert reaches_zero, family
            else:
                assert positive or not reaches_zero, family


class TestDecompositionContract:
    @given(
        st.sampled_from(FAMILIES),
        st.integers(1, 4),
        st.floats(0.051, 0.949),
    )
    @settings(max_examples=80, deadline=None)
    def test_reconstruction(self, fam, m, t):
        spec = SeriesSpec.from_family(fam, m)
        lo, hi = spec.interval
        x = lo + t * (hi - lo)
        res = closed_form_eval(spec, x)
        rebuilt = res.prefactor * math.fsum(
            c * hurwitz_zeta_sderiv(s, a) for c, s, a in res.terms
        )
        assert abs(rebuilt - res.value) <= 1e-13 * (1.0 + abs(res.value))

    def test_parity(self):
        for fam in ("T3", "T4", "T7", "T8"):
            spec = SeriesSpec.from_family(fam, 2)
            lo, hi = spec.interval
            x = 0.35 * hi
            plus = closed_form_eval(spec, x).value
            minus = closed_form_eval(spec, -x).value
            if spec.kind == "sin":
                assert minus == -plus
            else:
                assert minus == plus

    def test_carried_zeta_values_are_the_kernel_values(self):
        # one zeta' per term, bit for bit, at bracket points and x = 0 rules
        for fam in FAMILIES:
            lo, _ = SeriesSpec.from_family(fam, 1).interval
            xs = grid_points(fam, 9) + ([0.0, -1e-9, 1e-300] if lo < 0.0 else [])
            for m in range(1, 9):
                spec = SeriesSpec.from_family(fam, m)
                for x in xs:
                    res = closed_form_eval(spec, x)
                    want = [hurwitz_zeta_sderiv(s, a).hex() for _, s, a in res.terms]
                    assert [z.hex() for z in res.zeta_sderivs] == want, (fam, m, x)


class TestDomainChecks:
    def test_endpoints_rejected(self):
        for fam in FAMILIES:
            spec = SeriesSpec.from_family(fam, 1)
            lo, hi = spec.interval
            for bad in (lo, hi, lo - 0.1, hi + 0.1):
                with pytest.raises(DomainError):
                    closed_form_eval(spec, bad)

    def test_both_routes_raise_the_catalogue_check(self):
        for fam in FAMILIES:
            spec = SeriesSpec.from_family(fam, 1)
            lo, hi = spec.interval
            for bad in (lo, hi + 0.1):
                with pytest.raises(DomainError, match="outside open interval") as want:
                    spec.check(bad)
                for route in (closed_form_eval, lambda s, x: direct_sum_grid(fam, [1], [x])):
                    with pytest.raises(DomainError) as got:
                        route(spec, bad)
                    assert str(got.value) == str(want.value)

    def test_near_endpoint_margin(self):
        spec = SeriesSpec.from_family("T1", 1)
        with pytest.raises(DomainError):
            closed_form_eval(spec, 1e-12)


class TestMasterFormula:
    def test_rows_cover_all_families(self):
        assert sorted(r.family for r in TABLE2_ROWS) == FAMILIES

    def test_rows_print_the_series_catalogue(self):
        # Table II's kind, sign, a, b and p columns, as printed, against the
        # catalogue the oracles read, written from the series themselves
        assert list(closedforms.SERIES) == FAMILIES
        for row in TABLE2_ROWS:
            series = (row.kind, row.sign, row.a, row.b, row.p)
            assert closedforms.SERIES[row.family] == series, row.family

    def test_bracket_orders_match_the_series_exponents(self):
        # each bracket sits at zeta'(s, .) with s = 1 - alpha, corrected or not
        for family in FAMILIES:
            for m in range(1, 9):
                alpha = SeriesSpec.from_family(family, m).alpha
                for constants in (closedforms._BRACKET_CONSTANTS, closedforms._LITERAL_CONSTANTS):
                    assert alpha == 1 - constants[family, m][1], (family, m)

    def test_literal_rows_match_theorems_except_t8(self):
        for row in TABLE2_ROWS:
            spec1 = SeriesSpec.from_family(row.family, 1)
            lo, hi = spec1.interval
            worst = 0.0
            for m in (1, 2, 3):
                spec = SeriesSpec.from_family(row.family, m)
                for i in range(9):
                    x = lo + (0.05 + 0.9 * i / 8) * (hi - lo)
                    theorem = closed_form_eval(spec, x).value
                    literal = general_closed_form(row.family, m, x)
                    worst = max(worst, abs(literal - theorem) / (1.0 + abs(theorem)))
            if row.family == "T8":
                assert worst > 1e-2  # documented literal-reading deviation
            else:
                assert worst <= 1e-10, (row.family, worst)

    def test_literal_rows_match_reference_to_the_interval_ends(self):
        # rows T1..T7 against the 30-digit values of tests/reference.json,
        # including the points 1e-6 of the interval from the upper end,
        # where one zeta' offset vanishes
        for row in TABLE2_ROWS:
            if row.family == "T8":
                continue
            entry = REFERENCE["closed_form"][row.family]
            for m in range(1, 9):
                for x, ref in zip(entry["x"], entry[str(m)]):
                    literal = general_closed_form(row.family, m, x)
                    rel = abs(literal - ref) / (1.0 + abs(ref))
                    assert rel <= 1e-13, (row.family, m, x, rel)

    def test_literal_rows_t1_to_t7_are_the_evaluator(self):
        # the literal reading goes through closed_form_eval's evaluator, and
        # only T8 carries an erratum
        for family in FAMILIES[:7]:
            xs = REFERENCE["closed_form"][family]["x"] + grid_points(family, 33)
            for m in range(1, 9):
                spec = SeriesSpec.from_family(family, m)
                for x in xs:
                    want = closed_form_eval(spec, x).value
                    assert same_float(general_closed_form(family, m, x), want), (family, m, x)

    def test_unknown_row(self):
        with pytest.raises(DomainError):
            general_closed_form("T9", 1, 0.5)


def reference_bracket(spec, x):
    """Eight-branch bracket, kept as the reference for the data table.

    Each offset a0 + a_y x / 2pi is formed as (a0 2pi + a_y x) / 2pi with
    the low part of 2pi added, so that it keeps its relative accuracy where
    it vanishes at the upper end of the interval.
    """
    two_pi = 2.0 * math.pi
    two_pi_lo = 2.4492935982947064e-16  # 2 pi - two_pi

    def offset(a0, a_y):
        return (a0 * two_pi + a_y * x + a0 * two_pi_lo) / two_pi

    m = spec.m
    fam = spec.family
    y = offset(0.0, 1)
    w = offset(0.0, 2)
    if fam == "T1":
        pref = (-1.0) ** m * two_pi ** (2 * m - 1) / math.factorial(2 * m - 1)
        s = 1.0 - 2 * m
        terms = ((1.0, s, offset(1.0, -1)), (-1.0, s, y))
    elif fam == "T2":
        pref = (-1.0) ** (m - 1) * two_pi ** (2 * m - 2) / math.factorial(2 * m - 2)
        s = 2.0 - 2 * m
        terms = ((1.0, s, offset(1.0, -1)), (1.0, s, y))
    elif fam == "T3":
        pref = (-1.0) ** m * math.pi ** (2 * m - 1) / math.factorial(2 * m - 1)
        s = 1.0 - 2 * m
        g = 2.0 ** (2 * m - 1)
        terms = ((g, s, offset(1.0, -1)), (-g, s, y), (-1.0, s, offset(1.0, -2)), (1.0, s, w))
    elif fam == "T4":
        pref = (-1.0) ** (m - 1) * math.pi ** (2 * m - 2) / math.factorial(2 * m - 2)
        s = 2.0 - 2 * m
        g = 2.0 ** (2 * m - 2)
        terms = ((g, s, offset(1.0, -1)), (g, s, y), (-1.0, s, offset(1.0, -2)), (-1.0, s, w))
    elif fam == "T5":
        pref = (-1.0) ** m * math.pi ** (2 * m - 1) / (2.0 * math.factorial(2 * m - 1))
        s = 1.0 - 2 * m
        g = 2.0 ** (2 * m)
        terms = ((g, s, offset(1.0, -1)), (-g, s, y), (-1.0, s, offset(1.0, -2)), (1.0, s, w))
    elif fam == "T6":
        pref = (-1.0) ** (m - 1) * math.pi ** (2 * m - 2) / (2.0 * math.factorial(2 * m - 2))
        s = 2.0 - 2 * m
        g = 2.0 ** (2 * m - 1)
        terms = ((g, s, offset(1.0, -1)), (g, s, y), (-1.0, s, offset(1.0, -2)), (-1.0, s, w))
    elif fam == "T7":
        pref = (-1.0) ** (m - 1) * two_pi ** (2 * m - 2) / (2.0 * math.factorial(2 * m - 2))
        s = 2.0 - 2 * m
        terms = (
            (1.0, s, offset(0.25, -1)), (-1.0, s, offset(0.75, -1)),
            (-1.0, s, offset(0.25, 1)), (1.0, s, offset(0.75, 1)),
        )
    else:  # T8
        pref = (-1.0) ** (m - 1) * two_pi ** (2 * m - 1) / (2.0 * math.factorial(2 * m - 1))
        s = 1.0 - 2 * m
        terms = (
            (1.0, s, offset(0.25, -1)), (-1.0, s, offset(0.75, -1)),
            (1.0, s, offset(0.25, 1)), (-1.0, s, offset(0.75, 1)),
        )
    return pref, terms


class TestBracketTable:
    def test_table_matches_eight_branch_reference_exactly(self, monkeypatch):
        # only the decomposition is compared, so skip the zeta' evaluations
        monkeypatch.setattr(closedforms, "hurwitz_zeta_sderiv", lambda s, a: 0.0)
        for fam in FAMILIES:
            xs = grid_points(fam, 33)  # midpoint x = 0 on symmetric intervals
            if SeriesSpec.from_family(fam, 1).interval[0] < 0.0:
                assert 0.0 in xs
                xs += [-x for x in xs if x > 0.0]
            for m in range(1, 9):
                spec = SeriesSpec.from_family(fam, m)
                for x in xs:
                    if x == 0.0 and fam != "T8":
                        continue  # sin families and T4 take their own x = 0 route
                    res = closed_form_eval(spec, x)
                    pref, terms = reference_bracket(spec, abs(x))
                    sign = -1.0 if x < 0.0 and spec.kind == "sin" else 1.0
                    assert res.prefactor == sign * pref, (fam, m, x)
                    assert res.terms == terms, (fam, m, x)
