import dataclasses
import logging
import math
import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_records
from oracles import (
    bd_quality_trapezoid,
    bd_rate_trapezoid,
    random_curve_pair,
    random_curve_points,
)
from rdgauge import bd, scenario
from rdgauge.errors import (
    AggregationError,
    AnalysisError,
    CurveError,
    DomainError,
    OverlapError,
)
from rdgauge.store import MetricRecord
from rdgauge.table import RecordTable

FOUR_POINT = [(1000.0, 30.0), (2000.0, 35.0), (4000.0, 40.0), (8000.0, 45.0)]


def _curve(points, cid="c"):
    return bd.clean_curve(points, id=cid)


def _records(clip_id, points, family="x264", preset="medium", passes=1):
    return [MetricRecord(clip_id=clip_id, family=family, preset=preset,
                         passes=passes, target_kbps=float(t),
                         measured_kbps=float(r), vmaf=float(q), psnr_y=40.0)
            for t, (r, q) in points.items()]


class TestCleanCurve:
    def test_monotone_input_unchanged(self):
        curve = _curve(FOUR_POINT)
        assert [(p.rate, p.quality) for p in curve.points] == FOUR_POINT

    def test_dominated_point_dropped_then_curve_error(self):
        # (1500, 29) is dominated by (1000, 30); one survivor is not a curve
        with pytest.raises(CurveError):
            bd.clean_curve([(1000, 30), (1500, 29)])

    def test_equal_quality_keeps_lowest_rate(self):
        curve = bd.clean_curve([(1000, 30), (1000, 32), (2000, 35)])
        assert [(p.rate, p.quality) for p in curve.points] == [
            (1000.0, 32.0), (2000.0, 35.0)]

    def test_output_is_subset_and_strictly_monotone(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            pts = [(float(rng.uniform(100, 10000)), float(rng.uniform(20, 60)))
                   for _ in range(rng.integers(2, 10))]
            try:
                curve = bd.clean_curve(pts)
            except CurveError:
                continue
            out = [(p.rate, p.quality) for p in curve.points]
            assert set(out) <= {(float(r), float(q)) for r, q in pts}
            assert all(a[0] < b[0] and a[1] < b[1]
                       for a, b in zip(out, out[1:]))

    def test_non_positive_rate_rejected(self):
        with pytest.raises(CurveError):
            bd.clean_curve([(0.0, 30), (100, 35)])

    @given(st.lists(st.tuples(st.sampled_from([100.0, 200.0, 300.0, 450.5]),
                              st.sampled_from([20.0, 30.0, 30.5, 40.0, 50.0])),
                    max_size=12))
    def test_survivors_match_quadratic_rule(self, pts):
        # the pairwise definition: drop a point when another one reaches at
        # least its quality at no more rate
        unique = sorted(set(pts))
        expected = sorted(
            (p for p in unique
             if not any(q != p and q[1] >= p[1] and q[0] <= p[0] for q in unique)),
            key=lambda p: p[1])
        if len(expected) < 2:
            with pytest.raises(CurveError):
                bd.clean_curve(pts)
            return
        got = bd.clean_curve(pts).points
        assert [(p.rate, p.quality) for p in got] == expected


def _stack_of(x, y):
    """The one-row stack through knots (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return bd.CurveStack(x[None, :], y[None, :], np.array([len(x)]))


def _evaluate(stack, at, row=0):
    """Row ``row`` of a stack at ``at``, from its coefficients ``c``;
    NaN outside the row's knots."""
    at = np.asarray(at, dtype=float)
    x = stack.x[row, :stack.n[row]]
    i = np.clip(np.searchsorted(x, at, side="right") - 1, 0, len(x) - 2)
    c0, c1, c2, c3 = stack.c[:, row, i]
    s = at - x[i]
    value = c3 + s * (c2 + s * (c1 + s * c0))
    return np.where((at >= x[0]) & (at <= x[-1]), value, np.nan)


def _integral(stack, a, b, row=0):
    """The stack's integral of row ``row`` over [a, b] (negative when
    b < a)."""
    return float(stack.integrals(np.array([row]), np.array([float(a)]),
                                 np.array([float(b)]))[0])


class TestInterpolate:
    def test_passes_through_knots(self):
        curve = _curve(FOUR_POINT)
        f = bd.interpolate(curve)
        for p in curve.points:
            assert _evaluate(f, p.quality) == pytest.approx(
                math.log10(p.rate), abs=1e-12)

    def test_two_point_midpoint_is_mean_log_rate(self):
        curve = _curve([(1000, 30), (4000, 40)])
        f = bd.interpolate(curve)
        expected = (math.log10(1000) + math.log10(4000)) / 2
        assert _evaluate(f, 35.0) == pytest.approx(expected, abs=1e-12)

    def test_four_point_value_brackets_and_matches_oracle(self):
        f = bd.interpolate(_curve(FOUR_POINT))
        got = float(_evaluate(f, 37.5))
        assert math.log10(2000) <= got <= math.log10(4000)
        # equally spaced log-rates make pchip exactly linear here
        assert got == pytest.approx(3.451544993495972, abs=1e-9)

    def test_monotone_everywhere(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pts = random_curve_points(rng, int(rng.integers(3, 8)))
            f = bd.interpolate(_curve(pts))
            qs = np.linspace(f.lo[0], f.hi[0], 1000)
            vals = _evaluate(f, qs)
            assert np.all(np.diff(vals) >= -1e-12)


class TestClosedFormPchip:
    """Slope rules and closed-form integrals of CurveStack."""

    def test_two_points_are_a_straight_line(self):
        f = _stack_of([1.0, 3.0], [2.0, 6.0])
        assert float(_evaluate(f, 2.5)) == pytest.approx(5.0, abs=1e-15)
        assert _integral(f, 1.0, 3.0) == pytest.approx(8.0, abs=1e-15)
        assert _integral(f, 3.0, 1.5) == pytest.approx(-6.75, abs=1e-15)

    def test_three_points_match_hand_computed_hermite(self):
        # secants 2 and 0.5 over widths 1 and 2: interior slope is the
        # weighted harmonic mean 6/7, left end 2.5, right end estimate
        # -0.5 disagrees in sign with its secant and becomes 0
        f = _stack_of([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        d1 = 6.0 / 7.0
        assert float(_evaluate(f, 0.5)) == pytest.approx(
            0.125 * 2.5 + 0.5 * 2.0 - 0.125 * d1, abs=1e-14)
        assert float(_evaluate(f, 2.0)) == pytest.approx(
            0.5 * 2.0 + 0.125 * 2 * d1 + 0.5 * 3.0, abs=1e-14)
        whole = (1.0 + (2.5 - d1) / 12.0) + (5.0 + 4.0 * d1 / 12.0)
        assert _integral(f, 0.0, 3.0) == pytest.approx(whole, abs=1e-14)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_end_slope_that_flips_sign_goes_to_zero(self, mirror):
        # one-sided estimate (3*1 - 4) / 2 = -0.5 opposes the secant 1
        x, y = [0.0, 1.0, 2.0], [0.0, 1.0, 5.0]
        at, end_segment = 0.5, (0.0, 1.0)
        if mirror:
            x, y, at, end_segment = [-2.0, -1.0, 0.0], y[::-1], -0.5, (-1.0, 0.0)
        f = _stack_of(x, y)
        # Hermite cubic with end slope 0 and interior slope 1.6
        assert float(_evaluate(f, at)) == pytest.approx(0.3, abs=1e-14)
        assert _integral(f, *end_segment) == pytest.approx(0.5 - 1.6 / 12.0,
                                                           abs=1e-14)

    def test_end_slope_clamped_to_three_secants(self):
        # secants 1 then -10: estimate 6.5 exceeds 3 * 1, so it is 3
        f = _stack_of([0.0, 1.0, 2.0], [0.0, 1.0, -9.0])
        assert float(_evaluate(f, 0.5)) == pytest.approx(0.125 * 3.0 + 0.5,
                                                         abs=1e-14)
        assert _integral(f, 0.0, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_nan_outside_knots(self):
        f = _stack_of([0.0, 1.0, 2.0], [0.0, 1.0, 5.0])
        vals = _evaluate(f, np.array([-0.1, 0.0, 2.0, 2.1]))
        assert np.isnan(vals[[0, 3]]).all()
        assert vals[1] == 0.0 and vals[2] == 5.0
        # the span the BD kernel clips every integral to
        assert (f.lo[0], f.hi[0]) == (0.0, 2.0)

    def test_matches_scipy(self):
        # 500 curves of 2 to 13 knots in one stack, each row against
        # scipy's PCHIP of that curve alone
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(41)
        curves = []
        for k in range(500):
            n = int(rng.integers(2, 14))
            x = np.cumsum(rng.uniform(0.1, 10.0, n))
            # alternate monotone curves with sign-changing ones
            y = (np.cumsum(rng.uniform(0.0, 1.0, n)) if k % 2
                 else rng.normal(size=n))
            curves.append((x, y))
        n = np.array([len(x) for x, _ in curves])
        xs = np.full((len(curves), n.max()), np.inf)
        ys = np.zeros(xs.shape)
        for r, (x, y) in enumerate(curves):
            xs[r, :len(x)], ys[r, :len(y)] = x, y
        stack = bd.CurveStack(xs, ys, n)
        for r, (x, y) in enumerate(curves):
            ref = interpolate.PchipInterpolator(x, y, extrapolate=False)
            at = np.concatenate([x, rng.uniform(x[0], x[-1], 50)])
            np.testing.assert_allclose(_evaluate(stack, at, r), ref(at),
                                       rtol=0, atol=1e-12)
            a, b = rng.uniform(x[0], x[-1], 2)
            for lo, hi in ((a, b), (x[0], x[-1])):
                assert _integral(stack, lo, hi, r) == pytest.approx(
                    float(ref.integrate(lo, hi)), rel=1e-12, abs=1e-12)


class TestBDRate:
    def test_identical_curves_zero(self):
        a = _curve(FOUR_POINT)
        assert bd.bd_rate(a, a).value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_scaling_is_exact(self):
        anchor = _curve(FOUR_POINT)
        for s in (0.5, 0.8, 1.1, 1.25):
            test = _curve([(r * s, q) for r, q in FOUR_POINT])
            got = bd.bd_rate(anchor, test).value
            assert got == pytest.approx((s - 1) * 100.0, abs=1e-9)

    def test_four_point_pair_matches_trapezoid_oracle(self):
        test_pts = [(900.0, 32.0), (1900.0, 37.0), (3800.0, 42.0), (7600.0, 47.0)]
        got = bd.bd_rate(_curve(FOUR_POINT), _curve(test_pts))
        oracle = bd_rate_trapezoid(FOUR_POINT, test_pts)
        assert got.value == pytest.approx(oracle, abs=0.01)
        assert got.value == pytest.approx(-28.5627, abs=0.01)
        assert got.overlap == (32.0, 45.0)

    def test_degenerate_overlap_is_an_error(self):
        low = _curve([(100, 10), (200, 20)])
        high = _curve([(1000, 50), (2000, 60)])
        with pytest.raises(OverlapError):
            bd.bd_rate(low, high)

    def test_metric_kind_mismatch(self):
        a = bd.clean_curve(FOUR_POINT, metric_kind="vmaf")
        b = bd.clean_curve(FOUR_POINT, metric_kind="psnr_y")
        with pytest.raises(AnalysisError):
            bd.bd_rate(a, b)

    def test_dominance_direction(self):
        anchor = _curve(FOUR_POINT)
        cheaper = _curve([(r * 0.7, q) for r, q in FOUR_POINT])
        assert bd.bd_rate(anchor, cheaper).value < 0


class TestBDQuality:
    def test_identical_curves_zero(self):
        a = _curve(FOUR_POINT)
        assert bd.bd_quality(a, a).value == pytest.approx(0.0, abs=1e-12)

    def test_constant_quality_shift(self):
        anchor = _curve(FOUR_POINT)
        test = _curve([(r, q + 2.0) for r, q in FOUR_POINT])
        assert bd.bd_quality(anchor, test).value == pytest.approx(2.0, abs=1e-9)

    def test_pair_matches_trapezoid_oracle(self):
        test_pts = [(900.0, 32.0), (1900.0, 37.0), (3800.0, 42.0), (7600.0, 47.0)]
        got = bd.bd_quality(_curve(FOUR_POINT), _curve(test_pts))
        oracle = bd_quality_trapezoid(FOUR_POINT, test_pts)
        assert got.value == pytest.approx(oracle, abs=0.005)

    def test_rates_with_one_log10_are_a_domain_error(self):
        # distinct rates an ulp apart: log10 cannot tell them apart
        test = _curve(FOUR_POINT[:3] + [(19999.999999999996, 50.0),
                                        (20000.0, 51.0)])
        assert np.log10(19999.999999999996) == np.log10(20000.0)
        with pytest.raises(DomainError, match="log10 rates must increase"):
            bd.bd_quality(_curve(FOUR_POINT), test)

    def test_domain_error_names_the_anchor_first(self):
        ulp = FOUR_POINT[:3] + [(19999.999999999996, 50.0), (20000.0, 51.0)]
        with pytest.raises(DomainError, match=re.escape("curve 'a': log10")):
            bd.bd_quality(_curve(ulp, "a"), _curve(ulp, "t"))
        with pytest.raises(DomainError, match=re.escape("curve 't': log10")):
            bd.bd_quality(_curve(FOUR_POINT, "a"), _curve(ulp, "t"))


class TestOnePair:
    """A single pair is one two-row stack, built per call and kept nowhere."""

    def test_one_stack_per_call(self, monkeypatch):
        anchor = _curve(FOUR_POINT, "a")
        test = _curve([(r * 0.9, q + 1.0) for r, q in FOUR_POINT], "t")
        built = []
        original = bd.CurveStack

        def counting(x, y, n):
            built.append(len(n))
            return original(x, y, n)

        monkeypatch.setattr(bd, "CurveStack", counting)
        results = [fn(anchor, test) for fn in (bd.bd_rate, bd.bd_quality,
                                               bd.bd_rate, bd.bd_quality)]
        assert built == [2, 2, 2, 2]
        # a grid of one-clip mappings holds the pair's bd_rate
        cell = bd.classic_bd_rate_matrix([{"c": anchor}, {"c": test}])[0][1]
        assert results[0].value.hex() == results[2].value.hex() == cell.hex()


class TestRandomizedSuite:
    def test_matches_oracle_and_antisymmetry(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            a_pts, b_pts = random_curve_pair(rng)
            a, b = _curve(a_pts, "a"), _curve(b_pts, "b")
            forward = bd.bd_rate(a, b)
            backward = bd.bd_rate(b, a)
            oracle = bd_rate_trapezoid(a_pts, b_pts)
            assert forward.value == pytest.approx(oracle, abs=0.01)
            product = (1 + forward.value / 100) * (1 + backward.value / 100)
            assert product == pytest.approx(1.0, abs=1e-6)

    def test_rate_scale_invariance(self):
        rng = np.random.default_rng(77)
        a_pts, b_pts = random_curve_pair(rng)
        base = bd.bd_rate(_curve(a_pts), _curve(b_pts)).value
        for s in (0.25, 3.0, 1e3):
            scaled = bd.bd_rate(
                _curve([(r * s, q) for r, q in a_pts]),
                _curve([(r * s, q) for r, q in b_pts])).value
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_quality_shift_invariance(self):
        rng = np.random.default_rng(78)
        a_pts, b_pts = random_curve_pair(rng)
        base = bd.bd_rate(_curve(a_pts), _curve(b_pts))
        shifted = bd.bd_rate(
            _curve([(r, q + 7.5) for r, q in a_pts]),
            _curve([(r, q + 7.5) for r, q in b_pts]))
        assert shifted.value == pytest.approx(base.value, abs=1e-9)
        assert shifted.overlap[0] == pytest.approx(base.overlap[0] + 7.5)


def _point(records, metric_kind=bd.METRIC_VMAF, method="harmonic"):
    """The aggregate point of one rung of records, from ``bd._aggregate``
    on one group, or the error it gives."""
    table = RecordTable.of(records)
    rates, qualities, errors = bd._aggregate(
        table, np.arange(len(table)), np.zeros(len(table), dtype=np.intp), 1,
        metric_kind, method)
    if errors[0] is not None:
        raise errors[0]
    return bd.RDPoint(rate=rates[0], quality=qualities[0])


def _rung(rates, method="harmonic"):
    """The aggregate rate of one rung of clips at these rates."""
    return _point([MetricRecord(f"c{i}", "x264", "m", 1, 4000.0, r, vmaf=50.0)
                   for i, r in enumerate(rates)], method=method).rate


class TestHarmonicMean:
    """The harmonic mean of a rung's aggregate point, on its rates."""

    def test_examples(self):
        assert _rung([1, 2, 4]) == pytest.approx(12 / 7)
        assert _rung([5.5]) == 5.5
        assert _rung([3000, 6000]) == pytest.approx(4000.0)

    def test_domain_errors(self):
        for rates, low in (([1.0, 0.0], "0.0"), ([1.0, -2.0], "-2.0")):
            with pytest.raises(DomainError, match=(
                    f"^harmonic mean needs positive values, got {low}$")):
                _rung(rates)

    def test_never_exceeds_arithmetic_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            vals = rng.uniform(0.1, 100, size=rng.integers(1, 10)).tolist()
            assert _rung(vals) <= _rung(vals, "arithmetic") + 1e-12
        assert _rung([4.0, 4.0, 4.0]) == pytest.approx(4.0)


class TestAggregatePoints:
    def test_two_clip_example(self):
        recs = [
            MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=80.0, psnr_y=40.0),
            MetricRecord("b", "x264", "m", 1, 4000.0, 6000.0, vmaf=96.0, psnr_y=42.0),
        ]
        point = _point(recs)
        assert point.rate == pytest.approx(4000.0)
        assert point.quality == pytest.approx(87.2727, abs=1e-4)

    def test_single_clip_is_identity(self):
        rec = MetricRecord("a", "x264", "m", 1, 4000.0, 3900.0, vmaf=88.0,
                           psnr_y=40.0)
        point = _point([rec])
        assert (point.rate, point.quality) == (3900.0, 88.0)

    def test_zero_vmaf_surfaces_domain_error(self):
        recs = [MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=0.0,
                             psnr_y=40.0)]
        with pytest.raises(DomainError):
            _point(recs)

    def test_mixed_keys_rejected(self):
        recs = [
            MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=80.0, psnr_y=40.0),
            MetricRecord("b", "x264", "m", 1, 2000.0, 2100.0, vmaf=70.0, psnr_y=39.0),
        ]
        with pytest.raises(AggregationError):
            _point(recs)

    def test_arithmetic_variant(self):
        recs = [
            MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=80.0, psnr_y=40.0),
            MetricRecord("b", "x264", "m", 1, 4000.0, 6000.0, vmaf=96.0, psnr_y=42.0),
        ]
        point = _point(recs, method="arithmetic")
        assert point.rate == pytest.approx(4500.0)
        assert point.quality == pytest.approx(88.0)


def _clip_point_sets(rng, n_clips, ladder):
    """Per-clip dict ladder -> (rate, quality), monotone per clip."""
    sets = {}
    for i in range(n_clips):
        scale = rng.uniform(2000, 4000)
        pts = {}
        for tbr in ladder:
            rate = tbr * rng.uniform(0.95, 1.05)
            quality = 100 * (1 - math.exp(-rate / scale))
            pts[tbr] = (rate, quality)
        sets[f"clip{i}"] = pts
    return sets


class TestSmartAndClassic:
    LADDER = (500, 1000, 2000, 4000, 8000)

    def _dataset(self, point_sets, family="x264", preset="m", passes=1):
        records = []
        for clip_id, pts in point_sets.items():
            records.extend(_records(clip_id, pts, family, preset, passes))
        return records

    def test_identical_clips_smart_equals_classic_equals_single(self):
        rng = np.random.default_rng(30)
        base = _clip_point_sets(rng, 1, self.LADDER)["clip0"]
        anchor_sets = {f"c{i}": base for i in range(5)}
        test_pts = {t: (r * 0.8, q) for t, (r, q) in base.items()}
        test_sets = {f"c{i}": test_pts for i in range(5)}

        anchor_records = self._dataset(anchor_sets)
        test_records = self._dataset(test_sets, preset="fast")

        single = bd.bd_rate(
            bd.clean_curve(list(base.values()), id="a"),
            bd.clean_curve(list(test_pts.values()), id="t"))
        smart = bd.smart_bd_rate(anchor_records, test_records, self.LADDER)
        classic = bd.classic_bd_rate(
            bd.curves_from_records(anchor_records),
            bd.curves_from_records(test_records))
        assert smart.value == pytest.approx(single.value, abs=1e-9)
        assert classic.value == pytest.approx(single.value, abs=1e-9)

    def test_smart_matches_composition_oracle(self):
        # recompute from scratch: harmonic-mean the points per rung, then
        # run the dense trapezoid oracle on the aggregate point lists
        rng = np.random.default_rng(31)
        anchor_sets = _clip_point_sets(rng, 4, self.LADDER)
        test_sets = {
            clip: {t: (r * (0.8 if int(clip[-1]) % 2 else 1.25), q)
                   for t, (r, q) in pts.items()}
            for clip, pts in anchor_sets.items()
        }

        def hm(vals):
            return len(vals) / sum(1.0 / v for v in vals)

        def aggregate(sets):
            out = []
            for tbr in self.LADDER:
                rates = [sets[c][tbr][0] for c in sets]
                quals = [sets[c][tbr][1] for c in sets]
                out.append((hm(rates), hm(quals)))
            return out

        got = bd.smart_bd_rate(self._dataset(anchor_sets),
                               self._dataset(test_sets, preset="fast"),
                               self.LADDER)
        oracle = bd_rate_trapezoid(aggregate(anchor_sets), aggregate(test_sets))
        assert got.value == pytest.approx(oracle, abs=0.01)

    def test_classic_single_clip_equals_bd_rate(self):
        rng = np.random.default_rng(32)
        sets = _clip_point_sets(rng, 1, self.LADDER)
        test_sets = {"clip0": {t: (r * 0.9, q)
                               for t, (r, q) in sets["clip0"].items()}}
        direct = bd.bd_rate(
            bd.clean_curve(list(sets["clip0"].values()), id="a"),
            bd.clean_curve(list(test_sets["clip0"].values()), id="t"))
        classic = bd.classic_bd_rate(
            bd.curves_from_records(self._dataset(sets)),
            bd.curves_from_records(self._dataset(test_sets, preset="fast")))
        assert classic.value == pytest.approx(direct.value, abs=1e-12)

    def test_classic_is_mean_of_per_clip_values(self):
        ladder = self.LADDER
        base = {t: (float(t), 100 * (1 - math.exp(-t / 3000))) for t in ladder}
        anchor_sets = {"a": base, "b": base}
        test_sets = {
            "a": {t: (r * 0.9, q) for t, (r, q) in base.items()},
            "b": {t: (r * 0.7, q) for t, (r, q) in base.items()},
        }
        classic = bd.classic_bd_rate(
            bd.curves_from_records(self._dataset(anchor_sets)),
            bd.curves_from_records(self._dataset(test_sets, preset="fast")))
        assert classic.value == pytest.approx((-10.0 + -30.0) / 2, abs=1e-9)

    def test_overlap_failures_counted_not_zeroed(self):
        ladder = (500, 1000)
        anchor_sets = {
            "good": {500: (500.0, 40.0), 1000: (1000.0, 60.0)},
            "bad": {500: (500.0, 10.0), 1000: (1000.0, 20.0)},
        }
        test_sets = {
            "good": {500: (450.0, 40.0), 1000: (900.0, 60.0)},
            "bad": {500: (450.0, 80.0), 1000: (900.0, 90.0)},  # no overlap
        }
        classic = bd.classic_bd_rate(
            bd.curves_from_records(self._dataset(anchor_sets)),
            bd.curves_from_records(self._dataset(test_sets, preset="fast")))
        assert "1 overlap" in classic.method_note
        assert classic.value == pytest.approx(-10.0, abs=0.5)

    def test_all_failures_raise(self):
        low = {"a": {500: (500.0, 10.0), 1000: (1000.0, 20.0)}}
        high = {"a": {500: (500.0, 80.0), 1000: (1000.0, 90.0)}}
        with pytest.raises(AggregationError):
            bd.classic_bd_rate(
                bd.curves_from_records(self._dataset(low)),
                bd.curves_from_records(self._dataset(high, preset="fast")))

    def test_dropped_clips_are_logged(self, caplog):
        records = (_records("good", {500: (500.0, 40.0), 1000: (1000.0, 60.0)})
                   + _records("thin", {500: (500.0, 40.0)})
                   + _records("dominated", {500: (500.0, 40.0),
                                            1000: (1000.0, 30.0)}))
        with caplog.at_level(logging.INFO, logger="rdgauge.bd"):
            curves = bd.curves_from_records(records)
        assert list(curves) == ["good"]
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, "dropping clip dominated of x264:medium:1p: curve "
             "'dominated': only 1 point(s) survive cleaning; need at least 2"),
            (logging.INFO, "dropping clip thin of x264:medium:1p: curve "
             "'thin': only 1 point(s) survive cleaning; need at least 2"),
        ]


class _ScalarPchip:
    """The scalar PCHIP integral that ``bd_rate`` and ``bd_quality`` used
    before every BD value ran through ``CurveStack``: one row of
    ``bd._pchip_tables``, then per bound a binary search and
    ``bd._segment_integrals`` on Python floats. Kept as the reference
    of the batched kernel."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        c, cum = bd._pchip_tables(x[None, :], np.asarray(y, dtype=float)[None, :])
        self.lo = float(x[0])
        self.hi = float(x[-1])
        self.knots = x.tolist()
        self.segments = c[:, 0, :].T.tolist()
        self.cum = cum[0].tolist()

    def _primitive(self, v):
        i = min(bisect_right(self.knots, v), len(self.knots) - 1) - 1
        return self.cum[i] + bd._segment_integrals(*self.segments[i],
                                                   v - self.knots[i])

    def integrate(self, a, b):
        return self._primitive(b) - self._primitive(a)


def _reference_bd(anchor, test, quality=False):
    """``bd_rate`` (or ``bd_quality``) of one pair on ``_ScalarPchip``."""
    if anchor.metric_kind != test.metric_kind:
        raise AnalysisError(
            f"metric kinds differ: {anchor.metric_kind} vs {test.metric_kind}")
    axes = [(np.array([p.quality for p in c.points]),
             np.log10([p.rate for p in c.points])) for c in (anchor, test)]
    if quality:
        axes = [(y, x) for x, y in axes]
        for c, (x, _) in zip((anchor, test), axes):
            if not np.all(np.diff(x) > 0):
                raise DomainError(f"curve {c.id!r}: log10 rates must increase")
    fa, ft = (_ScalarPchip(x, y) for x, y in axes)
    lo = max(fa.lo, ft.lo)
    hi = min(fa.hi, ft.hi)
    if not lo < hi:
        raise OverlapError(
            f"curves share no {'log-rate' if quality else 'quality'} interval "
            f"([{fa.lo:g}, {fa.hi:g}] vs [{ft.lo:g}, {ft.hi:g}])")
    delta = (ft.integrate(lo, hi) - fa.integrate(lo, hi)) / (hi - lo)
    kind = anchor.metric_kind
    return bd.BDResult(
        value=delta if quality else (10.0 ** delta - 1.0) * 100.0,
        kind="quality" if quality else "rate", overlap=(lo, hi),
        anchor_points_used=len(anchor.points),
        test_points_used=len(test.points),
        method_note=(f"pchip {kind} over log10-rate; exact integral" if quality
                     else f"pchip log10-rate over {kind}; exact integral"))


def _reference_classic(anchor_curves, test_curves):
    """The per-clip BD-Rate loop that the batched classic_bd_rate
    replaced, on the scalar reference, kept as its reference."""
    shared = sorted(set(anchor_curves) & set(test_curves))
    missing = len(set(anchor_curves) ^ set(test_curves))
    values = []
    errors = 0
    lo = math.inf
    hi = -math.inf
    anchor_pts = test_pts = 0
    for clip_id in shared:
        try:
            result = _reference_bd(anchor_curves[clip_id], test_curves[clip_id])
        except (OverlapError, CurveError):
            errors += 1
            continue
        values.append(result.value)
        lo = min(lo, result.overlap[0])
        hi = max(hi, result.overlap[1])
        anchor_pts += result.anchor_points_used
        test_pts += result.test_points_used
    if not values:
        raise AggregationError(
            f"no clip produced a valid BD-Rate ({errors} overlap failures, "
            f"{missing} unmatched clips)"
        )
    note = (f"classic mean over {len(values)} clips; "
            f"excluded: {errors} overlap/curve errors, {missing} unmatched")
    return bd.BDResult(
        value=float(np.mean(values)), kind="rate", overlap=(lo, hi),
        anchor_points_used=anchor_pts, test_points_used=test_pts,
        method_note=note, overlap_label="quality span of the included clips",
    )


@st.composite
def _random_curve(draw, clip="c", rising=None, kinds=("vmaf",)):
    """An RDCurve of 2, 3 or 12 knots. Qualities are integers plus one of
    three offsets, so overlaps often touch or miss, and a quality of 0
    may be 0.0 or -0.0; rates, ints or
    floats, may fall as well as rise (unless ``rising``), so end slopes
    flip sign and get clamped. Rising rates are distinct and often
    shared between curves, so log-rate overlaps touch or miss too."""
    n = draw(st.sampled_from([2, 3, 12]))
    qualities = sorted(draw(st.lists(st.integers(0, 60), min_size=n,
                                     max_size=n, unique=True)))
    offset = draw(st.sampled_from([0, 0.125, 0.5]))
    zero = draw(st.sampled_from([0.0, -0.0]))  # the sign of a 0 quality
    if rising is None:
        rising = draw(st.booleans())
    rates = draw(st.lists(st.one_of(st.integers(50, 20000),
                                    st.floats(50.0, 20000.0),
                                    st.sampled_from([100, 400, 1600, 6400])),
                          min_size=n, max_size=n, unique=rising))
    if rising:
        rates.sort()
    return bd.RDCurve(id=clip, metric_kind=draw(st.sampled_from(kinds)),
                      points=tuple(bd.RDPoint(rate=r, quality=q + offset or zero)
                                   for r, q in zip(rates, qualities)))


@st.composite
def _curve_set(draw):
    """Clip id -> ``_random_curve``."""
    clips = draw(st.lists(st.sampled_from([f"c{i}" for i in range(8)]),
                          unique=True, max_size=6))
    return {clip: draw(_random_curve(clip)) for clip in clips}


def _exact(fn, *args, **kwargs):
    """A BD result with every float in hex (so -0.0 and 0.0 differ), or
    an error as (type, message)."""
    try:
        r = fn(*args, **kwargs)
    except AnalysisError as exc:
        return type(exc), str(exc)
    return (r.value.hex(), r.overlap[0].hex(), r.overlap[1].hex(), r.kind,
            r.anchor_points_used, r.test_points_used, r.method_note,
            r.overlap_label)


@settings(max_examples=150, deadline=None)
@given(anchor=_curve_set(), test=_curve_set(),
       other_kind=st.sampled_from([None, "c0", "c3"]))
def test_batched_classic_equals_per_clip_loop(anchor, test, other_kind):
    if other_kind in test:  # a metric-kind mismatch, if the clip is shared
        test[other_kind] = bd.RDCurve(id=other_kind, metric_kind="psnr_y",
                                      points=test[other_kind].points)
    want = _exact(_reference_classic, anchor, test)
    for a, t in ((anchor, test),
                 (bd._clip_curves(anchor), bd._clip_curves(test))):
        assert _exact(bd.classic_bd_rate, a, t) == want


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from([True, True, False]).flatmap(
    lambda rising: st.tuples(*[_random_curve(
        rising=rising, kinds=("vmaf",) * 7 + ("psnr_y",))] * 2)))
def test_pair_values_equal_scalar_reference(pair):
    anchor, test = pair
    assert (_exact(bd.bd_rate, anchor, test)
            == _exact(_reference_bd, anchor, test))
    rising = all(np.all(np.diff([p.rate for p in c.points]) > 0) for c in pair)
    if rising:  # log-rate knots must increase
        assert (_exact(bd.bd_quality, anchor, test)
                == _exact(_reference_bd, anchor, test, quality=True))


@settings(max_examples=150, deadline=None)
@given(curves=st.lists(st.one_of(st.none(), _random_curve(
    kinds=("vmaf",) * 7 + ("psnr_y",))), max_size=6))
def test_rate_matrix_equals_bd_rate_per_pair(curves):
    if len(curves) > 1 and curves[-1] is not None:
        curves.append(curves[-1])  # a curve listed twice
    # the smart grid's mappings: one clip per curve, none for a None
    cells = bd.classic_bd_rate_matrix(
        [{} if c is None else {"aggregate": c} for c in curves])
    assert [len(row) for row in cells] == [len(curves)] * len(curves)
    for i, a in enumerate(curves):
        for j, t in enumerate(curves):
            if i == j:
                assert cells[i][j] == 0.0
                continue
            want = None if a is None or t is None else _exact(bd.bd_rate, a,
                                                              t)[0]
            if isinstance(want, type):  # bd_rate raises
                want = None
            cell = cells[i][j]
            assert (None if cell is None else cell.hex()) == want


def _classic_per_pair(curves):
    """``classic_bd_rate(a, t).value`` of every pair in hex, None where it
    raises, and 0.0 on the diagonal: what the classic matrix must hold."""
    cells = []
    for i, a in enumerate(curves):
        row = []
        for j, t in enumerate(curves):
            want = (0.0).hex() if i == j else _exact(bd.classic_bd_rate, a,
                                                      t)[0]
            row.append(None if isinstance(want, type) else want)
        cells.append(row)
    return cells


def _hex_cells(cells):
    return [[None if c is None else c.hex() for c in row] for row in cells]


@settings(max_examples=150, deadline=None)
@given(sets=st.lists(_curve_set(), max_size=5), twice=st.booleans(),
       other_kind=st.sampled_from([None, "c0", "c3"]))
def test_classic_matrix_equals_classic_bd_rate_per_pair(sets, twice,
                                                        other_kind):
    if sets and other_kind in sets[-1]:  # a metric-kind mismatch
        sets[-1][other_kind] = bd.RDCurve(
            id=other_kind, metric_kind="psnr_y",
            points=sets[-1][other_kind].points)
    if twice and sets:
        sets.append(sets[0])  # a config listed twice
    want = _classic_per_pair(sets)
    assert _hex_cells(bd.classic_bd_rate_matrix(sets)) == want
    curves = [bd._clip_curves(c) for c in sets]
    assert _hex_cells(bd.classic_bd_rate_matrix(curves)) == want


def test_classic_matrix_planted_cases():
    ladder = (500, 1000, 2000, 4000)
    clips = ["c0", "c1", "c2"]
    records = make_records(clips, "x264", "medium", 1, ladder)
    records += make_records(clips, "x264", "fast", 1, ladder, rate_factor=0.9)
    # far below the others in quality: no shared clip overlaps
    records += make_records(clips, "x265", "slow", 1, ladder, efficiency=0.01)
    # a single rung per clip: every clip is dropped
    records += make_records(clips, "x265", "fast", 1, ladder[:1])
    # no clip in common with the others
    records += make_records(["d0", "d1"], "svt-av1", "6", 1, ladder)
    groups = scenario.group_by_config(records)
    slices = [scenario.records_for_config(groups, c) for c in groups.configs]
    curves = [bd.curves_from_records(s) for s in slices]
    assert [len(c) for c in curves] == [3, 3, 3, 0, 2]
    # the same clips as x264:medium, measured in PSNR: mixed kinds
    curves.append(bd.curves_from_records(slices[0], bd.METRIC_PSNR_Y))
    curves.append(curves[1])  # x264:fast listed twice
    cells = bd.classic_bd_rate_matrix(curves)
    assert _hex_cells(cells) == _classic_per_pair(curves)
    values = {(i, j) for i, row in enumerate(cells)
              for j, cell in enumerate(row) if cell is not None and i != j}
    assert values == {(0, 1), (1, 0), (0, 6), (6, 0), (1, 6), (6, 1)}
    assert cells[1][6] == 0.0
    for (i, j), error in {(0, 2): "no clip produced a valid BD-Rate (3 "
                                  "overlap failures, 0 unmatched clips)",
                          (0, 3): "(0 overlap failures, 3 unmatched clips)",
                          (0, 4): "(0 overlap failures, 5 unmatched clips)",
                          (0, 5): "metric kinds differ: vmaf vs psnr_y"}.items():
        with pytest.raises(AnalysisError, match=re.escape(error)):
            bd.classic_bd_rate(curves[i], curves[j])


def test_classic_mean_over_many_clips_is_pairwise():
    # np.mean sums pairwise from eight terms on; a left-to-right sum of
    # these 40 clips' values differs in the last bit
    rng = np.random.default_rng(0)
    anchor, test = {}, {}
    for k in range(40):
        a, t = random_curve_pair(rng)
        anchor[f"c{k:02d}"] = bd.clean_curve(a, id=f"c{k:02d}")
        test[f"c{k:02d}"] = bd.clean_curve(t, id=f"c{k:02d}")
    per_clip = [bd.bd_rate(anchor[c], test[c]).value for c in sorted(anchor)]
    mean = float(np.mean(per_clip))
    assert mean != sum(per_clip) / len(per_clip)
    assert bd.classic_bd_rate(anchor, test).value.hex() == mean.hex()
    assert bd.classic_bd_rate_matrix([anchor, test])[0][1].hex() == mean.hex()


def test_classic_matrix_of_one_config():
    curves = bd.curves_from_records(make_records(["c0"], "x264", "medium", 1,
                                                 (500, 1000)))
    assert bd.classic_bd_rate_matrix([curves]) == [[0.0]]
    assert bd.classic_bd_rate_matrix([]) == []


def test_classic_mixes_knot_counts_and_clamped_ends():
    # 2, 3 and 12 knots in one config. c1's first end estimate opposes
    # its secant and becomes 0; c2's secants change sign at the start,
    # so its first end slope is clamped to three secants; c3 shares no
    # quality with the test side.
    c2_log_rates = [3.0, 3.05, 2.55] + [2.55 + 0.1 * k for k in range(1, 10)]
    anchor = {
        "c0": bd.clean_curve([(1000, 30), (4000, 50)], id="c0"),
        "c1": bd.RDCurve("c1", "vmaf", tuple(
            bd.RDPoint(r, q) for r, q in ((1e3, 20.0), (1e4, 30.0),
                                          (1e8, 40.0)))),
        "c2": bd.RDCurve("c2", "vmaf", tuple(
            bd.RDPoint(10.0 ** y, 10.0 + 5.0 * k)
            for k, y in enumerate(c2_log_rates))),
        "c3": bd.clean_curve([(100, 1), (200, 5)], id="c3"),
    }
    test = {clip: bd.clean_curve([(400, 15), (1200, 35), (2400, 50),
                                  (7200, 65)], id=clip)
            for clip in ("c0", "c1", "c2", "c3")}
    got = bd.classic_bd_rate(anchor, test)
    assert got == _reference_classic(anchor, test)
    assert got.method_note == ("classic mean over 3 clips; excluded: "
                               "1 overlap/curve errors, 0 unmatched")
    assert got.anchor_points_used == 2 + 3 + 12
    # c[2] is each segment's slope at its left knot, c[3] its value there
    assert bd.interpolate(anchor["c1"]).c[2, 0, 0] == 0.0
    f = bd.interpolate(anchor["c2"])
    x, y = f.x[0], f.c[3, 0]
    assert f.c[2, 0, 0] == 3.0 * ((y[1] - y[0]) / (x[1] - x[0]))


def test_csv_helpers():
    curve = _curve(FOUR_POINT, "cfg")
    rows = bd.curves_csv([curve]).split("\n")
    assert rows[0] == "id,q,rate_kbps"
    assert rows[1] == "cfg,30,1000"
    assert rows[-1] == "" and len(rows) == 2 + len(FOUR_POINT)
    # one header for every curve; an id with a comma is quoted
    other = _curve(FOUR_POINT[:2], "x,y")
    assert bd.curves_csv([curve, other]) == (
        bd.curves_csv([curve]) + '"x,y",30,1000\n"x,y",35,2000\n')
    assert bd.curves_csv([]) == "id,q,rate_kbps\n"
    result = bd.bd_rate(curve, curve)
    row = bd.result_csv_row("a", "b", "vmaf", result)
    assert row == ("a", "b", "vmaf", "0.000000", "30", "45", 4, 4)


class TestGridBuildsOnce:
    """Each config's curve stack, and each config's aggregate, once per grid."""

    LADDER = (500, 1000, 2000, 4000, 8000)
    CONFIGS = [("x264", "medium", 1), ("x264", "slow", 1),
               ("svt-av1", "6", 1), ("svt-av1", "8", 1)]
    N_CLIPS = 5

    def _records(self):
        clips = [f"c{i}" for i in range(self.N_CLIPS)]
        records = []
        for k, (family, preset, passes) in enumerate(self.CONFIGS):
            records += make_records(clips, family, preset, passes, self.LADDER,
                                    rate_factor=1.0 - 0.1 * k)
        return records

    def test_one_stack_and_one_bd_call_per_classic_grid(self, monkeypatch):
        stacked = []
        built = []
        calls = []
        original, original_bd = bd.CurveStack, bd._bd

        def counting(x, y, n):
            stacked.append(n)
            return original(x, y, n)

        def counting_bd(*args):
            calls.append(len(args[1]))
            return original_bd(*args)

        monkeypatch.setattr(bd, "CurveStack", counting)
        monkeypatch.setattr(bd, "_bd", counting_bd)
        monkeypatch.setattr(bd, "interpolate", built.append)
        grid = scenario.bd_grid(self.CONFIGS,
                                scenario.group_by_config(self._records()),
                                self.LADDER)
        # one stack holding every config's clips, one BD pass over every
        # shared clip of every unordered pair
        assert [len(n) for n in stacked] == [len(self.CONFIGS) * self.N_CLIPS]
        k = len(self.CONFIGS)
        assert calls == [k * (k - 1) // 2 * self.N_CLIPS]
        assert built == []  # no per-curve interpolant
        assert all(cell is not None for row in grid.cells for cell in row)

    def test_one_aggregate_per_config_in_smart_grid(self, monkeypatch):
        records = self._records()
        # a config with a single rung cannot form an aggregate curve; one
        # far below the others in quality shares no interval with them;
        # and one config is listed twice
        configs = self.CONFIGS + [("x265", "fast", 1), ("x265", "slow", 1),
                                  self.CONFIGS[1]]
        records += [MetricRecord(clip_id="c0", family="x265", preset="fast",
                                 passes=1, target_kbps=500.0,
                                 measured_kbps=500.0, vmaf=50.0)]
        records += make_records([f"c{i}" for i in range(self.N_CLIPS)],
                                "x265", "slow", 1, self.LADDER,
                                efficiency=0.01)
        calls = []
        stacked = []
        original = bd.aggregate_curves
        original_stack = bd.CurveStack

        def counting(table, group, picks, *args, **kwargs):
            calls.append([table[int(np.flatnonzero(group == g)[0])]
                          for g in picks])
            return original(table, group, picks, *args, **kwargs)

        def stacking(x, y, n):
            stacked.append(len(n))
            return original_stack(x, y, n)

        groups = scenario.group_by_config(records)
        monkeypatch.setattr(bd, "aggregate_curves", counting)
        monkeypatch.setattr(bd, "CurveStack", stacking)
        grid = scenario.bd_grid(configs, groups, self.LADDER, method="smart")
        # one batched build, covering each listed config once
        assert [[(r.family, r.preset, r.passes) for r in first]
                for first in calls] == [configs]
        assert stacked == [len(configs) - 1]  # one stack, x265:fast left out
        monkeypatch.undo()

        slices = [scenario.records_for_config(groups, c) for c in configs]
        failed = 0
        for i in range(len(configs)):
            for j in range(len(configs)):
                if i == j:
                    assert grid.cells[i][j] == 0.0
                    continue
                try:
                    want = bd.smart_bd_rate(slices[i], slices[j],
                                            self.LADDER).value
                except (OverlapError, CurveError):
                    want = None
                    failed += 1
                assert grid.cells[i][j] == want, (i, j)
        # x265:fast against the 6 others, both ways; x265:slow against the
        # remaining 5, both ways
        assert failed == 2 * 6 + 2 * 5
        assert grid.cells[1][6] == grid.cells[6][1] == 0.0  # listed twice


# ------------------------------------------------- columnar references
#
# The per-record code that the column path replaced, kept as the
# reference it must equal: the same survivors to the bit, the same
# exception type and message, the same drop log lines. Sums are spelled
# as explicit left-to-right loops.

def _reference_clean(points, id="", metric_kind=bd.METRIC_VMAF):
    pts = []
    for p in points:
        if isinstance(p, bd.RDPoint):
            rate, quality = p.rate, p.quality
        else:
            rate, quality = float(p[0]), float(p[1])
        if not (rate > 0):
            raise CurveError(f"rates must be positive, got {rate}")
        if not math.isfinite(quality):
            raise CurveError(f"quality must be finite, got {quality}")
        pts.append((rate, quality))
    survivors = []
    best = -math.inf
    for rate, quality in sorted(set(pts), key=lambda p: (p[0], -p[1])):
        if quality > best:
            survivors.append((rate, quality))
            best = quality
    if len(survivors) < 2:
        raise CurveError(
            f"curve {id!r}: only {len(survivors)} point(s) survive cleaning; "
            "need at least 2")
    return bd.RDCurve(id=id, metric_kind=metric_kind, points=tuple(
        bd.RDPoint(rate=r, quality=q) for r, q in survivors))


def _reference_metric_value(record, metric_kind):
    value = record.vmaf if metric_kind == bd.METRIC_VMAF else record.psnr_y
    if value is None:
        raise AggregationError(
            f"record {record.key()} has no {metric_kind} measurement")
    return value


def _reference_curves_from_records(records, metric_kind=bd.METRIC_VMAF):
    log = logging.getLogger("rdgauge.bd")
    by_clip = {}
    for rec in records:
        by_clip.setdefault(rec.clip_id, []).append(rec)
    curves = {}
    for clip_id, recs in sorted(by_clip.items()):
        pts = [(r.measured_kbps, _reference_metric_value(r, metric_kind))
               for r in recs]
        try:
            curves[clip_id] = _reference_clean(pts, id=clip_id,
                                               metric_kind=metric_kind)
        except CurveError as exc:
            rec = recs[0]
            log.info("dropping clip %s of %s:%s:%dp: %s", clip_id, rec.family,
                     rec.preset, rec.passes, exc)
    return curves


def _reference_harmonic_mean(values):
    vals = list(values)
    if not vals:
        raise DomainError("harmonic mean of an empty set")
    if any(v <= 0 for v in vals):
        raise DomainError(f"harmonic mean needs positive values, got {min(vals)}")
    total = 0.0
    for v in vals:
        total += 1.0 / v
    # Every value +inf: the per-record code divided by zero here (a
    # ZeroDivisionError traceback); the column code gives +inf.
    return len(vals) / total if total else math.inf


def _reference_aggregate_points(records, metric_kind=bd.METRIC_VMAF,
                                method="harmonic"):
    keys = {(r.family, r.preset, r.passes, r.target_kbps) for r in records}
    if len(keys) != 1:
        raise AggregationError(
            f"mixed configuration keys in aggregate: {sorted(keys)}")
    rates = [r.measured_kbps for r in records]
    quals = [_reference_metric_value(r, metric_kind) for r in records]
    if method == "harmonic":
        return bd.RDPoint(rate=_reference_harmonic_mean(rates),
                          quality=_reference_harmonic_mean(quals))
    if method == "arithmetic":
        with np.errstate(all="ignore"):  # +inf and -inf give NaN
            return bd.RDPoint(rate=float(np.mean(rates)),
                              quality=float(np.mean(quals)))
    raise AggregationError(f"unknown aggregation method {method!r}")


def _reference_aggregate_curve(records, ladder, metric_kind=bd.METRIC_VMAF,
                               method="harmonic", id=""):
    points = []
    for tbr in ladder:
        rung = [r for r in records if r.target_kbps == tbr]
        if rung:
            points.append(_reference_aggregate_points(rung, metric_kind,
                                                      method))
    if len(points) < 2:
        raise CurveError(
            f"aggregate curve {id!r} spans {len(points)} ladder rung(s); need 2")
    return _reference_clean(points, id=id, metric_kind=metric_kind)


def _bits(value):
    """A curve, point or dict of curves with every float as its bits
    (so -0.0 and 0.0 differ), or an exception as (type, message)."""
    if isinstance(value, Exception):
        return type(value), str(value)
    if isinstance(value, bd.RDPoint):
        return float(value.rate).hex(), float(value.quality).hex()
    if isinstance(value, bd.RDCurve):
        return value.id, value.metric_kind, [_bits(p) for p in value.points]
    return {k: _bits(v) for k, v in value.items()}


def _outcome_of(fn, *args, **kwargs):
    try:
        return _bits(fn(*args, **kwargs))
    except (AnalysisError, CurveError) as exc:
        return _bits(exc)


# Values that meet every branch of the cleaning rule: ties, exact
# duplicates, signed zeros, non-positive rates and non-finite qualities.
_RATES = st.sampled_from([-1.0, -0.0, 0.0, 100.0, 100.0, 250.5, 400.0,
                          1000.0, math.inf, math.nan])
_QUALITIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 20.0, 30.0, 30.0, 30.5, 45.0, 50.0,
                     math.nan, math.inf, -math.inf, -5.0]),
    st.floats(-10.0, 100.0))
_LADDER_RUNGS = (500.0, 1000.0, 2000.0, 4000.0)


@st.composite
def _record_lists(draw):
    """Records of up to two configs, four clips and five rungs (one of
    them outside the ladder), with random rates and qualities: mostly
    valid, with planted ties, duplicates, signed zeros, non-positive
    rates, NaN/inf qualities, null metrics and single-point clips."""
    n = draw(st.integers(0, 24))
    records = []
    for _ in range(n):
        valid = draw(st.floats(0, 1)) < 0.9
        rate = (draw(st.floats(50.0, 5000.0)) if valid and draw(st.booleans())
                else draw(_RATES))
        quality = (draw(st.floats(1.0, 99.0)) if valid and draw(st.booleans())
                   else draw(_QUALITIES))
        null = draw(st.floats(0, 1)) < 0.04
        preset = draw(st.sampled_from(["medium", "medium", "medium", "slow"]))
        records.append(MetricRecord(
            clip_id=draw(st.sampled_from(["a", "b", "c", "a,b"])),
            family="x264", preset=preset, passes=1,
            target_kbps=draw(st.sampled_from(_LADDER_RUNGS + (3000.0,))),
            measured_kbps=rate, vmaf=None if null else quality,
            psnr_y=draw(st.one_of(st.none(), st.floats(20.0, 60.0)))))
    if records and draw(st.booleans()):  # an exact duplicate
        records.append(dataclasses.replace(records[draw(
            st.integers(0, len(records) - 1))]))
    return records


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(_RATES, _QUALITIES), max_size=10))
def test_array_cleaner_equals_scalar_rule(points):
    assert (_outcome_of(bd.clean_curve, points, id="c")
            == _outcome_of(_reference_clean, points, id="c"))


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append((record.levelno, record.getMessage()))


@settings(max_examples=300, deadline=None)
@given(records=_record_lists(),
       metric=st.sampled_from([bd.METRIC_VMAF, bd.METRIC_PSNR_Y]))
def test_columnar_curves_equal_per_record_loop(records, metric):
    handler = _Collect()
    log = logging.getLogger("rdgauge.bd")
    log.addHandler(handler)
    old_level = log.level
    log.setLevel(logging.INFO)
    try:
        want = _outcome_of(_reference_curves_from_records, records, metric)
        want_log, handler.messages = handler.messages, []
        got = _outcome_of(bd.curves_from_records, records, metric)
        got_log = handler.messages
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)
    assert got == want
    assert got_log == want_log


@settings(max_examples=300, deadline=None)
@given(records=_record_lists(),
       ladder=st.lists(st.sampled_from(_LADDER_RUNGS + (8000.0,)),
                       max_size=6),
       metric=st.sampled_from([bd.METRIC_VMAF, bd.METRIC_PSNR_Y]),
       method=st.sampled_from(["harmonic", "harmonic", "arithmetic",
                               "median"]))
# Rungs of +inf and -inf qualities, with and without a null: their
# arithmetic mean once warned (an error under pytest) on either side.
@example(records=[MetricRecord("a", "x264", "medium", 1, 500.0, -1.0, vmaf=v)
                  for v in (None, math.inf, -math.inf)],
         ladder=[], metric=bd.METRIC_VMAF, method="arithmetic")
@example(records=[MetricRecord("a", "x264", "medium", 1, 1000.0, 400.0, vmaf=v)
                  for v in (math.inf, -math.inf)],
         ladder=[1000.0, 500.0], metric=bd.METRIC_VMAF, method="arithmetic")
def test_columnar_aggregate_equals_per_record_loop(records, ladder, metric,
                                                   method):
    got = _outcome_of(bd.aggregate_curve, records, ladder, metric, method,
                      id="cfg")
    want = _outcome_of(_reference_aggregate_curve, records, ladder, metric,
                       method, id="cfg")
    assert got == want
    rung = [r for r in records if r.target_kbps == 1000.0]
    for group in (rung, records):
        if group:  # an empty rung has no aggregate point
            assert (_outcome_of(_point, group, metric, method)
                    == _outcome_of(_reference_aggregate_points, group,
                                   metric, method))


_CONFIGS = [("x264", "medium", 1), ("x264", "slow", 1), ("x265", "fast", 2)]
_ABSENT = ("svt-av1", "4", 1)  # listed, never stored


@st.composite
def _grouped_stores(draw):
    """Records of up to three configs, in random order, and a list of
    configs to build: stored ones, some listed twice, and one with no
    records. Clip curves are mostly rising, with planted odd points,
    null metrics, single-point clips, exact duplicates and, sometimes,
    a config that measured a single rung."""
    records = []
    for family, preset, passes in _CONFIGS:
        clips = draw(st.lists(st.sampled_from(["a", "b", "c", "a,b"]),
                              unique=True, max_size=4))
        for clip in clips:
            rungs = draw(st.lists(st.sampled_from(_LADDER_RUNGS + (3000.0,)),
                                  unique=True, min_size=1, max_size=5))
            for tbr in rungs:
                odd = draw(st.floats(0, 1)) < 0.08
                rate = draw(_RATES) if odd else tbr * draw(st.floats(0.8, 1.2))
                quality = (draw(_QUALITIES) if odd
                           else 20.0 + tbr / 100.0 + draw(st.floats(-8, 8)))
                records.append(MetricRecord(
                    clip_id=clip, family=family, preset=preset, passes=passes,
                    target_kbps=tbr, measured_kbps=rate, vmaf=quality,
                    psnr_y=30.0 + tbr / 400.0))
    for change in ({}, {"vmaf": None}, {"psnr_y": None}):
        # an exact duplicate, or a record with a null metric
        if records and draw(st.integers(0, 2)) == 0:
            k = draw(st.integers(0, len(records) - 1))
            records.append(dataclasses.replace(records[k], **change))
    if draw(st.booleans()):  # one rung per clip: no curve can be built
        records += [MetricRecord(clip_id=clip, family="svt-av1", preset="8",
                                 passes=1, target_kbps=1000.0,
                                 measured_kbps=900.0, vmaf=50.0, psnr_y=38.0)
                    for clip in ("a", "b")]
    records = draw(st.permutations(records))
    stored = sorted({(r.family, r.preset, r.passes) for r in records})
    picks = draw(st.lists(st.sampled_from(stored + [_ABSENT]), max_size=6))
    return records, picks


def _logged(fn, *args):
    """``fn(*args)``, or the AnalysisError it raises as (type, message),
    and the INFO lines of rdgauge.bd it logged, in order."""
    handler = _Collect()
    log = logging.getLogger("rdgauge.bd")
    log.addHandler(handler)
    old_level = log.level
    log.setLevel(logging.INFO)
    try:
        try:
            out = fn(*args)
        except AnalysisError as exc:
            out = _bits(exc)
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)
    return out, handler.messages


@settings(max_examples=300, deadline=None)
@given(store=_grouped_stores(),
       metric=st.sampled_from([bd.METRIC_VMAF, bd.METRIC_PSNR_Y]),
       ladder=st.lists(st.sampled_from(_LADDER_RUNGS + (8000.0,)),
                       max_size=6),
       method=st.sampled_from(["harmonic", "harmonic", "arithmetic",
                               "median"]))
def test_batched_builders_equal_per_config_calls(store, metric, ladder,
                                                 method):
    records, picks = store
    groups = scenario.group_by_config(records)
    slices = [scenario.records_for_config(groups, cfg) for cfg in picks]
    numbers = groups.numbers(picks)

    def per_config():  # as a grid built them: stop at the first error
        return [_bits(bd.curves_from_records(s, metric)) for s in slices]

    def batched():
        return [_bits(c) for c in bd.curves_by_group(
            groups.table, groups.group, numbers, metric)]

    assert _logged(batched) == _logged(per_config)

    labels = [scenario.label(cfg) for cfg in picks]
    want = [_outcome_of(bd.aggregate_curve, s, ladder, metric, method, id=label)
            for s, label in zip(slices, labels)]
    got = bd.aggregate_curves(groups.table, groups.group, numbers, labels,
                              ladder, metric, method)
    assert [_bits(c) for c in got] == want


def test_per_clip_curves_are_built_when_read(monkeypatch):
    records = make_records(["c0", "c1"], "x264", "medium", 1,
                           (500, 1000, 2000))
    built = []
    original = bd._curve

    def counting(*args):
        built.append(args[0])
        return original(*args)

    monkeypatch.setattr(bd, "_curve", counting)
    curves = bd.curves_from_records(records)
    assert list(curves) == ["c0", "c1"] and built == []
    bd.classic_bd_rate(curves, curves)
    assert built == []
    assert curves["c1"] == curves["c1"]
    assert built == ["c1", "c1"]  # built on each read, none kept
    assert curves["c1"] == _reference_curves_from_records(records)["c1"]


def test_curves_and_aggregates_take_tables_and_lists_alike():
    records = make_records(["c0", "c1", "c2"], "x264", "medium", 1,
                           (500, 1000, 2000, 4000), rate_jitter=0.05, seed=3)
    table = RecordTable.from_records(records)
    assert dict(bd.curves_from_records(table)) == dict(
        bd.curves_from_records(records))
    assert (bd.aggregate_curve(table, (500, 1000, 2000))
            == bd.aggregate_curve(records, (500, 1000, 2000)))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(st.floats(1.0, 1e5), st.floats(0.5, 100.0)),
                       min_size=1, max_size=40))
def test_rung_means_sum_left_to_right(points):
    # numpy's pairwise sum differs from a left-to-right one from eight
    # terms on, so long rungs tell the two apart
    records = [MetricRecord(f"c{i}", "x264", "m", 1, 4000.0, r, vmaf=q)
               for i, (r, q) in enumerate(points)]
    assert (_bits(_point(records))
            == _bits(_reference_aggregate_points(records)))


def test_rung_of_forty_clips_sums_left_to_right():
    rng = np.random.default_rng(0)
    rates = np.round(rng.uniform(500.0, 20000.0, 40), 3).tolist()
    records = [MetricRecord(f"c{i}", "x264", "m", 1, 4000.0, r, vmaf=50.0)
               for i, r in enumerate(rates)]
    assert 40 / np.sum([1.0 / r for r in rates]) != _reference_harmonic_mean(
        rates)  # the data tells a pairwise sum apart
    assert _point(records).rate == _reference_harmonic_mean(rates)
