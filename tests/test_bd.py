import math

import numpy as np
import pytest
from hypothesis import given
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


class TestInterpolate:
    def test_passes_through_knots(self):
        curve = _curve(FOUR_POINT)
        f = bd.interpolate(curve)
        for p in curve.points:
            assert f(p.quality) == pytest.approx(math.log10(p.rate), abs=1e-12)

    def test_two_point_midpoint_is_mean_log_rate(self):
        curve = _curve([(1000, 30), (4000, 40)])
        f = bd.interpolate(curve)
        expected = (math.log10(1000) + math.log10(4000)) / 2
        assert f(35.0) == pytest.approx(expected, abs=1e-12)

    def test_four_point_value_brackets_and_matches_oracle(self):
        f = bd.interpolate(_curve(FOUR_POINT))
        got = float(f(37.5))
        assert math.log10(2000) <= got <= math.log10(4000)
        # equally spaced log-rates make pchip exactly linear here
        assert got == pytest.approx(3.451544993495972, abs=1e-9)

    def test_monotone_everywhere(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pts = random_curve_points(rng, int(rng.integers(3, 8)))
            f = bd.interpolate(_curve(pts))
            qs = np.linspace(f.lo, f.hi, 1000)
            vals = f(qs)
            assert np.all(np.diff(vals) >= -1e-12)


class TestClosedFormPchip:
    """Slope rules and closed-form integrals of MonotoneInterpolant."""

    def test_two_points_are_a_straight_line(self):
        f = bd.MonotoneInterpolant([1.0, 3.0], [2.0, 6.0])
        assert float(f(2.5)) == pytest.approx(5.0, abs=1e-15)
        assert f.integrate(1.0, 3.0) == pytest.approx(8.0, abs=1e-15)
        assert f.integrate(3.0, 1.5) == pytest.approx(-6.75, abs=1e-15)

    def test_three_points_match_hand_computed_hermite(self):
        # secants 2 and 0.5 over widths 1 and 2: interior slope is the
        # weighted harmonic mean 6/7, left end 2.5, right end estimate
        # -0.5 disagrees in sign with its secant and becomes 0
        f = bd.MonotoneInterpolant([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        d1 = 6.0 / 7.0
        assert float(f(0.5)) == pytest.approx(
            0.125 * 2.5 + 0.5 * 2.0 - 0.125 * d1, abs=1e-14)
        assert float(f(2.0)) == pytest.approx(
            0.5 * 2.0 + 0.125 * 2 * d1 + 0.5 * 3.0, abs=1e-14)
        whole = (1.0 + (2.5 - d1) / 12.0) + (5.0 + 4.0 * d1 / 12.0)
        assert f.integrate(0.0, 3.0) == pytest.approx(whole, abs=1e-14)

    @pytest.mark.parametrize("mirror", [False, True])
    def test_end_slope_that_flips_sign_goes_to_zero(self, mirror):
        # one-sided estimate (3*1 - 4) / 2 = -0.5 opposes the secant 1
        x, y = [0.0, 1.0, 2.0], [0.0, 1.0, 5.0]
        at, end_segment = 0.5, (0.0, 1.0)
        if mirror:
            x, y, at, end_segment = [-2.0, -1.0, 0.0], y[::-1], -0.5, (-1.0, 0.0)
        f = bd.MonotoneInterpolant(x, y)
        # Hermite cubic with end slope 0 and interior slope 1.6
        assert float(f(at)) == pytest.approx(0.3, abs=1e-14)
        assert f.integrate(*end_segment) == pytest.approx(0.5 - 1.6 / 12.0,
                                                          abs=1e-14)

    def test_end_slope_clamped_to_three_secants(self):
        # secants 1 then -10: estimate 6.5 exceeds 3 * 1, so it is 3
        f = bd.MonotoneInterpolant([0.0, 1.0, 2.0], [0.0, 1.0, -9.0])
        assert float(f(0.5)) == pytest.approx(0.125 * 3.0 + 0.5, abs=1e-14)
        assert f.integrate(0.0, 1.0) == pytest.approx(0.75, abs=1e-14)

    def test_nan_outside_knots(self):
        f = bd.MonotoneInterpolant([0.0, 1.0, 2.0], [0.0, 1.0, 5.0])
        vals = f(np.array([-0.1, 0.0, 2.0, 2.1]))
        assert np.isnan(vals[[0, 3]]).all()
        assert vals[1] == 0.0 and vals[2] == 5.0
        assert math.isnan(f.integrate(-0.1, 1.0))

    def test_matches_scipy(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(41)
        for k in range(500):
            n = int(rng.integers(2, 14))
            x = np.cumsum(rng.uniform(0.1, 10.0, n))
            # alternate monotone curves with sign-changing ones
            y = (np.cumsum(rng.uniform(0.0, 1.0, n)) if k % 2
                 else rng.normal(size=n))
            ours = bd.MonotoneInterpolant(x, y)
            ref = interpolate.PchipInterpolator(x, y, extrapolate=False)
            at = np.concatenate([x, rng.uniform(x[0], x[-1], 50)])
            np.testing.assert_allclose(ours(at), ref(at), rtol=0, atol=1e-12)
            a, b = rng.uniform(x[0], x[-1], 2)
            for lo, hi in ((a, b), (x[0], x[-1])):
                assert ours.integrate(lo, hi) == pytest.approx(
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


class TestHarmonicMean:
    def test_examples(self):
        assert bd.harmonic_mean([1, 2, 4]) == pytest.approx(12 / 7)
        assert bd.harmonic_mean([5.5]) == 5.5
        assert bd.harmonic_mean([3000, 6000]) == pytest.approx(4000.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bd.harmonic_mean([])
        with pytest.raises(DomainError):
            bd.harmonic_mean([1.0, 0.0])
        with pytest.raises(DomainError):
            bd.harmonic_mean([1.0, -2.0])

    def test_never_exceeds_arithmetic_mean(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            vals = rng.uniform(0.1, 100, size=rng.integers(1, 10))
            hm = bd.harmonic_mean(vals)
            assert hm <= np.mean(vals) + 1e-12
        assert bd.harmonic_mean([4.0, 4.0, 4.0]) == pytest.approx(4.0)


class TestAggregatePoints:
    def test_two_clip_example(self):
        recs = [
            MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=80.0, psnr_y=40.0),
            MetricRecord("b", "x264", "m", 1, 4000.0, 6000.0, vmaf=96.0, psnr_y=42.0),
        ]
        point = bd.aggregate_points(recs)
        assert point.rate == pytest.approx(4000.0)
        assert point.quality == pytest.approx(87.2727, abs=1e-4)

    def test_single_clip_is_identity(self):
        rec = MetricRecord("a", "x264", "m", 1, 4000.0, 3900.0, vmaf=88.0,
                           psnr_y=40.0)
        point = bd.aggregate_points([rec])
        assert (point.rate, point.quality) == (3900.0, 88.0)

    def test_zero_vmaf_surfaces_domain_error(self):
        recs = [MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=0.0,
                             psnr_y=40.0)]
        with pytest.raises(DomainError):
            bd.aggregate_points(recs)

    def test_mixed_keys_rejected(self):
        recs = [
            MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=80.0, psnr_y=40.0),
            MetricRecord("b", "x264", "m", 1, 2000.0, 2100.0, vmaf=70.0, psnr_y=39.0),
        ]
        with pytest.raises(AggregationError):
            bd.aggregate_points(recs)

    def test_arithmetic_variant(self):
        recs = [
            MetricRecord("a", "x264", "m", 1, 4000.0, 3000.0, vmaf=80.0, psnr_y=40.0),
            MetricRecord("b", "x264", "m", 1, 4000.0, 6000.0, vmaf=96.0, psnr_y=42.0),
        ]
        point = bd.aggregate_points(recs, method="arithmetic")
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


def test_csv_helpers():
    curve = _curve(FOUR_POINT, "cfg")
    rows = bd.curve_csv_rows(curve)
    assert rows[0] == "id,q,rate_kbps"
    assert rows[1] == "cfg,30,1000"
    result = bd.bd_rate(curve, curve)
    row = bd.result_csv_row("a", "b", "vmaf", result)
    assert row.startswith("a,b,vmaf,0.000000,30,45,4,4")


class TestGridBuildsOnce:
    """Each curve's interpolant, and each config's aggregate, once per grid."""

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

    def test_one_interpolant_per_curve_in_classic_grid(self, monkeypatch):
        built = []
        original = bd.interpolate

        def counting(curve):
            built.append(curve)
            return original(curve)

        monkeypatch.setattr(bd, "interpolate", counting)
        grid = scenario.bd_grid(self.CONFIGS, self._records(), self.LADDER)
        assert len(built) == len(self.CONFIGS) * self.N_CLIPS
        assert len({id(c) for c in built}) == len(built)
        assert all(cell is not None for row in grid.cells for cell in row)

    def test_one_aggregate_per_config_in_smart_grid(self, monkeypatch):
        records = self._records()
        # a config with a single rung cannot form an aggregate curve
        configs = self.CONFIGS + [("x265", "fast", 1)]
        records += [MetricRecord(clip_id="c0", family="x265", preset="fast",
                                 passes=1, target_kbps=500.0,
                                 measured_kbps=500.0, vmaf=50.0)]
        seen = []
        original = bd.aggregate_curve

        def counting(recs, *args, **kwargs):
            seen.append((recs[0].family, recs[0].preset, recs[0].passes))
            return original(recs, *args, **kwargs)

        monkeypatch.setattr(bd, "aggregate_curve", counting)
        grid = scenario.bd_grid(configs, records, self.LADDER, method="smart")
        assert sorted(seen) == sorted(configs)
        monkeypatch.undo()

        slices = [scenario.records_for_config(records, *c) for c in configs]
        for i in range(len(configs)):
            for j in range(len(configs)):
                if i == j:
                    assert grid.cells[i][j] == 0.0
                elif "x265" in (configs[i][0], configs[j][0]):
                    assert grid.cells[i][j] is None
                else:
                    want = bd.smart_bd_rate(slices[i], slices[j], self.LADDER)
                    assert grid.cells[i][j] == want.value
