import itertools
from pathlib import Path

import pytest

from conftest import make_records
from rdgauge import scenario
from rdgauge.scenario import (
    ConfigSummary,
    bd_grid,
    make_scenario,
    select_presets,
    summaries_from_csv,
    summarize,
    time_grid,
)
from rdgauge.store import MetricRecord

DATA = Path(__file__).parent / "data"


def _rec(vmaf=90.0, target=4000.0, measured=None, family="x264",
         preset="medium", passes=1, enc_s=60.0, clip="c1"):
    return MetricRecord(
        clip_id=clip, family=family, preset=preset, passes=passes,
        target_kbps=target, measured_kbps=measured or target, vmaf=vmaf,
        psnr_y=42.0, encode_seconds=enc_s)


def _summary(family="x264", preset="medium", passes=1, n=100, above=80,
             ckpt_n=10, ckpt_above=8, overshoot=0, hours=10.0):
    return ConfigSummary(family=family, preset=preset, passes=passes,
                         n_records=n, n_above=above, n_checkpoint_records=ckpt_n,
                         n_checkpoint_above=ckpt_above, overshoot_count=overshoot,
                         total_hours=hours)


class TestSummarize:
    def test_strict_vmaf_threshold(self):
        spec = make_scenario("S1")
        records = [_rec(vmaf=90.0, clip="a"), _rec(vmaf=87.0, clip="b"),
                   _rec(vmaf=88.01, clip="c"), _rec(vmaf=88.0, clip="d")]
        (summary,) = summarize(records, spec)
        assert summary.n_above == 2  # 88.0 itself does not count
        assert summary.n_records == 4

    def test_overshoot_is_strict(self):
        spec = make_scenario("S1")
        records = [
            _rec(measured=4700.0, clip="a"),  # 17.5% over -> flagged
            _rec(measured=4600.0, clip="b"),  # exactly 15% -> not "exceed"
            _rec(measured=4599.0, clip="c"),
        ]
        (summary,) = summarize(records, spec)
        assert summary.overshoot_count == 1

    def test_checkpoint_restriction(self):
        spec = make_scenario("S1")
        records = [_rec(vmaf=95.0, target=4000.0, clip="a"),
                   _rec(vmaf=95.0, target=8000.0, clip="a"),
                   _rec(vmaf=60.0, target=4000.0, clip="b")]
        (summary,) = summarize(records, spec)
        assert summary.n_checkpoint_records == 2
        assert summary.n_checkpoint_above == 1
        assert summary.n_above == 2
        assert summary.coverage_fraction == pytest.approx(2 / 3)

    def test_hours_sum(self):
        spec = make_scenario("S1")
        records = [_rec(enc_s=1800.0, clip="a"), _rec(enc_s=5400.0, clip="b")]
        (summary,) = summarize(records, spec)
        assert summary.total_hours == pytest.approx(2.0)

    def test_missing_timings_give_none(self):
        spec = make_scenario("S1")
        records = [_rec(enc_s=None, clip="a")]
        (summary,) = summarize(records, spec)
        assert summary.total_hours is None

    def test_pending_vmaf_counts_as_below(self):
        spec = make_scenario("S1")
        records = [_rec(vmaf=None, clip="a"), _rec(vmaf=99.0, clip="b")]
        (summary,) = summarize(records, spec)
        assert summary.n_above == 1

    def test_permutation_invariant(self):
        spec = make_scenario("S1")
        records = [_rec(vmaf=v, clip=f"c{i}", measured=4000.0 + 100 * i)
                   for i, v in enumerate((70, 85, 92, 99))]
        baseline = summarize(records, spec)
        for perm in itertools.permutations(records):
            assert summarize(list(perm), spec) == baseline
        assert summarize(scenario.group_by_config(records), spec) == baseline


class TestSelectPresets:
    def test_s1_ignores_complexity(self):
        a = _summary(preset="slowcfg", n=100, above=80, hours=100.0)
        b = _summary(preset="fastcfg", n=100, above=76, hours=10.0)
        report = select_presets([a, b], make_scenario("S1"))
        assert report.selections["x264"].preset == "slowcfg"

    def test_s3_budget_gates(self):
        a = _summary(preset="slowcfg", n=100, above=80, hours=100.0)
        b = _summary(preset="fastcfg", n=100, above=76, hours=10.0)
        report = select_presets([a, b], make_scenario("S3"))
        assert report.selections["x264"].preset == "fastcfg"
        assert report.check(make_scenario("S3"))

    def test_s3_infeasible_family_reported(self):
        a = _summary(preset="slowcfg", hours=100.0)
        report = select_presets([a], make_scenario("S3"))
        assert report.selections["x264"] is None
        assert "infeasible" in report.rationale["x264"]

    def test_s1_tie_breaks(self):
        base = dict(n=100, above=80, ckpt_n=10)
        a = _summary(preset="a", ckpt_above=9, **base)
        b = _summary(preset="b", ckpt_above=7, **base)
        report = select_presets([a, b], make_scenario("S1"))
        assert report.selections["x264"].preset == "a"
        c = _summary(preset="c", ckpt_above=9, overshoot=5, **base)
        report = select_presets([a, c], make_scenario("S1"))
        assert report.selections["x264"].preset == "a"

    def test_s2_picks_fastest_within_slack(self):
        quality = _summary(preset="best", n=1000, above=832, hours=1000.0)
        near = _summary(preset="near", n=1000, above=793, hours=150.0)
        far = _summary(preset="far", n=1000, above=700, hours=10.0)
        report = select_presets([quality, near, far], make_scenario("S2"))
        assert report.selections["x264"].preset == "near"
        assert "5" in report.rationale["x264"]

    def test_custom_scenario_threshold(self):
        spec = make_scenario("custom", vmaf_threshold=92.0)
        records = [_rec(vmaf=93.0, clip="a"), _rec(vmaf=91.0, clip="b")]
        (summary,) = summarize(records, spec)
        assert summary.n_above == 1


class TestPaperFixtures:
    def test_s1_selection_reproduces_published_picks(self):
        summaries = summaries_from_csv((DATA / "summary_s1.csv").read_text())
        report = select_presets(summaries, make_scenario("S1"))
        picks = {f: (s.preset, s.passes) for f, s in report.selections.items()}
        assert picks["svt-av1"] == ("2", 1)
        assert picks["x264"] == ("veryslow", 2)
        assert picks["x265"] == ("veryslow", 2)
        assert picks["nvenc-av1"] == ("P7", 2)
        assert picks["aws-av1"] == ("QVBR10", 1)

    def test_s3_selection_reproduces_published_picks(self):
        summaries = summaries_from_csv((DATA / "summary_s3.csv").read_text())
        report = select_presets(summaries, make_scenario("S3"))
        picks = {f: (s.preset, s.passes) for f, s in report.selections.items()}
        assert picks["svt-av1"] == ("10", 2)
        assert picks["x264"] == ("veryfast", 1)
        # 40.38 h sits within the 1% tolerance on the 40 h budget
        assert picks["x265"] == ("ultrafast", 1)

    def test_s3_strict_budget_marks_x265_infeasible(self):
        summaries = summaries_from_csv((DATA / "summary_s3.csv").read_text())
        report = select_presets(
            summaries, make_scenario("S3", budget_tolerance=0.0))
        assert report.selections["x265"] is None

    def test_s2_over_s1_plus_s2_tables_matches_published_picks(self):
        summaries = (summaries_from_csv((DATA / "summary_s1.csv").read_text())
                     + summaries_from_csv((DATA / "summary_s2.csv").read_text()))
        report = select_presets(summaries, make_scenario("S2"))
        picks = {f: (s.preset, s.passes) for f, s in report.selections.items()
                 if s is not None}
        assert picks["svt-av1"] == ("6", 1)
        assert picks["x264"] == ("medium", 2)
        assert picks["x265"] == ("medium", 2)


class TestTimeGrid:
    def test_published_hours_migration_cell(self):
        x264_s1 = _summary(family="x264", preset="veryslow", passes=2,
                           hours=51.18)
        x265_s3 = _summary(family="x265", preset="ultrafast", passes=1,
                           hours=40.38)
        grid = time_grid([x264_s1, x265_s3])
        assert grid.cells[0][1] == pytest.approx(-21.1, abs=0.05)
        assert grid.cells[0][0] == 0.0
        assert grid.cells[1][1] == 0.0

    def test_identical_hours(self):
        grid = time_grid([_summary(preset="a", hours=10.0),
                          _summary(preset="b", hours=10.0)])
        assert grid.cells[0][1] == 0.0

    def test_simple_arithmetic(self):
        grid = time_grid([_summary(preset="a", hours=100.0),
                          _summary(preset="b", hours=25.0)])
        assert grid.cells[0][1] == pytest.approx(-75.0)
        assert grid.cells[1][0] == pytest.approx(300.0)

    def test_missing_hours_is_na(self):
        grid = time_grid([_summary(preset="a", hours=None),
                          _summary(preset="b", hours=10.0)])
        assert grid.cells[0][1] is None
        assert grid.cells[0][0] == 0.0


class TestBDGrid:
    LADDER = (500, 1000, 2000, 4000, 8000)

    def _store_records(self):
        # the second config reaches the same quality at 70% of the rate,
        # so every per-clip BD-Rate is exactly -30%
        import dataclasses
        clips = [f"clip{i}" for i in range(4)]
        records = make_records(clips, "x264", "medium", 1, self.LADDER)
        records += [
            dataclasses.replace(r, family="svt-av1", preset="6",
                                measured_kbps=r.measured_kbps * 0.7)
            for r in records
        ]
        return records

    def test_single_config_grid(self):
        records = make_records(["c"], "x264", "medium", 1, self.LADDER)
        grid = bd_grid([("x264", "medium", 1)], records, self.LADDER)
        assert grid.cells == [[0.0]]

    def test_antisymmetry_and_diagonal(self):
        configs = [("x264", "medium", 1), ("svt-av1", "6", 1)]
        records = self._store_records()
        for method in ("classic", "smart"):
            grid = bd_grid(configs, records, self.LADDER, method=method)
            assert grid.cells[0][0] == 0.0 and grid.cells[1][1] == 0.0
            c01, c10 = grid.cells[0][1], grid.cells[1][0]
            assert (1 + c01 / 100) * (1 + c10 / 100) == pytest.approx(1.0, abs=1e-4)
            assert c01 == pytest.approx(-30.0, abs=1e-6)
            grouped = bd_grid(configs, scenario.group_by_config(records),
                              self.LADDER, method=method)
            assert grouped.cells == grid.cells

    def test_overlap_failure_renders_na(self):
        configs = [("x264", "medium", 1), ("x264", "fast", 1)]
        records = make_records(["c"], "x264", "medium", 1, self.LADDER,
                               scale_base=400.0)
        # fast config lives at far lower quality: no overlap
        records += make_records(["c"], "x264", "fast", 1, self.LADDER,
                                scale_base=90000.0)
        grid = bd_grid(configs, records, self.LADDER)
        assert grid.cells[0][1] is None
        assert grid.cells[0][0] == 0.0

    def test_csv_rows(self):
        grid = time_grid([_summary(preset="a", hours=100.0),
                          _summary(preset="b", hours=None)])
        rows = grid.csv_rows()
        assert rows[0].startswith("anchor\\test,")
        assert rows[1].endswith(",0.0000,")  # n/a renders empty


class TestSummaryCsvRoundTrip:
    def test_round_trip(self):
        summaries = summaries_from_csv((DATA / "summary_s1.csv").read_text())
        text = scenario.summaries_to_csv(summaries)
        again = summaries_from_csv(text)
        assert again == summaries
        assert again[0].total_hours == 1172.78
