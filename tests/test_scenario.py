import csv
import io
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_records
from mutations import edits, mutate
from rdgauge import scenario
from rdgauge.scenario import (
    ConfigSummary,
    bd_grid,
    group_by_config,
    make_scenario,
    select_presets,
    summaries_from_csv,
    summarize,
    time_grid,
)
from rdgauge.errors import PlanError, RdgaugeError
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
        (summary,) = summarize(group_by_config(records), spec)
        assert summary.n_above == 2  # 88.0 itself does not count
        assert summary.n_records == 4

    def test_overshoot_is_strict(self):
        spec = make_scenario("S1")
        records = [
            _rec(measured=4700.0, clip="a"),  # 17.5% over -> flagged
            _rec(measured=4600.0, clip="b"),  # exactly 15% -> not "exceed"
            _rec(measured=4599.0, clip="c"),
        ]
        (summary,) = summarize(group_by_config(records), spec)
        assert summary.overshoot_count == 1

    def test_checkpoint_restriction(self):
        spec = make_scenario("S1")
        records = [_rec(vmaf=95.0, target=4000.0, clip="a"),
                   _rec(vmaf=95.0, target=8000.0, clip="a"),
                   _rec(vmaf=60.0, target=4000.0, clip="b")]
        (summary,) = summarize(group_by_config(records), spec)
        assert summary.n_checkpoint_records == 2
        assert summary.n_checkpoint_above == 1
        assert summary.n_above == 2
        assert summary.coverage_fraction == pytest.approx(2 / 3)

    def test_hours_sum(self):
        spec = make_scenario("S1")
        records = [_rec(enc_s=1800.0, clip="a"), _rec(enc_s=5400.0, clip="b")]
        (summary,) = summarize(group_by_config(records), spec)
        assert summary.total_hours == pytest.approx(2.0)

    def test_missing_timings_give_none(self):
        spec = make_scenario("S1")
        records = [_rec(enc_s=None, clip="a")]
        (summary,) = summarize(group_by_config(records), spec)
        assert summary.total_hours is None

    def test_pending_vmaf_counts_as_below(self):
        spec = make_scenario("S1")
        records = [_rec(vmaf=None, clip="a"), _rec(vmaf=99.0, clip="b")]
        (summary,) = summarize(group_by_config(records), spec)
        assert summary.n_above == 1

    def test_permutation_invariant(self):
        spec = make_scenario("S1")
        records = [_rec(vmaf=v, clip=f"c{i}", measured=4000.0 + 100 * i)
                   for i, v in enumerate((70, 85, 92, 99))]
        baseline = summarize(group_by_config(records), spec)
        for perm in itertools.permutations(records):
            assert summarize(group_by_config(perm), spec) == baseline


@pytest.mark.parametrize("overrides", [
    dict(time_budget_hours=0.0), dict(time_budget_hours=-5.0),
    dict(time_budget_hours=math.nan), dict(coverage_slack_points=-1.0),
    dict(coverage_slack_points=math.nan),
], ids=["budget-zero", "budget-negative", "budget-nan", "slack-negative",
        "slack-nan"])
def test_out_of_range_budget_or_slack_is_rejected(overrides):
    for sid in ("S2", "S3"):
        with pytest.raises(ValueError):
            make_scenario(sid, **overrides)


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
        spec = make_scenario("S3")
        assert report.selections["x264"].total_hours <= (
            spec.time_budget_hours * (1.0 + scenario.BUDGET_TOLERANCE))

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
        (summary,) = summarize(group_by_config(records), spec)
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

    def test_s3_strict_budget_marks_x265_infeasible(self, monkeypatch):
        summaries = summaries_from_csv((DATA / "summary_s3.csv").read_text())
        monkeypatch.setattr(scenario, "BUDGET_TOLERANCE", 0.0)
        report = select_presets(summaries, make_scenario("S3"))
        assert report.selections["x265"] is None
        assert report.rationale["x265"].startswith(
            "infeasible: no config within 40 h (+0% tolerance)")

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
        grid = bd_grid([("x264", "medium", 1)], group_by_config(records),
                       self.LADDER)
        assert grid.cells == [[0.0]]

    def test_antisymmetry_and_diagonal(self):
        configs = [("x264", "medium", 1), ("svt-av1", "6", 1)]
        groups = group_by_config(self._store_records())
        for method in ("classic", "smart"):
            grid = bd_grid(configs, groups, self.LADDER, method=method)
            assert grid.cells[0][0] == 0.0 and grid.cells[1][1] == 0.0
            c01, c10 = grid.cells[0][1], grid.cells[1][0]
            assert (1 + c01 / 100) * (1 + c10 / 100) == pytest.approx(1.0, abs=1e-4)
            assert c01 == pytest.approx(-30.0, abs=1e-6)

    def test_overlap_failure_renders_na(self):
        configs = [("x264", "medium", 1), ("x264", "fast", 1)]
        records = make_records(["c"], "x264", "medium", 1, self.LADDER,
                               scale_base=400.0)
        # fast config lives at far lower quality: no overlap
        records += make_records(["c"], "x264", "fast", 1, self.LADDER,
                                scale_base=90000.0)
        grid = bd_grid(configs, group_by_config(records), self.LADDER)
        assert grid.cells[0][1] is None
        assert grid.cells[0][0] == 0.0

    def test_classic_grid_memory_is_bounded(self):
        """One classic grid of 20 configs x 200 clips x 12 rungs: its
        transient memory must not grow with configs^2 x clips."""
        import tracemalloc

        from rdgauge import bd

        ladder = tuple(250 * 2 ** (k / 2) for k in range(12))
        clips = [f"clip{i:03d}" for i in range(200)]
        configs = [("x264", f"p{k}", 1) for k in range(20)]
        records = []
        for k, (family, preset, passes) in enumerate(configs):
            records += make_records(clips, family, preset, passes, ladder,
                                    rate_factor=1.0 - 0.02 * k, seed=k,
                                    rate_jitter=0.01)
        groups = group_by_config(records)
        del records
        tracemalloc.start()
        try:
            grid = bd_grid(configs, groups, ladder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2 ** 20, peak / 2 ** 20
        curves = {k: bd.curves_from_records(
                      scenario.records_for_config(groups, configs[k]))
                  for k in (0, 7, 19)}
        for i, j in ((0, 7), (7, 0), (19, 0), (7, 19)):
            want = bd.classic_bd_rate(curves[i], curves[j]).value
            assert grid.cells[i][j].hex() == want.hex()

    def test_csv_rows(self):
        grid = time_grid([_summary(preset="a", hours=100.0),
                          _summary(preset="b", hours=None)])
        rows = grid.csv().split("\n")
        assert rows[0] == "anchor\\test,x264:a:1p,x264:b:1p"
        assert rows[1] == "x264:a:1p,0.0000,"  # n/a renders empty
        assert rows[3:] == [""]

    def test_csv_quotes_a_label_with_a_comma(self):
        grid = time_grid([_summary(preset="QVBR,10", hours=100.0),
                          _summary(preset="medium", hours=300.0)])
        rows = list(csv.reader(io.StringIO(grid.csv())))
        assert [len(row) for row in rows] == [3, 3, 3]
        assert rows[0][1] == rows[1][0] == "x264:QVBR,10:1p"
        assert rows[1][2] == "200.0000"


class TestSummaryCsvReader:
    def test_first_row_and_row_count(self):
        summaries = summaries_from_csv((DATA / "summary_s1.csv").read_text())
        assert len(summaries) == 5
        assert summaries[0] == ConfigSummary(
            family="svt-av1", preset="2", passes=1, n_records=744,
            n_above=619, n_checkpoint_records=62, n_checkpoint_above=58,
            overshoot_count=3, total_hours=1172.78)


def _reference_summarize(records, spec):
    """The per-record summarize that the column counts replaced, kept as
    their reference; the hours are summed left to right."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.family, rec.preset, rec.passes), []).append(rec)
    out = []
    for (family, preset, passes), recs in sorted(groups.items()):
        above = sum(1 for r in recs
                    if r.vmaf is not None and r.vmaf > spec.vmaf_threshold)
        ckpt = [r for r in recs if r.target_kbps == spec.checkpoint_kbps]
        ckpt_above = sum(1 for r in ckpt
                         if r.vmaf is not None and r.vmaf > spec.vmaf_threshold)
        overshoot = sum(
            1 for r in recs
            if r.measured_kbps > (1.0 + spec.overshoot_threshold) * r.target_kbps
        )
        timed = [r.encode_seconds for r in recs if r.encode_seconds is not None]
        hours = None
        if timed:
            total = 0.0
            for seconds in timed:
                total += seconds
            hours = total / 3600.0
        out.append(ConfigSummary(
            family=family, preset=preset, passes=passes,
            n_records=len(recs), n_above=above,
            n_checkpoint_records=len(ckpt), n_checkpoint_above=ckpt_above,
            overshoot_count=overshoot, total_hours=hours,
        ))
    return out


_SUMMARY_RECORD = st.builds(
    MetricRecord,
    clip_id=st.sampled_from(["a", "b", "c"]),
    family=st.sampled_from(["x264", "svt-av1"]),
    preset=st.sampled_from(["medium", "6"]),
    passes=st.sampled_from([1, 2]),
    target_kbps=st.sampled_from([2000.0, 4000.0, 8000.0]),
    measured_kbps=st.one_of(st.sampled_from([4600.0, 4600.000001, 9200.0]),
                            st.floats(100.0, 20000.0)),
    vmaf=st.one_of(st.none(), st.sampled_from([88.0, 88.5, math.nan]),
                   st.floats(0.0, 100.0)),
    encode_seconds=st.one_of(st.none(), st.floats(0.0, 1e6),
                             st.sampled_from([0.1, 0.2, 0.3, 1e16, 1.0])))


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_SUMMARY_RECORD, max_size=30),
       sid=st.sampled_from(["S1", "S3"]),
       threshold=st.sampled_from([88.0, 50.0]))
def test_column_summaries_equal_per_record_counts(records, sid, threshold):
    spec = make_scenario(sid, vmaf_threshold=threshold)
    want = repr(_reference_summarize(records, spec))  # repr: every bit
    assert repr(summarize(group_by_config(records), spec)) == want


def test_records_for_config_is_a_view_in_input_order():
    records = [_rec(clip=c, preset=p) for c, p in
               (("b", "medium"), ("a", "slow"), ("a", "medium"))]
    groups = group_by_config(records)
    got = scenario.records_for_config(groups, ("x264", "medium", 1))
    assert list(got) == [records[0], records[2]]
    assert groups.configs == [("x264", "medium", 1), ("x264", "slow", 1)]


def test_records_for_config_of_an_absent_config_is_empty():
    groups = group_by_config([_rec(clip="a"), _rec(clip="b", preset="slow")])
    got = scenario.records_for_config(groups, ("x264", "fast", 1))
    assert len(got) == 0 and list(got) == []
    assert set(got.columns) == set(groups.table.columns)


@pytest.mark.parametrize("config", [("x264", "medium", 2),
                                    ("aws-av1", "QVBR,10", 1)])
def test_label_reads_back(config):
    assert scenario.parse_config(scenario.label(config)) == config


@pytest.mark.parametrize("text, error", [
    ("x264:medium", "config must be family:preset:passes"),
    ("x:y:z:1", "config must be family:preset:passes"),
    ("x264:medium:twop", "bad pass count"),
])
def test_parse_config_errors(text, error):
    with pytest.raises(PlanError, match=error):
        scenario.parse_config(text)


class TestSummaryCsvErrors:
    HEADER = ",".join(scenario.SUMMARY_CSV_FIELDS)
    ROW = "x264,medium,1,744,527,62,43,8,51.18"

    @pytest.mark.parametrize("column", ["family", "passes", "n_above"])
    def test_missing_column_is_named(self, column):
        fields = list(scenario.SUMMARY_CSV_FIELDS)
        k = fields.index(column)
        row = self.ROW.split(",")
        del fields[k], row[k]
        text = ",".join(fields) + "\n" + ",".join(row) + "\n"
        with pytest.raises(RdgaugeError,
                           match=f"summary line 2: no '{column}' column"):
            summaries_from_csv(text)

    @pytest.mark.parametrize("column,value,what", [
        ("passes", "one", "an integer"), ("overshoot_count", "8.5",
                                          "an integer"),
        ("total_hours", "long", "a number")])
    def test_bad_value_is_named(self, column, value, what):
        row = self.ROW.split(",")
        row[scenario.SUMMARY_CSV_FIELDS.index(column)] = value
        text = "\n".join([self.HEADER, self.ROW, ",".join(row)]) + "\n"
        with pytest.raises(RdgaugeError, match=(
                f"summary line 3: {column} must be {what}, got '{value}'")):
            summaries_from_csv(text)

    def test_short_row_is_named(self):
        text = self.HEADER + "\nx264,medium,1\n"
        with pytest.raises(RdgaugeError,
                           match="summary line 2: no 'n_records' column"):
            summaries_from_csv(text)

    def test_empty_hours_are_none(self):
        text = self.HEADER + "\n" + self.ROW[:-len("51.18")] + "\n"
        (summary,) = summaries_from_csv(text)
        assert summary.total_hours is None

    @pytest.mark.parametrize("text,line", [
        ("family,preset,passes\rx264,medium,1\n", 1),
        (HEADER + "\n" + ROW + "\n" + '"x264"\rmedium,1\n', 3)])
    def test_unreadable_line_is_named(self, text, line):
        with pytest.raises(RdgaugeError, match=(
                f"summary line {line}: new-line character seen in unquoted "
                "field")):
            summaries_from_csv(text)


@settings(max_examples=300, deadline=None)
@given(changes=edits)
def test_mutated_summaries_parse_or_fail_closed(changes):
    """Reader contract: a summary CSV with a few bytes changed, cut or
    inserted gives summaries or raises an RdgaugeError, and raises
    nothing else."""
    data = mutate((DATA / "summary_s1.csv").read_bytes(), changes)
    try:
        summaries = summaries_from_csv(data.decode("utf-8", "replace"))
    except RdgaugeError:
        return
    assert all(isinstance(s, ConfigSummary) for s in summaries)


@settings(max_examples=200, deadline=None)
@given(seconds=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40))
def test_hours_sum_left_to_right(seconds):
    # numpy's pairwise sum differs from a left-to-right one from eight
    # terms on, so one config with many records tells the two apart
    records = [_rec(clip=f"c{i}", enc_s=s) for i, s in enumerate(seconds)]
    spec = make_scenario("S1")
    assert (repr(summarize(group_by_config(records), spec))
            == repr(_reference_summarize(records, spec)))
