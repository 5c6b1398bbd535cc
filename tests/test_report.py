import pytest

from conftest import make_records
from rdgauge import bd, report, scenario
from rdgauge.scenario import ConfigSummary, ScenarioReport

LADDER = (500, 1000, 2000, 4000, 8000)


def _summary(family, preset, passes, hours):
    return ConfigSummary(family=family, preset=preset, passes=passes,
                         n_records=10, n_above=8, n_checkpoint_records=2,
                         n_checkpoint_above=2, overshoot_count=0,
                         total_hours=hours)


def _scenario_report(sid, summaries):
    return ScenarioReport(
        scenario_id=sid,
        selections={s.family: s for s in summaries},
        rationale={s.family: "test pick" for s in summaries},
        summaries=list(summaries))


def _curve(cid, factor=1.0):
    records = make_records(["c1", "c2"], "x264", "medium", 1, LADDER,
                           rate_factor=factor)
    return bd.aggregate_curve(records, LADDER, id=cid)


@pytest.fixture
def inputs():
    summaries = [_summary("x264", "medium", 1, 20.0),
                 _summary("svt-av1", "6", 1, 8.0)]
    reports = [_scenario_report(sid, summaries) for sid in ("S1", "S2", "S3")]
    grids = [
        scenario.bd_grid(
            [("x264", "medium", 1)],
            scenario.group_by_config(
                make_records(["c1"], "x264", "medium", 1, LADDER)), LADDER),
        scenario.time_grid(summaries),
    ]
    curves = {sid: [_curve("cfg-a"), _curve("cfg-b", 0.8)]
              for sid in ("S1", "S2", "S3")}
    return reports, grids, curves


class TestEmitReport:
    def test_three_scenario_manifest(self, inputs, tmp_path):
        reports, grids, curves = inputs
        manifest = report.emit_report(reports, grids, curves, tmp_path)
        names = sorted(p.name for p in manifest)
        assert names == sorted([
            "rd-S1.svg", "rd-S2.svg", "rd-S3.svg",
            "grid-bd-classic.csv", "grid-bd-classic.svg",
            "grid-time.csv", "grid-time.svg",
            "report.txt",
        ])
        for path in manifest:
            assert path.exists()
            assert path.stat().st_size > 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_empty_grids_gives_curves_and_report_only(self, inputs, tmp_path):
        reports, _, curves = inputs
        manifest = report.emit_report(reports, [], curves, tmp_path)
        names = {p.name for p in manifest}
        assert names == {"rd-S1.svg", "rd-S2.svg", "rd-S3.svg", "report.txt"}

    def test_rerun_is_byte_identical(self, inputs, tmp_path):
        reports, grids, curves = inputs
        first = report.emit_report(reports, grids, curves, tmp_path)
        snapshot = {p.name: p.read_bytes() for p in first}
        second = report.emit_report(reports, grids, curves, tmp_path)
        assert {p.name for p in second} == set(snapshot)
        for path in second:
            assert path.read_bytes() == snapshot[path.name]

    def test_optional_curve_csvs(self, inputs, tmp_path):
        reports, grids, curves = inputs
        manifest = report.emit_report(reports, grids, curves, tmp_path,
                                      curves_csv=True)
        names = {p.name for p in manifest}
        assert {"rd-S1.csv", "rd-S2.csv", "rd-S3.csv"} <= names
        text = (tmp_path / "rd-S1.csv").read_text()
        assert text.splitlines()[0] == "id,q,rate_kbps"

    def test_optional_scatter_plots(self, inputs, tmp_path):
        reports, grids, curves = inputs
        manifest = report.emit_report(reports, grids, curves, tmp_path,
                                      scatter=True)
        names = {p.name for p in manifest}
        assert {"scatter-S1.svg", "scatter-S2.svg", "scatter-S3.svg"} <= names
        assert "encode time" in (tmp_path / "scatter-S1.svg").read_text()

    def test_unwritable_directory_raises(self, inputs, tmp_path):
        reports, grids, curves = inputs
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        with pytest.raises(OSError):
            report.emit_report(reports, grids, curves, blocker / "out")

    def test_report_text_mentions_switching(self, inputs, tmp_path):
        reports, grids, curves = inputs
        report.emit_report(reports, grids, curves, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "If you switch encoders" in text
        assert "Scenario S1" in text
        assert "x264" in text

    def test_infeasible_selection_in_report(self, tmp_path):
        rep = ScenarioReport(
            scenario_id="S3",
            selections={"x265": None},
            rationale={"x265": "no config within 40 h"},
            summaries=[])
        report.emit_report([rep], [], {}, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "no feasible configuration" in text


def test_svg_heatmap_handles_na():
    from rdgauge import svgplot
    svg = svgplot.heatmap(["a", "b"], [[0.0, None], [3.0, 0.0]], title="t")
    assert "n/a" in svg
    assert svg.startswith("<svg")
