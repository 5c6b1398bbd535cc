import json
import os
import re
import subprocess
import sys
from pathlib import Path

from conftest import make_records
from rdgauge import store, y4m
from rdgauge.cli import main

DATA = Path(__file__).parent / "data"
LADDER = "500,1000,2000,4000,8000"


def _fill_store(path):
    records = make_records([f"c{i}" for i in range(3)], "x264", "medium", 1,
                           (500, 1000, 2000, 4000, 8000))
    # second config reaches the same quality from 75% of the bits
    records += make_records([f"c{i}" for i in range(3)], "svt-av1", "6", 1,
                            (500, 1000, 2000, 4000, 8000),
                            rate_factor=0.75, efficiency=1 / 0.75, enc_s=40.0)
    for rec in records:
        store.append(path, rec)
    return records


class TestPlan:
    def test_counts(self, capsys):
        clips = ",".join(f"s{i}" for i in range(62))
        assert main(["plan", "--clips", clips, "--families", "x264"]) == 0
        assert "planned 8928 jobs" in capsys.readouterr().out

    def test_toolsweep(self, capsys):
        toggles = ";".join(f"--toggle-{i} 0" for i in range(9))
        assert main(["plan", "--toolsweep", "--clips", "clip",
                     "--toggles", toggles]) == 0
        assert "planned 90 jobs" in capsys.readouterr().out

    def test_plan_out_file(self, tmp_path, capsys):
        out = tmp_path / "plan.jsonl"
        assert main(["plan", "--clips", "a", "--families", "svt-av1",
                     "--passes", "1", "--ladder", "1000", "--out",
                     str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 6  # six svt presets
        assert rows[0]["target_kbps"] == 1000

    def test_show_commands(self, capsys):
        assert main(["plan", "--clips", "a", "--families", "x264",
                     "--presets", "medium", "--passes", "1", "--ladder",
                     "8000", "--show", "1"]) == 0
        out = capsys.readouterr().out
        assert "-maxrate 9600k" in out

    def test_usage_error_exit_code(self):
        assert main(["plan"]) == 2 or main(["plan", "--clips", ""]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1


class TestImportAndScenario:
    def test_import_counts(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        rc = main(["import", "--csv", str(DATA / "toolsweep_table.csv"),
                   "--store", str(store_path), "--family", "svt-av1",
                   "--preset", "10", "--passes", "1", "--tbr", "4000"])
        assert rc == 0
        assert "imported 10 records" in capsys.readouterr().out
        recs = store.load(store_path)
        assert len(recs) == 10
        tf = [r for r in recs if r.clip_id == "--enable-tf 0"]
        assert tf[0].measured_kbps == 3574.181

    def test_scenario_from_summaries(self, capsys):
        rc = main(["scenario", "--id", "S1", "--from-summaries",
                   str(DATA / "summary_s1.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "svt-av1: 2 @ 1-pass" in out
        assert "x265: veryslow @ 2-pass" in out

    def test_scenario_s3_budget(self, capsys):
        rc = main(["scenario", "--id", "S3", "--from-summaries",
                   str(DATA / "summary_s3.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x265: ultrafast @ 1-pass" in out

    def test_scenario_from_store(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        rc = main(["scenario", "--id", "S1", "--store", str(store_path),
                   "--threshold", "70"])
        assert rc == 0
        assert "scenario S1:" in capsys.readouterr().out


class TestAnalytics:
    def test_bdrate_between_configs(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        rc = main(["bdrate", "--store", str(store_path),
                   "--anchor", "x264:medium:1", "--test", "svt-av1:6:1",
                   "--ladder", LADDER])
        assert rc == 0
        out = capsys.readouterr().out
        assert "BD-rate(vmaf)" in out
        value = float(re.search(r"([+-]\d+\.\d+)%", out).group(1))
        assert value < 0  # cheaper config saves bitrate

    def test_bdrate_smart_method(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        rc = main(["bdrate", "--store", str(store_path),
                   "--anchor", "x264:medium:1", "--test", "svt-av1:6:1",
                   "--method", "smart", "--ladder", LADDER])
        assert rc == 0
        assert "smart" in capsys.readouterr().out

    def test_bdrate_csv_export(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        out = tmp_path / "result.csv"
        rc = main(["bdrate", "--store", str(store_path),
                   "--anchor", "x264:medium:1", "--test", "svt-av1:6:1",
                   "--ladder", LADDER, "--csv", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("anchor,test,metric,bd_percent")
        assert lines[1].startswith("x264:medium:1,svt-av1:6:1,vmaf,")

    def test_classic_interval_is_labelled_a_span(self, tmp_path, capsys):
        # clip "lo" lives below VMAF 20 and clip "hi" above 60 on both
        # sides, so no quality interval is shared by the two clips
        store_path = tmp_path / "s.jsonl"
        for clip, scale in (("lo", 40000.0), ("hi", 500.0)):
            records = make_records([clip], "x264", "medium", 1,
                                   (500, 1000, 2000, 4000), scale_base=scale)
            records += make_records([clip], "svt-av1", "6", 1,
                                    (500, 1000, 2000, 4000), rate_factor=0.75,
                                    efficiency=1 / 0.75, scale_base=scale)
            for rec in records:
                store.append(store_path, rec)
        out_csv = tmp_path / "classic.csv"
        rc = main(["bdrate", "--store", str(store_path),
                   "--anchor", "x264:medium:1", "--test", "svt-av1:6:1",
                   "--ladder", "500,1000,2000,4000", "--csv", str(out_csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap [" not in out
        lo, hi = map(float, re.search(
            r"quality span of the included clips \[([\d.]+), ([\d.]+)\]",
            out).groups())
        assert lo < 20.0 and hi > 60.0
        assert "classic mean over 2 clips" in out
        header = out_csv.read_text().splitlines()[0]
        assert header == ("anchor,test,metric,bd_percent,span_q_low,span_q_high,"
                          "n_anchor,n_test")

        out_csv = tmp_path / "smart.csv"
        rc = main(["bdrate", "--store", str(store_path),
                   "--anchor", "x264:medium:1", "--test", "svt-av1:6:1",
                   "--ladder", "500,1000,2000,4000", "--method", "smart",
                   "--csv", str(out_csv)])
        assert rc == 0
        assert "  overlap [" in capsys.readouterr().out
        assert ",q_low,q_high," in out_csv.read_text().splitlines()[0]

    def test_curves_csv(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        rc = main(["curves", "--store", str(store_path),
                   "--config", "x264:medium:1", "--ladder", LADDER])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,q,rate_kbps"
        assert len(lines) == 6  # header + 5 rungs

    def test_grid_stdout(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        rc = main(["grid", "--store", str(store_path),
                   "--configs", "x264:medium:1,svt-av1:6:1",
                   "--ladder", LADDER])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("anchor\\test,")

    def test_missing_store_is_data_error(self, capsys):
        rc = main(["bdrate", "--anchor", "a:b:1", "--test", "c:d:1"])
        assert rc == 2

    def test_overlap_failure_is_data_error(self, tmp_path):
        store_path = tmp_path / "s.jsonl"
        for rec in make_records(["c"], "x264", "medium", 1, (500, 1000),
                                scale_base=200.0):
            store.append(store_path, rec)
        for rec in make_records(["c"], "x264", "fast", 1, (500, 1000),
                                scale_base=80000.0):
            store.append(store_path, rec)
        rc = main(["bdrate", "--store", str(store_path),
                   "--anchor", "x264:medium:1", "--test", "x264:fast:1",
                   "--ladder", "500,1000"])
        assert rc == 2


class TestComplexityCommand:
    def test_complexity_outputs(self, tmp_path, capsys):
        header = y4m.make_header(32, 32)
        frames = y4m.synthetic_clip(header, 3, seed=5)
        clip = tmp_path / "tiny.y4m"
        with open(clip, "wb") as f:
            y4m.write_clip(header, frames, f)
        rows = tmp_path / "cx.jsonl"
        csv_path = tmp_path / "scatter.csv"
        rc = main(["complexity", "--clips", str(clip), "--out", str(rows),
                   "--scatter-csv", str(csv_path)])
        assert rc == 0
        row = json.loads(rows.read_text().splitlines()[0])
        assert row["clip"] == "tiny"
        assert row["frames"] == 3
        assert csv_path.read_text().startswith("clip_id,clip_se,clip_te")

    def test_bad_clip_keeps_finished_clips(self, tmp_path, capsys):
        header = y4m.make_header(32, 32)
        clips = []
        for name, n_frames in (("a_good", 3), ("b_cut", 2), ("c_good", 2)):
            path = tmp_path / f"{name}.y4m"
            with open(path, "wb") as f:
                y4m.write_clip(header, y4m.synthetic_clip(header, n_frames), f)
            clips.append(path)
        data = clips[1].read_bytes()
        clips[1].write_bytes(data[:-100])  # truncate the last frame
        rows = tmp_path / "cx.jsonl"
        csv_path = tmp_path / "scatter.csv"
        rc = main(["complexity", "--clips", ",".join(map(str, clips)),
                   "--out", str(rows), "--scatter-csv", str(csv_path)])
        assert rc == 2
        written = [json.loads(line) for line in rows.read_text().splitlines()]
        assert [(r["clip"], r["frames"]) for r in written] == [
            ("a_good", 3), ("c_good", 2)]
        assert csv_path.read_text().splitlines()[1:] == [
            f"{r['clip']},{r['clip_se']:.9g},{r['clip_te']:.9g}" for r in written]
        err = capsys.readouterr().err
        assert re.search(r"^b_cut: error: .*truncated", err, re.M)


class TestReportCommand:
    def test_full_report(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        out_dir = tmp_path / "out"
        rc = main(["report", "--store", str(store_path), "--out", str(out_dir),
                   "--scenarios", "S1,S2", "--ladder", LADDER])
        assert rc == 0
        names = {p.name for p in out_dir.iterdir()}
        assert "report.txt" in names
        assert "grid-bd-classic.csv" in names
        assert "grid-time.csv" in names
        assert "rd-S1.svg" in names


class TestEnvironmentErrors:
    def test_vmaf_without_ffmpeg_is_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
        rc = main(["vmaf", "--ref", "a.y4m", "--dist", "b.mp4"])
        assert rc == 3

    def test_encode_without_binaries_is_exit_3(self, tmp_path, monkeypatch):
        header = y4m.make_header(8, 8)
        clip = tmp_path / "c.y4m"
        with open(clip, "wb") as f:
            y4m.write_clip(header, y4m.synthetic_clip(header, 2), f)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
        rc = main(["encode", "--clips", str(clip), "--families", "x264",
                   "--presets", "medium", "--passes", "1", "--ladder", "100",
                   "--store", str(tmp_path / "s.jsonl"),
                   "--work-dir", str(tmp_path / "w")])
        assert rc == 3


def test_cli_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c",
         "import rdgauge.cli, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": path}, check=True)
