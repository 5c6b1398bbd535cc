import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import make_header, make_records, synthetic_clip, write_clip
from rdgauge import complexity as cx_mod
from rdgauge import store
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

    def test_default_maxrate_factor_is_the_encoders_default(self, capsys):
        argv = ["plan", "--clips", "a", "--families", "x264,svt-av1",
                "--passes", "1,2", "--ladder", "1000,8000", "--show", "40"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--maxrate-factor", "1.2"]) == 0
        assert capsys.readouterr().out == default
        assert "-maxrate 9600k" in default

    def test_usage_error_exit_code(self):
        assert main(["plan"]) == 2 or main(["plan", "--clips", ""]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_work_dir_env_is_read_per_call(self, tmp_path, monkeypatch,
                                           capsys):
        argv = ["plan", "--clips", "a", "--families", "x264", "--presets",
                "medium", "--passes", "1", "--ladder", "8000", "--show", "1"]
        for name in ("first", "second"):
            work = str(tmp_path / name)
            monkeypatch.setenv("RDGAUGE_WORK_DIR", work)
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert f" {work}/" in out
            assert str(tmp_path / ("second" if name == "first" else "first")
                       ) not in out
        assert main(argv + ["--work-dir", str(tmp_path / "flag")]) == 0
        assert f" {tmp_path / 'flag'}/" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["plan", "encode"])
    @pytest.mark.parametrize("passes", ["x", "1,,2", ""])
    def test_bad_pass_list_is_a_data_error(self, tmp_path, capsys, command,
                                           passes):
        store_path = tmp_path / "s.jsonl"
        argv = [command, "--clips", "a", "--families", "x264", "--passes",
                passes]
        if command == "encode":
            argv += ["--store", str(store_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: bad pass list {passes!r}\n"
        assert not store_path.exists()

    def test_valid_call_after_usage_error(self, capsys):
        assert main(["plan", "--show", "x"]) == 1
        assert main(["plan", "--clips", "a", "--families", "x264",
                     "--passes", "1", "--ladder", "1000"]) == 0
        assert "planned 6 jobs" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["scenario", "--from-summaries", "s.csv", "--threshold", "-1"],
    ["scenario", "--from-summaries", "s.csv", "--overshoot", "0"],
    ["scenario", "--from-summaries", "s.csv", "--checkpoint", "0"],
    ["report", "--store", "{store}", "--out", "{out}", "--threshold", "-1"],
    ["encode", "--clips", "a", "--families", "svt-av1", "--store", "{store}",
     "--binary-dir", "{bin}", "--jobs", "-1"],
    ["plan", "--clips", "a", "--families", "x264", "--show", "-1"],
    ["scenario", "--from-summaries", "s.csv", "--budget-hours", "-5"],
    ["report", "--store", "{store}", "--out", "{out}", "--budget-hours", "0"],
    ["scenario", "--from-summaries", "s.csv", "--slack-points", "-1"],
    ["plan", "--clips", "a", "--families", "x264", "--maxrate-factor", "-1"],
    ["encode", "--clips", "a", "--families", "svt-av1", "--store", "{store}",
     "--binary-dir", "{bin}", "--maxrate-factor", "inf"],
    ["plan", "--clips", "a", "--families", "x264", "--maxrate-factor", "nan"],
    ["vmaf", "--ref", "r.y4m", "--dist", "d.mp4", "--expected-frames", "0"],
    ["vmaf", "--ref", "r.y4m", "--dist", "d.mp4", "--expected-frames", "-5"],
], ids=["threshold", "overshoot", "checkpoint", "report-threshold", "jobs",
        "show", "budget", "report-budget", "slack", "maxrate", "maxrate-inf",
        "maxrate-nan", "expected-frames-0", "expected-frames-negative"])
def test_out_of_range_option_is_a_usage_error(tmp_path, capsys, argv):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "SvtAv1EncApp").write_text("#!/bin/sh\n")
    _fill_store(tmp_path / "s.jsonl")
    argv = [a.format(store=tmp_path / "s.jsonl", out=tmp_path / "out",
                     bin=bin_dir) for a in argv]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {argv[-2]}: must be" in errors[0]
    assert out == ""


def test_method_is_an_option_of_the_bd_commands_only(tmp_path, capsys):
    """``--method`` picks how ``bdrate``, ``grid`` and ``report`` compute
    BD-Rate; ``curves`` computes none, so it takes no ``--method``."""
    store_path = tmp_path / "s.jsonl"
    _fill_store(store_path)
    common = ["--store", str(store_path), "--method", "smart"]
    assert main(["curves", *common, "--config", "x264:medium:1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --method smart" in err
    assert main(["bdrate", *common, "--anchor", "x264:medium:1",
                 "--test", "svt-av1:6:1"]) == 0
    assert main(["grid", *common, "--configs",
                 "x264:medium:1,svt-av1:6:1"]) == 0
    assert main(["report", *common, "--out", str(tmp_path / "r")]) == 0


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

    def test_import_names_a_missing_column(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("label,kbps,vmaf\ncfg,1000,90\n")
        rc = main(["import", "--csv", str(table), "--store",
                   str(tmp_path / "s.jsonl"), "--family", "x264",
                   "--preset", "medium", "--passes", "1", "--tbr", "4000"])
        assert rc == 2
        assert "no 'psnr_y' column" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("family,preset", [("x:y", "z"), ("x", "y:z")])
    def test_import_refuses_a_config_no_command_can_name(
            self, tmp_path, capsys, family, preset):
        store_path = tmp_path / "s.jsonl"
        rc = main(["import", "--csv", str(DATA / "toolsweep_table.csv"),
                   "--store", str(store_path), "--family", family,
                   "--preset", preset, "--passes", "1", "--tbr", "4000"])
        assert rc == 2
        assert "'x:y:z:1p'" in capsys.readouterr().err
        assert not store_path.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda t: t.replace("n_above,", ""),
         "summary line 2: no 'n_above' column"),
        (lambda t: t.replace("x264,veryslow,2,", "x264,veryslow,one,"),
         "summary line 3: passes must be an integer, got 'one'")])
    def test_bad_summary_is_data_error(self, tmp_path, capsys, edit, message):
        summaries = tmp_path / "s.csv"
        summaries.write_text(edit((DATA / "summary_s1.csv").read_text()))
        rc = main(["scenario", "--id", "S1", "--from-summaries",
                   str(summaries)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["scenario", "--id", "S1"],
        ["curves", "--config", "x264:medium:1", "--per-clip"],
        ["curves", "--config", "x264:medium:1"]])
    @pytest.mark.parametrize("field,value", [("kbps", None), ("vmaf", "91.5")])
    def test_wrong_typed_measurement_is_data_error(self, tmp_path, capsys,
                                                   command, field, value):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        lines = store_path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        row[field] = value
        lines[1] = json.dumps(row) + "\n"
        store_path.write_text("".join(lines))
        rc = main([*command, "--store", str(store_path)])
        assert rc == 2
        assert (f"malformed line 2: {field} must be"
                in capsys.readouterr().err)


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

    def test_bdrate_loads_the_store_once(self, tmp_path, capsys, monkeypatch):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        loads = []
        real_load = store.load

        def counting_load(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(store, "load", counting_load)
        rc = main(["bdrate", "--store", str(store_path),
                   "--anchor", "x264:medium:1", "--test", "svt-av1:6:1",
                   "--ladder", LADDER])
        assert rc == 0
        assert len(loads) == 1

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

    @staticmethod
    def _three_line_store(path, **middle):
        """Two good lines around one that repeats the first line's key,
        with ``middle``'s fields replaced."""
        first = {"clip": "a", "family": "x264", "preset": "medium",
                 "passes": 1, "tbr_kbps": 500.0, "kbps": 500.0, "vmaf": 30.0,
                 "ts": "2026-01-01T00:00:00"}
        lines = [first, {**first, "vmaf": 31.0, **middle},
                 {**first, "tbr_kbps": 1000.0, "kbps": 1000.0, "vmaf": 40.0}]
        path.write_text("".join(json.dumps(row) + "\n" for row in lines))

    @pytest.mark.parametrize("ts", [None, 5, 1.5])
    def test_duplicate_key_with_non_string_ts_is_data_error(self, tmp_path,
                                                             capsys, ts):
        store_path = tmp_path / "s.jsonl"
        self._three_line_store(store_path, ts=ts)
        rc = main(["curves", "--store", str(store_path),
                   "--config", "x264:medium:1", "--per-clip"])
        assert rc == 2
        assert "malformed line 2: ts must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["clip", "family", "tbr_kbps"])
    def test_list_key_field_is_data_error(self, tmp_path, capsys, field):
        store_path = tmp_path / "s.jsonl"
        self._three_line_store(store_path, **{field: ["a"]})
        rc = main(["curves", "--store", str(store_path),
                   "--config", "x264:medium:1", "--per-clip"])
        assert rc == 2
        assert f"malformed line 2: {field} must be" in capsys.readouterr().err

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

    def test_per_clip_ids_are_quoted(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        for clip in ("a,b", 'say "hi"', "plain"):
            for rec in make_records([clip], "x264", "medium", 1,
                                    (500, 1000, 2000)):
                store.append(store_path, rec)
        rc = main(["curves", "--store", str(store_path),
                   "--config", "x264:medium:1", "--per-clip"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["id", "q", "rate_kbps"]
        assert {len(row) for row in rows} == {3}
        assert [row[0] for row in rows[1:]] == (
            ["a,b"] * 3 + ["plain"] * 3 + ['say "hi"'] * 3)
        assert '\nplain,' in out and '\n"a,b",' in out


class TestComplexityCommand:
    def test_complexity_outputs(self, tmp_path, capsys):
        header = make_header(32, 32)
        frames = synthetic_clip(header, 3, seed=5)
        clip = tmp_path / "tiny.y4m"
        write_clip(header, frames, clip)
        rows = tmp_path / "cx.jsonl"
        csv_path = tmp_path / "scatter.csv"
        rc = main(["complexity", "--clips", str(clip), "--out", str(rows),
                   "--scatter-csv", str(csv_path)])
        assert rc == 0
        row = json.loads(rows.read_text().splitlines()[0])
        assert row["clip"] == "tiny"
        assert row["frames"] == 3
        assert csv_path.read_text().startswith("clip_id,clip_se,clip_te")

    def test_scatter_csv_quotes_clip_ids(self, tmp_path, capsys):
        header = make_header(32, 32)
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        for name in ("a,b", 'q"t', "plain"):
            write_clip(header, synthetic_clip(header, 2),
                       clips_dir / f"{name}.y4m")
        rows = tmp_path / "cx.jsonl"
        csv_path = tmp_path / "scatter.csv"
        rc = main(["complexity", "--clips-dir", str(clips_dir),
                   "--out", str(rows), "--scatter-csv", str(csv_path)])
        assert rc == 0
        written = [json.loads(line) for line in rows.read_text().splitlines()]
        with open(csv_path, newline="", encoding="utf-8") as f:
            read_back = list(csv.reader(f))
        assert read_back == [["clip_id", "clip_se", "clip_te"]] + [
            [r["clip"], f"{r['clip_se']:.9g}", f"{r['clip_te']:.9g}"]
            for r in written]
        assert [r[0] for r in read_back[1:]] == ["a,b", "plain", 'q"t']
        text = csv_path.read_text(encoding="utf-8")
        assert text.splitlines()[2].startswith("plain,")
        assert '"q""t",' in text

    def test_bad_clip_keeps_finished_clips(self, tmp_path, capsys):
        header = make_header(32, 32)
        clips = []
        for name, n_frames in (("a_good", 3), ("b_cut", 2), ("c_good", 2)):
            path = tmp_path / f"{name}.y4m"
            write_clip(header, synthetic_clip(header, n_frames), path)
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

    def test_forged_frame_size_fails_only_its_clip(self, tmp_path, capsys):
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        header = make_header(32, 32)
        write_clip(header, synthetic_clip(header, 2), clips_dir / "ok.y4m")
        forged = b"YUV4MPEG2 W2000000 H2000000 F30:1 Ip A1:1 C420jpeg\nFRAME\n"
        (clips_dir / "forged.y4m").write_bytes(forged + bytes(160 - len(forged)))
        rows = tmp_path / "cx.jsonl"
        rc = main(["complexity", "--clips-dir", str(clips_dir),
                   "--out", str(rows)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert re.search(r"^ok: SE=.* frames=2$", out, re.M)
        assert err == ("forged: error: frame payload truncated: "
                       "103 of 6000000000000 bytes\n")
        assert [json.loads(line)["clip"]
                for line in rows.read_text().splitlines()] == ["ok"]

    def test_forged_frame_size_on_stdin_exits_2(self, tmp_path):
        forged = b"YUV4MPEG2 W2000000 H2000000 F30:1 Ip A1:1 C420jpeg\nFRAME\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "rdgauge.cli", "complexity", "--clips",
             "/dev/stdin"], input=forged + bytes(160 - len(forged)),
            env={**os.environ, "PYTHONPATH": path}, capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (
            "stdin: error: frame payload truncated: 103 of 6000000000000 "
            "bytes\n")

    def _run_with_cpus(self, monkeypatch, capsys, clips_dir, work, cpus):
        monkeypatch.setattr(cx_mod, "available_cpus", lambda: cpus)
        work.mkdir()
        rows, scatter = work / "cx.jsonl", work / "scatter.csv"
        rc = main(["complexity", "--clips-dir", str(clips_dir), "--out",
                   str(rows), "--scatter-csv", str(scatter)])
        out, err = capsys.readouterr()
        return rc, out, err, rows.read_bytes(), scatter.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch,
                                                 capsys):
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        for n, size in enumerate([(64, 32), (32, 32), (96, 64), (64, 64),
                                  (32, 64)]):
            header = make_header(*size)
            path = clips_dir / f"c{n}.y4m"
            write_clip(header, synthetic_clip(header, 3, seed=n), path)
        bad = clips_dir / "c2.y4m"
        bad.write_bytes(bad.read_bytes()[:-50])  # the middle clip is cut
        one = self._run_with_cpus(monkeypatch, capsys, clips_dir,
                                  tmp_path / "one", 1)
        three = self._run_with_cpus(monkeypatch, capsys, clips_dir,
                                    tmp_path / "three", 3)
        assert one == three
        rc, out, err, rows, _ = one
        assert rc == 2
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "c0", "c1", "c3", "c4"]
        assert re.fullmatch(r"c2: error: frame payload truncated: .*\n", err)
        assert len(rows.splitlines()) == 4

    def test_fresh_process_matches_in_process(self, tmp_path, monkeypatch,
                                              capsys):
        """A one-shot ``rdgauge complexity`` imports numpy for the first
        time on the clip pool's two threads; its output bytes are those
        of a run in this process, where numpy is loaded already."""
        clips_dir = tmp_path / "clips"
        clips_dir.mkdir()
        for n, size in enumerate([(64, 32), (96, 64)]):
            header = make_header(*size)
            write_clip(header, synthetic_clip(header, 3, seed=n),
                       clips_dir / f"c{n}.y4m")
        expected = self._run_with_cpus(monkeypatch, capsys, clips_dir,
                                       tmp_path / "here", 2)
        work = tmp_path / "fresh"
        work.mkdir()
        rows, scatter = work / "cx.jsonl", work / "scatter.csv"
        script = """
import sys
from rdgauge import cli, complexity
assert "numpy" not in sys.modules
complexity.available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script, "complexity", "--clips-dir",
             str(clips_dir), "--out", str(rows), "--scatter-csv",
             str(scatter)], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr, rows.read_bytes(),
                scatter.read_bytes()) == expected
        assert expected[0] == 0 and len(expected[3].splitlines()) == 2

    def test_unexpected_error_cancels_clips_not_started(self, tmp_path,
                                                        monkeypatch, capsys):
        names = [f"c{n}" for n in range(1, 7)]
        started = []

        def analyze(path):
            name = Path(path).stem
            started.append(name)
            if name == "c1":
                time.sleep(0.5)  # still running when c2 fails
            if name == "c2":
                raise RuntimeError("boom")
            return cx_mod.ComplexityRecord(name, (1.0,), ())

        monkeypatch.setattr(cx_mod, "available_cpus", lambda: 2)
        monkeypatch.setattr(cx_mod, "analyze_clip", analyze)
        rows = tmp_path / "cx.jsonl"
        with pytest.raises(RuntimeError, match="boom"):
            main(["complexity", "--clips", ",".join(names), "--out",
                  str(rows)])
        assert sorted(started) == ["c1", "c2"]
        assert capsys.readouterr().out.startswith("c1: SE=1.0000")
        assert not rows.exists()


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


    def test_one_summary_per_report(self, tmp_path, capsys, monkeypatch):
        from rdgauge import scenario

        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        calls = []
        original = scenario.summarize

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(scenario, "summarize", counting)
        assert main(["report", "--store", str(store_path), "--out",
                     str(tmp_path / "out"), "--ladder", LADDER]) == 0
        assert len(calls) == 1  # for the default S1,S2,S3
        assert main(["report", "--store", str(store_path), "--out",
                     str(tmp_path / "none"), "--ladder", LADDER,
                     "--scenarios", ""]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["classic", "smart"])
    def test_one_aggregate_build_per_report(self, tmp_path, capsys,
                                            monkeypatch, method):
        from rdgauge import bd, scenario

        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        builds = []
        original = bd.aggregate_curves

        def counting(*args, **kwargs):
            builds.append(list(args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(bd, "aggregate_curves", counting)
        out_dir = tmp_path / "out"
        assert main(["report", "--store", str(store_path), "--out",
                     str(out_dir), "--ladder", LADDER, "--method",
                     method]) == 0
        assert len(builds) == 1 and len(builds[0]) == 2  # the two picks
        monkeypatch.undo()
        # the grid reads as one built on its own from the store
        text = (out_dir / f"grid-bd-{method}.csv").read_text()
        labels = text.splitlines()[0].split(",")[1:]
        configs = [scenario.parse_config(label) for label in labels]
        grid = scenario.bd_grid(
            configs, scenario.group_by_config(store.load(store_path)),
            tuple(map(int, LADDER.split(","))), method)
        assert text == grid.csv()

    def test_configs_with_one_label_keep_their_own_hours(self, tmp_path,
                                                         capsys):
        # ("x:y", "z", 1) and ("x", "y:z", 1) both print as x:y:z:1p
        store_path = tmp_path / "s.jsonl"
        _import(store_path, "x:y", "z", hours=100.0)
        _import(store_path, "x", "y:z", hours=300.0)
        out_dir = tmp_path / "out"
        assert main(["report", "--store", str(store_path), "--out",
                     str(out_dir), "--scenarios", "S1"]) == 0
        rows = _csv_rows(out_dir / "grid-time.csv")
        assert rows[0] == ["anchor\\test", "x:y:z:1p", "x:y:z:1p"]
        # the picks run in family order: x (300 h), then x:y (100 h)
        assert rows[1] == ["x:y:z:1p", "0.0000", "-66.6667"]
        assert rows[2] == ["x:y:z:1p", "200.0000", "0.0000"]

    def test_grid_csv_quotes_a_label_with_a_comma(self, tmp_path, capsys):
        store_path = tmp_path / "s.jsonl"
        _fill_store(store_path)
        _import(store_path, "aws-av1", "QVBR,10", hours=10.0)
        out_dir = tmp_path / "out"
        assert main(["report", "--store", str(store_path), "--out",
                     str(out_dir), "--scenarios", "S1", "--ladder",
                     LADDER]) == 0
        for name in ("grid-time.csv", "grid-bd-classic.csv"):
            rows = _csv_rows(out_dir / name)
            assert [len(row) for row in rows] == [4] * 4, name
            assert rows[1][0] == rows[0][1] == "aws-av1:QVBR,10:1p", name


def _csv_rows(path):
    return list(csv.reader(path.read_text().splitlines()))


def _import(store_path, family, preset, hours, tbrs=(1000, 4000)):
    """Import three clips of one config at each target rate, with
    ``hours`` of encode time in all. ``store.import_table`` takes a
    family or preset holding a colon, which ``rdgauge import`` refuses."""
    seconds = hours * 3600 / (3 * len(tbrs))
    for k, tbr in enumerate(tbrs):
        rows = [(f"c{i}", tbr * (1 + 0.01 * i), 60 + 10 * k + i, 35 + k,
                 seconds) for i in range(3)]
        assert store.import_table(store_path, rows, family=family,
                                  preset=preset, passes=1,
                                  target_kbps=tbr) == 3


@pytest.mark.parametrize("argv", [
    ["curves", "--config", "x264:medium:1", "--ladder", LADDER],
    ["bdrate", "--anchor", "x264:medium:1", "--test", "svt-av1:6:1",
     "--ladder", LADDER],
    ["grid", "--configs", "x264:medium:1,svt-av1:6:1", "--ladder", LADDER],
    ["scenario", "--id", "S1"],
    ["report", "--out", "{out}", "--ladder", LADDER],
], ids=lambda argv: argv[0])
def test_each_analysis_command_groups_the_store_once(tmp_path, capsys,
                                                     monkeypatch, argv):
    from rdgauge import scenario

    store_path = tmp_path / "s.jsonl"
    _fill_store(store_path)
    built = []
    original = scenario.ConfigGroups.__init__

    def counting(self, table):
        built.append(len(table))
        original(self, table)

    monkeypatch.setattr(scenario.ConfigGroups, "__init__", counting)
    argv = [a.format(out=tmp_path / "out") for a in argv]
    assert main([*argv, "--store", str(store_path)]) == 0
    assert built == [30]  # the 30 records of the store, grouped once


def test_grid_configs_is_one_csv_row(tmp_path, capsys):
    store_path = tmp_path / "s.jsonl"
    _fill_store(store_path)
    _import(store_path, "aws-av1", "QVBR,10", hours=10.0)
    argv = ["grid", "--store", str(store_path), "--ladder", LADDER,
            "--configs"]
    assert main([*argv, '"aws-av1:QVBR,10:1",x264:medium:1']) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert rows[0] == ["anchor\\test", "aws-av1:QVBR,10:1p",
                       "x264:medium:1p"]
    assert main([*argv, "x264:medium:1\nsvt-av1:6:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad config list") and "Traceback" not in err


def test_bdrate_csv_quotes_a_config_with_a_comma(tmp_path, capsys):
    store_path = tmp_path / "s.jsonl"
    _fill_store(store_path)
    _import(store_path, "aws-av1", "QVBR,10", hours=10.0)
    out = tmp_path / "result.csv"
    assert main(["bdrate", "--store", str(store_path), "--anchor",
                 "aws-av1:QVBR,10:1", "--test", "x264:medium:1", "--ladder",
                 LADDER, "--csv", str(out)]) == 0
    rows = _csv_rows(out)
    assert [len(row) for row in rows] == [8, 8]
    assert rows[1][:3] == ["aws-av1:QVBR,10:1", "x264:medium:1", "vmaf"]


@pytest.mark.parametrize("options, workers", [
    (["--jobs", "8", "--timing-strict"], 1),
    (["--jobs", "8"], 8),
    (["--timing-strict"], 1),
    ([], None),
], ids=["jobs-8-timing-strict", "jobs-8", "timing-strict", "default"])
def test_timing_strict_runs_one_worker(tmp_path, capsys, monkeypatch,
                                       options, workers):
    from rdgauge import runner

    seen = []

    def run_plan(jobs, **kwargs):
        seen.append(kwargs["workers"])
        return []

    monkeypatch.setattr(runner, "run_plan", run_plan)
    assert main(["encode", "--clips", "a", "--families", "x264",
                 "--presets", "medium", "--passes", "1", "--ladder", "100",
                 "--store", str(tmp_path / "s.jsonl"), *options]) == 0
    assert seen == [workers]


class TestEnvironmentErrors:
    def test_vmaf_without_ffmpeg_is_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
        rc = main(["vmaf", "--ref", "a.y4m", "--dist", "b.mp4"])
        assert rc == 3

    def test_encode_without_binaries_is_exit_3(self, tmp_path, monkeypatch):
        header = make_header(8, 8)
        clip = tmp_path / "c.y4m"
        write_clip(header, synthetic_clip(header, 2), clip)
        monkeypatch.setenv("PATH", str(tmp_path))
        monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
        rc = main(["encode", "--clips", str(clip), "--families", "x264",
                   "--presets", "medium", "--passes", "1", "--ladder", "100",
                   "--store", str(tmp_path / "s.jsonl"),
                   "--work-dir", str(tmp_path / "w")])
        assert rc == 3

    def test_encode_with_non_executable_binary_is_exit_3(self, tmp_path,
                                                         monkeypatch, capsys):
        header = make_header(8, 8)
        clip = tmp_path / "c.y4m"
        write_clip(header, synthetic_clip(header, 2), clip)
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "ffmpeg").write_text("#!/bin/sh\n")  # mode 644
        monkeypatch.setenv("PATH", str(tmp_path / "nowhere"))
        monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
        rc = main(["encode", "--clips", str(clip), "--families", "x264",
                   "--presets", "medium", "--passes", "1", "--ladder", "100",
                   "--binary-dir", str(bin_dir),
                   "--store", str(tmp_path / "s.jsonl"),
                   "--work-dir", str(tmp_path / "w")])
        assert rc == 3
        assert "environment error" in capsys.readouterr().err
        assert not (tmp_path / "s.jsonl").exists()


def test_cli_import_does_not_load_scipy(tmp_path):
    """The start-up contract: ``import rdgauge.cli`` and the array-free
    commands (``plan``, ``import``, ``--help``, a usage error) load
    neither numpy nor scipy, and no rdgauge module imported alone loads
    numpy; the array modules import it on first use."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = f"""
import importlib, pkgutil, sys

def check(what):
    loaded = [m for m in ("numpy", "scipy") if m in sys.modules]
    assert not loaded, f"{{what}} loaded {{loaded}}"

import rdgauge.cli
check("import rdgauge.cli")
from rdgauge.cli import main
assert main(["plan", "--clips", "a", "--show", "1"]) == 0
check("plan")
assert main(["import", "--csv", {str(DATA / "toolsweep_table.csv")!r},
             "--store", {str(tmp_path / "s.jsonl")!r}, "--family",
             "svt-av1", "--preset", "10", "--passes", "1",
             "--tbr", "4000"]) == 0
check("import")
for argv, code in ((["--help"], 0), (["grid"], 1)):
    assert main(argv) == code, argv
    check(" ".join(argv))
import rdgauge
for info in pkgutil.iter_modules(rdgauge.__path__):
    for name in [n for n in sys.modules if n.startswith("rdgauge.")]:
        del sys.modules[name]
    importlib.import_module("rdgauge." + info.name)
    check("import rdgauge." + info.name)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_grid_and_curves_do_not_load_numpy_ma(tmp_path):
    """A bare np.unique imports numpy.ma (about 14 ms) on first use."""
    store_path = tmp_path / "s.jsonl"
    _fill_store(store_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    script = f"""
import sys
from rdgauge.cli import main
store = {str(store_path)!r}
assert main(["grid", "--store", store, "--configs",
             "x264:medium:1,svt-av1:6:1", "--method", "classic"]) == 0
assert main(["curves", "--store", store, "--config", "x264:medium:1",
             "--per-clip"]) == 0
assert "numpy.ma" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", script],
                   env={**os.environ, "PYTHONPATH": path}, check=True,
                   capture_output=True)


def test_log_level_option(tmp_path):
    """-v and --log-level turn on log output; without them stderr stays
    as it was."""
    store_path = tmp_path / "s.jsonl"
    _fill_store(store_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(*options):
        # rewrite the store's first record in place, so the index no longer
        # matches and the store logs its full parse at INFO level
        data = store_path.read_bytes()
        swap = (b"x264", b"x265") if b"x264" in data[:200] else (b"x265", b"x264")
        store_path.write_bytes(data.replace(*swap, 1))
        return subprocess.run(
            [sys.executable, "-m", "rdgauge.cli", *options, "curves",
             "--store", str(store_path), "--config", "svt-av1:6:1",
             "--ladder", LADDER],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, check=True)

    store.load(store_path)
    quiet = run()
    assert quiet.stderr == ""
    for options in (["-v"], ["--log-level", "debug"]):
        loud = run(*options)
        assert loud.stdout == quiet.stdout
        assert re.search(r"^INFO rdgauge\.store: .*parsing it in full$",
                         loud.stderr, re.M)
    assert run("--log-level", "WARNING").stderr == ""
    assert main(["--log-level", "loud", "curves", "--config", "a:b:1"]) == 1
