import json
import os
import stat
import sys
from collections import Counter

import pytest

from rdgauge import runner, store, y4m
from rdgauge.cli import main
from rdgauge.encoders import EncodeJob
from rdgauge.errors import MetricError, MetricParseError, MissingBinaryError

FAKE_FFMPEG = """#!/bin/sh
dir="$(dirname "$0")"
[ $# -le 1 ] && exit 0  # version probe, write nothing
echo "$@" >> "$dir/calls.log"
if [ -e "$dir/fail_marker" ]; then
  echo "simulated encoder failure" >&2
  exit 1
fi
for last; do :; done
head -c 10000 /dev/zero > "$last"
"""


@pytest.fixture
def fake_bin(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name in ("ffmpeg", "SvtAv1EncApp"):
        path = bin_dir / name
        path.write_text(FAKE_FFMPEG)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return bin_dir


def _write_clip(path, n_frames):
    header = y4m.make_header(8, 8, fps_num=24)
    with open(path, "wb") as f:
        y4m.write_clip(header, y4m.synthetic_clip(header, n_frames, seed=1), f)
    return path


@pytest.fixture
def small_clip(tmp_path):
    # 48 frames at 24 fps -> exactly 2 seconds
    return _write_clip(tmp_path / "clip.y4m", 48)


@pytest.fixture
def empty_clip(tmp_path):
    return _write_clip(tmp_path / "empty.y4m", 0)


def _job(small_clip, **kw):
    base = dict(clip_id="clip", family="x264", preset="ultrafast", passes=1,
                target_kbps=100, input_path=str(small_clip))
    base.update(kw)
    return EncodeJob(**base)


class TestExecute:
    def test_ok_outcome_and_record(self, fake_bin, small_clip, tmp_path):
        store_path = tmp_path / "s.jsonl"
        outcome = runner.execute(
            _job(small_clip), work_dir=tmp_path / "w", bin_dir=fake_bin,
            store_path=store_path)
        assert outcome.status == "ok"
        assert outcome.output_bytes == 10000
        # 10000 bytes over 2 s -> 40 kb/s
        assert outcome.measured_kbps == pytest.approx(40.0)
        assert len(outcome.wall_seconds) == 1
        recs = store.load(store_path)
        assert len(recs) == 1
        assert recs[0].measured_kbps == pytest.approx(40.0)
        assert recs[0].vmaf is None

    def test_rerun_is_skipped_and_store_unchanged(self, fake_bin, small_clip,
                                                  tmp_path):
        store_path = tmp_path / "s.jsonl"
        kw = dict(work_dir=tmp_path / "w", bin_dir=fake_bin,
                  store_path=store_path)
        runner.execute(_job(small_clip), **kw)
        before = (tmp_path / "s.jsonl").read_text()
        outcome = runner.execute(_job(small_clip), **kw)
        assert outcome.status == "skipped"
        assert (tmp_path / "s.jsonl").read_text() == before

    def test_force_reruns(self, fake_bin, small_clip, tmp_path):
        store_path = tmp_path / "s.jsonl"
        kw = dict(work_dir=tmp_path / "w", bin_dir=fake_bin,
                  store_path=store_path)
        runner.execute(_job(small_clip), **kw)
        outcome = runner.execute(_job(small_clip), force=True, **kw)
        assert outcome.status == "ok"
        assert len(store.load(store_path)) == 1  # keep-latest dedupe

    def test_two_pass_runs_two_processes(self, fake_bin, small_clip, tmp_path):
        outcome = runner.execute(
            _job(small_clip, passes=2), work_dir=tmp_path / "w",
            bin_dir=fake_bin)
        assert outcome.status == "ok"
        assert len(outcome.wall_seconds) == 2
        calls = (fake_bin / "calls.log").read_text().splitlines()
        assert len(calls) == 2
        assert "-pass 1" in calls[0]
        assert "-pass 2" in calls[1]

    def test_pass1_failure_stops_chain(self, fake_bin, small_clip, tmp_path):
        (fake_bin / "fail_marker").touch()
        outcome = runner.execute(
            _job(small_clip, passes=2), work_dir=tmp_path / "w",
            bin_dir=fake_bin)
        assert outcome.status == "failed"
        assert "simulated encoder failure" in outcome.stderr_tail
        calls = (fake_bin / "calls.log").read_text().splitlines()
        assert len(calls) == 1  # pass 2 never attempted

    def test_failed_job_not_persisted(self, fake_bin, small_clip, tmp_path):
        (fake_bin / "fail_marker").touch()
        store_path = tmp_path / "s.jsonl"
        runner.execute(_job(small_clip), work_dir=tmp_path / "w",
                       bin_dir=fake_bin, store_path=store_path)
        assert store.load(store_path) == []

    def test_passlog_cleaned_on_success(self, fake_bin, small_clip, tmp_path):
        work = tmp_path / "w"
        runner.execute(_job(small_clip, passes=2), work_dir=work,
                       bin_dir=fake_bin)
        assert not list(work.glob("*.log*"))

    def test_missing_binary_is_environment_error(self, small_clip, tmp_path):
        empty_bin = tmp_path / "nobin"
        empty_bin.mkdir()
        old_path = os.environ.get("PATH", "")
        os.environ["PATH"] = str(empty_bin)
        try:
            with pytest.raises(MissingBinaryError):
                runner.execute(_job(small_clip), work_dir=tmp_path / "w",
                               bin_dir=empty_bin)
        finally:
            os.environ["PATH"] = old_path

    def test_svt_single_invocation(self, fake_bin, small_clip, tmp_path):
        outcome = runner.execute(
            _job(small_clip, family="svt-av1", preset="10", passes=2),
            work_dir=tmp_path / "w", bin_dir=fake_bin)
        assert outcome.status == "ok"
        assert len(outcome.wall_seconds) == 1

    def test_container_bitrate_mismatch_warns(self, fake_bin, small_clip,
                                              tmp_path, caplog):
        # fake ffprobe reports 100 kb/s; measured will be 40 kb/s
        probe = fake_bin / "ffprobe"
        probe.write_text('#!/bin/sh\n'
                         'echo \'{"format": {"bit_rate": "100000"}}\'\n')
        probe.chmod(probe.stat().st_mode | stat.S_IEXEC)
        with caplog.at_level("WARNING"):
            outcome = runner.execute(_job(small_clip), work_dir=tmp_path / "w",
                                     bin_dir=fake_bin)
        assert outcome.status == "ok"
        assert any("container-reported" in r.message for r in caplog.records)

    def test_zero_frame_clip_fails_without_spawning(self, fake_bin, empty_clip,
                                                    tmp_path):
        store_path = tmp_path / "s.jsonl"
        outcome = runner.execute(_job(empty_clip), work_dir=tmp_path / "w",
                                 bin_dir=fake_bin, store_path=store_path)
        assert outcome.status == "failed"
        assert outcome.reason.startswith("clip has no frames")
        assert not (fake_bin / "calls.log").exists()
        assert store.load(store_path) == []

    def test_encoder_exit_status_is_the_reason(self, fake_bin, small_clip,
                                               tmp_path):
        (fake_bin / "fail_marker").touch()
        outcome = runner.execute(_job(small_clip), work_dir=tmp_path / "w",
                                 bin_dir=fake_bin)
        assert outcome.reason == "ffmpeg exited with status 1"


class TestRunPlan:
    def test_parallel_plan(self, fake_bin, small_clip, tmp_path):
        jobs = [_job(small_clip, target_kbps=tbr) for tbr in (100, 200, 300)]
        store_path = tmp_path / "s.jsonl"
        outcomes = runner.run_plan(
            jobs, workers=3, work_dir=tmp_path / "w", bin_dir=fake_bin,
            store_path=store_path)
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert len(store.load(store_path)) == 3

    def test_timing_strict_serialises(self, fake_bin, small_clip, tmp_path):
        jobs = [_job(small_clip, target_kbps=tbr) for tbr in (100, 200)]
        outcomes = runner.run_plan(
            jobs, workers=8, timing_strict=True, work_dir=tmp_path / "w",
            bin_dir=fake_bin)
        assert all(o.status == "ok" for o in outcomes)

    def test_resumed_plan_skips_completed_jobs(self, fake_bin, small_clip,
                                               tmp_path):
        jobs = [_job(small_clip, target_kbps=tbr) for tbr in (100, 200, 300)]
        kw = dict(work_dir=tmp_path / "w", bin_dir=fake_bin,
                  store_path=tmp_path / "s.jsonl")
        runner.run_plan(jobs[:2], **kw)
        outcomes = runner.run_plan(jobs, **kw)
        assert [o.status for o in outcomes] == ["skipped", "skipped", "ok"]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_each_clip_probed_once_per_plan(self, fake_bin, tmp_path,
                                            monkeypatch, workers):
        clips = [_write_clip(tmp_path / f"{name}.y4m", 24)
                 for name in ("a", "b")]
        jobs = [_job(clip, clip_id=clip.stem, target_kbps=tbr)
                for tbr in range(100, 900, 100) for clip in clips]
        probes = Counter()
        original = y4m.probe_clip

        def counting(path):
            probes[str(path)] += 1
            return original(path)

        monkeypatch.setattr(y4m, "probe_clip", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcomes = runner.run_plan(
                jobs, workers=workers, work_dir=tmp_path / "w",
                bin_dir=fake_bin, store_path=tmp_path / "s.jsonl")
        finally:
            sys.setswitchinterval(interval)
        assert [o.status for o in outcomes] == ["ok"] * 16
        assert probes == {str(clip): 1 for clip in clips}
        assert {o.measured_kbps for o in outcomes} == {80.0}  # 10000 B in 1 s

    def test_missing_output_fails_only_its_job(self, fake_bin, small_clip,
                                               tmp_path):
        # SvtAv1EncApp exits 0 without writing; ffmpeg jobs still succeed.
        silent = fake_bin / "SvtAv1EncApp"
        silent.write_text("#!/bin/sh\nexit 0\n")
        jobs = [_job(small_clip, target_kbps=100),
                _job(small_clip, family="svt-av1", preset="10"),
                _job(small_clip, target_kbps=200)]
        store_path = tmp_path / "s.jsonl"
        outcomes = runner.run_plan(jobs, workers=1, work_dir=tmp_path / "w",
                                   bin_dir=fake_bin, store_path=store_path)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert outcomes[1].reason == (
            f"encoder wrote no output {outcomes[1].output_path}")
        assert sorted(r.family for r in store.load(store_path)) == ["x264"] * 2


VMAF_LOG = {
    "frames": [{"frameNum": i, "metrics": {"vmaf": 91.0}} for i in range(48)],
    "pooled_metrics": {
        "vmaf": {"min": 80.1, "max": 99.2, "mean": 91.495,
                 "harmonic_mean": 91.2},
        "psnr_y": {"min": 45.0, "max": 55.1, "mean": 50.606,
                   "harmonic_mean": 50.5},
    },
}


class TestParseVmafLog:
    def test_pooled_means_fixture(self):
        vmaf, psnr, n = runner.parse_vmaf_log(json.dumps(VMAF_LOG))
        assert vmaf == pytest.approx(91.495)
        assert psnr == pytest.approx(50.606)
        assert n == 48

    def test_missing_pooled_section(self):
        log = {"frames": []}
        with pytest.raises(MetricParseError):
            runner.parse_vmaf_log(json.dumps(log))

    def test_not_json(self):
        with pytest.raises(MetricParseError):
            runner.parse_vmaf_log("VMAF score: 91.495")

    def test_missing_psnr(self):
        log = {"pooled_metrics": {"vmaf": {"mean": 90.0}}}
        with pytest.raises(MetricParseError):
            runner.parse_vmaf_log(json.dumps(log))


def test_measure_quality_frame_mismatch(tmp_path, monkeypatch):
    # fake ffmpeg that writes a valid metric log wherever log_path points
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "ffmpeg"
    script.write_text(
        "#!/bin/sh\n"
        "log=$(echo \"$@\" | sed 's/.*log_path=//; s/:.*//')\n"
        f"cat {tmp_path}/log.json > \"$log\"\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    (tmp_path / "log.json").write_text(json.dumps(VMAF_LOG))

    vmaf, psnr = runner.measure_quality("ref.y4m", "dist.mp4", bin_dir=bin_dir,
                                        expected_frames=48)
    assert vmaf == pytest.approx(91.495)
    assert psnr == pytest.approx(50.606)
    with pytest.raises(MetricError):
        runner.measure_quality("ref.y4m", "dist.mp4", bin_dir=bin_dir,
                               expected_frames=50)


def test_clip_duration(small_clip):
    assert runner.clip_duration_seconds(small_clip) == pytest.approx(2.0)


@pytest.mark.parametrize("bad", ["zero-frame", "truncated"])
def test_bad_clip_fails_only_its_own_jobs(fake_bin, small_clip, tmp_path,
                                          capsys, bad):
    bad_clip = _write_clip(tmp_path / "bad.y4m", 0 if bad == "zero-frame" else 3)
    if bad == "truncated":
        with open(bad_clip, "r+b") as f:
            f.truncate(bad_clip.stat().st_size - 1)
    store_path = tmp_path / "s.jsonl"
    rc = main(["encode", "--clips", f"{small_clip},{bad_clip}",
               "--families", "x264", "--presets", "medium", "--passes", "1",
               "--ladder", "100,200", "--store", str(store_path),
               "--work-dir", str(tmp_path / "w"),
               "--binary-dir", str(fake_bin)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "encoded: 2 ok, 2 failed, 0 skipped" in captured.out
    reason = "clip has no frames" if bad == "zero-frame" else "truncated"
    assert captured.err.count(reason) == 2
    assert {(r.clip_id, r.target_kbps) for r in store.load(store_path)} == {
        ("clip", 100.0), ("clip", 200.0)}
    calls = (fake_bin / "calls.log").read_text().splitlines()
    assert len(calls) == 2
    assert not any(str(bad_clip) in call for call in calls)
