import json
import math
import os
import stat
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_header, synthetic_clip, write_clip
from mutations import edits, mutate
from rdgauge import runner, store, y4m
from rdgauge.cli import main
from rdgauge.encoders import EncodeJob
from rdgauge.errors import MetricError, MetricParseError, MissingBinaryError

# Logs every call but the version probe, and copies the file named
# stderr, when there is one, to stderr. A libvmaf call writes
# vmaf.json to its log_path, or fails when its arguments contain the
# text in vmaf_fail; when they contain the first line of vmaf_odd, it
# writes the rest of vmaf_odd instead. An encode writes the bytes of the
# file named output when there is one, else 10000 zero bytes.
FAKE_FFMPEG = """#!/bin/sh
dir="$(dirname "$0")"
[ $# -le 1 ] && exit 0  # version probe, write nothing
echo "$@" >> "$dir/calls.log"
[ -e "$dir/stderr" ] && cat "$dir/stderr" >&2
log=""
for last; do
  case "$last" in
    *log_path=*) log="${last##*log_path=}"; log="${log%%:*}" ;;
  esac
done
if [ -n "$log" ]; then
  if [ -e "$dir/vmaf_fail" ]; then
    read -r bad < "$dir/vmaf_fail"
    case "$*" in
      *"$bad"*) echo "simulated libvmaf failure" >&2; exit 1 ;;
    esac
  fi
  if [ -e "$dir/vmaf_odd" ]; then
    {
      read -r odd
      case "$*" in
        *"$odd"*) cat > "$log"; exit 0 ;;
      esac
    } < "$dir/vmaf_odd"
  fi
  cat "$dir/vmaf.json" > "$log"
  exit 0
fi
if [ -e "$dir/fail_marker" ]; then
  echo "simulated encoder failure" >&2
  exit 1
fi
if [ -e "$dir/output" ]; then
  cat "$dir/output" > "$last"
else
  head -c 10000 /dev/zero > "$last"
fi
"""


@pytest.fixture
def fake_bin(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name in ("ffmpeg", "SvtAv1EncApp"):
        path = bin_dir / name
        path.write_text(FAKE_FFMPEG)
        path.chmod(path.stat().st_mode | stat.S_IEXEC)
    (bin_dir / "vmaf.json").write_text(json.dumps(VMAF_LOG))
    return bin_dir


def _ivf(frames, den, num, payload=b"", count=None):
    """IVF bytes: a 32-byte header declaring ``count`` frames (default
    ``frames``) at a time base of num/den s, then ``frames`` frames of
    ``payload``, each behind a 12-byte frame header."""
    head = struct.pack("<4sHH4sHHIII4x", b"DKIF", 0, 32, b"AV01", 8, 8,
                       den, num, frames if count is None else count)
    frame = struct.pack("<IQ", len(payload), 0) + payload
    return head + frame * frames


def _box(kind, body=b"", size=None):
    return struct.pack(">I4s", 8 + len(body) if size is None else size,
                       kind) + body


def _mvhd(timescale, duration, version=0):
    if version == 0:
        fields = struct.pack(">IIII", 0, 0, timescale, duration)
    else:
        fields = struct.pack(">QQIQ", 0, 0, timescale, duration)
    return _box(b"mvhd", bytes([version, 0, 0, 0]) + fields + bytes(80))


CLIP = make_header(8, 8, fps_num=24)  # the header of every test clip


@pytest.fixture
def small_clip(tmp_path):
    # 48 frames at 24 fps -> exactly 2 seconds
    return write_clip(CLIP, synthetic_clip(CLIP, 48, seed=1),
                      tmp_path / "clip.y4m")


@pytest.fixture
def empty_clip(tmp_path):
    return write_clip(CLIP, [], tmp_path / "empty.y4m")


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
        [first] = runner.run_plan([_job(small_clip)], workers=1, **kw)
        assert first.status == "ok"
        before = store_path.read_text()
        [rerun] = runner.run_plan([_job(small_clip)], workers=1, **kw)
        assert rerun.status == "skipped"
        assert store_path.read_text() == before
        # execute reads no store: only known_keys marks a job as done
        assert runner.execute(_job(small_clip), **kw).status == "ok"
        assert store_path.read_text() != before

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
        # the IVF header says 120 frames at 24 fps (5 s), so the header
        # rate is 10000 B over 5 s = 16 kb/s; measured over 2 s is 40
        data = _ivf(0, 24, 1, count=120)
        (fake_bin / "output").write_bytes(data + bytes(10000 - len(data)))
        with caplog.at_level("WARNING"):
            outcome = runner.execute(_job(small_clip), work_dir=tmp_path / "w",
                                     bin_dir=fake_bin)
        assert outcome.status == "ok"
        assert runner.container_kbps(outcome.output_path) == pytest.approx(16.0)
        assert outcome.measured_kbps == pytest.approx(40.0)
        assert any("container-reported" in r.message for r in caplog.records)

    def test_measured_rate_counts_container_bytes(self, fake_bin, small_clip,
                                                  tmp_path, caplog):
        # 48 frames at 24 fps, as long as the 2 s clip: the rate counts
        # the 32-byte file header and the 12-byte frame headers too
        data = _ivf(48, 24, 1, payload=bytes(100))
        (fake_bin / "output").write_bytes(data)
        with caplog.at_level("WARNING"):
            outcome = runner.execute(_job(small_clip), work_dir=tmp_path / "w",
                                     bin_dir=fake_bin)
        assert outcome.output_bytes == len(data) == 32 + 48 * (12 + 100)
        assert outcome.measured_kbps == len(data) * 8 / 2.0 / 1000
        assert runner.container_kbps(outcome.output_path) == pytest.approx(
            outcome.measured_kbps)
        assert not any("container-reported" in r.message
                       for r in caplog.records)

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

    def test_resumed_plan_skips_completed_jobs(self, fake_bin, small_clip,
                                               tmp_path):
        jobs = [_job(small_clip, target_kbps=tbr) for tbr in (100, 200, 300)]
        kw = dict(work_dir=tmp_path / "w", bin_dir=fake_bin,
                  store_path=tmp_path / "s.jsonl")
        runner.run_plan(jobs[:2], **kw)
        outcomes = runner.run_plan(jobs, **kw)
        assert [o.status for o in outcomes] == ["skipped", "skipped", "ok"]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_default_workers_follow_available_cpus(self, fake_bin, small_clip,
                                                   tmp_path, monkeypatch,
                                                   cpus):
        pools = []

        class Recording(runner.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(runner, "available_cpus", lambda: cpus)
        monkeypatch.setattr(runner, "ThreadPoolExecutor", Recording)
        jobs = [_job(small_clip, target_kbps=tbr) for tbr in (100, 200)]
        outcomes = runner.run_plan(jobs, work_dir=tmp_path / "w",
                                   bin_dir=fake_bin)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert pools == ([] if cpus == 1 else [cpus])

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_each_clip_probed_once_per_plan(self, fake_bin, tmp_path,
                                            monkeypatch, workers):
        clips = [write_clip(CLIP, synthetic_clip(CLIP, 24, seed=1),
                            tmp_path / f"{name}.y4m") for name in ("a", "b")]
        jobs = [_job(clip, clip_id=clip.stem, target_kbps=tbr)
                for tbr in range(100, 900, 100) for clip in clips]
        probes = Counter()
        loads = Counter()
        original = y4m.probe_clip
        original_load = store.load

        def counting(path):
            probes[str(path)] += 1
            return original(path)

        def counting_load(path):
            loads[str(path)] += 1
            return original_load(path)

        monkeypatch.setattr(y4m, "probe_clip", counting)
        monkeypatch.setattr(store, "load", counting_load)
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
        assert loads == {str(tmp_path / "s.jsonl"): 1}
        assert {o.measured_kbps for o in outcomes} == {80.0}  # 10000 B in 1 s

    def test_missing_metric_tool_fails_before_the_first_job(
            self, fake_bin, small_clip, tmp_path, monkeypatch):
        (fake_bin / "ffmpeg").unlink()
        monkeypatch.setenv("PATH", str(tmp_path / "nowhere"))
        monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
        jobs = [_job(small_clip, family="svt-av1", preset="10",
                     target_kbps=tbr) for tbr in (100, 200, 300)]
        store_path = tmp_path / "s.jsonl"
        with pytest.raises(MissingBinaryError, match="'ffmpeg'"):
            runner.run_plan(jobs, workers=1, work_dir=tmp_path / "w",
                            bin_dir=fake_bin, store_path=store_path,
                            with_vmaf=True)
        assert not (fake_bin / "calls.log").exists()
        assert not store_path.exists()

    @pytest.mark.parametrize("unusable", ["not-executable", "directory"])
    def test_unusable_encoder_fails_before_the_first_job(
            self, fake_bin, small_clip, tmp_path, monkeypatch, unusable):
        svt = fake_bin / "SvtAv1EncApp"
        if unusable == "directory":
            svt.unlink()
            svt.mkdir()
        else:
            svt.chmod(0o644)
        monkeypatch.setenv("PATH", str(tmp_path / "nowhere"))
        monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
        jobs = [_job(small_clip), _job(small_clip, family="svt-av1",
                                       preset="10")]
        store_path = tmp_path / "s.jsonl"
        with pytest.raises(MissingBinaryError, match="'SvtAv1EncApp'"):
            runner.run_plan(jobs, workers=1, work_dir=tmp_path / "w",
                            bin_dir=fake_bin, store_path=store_path)
        assert not (fake_bin / "calls.log").exists()
        assert not store_path.exists()

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

    @pytest.mark.parametrize("text,reason", [
        ('{"pooled_metrics": {"vmaf": {"mean": 1%s}}}' % ("0" * 400),
         "pooled vmaf mean is not a finite number: 1" + "0" * 400),
        ('{"pooled_metrics": {"vmaf": {"mean": 1%s}}}' % ("0" * 5000),
         "metric log is not valid JSON: Exceeds the limit"),
        ('{"pooled_metrics": {"vmaf": {"mean": true}}}',
         "pooled vmaf mean is not a finite number: true")],
        ids=["beyond-float", "too-many-digits", "bool"])
    def test_mean_that_is_no_finite_number(self, text, reason):
        with pytest.raises(MetricParseError, match=f"^{reason}"):
            runner.parse_vmaf_log(text)

    def test_missing_psnr(self):
        log = {"pooled_metrics": {"vmaf": {"mean": 90.0}}}
        with pytest.raises(MetricParseError):
            runner.parse_vmaf_log(json.dumps(log))


@settings(max_examples=300, deadline=None)
@given(changes=edits)
def test_mutated_metric_log_parses_or_fails_closed(changes):
    """Reader contract: a metric log with a few bytes changed, cut or
    inserted gives finite means and a frame count, or raises
    MetricParseError, and raises nothing else."""
    log = json.dumps({**VMAF_LOG, "frames": VMAF_LOG["frames"][:2]}).encode()
    try:
        vmaf, psnr, frames = runner.parse_vmaf_log(mutate(log, changes))
    except MetricParseError:
        return
    assert math.isfinite(vmaf) and math.isfinite(psnr) and frames >= 0


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


def test_metric_log_without_frames_warns(tmp_path, caplog):
    # a metric log with pooled means only: the frame count cannot be checked
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "ffmpeg"
    script.write_text(
        "#!/bin/sh\n"
        "log=$(echo \"$@\" | sed 's/.*log_path=//; s/:.*//')\n"
        f"cat {tmp_path}/log.json > \"$log\"\n")
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    pooled = {k: v for k, v in VMAF_LOG.items() if k != "frames"}
    (tmp_path / "log.json").write_text(json.dumps(pooled))

    with caplog.at_level("WARNING", logger="rdgauge.runner"):
        vmaf, _ = runner.measure_quality("ref.y4m", "dist.mp4",
                                         bin_dir=bin_dir)
    assert vmaf == pytest.approx(91.495)
    assert not caplog.records
    with caplog.at_level("WARNING", logger="rdgauge.runner"):
        vmaf, _ = runner.measure_quality("ref.y4m", "dist.mp4",
                                         bin_dir=bin_dir, expected_frames=48)
    assert vmaf == pytest.approx(91.495)
    assert [r.getMessage() for r in caplog.records] == [
        "metric log for dist.mp4 lists no frames; frame count not verified "
        "against the source's 48"]


def test_clip_duration(small_clip, empty_clip):
    assert runner.probe_duration(str(small_clip)) == (2.0, 48, "")
    seconds, frames, reason = runner.probe_duration(str(empty_clip))
    assert (seconds, frames) == (0.0, 0) and "no frames" in reason


@pytest.mark.parametrize("bad", ["zero-frame", "truncated"])
def test_bad_clip_fails_only_its_own_jobs(fake_bin, small_clip, tmp_path,
                                          capsys, bad):
    frames = synthetic_clip(CLIP, 0 if bad == "zero-frame" else 3, seed=1)
    bad_clip = write_clip(CLIP, frames, tmp_path / "bad.y4m")
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


# ftyp and mdat boxes around which the MP4 cases place a moov
FTYP = _box(b"ftyp", b"isom" + bytes(4) + b"isomiso2")
MDAT = _box(b"mdat", bytes(4000))


def _kbps(tmp_path, data):
    path = tmp_path / "out.mp4"
    path.write_bytes(data)
    return runner.container_kbps(path)


class TestContainerKbps:
    def test_ivf(self, tmp_path):
        # 50 frames at a time base of 1001/30000 s
        data = _ivf(50, 30000, 1001, payload=bytes(500))
        seconds = 50 * 1001 / 30000
        assert _kbps(tmp_path, data) == pytest.approx(
            len(data) * 8 / seconds / 1000)

    @pytest.mark.parametrize("layout", ["moov-first", "moov-after-mdat",
                                        "largesize-mdat", "mvhd-v1",
                                        "size-0-last-box"])
    def test_mp4(self, tmp_path, layout):
        # 2.5 s at a timescale of 1000 (or 90000 for version 1)
        moov = _box(b"moov", _box(b"udta", bytes(16)) + _mvhd(1000, 2500))
        if layout == "moov-first":
            data = FTYP + moov + MDAT
        elif layout == "moov-after-mdat":
            data = FTYP + MDAT + moov
        elif layout == "largesize-mdat":
            body = bytes(4000)
            mdat = struct.pack(">I4sQ", 1, b"mdat", 16 + len(body)) + body
            data = FTYP + mdat + moov
        elif layout == "mvhd-v1":
            data = FTYP + MDAT + _box(b"moov", _mvhd(90000, 225000, version=1))
        else:
            data = FTYP + MDAT + _box(b"moov", _mvhd(1000, 2500), size=0)
        assert _kbps(tmp_path, data) == pytest.approx(len(data) * 8 / 2500)

    @pytest.mark.parametrize("case", [
        "ivf-zero-frames", "ivf-zero-denominator", "ivf-truncated-header",
        "mvhd-zero-timescale", "mvhd-zero-duration", "mvhd-overruns-moov",
        "mvhd-short-v0", "mvhd-short-v1",
        "mvhd-unknown-version", "moov-without-mvhd", "truncated-moov",
        "truncated-largesize", "no-moov", "empty", "zero-filled",
        "unknown-bytes"])
    def test_none_without_an_exception(self, tmp_path, case):
        moov = _box(b"moov", _mvhd(1000, 2500))
        data = {
            "ivf-zero-frames": _ivf(0, 24, 1),
            "ivf-zero-denominator": _ivf(10, 0, 1),
            "ivf-truncated-header": _ivf(10, 24, 1)[:31],
            "mvhd-zero-timescale": FTYP + _box(b"moov", _mvhd(0, 2500)),
            "mvhd-zero-duration": FTYP + _box(b"moov", _mvhd(1000, 0)),
            "mvhd-overruns-moov": FTYP + _box(
                b"moov", _mvhd(1000, 2500)[:24]),
            "mvhd-short-v0": FTYP + _box(b"moov", _box(b"mvhd", bytes(19))),
            "mvhd-short-v1": FTYP + _box(
                b"moov", _box(b"mvhd", b"\x01" + bytes(30))),
            "mvhd-unknown-version": FTYP + _box(
                b"moov", _mvhd(1000, 2500, version=2)),
            "moov-without-mvhd": FTYP + _box(b"moov", _box(b"trak")) + MDAT,
            "truncated-moov": FTYP + MDAT + moov[:-1],
            "truncated-largesize": FTYP + struct.pack(">I4sI", 1, b"mdat", 0),
            "no-moov": FTYP + MDAT,
            "empty": b"",
            "zero-filled": bytes(10000),
            "unknown-bytes": b"0" * 10000,
        }[case]
        assert _kbps(tmp_path, data) is None

    def test_every_truncation_is_none(self, tmp_path):
        # moov is the last box, so every strict prefix cuts it short
        data = FTYP + MDAT + _box(b"moov", _mvhd(1000, 2500))
        assert _kbps(tmp_path, data) == pytest.approx(len(data) * 8 / 2500)
        for n in range(len(data)):
            assert _kbps(tmp_path, data[:n]) is None

    def test_missing_file_is_none(self, tmp_path):
        assert runner.container_kbps(tmp_path / "absent.mp4") is None


# Small IVF and MP4 files with a duration in their headers.
_CONTAINERS = (
    _ivf(3, 30000, 1001, payload=bytes(16)),
    FTYP + _box(b"mdat", bytes(64))
    + _box(b"moov", _box(b"udta", bytes(16)) + _mvhd(1000, 2500)),
    FTYP + struct.pack(">I4sQ", 1, b"mdat", 80) + bytes(64)
    + _box(b"moov", _mvhd(90000, 225000, version=1)),
)


@settings(max_examples=300, deadline=None)
@given(data=st.sampled_from(_CONTAINERS), changes=edits)
def test_mutated_container_header_gives_a_rate_or_none(data, changes):
    """Reader contract: an IVF or MP4 file with a few bytes changed, cut
    or inserted gives a finite positive rate or None, and raises
    nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        path.write_bytes(mutate(data, changes))
        kbps = runner.container_kbps(path)
    assert kbps is None or (type(kbps) is float and math.isfinite(kbps)
                            and kbps > 0)


def _encode(args, clip, fake_bin, tmp_path, *extra):
    return main(["encode", "--clips", str(clip), *args,
                 "--store", str(tmp_path / "s.jsonl"),
                 "--work-dir", str(tmp_path / "w"),
                 "--binary-dir", str(fake_bin), *extra])


@pytest.mark.parametrize("with_vmaf", [False, True])
@pytest.mark.parametrize("family,preset,passes,encodes", [
    ("x264", "medium", 1, 1), ("x264", "medium", 2, 2),
    ("svt-av1", "10", 2, 1)])
def test_processes_per_job(fake_bin, small_clip, tmp_path, family, preset,
                           passes, encodes, with_vmaf):
    # The fake tools log every call except their --version probe, which
    # runs once per binary and is cached. An ffprobe stands by and must
    # never be called.
    probe = fake_bin / "ffprobe"
    probe.write_text('#!/bin/sh\n'
                     'echo "ffprobe $*" >> "$(dirname "$0")/calls.log"\n')
    probe.chmod(probe.stat().st_mode | stat.S_IEXEC)
    (fake_bin / "output").write_bytes(_ivf(48, 24, 1, payload=bytes(100)))
    rc = _encode(["--families", family, "--presets", preset,
                  "--passes", str(passes), "--ladder", "100"],
                 small_clip, fake_bin, tmp_path,
                 *(["--with-vmaf"] if with_vmaf else []))
    assert rc == 0
    calls = (fake_bin / "calls.log").read_text().splitlines()
    assert len(calls) == encodes + with_vmaf
    assert sum("libvmaf" in call for call in calls) == with_vmaf
    assert not any(call.startswith("ffprobe") for call in calls)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_metric_failure_fails_only_its_job(fake_bin, small_clip, tmp_path,
                                           capsys, jobs):
    (fake_bin / "vmaf_fail").write_text("_200k.mp4\n")
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100,200,300",
                  "--jobs", jobs, "--with-vmaf"], small_clip, fake_bin,
                 tmp_path)
    assert rc == 2
    captured = capsys.readouterr()
    assert "encoded: 2 ok, 1 failed, 0 skipped" in captured.out
    failed = [line for line in captured.err.splitlines()
              if line.startswith("FAILED")]
    assert failed == [
        "FAILED clip_x264_medium_1p_200k: quality measurement failed: "
        "metric tool failed: simulated libvmaf failure"]
    records = {r.target_kbps: r for r in store.load(tmp_path / "s.jsonl")}
    assert sorted(records) == [100.0, 200.0, 300.0]
    assert records[200.0].vmaf is None and records[200.0].psnr_y is None
    assert records[200.0].measured_kbps == pytest.approx(40.0)
    assert records[100.0].vmaf == records[300.0].vmaf == pytest.approx(91.495)


def _log_with(pooled=None, **top):
    """The fixture metric log, its pooled metrics updated by ``pooled``
    and its top level by ``top``."""
    return json.dumps({**VMAF_LOG, **top, "pooled_metrics": {
        **VMAF_LOG["pooled_metrics"], **(pooled or {})}})


@pytest.mark.parametrize("log,reason", [
    ("[]", "metric log is not a JSON object"),
    (_log_with({"vmaf": {"mean": "x"}}),
     'pooled vmaf mean is not a finite number: "x"'),
    (_log_with({"psnr_y": {"mean": "x"}}),
     'pooled psnr_y mean is not a finite number: "x"'),
    (_log_with({"vmaf": {"mean": float("nan")}}),
     "pooled vmaf mean is not a finite number: NaN"),
    (_log_with({"psnr_y": {"mean": float("inf")}}),
     "pooled psnr_y mean is not a finite number: Infinity"),
    (_log_with(frames=3), "metric log's frames is not a list"),
    (_log_with({"vmaf": {"mean": 100.5}}), "VMAF 100.5 is outside [0, 100]"),
    (_log_with({"vmaf": {"mean": -1}}), "VMAF -1.0 is outside [0, 100]")],
    ids=["array", "vmaf-string", "psnr-string", "vmaf-nan", "psnr-inf",
         "frames-number", "vmaf-above-100", "vmaf-below-0"])
def test_bad_metric_log_fails_only_its_job(fake_bin, small_clip, tmp_path,
                                            capsys, log, reason):
    (fake_bin / "vmaf_odd").write_text(f"_200k.mp4\n{log}")
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100,200,300",
                  "--jobs", "1", "--with-vmaf"], small_clip, fake_bin,
                 tmp_path)
    assert rc == 2
    captured = capsys.readouterr()
    assert "encoded: 2 ok, 1 failed, 0 skipped" in captured.out
    assert captured.err.splitlines() == [
        f"FAILED clip_x264_medium_1p_200k: quality measurement failed: "
        f"{reason}"]
    records = {r.target_kbps: r for r in store.load(tmp_path / "s.jsonl")}
    assert sorted(records) == [100.0, 200.0, 300.0]
    assert records[200.0].vmaf is None and records[200.0].psnr_y is None
    assert records[200.0].measured_kbps == pytest.approx(40.0)
    assert records[100.0].vmaf == records[300.0].vmaf == pytest.approx(91.495)


def test_metric_log_that_is_not_utf8_fails_its_jobs(fake_bin, small_clip,
                                                    tmp_path, capsys):
    log = json.dumps({**VMAF_LOG, "version": "caf\u00e9"}, ensure_ascii=False)
    (fake_bin / "vmaf.json").write_bytes(log.encode("latin-1"))
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100,200",
                  "--jobs", "1", "--with-vmaf"], small_clip, fake_bin,
                 tmp_path)
    assert rc == 2
    captured = capsys.readouterr()
    assert "encoded: 0 ok, 2 failed, 0 skipped" in captured.out
    failed = captured.err.splitlines()
    assert [line.split(":")[0] for line in failed] == [
        "FAILED clip_x264_medium_1p_100k", "FAILED clip_x264_medium_1p_200k"]
    assert all("metric log is not valid JSON: 'utf-8' codec can't decode "
               "byte 0xe9" in line for line in failed)
    records = store.load(tmp_path / "s.jsonl")
    assert [r.target_kbps for r in records] == [100.0, 200.0]
    assert all(r.vmaf is None and r.psnr_y is None for r in records)


def test_metric_frame_count_is_checked(fake_bin, tmp_path, capsys):
    # the fake metric log has 48 frames; the source has 24
    clip = write_clip(CLIP, synthetic_clip(CLIP, 24, seed=1),
                      tmp_path / "clip.y4m")
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100", "--with-vmaf"],
                 clip, fake_bin, tmp_path)
    assert rc == 2
    captured = capsys.readouterr()
    assert "encoded: 0 ok, 1 failed, 0 skipped" in captured.out
    assert captured.err.splitlines() == [
        "FAILED clip_x264_medium_1p_100k: quality measurement failed: "
        "frame-count mismatch: source has 24, metric log has 48"]
    [record] = store.load(tmp_path / "s.jsonl")
    assert record.vmaf is None and record.psnr_y is None
    assert record.measured_kbps == pytest.approx(80.0)


def test_missing_metric_tool_fails_before_any_encode(fake_bin, small_clip,
                                                     tmp_path, monkeypatch):
    # With PATH empty, the encoder fake can use shell builtins only.
    calls = fake_bin / "calls.log"
    (fake_bin / "SvtAv1EncApp").write_text(
        f'#!/bin/sh\necho "$@" >> "{calls}"\n'
        'for last; do :; done\nprintf "%010000d" 0 > "$last"\n')
    (fake_bin / "ffmpeg").unlink()
    (tmp_path / "empty").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    monkeypatch.delenv("RDGAUGE_BIN_DIR", raising=False)
    rc = _encode(["--families", "svt-av1", "--presets", "10",
                  "--passes", "1", "--ladder", "100,200,300", "--with-vmaf"],
                 small_clip, fake_bin, tmp_path)
    assert rc == 3
    assert not calls.exists()
    assert not (tmp_path / "s.jsonl").exists()


# ffmpeg's banner names its input; a Latin-1 file name is not UTF-8
LATIN1_BANNER = b"Input #0, from caf\xe9.y4m\n"


def test_non_utf8_output_of_a_finished_encode_is_stored(
        fake_bin, small_clip, tmp_path, capsys):
    (fake_bin / "stderr").write_bytes(LATIN1_BANNER)
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100,200", "--with-vmaf"],
                 small_clip, fake_bin, tmp_path)
    assert rc == 0
    assert "encoded: 2 ok, 0 failed, 0 skipped" in capsys.readouterr().out
    assert len(store.load(tmp_path / "s.jsonl")) == 2


def test_non_utf8_output_of_a_failed_encode_is_reported(
        fake_bin, small_clip, tmp_path, capsys):
    (fake_bin / "stderr").write_bytes(LATIN1_BANNER)
    (fake_bin / "fail_marker").touch()
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100"],
                 small_clip, fake_bin, tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == (
        "FAILED clip_x264_medium_1p_100k: ffmpeg exited with status 1: "
        "Input #0, from caf\ufffd.y4m | simulated encoder failure\n")


def test_failed_encode_with_crlf_output_is_one_line(fake_bin, small_clip,
                                                     tmp_path, capsys):
    (fake_bin / "stderr").write_bytes(b"frame 1\r\rframe 2\r\n\r\nerror\r\n")
    (fake_bin / "fail_marker").touch()
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100"],
                 small_clip, fake_bin, tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == (
        "FAILED clip_x264_medium_1p_100k: ffmpeg exited with status 1: "
        "frame 1 | frame 2 | error | simulated encoder failure\n")


def test_non_utf8_output_of_the_metric_tool(fake_bin, tmp_path):
    (fake_bin / "stderr").write_bytes(LATIN1_BANNER)
    vmaf, _ = runner.measure_quality("ref.y4m", "dist.mp4", bin_dir=fake_bin)
    assert vmaf == pytest.approx(91.495)
    (fake_bin / "vmaf_fail").write_text("dist.mp4\n")
    with pytest.raises(MetricError, match="caf\ufffd.y4m"):
        runner.measure_quality("ref.y4m", "dist.mp4", bin_dir=fake_bin)


def test_tool_version_is_the_first_line_of_its_output(tmp_path):
    tool = tmp_path / "x264"
    tool.write_bytes(b"#!/bin/sh\nprintf 'x264 caf\\351\\nbuilt on\\n' >&2\n")
    tool.chmod(tool.stat().st_mode | stat.S_IEXEC)
    assert runner.tool_version(str(tool)) == "x264 caf\ufffd"


def test_encoder_that_is_not_a_program_is_an_environment_error(
        fake_bin, small_clip, tmp_path, capsys):
    (fake_bin / "ffmpeg").write_text("not a program\n")
    rc = _encode(["--families", "x264", "--presets", "medium",
                  "--passes", "1", "--ladder", "100"],
                 small_clip, fake_bin, tmp_path)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("environment error: cannot run ")
    assert "Traceback" not in err
    assert not (tmp_path / "s.jsonl").exists()


def test_tools_read_dev_null(fake_bin, small_clip, tmp_path):
    stdin_log = fake_bin / "stdin.log"
    (fake_bin / "ffmpeg").write_text(
        f'#!/bin/sh\nreadlink /proc/self/fd/0 >> "{stdin_log}"\n'
        '[ $# -le 1 ] && exit 0\n'
        'for last; do :; done\nhead -c 10000 /dev/zero > "$last"\n')
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rdgauge.cli", "encode", "--clips",
         str(small_clip), "--families", "x264", "--presets", "medium",
         "--passes", "2", "--ladder", "100", "--store",
         str(tmp_path / "s.jsonl"), "--work-dir", str(tmp_path / "w"),
         "--binary-dir", str(fake_bin)],
        stdin=subprocess.PIPE, capture_output=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # two passes, then the version probes
    reads = stdin_log.read_text().splitlines()
    assert len(reads) >= 3 and set(reads) == {"/dev/null"}


# Pass 1 writes x264's pass logs; the pass named in fail_pass exits 1.
PASSLOG_FFMPEG = """#!/bin/sh
[ $# -le 1 ] && exit 0
prev=""
for last; do
  case "$prev" in
    -pass) pass="$last" ;;
    -passlogfile) log="$last" ;;
  esac
  prev="$last"
done
[ "$pass" = 1 ] && : > "$log-0.log" && : > "$log-0.log.mbtree"
read -r fail < "${0%/*}/fail_pass"
[ "$pass" = "$fail" ] && exit 1
head -c 10000 /dev/zero > "$last"
"""


@pytest.mark.parametrize("fail_pass,clip_id", [
    (1, "clip"), (2, "clip"), (0, "clip"), (0, "clip[1]")],
    ids=["pass-1", "pass-2", "none", "glob-characters"])
def test_passlog_removed_whether_the_passes_succeed_or_fail(
        fake_bin, small_clip, tmp_path, fail_pass, clip_id):
    (fake_bin / "ffmpeg").write_text(PASSLOG_FFMPEG)
    (fake_bin / "fail_pass").write_text(f"{fail_pass}\n")
    work = tmp_path / "w"
    outcome = runner.execute(_job(small_clip, passes=2, clip_id=clip_id),
                             work_dir=work, bin_dir=fake_bin)
    assert outcome.status == ("ok" if fail_pass == 0 else "failed")
    assert len(outcome.wall_seconds) == (fail_pass or 2)
    assert not list(work.glob("*.log*"))


@pytest.mark.parametrize("family,passes", [
    ("x264", 1), ("svt-av1", 1), ("svt-av1", 2)])
def test_jobs_without_a_pass_log_do_not_list_the_work_dir(
        fake_bin, small_clip, tmp_path, monkeypatch, family, passes):
    """Only a command given the pass-log prefix can leave pass logs, so
    no other job lists the work directory to clean them up."""
    work = tmp_path / "w"
    listed = []
    scandir, listdir = os.scandir, os.listdir

    def spy(real):
        def wrapper(path=".", *args):
            listed.append(Path(os.fsdecode(path)).resolve())
            return real(path, *args)
        return wrapper

    monkeypatch.setattr(os, "scandir", spy(scandir))
    monkeypatch.setattr(os, "listdir", spy(listdir))
    outcome = runner.execute(
        _job(small_clip, family=family, preset="8" if family == "svt-av1"
             else "ultrafast", passes=passes),
        work_dir=work, bin_dir=fake_bin)
    monkeypatch.undo()
    assert outcome.status == "ok", outcome.reason
    assert work.resolve() not in listed
