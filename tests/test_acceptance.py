"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they happen (pytest captures them otherwise). Criterion 11 runs real
encoder binaries and is skipped when none are on PATH.
"""

import math
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (clip_stream, make_header, read_clip, synthetic_clip,
                      write_clip)
from oracles import bd_rate_trapezoid, random_curve_pair
from rdgauge import bd, complexity, runner, scenario, y4m
from rdgauge.encoders import (
    TOOLSWEEP_LADDER,
    EncodeJob,
    build_commands,
    plan_matrix,
    plan_toolsweep,
)
from rdgauge.store import MetricRecord

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

FOUR_POINT = [(1000.0, 30.0), (2000.0, 35.0), (4000.0, 40.0), (8000.0, 45.0)]


def _report(n, description, failed=None):
    status = "FAIL" if failed else "PASS"
    print(f"[acceptance] criterion {n:>2}: {status} - {description}")
    if failed:
        raise failed


def _run(n, description, body):
    try:
        body()
    except BaseException as exc:  # report FAIL before pytest unwinds
        _report(n, description, exc)
    else:
        _report(n, description)


def test_criterion_01_bd_rate_scaling_exactness():
    def body():
        start = time.perf_counter()
        anchor = bd.clean_curve(FOUR_POINT, id="anchor")
        for s in (0.5, 0.8, 1.1, 1.25):
            test = bd.clean_curve([(r * s, q) for r, q in FOUR_POINT], id="t")
            got = bd.bd_rate(anchor, test).value
            assert abs(got - (s - 1) * 100.0) < 1e-9, (s, got)
        assert time.perf_counter() - start < 1.0
    _run(1, "uniform rate scaling gives BD-Rate = (s-1)*100% within 1e-9, < 1 s",
         body)


def test_criterion_02_bd_rate_oracle_equivalence():
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(20240214)
        for _ in range(200):
            a_pts, b_pts = random_curve_pair(rng, lo=4, hi=8)
            got = bd.bd_rate(bd.clean_curve(a_pts, id="a"),
                             bd.clean_curve(b_pts, id="b")).value
            oracle = bd_rate_trapezoid(a_pts, b_pts, samples=10001)
            assert abs(got - oracle) < 0.01, (got, oracle)
        assert time.perf_counter() - start < 10.0
    _run(2, "200 randomized pairs match the 10,001-sample trapezoid oracle "
            "within 0.01 pp, < 10 s", body)


def test_criterion_03_antisymmetry():
    def body():
        rng = np.random.default_rng(999)
        for _ in range(200):
            a_pts, b_pts = random_curve_pair(rng)
            a = bd.clean_curve(a_pts, id="a")
            b = bd.clean_curve(b_pts, id="b")
            fwd = bd.bd_rate(a, b).value
            back = bd.bd_rate(b, a).value
            product = (1 + fwd / 100.0) * (1 + back / 100.0)
            assert abs(product - 1.0) < 1e-6, product
    _run(3, "(1+BD(A,B)/100)(1+BD(B,A)/100) = 1 within 1e-6 across the "
            "randomized suite", body)


def _identical_clip_dataset(n_clips, rate_scale):
    ladder = (500, 1000, 2000, 4000, 8000)
    anchor, test = [], []
    for i in range(n_clips):
        for tbr in ladder:
            quality = 100.0 * (1 - math.exp(-tbr / 3000.0))
            anchor.append(MetricRecord(
                clip_id=f"clip{i}", family="a", preset="p", passes=1,
                target_kbps=float(tbr), measured_kbps=float(tbr),
                vmaf=quality, psnr_y=40.0))
            test.append(MetricRecord(
                clip_id=f"clip{i}", family="b", preset="p", passes=1,
                target_kbps=float(tbr), measured_kbps=tbr * rate_scale,
                vmaf=quality, psnr_y=40.0))
    return anchor, test, ladder


def test_criterion_04_smart_classic_degenerate_equality():
    def body():
        anchor, test, ladder = _identical_clip_dataset(6, 0.85)
        single = bd.bd_rate(
            bd.clean_curve([(r.measured_kbps, r.vmaf) for r in anchor[:5]], id="a"),
            bd.clean_curve([(r.measured_kbps, r.vmaf) for r in test[:5]], id="b"))
        smart = bd.smart_bd_rate(anchor, test, ladder)
        classic = bd.classic_bd_rate(bd.curves_from_records(anchor),
                                     bd.curves_from_records(test))
        assert abs(smart.value - single.value) < 1e-9
        assert abs(classic.value - single.value) < 1e-9
        assert abs(smart.value - classic.value) < 1e-9
    _run(4, "N identical clips: smart == classic == single-clip BD-Rate "
            "within 1e-9", body)


def test_criterion_05_fixture_scenario_selection():
    def body():
        s1 = scenario.summaries_from_csv((DATA / "summary_s1.csv").read_text())
        report = scenario.select_presets(s1, scenario.make_scenario("S1"))
        picks = {f: (s.preset, s.passes) for f, s in report.selections.items()}
        assert picks["svt-av1"] == ("2", 1)
        assert picks["x264"] == ("veryslow", 2)
        assert picks["x265"] == ("veryslow", 2)
        assert picks["nvenc-av1"] == ("P7", 2)

        s3 = scenario.summaries_from_csv((DATA / "summary_s3.csv").read_text())
        report3 = scenario.select_presets(s3, scenario.make_scenario("S3"))
        picks3 = {f: (s.preset, s.passes) for f, s in report3.selections.items()}
        assert picks3["svt-av1"] == ("10", 2)
        assert picks3["x264"] == ("veryfast", 1)
        assert picks3["x265"] == ("ultrafast", 1)
    _run(5, "published summary tables reproduce the per-family S1/S3 preset "
            "picks exactly", body)


def test_criterion_06_fixture_time_grid():
    def body():
        mk = lambda family, preset, passes, hours: scenario.ConfigSummary(
            family=family, preset=preset, passes=passes, n_records=744,
            n_above=0, n_checkpoint_records=62, n_checkpoint_above=0,
            overshoot_count=0, total_hours=hours)
        grid = scenario.time_grid([
            mk("x264", "veryslow", 2, 51.18),
            mk("x265", "ultrafast", 1, 40.38),
        ])
        assert abs(grid.cells[0][1] - (-21.1)) <= 0.05, grid.cells[0][1]
    _run(6, "51.18 h -> 40.38 h migration cell is -21.1% within 0.05", body)


def test_criterion_07_command_fidelity_golden():
    def body():
        cases = [("x264", "veryslow", 1), ("x264", "veryslow", 2),
                 ("x265", "veryslow", 1), ("x265", "veryslow", 2),
                 ("svt-av1", "6", 1), ("svt-av1", "6", 2),
                 ("nvenc-av1", "P7", 1), ("nvenc-av1", "P7", 2)]
        for family, preset, passes in cases:
            job = EncodeJob(clip_id="shot", family=family, preset=preset,
                            passes=passes, target_kbps=8000,
                            maxrate_factor=1.5)
            got = [" ".join(vec) for vec in build_commands(job, "out")]
            golden = (GOLDEN / f"{family}_{passes}p.txt").read_text().splitlines()
            assert got == golden, (family, passes)
    _run(7, "build_commands matches the 8 golden command templates", body)


def test_criterion_08_plan_cardinalities():
    def body():
        clips = [f"shot{i:03d}" for i in range(62)]
        assert len(plan_matrix(clips, ["x264"])) == 8928
        assert len(plan_matrix(clips, ["x265"])) == 8928
        assert len(plan_matrix(clips, ["svt-av1"])) == 8928
        assert len(plan_matrix(clips, ["nvenc-av1"])) == 7440
        toggles = [f"--tool-{i} 0" for i in range(9)]
        assert len(plan_toolsweep("clip", toggles)) == 90
        assert len(TOOLSWEEP_LADDER) == 9
    _run(8, "plan cardinalities: 8928 per software family, 7440 NVENC, "
            "90-job tool sweep", body)


def test_criterion_09_y4m_round_trip():
    def body():
        rng = np.random.default_rng(4242)
        for i in range(100):
            depth = 8 if i % 2 == 0 else 10
            width = 2 * int(rng.integers(1, 9))
            height = 2 * int(rng.integers(1, 9))
            header = make_header(width, height, bit_depth=depth)
            frames = []
            for _ in range(int(rng.integers(1, 4))):
                frames.append(y4m.Frame(
                    y=rng.integers(0, header.sample_max + 1,
                                   (height, width)).astype(header.dtype),
                    u=rng.integers(0, header.sample_max + 1,
                                   (height // 2, width // 2)).astype(header.dtype),
                    v=rng.integers(0, header.sample_max + 1,
                                   (height // 2, width // 2)).astype(header.dtype),
                    bit_depth=depth))
            import io
            sink = io.BytesIO()
            write_clip(header, frames, sink)
            sink.seek(0)
            h2, back = read_clip(sink)
            assert h2 == header
            assert len(back) == len(frames)
            for a, b in zip(frames, back):
                assert np.array_equal(a.y, b.y)
                assert np.array_equal(a.u, b.u)
                assert np.array_equal(a.v, b.v)
        assert make_header(3840, 2160, bit_depth=10).frame_payload_bytes \
            == 24_883_200
    _run(9, "100 randomized clips survive write->parse bit-exactly; 4K 10-bit "
            "payload is 24,883,200 bytes", body)


def test_criterion_10_complexity_sanity():
    def body():
        import io
        header = make_header(64, 64)
        flat = np.full((64, 64), 128, np.uint8)
        chroma = np.full((32, 32), 64, np.uint8)
        frames = [y4m.Frame(y=flat, u=chroma, v=chroma)] * 5
        sink = io.BytesIO()
        write_clip(header, frames, sink)
        sink.seek(0)
        record = complexity.analyze_clip(y4m.Y4MReader(sink), clip_id="flat")
        assert record.clip_se == 0.0
        assert record.clip_te == 0.0
        assert all(te == 0.0 for te in record.frame_te)

        rng = np.random.default_rng(77)
        luma = rng.integers(0, 200, (64, 64))
        textured = [y4m.Frame(y=luma.astype(np.uint8), u=chroma, v=chroma)] * 4
        sink = io.BytesIO()
        write_clip(header, textured, sink)
        sink.seek(0)
        static = complexity.analyze_clip(y4m.Y4MReader(sink), clip_id="static")
        assert static.clip_te == 0.0

        base = y4m.Frame(y=luma.astype(np.uint8), u=chroma, v=chroma)
        offset = y4m.Frame(y=(luma + 30).astype(np.uint8), u=chroma, v=chroma)
        se_a = complexity.analyze_clip(
            y4m.Y4MReader(clip_stream(header, [base]))).frame_se[0]
        se_b = complexity.analyze_clip(
            y4m.Y4MReader(clip_stream(header, [offset]))).frame_se[0]
        assert abs(se_a - se_b) < 1e-9
    _run(10, "constant clip SE = TE = 0 exactly; static clip TE = 0; SE "
             "invariant under luma offset (1e-9)", body)


def _ffmpeg_with(binary, what, name):
    try:
        out = subprocess.run([binary, "-hide_banner", what],
                             capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.TimeoutExpired):
        return False
    return name in out


def test_criterion_11_live_smoke(tmp_path):
    ffmpeg = shutil.which("ffmpeg")
    if not ffmpeg:
        pytest.skip("criterion 11 skipped: no ffmpeg on PATH")
    if not _ffmpeg_with(ffmpeg, "-encoders", "libx264"):
        pytest.skip("criterion 11 skipped: ffmpeg lacks libx264")
    if not _ffmpeg_with(ffmpeg, "-filters", "libvmaf"):
        pytest.skip("criterion 11 skipped: ffmpeg lacks libvmaf")

    def body():
        start = time.perf_counter()
        header = make_header(64, 64, fps_num=24)
        frames = synthetic_clip(header, 48, seed=3)
        clip = tmp_path / "smoke.y4m"
        with open(clip, "wb") as f:
            write_clip(header, frames, f)

        curves = {}
        for preset in ("ultrafast", "veryfast"):
            points = []
            for tbr in (100, 200, 400):
                job = EncodeJob(clip_id="smoke", family="x264", preset=preset,
                                passes=1, target_kbps=tbr,
                                input_path=str(clip))
                outcome = runner.execute(job, work_dir=tmp_path / "w")
                assert outcome.status == "ok", outcome.stderr_tail
                assert outcome.output_bytes > 0
                assert outcome.measured_kbps < 10 * tbr
                vmaf, _ = runner.measure_quality(clip, outcome.output_path,
                                                 expected_frames=48)
                points.append((outcome.measured_kbps, vmaf))
            curves[preset] = bd.clean_curve(points, id=preset)

        for curve in curves.values():
            assert len(curve.points) >= 2
            assert all(p.rate > 0 for p in curve.points)
        result = bd.bd_rate(curves["ultrafast"], curves["veryfast"])
        assert math.isfinite(result.value)
        assert result.overlap[0] < result.overlap[1]
        assert time.perf_counter() - start < 120.0
    _run(11, "live smoke: 64x64 clip, 3 bitrates x 2 presets, cleanable RD "
             "curves and a valid BD-Rate, < 2 min", body)
