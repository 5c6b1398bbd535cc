import math
from pathlib import Path

import pytest

from rdgauge.encoders import (
    DEFAULT_LADDER,
    TOOLSWEEP_LADDER,
    EncodeJob,
    build_commands,
    get_spec,
    plan_matrix,
    plan_toolsweep,
)
from rdgauge.errors import PlanError

GOLDEN_DIR = Path(__file__).parent / "golden"

CLIPS_62 = [f"shot{i:03d}" for i in range(62)]


class TestPlanMatrix:
    def test_x264_full_matrix_is_8928(self):
        jobs = plan_matrix(CLIPS_62, ["x264"])
        assert len(jobs) == 62 * 6 * 12 * 2 == 8928

    def test_svt_full_matrix_is_8928(self):
        assert len(plan_matrix(CLIPS_62, ["svt-av1"])) == 8928

    def test_nvenc_full_matrix_is_7440(self):
        jobs = plan_matrix(CLIPS_62, ["nvenc-av1"])
        assert len(jobs) == 62 * 5 * 12 * 2 == 7440

    def test_single_job(self):
        jobs = plan_matrix(["clip"], ["x264"], ladder=[4000], pass_modes=[1],
                           presets={"x264": ["medium"]})
        assert len(jobs) == 1
        job = jobs[0]
        assert (job.clip_id, job.family, job.preset, job.passes,
                job.target_kbps) == ("clip", "x264", "medium", 1, 4000)

    def test_cardinality_is_product_of_factors(self):
        jobs = plan_matrix(["a", "b", "c"], ["x264", "svt-av1"],
                           ladder=[500, 1000], pass_modes=[1])
        assert len(jobs) == 3 * (6 + 6) * 2 * 1

    def test_deterministic_ordering(self):
        jobs = plan_matrix(["b", "a"], ["x265"], ladder=[1000, 500],
                           pass_modes=[1, 2], presets={"x265": ["slow", "fast"]})
        seen = [(j.clip_id, j.family, j.preset, j.passes, j.target_kbps)
                for j in jobs]
        # clip order as given, then preset, then pass, then ladder order
        assert seen[0] == ("b", "x265", "slow", 1, 1000)
        assert seen[1] == ("b", "x265", "slow", 1, 500)
        assert seen[2] == ("b", "x265", "slow", 2, 1000)
        assert seen[4] == ("b", "x265", "fast", 1, 1000)
        assert seen[8] == ("a", "x265", "slow", 1, 1000)

    def test_unknown_preset_rejected(self):
        with pytest.raises(PlanError):
            plan_matrix(["clip"], ["x264"], presets={"x264": ["placebo"]})
        with pytest.raises(PlanError):
            EncodeJob(clip_id="c", family="svt-av1", preset="P7", passes=1,
                      target_kbps=1000)

    def test_empty_ladder_rejected(self):
        with pytest.raises(PlanError):
            plan_matrix(["clip"], ["x264"], ladder=[])

    def test_default_ladder_matches_published_rungs(self):
        assert DEFAULT_LADDER == (500, 1000, 2000, 3000, 4000, 6000, 8000,
                                  10000, 12000, 14000, 16000, 20000)


class TestPlanToolsweep:
    TOGGLES = ["--enable-dlf 0", "--enable-cdef 0", "--enable-restoration 1",
               "--enable-tpl-la 0", "--enable-mfmv 1", "--enable-dg 0",
               "--fast-decode 1", "--enable-tf 0", "--enable-overlays 1"]

    def test_nine_toggles_plus_default_is_90_jobs(self):
        jobs = plan_toolsweep("stem_clip", self.TOGGLES)
        assert len(jobs) == 90
        assert len(TOOLSWEEP_LADDER) == 9
        assert {j.preset for j in jobs} == {"10"}
        assert {j.passes for j in jobs} == {1}

    def test_empty_toggles_gives_default_only(self):
        jobs = plan_toolsweep("clip", [])
        assert len(jobs) == 9
        assert all(j.variant == "default" for j in jobs)

    def test_duplicate_toggles_rejected(self):
        with pytest.raises(PlanError):
            plan_toolsweep("clip", ["--enable-tf 0", "--enable-tf 0"])

    def test_variant_distinguishes_store_keys(self):
        jobs = plan_toolsweep("clip", ["--enable-tf 0"])
        keys = {(j.record_clip_id, j.family, j.preset, j.passes, j.target_kbps)
                for j in jobs}
        assert len(keys) == len(jobs)

    def test_toggle_lands_in_command(self):
        job = next(j for j in plan_toolsweep("clip", ["--enable-tf 0"])
                   if j.variant == "--enable-tf 0")
        vec = build_commands(job)[0]
        joined = " ".join(vec)
        assert "--enable-tf 0" in joined


class TestBuildCommand:
    def test_x264_default_maxrate_is_120_percent(self):
        job = EncodeJob(clip_id="c", family="x264", preset="veryslow", passes=1,
                        target_kbps=8000)
        vec = build_commands(job)[0]
        for token in ("-g", "131", "-keyint_min", "-b:v", "8000k",
                      "-maxrate", "9600k", "-bufsize", "16000k"):
            assert token in vec
        assert "scenecut=0" in vec

    def test_svt_two_pass_tokens(self):
        job = EncodeJob(clip_id="c", family="svt-av1", preset="6", passes=2,
                        target_kbps=4000)
        vec = build_commands(job)[0]
        joined = " ".join(vec)
        for piece in ("--keyint 131", "--tbr 4000", "--rc 1", "--passes 2",
                      "--preset 6", "-lp 1"):
            assert piece in joined

    def test_nvenc_two_pass_tokens(self):
        job = EncodeJob(clip_id="c", family="nvenc-av1", preset="P7", passes=2,
                        target_kbps=6000)
        joined = " ".join(build_commands(job)[0])
        for piece in ("-rc vbr", "-multipass 2", "-no-scenecut 1"):
            assert piece in joined

    def test_pure_and_deterministic(self):
        job = EncodeJob(clip_id="c", family="x265", preset="slow", passes=2,
                        target_kbps=2000)
        assert build_commands(job, "w") == build_commands(job, "w")

    def test_two_pass_vectors_differ_only_in_pass_and_sink(self):
        for family in ("x264", "x265"):
            job = EncodeJob(clip_id="c", family=family, preset="medium",
                            passes=2, target_kbps=3000)
            first, second = build_commands(job, "w")
            # identical prefix up to the -pass value
            pass_at = first.index("-pass")
            assert first[:pass_at + 1] == second[:pass_at + 1]
            assert first[pass_at + 1] == "1"
            assert second[pass_at + 1] == "2"
            # identical between the pass number and the sink tail
            assert first[pass_at + 2:-3] == second[pass_at + 2:-1]

    def test_one_pass_is_one_vector(self):
        for family in ("x264", "x265", "svt-av1", "nvenc-av1"):
            job = EncodeJob(clip_id="c", family=family,
                            preset=get_spec(family).presets[0], passes=1,
                            target_kbps=1000)
            assert len(build_commands(job)) == 1

    def test_single_invocation_families_have_no_second_vector(self):
        svt = EncodeJob(clip_id="c", family="svt-av1", preset="2", passes=2,
                        target_kbps=1000)
        nvenc = EncodeJob(clip_id="c", family="nvenc-av1", preset="P1",
                          passes=2, target_kbps=1000)
        assert len(build_commands(svt)) == 1
        assert len(build_commands(nvenc)) == 1

    def test_threads_pinned_to_one(self):
        job = EncodeJob(clip_id="c", family="x264", preset="fast", passes=1,
                        target_kbps=1000)
        vec = build_commands(job)[0]
        assert vec[vec.index("-threads") + 1] == "1"


GOLDEN_CASES = [
    ("x264", "veryslow", 1),
    ("x264", "veryslow", 2),
    ("x265", "veryslow", 1),
    ("x265", "veryslow", 2),
    ("svt-av1", "6", 1),
    ("svt-av1", "6", 2),
    ("nvenc-av1", "P7", 1),
    ("nvenc-av1", "P7", 2),
]


@pytest.mark.parametrize("family,preset,passes", GOLDEN_CASES)
def test_command_matches_golden_template(family, preset, passes):
    # golden files were written from the published command templates,
    # which use a 1.5x max-rate factor
    job = EncodeJob(clip_id="shot", family=family, preset=preset, passes=passes,
                    target_kbps=8000, maxrate_factor=1.5)
    got = [" ".join(vec) for vec in build_commands(job, "out")]
    golden = (GOLDEN_DIR / f"{family}_{passes}p.txt").read_text().splitlines()
    assert got == golden


def test_maxrate_factor_flag_changes_only_maxrate():
    base = EncodeJob(clip_id="c", family="x264", preset="fast", passes=1,
                     target_kbps=8000)
    alt = EncodeJob(clip_id="c", family="x264", preset="fast", passes=1,
                    target_kbps=8000, maxrate_factor=1.5)
    a, b = build_commands(base)[0], build_commands(alt)[0]
    diff = [(x, y) for x, y in zip(a, b) if x != y]
    assert diff == [("9600k", "12000k")]


@pytest.mark.parametrize("factor", [0, -1.0, math.inf, math.nan])
def test_maxrate_factor_must_be_positive_and_finite(factor):
    with pytest.raises(PlanError, match="maxrate_factor"):
        EncodeJob(clip_id="c", family="x264", preset="fast", passes=1,
                  target_kbps=1000, maxrate_factor=factor)
    with pytest.raises(PlanError, match="maxrate_factor"):
        plan_matrix(["c"], ["svt-av1"], maxrate_factor=factor)
