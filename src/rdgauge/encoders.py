"""Benchmark plans and per-encoder command lines.

Every encode targets VBR with a fixed 131-frame keyframe interval,
scene-cut detection off, max rate and buffer size derived from the
target bitrate, and one thread. x264/x265/NVENC go through an
ffmpeg-compatible transcoder; SVT-AV1 uses its native app, which also
chains its own second pass. Command construction is pure: the same job
always yields the same argument vectors.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .errors import PlanError

# 12-rung default target ladder, kb/s.
DEFAULT_LADDER = (500, 1000, 2000, 3000, 4000, 6000, 8000, 10000, 12000,
                  14000, 16000, 20000)

# 9-rung ladder for tool-off sweeps, 500 kb/s to 10 Mb/s.
TOOLSWEEP_LADDER = (500, 1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000)
TOOLSWEEP_PRESET = "10"

KEYINT_DEFAULT = 131
MAXRATE_FACTOR_DEFAULT = 1.2
BUFSIZE_FACTOR_DEFAULT = 2.0


@dataclass(frozen=True)
class EncoderSpec:
    """Static description of one encoder family."""

    family: str
    invocation_style: str  # "ffmpeg_wrapped" | "native_app"
    binary: str
    presets: tuple[str, ...]
    codec_lib: str = ""  # ffmpeg -c:v value, empty for native apps
    params_flag: str = ""  # "-x264-params" style private option flag
    tune_psnr: bool = False


ENCODERS: dict[str, EncoderSpec] = {
    "x264": EncoderSpec(
        family="x264", invocation_style="ffmpeg_wrapped", binary="ffmpeg",
        presets=("veryslow", "slow", "medium", "fast", "veryfast", "ultrafast"),
        codec_lib="libx264", params_flag="-x264-params", tune_psnr=True,
    ),
    "x265": EncoderSpec(
        family="x265", invocation_style="ffmpeg_wrapped", binary="ffmpeg",
        presets=("veryslow", "slow", "medium", "fast", "veryfast", "ultrafast"),
        codec_lib="libx265", params_flag="-x265-params", tune_psnr=True,
    ),
    "svt-av1": EncoderSpec(
        family="svt-av1", invocation_style="native_app", binary="SvtAv1EncApp",
        presets=("2", "4", "6", "8", "10", "12"),
    ),
    "nvenc-av1": EncoderSpec(
        family="nvenc-av1", invocation_style="ffmpeg_wrapped", binary="ffmpeg",
        presets=("P1", "P3", "P4", "P5", "P7"),
        codec_lib="av1_nvenc",
    ),
}


def get_spec(family: str) -> EncoderSpec:
    try:
        return ENCODERS[family]
    except KeyError:
        raise PlanError(f"unknown encoder family {family!r}") from None


@dataclass(frozen=True)
class EncodeJob:
    """One (clip, codec, preset, pass-mode, bitrate) work unit."""

    clip_id: str
    family: str
    preset: str
    passes: int
    target_kbps: int
    keyint_frames: int = KEYINT_DEFAULT
    maxrate_factor: float = MAXRATE_FACTOR_DEFAULT
    bufsize_factor: float = BUFSIZE_FACTOR_DEFAULT
    threads: int = 1
    extra_params: tuple[str, ...] = ()
    input_path: str = ""
    variant: str = ""  # tool-off toggle label, empty for plain jobs

    def __post_init__(self):
        if self.passes not in (1, 2):
            raise PlanError(f"passes must be 1 or 2, got {self.passes}")
        if self.target_kbps <= 0:
            raise PlanError(f"target_kbps must be positive, got {self.target_kbps}")
        spec = get_spec(self.family)
        if self.preset not in spec.presets:
            raise PlanError(
                f"preset {self.preset!r} is not in the {self.family} vocabulary "
                f"{spec.presets}"
            )
        if not self.input_path:
            object.__setattr__(self, "input_path", f"{self.clip_id}.y4m")

    @property
    def maxrate_kbps(self) -> float:
        return round(self.maxrate_factor * self.target_kbps, 6)

    @property
    def bufsize_kbps(self) -> float:
        return round(self.bufsize_factor * self.target_kbps, 6)

    @property
    def record_clip_id(self) -> str:
        """Store key clip component; tool-off variants must not collide."""
        return f"{self.clip_id}@{self.variant}" if self.variant else self.clip_id

    def slug(self) -> str:
        parts = [self.clip_id, self.family, self.preset,
                 f"{self.passes}p", f"{self.target_kbps}k"]
        if self.variant:
            parts.append(re.sub(r"[^A-Za-z0-9]+", "-", self.variant).strip("-"))
        return "_".join(parts)


def _as_clip_pairs(clips: Iterable) -> list[tuple[str, str]]:
    pairs = []
    for clip in clips:
        if isinstance(clip, (tuple, list)):
            pairs.append((str(clip[0]), str(clip[1])))
        else:
            clip = str(clip)
            if clip.endswith(".y4m"):
                pairs.append((Path(clip).stem, clip))
            else:
                pairs.append((clip, f"{clip}.y4m"))
    return pairs


def plan_matrix(
    clips: Iterable,
    specs: Sequence[Union[str, EncoderSpec]],
    ladder: Sequence[int] = DEFAULT_LADDER,
    pass_modes: Sequence[int] = (1, 2),
    presets: Optional[dict[str, Sequence[str]]] = None,
    **job_kwargs,
) -> list[EncodeJob]:
    """Cartesian expansion in (clip, family, preset, pass, bitrate) order."""
    if not ladder:
        raise PlanError("bitrate ladder is empty")
    resolved = [s if isinstance(s, EncoderSpec) else get_spec(s) for s in specs]
    jobs = []
    for clip_id, path in _as_clip_pairs(clips):
        for spec in resolved:
            family_presets = (presets or {}).get(spec.family, spec.presets)
            for preset in family_presets:
                if preset not in spec.presets:
                    raise PlanError(
                        f"preset {preset!r} is not in the {spec.family} vocabulary"
                    )
                for passes in pass_modes:
                    for tbr in ladder:
                        jobs.append(EncodeJob(
                            clip_id=clip_id, family=spec.family, preset=preset,
                            passes=passes, target_kbps=int(tbr),
                            input_path=path, **job_kwargs,
                        ))
    return jobs


def plan_toolsweep(
    clip,
    toggles: Sequence[str],
    ladder: Sequence[int] = TOOLSWEEP_LADDER,
    preset: str = TOOLSWEEP_PRESET,
    passes: int = 1,
) -> list[EncodeJob]:
    """Default config plus one job set per disabled tool, on the 9-rung ladder."""
    toggles = list(toggles)
    if len(set(toggles)) != len(toggles):
        raise PlanError("duplicate toggle strings make the sweep ambiguous")
    (clip_id, path), = _as_clip_pairs([clip])
    jobs = []
    variants = [("", ())] + [(t, tuple(t.split())) for t in toggles]
    for variant, extra in variants:
        for tbr in ladder:
            jobs.append(EncodeJob(
                clip_id=clip_id, family="svt-av1", preset=preset, passes=passes,
                target_kbps=int(tbr), extra_params=extra, input_path=path,
                variant=variant or "default",
            ))
    return jobs


def _kbps_token(kbps: float) -> str:
    if float(kbps) == int(kbps):
        return f"{int(kbps)}k"
    return f"{kbps:g}k"


def job_paths(job: EncodeJob, work_dir: Union[str, Path] = ".") -> tuple[str, str]:
    """(output_path, passlog_prefix) under the work directory."""
    base = str(Path(work_dir) / job.slug())
    return base + ".mp4", base + ".log"


def build_command(
    job: EncodeJob,
    pass_index: int,
    work_dir: Union[str, Path] = ".",
) -> list[str]:
    """Argument vector for one pass of a job.

    Single-invocation modes (1-pass, SVT-AV1 2-pass, NVENC multipass)
    only have a pass 1; asking for their pass 2 is a plan error. The
    first element is the tool's bare name; ``runner.execute`` runs the
    path that ``runner.resolve_binary`` finds for it.
    """
    if pass_index < 1 or pass_index > job.passes:
        raise PlanError(f"pass_index {pass_index} out of range for {job.passes}-pass job")
    spec = get_spec(job.family)
    output, passlog = job_paths(job, work_dir)

    if spec.invocation_style == "native_app":
        if pass_index != 1:
            raise PlanError("SVT-AV1 chains both passes in a single invocation")
        return _svt_vector(job, spec.binary, output)

    if job.family == "nvenc-av1":
        if pass_index != 1:
            raise PlanError("NVENC multipass runs in a single invocation")
        return _nvenc_vector(job, spec.binary, output)

    return _ffmpeg_sw_vector(job, spec.binary, pass_index, output, passlog)


def build_commands(
    job: EncodeJob,
    work_dir: Union[str, Path] = ".",
) -> list[list[str]]:
    """All vectors to run in order; chained only for x264/x265 2-pass."""
    spec = get_spec(job.family)
    chained = spec.invocation_style == "ffmpeg_wrapped" and spec.params_flag
    n = job.passes if (chained and job.passes == 2) else 1
    return [build_command(job, i + 1, work_dir) for i in range(n)]


def _ffmpeg_sw_vector(job, binary, pass_index, output, passlog) -> list[str]:
    spec = get_spec(job.family)
    vec = [
        binary, "-y", "-i", job.input_path,
        "-g", str(job.keyint_frames), "-keyint_min", str(job.keyint_frames),
        "-b:v", _kbps_token(job.target_kbps),
        "-maxrate", _kbps_token(job.maxrate_kbps),
        "-bufsize", _kbps_token(job.bufsize_kbps),
        "-c:v", spec.codec_lib,
        "-threads", str(job.threads),
        "-preset", job.preset,
    ]
    if spec.tune_psnr:
        vec += ["-tune", "psnr"]
    if job.passes == 2:
        vec += ["-pass", str(pass_index), "-passlogfile", passlog]
    vec += [spec.params_flag, "scenecut=0"]
    vec += list(job.extra_params)
    if job.passes == 2 and pass_index == 1:
        vec += ["-f", "mp4", os.devnull]
    elif job.passes == 1:
        vec += ["-f", "mp4", output]
    else:
        vec += [output]
    return vec


def _nvenc_vector(job, binary, output) -> list[str]:
    vec = [
        binary, "-y", "-i", job.input_path,
        "-g", str(job.keyint_frames), "-keyint_min", str(job.keyint_frames),
        "-b:v", _kbps_token(job.target_kbps),
        "-maxrate", _kbps_token(job.maxrate_kbps),
        "-bufsize", _kbps_token(job.bufsize_kbps),
        "-c:v", "av1_nvenc",
        "-rc", "vbr",
        "-threads", str(job.threads),
        "-preset", job.preset,
        "-no-scenecut", "1",
    ]
    if job.passes == 2:
        vec += ["-multipass", "2"]
    vec += list(job.extra_params)
    vec += [output]
    return vec


def _svt_vector(job, binary, output) -> list[str]:
    vec = [
        binary, "-i", job.input_path,
        "--keyint", str(job.keyint_frames),
        "--tbr", str(job.target_kbps),
        "-lp", str(job.threads),
        "--rc", "1",
    ]
    if job.passes == 2:
        vec += ["--passes", "2"]
    vec += ["--preset", job.preset]
    vec += list(job.extra_params)
    vec += ["-b", output]
    return vec
