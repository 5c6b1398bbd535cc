"""Benchmark plans and per-encoder command lines.

Every encode targets VBR with a fixed 131-frame keyframe interval,
scene-cut detection off, a max rate of ``maxrate_factor`` times the
target, a buffer of twice the target, and one thread. x264/x265/NVENC
go through an ffmpeg-compatible transcoder; SVT-AV1 uses its native
app, which also chains its own second pass. Command construction is
pure: the same job always yields the same argument vectors.
"""

from __future__ import annotations

import math
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

# The fixed encode settings of every job.
KEYINT_FRAMES = 131
BUFSIZE_FACTOR = 2.0
THREADS = 1

MAXRATE_FACTOR_DEFAULT = 1.2


@dataclass(frozen=True)
class EncoderSpec:
    """Static description of one encoder family."""

    family: str
    binary: str
    presets: tuple[str, ...]
    codec_lib: str = ""  # ffmpeg -c:v value, empty for native apps


_X26X_PRESETS = ("veryslow", "slow", "medium", "fast", "veryfast", "ultrafast")

ENCODERS: dict[str, EncoderSpec] = {
    "x264": EncoderSpec("x264", "ffmpeg", _X26X_PRESETS, "libx264"),
    "x265": EncoderSpec("x265", "ffmpeg", _X26X_PRESETS, "libx265"),
    "svt-av1": EncoderSpec("svt-av1", "SvtAv1EncApp",
                           ("2", "4", "6", "8", "10", "12")),
    "nvenc-av1": EncoderSpec("nvenc-av1", "ffmpeg",
                             ("P1", "P3", "P4", "P5", "P7"), "av1_nvenc"),
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
    maxrate_factor: float = MAXRATE_FACTOR_DEFAULT
    extra_params: tuple[str, ...] = ()
    input_path: str = ""
    variant: str = ""  # tool-off toggle label, empty for plain jobs

    def __post_init__(self):
        if self.passes not in (1, 2):
            raise PlanError(f"passes must be 1 or 2, got {self.passes}")
        if self.target_kbps <= 0:
            raise PlanError(f"target_kbps must be positive, got {self.target_kbps}")
        if not 0 < self.maxrate_factor < math.inf:
            raise PlanError("maxrate_factor must be positive and finite, "
                            f"got {self.maxrate_factor}")
        spec = get_spec(self.family)
        if self.preset not in spec.presets:
            raise PlanError(
                f"preset {self.preset!r} is not in the {self.family} vocabulary "
                f"{spec.presets}"
            )
        if not self.input_path:
            object.__setattr__(self, "input_path", f"{self.clip_id}.y4m")

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
    """(clip id, input path) of each clip, given as a ``.y4m`` path or an
    id whose input is ``<id>.y4m``."""
    pairs = []
    for clip in map(str, clips):
        if clip.endswith(".y4m"):
            pairs.append((Path(clip).stem, clip))
        else:
            pairs.append((clip, f"{clip}.y4m"))
    return pairs


def plan_matrix(
    clips: Iterable,
    families: Sequence[str],
    ladder: Sequence[int] = DEFAULT_LADDER,
    pass_modes: Sequence[int] = (1, 2),
    presets: Optional[dict[str, Sequence[str]]] = None,
    maxrate_factor: float = MAXRATE_FACTOR_DEFAULT,
) -> list[EncodeJob]:
    """Cartesian expansion in (clip, family, preset, pass, bitrate) order."""
    if not ladder:
        raise PlanError("bitrate ladder is empty")
    resolved = [get_spec(family) for family in families]
    jobs = []
    for clip_id, path in _as_clip_pairs(clips):
        for spec in resolved:
            family_presets = (presets or {}).get(spec.family, spec.presets)
            for preset in family_presets:
                for passes in pass_modes:
                    for tbr in ladder:
                        jobs.append(EncodeJob(
                            clip_id=clip_id, family=spec.family, preset=preset,
                            passes=passes, target_kbps=int(tbr),
                            maxrate_factor=maxrate_factor, input_path=path,
                        ))
    return jobs


def plan_toolsweep(clip, toggles: Sequence[str]) -> list[EncodeJob]:
    """Default config plus one job set per disabled tool: 1-pass SVT-AV1
    at ``TOOLSWEEP_PRESET`` on the 9-rung ``TOOLSWEEP_LADDER``."""
    toggles = list(toggles)
    if len(set(toggles)) != len(toggles):
        raise PlanError("duplicate toggle strings make the sweep ambiguous")
    (clip_id, path), = _as_clip_pairs([clip])
    jobs = []
    variants = [("", ())] + [(t, tuple(t.split())) for t in toggles]
    for variant, extra in variants:
        for tbr in TOOLSWEEP_LADDER:
            jobs.append(EncodeJob(
                clip_id=clip_id, family="svt-av1", preset=TOOLSWEEP_PRESET,
                passes=1, target_kbps=tbr, extra_params=extra, input_path=path,
                variant=variant or "default",
            ))
    return jobs


def _kbps_token(kbps: float) -> str:
    kbps = round(kbps, 6)
    if float(kbps) == int(kbps):
        return f"{int(kbps)}k"
    return f"{kbps:g}k"


def job_paths(job: EncodeJob, work_dir: Union[str, Path] = ".") -> tuple[str, str]:
    """(output_path, passlog_prefix) under the work directory."""
    base = str(Path(work_dir) / job.slug())
    return base + ".mp4", base + ".log"


def build_commands(
    job: EncodeJob,
    work_dir: Union[str, Path] = ".",
) -> list[list[str]]:
    """Every argument vector of a job, to run in order.

    SVT-AV1 and NVENC run either pass mode in one invocation; x264/x265
    2-pass is two chained ffmpeg runs sharing a pass log. The first
    element of each vector is the tool's bare name; ``runner.execute``
    runs the path that ``runner.resolve_binary`` finds for it.
    """
    spec = get_spec(job.family)
    output, passlog = job_paths(job, work_dir)
    keyint, threads = str(KEYINT_FRAMES), str(THREADS)
    two_pass = job.passes == 2
    if job.family == "svt-av1":
        return [[
            spec.binary, "-i", job.input_path, "--keyint", keyint,
            "--tbr", str(job.target_kbps), "-lp", threads, "--rc", "1",
            *(["--passes", "2"] if two_pass else []),
            "--preset", job.preset, *job.extra_params, "-b", output,
        ]]
    head = [
        spec.binary, "-y", "-i", job.input_path,
        "-g", keyint, "-keyint_min", keyint,
        "-b:v", _kbps_token(job.target_kbps),
        "-maxrate", _kbps_token(job.maxrate_factor * job.target_kbps),
        "-bufsize", _kbps_token(BUFSIZE_FACTOR * job.target_kbps),
        "-c:v", spec.codec_lib,
    ]
    if job.family == "nvenc-av1":
        return [head + [
            "-rc", "vbr", "-threads", threads, "-preset", job.preset,
            "-no-scenecut", "1", *(["-multipass", "2"] if two_pass else []),
            *job.extra_params, output,
        ]]
    head += ["-threads", threads, "-preset", job.preset, "-tune", "psnr"]
    params = [f"-{job.family}-params", "scenecut=0", *job.extra_params]
    if not two_pass:
        return [head + params + ["-f", "mp4", output]]
    return [head + ["-pass", "1", "-passlogfile", passlog] + params
            + ["-f", "mp4", os.devnull],
            head + ["-pass", "2", "-passlogfile", passlog] + params
            + [output]]
