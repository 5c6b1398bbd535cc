"""External process execution and quality measurement.

Runs encoder processes with per-pass monotonic wall-clock timing,
persists outcomes through the results store, and invokes the external
VMAF tool over finished encodes. Completed (clip, family, preset,
passes, tbr) keys, read from the store once per plan, are skipped
unless forced. A plan resolves every tool it needs and probes each
distinct clip's duration once, before any job runs; a clip that cannot
be probed or has no frames, an encode that leaves no output, and a
quality measurement that fails, fail only their own jobs.

Rate accounting: ``measured_kbps`` counts every byte of the output file
over the clip's duration, container overhead included (for IVF, the
32-byte file header plus 12 bytes per frame). As a sanity check, the
rate the output's own header implies (IVF frame count and time base, or
the MP4 ``mvhd`` duration) is read in-process, without an external
prober, and a disagreement of more than 2% is logged as a warning.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import json
import logging
import os
import shutil
import struct
import subprocess
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, Union

from . import store as store_mod
from . import y4m
from .cpus import available_cpus
from .encoders import EncodeJob, build_commands, get_spec, job_paths
from .errors import (MetricError, MetricParseError, MissingBinaryError,
                     RdgaugeError)
from .store import MetricRecord

log = logging.getLogger(__name__)

ENV_BIN_DIR = "RDGAUGE_BIN_DIR"
ENV_WORK_DIR = "RDGAUGE_WORK_DIR"

_OUTPUT_TAIL = 2000  # characters of a tool's output kept
_OUTPUT_READ = 64 * 1024  # bytes of a tool's output read back
_IVF_HEADER = 32  # bytes of the IVF file header

# Store appends are funnelled through a single writer.
_store_lock = threading.Lock()
# Single-GPU assumption: NVENC jobs never overlap each other.
_nvenc_lock = threading.Lock()


@dataclass
class JobOutcome:
    """Result of running (or skipping) one encode job."""

    job: EncodeJob
    status: str  # "ok" | "failed" | "skipped"
    wall_seconds: tuple[float, ...] = ()
    output_bytes: int = 0
    measured_kbps: float = 0.0
    output_path: str = ""
    stderr_tail: str = ""
    reason: str = ""  # why a failed job failed


def resolve_binary(name: str, bin_dir: Optional[Union[str, Path]] = None) -> str:
    """Locate a tool, preferring the configured binary directory.

    Only a regular file that may be executed counts, in the directory as
    on PATH (``shutil.which``), so an unusable tool fails the plan before
    its first job rather than every job at its start.
    """
    bin_dir = bin_dir or os.environ.get(ENV_BIN_DIR)
    if bin_dir:
        candidate = Path(bin_dir) / name
        if candidate.is_file() and os.access(candidate, os.X_OK):
            return str(candidate)
    found = shutil.which(name)
    if not found:
        raise MissingBinaryError(
            f"required tool {name!r} not found"
            + (f" in {bin_dir} or PATH" if bin_dir else " on PATH")
        )
    return found


def _run(argv: Sequence[str],
         timeout: Optional[float] = None) -> tuple[int, float, str]:
    """Run one external tool: (exit status, wall seconds, output).

    The only place that starts a process. Its stdin is /dev/null; the
    last 64 KiB of its stdout and stderr, spooled to one anonymous file,
    come back as UTF-8 with undecodable bytes replaced. MissingBinaryError
    if it cannot start; TimeoutExpired, once killed, past ``timeout``.
    """
    with tempfile.TemporaryFile() as spool:
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=spool,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except OSError as exc:
            raise MissingBinaryError(f"cannot run {argv[0]!r}: {exc}") from exc
        wall = time.monotonic() - start
        spool.seek(max(0, os.fstat(spool.fileno()).st_size - _OUTPUT_READ))
        output = spool.read().decode("utf-8", errors="replace")
    return proc.returncode, wall, output


@functools.cache
def tool_version(binary: str) -> str:
    """First line of `tool --version`/-version, cached per binary path."""
    for flag in ("--version", "-version"):
        try:
            text = _run([binary, flag], timeout=15)[2].strip()
        except (MissingBinaryError, subprocess.TimeoutExpired):
            continue
        if text:
            return text.splitlines()[0][:120]
    return ""


def probe_duration(path: str) -> tuple[float, int, str]:
    """(seconds, frames, "") for a clip with frames, else (0.0, 0, why
    it has none)."""
    try:
        header, frames = y4m.probe_clip(path)
    except (RdgaugeError, OSError) as exc:
        return 0.0, 0, f"cannot probe clip {path}: {exc}"
    if frames <= 0:
        return 0.0, 0, f"clip has no frames: {path}"
    return frames * header.fps_den / header.fps_num, frames, ""


def execute(
    job: EncodeJob,
    *,
    work_dir: Optional[Union[str, Path]] = None,
    bin_dir: Optional[Union[str, Path]] = None,
    store_path: Optional[Union[str, Path]] = None,
    force: bool = False,
    with_vmaf: bool = False,
    known_keys: Optional[set] = None,
    durations: Optional[dict[str, tuple[float, int, str]]] = None,
) -> JobOutcome:
    """Run all passes of a job in order and persist the outcome.

    When the store path is set, a finished encode is appended as a
    MetricRecord; with ``with_vmaf`` its quality is first measured by
    ``measure_quality`` against the clip's probed frame count. If that
    raises MetricError, the record keeps vmaf and psnr_y None and the
    outcome fails with the reason. The store is never read here: a job
    is skipped, unless forced, only when its key is in ``known_keys``,
    which ``run_plan`` fills from one ``store.load`` and a stored
    outcome joins. ``durations`` maps each input path to its
    ``probe_duration`` result; without it the clip is probed here.
    """
    work_dir = Path(work_dir or os.environ.get(ENV_WORK_DIR, "."))
    work_dir.mkdir(parents=True, exist_ok=True)

    record_key = (job.record_clip_id, job.family, job.preset, job.passes,
                  float(job.target_kbps))
    if known_keys is not None and not force and record_key in known_keys:
        log.info("skipping completed job %s", job.slug())
        return JobOutcome(job=job, status="skipped")

    duration, frames, reason = (durations[job.input_path]
                                if durations is not None
                                else probe_duration(job.input_path))
    if reason:
        return JobOutcome(job=job, status="failed", reason=reason)

    spec = get_spec(job.family)
    binary = resolve_binary(spec.binary, bin_dir)
    commands = build_commands(job, work_dir)
    for vec in commands:
        vec[0] = binary

    output_path, passlog = job_paths(job, work_dir)
    # only ffmpeg 2-pass commands are given the pass-log prefix
    writes_passlog = any(passlog in vec for vec in commands)

    walls: list[float] = []
    with (_nvenc_lock if job.family == "nvenc-av1"
          else contextlib.nullcontext()):
        try:
            for vec in commands:
                status, wall, output = _run(vec)
                walls.append(wall)
                if status != 0:
                    return JobOutcome(
                        job=job, status="failed", wall_seconds=tuple(walls),
                        output_path=output_path,
                        stderr_tail=output[-_OUTPUT_TAIL:],
                        reason=f"{Path(vec[0]).name} exited with status "
                               f"{status}",
                    )
        finally:
            if writes_passlog:
                for leftover in glob.glob(glob.escape(passlog) + "*"):
                    os.remove(leftover)

    try:
        output_bytes = os.path.getsize(output_path)
    except FileNotFoundError:
        output_bytes = 0
    if not output_bytes:
        return JobOutcome(
            job=job, status="failed", wall_seconds=tuple(walls),
            output_path=output_path,
            reason=f"encoder wrote no output {output_path}")
    measured_kbps = output_bytes * 8.0 / duration / 1000.0
    reported = container_kbps(output_path)
    if reported and abs(measured_kbps - reported) > 0.02 * reported:
        log.warning(
            "%s: measured %.1f kb/s disagrees with container-reported "
            "%.1f kb/s by more than 2%%", job.slug(), measured_kbps, reported)

    outcome = JobOutcome(
        job=job, status="ok", wall_seconds=tuple(walls),
        output_bytes=output_bytes, measured_kbps=measured_kbps,
        output_path=output_path,
    )

    if store_path:
        vmaf = psnr = None
        if with_vmaf:
            try:
                vmaf, psnr = measure_quality(
                    job.input_path, output_path, bin_dir=bin_dir,
                    expected_frames=frames)
            except MetricError as exc:
                # keep the encode; its quality can be measured again later
                outcome.status = "failed"
                outcome.reason = f"quality measurement failed: {exc}"
        record = MetricRecord(
            clip_id=job.record_clip_id, family=job.family, preset=job.preset,
            passes=job.passes, target_kbps=float(job.target_kbps),
            measured_kbps=measured_kbps, vmaf=vmaf, psnr_y=psnr,
            encode_seconds=sum(walls), output_bytes=output_bytes,
            tool_version=tool_version(binary),
        )
        with _store_lock:
            store_mod.append(store_path, record)
            if known_keys is not None:
                known_keys.add(record_key)
    return outcome


def run_plan(
    jobs: Sequence[EncodeJob],
    *,
    workers: Optional[int] = None,
    work_dir: Optional[Union[str, Path]] = None,
    bin_dir: Optional[Union[str, Path]] = None,
    store_path: Optional[Union[str, Path]] = None,
    force: bool = False,
    with_vmaf: bool = False,
) -> list[JobOutcome]:
    """Execute a plan with bounded parallelism.

    Before the first job, every tool the plan needs (each job's encoder,
    plus ffmpeg with ``with_vmaf``) is resolved, so a missing one raises
    MissingBinaryError with nothing run; then the store is read once for
    its completed keys, which every job is checked against (no job reads
    the store), and each distinct clip is probed once. With one worker
    the jobs run one after another in this thread, so wall-clock
    numbers stay comparable; otherwise they run on a worker pool, by
    default of one worker per CPU the process may run on.
    """
    tools = [get_spec(job.family).binary for job in jobs]
    if with_vmaf:
        tools.append("ffmpeg")
    for tool in dict.fromkeys(tools):
        resolve_binary(tool, bin_dir)
    workers = workers or available_cpus()
    known_keys = ({rec.key() for rec in store_mod.load(store_path)}
                  if store_path else None)
    durations = {path: probe_duration(path)
                 for path in dict.fromkeys(job.input_path for job in jobs)}
    run = partial(execute, work_dir=work_dir, bin_dir=bin_dir,
                  store_path=store_path, force=force, with_vmaf=with_vmaf,
                  known_keys=known_keys, durations=durations)
    if workers == 1:
        return [run(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, jobs))


def parse_vmaf_log(text: str) -> tuple[float, float, int]:
    """Pooled mean VMAF, mean PSNR-Y and frame count from a JSON metric log."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MetricParseError(f"metric log is not valid JSON: {exc}") from exc
    pooled = data.get("pooled_metrics")
    if not isinstance(pooled, dict):
        raise MetricParseError("metric log is missing the pooled_metrics section")
    try:
        vmaf = float(pooled["vmaf"]["mean"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MetricParseError("pooled vmaf mean missing") from exc
    psnr = None
    for key in ("psnr_y", "psnr"):
        if key in pooled and isinstance(pooled[key], dict) and "mean" in pooled[key]:
            psnr = float(pooled[key]["mean"])
            break
    if psnr is None:
        raise MetricParseError("pooled psnr_y mean missing")
    n_frames = len(data.get("frames", []))
    return vmaf, psnr, n_frames


def measure_quality(
    source: Union[str, Path],
    encoded: Union[str, Path],
    *,
    bin_dir: Optional[Union[str, Path]] = None,
    expected_frames: Optional[int] = None,
) -> tuple[float, float]:
    """Run the external VMAF tool and return (vmaf_mean, psnr_y_mean).

    Compares the decoded output against the source via an
    ffmpeg-compatible binary with the libvmaf filter, JSON log format.
    """
    binary = resolve_binary("ffmpeg", bin_dir)
    fd, log_path = tempfile.mkstemp(suffix=".json", prefix="rdgauge-vmaf-")
    os.close(fd)
    try:
        filt = (f"libvmaf=log_fmt=json:log_path={log_path}"
                ":feature=name=psnr")
        vec = [binary, "-y", "-i", str(encoded), "-i", str(source),
               "-lavfi", filt, "-f", "null", "-"]
        status, _, output = _run(vec)
        if status != 0:
            tail = output.strip()[-_OUTPUT_TAIL:]
            raise MetricError(f"metric tool failed: {tail}")
        vmaf, psnr, n_frames = parse_vmaf_log(Path(log_path).read_text())
    finally:
        try:
            os.remove(log_path)
        except OSError:
            pass
    if expected_frames is not None and not n_frames:
        log.warning("metric log for %s lists no frames; frame count not "
                    "verified against the source's %d", encoded,
                    expected_frames)
    elif expected_frames is not None and n_frames != expected_frames:
        raise MetricError(
            f"frame-count mismatch: source has {expected_frames}, "
            f"metric log has {n_frames}")
    return vmaf, psnr


def container_kbps(path: Union[str, Path]) -> Optional[float]:
    """Bit rate in kb/s that the file's own header implies, or None.

    The duration comes from an IVF header (frame count times time base)
    or from the ``mvhd`` box of an MP4's ``moov``; the rate is the file
    size over it. A file that is neither, or whose header is truncated
    or gives no duration, yields None rather than an error.
    """
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(_IVF_HEADER)
            if head[:4] == b"DKIF":
                seconds = _ivf_seconds(head)
            else:
                seconds = _mp4_seconds(f, size)
    except OSError:
        return None
    if not seconds:
        return None
    return size * 8.0 / seconds / 1000.0


def _ivf_seconds(head: bytes) -> Optional[float]:
    if len(head) < _IVF_HEADER:
        return None
    den, num, frames = struct.unpack_from("<III", head, 16)
    return frames * num / den if den else None


def _mp4_seconds(f, size: int) -> Optional[float]:
    for kind, start, end in _boxes(f, 0, size):
        if kind == b"moov":
            for kind, start, end in _boxes(f, start, end):
                if kind == b"mvhd":
                    f.seek(start)
                    return _mvhd_seconds(f.read(min(end - start, 32)))
            return None
    return None


def _boxes(f, start: int, end: int):
    """(type, body start, box end) of each ISO-BMFF box in [start, end).

    Handles a 64-bit ``largesize`` (size 1) and a box that runs to
    ``end`` (size 0); stops at the first header that is cut short or a
    box that overruns ``end``.
    """
    pos = start
    while pos + 8 <= end:
        f.seek(pos)
        head = f.read(8)
        if len(head) < 8:
            return
        box_size, kind = struct.unpack(">I4s", head)
        body = pos + 8
        if box_size == 1:
            large = f.read(8)
            if len(large) < 8:
                return
            box_size = struct.unpack(">Q", large)[0]
            body += 8
        elif box_size == 0:
            box_size = end - pos
        if box_size < body - pos or pos + box_size > end:
            return
        yield kind, body, pos + box_size
        pos += box_size


def _mvhd_seconds(body: bytes) -> Optional[float]:
    """Duration over timescale from an ``mvhd`` full box, version 0 or 1."""
    if body[:1] == b"\x00" and len(body) >= 20:
        timescale, duration = struct.unpack_from(">II", body, 12)
    elif body[:1] == b"\x01" and len(body) >= 32:
        timescale, duration = struct.unpack_from(">IQ", body, 20)
    else:
        return None
    if not timescale:
        return None
    return duration / timescale
