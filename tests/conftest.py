import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from rdgauge.store import MetricRecord


def vmaf_model(rate_kbps: float, scale: float) -> float:
    """Monotone saturating quality model used to fabricate plausible data."""
    return 100.0 * (1.0 - math.exp(-rate_kbps / scale))


def make_records(
    clip_ids,
    family,
    preset,
    passes,
    ladder,
    *,
    rate_factor=1.0,
    efficiency=1.0,
    scale_base=2500.0,
    scale_step=400.0,
    enc_s=120.0,
    rate_jitter=0.0,
    seed=0,
):
    """One record per (clip, rung) with a per-clip quality scale.

    ``efficiency`` > 1 models a codec that reaches the quality of a
    proportionally higher bitrate, i.e. genuine bitrate savings.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i, clip in enumerate(clip_ids):
        scale = scale_base + scale_step * i
        for tbr in ladder:
            measured = tbr * rate_factor
            if rate_jitter:
                measured *= 1.0 + rng.uniform(-rate_jitter, rate_jitter)
            records.append(MetricRecord(
                clip_id=clip, family=family, preset=preset, passes=passes,
                target_kbps=float(tbr), measured_kbps=float(measured),
                vmaf=vmaf_model(measured * efficiency, scale),
                psnr_y=30.0 + 5.0 * math.log10(measured / 100.0),
                encode_seconds=enc_s, output_bytes=int(measured * 125),
                tool_version="synthetic",
            ))
    return records


# The Y4M helpers below import rdgauge.y4m when called: perfbench's
# store generator imports this module for make_records, and its peak
# memory should not grow by a module it never uses.


def make_header(width, height, fps_num=24, fps_den=1, bit_depth=8):
    """A progressive 4:2:0 Y4M header at 8 or 10 bit."""
    from rdgauge import y4m

    chroma = "C420" if bit_depth == 8 else "C420p10"
    return y4m.VideoHeader(width=width, height=height, fps_num=fps_num,
                           fps_den=fps_den, chroma=chroma)


def synthetic_clip(header, n_frames, seed=0):
    """Deterministic pseudo-random frames: one random luma plane, moved
    one column further in each frame, under fresh random chroma."""
    from rdgauge import y4m

    rng = np.random.default_rng(seed)
    hi = header.sample_max
    base = rng.integers(0, hi + 1, size=(header.height, header.width))
    chroma = (header.chroma_height, header.chroma_width)
    draw = np.uint16 if header.bit_depth > 8 else np.uint8
    frames = []
    for t in range(n_frames):
        y = np.roll(base, t, axis=1).astype(header.dtype)
        u = rng.integers(0, hi + 1, size=chroma, dtype=draw)
        v = rng.integers(0, hi + 1, size=chroma, dtype=draw)
        frames.append(y4m.Frame(y=y, u=u.astype(header.dtype),
                                v=v.astype(header.dtype),
                                bit_depth=header.bit_depth))
    return frames


def luma_frame(luma, bit_depth=8):
    """A frame of the given luma plane and all-zero chroma."""
    from rdgauge import y4m

    luma = np.asarray(luma)
    h, w = luma.shape
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    zeros = np.zeros((h // 2, w // 2), dtype)
    return y4m.Frame(y=luma.astype(dtype), u=zeros, v=zeros,
                     bit_depth=bit_depth)


def write_clip(header, frames, sink):
    """Write ``frames`` as a Y4M stream to ``sink``, a binary stream or
    a path, and return ``sink``. Nothing is checked: each plane is
    written in the header's sample type."""
    if isinstance(sink, Path):
        with open(sink, "wb") as f:
            write_clip(header, frames, f)
        return sink
    tags = ["YUV4MPEG2", f"W{header.width}", f"H{header.height}",
            f"F{header.fps_num}:{header.fps_den}", f"I{header.interlacing}",
            f"A{header.pixel_aspect[0]}:{header.pixel_aspect[1]}",
            header.chroma, *header.extra_tags]
    sink.write((" ".join(tags) + "\n").encode("ascii"))
    for frame in frames:
        sink.write(b"FRAME\n")
        for plane in (frame.y, frame.u, frame.v):
            sink.write(np.ascontiguousarray(plane, header.dtype).tobytes())
    return sink


def clip_stream(header, frames):
    """An in-memory Y4M stream of ``frames``, at its start."""
    sink = write_clip(header, frames, io.BytesIO())
    sink.seek(0)
    return sink


def read_clip(source):
    """The header and every frame of a Y4M path or stream."""
    from rdgauge import y4m

    with y4m.Y4MReader(source) as reader:
        frames = []
        while (frame := reader.read_frame()) is not None:
            frames.append(frame)
        return reader.header, frames


@pytest.fixture
def tmp_store(tmp_path):
    return tmp_path / "records.jsonl"
