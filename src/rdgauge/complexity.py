"""Spatial and temporal complexity of clips.

Spatial energy (SE) of a frame is the mean, over 32x32 luma blocks, of
the block's summed DCT AC magnitudes, normalised by block area and bit
depth. Temporal energy (TE) of a frame pair adds the mean absolute
change in block texture energy to the mean absolute luma difference.
A clip is summarised by mean SE and max TE. Edge blocks are completed
by replication padding; only luma contributes.

Padding is part of the definition of TE: the mean absolute luma
difference is taken over the padded plane, so the replicated rows and
columns count as pixels (a 1080-row frame is averaged over 1088 rows).
A change in the last real row or column therefore weighs more than one
elsewhere. TE values depend on this choice.

Each frame's luma plane is padded once in the dtype it was read in; the
block energies, the flat-block test and the absolute difference all
read that one padded plane. The mean absolute difference is taken in
place, as max(a, b) minus min(a, b) in the sample dtype with no
full-plane subtraction temporary, and summed as exact integer row sums
in uint32, or in uint64 where the dtype's maximum times the width does
not fit uint32.

``analyze_clips`` analyses several clips on a thread pool of one worker
per clip, up to the CPUs the process may run on. The clips are
independent, numpy releases the interpreter lock in its array work, and
the kernel's BLAS calls are small enough to run on the calling thread
(see ``kernels.CHUNK``), so the workers run in parallel. Each clip's
result is the same as from ``analyze_clip`` alone.
"""

from __future__ import annotations

import csv
import io
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from . import kernels
from .cpus import available_cpus
from .errors import RdgaugeError, Y4MValidationError
from .y4m import Y4MReader

if TYPE_CHECKING:
    import numpy as np

BLOCK = kernels.BLOCK


def _frame_energy(luma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded luma plane and its block-energy grid.

    The plane is padded to BLOCK multiples by edge replication in its
    own dtype; the grid is normalised by block area but not bit depth.
    """
    import numpy as np
    h, w = luma.shape
    padded = np.pad(luma, ((0, (-h) % BLOCK), (0, (-w) % BLOCK)), mode="edge")
    return padded, kernels.block_energies(padded) / float(BLOCK * BLOCK)


def _change_energy(
    cur: tuple[np.ndarray, np.ndarray], prev: tuple[np.ndarray, np.ndarray]
) -> float:
    """TE, before bit-depth scaling, of two ``_frame_energy`` results.

    The planes hold integer samples.
    """
    import numpy as np
    (plane, grid), (prev_plane, prev_grid) = cur, prev
    texture = np.abs(grid - prev_grid).mean()
    # max - min is |a - b| without unsigned wrap-around. A row sum
    # cannot exceed the dtype's maximum times the width, so the row sums
    # and their total are exact and this equals the float64 mean bit
    # for bit.
    diff = np.maximum(plane, prev_plane)
    diff -= np.minimum(plane, prev_plane)
    row_max = int(np.iinfo(diff.dtype).max) * diff.shape[1]
    acc = np.uint32 if row_max <= np.iinfo(np.uint32).max else np.uint64
    total = int(diff.sum(axis=1, dtype=acc).sum(dtype=np.uint64))
    mad = float(total) / diff.size
    return float(texture + mad)


@dataclass(frozen=True)
class ComplexityRecord:
    """Per-frame energy series and clip-level summaries."""

    clip_id: str
    frame_se: tuple[float, ...]
    frame_te: tuple[float, ...]

    @property
    def clip_se(self) -> float:
        import numpy as np
        return float(np.mean(self.frame_se))

    @property
    def clip_te(self) -> float:
        return float(max(self.frame_te)) if self.frame_te else 0.0

    def to_json_line(self) -> str:
        row = {
            "clip": self.clip_id,
            "frames": len(self.frame_se),
            "clip_se": self.clip_se,
            "clip_te": self.clip_te,
            "frame_se": list(self.frame_se),
            "frame_te": list(self.frame_te),
        }
        return json.dumps(row, ensure_ascii=False)


def analyze_clip(
    source: Union[str, Path, Y4MReader],
    clip_id: Optional[str] = None,
) -> ComplexityRecord:
    """Stream a clip and produce its complexity record.

    Reuses the previous frame's block-energy grid so each frame is
    transformed once. A frame's payload is released before the next one
    is read, so a clip holds one payload at a time, not two.
    """
    if isinstance(source, Y4MReader):
        reader = source
        own = False
        cid = clip_id or "clip"
    else:
        reader = Y4MReader(source)
        own = True
        cid = clip_id or Path(source).stem
    try:
        scale = float(1 << (reader.header.bit_depth - 8))
        frame_se: list[float] = []
        frame_te: list[float] = []
        prev = None
        while (frame := reader.read_frame()) is not None:
            cur = _frame_energy(frame.y)
            del frame  # free the payload before the next read
            frame_se.append(float(cur[1].mean()) / scale)
            if prev is not None:
                frame_te.append(_change_energy(cur, prev) / scale)
            prev = cur
    finally:
        if own:
            reader.close()
    if not frame_se:
        raise Y4MValidationError(f"clip {cid!r} has no frames")
    return ComplexityRecord(
        clip_id=cid, frame_se=tuple(frame_se), frame_te=tuple(frame_te)
    )


ClipResult = Union[ComplexityRecord, RdgaugeError, OSError]


def analyze_clips(
    paths: Iterable[Union[str, Path]],
) -> Iterator[tuple[Union[str, Path], ClipResult]]:
    """``(path, record or error)`` for each path, in input order.

    The clips run through ``analyze_clip`` on a thread pool of
    ``min(len(paths), available_cpus())`` workers. A clip that fails
    with an RdgaugeError or OSError yields that error instead of a
    record, and the other clips go on. Any other exception in a clip
    cancels the clips not yet started and is raised here in that clip's
    turn, after the results before it. An exception in the caller
    (Ctrl-C included), or closing the generator early, also cancels the
    clips not yet started and waits for the ones running.
    """
    paths = list(paths)
    workers = max(1, min(len(paths), available_cpus()))
    pool = ThreadPoolExecutor(workers, thread_name_prefix="rdgauge-complexity")
    # held while submitting, so a failing clip cancels every later one
    submitting = threading.Lock()

    def analyze(path):
        try:
            return analyze_clip(path)
        except (RdgaugeError, OSError) as exc:
            return exc
        except BaseException:
            # this worker takes no further clip once the rest is cancelled
            with submitting:
                pool.shutdown(wait=False, cancel_futures=True)
            raise

    try:
        with submitting:
            futures = [pool.submit(analyze, path) for path in paths]
        for path, future in zip(paths, futures):
            yield path, future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def scatter_csv(records: Iterable[ComplexityRecord]) -> str:
    """CSV (clip_id, clip_se, clip_te) for SE/TE scatter plots: one
    header, then a row per record.

    A clip id holding a comma, a quote or a line break is quoted (the
    csv module's minimal quoting).
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("clip_id", "clip_se", "clip_te"))
    writer.writerows((rec.clip_id, f"{rec.clip_se:.9g}", f"{rec.clip_te:.9g}")
                     for rec in records)
    return buf.getvalue()
