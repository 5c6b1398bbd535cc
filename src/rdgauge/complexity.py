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
read that one padded plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from . import kernels
from .errors import Y4MValidationError
from .y4m import Frame, Y4MReader

BLOCK = kernels.BLOCK


def _depth_scale(bit_depth: int) -> float:
    return float(1 << (bit_depth - 8))


def _frame_energy(luma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded luma plane and its block-energy grid.

    The plane is padded to BLOCK multiples by edge replication in its
    own dtype; the grid is normalised by block area but not bit depth.
    """
    h, w = luma.shape
    padded = np.pad(luma, ((0, (-h) % BLOCK), (0, (-w) % BLOCK)), mode="edge")
    return padded, kernels.block_energies(padded) / float(BLOCK * BLOCK)


def _change_energy(
    cur: tuple[np.ndarray, np.ndarray], prev: tuple[np.ndarray, np.ndarray]
) -> float:
    """TE, before bit-depth scaling, of two ``_frame_energy`` results."""
    (plane, grid), (prev_plane, prev_grid) = cur, prev
    texture = np.abs(grid - prev_grid).mean()
    # max - min is |a - b| without unsigned wrap-around; the integer sum
    # is exact, so this equals the float64 mean bit for bit.
    diff = np.maximum(plane, prev_plane) - np.minimum(plane, prev_plane)
    mad = float(diff.sum()) / diff.size
    return float(texture + mad)


def block_texture_energy(block: np.ndarray, bit_depth: int = 8) -> float:
    """Texture energy of a single full 32x32 luma block.

    Sum of DCT AC coefficient magnitudes (unweighted), over block area
    and over 2^(bit_depth - 8). Zero for constant blocks and invariant
    under a constant offset, since only the DC coefficient moves.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.shape != (BLOCK, BLOCK):
        raise Y4MValidationError(f"expected a {BLOCK}x{BLOCK} block, got {block.shape}")
    raw = kernels.block_energies_numpy(block)[0, 0]
    return float(raw) / (BLOCK * BLOCK) / _depth_scale(bit_depth)


def frame_spatial_energy(frame: Frame) -> float:
    """Mean block texture energy over the frame's luma plane."""
    _, grid = _frame_energy(frame.y)
    return float(grid.mean()) / _depth_scale(frame.bit_depth)


def temporal_energy(frame_t: Frame, frame_prev: Frame) -> float:
    """Inter-frame change energy; symmetric in its arguments.

    Mean absolute per-block texture-energy difference plus mean
    absolute luma difference, both normalised by bit depth.
    """
    if frame_t.y.shape != frame_prev.y.shape:
        raise Y4MValidationError(
            f"frame size mismatch: {frame_t.y.shape} vs {frame_prev.y.shape}"
        )
    if frame_t.bit_depth != frame_prev.bit_depth:
        raise Y4MValidationError("bit depth mismatch between frames")
    energy = _change_energy(_frame_energy(frame_t.y), _frame_energy(frame_prev.y))
    return energy / _depth_scale(frame_t.bit_depth)


@dataclass(frozen=True)
class ComplexityRecord:
    """Per-frame energy series and clip-level summaries."""

    clip_id: str
    frame_se: tuple[float, ...]
    frame_te: tuple[float, ...]

    @property
    def clip_se(self) -> float:
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
    transformed once.
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
        scale = _depth_scale(reader.header.bit_depth)
        frame_se: list[float] = []
        frame_te: list[float] = []
        prev = None
        for frame in reader.frames():
            cur = _frame_energy(frame.y)
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


def scatter_csv_rows(records: Iterable[ComplexityRecord]) -> list[str]:
    """CSV rows (clip_id, clip_se, clip_te) for SE/TE scatter plots."""
    rows = ["clip_id,clip_se,clip_te"]
    for rec in records:
        rows.append(f"{rec.clip_id},{rec.clip_se:.9g},{rec.clip_te:.9g}")
    return rows
