"""YUV4MPEG2 (Y4M) stream reading.

Only progressive 4:2:0 at 8 or 10 bit is supported, which covers the
benchmark corpus. Frames are planar numpy arrays; 10-bit samples travel
as little-endian 16-bit words. Reading is streaming, one frame at a
time, so multi-GB 4K clips never get buffered whole. numpy is imported
when a frame is read: parsing a header or probing a clip never loads
it. rdgauge writes no Y4M: its clips come from elsewhere and the
encoders read them directly.
"""

from __future__ import annotations

import logging
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Optional, Union

from .errors import (
    IncompleteFrameError,
    Y4MFormatError,
    Y4MUnsupportedError,
    Y4MValidationError,
)

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

SIGNATURE = b"YUV4MPEG2"
FRAME_MARKER = b"FRAME"

# Chroma tags we accept, mapped to bit depth. The 8-bit 4:2:0 siting
# variants differ only in chroma sample placement, which we do not
# interpret, so they all decode the same way.
CHROMA_BIT_DEPTH = {
    "420": 8,
    "420jpeg": 8,
    "420mpeg2": 8,
    "420paldv": 8,
    "420p10": 10,
}

_MAX_LINE = 4096
_PIPE_CHUNK = 16 << 20  # largest single read from a stream of unknown size


@dataclass(frozen=True)
class VideoHeader:
    """Decoded Y4M stream parameters."""

    width: int
    height: int
    fps_num: int
    fps_den: int
    chroma: str = "C420"
    interlacing: str = "p"
    pixel_aspect: tuple[int, int] = (1, 1)
    extra_tags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise Y4MValidationError(
                f"frame size must be positive, got {self.width}x{self.height}"
            )
        if self.fps_num < 1 or self.fps_den < 1:
            raise Y4MValidationError(
                f"frame rate must be positive, got {self.fps_num}:{self.fps_den}"
            )
        if self.width % 2 or self.height % 2:
            raise Y4MValidationError(
                f"4:2:0 needs even dimensions, got {self.width}x{self.height}"
            )
        if self.interlacing != "p":
            raise Y4MUnsupportedError(
                f"only progressive streams are supported (I{self.interlacing})"
            )
        _chroma_depth(self.chroma)  # a bad chroma tag fails here

    @property
    def bit_depth(self) -> int:
        return _chroma_depth(self.chroma)

    @property
    def chroma_width(self) -> int:
        return self.width // 2

    @property
    def chroma_height(self) -> int:
        return self.height // 2

    @property
    def bytes_per_sample(self) -> int:
        return 1 if self.bit_depth == 8 else 2

    @property
    def dtype(self) -> np.dtype:
        import numpy as np
        return np.dtype("u1") if self.bit_depth == 8 else np.dtype("<u2")

    @property
    def sample_max(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def frame_samples(self) -> int:
        return self.width * self.height + 2 * self.chroma_width * self.chroma_height

    @property
    def frame_payload_bytes(self) -> int:
        return self.frame_samples * self.bytes_per_sample


@dataclass(frozen=True)
class Frame:
    """One decoded planar 4:2:0 frame."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    bit_depth: int = 8


def _chroma_depth(tag: str) -> int:
    if not tag.startswith("C"):
        raise Y4MFormatError(f"bad chroma tag {tag!r}")
    variant = tag[1:]
    try:
        return CHROMA_BIT_DEPTH[variant]
    except KeyError:
        raise Y4MUnsupportedError(f"unsupported chroma format {tag!r}") from None


def _read_line(stream: BinaryIO, what: str) -> Optional[bytes]:
    """Read up to a newline; None at clean EOF, error on EOF mid-line."""
    line = stream.readline(_MAX_LINE + 1)
    if not line:
        return None
    if line[-1:] != b"\n":
        if len(line) > _MAX_LINE:
            raise Y4MFormatError(f"{what} line longer than {_MAX_LINE} bytes")
        raise Y4MFormatError(f"stream ended inside {what} line")
    return line[:-1]


def _check_marker(line: bytes) -> None:
    if line.split(b" ")[0] != FRAME_MARKER:
        raise Y4MFormatError(f"expected FRAME marker, got {line[:20]!r}")


def parse_header(stream: BinaryIO) -> VideoHeader:
    """Decode the signature line at the current stream position."""
    line = _read_line(stream, "header")
    if line is None:
        raise Y4MFormatError("empty stream, no YUV4MPEG2 signature")
    fields = line.split(b" ")
    if fields[0] != SIGNATURE:
        raise Y4MFormatError(f"missing YUV4MPEG2 signature, got {fields[0][:20]!r}")

    width = height = None
    fps = None
    interlacing = "p"
    aspect = (1, 1)
    chroma = "C420"
    extras: list[str] = []

    for raw in fields[1:]:
        if not raw:
            continue
        tag = raw.decode("ascii", errors="replace")
        key, val = tag[0], tag[1:]
        try:
            if key == "W":
                width = int(val)
            elif key == "H":
                height = int(val)
            elif key == "F":
                num, den = val.split(":")
                fps = (int(num), int(den))
            elif key == "I":
                interlacing = val
            elif key == "A":
                num, den = val.split(":")
                aspect = (int(num), int(den))
            elif key == "C":
                chroma = tag
            else:
                if key != "X":
                    log.warning("ignoring unknown Y4M header tag %r", tag)
                extras.append(tag)
        except ValueError as exc:
            raise Y4MFormatError(f"malformed header tag {tag!r}") from exc

    if width is None or height is None:
        raise Y4MFormatError("header is missing W or H tag")
    if fps is None:
        raise Y4MFormatError("header is missing F tag")

    return VideoHeader(
        width=width,
        height=height,
        fps_num=fps[0],
        fps_den=fps[1],
        chroma=chroma,
        interlacing=interlacing,
        pixel_aspect=aspect,
        extra_tags=tuple(extras),
    )


def _bytes_left(stream: BinaryIO) -> Optional[int]:
    """Bytes after the current position of a regular file, else None."""
    try:
        st = os.fstat(stream.fileno())
    except (AttributeError, OSError, ValueError):
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_size - stream.tell()


def read_frame(stream: BinaryIO, header: VideoHeader) -> Optional[Frame]:
    """Read one frame at the current position; None at clean EOF.

    A forged frame size fails its clip instead of allocating the claimed
    size: on a regular file a payload longer than the bytes left is an
    IncompleteFrameError before anything is read, and any other stream
    is read at most 16 MiB at a time, stopping at the first short read.
    """
    line = _read_line(stream, "frame marker")
    if line is None:
        return None
    _check_marker(line)

    size = header.frame_payload_bytes
    left = _bytes_left(stream)
    if left is None:  # a pipe: allocate what arrives, not what is claimed
        chunks, got = [], 0
        while got < size:
            want = min(size - got, _PIPE_CHUNK)
            chunks.append(stream.read(want))
            got += len(chunks[-1])
            if len(chunks[-1]) < want:
                break
        payload = b"".join(chunks)
    elif left < size:
        # a forged frame size must not allocate its claimed payload
        raise IncompleteFrameError(
            f"frame payload truncated: {left} of {size} bytes")
    else:
        payload = stream.read(size)
    if len(payload) != size:
        raise IncompleteFrameError(
            f"frame payload truncated: {len(payload)} of {size} bytes")

    import numpy as np
    samples = np.frombuffer(payload, dtype=header.dtype)
    ny = header.width * header.height
    nc = header.chroma_width * header.chroma_height
    y = samples[:ny].reshape(header.height, header.width)
    u = samples[ny:ny + nc].reshape(header.chroma_height, header.chroma_width)
    v = samples[ny + nc:].reshape(header.chroma_height, header.chroma_width)
    return Frame(y=y, u=u, v=v, bit_depth=header.bit_depth)


class Y4MReader:
    """Sequential single-consumer reader over one clip."""

    def __init__(self, source: Union[str, Path, BinaryIO]):
        if isinstance(source, (str, Path)):
            self._stream: BinaryIO = open(source, "rb")
            self._owns = True
        else:
            self._stream = source
            self._owns = False
        try:
            self.header = parse_header(self._stream)
        except Exception:
            if self._owns:
                self._stream.close()
            raise

    def read_frame(self) -> Optional[Frame]:
        return read_frame(self._stream, self.header)

    def close(self) -> None:
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "Y4MReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def probe_clip(path: Union[str, Path]) -> tuple[VideoHeader, int]:
    """Header plus frame count.

    Walks the frame markers, which may carry parameters, and seeks over
    each payload; a payload that runs past the end of the file is an
    IncompleteFrameError.
    """
    with open(path, "rb") as stream:
        header = parse_header(stream)
        size = os.fstat(stream.fileno()).st_size
        payload = header.frame_payload_bytes
        pos = stream.tell()
        count = 0
        while True:
            line = _read_line(stream, "frame marker")
            if line is None:
                break
            _check_marker(line)
            pos += len(line) + 1 + payload
            if pos > size:
                raise IncompleteFrameError("frame payload truncated")
            stream.seek(pos)
            count += 1
    return header, count

