"""YUV4MPEG2 (Y4M) stream reading and writing.

Only progressive 4:2:0 at 8 or 10 bit is supported, which covers the
benchmark corpus. Frames are planar numpy arrays; 10-bit samples travel
as little-endian 16-bit words. Reading is streaming, one frame at a
time, so multi-GB 4K clips never get buffered whole.
"""

from __future__ import annotations

import logging
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Optional, Union

import numpy as np

from .errors import (
    IncompleteFrameError,
    Y4MFormatError,
    Y4MUnsupportedError,
    Y4MValidationError,
)

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
    bit_depth: int = 0  # 0 means "derive from chroma"
    interlacing: str = "p"
    pixel_aspect: tuple[int, int] = (1, 1)
    extra_tags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.bit_depth == 0:
            object.__setattr__(self, "bit_depth", _chroma_depth(self.chroma))
        self.validate()

    def validate(self) -> None:
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
        depth = _chroma_depth(self.chroma)
        if self.bit_depth != depth:
            raise Y4MValidationError(
                f"bit depth {self.bit_depth} contradicts chroma tag {self.chroma}"
            )

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

    @property
    def fps(self) -> float:
        return self.fps_num / self.fps_den

    def header_line(self) -> bytes:
        tags = [
            SIGNATURE.decode(),
            f"W{self.width}",
            f"H{self.height}",
            f"F{self.fps_num}:{self.fps_den}",
            f"I{self.interlacing}",
            f"A{self.pixel_aspect[0]}:{self.pixel_aspect[1]}",
            self.chroma,
        ]
        tags.extend(self.extra_tags)
        return (" ".join(tags) + "\n").encode("ascii")


@dataclass(frozen=True)
class Frame:
    """One decoded planar 4:2:0 frame."""

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    bit_depth: int = 8

    def conforms_to(self, header: VideoHeader) -> bool:
        return (
            self.bit_depth == header.bit_depth
            and self.y.shape == (header.height, header.width)
            and self.u.shape == (header.chroma_height, header.chroma_width)
            and self.v.shape == (header.chroma_height, header.chroma_width)
        )


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

    def frames(self) -> Iterator[Frame]:
        while True:
            frame = self.read_frame()
            if frame is None:
                return
            yield frame

    def close(self) -> None:
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "Y4MReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_clip(
    header: VideoHeader,
    frames: Iterable[Frame],
    sink: BinaryIO,
) -> int:
    """Write a header plus frames; returns bytes written.

    The emitted stream re-parses to an identical header and bit-identical
    frames.
    """
    written = 0
    line = header.header_line()
    sink.write(line)
    written += len(line)
    for i, frame in enumerate(frames):
        if not frame.conforms_to(header):
            raise Y4MValidationError(
                f"frame {i} does not conform to header "
                f"({header.width}x{header.height} C{header.chroma[1:]})"
            )
        for plane in (frame.y, frame.u, frame.v):
            if plane.size and int(plane.max()) > header.sample_max:
                raise Y4MValidationError(
                    f"frame {i} has samples above {header.sample_max}"
                )
        sink.write(FRAME_MARKER + b"\n")
        written += len(FRAME_MARKER) + 1
        for plane in (frame.y, frame.u, frame.v):
            data = np.ascontiguousarray(plane, dtype=header.dtype).tobytes()
            sink.write(data)
            written += len(data)
    return written


def read_clip(source: Union[str, Path, BinaryIO]) -> tuple[VideoHeader, list[Frame]]:
    """Read an entire (small) clip into memory. Intended for tests and tools."""
    with Y4MReader(source) as reader:
        return reader.header, list(reader.frames())


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


def make_header(width: int, height: int, fps_num: int = 24, fps_den: int = 1,
                bit_depth: int = 8) -> VideoHeader:
    """Convenience constructor for generated clips."""
    chroma = "C420" if bit_depth == 8 else "C420p10"
    return VideoHeader(width=width, height=height, fps_num=fps_num,
                       fps_den=fps_den, chroma=chroma)


def synthetic_clip(
    header: VideoHeader,
    n_frames: int,
    seed: int = 0,
    motion: bool = True,
) -> list[Frame]:
    """Deterministic pseudo-random frames with some temporal structure.

    Used by the smoke test and the clip generator CLI; moving content
    keeps encoders honest about rate control.
    """
    rng = np.random.default_rng(seed)
    hi = header.sample_max
    base = rng.integers(0, hi + 1, size=(header.height, header.width))
    frames = []
    for t in range(n_frames):
        shift = t if motion else 0
        y = np.roll(base, shift, axis=1).astype(header.dtype)
        u = rng.integers(0, hi + 1, size=(header.chroma_height, header.chroma_width),
                         dtype=np.uint16 if header.bit_depth > 8 else np.uint8)
        v = rng.integers(0, hi + 1, size=(header.chroma_height, header.chroma_width),
                         dtype=np.uint16 if header.bit_depth > 8 else np.uint8)
        frames.append(Frame(y=y, u=u.astype(header.dtype), v=v.astype(header.dtype),
                            bit_depth=header.bit_depth))
    return frames
