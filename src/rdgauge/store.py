"""Append-only JSON-lines store of benchmark measurements.

One self-describing record per line, UTF-8, so appends are resumable,
diffs are readable, and a crash mid-write costs at most the trailing
line. Duplicate keys are resolved at load time, keeping the newest
record (re-runs supersede).

``load`` returns the deduped records as columns, a
``rdgauge.table.RecordTable`` (imported, with numpy, on first load).

``load`` keeps an index next to the store, ``<store>.idx``: a memo of
one parse of the whole store, keyed by the store's fingerprint (index
format 6). The fingerprint is the store's device, inode, size, mtime
and ctime. A load whose ``stat`` of the store matches the index's
fingerprint exactly returns the indexed table's columns without reading
the store; it still checks the index's own header, length and CRC-32.
Any other load reads the store and parses every line. It takes the
fingerprint with ``fstat`` on the descriptor it reads, before the read,
and writes the index only when the read returned the whole file, the
store is not empty, every line parsed and the store is settled: its
ctime is at least ``_SETTLE_NS`` (2 s, FAT's timestamp granularity)
older than the clock read before that ``fstat``, so no later write can
land in the same timestamp tick. Creating, writing, truncating,
renaming, ``chmod`` and ``utime`` each set a file's ctime to the
current clock, and no system call sets it to a chosen value, so any
change to the store, an append included, or a file renamed over it,
makes the next load parse it in full; the first load after the store
settles again indexes it again. The one change this misses is an edit
of the same size made after the clock was stepped back so far that the
edit's ctime equals the recorded one to the nanosecond.

The index is a cache and is never trusted over the JSONL: when it is
missing, corrupt or from another index format or marshal version,
``load`` parses the whole store and returns the same records it would
without an index. Deleting the index is always safe. ``load`` writes it
to a temporary file in the same directory and renames it over the old
one, so no reader sees half of it; a failed write is logged and changes
no result. ``load`` never writes the JSONL. The index is read with
:mod:`marshal`, whose format is not safe against maliciously built
data. Its header holds the body's length and CRC-32, as gzip's trailer
does: a guard against accidents (a cut, grown or damaged file), not
against someone who can write beside the store. The body is checked
and unmarshalled in place, without a copy.

``append`` holds an exclusive ``flock`` on the store while it writes,
and starts its line on a line boundary. A store that does not end in a
line break (``\\n`` or ``\\r``) holds the partial last line of a
crashed write, which ``append`` cuts off with a warning that gives its
line number and byte count; a last line that ``load`` reads as a whole
record only gets its missing ``\\n``.
"""

from __future__ import annotations

import fcntl
import json
import logging
import marshal
import math
import os
import stat
import struct
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import StoreImportError, StoreLoadError, StoreValidationError

if TYPE_CHECKING:
    from .table import RecordTable

log = logging.getLogger(__name__)

# Wire field names, in line order.
FIELDS = ("clip", "family", "preset", "passes", "tbr_kbps", "kbps", "vmaf",
          "psnr_y", "enc_s", "bytes", "tool", "ts")


# magic, index format, marshal version, body length, body CRC-32
_INDEX_HEADER = struct.Struct("<4sHHQI")
_INDEX_MAGIC = b"RDGI"
_INDEX_FORMAT = 6
# A store whose ctime is this much older than the clock is settled.
_SETTLE_NS = 2_000_000_000

# Errors that make a line malformed rather than the store unreadable.
_LINE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, ValueError,
                OverflowError)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


@dataclass
class MetricRecord:
    """One persisted benchmark outcome."""

    clip_id: str
    family: str
    preset: str
    passes: int
    target_kbps: float
    measured_kbps: float
    vmaf: Optional[float] = None  # absent until the metric pass runs
    psnr_y: Optional[float] = None
    encode_seconds: Optional[float] = None  # absent for imported rows
    output_bytes: Optional[int] = None
    tool_version: str = ""
    created_at: str = field(default_factory=_now)

    def key(self) -> tuple:
        return (self.clip_id, self.family, self.preset, self.passes,
                self.target_kbps)

    def validate(self) -> None:
        if not self.clip_id or not self.family or not self.preset:
            raise StoreValidationError("clip, family and preset must be non-empty")
        if self.passes not in (1, 2):
            raise StoreValidationError(f"passes must be 1 or 2, got {self.passes}")
        for name in ("target_kbps", "measured_kbps", "encode_seconds"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise StoreValidationError(
                    f"{name} must be finite, got {value}")
        if not (self.target_kbps > 0):
            raise StoreValidationError(f"target_kbps must be > 0, got {self.target_kbps}")
        if not (self.measured_kbps > 0):
            raise StoreValidationError(
                f"measured_kbps must be > 0, got {self.measured_kbps}")
        if self.vmaf is not None and not (0.0 <= self.vmaf <= 100.0):
            raise StoreValidationError(f"vmaf out of [0, 100]: {self.vmaf}")
        if self.psnr_y is not None and not math.isfinite(self.psnr_y):
            raise StoreValidationError(f"psnr_y must be finite, got {self.psnr_y}")
        if self.encode_seconds is not None and self.encode_seconds < 0:
            raise StoreValidationError(
                f"encode_seconds must be >= 0, got {self.encode_seconds}")

    def to_line(self) -> str:
        row = {
            "clip": self.clip_id,
            "family": self.family,
            "preset": self.preset,
            "passes": self.passes,
            "tbr_kbps": self.target_kbps,
            "kbps": self.measured_kbps,
            "vmaf": self.vmaf,
            "psnr_y": self.psnr_y,
            "enc_s": self.encode_seconds,
            "bytes": self.output_bytes,
            "tool": self.tool_version,
            "ts": self.created_at,
        }
        return json.dumps(row, ensure_ascii=False)


def _fields(row: dict) -> tuple:
    """A parsed line's MetricRecord field values, in field order.

    The key is the first five values and ``created_at`` the last. Every
    field becomes a typed column, so a value of the wrong type (see
    ``_TYPED``) makes the line malformed.
    """
    fields = (row["clip"], row["family"], str(row["preset"]),
              int(row["passes"]), row["tbr_kbps"], row["kbps"],
              row.get("vmaf"), row.get("psnr_y"), row.get("enc_s"),
              row.get("bytes"), row.get("tool", ""), row.get("ts", ""))
    for name, k, types, what in _TYPED:
        value = fields[k]
        if type(value) not in types:
            raise TypeError(f"{name} must be {what}, got {json.dumps(value)}")
        if type(value) is float and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {json.dumps(value)}")
        if type(value) is int and not -_INT_LIMIT <= value < _INT_LIMIT:
            raise ValueError(f"{name} out of range, got {value}")
    return fields


# Wire name, field position, accepted types and their description.
_NUMBER = (int, float)
_NULL = (type(None),)
_TYPED = (("clip", 0, (str,), "a string"), ("family", 1, (str,), "a string"),
          ("tbr_kbps", 4, _NUMBER, "a number"),
          ("kbps", 5, _NUMBER, "a number"),
          ("vmaf", 6, _NUMBER + _NULL, "a number or null"),
          ("psnr_y", 7, _NUMBER + _NULL, "a number or null"),
          ("enc_s", 8, _NUMBER + _NULL, "a number or null"),
          ("bytes", 9, (int,) + _NULL, "an integer or null"),
          ("tool", 10, (str,), "a string"), ("ts", 11, (str,), "a string"))
_INT_LIMIT = 2 ** 63  # a JSON integer must fit an int64 column


# load returns records sorted by MetricRecord.key(), then created_at.
_ROW_ORDER = itemgetter(0, 1, 2, 3, 4, 11)


def append(path: Union[str, Path], record: MetricRecord) -> None:
    """Validate and append one record as a single line write, under an
    exclusive lock on the store, after cutting off a partial last line
    left by a crashed write (see the module docstring)."""
    record.validate()
    line = record.to_line()
    if "\n" in line:
        raise StoreValidationError("record serialises to multiple lines")
    data = (line + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) not in (b"\n", b"\r"):
            _end_last_line(fd, end, path)
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)  # and with it the lock


def _end_last_line(fd: int, end: int, path) -> None:
    """Make the store open on ``fd``, ``end`` bytes long and not ending
    in a line break, end in one: terminate a last line that is a whole
    record, as ``load`` reads it, else truncate the partial line."""
    data = os.pread(fd, end, 0)
    cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
    try:
        _fields(json.loads(data[cut:].decode("utf-8")))
    except _LINE_ERRORS:
        # the cut line's number, counting line breaks as load does
        head = data[:cut]
        number = (head.count(b"\n") + head.count(b"\r")
                  - head.count(b"\r\n") + 1)
        log.warning("cutting partial trailing line %d (%d bytes) from %s "
                    "before appending", number, end - cut, path)
        os.ftruncate(fd, cut)
    else:
        os.write(fd, b"\n")


def load(path: Union[str, Path]) -> RecordTable:
    """Deduped (keep-latest) records, sorted by key then ``created_at``.

    A malformed trailing line is assumed to be a crashed write and is
    skipped with a warning; a malformed line anywhere else is an error.
    A store that has not changed since its index recorded its
    fingerprint is not read at all (see the module docstring).
    """
    from .table import from_buffers

    path = Path(path)
    try:
        seen = _fingerprint(os.stat(path))
    except FileNotFoundError:
        return _state(())
    recorded, packed = _read_index(path)
    if recorded == seen:
        return from_buffers(packed)
    now = time.time_ns()
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        data = f.read()
    table, whole = _parse(path, data)
    if (whole and data and len(data) == st.st_size
            and now - st.st_ctime_ns >= _SETTLE_NS):
        _write_index(path, _fingerprint(st), table)
    return table


def _fingerprint(st: os.stat_result) -> tuple:
    """What identifies a file's content, as the kernel keeps it."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _parse(path: Path, data: bytes) -> tuple:
    """The keep-latest table of the store's bytes ``data``, and whether
    every line parsed.

    Each line is decoded and parsed on its own. A malformed line, one
    that is not UTF-8 included, is an error, except a malformed last
    line, which a crashed append leaves and which is skipped with a
    warning.
    """
    if b"\r" in data:  # universal newlines, as a text-mode read gives
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()

    latest = {}
    whole = True
    for i, line in enumerate(lines):
        try:
            row = _fields(json.loads(line.decode("utf-8")))
        except _LINE_ERRORS as exc:
            if i < len(lines) - 1:
                raise StoreLoadError(
                    f"{path}: malformed line {i + 1}: {exc}") from exc
            log.warning("ignoring partial trailing line %d in %s", i + 1, path)
            whole = False
            continue
        key = row[:5]
        seen = latest.get(key)
        if seen is None or row[11] >= seen[11]:  # a later line wins a tie
            latest[key] = row
    return _state(latest.values()), whole


def _state(rows: Iterable[tuple]) -> "RecordTable":
    """The table of the rows, sorted as ``load`` returns them."""
    from .table import from_rows

    return from_rows(sorted(rows, key=_ROW_ORDER))


def index_path(path: Union[str, Path]) -> Path:
    """Where ``load`` keeps the index of the store at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".idx")


def _read_index(path: Path) -> tuple:
    """(store fingerprint, table buffers) from a valid index of the
    store, else Nones."""
    nothing = (None, None)
    idx = index_path(path)
    try:
        blob = idx.read_bytes()
    except FileNotFoundError:
        return nothing
    except OSError as exc:
        log.warning("ignoring store index %s: %s", idx, exc)
        return nothing
    if len(blob) < _INDEX_HEADER.size or blob[:4] != _INDEX_MAGIC:
        log.warning("ignoring store index %s: not an index", idx)
        return nothing
    # every format starts with magic, format and marshal version, so an
    # older index is named by its format
    _, fmt, version, length, crc = _INDEX_HEADER.unpack_from(blob)
    if (fmt, version) != (_INDEX_FORMAT, marshal.version):
        log.warning("ignoring store index %s: format %d, marshal version %d "
                    "(want %d, %d)", idx, fmt, version, _INDEX_FORMAT,
                    marshal.version)
        return nothing
    body = memoryview(blob)[_INDEX_HEADER.size:]
    if length != len(body) or zlib.crc32(body) != crc:
        log.warning("ignoring store index %s: length or checksum mismatch",
                    idx)
        return nothing
    return marshal.loads(body)


def _write_index(path: Path, fingerprint: tuple,
                 table: "RecordTable") -> None:
    """Atomically replace the index with the table of the whole store,
    keyed by the store's fingerprint."""
    # Marshal format 2 writes no back-references, which the column bytes
    # and value lists do not need.
    body = marshal.dumps((fingerprint, table.buffers()), 2)
    blob = _INDEX_HEADER.pack(_INDEX_MAGIC, _INDEX_FORMAT, marshal.version,
                              len(body), zlib.crc32(body)) + body
    idx = index_path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=idx.parent, prefix=idx.name + ".",
                                   suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))  # readable as the store
        os.replace(tmp, idx)
    except OSError as exc:
        log.warning("cannot write store index %s: %s", idx, exc)
        if tmp is not None:
            try:
                os.remove(tmp)
            except OSError:
                pass


def import_table(
    path: Union[str, Path],
    rows: Iterable[Sequence],
    *,
    family: str,
    preset: str,
    passes: int,
    target_kbps: float,
    clip_prefix: str = "",
) -> int:
    """Append externally produced rows (label, kbps, vmaf, psnr[, enc_s]).

    Each row becomes a record under the synthetic clip id
    ``clip_prefix + label``. Encode time may be missing. Returns the
    number of records appended. A bad row raises StoreImportError
    before any row is appended.
    """
    records = []
    for row in rows:
        if len(row) < 4:
            raise StoreImportError(f"row too short: {row!r}")
        label, kbps, vmaf, psnr = row[0], row[1], row[2], row[3]
        enc_s = row[4] if len(row) > 4 else None
        try:
            rec = MetricRecord(
                clip_id=f"{clip_prefix}{label}",
                family=family,
                preset=preset,
                passes=passes,
                target_kbps=float(target_kbps),
                measured_kbps=float(kbps),
                vmaf=float(vmaf),
                psnr_y=float(psnr),
                encode_seconds=None if enc_s in (None, "") else float(enc_s),
                tool_version="imported",
            )
            rec.validate()
        except (TypeError, ValueError, StoreValidationError) as exc:
            raise StoreImportError(f"bad row {row!r}: {exc}") from exc
        records.append(rec)
    for rec in records:
        append(path, rec)
    return len(records)
