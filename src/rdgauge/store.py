"""Append-only JSON-lines store of benchmark measurements.

One self-describing record per line, UTF-8, so appends are resumable,
diffs are readable, and a crash mid-write costs at most the trailing
line. Duplicate keys are resolved at load time, keeping the newest
record (re-runs supersede).

``load`` returns the deduped records as columns, a
``rdgauge.table.RecordTable`` (imported, with numpy, on first load).

``load`` keeps an index next to the store, ``<store>.idx``, so that a
repeat load parses only the lines appended since. The index holds the
keep-latest state of the store's first n bytes as the table's columns,
in load order, with n, their line count and a sha256 digest of them
(index format 3). It is a cache and is never trusted over the JSONL:
when the store was rewritten, truncated or replaced, or the index is
missing, corrupt or from another index format or marshal version,
``load`` parses the whole store and returns the same records it would
without an index. Deleting the index is always safe. Every line past
the index is parsed on its own, with one ``json.loads``. The index
advances only when a load parsed every such line and the store ends in
a newline (and holds no lone CR), so after a crashed append each load
parses the lines since the last good index until the line is
completed or fails as a malformed line.
``load`` writes the index to a temporary file in the same directory and
renames it over the old one, so no reader sees half of it; a failed
write is logged and changes no result. ``load`` never writes the
JSONL. The index is read with :mod:`marshal`, whose format is not safe
against maliciously built data; its own digest guards against
accidents, not against someone who can write beside the store.
"""

from __future__ import annotations

import json
import logging
import marshal
import math
import os
import stat
import struct
import tempfile
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


_INDEX_HEADER = struct.Struct("<4sHH")  # magic, index format, marshal version
_INDEX_MAGIC = b"RDGI"
_INDEX_FORMAT = 3
_DIGEST_SIZE = 32

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
    """Validate and append one record as a single atomic line write."""
    record.validate()
    line = record.to_line()
    if "\n" in line:
        raise StoreValidationError("record serialises to multiple lines")
    with open(path, "a", encoding="utf-8") as f:
        f.write(line + "\n")
        f.flush()


def load(path: Union[str, Path]) -> RecordTable:
    """Deduped (keep-latest) records, sorted by key then ``created_at``.

    A malformed trailing line is assumed to be a crashed write and is
    skipped with a warning; a malformed line anywhere else is an error.
    Lines already covered by the store's index are not parsed again
    (see the module docstring).
    """
    path = Path(path)
    if not path.exists():
        return _state({})
    data = path.read_bytes()
    size, lines, table = _read_index(path, data)
    if size < len(data):
        table = _load_tail(path, data, size, lines, table)
    return table


def _load_tail(path: Path, data: bytes, start: int, first: int,
               table: "RecordTable") -> "RecordTable":
    """Fold the lines from byte ``start``, the first of them line
    ``first``, into the keep-latest ``table`` of the lines before.

    Each line is parsed on its own. A malformed line is an error, except
    a malformed last line, which a crashed append leaves and which is
    skipped with a warning. The index is rewritten only when every line
    parsed, the data ends in a newline and no line ends in a lone CR.
    """
    text = data[start:].decode("utf-8")
    lone_cr = False
    if "\r" in text:  # universal newlines, as a text-mode read gives
        lone_cr = text.count("\r") != text.count("\r\n")
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()

    # Every line here follows every line of the table, so a tie on
    # created_at goes to the line here whatever the table row's line.
    latest = {row[:5]: (row[11], -1, row) for row in table.rows()}
    whole = True
    for k, line in enumerate(lines):
        i = first + k
        try:
            row = _fields(json.loads(line))
        except _LINE_ERRORS as exc:
            if k < len(lines) - 1:
                raise StoreLoadError(
                    f"{path}: malformed line {i + 1}: {exc}") from exc
            log.warning("ignoring partial trailing line %d in %s", i + 1, path)
            whole = False
            continue
        key = row[:5]
        seen = latest.get(key)
        if seen is None or (row[11], i) >= seen[:2]:
            latest[key] = (row[11], i, row)

    table = _state(latest)
    if whole and data.endswith(b"\n") and not lone_cr:
        _write_index(path, data, first + len(lines), table)
    return table


def _state(latest: dict) -> "RecordTable":
    """The table of a keep-latest map's rows, sorted as ``load`` returns
    them."""
    from .table import from_rows

    return from_rows(sorted((row for _, _, row in latest.values()),
                            key=_ROW_ORDER))


def index_path(path: Union[str, Path]) -> Path:
    """Where ``load`` keeps the index of the store at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".idx")


def _digest(data) -> bytes:
    # Imported here: hashlib loads OpenSSL, a cost at start-up that the
    # commands which never read a store should not pay.
    import hashlib
    return hashlib.sha256(data).digest()


def _read_index(path: Path, data: bytes) -> tuple[int, int, "RecordTable"]:
    """(covered bytes, covered lines, table) from a valid index of
    ``data``, else zeros and an empty table."""
    nothing = (0, 0, _state({}))
    idx = index_path(path)
    try:
        blob = idx.read_bytes()
    except FileNotFoundError:
        return nothing
    except OSError as exc:
        log.warning("ignoring store index %s: %s", idx, exc)
        return nothing
    head = _INDEX_HEADER.size
    body = blob[head + _DIGEST_SIZE:]
    if len(blob) < head + _DIGEST_SIZE or blob[:4] != _INDEX_MAGIC:
        log.warning("ignoring store index %s: not an index", idx)
        return nothing
    _, fmt, version = _INDEX_HEADER.unpack_from(blob)
    if (fmt, version) != (_INDEX_FORMAT, marshal.version):
        log.warning("ignoring store index %s: format %d, marshal version %d "
                    "(want %d, %d)", idx, fmt, version, _INDEX_FORMAT,
                    marshal.version)
        return nothing
    if blob[head:head + _DIGEST_SIZE] != _digest(body):
        log.warning("ignoring store index %s: digest mismatch", idx)
        return nothing
    size, digest, lines, packed = marshal.loads(body)
    if size > len(data) or _digest(memoryview(data)[:size]) != digest:
        log.info("%s changed within its first %d bytes; parsing it in full",
                 path, size)
        return nothing
    from .table import from_buffers

    return size, lines, from_buffers(packed)


def _write_index(path: Path, covered, lines: int,
                 table: "RecordTable") -> None:
    """Atomically replace the index with the table of the covered lines."""
    # Marshal format 2 writes no back-references, which the column bytes
    # and value lists do not need.
    body = marshal.dumps((len(covered), _digest(covered), lines,
                          table.buffers()), 2)
    blob = (_INDEX_HEADER.pack(_INDEX_MAGIC, _INDEX_FORMAT, marshal.version)
            + _digest(body) + body)
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
    tool_version: str = "imported",
) -> int:
    """Append externally produced rows (label, kbps, vmaf, psnr[, enc_s]).

    Each row becomes a record under the synthetic clip id
    ``clip_prefix + label``. Encode time may be missing. Returns the
    number of records appended.
    """
    count = 0
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
                tool_version=tool_version,
            )
        except (TypeError, ValueError) as exc:
            raise StoreImportError(f"bad row {row!r}: {exc}") from exc
        try:
            append(path, rec)
        except StoreValidationError as exc:
            raise StoreImportError(f"bad row {row!r}: {exc}") from exc
        count += 1
    return count
