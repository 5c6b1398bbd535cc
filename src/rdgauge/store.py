"""Append-only JSON-lines store of benchmark measurements.

One self-describing record per line, UTF-8, so appends are resumable,
diffs are readable, and a crash mid-write costs at most the trailing
line. Duplicate keys are resolved at load time, keeping the newest
record (re-runs supersede).

``_SCHEMA`` describes the record once, and ``_check`` holds the rules
every record keeps: ``append`` refuses a record that breaks them, and
``load`` treats a line that breaks them as malformed. No value is
coerced.

``load`` returns the deduped records as columns, a ``RecordTable``
(numpy is imported on first load).

``load`` keeps an index next to the store, ``<store>.idx``: a memo of
one parse of the whole store, keyed by the store's fingerprint (index
format 7). The fingerprint is the store's device, inode, size, mtime
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
import itertools
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
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from .errors import StoreImportError, StoreLoadError, StoreValidationError

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

_NULL = type(None)
# The record, one entry per field in line order (MetricRecord's attribute
# order): its wire name; the JSON types a line may give it, and how an
# error names them; its value when a line leaves it out (a null where the
# types exclude one is refused); its column dtype: "<i4" an int32 code
# into the column's value list, "<f8" float64 (NaN under a null), "<i8"
# int64 (0 under a null).
_SCHEMA = (
    ("clip", (str,), "a string", None, "<i4"),
    ("family", (str,), "a string", None, "<i4"),
    ("preset", (str,), "a string", None, "<i4"),
    ("passes", (int,), "an integer", None, "<i4"),
    ("tbr_kbps", (int, float), "a number", None, "<f8"),
    ("kbps", (int, float), "a number", None, "<f8"),
    ("vmaf", (int, float, _NULL), "a number or null", None, "<f8"),
    ("psnr_y", (int, float, _NULL), "a number or null", None, "<f8"),
    ("enc_s", (int, float, _NULL), "a number or null", None, "<f8"),
    ("bytes", (int, _NULL), "an integer or null", None, "<i8"),
    ("tool", (str,), "a string", "", "<i4"),
    ("ts", (str,), "a string", "", "<i4"),
)
FIELDS = tuple(entry[0] for entry in _SCHEMA)
_DEFAULTS = tuple(entry[3] for entry in _SCHEMA)
_LINE_VALUES = itemgetter(*FIELDS)
# Every tuple of types a record's values may have: one lookup checks all.
_SIGNATURES = frozenset(itertools.product(*(entry[1] for entry in _SCHEMA)))
_DTYPES = {entry[0]: entry[4] for entry in _SCHEMA}
# The columns coded into value lists, and those with a null mask.
_CODED = tuple(name for name in FIELDS if _DTYPES[name] == "<i4")
_NULLABLE = tuple(entry[0] for entry in _SCHEMA if _NULL in entry[1])
_LIMIT = 2.0 ** 63  # a number must lie within an int64 column's range


# magic, index format, marshal version, body length, body CRC-32
_INDEX_HEADER = struct.Struct("<4sHHQI")
_INDEX_MAGIC = b"RDGI"
_INDEX_FORMAT = 7  # an index memoises a parse: new parse rules, new format
# A store whose ctime is this much older than the clock is settled.
_SETTLE_NS = 2_000_000_000

# Errors that make a line malformed rather than the store unreadable.
_LINE_ERRORS = (json.JSONDecodeError, TypeError, ValueError, OverflowError,
                StoreValidationError)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


@dataclass
class MetricRecord:
    """One persisted benchmark outcome; attributes in ``FIELDS`` order."""

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
        _check(_values(self), _ATTRS)

    def to_line(self) -> str:
        return json.dumps(dict(zip(FIELDS, _values(self))),
                          ensure_ascii=False)


# A record's attribute names, and its field values, in FIELDS order.
_ATTRS = tuple(f.name for f in fields(MetricRecord))
_values = attrgetter(*_ATTRS)


def _check(values: Sequence, names: Sequence[str]) -> None:
    """Raise StoreValidationError unless a record's field values, in
    ``FIELDS`` order, have their JSON types (see ``_SCHEMA``) and keep
    the store's rules. The error calls each field by its name in
    ``names``."""
    if tuple(map(type, values)) not in _SIGNATURES:
        for name, value, (_, types, what, _, _) in zip(names, values,
                                                      _SCHEMA):
            if type(value) not in types:
                _refuse(name, f"must be {what}", value)
    if "" in values[:3]:  # clip, family, preset
        _refuse(names[values.index("")], "must not be empty", "")
    passes, vmaf = values[3], values[6]
    if passes not in (1, 2):
        _refuse(names[3], "must be 1 or 2", passes)
    for k in range(4, 10):  # the numbers
        value = values[k]
        if value is not None and not -_LIMIT <= value < _LIMIT:
            finite = type(value) is int or math.isfinite(value)
            _refuse(names[k], "out of range" if finite else "must be finite",
                    value)
    for k in (4, 5):  # the rates
        if not values[k] > 0:
            _refuse(names[k], "must be > 0", values[k])
    if vmaf is not None and not 0 <= vmaf <= 100:
        _refuse(names[6], "must be in [0, 100]", vmaf)
    for k in (8, 9):  # encode seconds, bytes
        if values[k] is not None and values[k] < 0:
            _refuse(names[k], "must be >= 0", values[k])


def _refuse(name: str, rule: str, value) -> None:
    raise StoreValidationError(
        f"{name} {rule}, got {json.dumps(value, default=repr)}")


def _fields(row) -> tuple:
    """A parsed line's record: its field values in ``FIELDS`` order,
    which must pass ``_check``."""
    try:
        values = _LINE_VALUES(row)
    except KeyError:  # a line may leave out a field that has a default
        values = tuple(map(row.get, FIELDS, _DEFAULTS))
    _check(values, FIELDS)
    return values


# load returns records sorted by MetricRecord.key(), then created_at.
_ROW_ORDER = itemgetter(0, 1, 2, 3, 4, 11)


class RecordTable(Sequence):
    """Records as read-only columns, in input order.

    ``columns[name]`` holds one array per wire field, of its dtype in
    ``_SCHEMA``; a coded field's array holds codes into the value list
    ``tables[name]``. ``nulls[name]`` marks the rows where a nullable
    field is null; the value under a null means nothing. Indexing,
    iteration and ``==`` against a list build each ``MetricRecord`` as
    it is read.
    """

    def __init__(self, columns: dict, tables: dict, nulls: dict):
        for column in (*columns.values(), *nulls.values()):
            column.flags.writeable = False
        self.columns = columns
        self.tables = tables
        self.nulls = nulls

    @classmethod
    def from_records(cls, records: Iterable[MetricRecord]) -> RecordTable:
        return from_rows([_values(r) for r in records])

    @classmethod
    def of(cls, records: Iterable[MetricRecord]) -> RecordTable:
        """``records`` itself when it is a table, else its table."""
        return records if isinstance(records, cls) else cls.from_records(records)

    def take(self, rows: np.ndarray) -> RecordTable:
        """The table of the given rows, in that order."""
        return RecordTable({k: v[rows] for k, v in self.columns.items()},
                           self.tables,
                           {k: v[rows] for k, v in self.nulls.items()})

    def values(self, name: str) -> list:
        """Column ``name`` as Python values, None where null."""
        import numpy as np
        column = self.columns[name].tolist()
        if name in self.tables:
            table = self.tables[name]
            return [table[c] for c in column]
        if name in self.nulls:
            for i in np.flatnonzero(self.nulls[name]).tolist():
                column[i] = None
        return column

    def rows(self) -> Iterable[tuple]:
        """Each row's MetricRecord field values, in field order."""
        return zip(*map(self.values, FIELDS))

    def buffers(self) -> tuple:
        """The value lists and the raw bytes of every column and null
        mask, as ``from_buffers`` reads them back."""
        return (tuple(self.tables[name] for name in _CODED),
                tuple(self.columns[name].astype(_DTYPES[name], copy=False)
                      .tobytes() for name in FIELDS),
                tuple(self.nulls[name].tobytes() for name in _NULLABLE))

    def __len__(self) -> int:
        return len(self.columns["clip"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # negative indices, IndexError
        values = []
        for name in FIELDS:
            value = self.columns[name][i].item()
            if name in self.tables:
                value = self.tables[name][value]
            elif name in self.nulls and self.nulls[name][i]:
                value = None
            values.append(value)
        return MetricRecord(*values)

    def __iter__(self):
        return (MetricRecord(*row) for row in self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RecordTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"RecordTable({list(self)!r})"


def from_rows(rows: Sequence[tuple]) -> RecordTable:
    """The table of records' field tuples, in their order."""
    import numpy as np
    columns, tables, nulls = {}, {}, {}
    by_field = zip(*rows) if rows else [()] * len(FIELDS)
    for name, values in zip(FIELDS, by_field):
        dtype = _DTYPES[name]
        if name in _NULLABLE:
            nulls[name] = np.array([v is None for v in values], dtype=bool)
        if dtype == "<i4":
            codes: dict = {}
            columns[name] = np.array(
                [codes.setdefault(v, len(codes)) for v in values], dtype)
            tables[name] = list(codes)
        elif dtype == "<f8":  # a null becomes NaN, under its mask
            columns[name] = np.array(values, dtype)
        else:  # a null becomes 0, under its mask
            columns[name] = np.array([0 if v is None else v for v in values],
                                     dtype)
    return RecordTable(columns, tables, nulls)


def from_buffers(buffers: tuple) -> RecordTable:
    """The table that ``RecordTable.buffers`` gave, over those bytes."""
    import numpy as np
    tables, columns, nulls = buffers
    return RecordTable(
        {name: np.frombuffer(raw, _DTYPES[name])
         for name, raw in zip(FIELDS, columns)},
        dict(zip(_CODED, tables)),
        {name: np.frombuffer(raw, bool)
         for name, raw in zip(_NULLABLE, nulls)})


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


def _state(rows: Iterable[tuple]) -> RecordTable:
    """The table of the rows, sorted as ``load`` returns them."""
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
                 table: RecordTable) -> None:
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
