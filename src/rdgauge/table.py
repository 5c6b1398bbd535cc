"""Store records as read-only columns, the form the analysis works on.

``store.load`` returns a ``RecordTable``. The string fields, and
``passes``, are int32 codes into value lists; the numbers are float64
with a null mask (the store holds no NaN, and a null reads as NaN under
its mask); ``bytes`` is int64. A table is also a ``Sequence[MetricRecord]``
that builds each record only when one is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Iterable

from .store import FIELDS, MetricRecord

if TYPE_CHECKING:
    import numpy as np

# Columns by kind: integer codes into value lists, float64 numbers, and
# the int64 byte count. The nullable ones carry a null mask.
CODED = ("clip", "family", "preset", "passes", "tool", "ts")
NUMBERS = ("tbr_kbps", "kbps", "vmaf", "psnr_y", "enc_s")
NULLABLE = ("vmaf", "psnr_y", "enc_s", "bytes")
_POS = {name: k for k, name in enumerate(FIELDS)}
# Each column's dtype in ``buffers``, by name.
_DTYPES = {**{name: "<i4" for name in CODED},
           **{name: "<f8" for name in NUMBERS}, "bytes": "<i8"}


class RecordTable(Sequence):
    """Records as read-only columns, in input order.

    ``columns[name]`` holds one array per wire field (see
    ``store.FIELDS``): int32 codes into the value list ``tables[name]``
    for the ``CODED`` fields, float64 for ``NUMBERS`` and int64 for
    ``bytes``. ``nulls[name]`` marks the rows where a ``NULLABLE`` field
    is null; the value under a null means nothing. Indexing, iteration
    and ``==`` against a list build each ``MetricRecord`` as it is read.
    """

    def __init__(self, columns: dict, tables: dict, nulls: dict):
        for column in (*columns.values(), *nulls.values()):
            column.flags.writeable = False
        self.columns = columns
        self.tables = tables
        self.nulls = nulls

    @classmethod
    def from_records(cls, records: Iterable[MetricRecord]) -> RecordTable:
        return from_rows([(r.clip_id, r.family, r.preset, r.passes,
                           r.target_kbps, r.measured_kbps, r.vmaf, r.psnr_y,
                           r.encode_seconds, r.output_bytes, r.tool_version,
                           r.created_at) for r in records])

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
        return (tuple(self.tables[name] for name in CODED),
                tuple(self.columns[name].astype(_DTYPES[name], copy=False)
                      .tobytes() for name in FIELDS),
                tuple(self.nulls[name].tobytes() for name in NULLABLE))

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
    """The table of MetricRecord field tuples, in their order."""
    import numpy as np
    fields = list(zip(*rows)) if rows else [()] * len(FIELDS)
    columns, tables, nulls = {}, {}, {}
    for name in CODED:
        codes: dict = {}
        columns[name] = np.array(
            [codes.setdefault(v, len(codes)) for v in fields[_POS[name]]],
            dtype=np.int32)
        tables[name] = list(codes)
    for name in NULLABLE:
        nulls[name] = np.array([v is None for v in fields[_POS[name]]],
                               dtype=bool)
    for name in NUMBERS:  # a null becomes NaN, under its mask
        columns[name] = np.array(fields[_POS[name]], dtype=np.float64)
    columns["bytes"] = np.array(
        [0 if v is None else v for v in fields[_POS["bytes"]]], dtype=np.int64)
    return RecordTable(columns, tables, nulls)


def from_buffers(buffers: tuple) -> RecordTable:
    """The table that ``RecordTable.buffers`` gave, over those bytes."""
    import numpy as np
    tables, columns, nulls = buffers
    return RecordTable(
        {name: np.frombuffer(raw, _DTYPES[name])
         for name, raw in zip(FIELDS, columns)},
        dict(zip(CODED, tables)),
        {name: np.frombuffer(raw, bool) for name, raw in zip(NULLABLE, nulls)})
