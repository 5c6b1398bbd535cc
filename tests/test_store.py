import dataclasses
import fcntl
import hashlib
import itertools
import json
import logging
import marshal
import math
import os
import re
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutations import edits, mutate
from rdgauge import store
from rdgauge.errors import StoreImportError, StoreLoadError, StoreValidationError
from rdgauge.store import MetricRecord


def _record(**kw):
    base = dict(clip_id="shot01", family="x264", preset="medium", passes=1,
                target_kbps=4000.0, measured_kbps=4012.5, vmaf=88.5,
                psnr_y=42.1, encode_seconds=30.25, output_bytes=1003125,
                tool_version="x264 0.164")
    base.update(kw)
    return MetricRecord(**base)


class TestAppend:
    def test_append_grows_store(self, tmp_store):
        store.append(tmp_store, _record())
        store.append(tmp_store, _record(clip_id="shot02"))
        assert len(store.load(tmp_store)) == 2

    def test_vmaf_out_of_range_rejected(self, tmp_store):
        with pytest.raises(StoreValidationError):
            store.append(tmp_store, _record(vmaf=105.0))
        assert store.load(tmp_store) == []

    def test_non_positive_kbps_rejected(self, tmp_store):
        with pytest.raises(StoreValidationError):
            store.append(tmp_store, _record(measured_kbps=0.0))

    def test_duplicate_key_appends_both_lines(self, tmp_store):
        store.append(tmp_store, _record(vmaf=80.0, created_at="2026-01-01T00:00:00"))
        store.append(tmp_store, _record(vmaf=90.0, created_at="2026-01-02T00:00:00"))
        assert len(tmp_store.read_text().splitlines()) == 2
        loaded = store.load(tmp_store)
        assert len(loaded) == 1
        assert loaded[0].vmaf == 90.0

    def test_vmaf_may_be_pending(self, tmp_store):
        store.append(tmp_store, _record(vmaf=None, psnr_y=None))
        assert store.load(tmp_store)[0].vmaf is None


class TestLoad:
    def test_missing_and_empty_store(self, tmp_store):
        assert store.load(tmp_store) == []
        tmp_store.write_text("")
        assert store.load(tmp_store) == []

    def test_round_trip_preserves_fields(self, tmp_store):
        rec = _record(measured_kbps=3574.181, vmaf=92.187, psnr_y=50.728)
        store.append(tmp_store, rec)
        back = store.load(tmp_store)[0]
        assert back == rec

    def test_full_matrix_slice_is_744_rows(self, tmp_store):
        clips = [f"shot{i:03d}" for i in range(62)]
        ladder = [500, 1000, 2000, 3000, 4000, 6000, 8000, 10000, 12000,
                  14000, 16000, 20000]
        for preset in ("2", "4"):
            for passes in (1, 2):
                for clip in clips:
                    for tbr in ladder:
                        store.append(tmp_store, _record(
                            clip_id=clip, family="svt-av1", preset=preset,
                            passes=passes, target_kbps=float(tbr)))
        got = [r for r in store.load(tmp_store) if (
            r.family == "svt-av1" and r.passes == 1 and r.preset == "2")]
        assert len(got) == 744

    def test_partial_trailing_line_ignored(self, tmp_store, caplog):
        store.append(tmp_store, _record())
        with open(tmp_store, "a") as f:
            f.write('{"clip": "shot02", "family"')
        with caplog.at_level("WARNING"):
            got = store.load(tmp_store)
        assert len(got) == 1
        assert any("trailing" in r.message for r in caplog.records)

    def test_malformed_middle_line_is_an_error(self, tmp_store):
        store.append(tmp_store, _record())
        with open(tmp_store, "a") as f:
            f.write("not json\n")
        store.append(tmp_store, _record(clip_id="shot02"))
        with pytest.raises(StoreLoadError, match="line 2"):
            store.load(tmp_store)

    def test_dedupe_is_idempotent(self, tmp_store, tmp_path):
        store.append(tmp_store, _record(vmaf=70.0, created_at="t1"))
        store.append(tmp_store, _record(vmaf=75.0, created_at="t2"))
        store.append(tmp_store, _record(clip_id="shot02", created_at="t1"))
        first = store.load(tmp_store)
        second_path = tmp_path / "copy.jsonl"
        for rec in first:
            store.append(second_path, rec)
        assert store.load(second_path) == first

    def test_concatenation_is_union(self, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "cat.jsonl"))
        store.append(a, _record(clip_id="one", created_at="t1"))
        store.append(b, _record(clip_id="two", created_at="t1"))
        store.append(b, _record(clip_id="one", vmaf=50.0, created_at="t2"))
        c.write_text(a.read_text() + b.read_text())
        merged = store.load(c)
        assert {r.clip_id for r in merged} == {"one", "two"}
        assert [r.vmaf for r in merged if r.clip_id == "one"] == [50.0]

    def test_deterministic_order(self, tmp_store):
        for clip in ("zeta", "alpha", "mid"):
            store.append(tmp_store, _record(clip_id=clip))
        assert [r.clip_id for r in store.load(tmp_store)] == ["alpha", "mid", "zeta"]


numbers = st.floats(min_value=0.001, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(kbps=numbers, vmaf=st.floats(0, 100), psnr=st.floats(-10, 99),
       enc_s=st.one_of(st.none(), st.floats(0, 1e5)))
def test_round_trip_bit_exact_property(kbps, vmaf, psnr, enc_s):
    import tempfile
    rec = _record(measured_kbps=kbps, vmaf=vmaf, psnr_y=psnr, encode_seconds=enc_s)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/prop.jsonl"
        store.append(path, rec)
        back = store.load(path)[0]
    assert back.measured_kbps == kbps
    assert back.vmaf == vmaf
    assert back.psnr_y == psnr
    assert back.encode_seconds == enc_s


class TestImportTable:
    def test_tool_off_fixture_row(self, tmp_store):
        # published tool-off table, row for the --enable-tf 0 config
        count = store.import_table(
            tmp_store,
            [("--enable-tf 0", 3574.181, 92.187, 50.728)],
            family="svt-av1", preset="10", passes=1, target_kbps=4000)
        assert count == 1
        rec = store.load(tmp_store)[0]
        assert rec.clip_id == "--enable-tf 0"
        assert rec.measured_kbps == 3574.181
        assert rec.vmaf == 92.187
        assert rec.psnr_y == 50.728
        assert rec.encode_seconds is None

    def test_empty_rows(self, tmp_store):
        assert store.import_table(tmp_store, [], family="f", preset="p",
                                  passes=1, target_kbps=4000) == 0

    def test_non_numeric_bitrate(self, tmp_store):
        with pytest.raises(StoreImportError):
            store.import_table(tmp_store, [("cfg", "fast", 90.0, 50.0)],
                               family="f", preset="p", passes=1,
                               target_kbps=4000)

    def test_short_row(self, tmp_store):
        with pytest.raises(StoreImportError):
            store.import_table(tmp_store, [("cfg", 1000.0)],
                               family="f", preset="p", passes=1,
                               target_kbps=4000)

    def test_wire_field_names(self, tmp_store):
        store.append(tmp_store, _record())
        row = json.loads(tmp_store.read_text().splitlines()[0])
        assert set(row) == set(store.FIELDS)


# The README's field table, written out again so that the reference
# shares no rule with the loader: each wire field in line order, its JSON
# type, and its value when a line leaves it out.
_REFERENCE_TYPES = (
    ("clip", "a string", None), ("family", "a string", None),
    ("preset", "a string", None), ("passes", "an integer", None),
    ("tbr_kbps", "a number", None), ("kbps", "a number", None),
    ("vmaf", "a number or null", None), ("psnr_y", "a number or null", None),
    ("enc_s", "a number or null", None), ("bytes", "an integer or null", None),
    ("tool", "a string", ""), ("ts", "a string", ""))


def _has_type(value, kind):
    if value is None:
        return kind.endswith(" or null")
    if kind == "a string":
        return isinstance(value, str)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return kind.startswith("a number") or isinstance(value, int)


def _reference_fields(row):
    """A parsed line's field values in line order, checked by the README
    table: every field's type first, then each rule, in the order the
    store reports the first broken one."""
    values = {}
    for name, kind, default in _REFERENCE_TYPES:
        try:
            values[name] = row[name]
        except KeyError:
            values[name] = default

    def refuse(name, rule):
        raise ValueError(f"{name} {rule}, got {json.dumps(values[name])}")

    for name, kind, _ in _REFERENCE_TYPES:
        if not _has_type(values[name], kind):
            refuse(name, f"must be {kind}")
    for name in ("clip", "family", "preset"):
        if values[name] == "":
            refuse(name, "must not be empty")
    if values["passes"] not in (1, 2):
        refuse("passes", "must be 1 or 2")
    for name in ("tbr_kbps", "kbps", "vmaf", "psnr_y", "enc_s", "bytes"):
        value = values[name]
        if value is not None and not -2 ** 63 <= value < 2 ** 63:
            finite = value == value and abs(value) != math.inf
            refuse(name, "out of range" if finite else "must be finite")
    for name in ("tbr_kbps", "kbps"):
        if not values[name] > 0:
            refuse(name, "must be > 0")
    if values["vmaf"] is not None and not 0 <= values["vmaf"] <= 100:
        refuse("vmaf", "must be in [0, 100]")
    for name in ("enc_s", "bytes"):
        if values[name] is not None and values[name] < 0:
            refuse(name, "must be >= 0")
    return tuple(values.values())


def _reference_load(path):
    """The per-line loader that the indexed one replaces, kept as the
    reference: universal newlines, one UTF-8 decode and one parse per
    line, each checked by ``_reference_fields``, keep-latest by
    (created_at, line index), sorted by key and then created_at."""
    path = Path(path)
    if not path.exists():
        return []
    data = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    raw = data.split(b"\n")
    if raw and raw[-1] == b"":
        raw.pop()
    records = {}
    for idx, line in enumerate(raw):
        try:
            row = json.loads(line.decode("utf-8"))
            rec = MetricRecord(*_reference_fields(row))
        except (TypeError, ValueError) as exc:
            if idx == len(raw) - 1:
                continue
            raise StoreLoadError(f"{path}: malformed line {idx + 1}: {exc}") from exc
        seen = records.get(rec.key())
        if seen is None or (rec.created_at, idx) >= (seen[0], seen[1]):
            records[rec.key()] = (rec.created_at, idx, rec)
    return sorted((rec for _, _, rec in records.values()),
                  key=lambda r: (r.key(), r.created_at))


def _outcome(load, path):
    """Records, or the StoreLoadError message."""
    try:
        return load(path)
    except StoreLoadError as exc:
        return str(exc)


def _full_parse(path):
    """``store.load`` with the index moved away, then put back."""
    idx = store.index_path(path)
    saved = idx.read_bytes() if idx.exists() else None
    idx.unlink(missing_ok=True)
    try:
        return _outcome(store.load, path)
    finally:
        idx.unlink(missing_ok=True)
        if saved is not None:
            idx.write_bytes(saved)


def _fill(path, n=3):
    for i in range(n):
        store.append(path, _record(clip_id=f"c{i}", created_at=f"t{i}"))


def _plant(path):
    """Index the store, as it is now, as holding one record it does not
    hold."""
    row = dataclasses.astuple(_record(clip_id="planted", created_at="t9"))
    store._write_index(path, store._fingerprint(os.stat(path)),
                       store._state([row]))


@pytest.fixture
def settle(monkeypatch):
    """A 50 ms settle margin, and a wait past it on the real clock."""
    monkeypatch.setattr(store, "_SETTLE_NS", 50_000_000)
    return lambda: time.sleep(0.1)


def _recorded(path):
    """The store fingerprint the index holds, or None."""
    return store._read_index(path)[0]


def _patch_index(path, offset, new):
    idx = store.index_path(path)
    blob = bytearray(idx.read_bytes())
    blob[offset:offset + len(new)] = new
    idx.write_bytes(bytes(blob))


_TS = ("2026-01-01T00:00:00", "2026-01-02T00:00:00")  # equal stamps tie
_WHOLE = _record(clip_id="whole").to_line()  # a record line, unterminated

_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 3), st.integers(0, 1),
              st.floats(0, 100)),
    st.tuples(st.just("duplicate")),
    st.tuples(st.just("partial"), st.integers(0, 3), st.floats(0.05, 0.95)),
    st.tuples(st.just("complete")),
    st.tuples(st.just("truncate"), st.floats(0, 1)),
    st.tuples(st.just("rewrite"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("corrupt_index"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("delete_index")),
), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(ops=_ops)
def test_indexed_load_equals_full_parse(ops):
    """After any mix of appends, duplicates, crashed and completed
    appends, truncation, same-length rewrites and index damage, load()
    gives what a full parse without the index gives: the same records or
    the same StoreLoadError.

    The settle margin is 0 and each step stamps the store with a new
    mtime, as a clock that ticks between writes would, so every load
    that parses a whole store indexes it."""
    stamps = itertools.count(10 ** 18, 10 ** 9)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(store, "_SETTLE_NS", 0):
        path = Path(tmp) / "s.jsonl"
        path.touch()
        idx = store.index_path(path)
        pending = None  # the rest of a line cut short by a "crash"
        last_line = None
        for op in ops:
            kind = op[0]
            if kind == "append":
                rec = _record(clip_id=f"c{op[1] % 2}",
                              target_kbps=1000.0 * (1 + op[1] // 2),
                              created_at=_TS[op[2]], vmaf=op[3])
                store.append(path, rec)
                last_line, pending = rec.to_line() + "\n", None
            elif kind == "duplicate" and last_line is not None:
                with open(path, "a", encoding="utf-8") as f:
                    f.write(last_line)
                pending = None
            elif kind == "partial":
                line = _record(clip_id=f"c{op[1] % 2}", created_at=_TS[1],
                               vmaf=float(op[1])).to_line() + "\n"
                cut = max(1, int(len(line) * op[2]))
                with open(path, "a", encoding="utf-8") as f:
                    f.write(line[:cut])
                pending = line[cut:]
            elif kind == "complete" and pending is not None:
                with open(path, "a", encoding="utf-8") as f:
                    f.write(pending)
                pending = None
            elif kind == "truncate":
                data = path.read_bytes()
                path.write_bytes(data[:int(len(data) * op[1])])
                pending = None
            elif kind == "rewrite":
                data = bytearray(path.read_bytes())
                digits = [i for i, b in enumerate(data) if 48 <= b <= 57]
                if digits:
                    i = digits[op[1] % len(digits)]
                    data[i] = 48 + (data[i] - 47) % 10
                    path.write_bytes(bytes(data))
            elif kind == "corrupt_index" and idx.exists():
                blob = bytearray(idx.read_bytes())
                if blob:
                    bit = op[1] % (len(blob) * 8)
                    blob[bit // 8] ^= 1 << (bit % 8)
                    idx.write_bytes(bytes(blob))
            elif kind == "delete_index":
                idx.unlink(missing_ok=True)
            if kind not in ("corrupt_index", "delete_index"):
                os.utime(path, ns=(0, next(stamps)))

            before = path.read_bytes()
            got = _outcome(store.load, path)
            assert got == _full_parse(path) == _outcome(_reference_load, path)
            assert _outcome(store.load, path) == got  # now from the index
            assert path.read_bytes() == before


@settings(max_examples=300, deadline=None)
@given(changes=edits)
def test_mutated_store_loads_as_the_reference_or_fails_closed(changes):
    """Reader contract: a valid three-line store with a few bytes
    changed, cut or inserted loads as the reference parse does, to the
    same records or the same StoreLoadError, and raises nothing else."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        _fill(path)
        path.write_bytes(mutate(path.read_bytes(), changes))
        got = _outcome(store.load, path)
        assert got == _outcome(_reference_load, path)


class TestIndex:
    @pytest.mark.parametrize("field,offset", [("index format", 4),
                                              ("marshal version", 6)])
    def test_foreign_version_index_falls_back(self, tmp_store, caplog, settle,
                                              field, offset):
        _fill(tmp_store)
        _plant(tmp_store)
        _patch_index(tmp_store, offset, struct.pack("<H", 999))
        settle()
        with caplog.at_level("WARNING"):
            got = store.load(tmp_store)
        assert got == _reference_load(tmp_store)
        assert any("ignoring store index" in r.message and "999" in r.message
                   for r in caplog.records)
        assert _recorded(tmp_store) == store._fingerprint(tmp_store.stat())
        assert store.load(tmp_store) == got  # the index was rewritten

    @pytest.mark.parametrize("where", ["magic", "digest", "body", "cut",
                                       "empty"])
    def test_corrupt_index_falls_back(self, tmp_store, caplog, where):
        _fill(tmp_store)
        _plant(tmp_store)
        idx = store.index_path(tmp_store)
        blob = bytearray(idx.read_bytes())
        if where == "cut":
            blob = blob[:len(blob) // 2]
        elif where == "empty":
            blob = bytearray()
        else:
            offset = {"magic": 0, "digest": 9, "body": len(blob) // 2}[where]
            blob[offset] ^= 0x10
        idx.write_bytes(bytes(blob))
        with caplog.at_level("WARNING"):
            got = store.load(tmp_store)
        assert got == _reference_load(tmp_store)
        assert [r.clip_id for r in got] == ["c0", "c1", "c2"]
        assert any("ignoring store index" in r.message for r in caplog.records)

    def test_same_length_replacement_falls_back(self, tmp_store, settle):
        store.append(tmp_store, _record(vmaf=88.5))
        store.append(tmp_store, _record(clip_id="shot02", vmaf=70.25))
        settle()
        store.load(tmp_store)
        assert _recorded(tmp_store) is not None
        before = tmp_store.read_bytes()
        after = before.replace(b"88.5", b"77.5")
        assert len(after) == len(before) and after != before
        tmp_store.write_bytes(after)
        got = store.load(tmp_store)
        assert [r.vmaf for r in got] == [77.5, 70.25]
        assert got == _reference_load(tmp_store)

    def test_in_place_edit_with_restored_times_falls_back(self, tmp_store,
                                                          settle):
        """An edit of the same length whose file times are put back, as
        ``cp -p`` or ``rsync -t`` leave them, is still seen."""
        store.append(tmp_store, _record(vmaf=88.5))
        store.append(tmp_store, _record(clip_id="shot02", vmaf=70.25))
        settle()
        store.load(tmp_store)
        assert _recorded(tmp_store) is not None
        before = tmp_store.stat()
        data = tmp_store.read_bytes()
        with open(tmp_store, "r+b") as f:
            f.write(data.replace(b"88.5", b"77.5"))
        os.utime(tmp_store, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = tmp_store.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size,
                                                      before.st_mtime_ns)
        got = store.load(tmp_store)
        assert [r.vmaf for r in got] == [77.5, 70.25]
        assert got == _reference_load(tmp_store)

    def test_truncated_store_falls_back(self, tmp_store, settle):
        _fill(tmp_store)
        settle()
        store.load(tmp_store)
        assert _recorded(tmp_store) is not None
        lines = tmp_store.read_text().splitlines(keepends=True)
        tmp_store.write_text("".join(lines[:2]))
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0", "c1"]

    def test_failed_index_write_is_logged(self, tmp_store, caplog,
                                          monkeypatch, settle):
        _fill(tmp_store)
        settle()

        def refuse(src, dst):
            raise OSError("read-only directory")

        monkeypatch.setattr(store.os, "replace", refuse)
        with caplog.at_level("WARNING"):
            got = store.load(tmp_store)
        assert got == _reference_load(tmp_store)
        assert any("cannot write store index" in r.message
                   and "read-only directory" in r.message
                   for r in caplog.records)
        assert [p.name for p in tmp_store.parent.iterdir()] == [tmp_store.name]

    def test_load_never_writes_the_store(self, tmp_store):
        _fill(tmp_store)
        with open(tmp_store, "a") as f:
            f.write('{"clip": "cut')
        before = tmp_store.read_bytes()
        mtime = tmp_store.stat().st_mtime_ns
        for _ in range(3):
            store.load(tmp_store)
            store.index_path(tmp_store).write_bytes(b"junk")
            store.load(tmp_store)
        assert tmp_store.read_bytes() == before
        assert tmp_store.stat().st_mtime_ns == mtime

    @pytest.mark.parametrize("tail,rest", [
        (_WHOLE[:12], _WHOLE[12:] + "\n"), ('{"clip": "cut"}\n', None)],
        ids=["cut", "bad"])
    def test_skipped_or_unterminated_last_line_is_not_indexed(self, tmp_store,
                                                             settle, tail,
                                                             rest):
        """A load that skips its last line, cut short or malformed, leaves
        the index as it was, or absent, though the store has settled; once
        the line is completed, the next load indexes the whole store."""
        idx = store.index_path(tmp_store)
        for indexed in (False, True):
            tmp_store.unlink(missing_ok=True)
            idx.unlink(missing_ok=True)
            _fill(tmp_store)
            if indexed:
                settle()
                store.load(tmp_store)
            before = idx.read_bytes() if indexed else None
            with open(tmp_store, "a") as f:
                f.write(tail)
            settle()
            assert store.load(tmp_store) == _reference_load(tmp_store)
            assert (idx.read_bytes() if idx.exists() else None) == before
        if rest is None:  # a complete malformed line stays malformed
            store.append(tmp_store, _record(clip_id="later"))
            settle()
            with pytest.raises(StoreLoadError, match="malformed line 4"):
                store.load(tmp_store)
            assert idx.read_bytes() == before
            return
        with open(tmp_store, "a") as f:
            f.write(rest)
        settle()
        got = store.load(tmp_store)
        assert got == _reference_load(tmp_store)
        assert [r.clip_id for r in got] == ["c0", "c1", "c2", "whole"]
        assert _recorded(tmp_store) == store._fingerprint(tmp_store.stat())

    def test_unterminated_last_line_is_indexed(self, tmp_store, settle):
        """A last line that is a whole record but for its newline is a
        record, so a settled store that ends in one is indexed."""
        _fill(tmp_store)
        with open(tmp_store, "a") as f:
            f.write(_WHOLE)
        settle()
        got = store.load(tmp_store)
        assert [r.clip_id for r in got] == ["c0", "c1", "c2", "whole"]
        assert _recorded(tmp_store) == store._fingerprint(tmp_store.stat())
        assert store.load(tmp_store) == got == _reference_load(tmp_store)

    @pytest.mark.parametrize("layout", [
        "crlf", "lone-cr", "mixed-cr", "padded",
        "two-objects-and-split-record", "two-numbers-and-split-record",
        "blank-line", "array-line"])
    def test_odd_layouts_match_reference(self, tmp_store, settle, layout):
        lines = [_record(clip_id=f"c{i}").to_line() for i in range(4)]
        if layout == "crlf":
            text = "\r\n".join(lines) + "\r\n"
        elif layout == "lone-cr":
            text = "\r".join(lines) + "\r"
        elif layout == "mixed-cr":
            text = f"{lines[0]}\n{lines[1]}\r{lines[2]}"
        elif layout == "padded":
            text = "".join(f" {line}\t\n" for line in lines)
        elif layout == "two-objects-and-split-record":
            # one line with two records, then one record split at a comma
            # over two lines: line 2 is the first that does not parse
            head, rest = lines[3].split(", ", 1)
            text = "\n".join([lines[0], f"{lines[1]}, {lines[2]}", head, rest,
                              lines[0]]) + "\n"
        elif layout == "two-numbers-and-split-record":
            head, rest = lines[3].split(", ", 1)
            text = "\n".join([head, rest, "7, 8", lines[0]]) + "\n"
        elif layout == "blank-line":
            text = "\n".join(lines[:2] + [""] + lines[2:]) + "\n"
        else:
            text = "\n".join(lines[:2] + ["[1, 2]"] + lines[2:]) + "\n"
        tmp_store.write_bytes(text.encode())
        settle()
        want = _outcome(_reference_load, tmp_store)
        assert _outcome(store.load, tmp_store) == want
        assert _outcome(store.load, tmp_store) == want  # indexed, if it loads
        for clip in ("later", "later still"):
            with open(tmp_store, "a", newline="") as f:
                f.write(_record(clip_id=clip).to_line() + "\n")
            assert _outcome(store.load, tmp_store) == _outcome(_reference_load,
                                                               tmp_store)


def _write_old_index(path, fmt, body, digest=None):
    """An index of format ``fmt`` over ``body``, with the digest formats
    1 and 2 kept (blake2b) unless ``digest`` is given."""
    store.index_path(path).write_bytes(
        struct.pack("<4sHH", b"RDGI", fmt, marshal.version)
        + (digest or _blake2b)(body) + body)


def _blake2b(data):
    return hashlib.blake2b(data, digest_size=32).digest()


def _sha256(data):
    return hashlib.sha256(data).digest()


def _format_1_index(path):
    """The index a format-1 loader wrote for ``path``: each surviving row
    as a field tuple, its line index and the load-order permutation."""
    records = _reference_load(path)
    data = path.read_bytes()
    rows = [dataclasses.astuple(r) for r in records]
    _write_old_index(path, 1, marshal.dumps(
        (len(data), _blake2b(data), data.count(b"\n"),
         (rows, list(range(len(rows))), list(range(len(rows))))), 2))


def _format_2_index(path):
    """The index a format-2 loader wrote for ``path``: the table's column
    buffers under blake2b digests."""
    from rdgauge.store import RecordTable

    data = path.read_bytes()
    table = RecordTable.from_records(_reference_load(path))
    _write_old_index(path, 2, marshal.dumps(
        (len(data), _blake2b(data), data.count(b"\n"), table.buffers()), 2))


def _format_3_index(path):
    """The index a format-3 loader wrote for ``path``: the table's column
    buffers under sha256 digests, with no store fingerprint."""
    from rdgauge.store import RecordTable

    data = path.read_bytes()
    table = RecordTable.from_records(_reference_load(path))
    _write_old_index(path, 3, marshal.dumps(
        (len(data), _sha256(data), data.count(b"\n"), table.buffers()), 2),
        _sha256)


def _format_4_index(path):
    """The index a format-4 loader wrote for ``path``: the table's column
    buffers and the store's fingerprint under sha256 digests."""
    from rdgauge.store import RecordTable

    data = path.read_bytes()
    table = RecordTable.from_records(_reference_load(path))
    _write_old_index(path, 4, marshal.dumps(
        (len(data), _sha256(data), data.count(b"\n"),
         store._fingerprint(os.stat(path)), table.buffers()), 2), _sha256)


def _format_5_index(path):
    """The index a format-5 loader wrote for ``path``: the covered size,
    its sha256 digest, its line count, the store's fingerprint and the
    table's column buffers, under a header with the body's length and
    CRC-32."""
    from rdgauge.store import RecordTable

    data = path.read_bytes()
    table = RecordTable.from_records(_reference_load(path))
    body = marshal.dumps(
        (len(data), _sha256(data), data.count(b"\n"),
         store._fingerprint(os.stat(path)), table.buffers()), 2)
    store.index_path(path).write_bytes(
        struct.pack("<4sHHQI", b"RDGI", 5, marshal.version, len(body),
                    zlib.crc32(body)) + body)


def _format_6_index(path):
    """The index a format-6 loader wrote for ``path``: the store's
    fingerprint and the table's column buffers, under a header with the
    body's length and CRC-32. Format 6 parsed lines by looser rules, so
    its matching fingerprint is not trusted either."""
    from rdgauge.store import RecordTable

    table = RecordTable.from_records(_reference_load(path))
    body = marshal.dumps((store._fingerprint(os.stat(path)),
                          table.buffers()), 2)
    store.index_path(path).write_bytes(
        struct.pack("<4sHHQI", b"RDGI", 6, marshal.version, len(body),
                    zlib.crc32(body)) + body)


def test_format_1_index_falls_back_and_is_rewritten(tmp_store, caplog,
                                                    settle):
    _fill(tmp_store, 4)
    _format_1_index(tmp_store)
    _check_old_index_is_rewritten(tmp_store, caplog, settle, 1)


def test_format_2_index_falls_back_and_is_rewritten(tmp_store, caplog,
                                                    settle):
    _fill(tmp_store, 4)
    _format_2_index(tmp_store)
    _check_old_index_is_rewritten(tmp_store, caplog, settle, 2)


def test_format_3_index_falls_back_and_is_rewritten(tmp_store, caplog,
                                                    settle):
    _fill(tmp_store, 4)
    _format_3_index(tmp_store)
    _check_old_index_is_rewritten(tmp_store, caplog, settle, 3)


def test_format_4_index_falls_back_and_is_rewritten(tmp_store, caplog,
                                                    settle):
    _fill(tmp_store, 4)
    _format_4_index(tmp_store)  # its matching fingerprint is not trusted
    _check_old_index_is_rewritten(tmp_store, caplog, settle, 4)


def test_format_5_index_falls_back_and_is_rewritten(tmp_store, caplog,
                                                    settle):
    _fill(tmp_store, 4)
    _format_5_index(tmp_store)  # its matching fingerprint is not trusted
    _check_old_index_is_rewritten(tmp_store, caplog, settle, 5)


def test_format_6_index_falls_back_and_is_rewritten(tmp_store, caplog,
                                                    settle):
    _fill(tmp_store, 4)
    _format_6_index(tmp_store)  # its matching fingerprint is not trusted
    _check_old_index_is_rewritten(tmp_store, caplog, settle, 6)


def _check_old_index_is_rewritten(tmp_store, caplog, settle, fmt):
    settle()
    with caplog.at_level("WARNING"):
        got = store.load(tmp_store)
    assert got == _reference_load(tmp_store)
    assert any("ignoring store index" in r.message
               and f"format {fmt}" in r.message and "want 7" in r.message
               for r in caplog.records)
    head = store.index_path(tmp_store).read_bytes()[:8]
    assert struct.unpack("<4sHH", head)[:2] == (b"RDGI", 7)
    caplog.clear()
    with caplog.at_level("WARNING"):
        assert store.load(tmp_store) == got
    assert caplog.records == []


_LINE = {"clip": "a", "family": "x264", "preset": "medium", "passes": 1,
         "tbr_kbps": 500.0, "kbps": 510.0, "vmaf": 30.0, "psnr_y": 40.0,
         "enc_s": 1.5, "bytes": 1000, "tool": "x264", "ts": "t0"}


@pytest.mark.parametrize("field,value,what", [
    ("kbps", None, "a number"), ("kbps", "510", "a number"),
    ("kbps", True, "a number"), ("tbr_kbps", False, "a number"),
    ("vmaf", "91.5", "a number or null"), ("psnr_y", True, "a number or null"),
    ("enc_s", [1], "a number or null"), ("bytes", 1.5, "an integer or null"),
    ("bytes", "1000", "an integer or null"), ("tool", 5, "a string"),
    ("tool", None, "a string")])
def test_wrong_typed_measurement_is_a_malformed_line(tmp_store, field, value,
                                                     what):
    lines = [_LINE, {**_LINE, "clip": "b", field: value}, {**_LINE, "clip": "c"}]
    tmp_store.write_text("".join(json.dumps(row) + "\n" for row in lines))
    with pytest.raises(StoreLoadError, match=(
            f"malformed line 2: {field} must be {what}, got "
            f"{re.escape(json.dumps(value))}$")):
        store.load(tmp_store)


# Values that break a rule of the store, and the rule each breaks.
_BROKEN = [("passes", 3, "must be 1 or 2, got 3"),
           ("passes", 1.7, "must be an integer, got 1.7"),
           ("passes", True, "must be an integer, got true"),
           ("passes", "2", 'must be an integer, got "2"'),
           ("preset", None, "must be a string, got null"),
           ("preset", 10, "must be a string, got 10"),
           ("preset", "", 'must not be empty, got ""'),
           ("clip", "", 'must not be empty, got ""'),
           ("vmaf", 150, "must be in [0, 100], got 150"),
           ("kbps", -5, "must be > 0, got -5"),
           ("tbr_kbps", 0, "must be > 0, got 0"),
           ("enc_s", -1, "must be >= 0, got -1"),
           ("bytes", -7, "must be >= 0, got -7")]
_ATTRS = dict(zip(store.FIELDS,
                  (f.name for f in dataclasses.fields(MetricRecord))))


@pytest.mark.parametrize("field,value,rule", _BROKEN)
def test_load_refuses_what_append_refuses(tmp_store, caplog, field, value,
                                          rule):
    bad = json.dumps({**_LINE, "clip": "b", field: value}) + "\n"
    good = json.dumps(_LINE) + "\n"
    tmp_store.write_text(good + bad + good)
    with pytest.raises(StoreLoadError, match=(
            f"malformed line 2: {re.escape(f'{field} {rule}')}$")):
        store.load(tmp_store)
    tmp_store.write_text(good + bad)
    with caplog.at_level("WARNING"):
        assert [r.clip_id for r in store.load(tmp_store)] == ["a"]
    assert any("ignoring partial trailing line 2" in r.message
               for r in caplog.records)
    fresh = tmp_store.with_name("fresh.jsonl")
    with pytest.raises(StoreValidationError, match=(
            f"^{re.escape(f'{_ATTRS[field]} {rule}')}$")):
        store.append(fresh, _record(**{_ATTRS[field]: value}))
    assert not fresh.exists()


@pytest.mark.parametrize("field,value,ok", [
    ("passes", 0, False), ("passes", 1, True), ("passes", 2, True),
    ("passes", 3, False), ("vmaf", -0.0, True), ("vmaf", 100, True),
    ("vmaf", 100.0000001, False), ("tbr_kbps", 0, False),
    ("tbr_kbps", 5e-324, True), ("kbps", 0, False), ("kbps", 5e-324, True),
    ("bytes", -1, False), ("bytes", 0, True)])
def test_reference_rule_and_load_agree_at_the_boundary(tmp_store, field,
                                                       value, ok):
    lines = [_LINE, {**_LINE, "clip": "b", field: value}, _LINE]
    tmp_store.write_text("".join(json.dumps(row) + "\n" for row in lines))
    got = _outcome(store.load, tmp_store)
    assert got == _outcome(_reference_load, tmp_store)
    assert isinstance(got, str) is not ok
    if ok:
        assert [r.clip_id for r in got] == ["a", "b"]


@pytest.mark.parametrize("field", ["kbps", "bytes", "tbr_kbps"])
def test_integer_beyond_int64_is_a_malformed_line(tmp_store, field):
    lines = [_LINE, {**_LINE, "clip": "b", field: 2 ** 63}, _LINE]
    tmp_store.write_text("".join(json.dumps(row) + "\n" for row in lines))
    with pytest.raises(StoreLoadError,
                       match=f"malformed line 2: {field} out of range"):
        store.load(tmp_store)


def test_infinite_passes_is_a_malformed_line(tmp_store):
    lines = [_LINE, {**_LINE, "clip": "b", "passes": math.inf}, _LINE]
    tmp_store.write_text("".join(json.dumps(row) + "\n" for row in lines))
    with pytest.raises(StoreLoadError, match="malformed line 2: passes "
                       "must be an integer, got Infinity$"):
        store.load(tmp_store)


@pytest.mark.parametrize("field", ["tbr_kbps", "kbps", "vmaf", "psnr_y",
                                   "enc_s"])
@pytest.mark.parametrize("text,shown", [
    ("Infinity", "Infinity"), ("-Infinity", "-Infinity"), ("NaN", "NaN"),
    ("1e400", "Infinity")])
def test_non_finite_number_is_a_malformed_line(tmp_store, field, text, shown):
    line = json.dumps({**_LINE, "clip": "b", field: 0.5}).replace(
        f'"{field}": 0.5', f'"{field}": {text}')
    tmp_store.write_text(json.dumps(_LINE) + "\n" + line + "\n"
                         + json.dumps(_LINE) + "\n")
    with pytest.raises(StoreLoadError, match=(
            f"malformed line 2: {field} must be finite, got {shown}$")):
        store.load(tmp_store)


@pytest.mark.parametrize("field", ["target_kbps", "measured_kbps",
                                   "encode_seconds"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_number_is_never_stored(tmp_store, field, value):
    with pytest.raises(StoreValidationError, match=f"{field} must be finite"):
        store.append(tmp_store, _record(**{field: value}))
    assert not tmp_store.exists()


def test_non_utf8_complete_line_is_a_malformed_line(tmp_store):
    lines = [json.dumps(_LINE).encode(),
             json.dumps({**_LINE, "clip": "caf\u00e9"},
                        ensure_ascii=False).encode("latin-1"),
             json.dumps(_LINE).encode()]
    tmp_store.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(StoreLoadError, match=(
            "malformed line 2: 'utf-8' codec can't decode byte 0xe9")):
        store.load(tmp_store)


def test_last_line_cut_inside_a_character_is_skipped(tmp_store, caplog):
    line = json.dumps({**_LINE, "clip": "caf\u00e9"},
                      ensure_ascii=False).encode()
    cut = line.index(b"\xc3") + 1  # the first of the two bytes of the é
    tmp_store.write_bytes(json.dumps(_LINE).encode() + b"\n" + line[:cut])
    with caplog.at_level("WARNING"):
        assert [r.clip_id for r in store.load(tmp_store)] == ["a"]
    assert any("ignoring partial trailing line 2" in r.message
               for r in caplog.records)
    with open(tmp_store, "ab") as f:
        f.write(line[cut:] + b"\n")
    assert [r.clip_id for r in store.load(tmp_store)] == ["a", "caf\u00e9"]


def test_nulls_and_integers_are_measurements(tmp_store):
    lines = [{**_LINE, "vmaf": None, "psnr_y": None, "enc_s": None,
              "bytes": None},
             {**_LINE, "clip": "b", "kbps": 510, "vmaf": 30, "bytes": 2 ** 62}]
    tmp_store.write_text("".join(json.dumps(row) + "\n" for row in lines))
    a, b = store.load(tmp_store)
    assert (a.vmaf, a.psnr_y, a.encode_seconds, a.output_bytes) == (
        None, None, None, None)
    assert (b.measured_kbps, b.vmaf, b.output_bytes) == (510.0, 30.0, 2 ** 62)
    assert type(b.measured_kbps) is float  # numbers read back as float64


class TestRecordTable:
    def _table(self, tmp_store):
        for i, vmaf in enumerate((None, 81.5, -0.0)):
            store.append(tmp_store, _record(
                clip_id=f"c{i}", vmaf=vmaf, output_bytes=None if i else 7,
                encode_seconds=None if i == 2 else 1.5))
        return store.load(tmp_store), _reference_load(tmp_store)

    def test_sequence_of_records(self, tmp_store):
        table, want = self._table(tmp_store)
        assert len(table) == 3 and table == want and want == table
        assert [table[i] for i in range(3)] == want == list(table)
        assert table[-1] == want[-1] and table[1:] == want[1:]
        assert str(table[2].vmaf) == "-0.0"
        with pytest.raises(IndexError):
            table[3]
        assert table != "records" and table != want[:2]
        assert table == store.load(tmp_store)

    def test_columns_are_coded_and_read_only(self, tmp_store):
        table, _ = self._table(tmp_store)
        assert table.tables["clip"] == ["c0", "c1", "c2"]
        assert table.columns["clip"].dtype.name == "int32"
        assert table.nulls["vmaf"].tolist() == [True, False, False]
        assert table.nulls["bytes"].tolist() == [False, True, True]
        for column in (*table.columns.values(), *table.nulls.values()):
            assert not column.flags.writeable

    def test_from_records_and_take(self, tmp_store):
        from rdgauge.store import RecordTable

        table, want = self._table(tmp_store)
        assert RecordTable.from_records(want) == want
        assert RecordTable.of(table) is table
        import numpy as np
        assert table.take(np.array([2, 0])) == [want[2], want[0]]
        assert store.load(tmp_store.with_name("missing.jsonl")) == []


def test_tail_line_wins_a_tie_with_an_indexed_row(tmp_store, settle):
    # A line appended to an indexed store follows every line before it,
    # so it wins a created_at tie, as in a full parse.
    store.append(tmp_store, _record(vmaf=1.0, created_at="t0"))
    settle()
    assert store.load(tmp_store)[0].vmaf == 1.0
    assert _recorded(tmp_store) is not None
    store.append(tmp_store, _record(vmaf=2.0, created_at="t0"))
    assert store.load(tmp_store)[0].vmaf == 2.0
    assert store.load(tmp_store) == _full_parse(tmp_store)


def _spy(monkeypatch, path):
    """Record the length of every ``store._parse`` input and count the
    opens of the store at ``path``."""
    seen = {"parsed": [], "opened": 0}
    parse = store._parse

    def counted_parse(path, data):
        seen["parsed"].append(len(data))
        return parse(path, data)

    def counted_open(file, *args, **kwargs):
        seen["opened"] += Path(file) == path
        return open(file, *args, **kwargs)

    monkeypatch.setattr(store, "_parse", counted_parse)
    monkeypatch.setattr(store, "open", counted_open, raising=False)
    return seen


def _settled(path, settle):
    """Fill, settle and index the store."""
    _fill(path)
    store.load(path)
    assert _recorded(path) is None  # written just now: not settled
    settle()
    store.load(path)
    assert _recorded(path) == store._fingerprint(os.stat(path))


class TestFingerprint:
    def test_settled_unchanged_store_is_not_read(self, tmp_store, settle,
                                                 monkeypatch):
        _settled(tmp_store, settle)
        idx = store.index_path(tmp_store)
        before = idx.stat()
        seen = _spy(monkeypatch, tmp_store)
        for _ in range(2):
            assert store.load(tmp_store) == _reference_load(tmp_store)
        assert seen == {"parsed": [], "opened": 0}
        after = idx.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)

    def test_just_written_store_gets_no_fingerprint(self, tmp_store):
        _fill(tmp_store)
        for _ in range(2):
            assert store.load(tmp_store) == _reference_load(tmp_store)
            assert _recorded(tmp_store) is None
        assert not store.index_path(tmp_store).exists()

    def test_settled_empty_store_gets_no_index(self, tmp_store, settle):
        tmp_store.touch()
        settle()
        assert store.load(tmp_store) == []
        assert not store.index_path(tmp_store).exists()

    @pytest.mark.parametrize("change", [
        "append", "in-place-edit", "chmod", "rename-over", "truncate-regrow"])
    def test_changed_store_is_hashed_again(self, tmp_store, settle,
                                           monkeypatch, change):
        """Any change to an indexed store, its times put back or not,
        makes the next load read and parse the whole store."""
        _settled(tmp_store, settle)
        recorded = _recorded(tmp_store)
        st = tmp_store.stat()
        data = tmp_store.read_bytes()
        edited = data.replace(b'"c1"', b'"e1"')
        assert len(edited) == len(data) and edited != data
        if change == "append":
            store.append(tmp_store, _record(clip_id="new"))
        elif change == "in-place-edit":
            with open(tmp_store, "r+b") as f:
                f.write(edited)
        elif change == "chmod":
            tmp_store.chmod(stat.S_IMODE(st.st_mode) ^ stat.S_IXUSR)
        elif change == "rename-over":
            copy = tmp_store.with_name("copy.jsonl")
            copy.write_bytes(edited)
            os.replace(copy, tmp_store)
        else:
            cut = data.index(b"\n") + 1  # keep the first line
            os.truncate(tmp_store, cut)
            with open(tmp_store, "ab") as f:
                f.write(edited[cut:])
        if change != "append":
            os.utime(tmp_store, ns=(st.st_atime_ns, st.st_mtime_ns))
            assert tmp_store.stat().st_size == st.st_size
            assert tmp_store.stat().st_mtime_ns == st.st_mtime_ns
        seen = _spy(monkeypatch, tmp_store)
        got = store.load(tmp_store)
        assert got == _reference_load(tmp_store)
        assert seen == {"parsed": [tmp_store.stat().st_size], "opened": 1}
        assert _recorded(tmp_store) == recorded  # changed just now
        want = {"append": ["c0", "c1", "c2", "new"],
                "chmod": ["c0", "c1", "c2"]}
        assert [r.clip_id for r in got] == want.get(change, ["c0", "c2", "e1"])

    def test_append_is_parsed_in_full_until_the_store_settles(
            self, tmp_store, settle, monkeypatch):
        """An index is trusted only for the store it recorded: after an
        append, each load parses the whole store, until one load of the
        settled store indexes it again and the next does not open it."""
        _settled(tmp_store, settle)
        _plant(tmp_store)  # trusted while the store is unchanged
        assert [r.clip_id for r in store.load(tmp_store)] == ["planted"]
        store.append(tmp_store, _record(clip_id="new"))
        seen = _spy(monkeypatch, tmp_store)
        for _ in range(2):
            got = store.load(tmp_store)
            assert [r.clip_id for r in got] == ["c0", "c1", "c2", "new"]
        size = tmp_store.stat().st_size
        assert seen == {"parsed": [size, size], "opened": 2}
        settle()
        assert store.load(tmp_store) == got
        assert _recorded(tmp_store) == store._fingerprint(tmp_store.stat())
        assert store.load(tmp_store) == got == _reference_load(tmp_store)
        assert seen == {"parsed": [size] * 3, "opened": 3}

    def test_appended_bad_line_is_named_as_in_a_cold_parse(self, tmp_store,
                                                           settle):
        """A malformed line appended to an indexed store gets the line
        number a load without the index gives it."""
        _fill(tmp_store, 1)
        settle()
        store.load(tmp_store)
        before = store.index_path(tmp_store).read_bytes()
        with open(tmp_store, "a") as f:
            f.write("not json\n")
        store.append(tmp_store, _record(clip_id="c9"))
        for _ in range(2):
            with pytest.raises(StoreLoadError, match="malformed line 2: "):
                store.load(tmp_store)
            settle()
        assert store.index_path(tmp_store).read_bytes() == before
        assert _full_parse(tmp_store) == _outcome(_reference_load, tmp_store)


def _src_env():
    """The environment of a subprocess that imports this checkout's rdgauge."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def test_settled_load_does_not_import_hashlib(tmp_store, settle):
    """A settled, unchanged store loads with the index's CRC-32 alone,
    and no load hashes the store, so the command never pays for loading
    OpenSSL."""
    _settled(tmp_store, settle)
    script = f"""
import sys
from rdgauge import store
got = store.load({str(tmp_store)!r})
assert [r.clip_id for r in got] == ["c0", "c1", "c2"], got
assert "hashlib" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class _Warnings(logging.Handler):
    """The messages ``rdgauge.store`` logs inside a ``with`` block."""

    def __enter__(self):
        self.messages = []
        logging.getLogger("rdgauge.store").addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        logging.getLogger("rdgauge.store").removeHandler(self)

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=300, deadline=None)
@given(damage=st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 10 ** 6), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64))))
def test_damaged_index_is_ignored(damage):
    """Any single-byte change, truncation or extension of a valid index
    is caught by its header, length or CRC-32 (which detects every error
    in one byte): the load warns, parses the store in full and raises
    nothing. The index is planted, so trusting it would show."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        _fill(path)
        _plant(path)
        idx = store.index_path(path)
        blob = bytearray(idx.read_bytes())
        if damage[0] == "byte":
            blob[damage[1] % len(blob)] ^= damage[2]
        elif damage[0] == "cut":
            blob = blob[:damage[1] % len(blob)]
        else:
            blob += damage[1]
        idx.write_bytes(bytes(blob))
        with _Warnings() as messages:
            got = store.load(path)
        assert got == _reference_load(path)
        assert [r.clip_id for r in got] == ["c0", "c1", "c2"]
        assert any("ignoring store index" in m for m in messages), messages


class TestAppendAfterCrash:
    def test_partial_last_line_is_cut_before_an_append(self, tmp_store,
                                                       caplog):
        _fill(tmp_store, 2)
        size = tmp_store.stat().st_size
        os.truncate(tmp_store, size - 30)  # record 2 lost its last 30 bytes
        cut = size - 30 - (tmp_store.read_bytes().index(b"\n") + 1)
        with caplog.at_level("WARNING"):
            store.append(tmp_store, _record(clip_id="c2", created_at="t2"))
        assert any(f"partial trailing line 2 ({cut} bytes)" in r.message
                   for r in caplog.records)
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0", "c2"]
        store.append(tmp_store, _record(clip_id="c3", created_at="t3"))
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0", "c2",
                                                              "c3"]
        assert store.load(tmp_store) == _reference_load(tmp_store)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    def test_complete_last_line_is_kept(self, tmp_store, caplog, end):
        tmp_store.write_bytes(_record(clip_id="c0").to_line().encode() + end)
        with caplog.at_level("WARNING"):
            store.append(tmp_store, _record(clip_id="c1"))
        assert caplog.records == []
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0", "c1"]

    def test_whole_unterminated_record_is_kept(self, tmp_store, caplog):
        tmp_store.write_bytes(_record(clip_id="c0").to_line().encode())
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0"]
        with caplog.at_level("WARNING"):
            store.append(tmp_store, _record(clip_id="c1"))
        assert caplog.records == []
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0", "c1"]

    def test_store_that_is_all_partial_line_is_emptied(self, tmp_store):
        tmp_store.write_bytes(_record(clip_id="c0").to_line().encode()[:40])
        record = _record(clip_id="c1")
        store.append(tmp_store, record)
        assert tmp_store.read_text() == record.to_line() + "\n"

    def test_append_waits_for_the_lock(self, tmp_store):
        _fill(tmp_store, 1)
        before = tmp_store.read_bytes()
        with open(tmp_store, "rb") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX)
            writer = threading.Thread(target=store.append, args=(
                tmp_store, _record(clip_id="c9", created_at="t9")))
            writer.start()
            writer.join(0.3)
            assert writer.is_alive()
            assert tmp_store.read_bytes() == before
        writer.join(10)  # closing the holder released the lock
        assert not writer.is_alive()
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0", "c9"]

    def test_two_processes_append_whole_lines(self, tmp_store):
        n = 200
        script = """
import sys
from rdgauge import store
from rdgauge.store import MetricRecord
for i in range(int(sys.argv[2])):
    store.append(sys.argv[1], MetricRecord(
        clip_id=f"{sys.argv[3]}{i}", family="x264", preset="medium",
        passes=1, target_kbps=1000.0, measured_kbps=1000.0,
        tool_version="x" * 2000))
"""
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(tmp_store), str(n), who],
                                  env=_src_env(), stderr=subprocess.PIPE)
                 for who in ("a", "b")]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
        lines = tmp_store.read_bytes().split(b"\n")
        assert lines.pop() == b""
        assert len(lines) == 2 * n
        assert len({json.loads(line)["clip"] for line in lines}) == 2 * n
        assert len(store.load(tmp_store)) == 2 * n
