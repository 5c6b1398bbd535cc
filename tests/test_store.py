import dataclasses
import hashlib
import json
import marshal
import math
import os
import re
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _reference_load(path):
    """The per-line loader that the indexed one replaces, kept as the
    reference: one parse per line, keep-latest by (created_at,
    line index), sorted by key and then created_at."""
    path = Path(path)
    if not path.exists():
        return []
    raw = path.read_text(encoding="utf-8").split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    records = {}
    for idx, line in enumerate(raw):
        try:
            rec = MetricRecord(*store._fields(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
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
    """Index the whole store as holding one record it does not hold."""
    data = path.read_bytes()
    fake = _record(clip_id="planted", created_at="t9")
    row = dataclasses.astuple(fake)
    store._write_index(path, data, data.count(b"\n"),
                       store._state({row[:5]: (row[11], 0, row)}))


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
    the same StoreLoadError."""
    with tempfile.TemporaryDirectory() as tmp:
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

            before = path.read_bytes()
            got = _outcome(store.load, path)
            assert got == _full_parse(path) == _outcome(_reference_load, path)
            assert _outcome(store.load, path) == got  # now from the index
            assert path.read_bytes() == before


class TestIndex:
    def test_repeat_load_parses_only_the_tail(self, tmp_store):
        _fill(tmp_store)
        store.load(tmp_store)
        assert store.index_path(tmp_store).exists()
        _plant(tmp_store)  # lines 1-3 are now read from the index only
        assert [r.clip_id for r in store.load(tmp_store)] == ["planted"]
        store.append(tmp_store, _record(clip_id="new"))
        assert [r.clip_id for r in store.load(tmp_store)] == ["new", "planted"]

    @pytest.mark.parametrize("field,offset", [("index format", 4),
                                              ("marshal version", 6)])
    def test_foreign_version_index_falls_back(self, tmp_store, caplog, field,
                                              offset):
        _fill(tmp_store)
        _plant(tmp_store)
        _patch_index(tmp_store, offset, struct.pack("<H", 999))
        with caplog.at_level("WARNING"):
            got = store.load(tmp_store)
        assert got == _reference_load(tmp_store)
        assert any("ignoring store index" in r.message and "999" in r.message
                   for r in caplog.records)
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

    def test_same_length_replacement_falls_back(self, tmp_store):
        store.append(tmp_store, _record(vmaf=88.5))
        store.append(tmp_store, _record(clip_id="shot02", vmaf=70.25))
        store.load(tmp_store)
        before = tmp_store.read_bytes()
        after = before.replace(b"88.5", b"77.5")
        assert len(after) == len(before) and after != before
        tmp_store.write_bytes(after)
        got = store.load(tmp_store)
        assert [r.vmaf for r in got] == [77.5, 70.25]
        assert got == _reference_load(tmp_store)

    def test_in_place_edit_with_restored_times_falls_back(self, tmp_store):
        """An edit of the same length whose file times are put back, as
        ``cp -p`` or ``rsync -t`` leave them, is still seen."""
        store.append(tmp_store, _record(vmaf=88.5))
        store.append(tmp_store, _record(clip_id="shot02", vmaf=70.25))
        store.load(tmp_store)
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

    def test_truncated_store_falls_back(self, tmp_store):
        _fill(tmp_store)
        store.load(tmp_store)
        lines = tmp_store.read_text().splitlines(keepends=True)
        tmp_store.write_text("".join(lines[:2]))
        assert [r.clip_id for r in store.load(tmp_store)] == ["c0", "c1"]

    def test_failed_index_write_is_logged(self, tmp_store, caplog,
                                          monkeypatch):
        _fill(tmp_store)

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
        (_WHOLE[:12], _WHOLE[12:] + "\n"), ('{"clip": "cut"}\n', None),
        (_WHOLE, "\n")], ids=["cut", "bad", "unterminated"])
    def test_skipped_or_unterminated_last_line_is_not_indexed(self, tmp_store,
                                                             tail, rest):
        """A load that skips its last line or finds it unterminated leaves
        the index as it was, or absent; once the line is completed, the
        next load indexes the whole store."""
        idx = store.index_path(tmp_store)
        for indexed in (False, True):
            tmp_store.unlink(missing_ok=True)
            idx.unlink(missing_ok=True)
            _fill(tmp_store)
            if indexed:
                store.load(tmp_store)
            before = idx.read_bytes() if indexed else None
            with open(tmp_store, "a") as f:
                f.write(tail)
            assert store.load(tmp_store) == _reference_load(tmp_store)
            assert (idx.read_bytes() if idx.exists() else None) == before
        if rest is None:  # a complete malformed line stays malformed
            store.append(tmp_store, _record(clip_id="later"))
            with pytest.raises(StoreLoadError, match="malformed line 4"):
                store.load(tmp_store)
            assert idx.read_bytes() == before
            return
        with open(tmp_store, "a") as f:
            f.write(rest)
        got = store.load(tmp_store)
        assert got == _reference_load(tmp_store)
        assert [r.clip_id for r in got] == ["c0", "c1", "c2", "whole"]
        data = tmp_store.read_bytes()
        assert store._read_index(tmp_store, data)[0] == len(data)

    @pytest.mark.parametrize("layout", [
        "crlf", "lone-cr", "mixed-cr", "padded",
        "two-objects-and-split-record", "two-numbers-and-split-record",
        "blank-line", "array-line"])
    def test_odd_layouts_match_reference(self, tmp_store, layout):
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
        want = _outcome(_reference_load, tmp_store)
        assert _outcome(store.load, tmp_store) == want
        assert _outcome(store.load, tmp_store) == want
        for clip in ("later", "later still"):
            with open(tmp_store, "a", newline="") as f:
                f.write(_record(clip_id=clip).to_line() + "\n")
            assert _outcome(store.load, tmp_store) == _outcome(_reference_load,
                                                               tmp_store)


def _write_old_index(path, fmt, body):
    """An index of format ``fmt`` over ``body``, with blake2b digests as
    formats 1 and 2 kept them."""
    store.index_path(path).write_bytes(
        struct.pack("<4sHH", b"RDGI", fmt, marshal.version) + _blake2b(body)
        + body)


def _blake2b(data):
    return hashlib.blake2b(data, digest_size=32).digest()


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
    from rdgauge.table import RecordTable

    data = path.read_bytes()
    table = RecordTable.from_records(_reference_load(path))
    _write_old_index(path, 2, marshal.dumps(
        (len(data), _blake2b(data), data.count(b"\n"), table.buffers()), 2))


def test_format_1_index_falls_back_and_is_rewritten(tmp_store, caplog):
    _fill(tmp_store, 4)
    _format_1_index(tmp_store)
    _check_old_index_is_rewritten(tmp_store, caplog, 1)


def test_format_2_index_falls_back_and_is_rewritten(tmp_store, caplog):
    _fill(tmp_store, 4)
    _format_2_index(tmp_store)
    _check_old_index_is_rewritten(tmp_store, caplog, 2)


def _check_old_index_is_rewritten(tmp_store, caplog, fmt):
    with caplog.at_level("WARNING"):
        got = store.load(tmp_store)
    assert got == _reference_load(tmp_store)
    assert any("ignoring store index" in r.message
               and f"format {fmt}" in r.message and "want 3" in r.message
               for r in caplog.records)
    head = store.index_path(tmp_store).read_bytes()[:8]
    assert struct.unpack("<4sHH", head)[:2] == (b"RDGI", 3)
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
    with pytest.raises(StoreLoadError, match="malformed line 2: cannot "
                       "convert float infinity to integer"):
        store.load(tmp_store)


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
        assert table == store.load(tmp_store)  # from the index

    def test_columns_are_coded_and_read_only(self, tmp_store):
        table, _ = self._table(tmp_store)
        assert table.tables["clip"] == ["c0", "c1", "c2"]
        assert table.columns["clip"].dtype.name == "int32"
        assert table.nulls["vmaf"].tolist() == [True, False, False]
        assert table.nulls["bytes"].tolist() == [False, True, True]
        for column in (*table.columns.values(), *table.nulls.values()):
            assert not column.flags.writeable

    def test_from_records_and_take(self, tmp_store):
        from rdgauge.table import RecordTable

        table, want = self._table(tmp_store)
        assert RecordTable.from_records(want) == want
        assert RecordTable.of(table) is table
        import numpy as np
        assert table.take(np.array([2, 0])) == [want[2], want[0]]
        assert store.load(tmp_store.with_name("missing.jsonl")) == []


def test_tail_line_wins_a_tie_with_an_indexed_row(tmp_store):
    # The index keeps no line numbers: a line after the indexed ones
    # follows all of them, so it wins a created_at tie, as in a full parse.
    store.append(tmp_store, _record(vmaf=1.0, created_at="t0"))
    assert store.load(tmp_store)[0].vmaf == 1.0
    store.append(tmp_store, _record(vmaf=2.0, created_at="t0"))
    assert store.load(tmp_store)[0].vmaf == 2.0
    assert store.load(tmp_store) == _full_parse(tmp_store)
