import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clip_stream, make_header, read_clip, write_clip
from rdgauge import y4m
from rdgauge.errors import (
    IncompleteFrameError,
    Y4MFormatError,
    Y4MUnsupportedError,
    Y4MValidationError,
)


def _stream(text, payload=b""):
    return io.BytesIO(text.encode() + payload)


class TestParseHeader:
    def test_full_10bit_header(self):
        h = y4m.parse_header(_stream("YUV4MPEG2 W3840 H2160 F24:1 Ip A1:1 C420p10\n"))
        assert (h.width, h.height) == (3840, 2160)
        assert (h.fps_num, h.fps_den) == (24, 1)
        assert h.bit_depth == 10
        assert h.chroma == "C420p10"
        assert h.pixel_aspect == (1, 1)

    def test_chroma_defaults_to_8bit_420(self):
        h = y4m.parse_header(_stream("YUV4MPEG2 W2 H2 F25:1\n"))
        assert h.chroma == "C420"
        assert h.bit_depth == 8
        assert h.frame_payload_bytes == 6  # 4 + 1 + 1 samples, 1 byte each

    def test_missing_signature(self):
        with pytest.raises(Y4MFormatError):
            y4m.parse_header(_stream("JUNK W2 H2\n"))

    def test_odd_width_rejected(self):
        with pytest.raises(Y4MValidationError):
            y4m.parse_header(_stream("YUV4MPEG2 W3 H2 F25:1\n"))

    def test_unsupported_chroma(self):
        with pytest.raises(Y4MUnsupportedError):
            y4m.parse_header(_stream("YUV4MPEG2 W4 H4 F25:1 C444\n"))

    def test_interlaced_rejected(self):
        with pytest.raises(Y4MUnsupportedError):
            y4m.parse_header(_stream("YUV4MPEG2 W4 H4 F25:1 It\n"))

    def test_unknown_tag_kept_and_ignored(self, caplog):
        with caplog.at_level("WARNING"):
            h = y4m.parse_header(_stream("YUV4MPEG2 W4 H4 F25:1 Zfoo XCOLORRANGE=FULL\n"))
        assert "Zfoo" in h.extra_tags
        assert "XCOLORRANGE=FULL" in h.extra_tags
        assert any("Zfoo" in r.message for r in caplog.records)

    def test_4k_10bit_payload_size(self):
        h = make_header(3840, 2160, bit_depth=10)
        assert h.frame_payload_bytes == 24_883_200


class TestReadFrame:
    def test_reads_exact_payload(self):
        header = make_header(2, 2, fps_num=25)
        payload = bytes(range(6))
        stream = _stream("YUV4MPEG2 W2 H2 F25:1\nFRAME\n", payload + b"tail")
        h = y4m.parse_header(stream)
        frame = y4m.read_frame(stream, h)
        assert frame.y.tolist() == [[0, 1], [2, 3]]
        assert frame.u.tolist() == [[4]]
        assert frame.v.tolist() == [[5]]
        assert stream.read() == b"tail"
        assert header.frame_payload_bytes == 6

    def test_truncated_payload(self):
        stream = _stream("YUV4MPEG2 W2 H2 F25:1\nFRAME\n", b"\x00\x01\x02")
        h = y4m.parse_header(stream)
        with pytest.raises(IncompleteFrameError):
            y4m.read_frame(stream, h)

    def test_bad_marker(self):
        stream = _stream("YUV4MPEG2 W2 H2 F25:1\nGRAME\n", bytes(6))
        h = y4m.parse_header(stream)
        with pytest.raises(Y4MFormatError):
            y4m.read_frame(stream, h)

    def test_clean_eof_returns_none(self):
        stream = _stream("YUV4MPEG2 W2 H2 F25:1\n")
        h = y4m.parse_header(stream)
        assert y4m.read_frame(stream, h) is None

    def test_marker_params_accepted(self):
        stream = _stream("YUV4MPEG2 W2 H2 F25:1\nFRAME Ip\n", bytes(6))
        h = y4m.parse_header(stream)
        assert y4m.read_frame(stream, h) is not None


def _random_frames(header, n, rng):
    frames = []
    for _ in range(n):
        frames.append(y4m.Frame(
            y=rng.integers(0, header.sample_max + 1,
                           (header.height, header.width)).astype(header.dtype),
            u=rng.integers(0, header.sample_max + 1,
                           (header.chroma_height, header.chroma_width)).astype(header.dtype),
            v=rng.integers(0, header.sample_max + 1,
                           (header.chroma_height, header.chroma_width)).astype(header.dtype),
            bit_depth=header.bit_depth,
        ))
    return frames


class TestWriteClip:
    """Round trips through the test writer; they check the reader."""

    def test_round_trip_three_8x8_frames(self):
        rng = np.random.default_rng(1)
        header = make_header(8, 8)
        frames = _random_frames(header, 3, rng)
        h2, back = read_clip(clip_stream(header, frames))
        assert h2 == header
        assert len(back) == 3
        for a, b in zip(frames, back):
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.u, b.u)
            assert np.array_equal(a.v, b.v)

    def test_empty_clip(self):
        header = make_header(4, 4)
        h2, frames = read_clip(clip_stream(header, []))
        assert h2 == header
        assert frames == []


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 8).map(lambda v: 2 * v),
    height=st.integers(1, 8).map(lambda v: 2 * v),
    bit_depth=st.sampled_from([8, 10]),
    n_frames=st.integers(0, 4),
    seed=st.integers(0, 2 ** 31),
)
def test_round_trip_property(width, height, bit_depth, n_frames, seed):
    rng = np.random.default_rng(seed)
    header = make_header(width, height, bit_depth=bit_depth)
    frames = _random_frames(header, n_frames, rng)
    h2, back = read_clip(clip_stream(header, frames))
    assert h2 == header
    assert len(back) == n_frames
    for a, b in zip(frames, back):
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.v, b.v)
        if bit_depth == 10:
            assert int(b.y.max(initial=0)) <= 1023


def test_probe_clip(tmp_path):
    rng = np.random.default_rng(3)
    header = make_header(8, 6, fps_num=30)
    frames = _random_frames(header, 7, rng)
    path = write_clip(header, frames, tmp_path / "probe.y4m")
    h2, count = y4m.probe_clip(path)
    assert h2 == header
    assert count == 7


HEADER_2X2 = b"YUV4MPEG2 W2 H2 F25:1\n"  # 6-byte frame payloads
LONGEST_MARKER = b"FRAME " + b"X" * (y4m._MAX_LINE - 6)


@pytest.mark.parametrize("body, frames", [
    (b"", 0),
    (b"FRAME\n" + bytes(6), 1),
    (b"FRAME Ixyz\n" + bytes(6) + b"FRAME\n" + bytes(6)
     + b"FRAME XA=1 Ip\n" + bytes(6), 3),
    (LONGEST_MARKER + b"\n" + bytes(6), 1),
])
def test_probe_counts_frame_markers(tmp_path, body, frames):
    path = tmp_path / "p.y4m"
    path.write_bytes(HEADER_2X2 + body)
    assert y4m.probe_clip(path)[1] == frames
    assert len(read_clip(path)[1]) == frames


@pytest.mark.parametrize("body, error, match", [
    (b"FRAME\n" + bytes(6) + b"FRAME\n" + bytes(5), IncompleteFrameError,
     "truncated"),
    (b"FRAME\n" + bytes(6) + b"FRA", Y4MFormatError,
     "ended inside frame marker"),
    (LONGEST_MARKER + b"X\n" + bytes(6), Y4MFormatError, "longer than"),
    (b"FRAME\n" + bytes(6) + b"GRAME\n" + bytes(6), Y4MFormatError,
     "expected FRAME marker"),
])
def test_probe_and_read_reject_bad_frames(tmp_path, body, error, match):
    path = tmp_path / "p.y4m"
    path.write_bytes(HEADER_2X2 + body)
    with pytest.raises(error, match=match):
        y4m.probe_clip(path)
    with pytest.raises(error, match=match):
        read_clip(path)


@pytest.mark.parametrize("data, match", [
    (b"YUV4MPEG2 W2 H2 F25:1", "ended inside header"),
    (b"YUV4MPEG2 W2 H2 F25:1 X" + b"x" * y4m._MAX_LINE + b"\n",
     "longer than"),
])
def test_header_line_errors(data, match):
    with pytest.raises(Y4MFormatError, match=match):
        y4m.parse_header(io.BytesIO(data))


def test_reader_streams_sequentially(tmp_path):
    header = make_header(4, 4)
    frames = _random_frames(header, 3, np.random.default_rng(4))
    path = write_clip(header, frames, tmp_path / "seq.y4m")
    with y4m.Y4MReader(path) as reader:
        got = [reader.read_frame() for _ in range(4)]
    assert [f.y.tolist() for f in got[:3]] == [f.y.tolist() for f in frames]
    assert got[3] is None


FORGED = b"YUV4MPEG2 W2000000 H2000000 F30:1 Ip A1:1 C420jpeg\nFRAME\n"


def test_forged_frame_size_fails_before_reading(tmp_path):
    # a 6 TB payload claimed by a 160-byte file
    path = tmp_path / "forged.y4m"
    path.write_bytes(FORGED + bytes(160 - len(FORGED)))
    with pytest.raises(IncompleteFrameError,
                       match=r"truncated: 103 of 6000000000000 bytes"):
        read_clip(path)


def test_pipe_streams_are_read_without_a_size_check():
    header = make_header(4, 4)
    frames = _random_frames(header, 2, np.random.default_rng(6))
    data = write_clip(header, frames, io.BytesIO())
    read_fd, write_fd = os.pipe()
    os.write(write_fd, data.getvalue())  # far below a pipe's capacity
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as stream:  # st_size is 0 on Linux
        _, got = read_clip(stream)
    assert [f.y.tolist() for f in got] == [f.y.tolist() for f in frames]


def test_forged_frame_size_on_a_pipe_fails_without_allocating_it():
    read_fd, write_fd = os.pipe()
    os.write(write_fd, FORGED + bytes(160 - len(FORGED)))
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as stream:
        with pytest.raises(IncompleteFrameError,
                           match=r"truncated: 103 of 6000000000000 bytes"):
            read_clip(stream)


@pytest.mark.parametrize("chunk", [5, 24])
def test_pipe_payload_read_in_chunks(monkeypatch, chunk):
    # a 4x4 frame's payload is 24 bytes: chunks of 5 split it unevenly,
    # chunks of 24 end exactly at its end
    monkeypatch.setattr(y4m, "_PIPE_CHUNK", chunk)
    header = make_header(4, 4)
    frames = _random_frames(header, 2, np.random.default_rng(7))
    data = write_clip(header, frames, io.BytesIO())
    for cut, error in ((0, None), (7, "truncated: 17 of 24 bytes")):
        read_fd, write_fd = os.pipe()
        os.write(write_fd, data.getvalue()[:len(data.getvalue()) - cut])
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as stream:
            reader = y4m.Y4MReader(stream)
            assert reader.read_frame().y.tolist() == frames[0].y.tolist()
            if error:
                with pytest.raises(IncompleteFrameError, match=error):
                    reader.read_frame()
            else:
                assert reader.read_frame().v.tolist() == frames[1].v.tolist()
                assert reader.read_frame() is None
