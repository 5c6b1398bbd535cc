import io

import numpy as np
import pytest

from rdgauge import complexity, kernels, y4m
from rdgauge.errors import Y4MValidationError

DCT = kernels.dct_matrix(32)


def _frame_from_luma(luma, bit_depth=8):
    luma = np.asarray(luma)
    h, w = luma.shape
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    zeros = np.zeros((h // 2, w // 2), dtype)
    return y4m.Frame(y=luma.astype(dtype), u=zeros, v=zeros, bit_depth=bit_depth)


class TestBlockTextureEnergy:
    def test_constant_block_is_zero(self):
        assert complexity.block_texture_energy(np.full((32, 32), 57.0)) == 0.0

    def test_unit_ac_coefficient_energy(self):
        # Synthesise the block whose forward transform is exactly one
        # unit coefficient at (0, 1); energy is then 1/1024.
        coeffs = np.zeros((32, 32))
        coeffs[0, 1] = 1.0
        block = DCT.T @ coeffs @ DCT
        got = complexity.block_texture_energy(block, bit_depth=8)
        assert got == pytest.approx(1.0 / 1024.0, abs=1e-9)

    def test_bit_depth_normalisation(self):
        coeffs = np.zeros((32, 32))
        coeffs[2, 3] = 4.0
        block = DCT.T @ coeffs @ DCT + 512.0
        got8 = complexity.block_texture_energy(block, bit_depth=8)
        got10 = complexity.block_texture_energy(block, bit_depth=10)
        assert got10 == pytest.approx(got8 / 4.0, rel=1e-12)

    def test_offset_invariance(self):
        rng = np.random.default_rng(5)
        block = rng.uniform(0, 200, (32, 32))
        base = complexity.block_texture_energy(block)
        shifted = complexity.block_texture_energy(block + 31.0)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_wrong_shape_rejected(self):
        with pytest.raises(Y4MValidationError):
            complexity.block_texture_energy(np.zeros((16, 16)))


class TestFrameSpatialEnergy:
    def test_constant_gray_frame_is_zero(self):
        frame = _frame_from_luma(np.full((64, 64), 128))
        assert complexity.frame_spatial_energy(frame) == 0.0

    def test_two_block_frame_is_mean(self):
        rng = np.random.default_rng(6)
        left = rng.integers(0, 256, (32, 32))
        right = rng.integers(0, 256, (32, 32))
        frame = _frame_from_luma(np.hstack([left, right]))
        a = complexity.block_texture_energy(left.astype(float))
        b = complexity.block_texture_energy(right.astype(float))
        assert complexity.frame_spatial_energy(frame) == pytest.approx(
            (a + b) / 2.0, rel=1e-9)

    def test_checkerboard_beats_low_frequency_ramp(self):
        idx = np.indices((64, 64)).sum(axis=0)
        checker = np.where(idx % 2 == 0, 200, 55)
        ramp = np.tile(np.linspace(55, 200, 64, dtype=np.int64), (64, 1))
        se_checker = complexity.frame_spatial_energy(_frame_from_luma(checker))
        se_ramp = complexity.frame_spatial_energy(_frame_from_luma(ramp))
        assert se_checker > se_ramp

    def test_edge_blocks_replication_padded(self):
        # 48x48 frame: padding replicates edges, constant rows stay constant
        frame = _frame_from_luma(np.full((48, 48), 99))
        assert complexity.frame_spatial_energy(frame) == 0.0

    def test_contrast_monotonicity_on_ramps(self):
        base = np.tile(np.linspace(-1.0, 1.0, 64), (64, 1))
        last = -1.0
        for amp in (10, 40, 80, 120):
            luma = (128 + amp * base).astype(np.int64)
            se = complexity.frame_spatial_energy(_frame_from_luma(luma))
            assert se >= last
            last = se


class TestTemporalEnergy:
    def test_identical_frames_zero(self):
        frame = _frame_from_luma(np.random.default_rng(7).integers(0, 256, (64, 64)))
        assert complexity.temporal_energy(frame, frame) == 0.0

    def test_constant_offset_leaves_only_mad_term(self):
        rng = np.random.default_rng(8)
        luma = rng.integers(0, 200, (64, 64))
        a = _frame_from_luma(luma)
        b = _frame_from_luma(luma + 10)
        assert complexity.temporal_energy(a, b) == pytest.approx(10.0, abs=1e-9)

    def test_constant_offset_10bit_scaling(self):
        rng = np.random.default_rng(9)
        luma = rng.integers(0, 900, (64, 64))
        a = _frame_from_luma(luma, bit_depth=10)
        b = _frame_from_luma(luma + 10, bit_depth=10)
        assert complexity.temporal_energy(a, b) == pytest.approx(10.0 / 4.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        a = _frame_from_luma(rng.integers(0, 256, (64, 64)))
        b = _frame_from_luma(rng.integers(0, 256, (64, 64)))
        assert complexity.temporal_energy(a, b) == pytest.approx(
            complexity.temporal_energy(b, a), rel=1e-12)

    def test_padding_rows_count_in_mad(self):
        # 40 rows pad to 64: the last real row is replicated 24 times.
        # Both frames step by 10 at row 39 (up in one, down in the other),
        # so block energies match and TE is the MAD alone.
        rng = np.random.default_rng(18)
        top = rng.integers(0, 256, (32, 32))
        a = np.vstack([top, np.full((8, 32), 100)])
        b = a.copy()
        a[39] = 110
        b[39] = 90
        expected = 20 * 32 * (1 + 24) / (64 * 32)  # 25 of 64 rows differ
        fa, fb = _frame_from_luma(a), _frame_from_luma(b)
        assert complexity.temporal_energy(fa, fb) == pytest.approx(
            expected, abs=1e-9)
        rec = complexity.analyze_clip(
            y4m.Y4MReader(_clip_stream([fa, fb], y4m.make_header(32, 40))), "pad")
        assert rec.frame_te[0] == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        a = _frame_from_luma(np.zeros((32, 32)))
        b = _frame_from_luma(np.zeros((64, 64)))
        with pytest.raises(Y4MValidationError):
            complexity.temporal_energy(a, b)


def _clip_stream(frames, header):
    sink = io.BytesIO()
    y4m.write_clip(header, frames, sink)
    sink.seek(0)
    return sink


class TestAnalyzeClip:
    def test_static_clip(self):
        rng = np.random.default_rng(13)
        header = y4m.make_header(64, 64)
        luma = rng.integers(0, 256, (64, 64))
        frames = [_frame_from_luma(luma)] * 10
        rec = complexity.analyze_clip(
            y4m.Y4MReader(_clip_stream(frames, header)), clip_id="static")
        assert rec.clip_se == pytest.approx(
            complexity.frame_spatial_energy(frames[0]), rel=1e-12)
        assert rec.clip_te == 0.0
        assert len(rec.frame_te) == 9
        assert all(t == 0.0 for t in rec.frame_te)

    def test_single_frame_clip(self):
        header = y4m.make_header(32, 32)
        frames = [_frame_from_luma(np.arange(1024).reshape(32, 32) % 256)]
        rec = complexity.analyze_clip(
            y4m.Y4MReader(_clip_stream(frames, header)), clip_id="one")
        assert rec.frame_te == ()
        assert rec.clip_te == 0.0

    def test_alternating_frames(self):
        rng = np.random.default_rng(14)
        header = y4m.make_header(64, 64)
        a = _frame_from_luma(rng.integers(0, 256, (64, 64)))
        b = _frame_from_luma(rng.integers(0, 256, (64, 64)))
        frames = [a, b, a, b, a]
        rec = complexity.analyze_clip(
            y4m.Y4MReader(_clip_stream(frames, header)), clip_id="alt")
        expected = complexity.temporal_energy(a, b)
        assert rec.clip_te == pytest.approx(expected, rel=1e-12)
        for te in rec.frame_te:
            assert te == pytest.approx(expected, rel=1e-12)

    def test_se_invariant_under_luma_offset(self):
        rng = np.random.default_rng(15)
        header = y4m.make_header(64, 64)
        luma = rng.integers(0, 200, (64, 64))
        rec_a = complexity.analyze_clip(
            y4m.Y4MReader(_clip_stream([_frame_from_luma(luma)] * 3, header)), "a")
        rec_b = complexity.analyze_clip(
            y4m.Y4MReader(_clip_stream([_frame_from_luma(luma + 20)] * 3, header)), "b")
        assert rec_a.clip_se == pytest.approx(rec_b.clip_se, abs=1e-9)

    def test_energies_non_negative(self):
        rng = np.random.default_rng(16)
        header = y4m.make_header(32, 32)
        frames = [_frame_from_luma(rng.integers(0, 256, (32, 32))) for _ in range(4)]
        rec = complexity.analyze_clip(
            y4m.Y4MReader(_clip_stream(frames, header)), "nn")
        assert all(se >= 0 for se in rec.frame_se)
        assert all(te >= 0 for te in rec.frame_te)
        assert rec.clip_se <= max(rec.frame_se)

    def test_scatter_rows(self):
        rec = complexity.ComplexityRecord("c1", (1.0, 3.0), (0.5,))
        rows = complexity.scatter_csv_rows([rec])
        assert rows[0] == "clip_id,clip_se,clip_te"
        assert rows[1].startswith("c1,2,0.5")
