import numpy as np
import pytest

from conftest import (clip_stream, luma_frame, make_header, synthetic_clip,
                      write_clip)
from rdgauge import complexity, kernels, y4m
from rdgauge.errors import IncompleteFrameError

DCT = kernels.dct_matrix(32)


def _analyze(lumas, bit_depth=8):
    """``analyze_clip`` over an in-memory clip of the given luma planes."""
    h, w = np.shape(lumas[0])
    frames = [luma_frame(luma, bit_depth) for luma in lumas]
    stream = clip_stream(make_header(w, h, bit_depth=bit_depth), frames)
    return complexity.analyze_clip(y4m.Y4MReader(stream), "clip")


def _se(luma, bit_depth=8):
    """SE of one frame: the frame_se of its one-frame clip."""
    return _analyze([luma], bit_depth).frame_se[0]


def _te(a, b, bit_depth=8):
    """TE of frames a and b: the frame_te of the clip [b, a]."""
    return _analyze([b, a], bit_depth).frame_te[0]


class TestBlockTextureEnergy:
    def test_constant_block_is_zero(self):
        assert kernels.block_energies(np.full((32, 32), 57.0))[0, 0] == 0.0

    def test_unit_ac_coefficient_energy(self):
        # Synthesise the block whose forward transform is exactly one
        # unit coefficient at (0, 1); its energy is then 1.
        coeffs = np.zeros((32, 32))
        coeffs[0, 1] = 1.0
        block = DCT.T @ coeffs @ DCT
        got = kernels.block_energies(block)[0, 0]
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_bit_depth_normalisation(self):
        # an 8-bit clip and the 10-bit clip of its samples times 4 have
        # the same energies, to the bit
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, w = 2 * rng.integers(8, 40, size=2)
            lumas = [rng.integers(0, 256, (h, w))
                     for _ in range(rng.integers(1, 4))]
            rec8 = _analyze(lumas)
            rec10 = _analyze([4 * luma for luma in lumas], bit_depth=10)
            assert rec10.frame_se == rec8.frame_se
            assert rec10.frame_te == rec8.frame_te

    def test_offset_invariance(self):
        rng = np.random.default_rng(5)
        block = rng.uniform(0, 200, (32, 32))
        base = kernels.block_energies(block)[0, 0]
        shifted = kernels.block_energies(block + 31.0)[0, 0]
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestFrameSpatialEnergy:
    def test_constant_gray_frame_is_zero(self):
        assert _se(np.full((64, 64), 128)) == 0.0

    def test_two_block_frame_is_mean(self):
        rng = np.random.default_rng(6)
        left = rng.integers(0, 256, (32, 32))
        right = rng.integers(0, 256, (32, 32))
        a = kernels.block_energies(left.astype(float))[0, 0] / 1024.0
        b = kernels.block_energies(right.astype(float))[0, 0] / 1024.0
        assert _se(np.hstack([left, right])) == pytest.approx(
            (a + b) / 2.0, rel=1e-9)

    def test_checkerboard_beats_low_frequency_ramp(self):
        idx = np.indices((64, 64)).sum(axis=0)
        checker = np.where(idx % 2 == 0, 200, 55)
        ramp = np.tile(np.linspace(55, 200, 64, dtype=np.int64), (64, 1))
        assert _se(checker) > _se(ramp)

    def test_edge_blocks_replication_padded(self):
        # 48x48 frame: padding replicates edges, constant rows stay constant
        assert _se(np.full((48, 48), 99)) == 0.0

    def test_contrast_monotonicity_on_ramps(self):
        base = np.tile(np.linspace(-1.0, 1.0, 64), (64, 1))
        last = -1.0
        for amp in (10, 40, 80, 120):
            se = _se((128 + amp * base).astype(np.int64))
            assert se >= last
            last = se


class TestTemporalEnergy:
    def test_identical_frames_zero(self):
        luma = np.random.default_rng(7).integers(0, 256, (64, 64))
        assert _te(luma, luma) == 0.0

    def test_constant_offset_leaves_only_mad_term(self):
        rng = np.random.default_rng(8)
        luma = rng.integers(0, 200, (64, 64))
        assert _te(luma, luma + 10) == pytest.approx(10.0, abs=1e-9)

    def test_constant_offset_10bit_scaling(self):
        rng = np.random.default_rng(9)
        luma = rng.integers(0, 900, (64, 64))
        assert _te(luma, luma + 10, bit_depth=10) == pytest.approx(
            10.0 / 4.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 256, (64, 64))
        b = rng.integers(0, 256, (64, 64))
        assert _te(a, b) == _te(b, a)

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
        assert _te(a, b) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("dtype, shape", [
        (np.uint8, (64, 96)), (np.uint16, (64, 96)),
        (np.uint16, (2, 70_000))],  # a uint32 row sum would overflow
        ids=["u8", "u16", "u16-wide"])
    def test_mad_is_exact_at_the_sample_maximum(self, dtype, shape):
        top = np.iinfo(dtype).max
        rng = np.random.default_rng(19)
        a = np.full(shape, top, dtype)
        b = np.zeros(shape, dtype)
        c = rng.integers(0, top + 1, shape).astype(dtype)
        grid = np.zeros((1, 1))
        for x, y in ((a, b), (b, a), (a, c), (c, b), (a, a)):
            want = float(np.abs(x.astype(np.int64) - y).sum()) / x.size
            assert complexity._change_energy((x, grid), (y, grid)) == want


class TestAnalyzeClip:
    def test_static_clip(self):
        rng = np.random.default_rng(13)
        luma = rng.integers(0, 256, (64, 64))
        rec = _analyze([luma] * 10)
        assert rec.clip_se == pytest.approx(_se(luma), rel=1e-12)
        assert rec.clip_te == 0.0
        assert len(rec.frame_te) == 9
        assert all(t == 0.0 for t in rec.frame_te)

    def test_single_frame_clip(self):
        rec = _analyze([np.arange(1024).reshape(32, 32) % 256])
        assert rec.frame_te == ()
        assert rec.clip_te == 0.0

    def test_alternating_frames(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 256, (64, 64))
        b = rng.integers(0, 256, (64, 64))
        rec = _analyze([a, b, a, b, a])
        expected = _te(a, b)
        assert rec.clip_te == pytest.approx(expected, rel=1e-12)
        for te in rec.frame_te:
            assert te == pytest.approx(expected, rel=1e-12)

    def test_se_invariant_under_luma_offset(self):
        rng = np.random.default_rng(15)
        luma = rng.integers(0, 200, (64, 64))
        rec_a = _analyze([luma] * 3)
        rec_b = _analyze([luma + 20] * 3)
        assert rec_a.clip_se == pytest.approx(rec_b.clip_se, abs=1e-9)

    def test_energies_non_negative(self):
        rng = np.random.default_rng(16)
        rec = _analyze([rng.integers(0, 256, (32, 32)) for _ in range(4)])
        assert all(se >= 0 for se in rec.frame_se)
        assert all(te >= 0 for te in rec.frame_te)
        assert rec.clip_se <= max(rec.frame_se)

    def test_scatter_rows(self):
        rec = complexity.ComplexityRecord("c1", (1.0, 3.0), (0.5,))
        rows = complexity.scatter_csv([rec, rec]).split("\n")
        assert rows[0] == "clip_id,clip_se,clip_te"
        assert rows[1].startswith("c1,2,0.5")
        assert rows[2] == rows[1] and rows[3] == "" and len(rows) == 4


class TestAnalyzeClips:
    def _pool_sizes(self, monkeypatch, cpus):
        sizes = []

        class Recording(complexity.ThreadPoolExecutor):
            def __init__(self, max_workers, **kw):
                sizes.append(max_workers)
                super().__init__(max_workers, **kw)

        monkeypatch.setattr(complexity, "available_cpus", lambda: cpus)
        monkeypatch.setattr(complexity, "ThreadPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("cpus, clips, workers", [
        (3, 2, 2), (3, 5, 3), (1, 4, 1), (4, 0, 1)])
    def test_one_worker_per_clip_up_to_the_cpus(self, tmp_path, monkeypatch,
                                                cpus, clips, workers):
        sizes = self._pool_sizes(monkeypatch, cpus)
        header = make_header(32, 32)
        paths = [write_clip(header, synthetic_clip(header, 2, seed=n),
                            tmp_path / f"c{n}.y4m") for n in range(clips)]
        got = list(complexity.analyze_clips(paths))
        assert sizes == [workers]
        assert got == [(path, complexity.analyze_clip(path)) for path in paths]

    def test_failed_clips_yield_their_errors_in_order(self, tmp_path,
                                                      monkeypatch):
        self._pool_sizes(monkeypatch, 2)
        header = make_header(32, 32)
        good = write_clip(header, synthetic_clip(header, 2),
                          tmp_path / "good.y4m")
        cut = tmp_path / "cut.y4m"
        cut.write_bytes(good.read_bytes()[:-10])
        missing = tmp_path / "missing.y4m"
        got = list(complexity.analyze_clips([missing, good, cut, good]))
        assert [path for path, _ in got] == [missing, good, cut, good]
        assert isinstance(got[0][1], FileNotFoundError)
        assert isinstance(got[2][1], IncompleteFrameError)
        assert got[1][1] == got[3][1] == complexity.analyze_clip(good)
