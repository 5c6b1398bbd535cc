import numpy as np
import pytest

from rdgauge import kernels


def test_dct_matrix_is_orthonormal():
    d = kernels.dct_matrix(32)
    assert np.allclose(d @ d.T, np.eye(32), atol=1e-12)


def test_backend_name():
    assert kernels.active_backend() == "numpy"


def _scipy_block_energies(plane):
    """Reference energies from scipy's orthonormal 2-D DCT-II."""
    dctn = pytest.importorskip("scipy.fft").dctn
    h, w = plane.shape
    blocks = plane.astype(np.float64).reshape(
        h // 32, 32, w // 32, 32).swapaxes(1, 2)
    mags = np.abs(dctn(blocks, type=2, norm="ortho", axes=(2, 3)))
    energy = mags.sum(axis=(2, 3)) - mags[:, :, 0, 0]
    flat = blocks.min(axis=(2, 3)) == blocks.max(axis=(2, 3))
    return energy, flat


STRIP = kernels.STRIP_ROWS * 32


@pytest.mark.parametrize("dtype, top", [
    (np.uint8, 255), (np.uint16, 1023), (np.float64, 1023.0)])
@pytest.mark.parametrize("shape", [
    (STRIP, 96), (STRIP + 32, 64), (STRIP + 32, 32)],
    ids=["one-strip", "strip-plus-row", "one-block-wide"])
def test_numpy_kernel_matches_scipy_dct(dtype, top, shape):
    rng = np.random.default_rng(17)
    plane = rng.integers(0, top + 1, shape).astype(dtype)
    if plane.dtype.kind == "f":
        plane += rng.uniform(-0.5, 0.5, shape)
    plane[:32, :32] = top  # flat at the maximum sample value
    plane[-32:, -32:] = 16  # flat in the last block row
    plane[32:64, -32:] = 7
    plane[32, -32] = 8  # only the top-left pixel differs: not flat
    plane[64:96, -32:] = 5
    plane[95, -1] = 6  # only the bottom-right pixel differs: not flat
    ref, flat = _scipy_block_energies(plane)
    got = kernels.block_energies(plane)
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert flat.sum() == 2 and not flat[1, -1] and not flat[2, -1]
    assert np.all(got[flat] == 0.0)
    np.testing.assert_allclose(got[~flat], ref[~flat], rtol=1e-12, atol=0)
