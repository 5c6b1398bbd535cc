import numpy as np
import pytest

from rdgauge import kernels


def test_dct_matrix_is_orthonormal():
    d = kernels.dct_matrix(32)
    assert np.allclose(d @ d.T, np.eye(32), atol=1e-12)


def test_backends_agree():
    if not kernels.HAVE_NUMBA:
        pytest.skip("numba not installed")
    rng = np.random.default_rng(11)
    plane = rng.uniform(0, 1023, (96, 128))
    a = kernels.block_energies_numpy(plane)
    b = kernels.block_energies_numba(plane)
    assert a.shape == (3, 4)
    assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def test_env_flag_selects_numpy(monkeypatch):
    monkeypatch.setenv(kernels.ENV_FLAG, "numpy")
    assert kernels.active_backend() == "numpy"


def test_env_flag_rejects_garbage(monkeypatch):
    monkeypatch.setenv(kernels.ENV_FLAG, "cuda")
    with pytest.raises(RuntimeError):
        kernels.active_backend()


def test_default_backend(monkeypatch):
    monkeypatch.delenv(kernels.ENV_FLAG, raising=False)
    expected = "numba" if kernels.HAVE_NUMBA else "numpy"
    assert kernels.active_backend() == expected


def test_dispatch_runs_both_paths(monkeypatch):
    plane = np.random.default_rng(12).uniform(0, 255, (32, 64))
    monkeypatch.setenv(kernels.ENV_FLAG, "numpy")
    via_numpy = kernels.block_energies(plane)
    if kernels.HAVE_NUMBA:
        monkeypatch.setenv(kernels.ENV_FLAG, "numba")
        via_numba = kernels.block_energies(plane)
        assert np.allclose(via_numpy, via_numba, rtol=1e-9, atol=1e-9)


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
    got = kernels.block_energies_numpy(plane)
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert flat.sum() == 2 and not flat[1, -1] and not flat[2, -1]
    assert np.all(got[flat] == 0.0)
    np.testing.assert_allclose(got[~flat], ref[~flat], rtol=1e-12, atol=0)
