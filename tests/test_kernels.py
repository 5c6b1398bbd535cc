import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _reference_block_energies(plane):
    """``block_energies`` with the flat test run on every block.

    The same strips as the kernel, but each of the two products in one
    GEMM over the whole strip, then an exact comparison of every sample
    with its block's first one.
    """
    dct, dct_t, ones = kernels._basis()
    height, width = plane.shape
    nby, nbx = height // 32, width // 32
    out = np.empty((nby, nbx))
    for r0 in range(0, nby, kernels.STRIP_ROWS):
        rows = min(kernels.STRIP_ROWS, nby - r0)
        strip = plane[r0 * 32:(r0 + rows) * 32]
        x = np.empty((32, rows, width))
        np.copyto(x, strip.reshape(rows, 32, width).transpose(1, 0, 2))
        y = np.empty((32, rows * width))
        np.matmul(dct, x.reshape(32, rows * width), out=y)
        coeffs = x.reshape(-1, 32)
        np.matmul(y.reshape(-1, 32), dct_t, out=coeffs)
        np.abs(coeffs, out=coeffs)
        total = (coeffs @ ones).reshape(32, rows * nbx).sum(axis=0)
        dc = coeffs.reshape(32, rows * nbx, 32)[0, :, 0]
        energy = (total - dc).reshape(rows, nbx)
        blocks = strip.reshape(rows, 32, nbx, 32)
        energy[(blocks == blocks[:, :1, :, :1]).all(axis=(1, 3))] = 0.0
        out[r0:r0 + rows] = energy
    return out


# A constant block at this value has a finite |DC| term but a sum of all
# |coefficients| that overflows to inf.
_OVERFLOW_EDGE = np.finfo(np.float64).max / 32 * (1 - 1e-15)
_PLANTS = {
    "u1": ("zero", "max", "const", "near", "near_max"),
    "u2": ("zero", "max", "const", "near", "near_max"),
    "f8": ("zero", "const", "near", "big", "-big", "edge", "tiny", "nan",
           "nan1", "inf", "-inf", "mixed_inf"),
}


def _plant(block, kind, rng, dtype):
    top = np.iinfo(dtype).max if dtype.kind == "u" else 1023.0
    value = {"zero": 0, "max": top, "near_max": top, "big": 1e14,
             "-big": -1e14, "edge": _OVERFLOW_EDGE, "tiny": 1e-315,
             "inf": np.inf, "-inf": -np.inf, "nan": np.nan,
             }.get(kind, rng.integers(0, int(top) + 1))
    block[...] = value
    i, j = rng.integers(0, 32, 2)
    if kind.startswith("near"):  # one sample off by 1, or 1 ulp for floats
        if dtype.kind == "f":
            block[i, j] = np.nextafter(block[i, j], np.inf)
        else:
            block[i, j] = value - 1 if value else 1
    elif kind == "nan1":
        block[i, j] = np.nan
    elif kind == "mixed_inf":
        block[i, j] = -np.inf


def _planted_plane(dtype, kinds, nbx, seed):
    """A random plane whose blocks, in row-major order, get ``kinds``
    (``None`` keeps a block random)."""
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    shape = (32 * -(-len(kinds) // nbx), 32 * nbx)
    if dtype.kind == "u":
        plane = rng.integers(0, np.iinfo(dtype).max + 1, shape).astype(dtype)
    else:
        plane = rng.uniform(-1e3, 1e3, shape)
    for n, kind in enumerate(kinds):
        by, bx = divmod(n, nbx)
        if kind is not None:
            _plant(plane[32 * by:32 * (by + 1), 32 * bx:32 * (bx + 1)],
                   kind, rng, dtype)
    return plane


def _assert_matches_full_test(plane):
    with np.errstate(all="ignore"):
        want = _reference_block_energies(plane)
        got = kernels.block_energies(plane)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("dtype", sorted(_PLANTS))
def test_every_planted_block_matches_full_test(dtype):
    # one block of each kind, then a random one, over more than a strip
    kinds = [k for kind in _PLANTS[dtype] for k in (kind, None)]
    _assert_matches_full_test(_planted_plane(dtype, kinds, 3, seed=23))


@settings(max_examples=60, deadline=None)
@given(dtype=st.sampled_from(sorted(_PLANTS)), nbx=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_candidate_flat_test_matches_full_test(dtype, nbx, seed, data):
    kinds = data.draw(st.lists(
        st.sampled_from((None,) + _PLANTS[dtype]),
        min_size=1, max_size=nbx * (kernels.STRIP_ROWS + 2)))
    _assert_matches_full_test(_planted_plane(dtype, kinds, nbx, seed))


# Widths whose strips leave a partial last CHUNK (96: 384 columns in a
# 4-row strip, 96 in a 1-row strip; 1952: 7808 columns), leave none
# (3840, a multiple of CHUNK) or hold only a partial chunk (32).
@pytest.mark.parametrize("width", [32, 96, 1952, 3840])
@pytest.mark.parametrize("block_rows", [1, kernels.STRIP_ROWS + 1],
                         ids=["one-block-row", "strip-plus-one-row"])
@pytest.mark.parametrize("dtype", sorted(_PLANTS))
def test_chunked_gemms_equal_one_gemm_per_product(dtype, width, block_rows):
    nbx = width // 32
    # every planted kind, then a random block, repeated over the plane
    cycle = [k for kind in _PLANTS[dtype] for k in (kind, None)]
    kinds = [cycle[n % len(cycle)] for n in range(nbx * block_rows)]
    _assert_matches_full_test(_planted_plane(dtype, kinds, nbx, seed=width))


# A padded 1080p plane, a 3840-wide one, and one whose 4-row strips
# leave a partial last CHUNK (1952: 7808 columns).
@pytest.mark.parametrize("shape", [(1088, 1920), (2 * STRIP + 32, 3840),
                                   (STRIP + 32, 1952)],
                         ids=["1080p", "3840-wide", "partial-chunk"])
def test_every_gemm_stays_within_one_blas_thread(monkeypatch, shape):
    """Each matrix product is at most 32x256x32 = 262,144 multiply-adds,
    which OpenBLAS runs on the calling thread; the one-BLAS-thread
    default that ``cli.main`` sets rests on this bound."""
    matmul = np.matmul
    sizes = []

    def spy(a, b, *args, **kwargs):
        assert a.ndim >= 2 and b.ndim >= 2
        (m, k), n = a.shape[-2:], b.shape[-1]
        assert b.shape[-2] == k
        sizes.append(m * n * k)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    plane = np.random.default_rng(5).integers(0, 256, shape, dtype=np.uint8)
    kernels.block_energies(plane)
    assert sizes and max(sizes) <= 32 * 256 * 32
