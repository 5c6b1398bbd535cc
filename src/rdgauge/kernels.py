"""Block texture-energy kernels.

The hot loop of complexity analysis is a 32x32 orthonormal DCT over
every luma block of a frame (a 4K frame has 8100 blocks). Two
interchangeable backends compute the per-block AC magnitude sums:

* ``numba`` -- an @njit kernel, used by default when numba imports;
* ``numpy`` -- a separable transform done as two plain 2-D GEMMs per
  strip of block rows, always available.

Set ``RDGAUGE_KERNEL=numpy`` (or ``numba``) to force a backend;
``python3 perfbench/run.py --workload complexity --trace 1`` times the
active one.
"""

from __future__ import annotations

import os

import numpy as np

BLOCK = 32
# Block rows per strip: two float64 buffers of 32 * STRIP_ROWS * width
# each (2 MB at 1080p) stay cache-sized while the GEMMs stay large.
STRIP_ROWS = 4
ENV_FLAG = "RDGAUGE_KERNEL"


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix (D @ D.T == I)."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return np.ascontiguousarray(mat)


_DCT = dct_matrix(BLOCK)
_DCT_T = np.ascontiguousarray(_DCT.T)
_ONES = np.ones(BLOCK)


def block_energies_numpy(plane: np.ndarray) -> np.ndarray:
    """Per-block sum of |AC coefficients| of a plane.

    ``plane`` may be an integer or float array; its dimensions must be
    multiples of BLOCK. Returns a (rows, cols) float64 grid of raw
    (unnormalised) energies. Constant blocks are exactly zero (no
    round-off residue from the transform).

    The plane is taken STRIP_ROWS block rows at a time. Each strip is
    cast to float64 as a (BLOCK, rows * width) matrix whose row index is
    the pixel row inside a block, so ``D @ x`` transforms every block
    column at once and ``y.reshape(-1, BLOCK) @ D.T`` then transforms
    every block row: two plain GEMMs and no copy between them.
    """
    height, width = plane.shape
    nby, nbx = height // BLOCK, width // BLOCK
    out = np.empty((nby, nbx))
    size = BLOCK * min(STRIP_ROWS, nby) * width
    x_buf = np.empty(size)
    y_buf = np.empty(size)
    for r0 in range(0, nby, STRIP_ROWS):
        rows = min(STRIP_ROWS, nby - r0)
        strip = plane[r0 * BLOCK:(r0 + rows) * BLOCK]
        n = BLOCK * rows * width
        x = x_buf[:n].reshape(BLOCK, rows, width)
        np.copyto(x, strip.reshape(rows, BLOCK, width).transpose(1, 0, 2))
        y = y_buf[:n].reshape(BLOCK, rows * width)
        np.matmul(_DCT, x.reshape(BLOCK, rows * width), out=y)
        # coeffs[(k, block row, block col), l] is coefficient (k, l)
        coeffs = x_buf[:n].reshape(-1, BLOCK)
        np.matmul(y.reshape(-1, BLOCK), _DCT_T, out=coeffs)
        np.abs(coeffs, out=coeffs)
        total = (coeffs @ _ONES).reshape(BLOCK, rows * nbx).sum(axis=0)
        dc = coeffs.reshape(BLOCK, rows * nbx, BLOCK)[0, :, 0]
        energy = (total - dc).reshape(rows, nbx)
        blocks = strip.reshape(rows, BLOCK, nbx, BLOCK)
        energy[(blocks == blocks[:, :1, :, :1]).all(axis=(1, 3))] = 0.0
        out[r0:r0 + rows] = energy
    return out


try:
    import numba

    @numba.njit(cache=True)
    def _block_energies_njit(plane, dct, dct_t):  # pragma: no cover - jitted
        nby = plane.shape[0] // 32
        nbx = plane.shape[1] // 32
        out = np.empty((nby, nbx))
        for by in range(nby):
            for bx in range(nbx):
                block = plane[by * 32:(by + 1) * 32, bx * 32:(bx + 1) * 32].copy()
                if block.min() == block.max():  # flat: exactly zero texture
                    out[by, bx] = 0.0
                    continue
                coeffs = np.dot(np.dot(dct, block), dct_t)
                total = 0.0
                for i in range(32):
                    for j in range(32):
                        total += abs(coeffs[i, j])
                out[by, bx] = total - abs(coeffs[0, 0])
        return out

    def block_energies_numba(plane: np.ndarray) -> np.ndarray:
        plane = np.ascontiguousarray(plane, dtype=np.float64)
        return _block_energies_njit(plane, _DCT, _DCT_T)

    HAVE_NUMBA = True
except ImportError:  # pure-numpy environments
    block_energies_numba = None
    HAVE_NUMBA = False


def active_backend() -> str:
    """Backend name after applying the RDGAUGE_KERNEL override."""
    choice = os.environ.get(ENV_FLAG, "").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("RDGAUGE_KERNEL=numba but numba is not installed")
        return "numba"
    if choice:
        raise RuntimeError(f"unknown {ENV_FLAG} value {choice!r}")
    return "numba" if HAVE_NUMBA else "numpy"


def block_energies(plane: np.ndarray) -> np.ndarray:
    """Dispatch to the active backend. See block_energies_numpy."""
    if active_backend() == "numba":
        return block_energies_numba(plane)
    return block_energies_numpy(plane)
