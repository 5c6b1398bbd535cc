"""Block texture-energy kernel.

The hot loop of complexity analysis is a 32x32 orthonormal DCT over
every luma block of a frame (a 4K frame has 8100 blocks).
``block_energies`` computes the per-block AC magnitude sums in numpy as
a separable transform: two matrix products per strip of block rows,
each issued as batched ``np.matmul`` calls of GEMMs of at most CHUNK
columns or rows.
A flat (constant) block must read exactly zero, but the transform leaves
round-off in its AC terms, so flat blocks are found by comparing
samples. That exact comparison runs only on the few candidate blocks
whose computed energy is small enough for them to be flat, not on every
sample of the frame.
``python3 perfbench/run.py --workload complexity --trace 1`` times it.
"""

from __future__ import annotations

import numpy as np

BLOCK = 32
# Block rows per strip: two float64 buffers of 32 * STRIP_ROWS * width
# each (2 MB at 1080p) stay cache-sized.
STRIP_ROWS = 4
# Columns or rows per GEMM. OpenBLAS runs a GEMM with m*n*k at most
# SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65,536 * 4 = 262,144
# on the calling thread, and 32 * 256 * 32 is exactly that, so clips
# analysed on several threads run their transforms in parallel instead
# of queueing on BLAS's shared thread server.
CHUNK = 256
# A block is a flat candidate unless its computed AC sum exceeds
# FLAT_SLACK + FLAT_SLACK_REL * (its sum of all |coefficients|); see
# block_energies for why no flat block can exceed it.
FLAT_SLACK = 0.5
FLAT_SLACK_REL = 1e-9


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


def _column_chunks(m: np.ndarray) -> np.ndarray:
    """A (BLOCK, k * CHUNK) view as a stack of k (BLOCK, CHUNK) views."""
    return m.reshape(BLOCK, -1, CHUNK).transpose(1, 0, 2)


def block_energies(plane: np.ndarray) -> np.ndarray:
    """Per-block sum of |AC coefficients| of a plane.

    ``plane`` may be an integer or float array; its dimensions must be
    multiples of BLOCK. Returns a (rows, cols) float64 grid of raw
    (unnormalised) energies. Constant blocks are exactly zero (no
    round-off residue from the transform).

    Only candidate blocks get the exact flat test (every sample equal to
    the block's first one): those whose energy is not above
    ``FLAT_SLACK + FLAT_SLACK_REL * total``, where ``total`` is the
    block's sum of |coefficients|, |DC| included, so NaN energies are
    candidates too. No flat block can lie above the bound. A constant
    block of value v has |DC| = 32 |v| and AC terms that are round-off
    alone: two 32-term sums over the orthonormal basis leave at most
    2048 * 2**-53 * |v| in each, so the 1023 of them sum to under
    2.4e-10 |v|, over 100 times below 1e-9 * 32 |v| (measured: about
    2e-14 |DC|, e.g. 66.5 at v = 1e14). FLAT_SLACK absorbs the absolute
    error of subnormal samples. A block whose total overflows gets an
    inf bound, and a constant inf or NaN block a NaN energy, so both are
    candidates. For samples up to 65535, |DC| adds under 0.003 to the
    bound, while a non-constant block of integer samples has an AC sum
    of at least its L2 norm, sqrt(1 - 1/1024) > 0.99: there the
    candidates are exactly the flat blocks.

    The plane is taken STRIP_ROWS block rows at a time. Each strip is
    cast to float64 as a (BLOCK, rows * width) matrix whose row index is
    the pixel row inside a block, so ``D @ x`` transforms every block
    column at once and ``y.reshape(-1, BLOCK) @ D.T`` then transforms
    every block row, with no copy between them. Each product runs as
    GEMMs of at most 32x256x32 (CHUNK columns of ``x``, then CHUNK rows
    of ``y``), small enough that BLAS runs them on the calling thread.
    Every coefficient is still one 32-term dot product in the same
    order, so the output is bit-identical to one GEMM per product.
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
        cols = rows * width
        xm, y = x.reshape(BLOCK, cols), y_buf[:n].reshape(BLOCK, cols)
        full = cols - cols % CHUNK
        if full:  # all full (BLOCK, CHUNK) column chunks in one call
            np.matmul(_DCT, _column_chunks(xm[:, :full]),
                      out=_column_chunks(y[:, :full]))
        if full < cols:
            np.matmul(_DCT, xm[:, full:], out=y[:, full:])
        # coeffs[(k, block row, block col), l] is coefficient (k, l);
        # y and coeffs as (cols, BLOCK) matrices split at the same row
        yr, coeffs = y.reshape(-1, BLOCK), x_buf[:n].reshape(-1, BLOCK)
        if full:  # all full (CHUNK, BLOCK) row chunks in one call
            np.matmul(yr[:full].reshape(-1, CHUNK, BLOCK), _DCT_T,
                      out=coeffs[:full].reshape(-1, CHUNK, BLOCK))
        if full < cols:
            np.matmul(yr[full:], _DCT_T, out=coeffs[full:])
        np.abs(coeffs, out=coeffs)
        total = (coeffs @ _ONES).reshape(BLOCK, rows * nbx).sum(axis=0)
        dc = coeffs.reshape(BLOCK, rows * nbx, BLOCK)[0, :, 0]
        energy = (total - dc).reshape(rows, nbx)
        # ~(energy > bound) keeps NaN energies as candidates
        bound = total.reshape(rows, nbx) * FLAT_SLACK_REL + FLAT_SLACK
        by, bx = np.nonzero(~(energy > bound))
        blocks = strip.reshape(rows, BLOCK, nbx, BLOCK)[by, :, bx, :]
        flat = (blocks == blocks[:, :1, :1]).all(axis=(1, 2))
        energy[by[flat], bx[flat]] = 0.0
        out[r0:r0 + rows] = energy
    return out


def active_backend() -> str:
    """Name of the block-energy kernel, recorded with benchmark results."""
    return "numpy"
