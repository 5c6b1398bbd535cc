"""Block texture-energy kernel.

The hot loop of complexity analysis is a 32x32 orthonormal DCT over
every luma block of a frame (a 4K frame has 8100 blocks).
``block_energies`` computes the per-block AC magnitude sums in numpy as
a separable transform, one block row at a time: two batched
``np.matmul`` calls of one 32x32x32 GEMM per block, and one GEMV for
the row sums of every block's coefficients. The sums over those row
sums, the energies and the flat test then run once per frame.
A flat (constant) block must read exactly zero, but the transform leaves
round-off in its AC terms, so flat blocks are found by comparing
samples. That exact comparison runs only on the few candidate blocks
whose computed energy is small enough for them to be flat, not on every
sample of the frame.
``python3 perfbench/run.py --workload complexity --trace 1`` times it.
numpy is imported, and the DCT basis built, on first use.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BLOCK = 32
# A block is a flat candidate unless its computed AC sum exceeds
# FLAT_SLACK + FLAT_SLACK_REL * (its sum of all |coefficients|); see
# block_energies for why no flat block can exceed it.
FLAT_SLACK = 0.5
FLAT_SLACK_REL = 1e-9


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix (D @ D.T == I)."""
    import numpy as np
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return np.ascontiguousarray(mat)


@functools.cache
def _basis() -> tuple:
    """``(D, D.T, ones)`` for BLOCK: the DCT basis, its transpose as a
    contiguous matrix and a vector of BLOCK ones, built on first use."""
    import numpy as np
    dct = dct_matrix(BLOCK)
    arrays = dct, np.ascontiguousarray(dct.T), np.ones(BLOCK)
    for a in arrays:  # shared by every caller
        a.flags.writeable = False
    return arrays


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

    The plane is taken one block row at a time. The row's BLOCK pixel
    rows are cast to float64 into a (BLOCK, width) buffer, whose views
    as (BLOCK, BLOCK) blocks let one batched ``D @ x`` transform every
    block's columns. Its output, read as (k, block) rows of BLOCK
    values, is transformed by ``@ D.T`` in batches of BLOCK rows, and a
    GEMV with a vector of ones sums each row of |coefficients|. Every
    GEMM is 32x32x32 = 32,768 multiply-adds, which OpenBLAS runs on the
    calling thread, and every coefficient is still one 32-term dot
    product in the same order as in one GEMM per product. Each block's
    32 row sums are then added in order of k, left to right, for the
    whole frame at once, so a block's energy is bit for bit that of the
    block alone.
    """
    import numpy as np
    dct, dct_t, ones = _basis()
    height, width = plane.shape
    nby, nbx = height // BLOCK, width // BLOCK
    x = np.empty((BLOCK, width))  # a block row's samples, then |coeffs|
    y = np.empty((BLOCK, width))
    x_blocks = x.reshape(BLOCK, nbx, BLOCK).transpose(1, 0, 2)
    y_blocks = y.reshape(BLOCK, nbx, BLOCK).transpose(1, 0, 2)
    # row_sums[r, k, c]: the sum over l of |coefficient (k, l)| of block
    # (r, c); dc[r, c]: its |coefficient (0, 0)|
    row_sums = np.empty((nby, BLOCK, nbx))
    dc = np.empty((nby, nbx))
    for r in range(nby):
        np.copyto(x, plane[r * BLOCK:(r + 1) * BLOCK])
        np.matmul(dct, x_blocks, out=y_blocks)
        # row (k, c) of y, times D.T, is row k of block c's coefficients
        np.matmul(y.reshape(-1, BLOCK, BLOCK), dct_t,
                  out=x.reshape(-1, BLOCK, BLOCK))
        np.abs(x, out=x)
        np.matmul(x.reshape(-1, BLOCK), ones, out=row_sums[r].reshape(-1))
        dc[r] = x[0, ::BLOCK]
    total = row_sums[:, 0].copy()
    for k in range(1, BLOCK):
        total += row_sums[:, k]
    energy = total - dc
    # ~(energy > bound) keeps NaN energies as candidates
    bound = total * FLAT_SLACK_REL + FLAT_SLACK
    by, bx = np.nonzero(~(energy > bound))
    blocks = plane.reshape(nby, BLOCK, nbx, BLOCK)[by, :, bx, :]
    flat = (blocks == blocks[:, :1, :1]).all(axis=(1, 2))
    energy[by[flat], bx[flat]] = 0.0
    return energy


def active_backend() -> str:
    """Name of the block-energy kernel, recorded with benchmark results."""
    return "numpy"
