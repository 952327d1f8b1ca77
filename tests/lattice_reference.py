"""The Coulomb lattice sum, a second discretization of the free-space Poisson operator.

    phi(x) = sum_y h^3 * q(y) / (4*pi*|x - y|),

with the x = y term the exact mean of 1/(4*pi*|xi|) over one cell.  It
shares nothing with `spgs.poisson`'s screened sine solve K but the
continuum operator both approximate, so the tests check K against it on
charges that the closed-form Gaussian energies do not cover.

It runs as a zero-padded (domain doubled) FFT convolution, pruned: the
forward pass transforms one axis at a time and only the planes of the
(2n)^3 padded box that hold charge; the inverse pass crops each axis to
its n wanted outputs before transforming the next.  The kernel's
transform is cached as its (n + 1)^3 DCT-I octant.  Each pass runs on the
two halves of `spgs.grid._on_halves`, on the caller and the helper
thread, and each half walks its own blocks (`_blocks`).  The tests check
the result against the full padded irfftn(rfftn(pad) * K), bit for bit,
and the octant against scipy.fft.dctn.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from spgs.grid import _BLOCK_BYTES, GridSpec, _on_halves

# Mean of 1/|xi| over the unit cell [-1/2, 1/2]^3 (closed form).
CELL_MEAN_INVERSE_DISTANCE = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0

KERNEL_CONSTANT = 1.0 / (4.0 * math.pi)


def _blocks(half: slice, width: int) -> list[slice]:
    """`half` cut into slices of at most `width`, in order."""
    return [slice(s, min(s + width, half.stop)) for s in range(half.start, half.stop, width)]


@lru_cache(maxsize=8)
def _kernel_octant(n: int, h: float) -> np.ndarray:
    """The real rfftn of the Coulomb kernel on the doubled (2n)^3 lattice, as its octant.

    The kernel is even along each axis of the doubled lattice, so per
    axis its DFT of length 2n is the DCT-I of the first n + 1 entries,
    computed as the real part of the rfft of the axis's even extension
    (x_0, ..., x_n, x_(n-1), ..., x_1), in axis order 0, 1, 2.  Only the
    (n + 1)^3 octant is kept, laid out [k2, d1, d0]; `_convolve_fft`
    mirrors it (index j -> 2n - j) through views.
    """
    d = np.arange(n + 1, dtype=np.float64)
    r = h * np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
    with np.errstate(divide="ignore"):
        k = KERNEL_CONSTANT / r
    k[0, 0, 0] = KERNEL_CONSTANT * CELL_MEAN_INVERSE_DISTANCE / h
    width = max(1, _BLOCK_BYTES // (16 * (n + 1) ** 2))
    for axis in range(3):
        # views with the transformed axis first and the split axis second
        order = (axis, (axis + 1) % 3)
        src = np.moveaxis(k, order, (0, 1))
        k = np.empty_like(k)
        dst = np.moveaxis(k, order, (0, 1))

        def dct1(half, src=src, dst=dst):
            for sl in _blocks(half, width):
                part = src[:, sl]
                even = np.concatenate([part, part[n - 1 : 0 : -1]])
                dst[:, sl] = np.fft.rfft(even, axis=0).real

        _on_halves(dct1, n + 1, (n + 1) ** 2)
    table = np.ascontiguousarray(k.T)
    table.setflags(write=False)
    return table


def _planes_per_block(n: int) -> int:
    """Planes in one plane block of `_convolve_fft` on an n^3 grid: about _BLOCK_BYTES."""
    return min(n + 1, max(1, _BLOCK_BYTES // (16 * (2 * n) ** 2)))


def _convolve_fft(q: np.ndarray, grid: GridSpec) -> np.ndarray:
    """h^3 * (kernel * q), q an (n, n, n) [x, y, z] array; an F-ordered result.

    Equals h^3 * irfftn(rfftn(pad) * K)[:n, :n, :n] for q zero-padded to
    (2n)^3, bit for bit: each 1-D pass is the one the padded transform
    runs, in the same axis order, except that forward passes skip the
    all-zero planes and inverse passes skip the planes cropped away.  The
    work runs on the transposed [z, y, x] layout: the rfft along z fills
    an (n + 1, n, n) spectrum; blocks of `_planes_per_block` planes then
    go through a reused (b, 2n, 2n) buffer (forward along x and y, the
    kernel product, inverse along x and y, each cropped to n); the irfft
    along k2 writes the result.  A call holds the spectrum, the result
    and two blocks, where the padded spectrum alone is eight fields' worth.
    """
    n = grid.n
    m = 2 * n
    b = _planes_per_block(n)
    octant = _kernel_octant(n, grid.h)
    mirror = slice(n - 1, 0, -1)
    spec = np.empty((n + 1, n, n), dtype=np.complex128)
    out = np.empty((n, n, n), order="F")

    def forward_z(half):
        for sl in _blocks(half, b):
            np.fft.rfft(q.T[:, sl], n=m, axis=0, out=spec[:, sl])

    def planes(half):
        buf = np.empty((b, m, m), dtype=np.complex128)
        for sl in _blocks(half, b):
            blk = spec[sl]
            k = octant[sl]
            # the padded planes, zero beyond the n x n charged corner; the passes run in place
            f = buf[: len(blk)]
            f[:, :n, :n] = blk
            f[:, :n, n:] = 0.0
            f[:, n:] = 0.0
            np.fft.fft(f[:, :n], axis=2, out=f[:, :n])
            np.fft.fft(f, axis=1, out=f)
            f[:, : n + 1, : n + 1] *= k
            f[:, : n + 1, n + 1 :] *= k[:, :, mirror]
            f[:, n + 1 :, : n + 1] *= k[:, mirror]
            f[:, n + 1 :, n + 1 :] *= k[:, mirror, mirror]
            np.fft.ifft(f, axis=2, norm="forward", out=f)
            blk[...] = np.fft.ifft(f[:, :, :n], axis=1, norm="forward", out=f[:, :, :n])[:, :n]

    def inverse_z(half):
        for sl in _blocks(half, b):
            slab = out.T[:, sl]
            slab[...] = np.fft.irfft(spec[:, sl], n=m, axis=0, norm="forward")[:n]
            slab *= 1.0 / m**3
            slab *= grid.h**3

    # a y line of the spectrum holds (n + 1) n complex values, a plane n^2
    _on_halves(forward_z, n, 2 * n * (n + 1))
    _on_halves(planes, n + 1, 2 * n * n)
    _on_halves(inverse_z, n, 2 * n * (n + 1))
    return out
