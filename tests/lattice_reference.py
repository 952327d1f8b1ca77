"""The Coulomb lattice sum, a second discretization of the free-space Poisson operator.

    phi(x) = sum_y h^3 * q(y) / (4*pi*|x - y|),

with the x = y term the exact mean of 1/(4*pi*|xi|) over one cell.  It
shares nothing with `spgs.poisson`'s screened sine solve K but the
continuum operator both approximate, so the tests check K against it on
charges that the closed-form Gaussian energies do not cover.

It runs as the plain zero-padded (domain doubled) FFT convolution: the
kernel on the whole (2n)^3 lattice, the charge zero-padded to it, one
rfftn and one irfftn, and the n^3 corner of the result.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from spgs.grid import GridSpec

# Mean of 1/|xi| over the unit cell [-1/2, 1/2]^3 (closed form).
CELL_MEAN_INVERSE_DISTANCE = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0

KERNEL_CONSTANT = 1.0 / (4.0 * math.pi)


@lru_cache(maxsize=4)
def _kernel_rfftn(n: int, h: float) -> np.ndarray:
    """rfftn of the Coulomb kernel on the doubled (2n)^3 lattice, offsets taken mod 2n into (-n, n].

    The kernel is even along each axis, so its transform is real.
    """
    m = 2 * n
    d = np.arange(m)
    d = np.where(d <= n, d, d - m).astype(np.float64)
    r = h * np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
    with np.errstate(divide="ignore"):
        k = KERNEL_CONSTANT / r
    k[0, 0, 0] = KERNEL_CONSTANT * CELL_MEAN_INVERSE_DISTANCE / h
    return np.fft.rfftn(k).real


def _convolve_fft(q: np.ndarray, grid: GridSpec) -> np.ndarray:
    """h^3 * (kernel * q), q an (n, n, n) [x, y, z] array, by the zero-padded transform."""
    n = grid.n
    m = 2 * n
    pad = np.zeros((m, m, m))
    pad[:n, :n, :n] = q
    out = np.fft.irfftn(np.fft.rfftn(pad) * _kernel_rfftn(n, grid.h), s=(m, m, m), axes=(0, 1, 2))
    return grid.h**3 * out[:n, :n, :n]
