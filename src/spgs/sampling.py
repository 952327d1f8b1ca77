"""Seeded random test fields.

One shared family backs the randomized acceptance tests, so results
are reproducible per seed.  Fields are smooth, decay inside the box
(every component carries a Gaussian envelope) and are nonzero by
construction.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ScalarField


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    if lo > hi:
        lo, hi = hi, lo
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _gaussian(grid: GridSpec, center, width: float) -> np.ndarray:
    """exp(-|x - c|^2 / (2 w^2)) on the grid, axes (x, y, z), x-fastest in memory.

    Built as the outer product of three 1-D exponentials over the axis
    nodes, with no n^3 coordinate arrays and no 3-D exp.
    """
    gx, gy, gz = (np.exp(-((grid.axis - c) ** 2) / (2.0 * width**2)) for c in center)
    return (gz[:, None, None] * gy[None, :, None] * gx).T


def gaussian_blob(
    grid: GridSpec,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
    width: float = 1.0,
) -> ScalarField:
    return ScalarField.from_3d(grid, _gaussian(grid, center, width))


def random_smooth_field(
    grid: GridSpec, rng: np.random.Generator, min_width: float | None = None
) -> ScalarField:
    """Sum of one to three random Gaussians of random sign, widths up to L/3."""
    lo = 2.0 * grid.h if min_width is None else min_width
    out = np.zeros((grid.m,) * 3, order="F")
    for _ in range(int(rng.integers(1, 4))):
        c = rng.uniform(-grid.L / 4.0, grid.L / 4.0, size=3)
        w = _log_uniform(rng, lo, grid.L / 3.0)
        a = float(rng.uniform(0.5, 1.5)) * float(rng.choice([-1.0, 1.0]))
        out += a * _gaussian(grid, c, w)
    return ScalarField.from_3d(grid, out)
