"""Seeded random test fields.

One shared family backs the coercivity probe, the manifold floor check,
the validation suite and the randomized acceptance tests, so results are
reproducible per seed.  Fields are smooth, decay inside the box (every
component carries a Gaussian envelope) and are nonzero by construction.
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
    amplitude: float = 1.0,
) -> ScalarField:
    return ScalarField.from_3d(grid, amplitude * _gaussian(grid, center, width))


def random_smooth_field(
    grid: GridSpec,
    rng: np.random.Generator,
    max_blobs: int = 3,
    min_width: float | None = None,
    max_width: float | None = None,
    signed: bool = True,
) -> ScalarField:
    """Sum of 1..max_blobs random Gaussians, optionally sign-mixed."""
    lo = 2.0 * grid.h if min_width is None else min_width
    hi = grid.L / 3.0 if max_width is None else max_width
    out = np.zeros((grid.n,) * 3, order="F")
    for _ in range(int(rng.integers(1, max_blobs + 1))):
        c = rng.uniform(-grid.L / 4.0, grid.L / 4.0, size=3)
        w = _log_uniform(rng, lo, hi)
        a = float(rng.uniform(0.5, 1.5))
        if signed:
            a *= float(rng.choice([-1.0, 1.0]))
        out += a * _gaussian(grid, c, w)
    return ScalarField.from_3d(grid, out)


def coercivity_test_field(grid: GridSpec, rng: np.random.Generator, k: int) -> ScalarField:
    """Trial field for the coercivity probe.

    Cycles through three kinds: centered Gaussians with widths down to
    ~1.5 h (sensitive to the singularity at the origin), offset Gaussians,
    and blob mixtures modulated by a low-frequency cosine.
    """
    kind = k % 3
    if kind == 0:
        w = _log_uniform(rng, 1.5 * grid.h, grid.L / 3.0)
        vals = _gaussian(grid, (0.0, 0.0, 0.0), w)
    elif kind == 1:
        c = rng.uniform(-grid.L / 3.0, grid.L / 3.0, size=3)
        w = _log_uniform(rng, 3.0 * grid.h, grid.L / 4.0)
        vals = _gaussian(grid, c, w)
    else:
        vals = random_smooth_field(grid, rng).as3d.copy()
        kvec = rng.integers(0, 3, size=3)
        x = grid.axis
        phase = kvec[0] * x[:, None, None] + kvec[1] * x[None, :, None] + kvec[2] * x[None, None, :]
        vals *= 1.0 + 0.5 * np.cos(np.pi * phase / grid.L)
    return ScalarField.from_3d(grid, vals)
