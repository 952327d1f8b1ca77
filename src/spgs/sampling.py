"""Seeded random test fields.

One shared family backs the coercivity probe, the manifold floor check,
the validation suite and the randomized acceptance tests, so results are
reproducible per seed.  Fields are smooth, decay inside the box (every
component carries a Gaussian envelope) and are nonzero by construction.

Every field is a short sum of products of 1-D factors along x, y and z.
The coercivity probe keeps its trials in that form (`coercivity_trial`),
so their quadratic forms come from the factors (`grid.separable_forms`)
and only `separable_values` builds their n^3 node values."""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, ScalarField


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    if lo > hi:
        lo, hi = hi, lo
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _gaussian_factors(grid: GridSpec, center, width: float) -> list[np.ndarray]:
    """The 1-D factors exp(-(x_i - c_i)^2 / (2 w^2)) along x, y, z over the axis nodes."""
    return [np.exp(-((grid.axis - c) ** 2) / (2.0 * width**2)) for c in center]


def _gaussian(grid: GridSpec, center, width: float) -> np.ndarray:
    """exp(-|x - c|^2 / (2 w^2)) on the grid, axes (x, y, z), x-fastest in memory.

    Built as the outer product of three 1-D exponentials over the axis
    nodes, with no n^3 coordinate arrays and no 3-D exp.
    """
    gx, gy, gz = _gaussian_factors(grid, center, width)
    return (gz[:, None, None] * gy[None, :, None] * gx).T


def gaussian_blob(
    grid: GridSpec,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
    width: float = 1.0,
    amplitude: float = 1.0,
) -> ScalarField:
    return ScalarField.from_3d(grid, amplitude * _gaussian(grid, center, width))


def _random_blobs(
    grid: GridSpec,
    rng: np.random.Generator,
    max_blobs: int = 3,
    min_width: float | None = None,
    max_width: float | None = None,
    signed: bool = True,
) -> list[tuple[float, np.ndarray, float]]:
    """Draw 1..max_blobs (amplitude, center, width) triples, blob by blob."""
    lo = 2.0 * grid.h if min_width is None else min_width
    hi = grid.L / 3.0 if max_width is None else max_width
    blobs = []
    for _ in range(int(rng.integers(1, max_blobs + 1))):
        c = rng.uniform(-grid.L / 4.0, grid.L / 4.0, size=3)
        w = _log_uniform(rng, lo, hi)
        a = float(rng.uniform(0.5, 1.5))
        if signed:
            a *= float(rng.choice([-1.0, 1.0]))
        blobs.append((a, c, w))
    return blobs


def random_smooth_field(
    grid: GridSpec,
    rng: np.random.Generator,
    max_blobs: int = 3,
    min_width: float | None = None,
    max_width: float | None = None,
    signed: bool = True,
) -> ScalarField:
    """Sum of 1..max_blobs random Gaussians, optionally sign-mixed."""
    out = np.zeros((grid.n,) * 3, order="F")
    for a, c, w in _random_blobs(grid, rng, max_blobs, min_width, max_width, signed):
        out += a * _gaussian(grid, c, w)
    return ScalarField.from_3d(grid, out)


def coercivity_trial(
    grid: GridSpec, rng: np.random.Generator, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Trial field k of the coercivity probe, as separable factors (c, X, Y, Z).

    The field is u = sum_r c[r] X[r] (x) Y[r] (x) Z[r], the rows of the
    (R, n) arrays being 1-D factors along x, y and z over the axis nodes
    (`separable_values` gives its node values).  Cycles through three
    kinds: centered Gaussians with widths down to ~1.5 h (sensitive to the
    singularity at the origin) and offset Gaussians, R = 1 each, and
    `random_smooth_field` blob mixtures times 1 + cos(pi k.x / L) / 2 for a
    random integer k in [0, 2]^3, R = 5 per blob.
    """
    kind = k % 3
    if kind == 0:
        w = _log_uniform(rng, 1.5 * grid.h, grid.L / 3.0)
        rows = [(1.0, *_gaussian_factors(grid, (0.0, 0.0, 0.0), w))]
    elif kind == 1:
        c = rng.uniform(-grid.L / 3.0, grid.L / 3.0, size=3)
        w = _log_uniform(rng, 3.0 * grid.h, grid.L / 4.0)
        rows = [(1.0, *_gaussian_factors(grid, c, w))]
    else:
        blobs = _random_blobs(grid, rng)
        kvec = rng.integers(0, 3, size=3)
        x = np.pi * grid.axis / grid.L
        (cx, sx), (cy, sy), (cz, sz) = ((np.cos(q * x), np.sin(q * x)) for q in kvec)
        one = np.ones(grid.n)
        # 1 + cos(a + b + c) / 2 as five products of 1-D factors
        terms = [
            (1.0, one, one, one),
            (0.5, cx, cy, cz),
            (-0.5, cx, sy, sz),
            (-0.5, sx, cy, sz),
            (-0.5, sx, sy, cz),
        ]
        rows = [
            (a * t, gx * fx, gy * fy, gz * fz)
            for a, c, w in blobs
            for gx, gy, gz in [_gaussian_factors(grid, c, w)]
            for t, fx, fy, fz in terms
        ]
    c, X, Y, Z = (np.array(col) for col in zip(*rows))
    return c, X, Y, Z


def separable_values(c: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Node values of u = sum_r c[r] X[r] (x) Y[r] (x) Z[r], flat in x-fastest order.

    One batched product, z-slab by z-slab: (Y^T diag(c Z[:, k])) X, that
    is n small (n x R)(R x n) products in place of one (n^2 x R)(R x n)
    product that BLAS would spread over threads.
    """
    a = Y.T[None, :, :] * (c[:, None] * Z).T[:, None, :]
    return np.matmul(a, X).reshape(-1)
