"""Free-space Poisson solves -Lap(phi) = u^2 for the nonlocal term phi_u u.

The solution is the Coulomb sum

    phi(x) = sum_y h^3 * u^2(y) / (4*pi*|x - y|),

realized by zero-padded (domain doubled) FFT convolution.  The kernel's
x = y value is the exact mean of 1/(4*pi*|xi|) over one cell, which
removes the singularity with an O(h^2)-consistent correction.

The FFT convolution is a pruned separable transform.  The forward pass
transforms one axis at a time and only the planes of the (2n)^3 padded
box that hold charge; the inverse pass crops each axis to its n wanted
outputs before transforming the next.  No (2n)^3 real array is formed,
and the result equals the full padded irfftn(rfftn(pad) * K) bit for bit.

The same lattice sum by O(N^2) pairwise summation (`_convolve_direct`)
is the reference the FFT path is tested against; its pairwise sums also
serve `double_integral_oracle`, the brute-force check of the energy
identity integral(phi_u u^2) = (1/4pi) * double sum of u^2 u^2 / |x - y|.

The raw kernel sum approximates the continuum operator, so its 7-point
discrete residual is O(1) near the source.  `solve_phi` therefore adds a
defect correction: an exact Dirichlet solve on the interior nodes,
diagonal in the DST-I sine modes (`grid.sine_transform`), keeping the
kernel values as boundary data.  The returned phi then satisfies
-Lap_h(phi) = u^2 on interior nodes to rounding while retaining the
free-space 1/|x| tail, and it stays positive by the discrete maximum
principle.  The uncorrected sum (`residual_correction=False`) is exactly
self-adjoint in u^2 and is what the energy functional differentiates.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.fft

from .grid import (
    GridSpec,
    ScalarField,
    dirichlet_eigenvalues,
    laplacian,
    sine_transform,
)

# Mean of 1/|xi| over the unit cell [-1/2, 1/2]^3 (closed form; equals the
# high-resolution quadrature of the cell average to 1e-15).
CELL_MEAN_INVERSE_DISTANCE = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0

KERNEL_CONSTANT = 1.0 / (4.0 * math.pi)

# Largest grid for which the O(N^2) direct double sum is allowed.
ORACLE_MAX_N = 24


@lru_cache(maxsize=8)
def _kernel_rfft(n: int, h: float) -> np.ndarray:
    """rfftn of the Coulomb kernel on the doubled (2n)^3 lattice."""
    m = 2 * n
    idx = np.arange(m)
    d = np.where(idx <= n, idx, idx - m).astype(np.float64)
    dx, dy, dz = np.meshgrid(d, d, d, indexing="ij", sparse=True)
    r = h * np.sqrt(dx * dx + dy * dy + dz * dz)
    with np.errstate(divide="ignore"):
        k = KERNEL_CONSTANT / r
    k[0, 0, 0] = KERNEL_CONSTANT * CELL_MEAN_INVERSE_DISTANCE / h
    return scipy.fft.rfftn(k)


def _convolve_fft(q: np.ndarray, grid: GridSpec) -> np.ndarray:
    """h^3 * (kernel * q) by zero-padded circular convolution, pruned.

    Equals h^3 * irfftn(rfftn(pad) * K)[:n, :n, :n] for q zero-padded to
    (2n)^3, bit for bit: each 1-D pass is the one the padded transform
    runs, in the same axis order, except that forward passes skip the
    all-zero planes and inverse passes skip the planes that are cropped
    away.  The 1/(2n)^3 normalisation is applied once, at the end, as the
    padded inverse does.
    """
    n = grid.n
    m = 2 * n
    f = scipy.fft.rfft(q, n=m, axis=2)
    f = scipy.fft.fft(f, n=m, axis=0, overwrite_x=True)
    f = scipy.fft.fft(f, n=m, axis=1, overwrite_x=True)
    f *= _kernel_rfft(n, grid.h)
    f = scipy.fft.ifft(f, axis=0, norm="forward", overwrite_x=True)[:n]
    f = scipy.fft.ifft(f, axis=1, norm="forward", overwrite_x=True)[:, :n]
    out = scipy.fft.irfft(f, n=m, axis=2, norm="forward", overwrite_x=True)[:, :, :n]
    out *= 1.0 / m**3
    return grid.h**3 * out


@lru_cache(maxsize=4)
def _inverse_distance_table(n: int, h: float) -> np.ndarray:
    """1 / (h |d|) for node-index differences d in [0, n)^3, zero at d = 0."""
    d = np.arange(n, dtype=np.float64)
    r = h * np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
    with np.errstate(divide="ignore"):
        table = 1.0 / r
    table[0, 0, 0] = 0.0
    table = table.ravel()
    table.setflags(write=False)
    return table


def _inverse_distance_sums(grid: GridSpec, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum over j != i of q[j] / |x_i - x_j| for each flat node index i in rows.

    Brute-force O(rows * N) pairwise summation in row chunks; each chunk's
    weights are gathered from the cached `_inverse_distance_table` by the
    absolute node-index differences along each axis.  Node i is entry i
    of grid.coords() raveled in C order; x-fastest (F-order) values give
    the same sums, since the two orders differ by the x <-> z swap, an
    isometry.
    """
    n = grid.n
    table = _inverse_distance_table(n, grid.h)
    ix, iy, iz = np.unravel_index(rows, (n, n, n))
    steps = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    out = np.empty(rows.size)
    chunk = 512
    for start in range(0, rows.size, chunk):
        sel = slice(start, start + chunk)
        flat = (
            (n * n) * steps[ix[sel]][:, :, None, None]
            + n * steps[iy[sel]][:, None, :, None]
            + steps[iz[sel]][:, None, None, :]
        )
        out[sel] = table.take(flat.reshape(flat.shape[0], -1)) @ q
    return out


def _convolve_direct(q: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Same lattice sum by brute-force pairwise summation: the FFT path's test reference."""
    n = grid.n
    qf = q.reshape(-1)
    out = _inverse_distance_sums(grid, qf, np.arange(qf.size))
    out += CELL_MEAN_INVERSE_DISTANCE / grid.h * qf
    return grid.h**3 * KERNEL_CONSTANT * out.reshape((n, n, n))


def _interior_dirichlet_solve(rhs: np.ndarray, h: float) -> np.ndarray:
    """Exact solve of -Lap_h psi = rhs with psi = 0 on the surrounding layer."""
    m = rhs.shape[0]
    coeff = sine_transform(rhs)
    coeff /= dirichlet_eigenvalues(m, h)
    return sine_transform(coeff, inverse=True)


def _interior_defect(u: ScalarField, phi: ScalarField) -> np.ndarray:
    """u^2 + Lap_h(phi) on interior nodes (stencil fully inside the box)."""
    inner = (slice(1, -1),) * 3
    return u.as3d[inner] ** 2 + laplacian(phi).as3d[inner]


def interior_residual(u: ScalarField, phi: ScalarField) -> float:
    """Relative 7-point residual ||-Lap_h phi - u^2||_2 / ||u^2||_2, interior nodes."""
    q = u.as3d[1:-1, 1:-1, 1:-1] ** 2
    norm_q = float(np.sqrt(np.sum(q**2)))
    if norm_q == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(_interior_defect(u, phi) ** 2))) / norm_q


def solve_phi(u: ScalarField, residual_correction: bool = True) -> ScalarField:
    """Solve -Lap(phi) = u^2 with free-space (decaying) behavior.

    The kernel sum runs as the pruned zero-padded FFT convolution.  When
    `residual_correction` is True (default), the interior Dirichlet defect
    solve is added so the 7-point residual vanishes to rounding on interior
    nodes.  When False, the raw kernel quadrature sum is returned, which is
    the exactly self-adjoint realization the energy functional uses.
    """
    grid = u.grid
    q = u.as3d ** 2
    if not np.any(q):
        return ScalarField.zeros(grid)
    phi = ScalarField.from_3d(grid, _convolve_fft(q, grid))
    if not residual_correction:
        return phi
    out = phi.as3d.copy()
    out[1:-1, 1:-1, 1:-1] += _interior_dirichlet_solve(_interior_defect(u, phi), grid.h)
    return ScalarField.from_3d(grid, out)


def double_integral_oracle(u: ScalarField, region_radius: float | None = None) -> float:
    """Brute-force double sum of u^2(x) u^2(y) / |x - y| over x in Omega, y anywhere.

    Omega is the ball |x| <= region_radius, or the whole grid when None.
    Diagonal pairs are excluded and compensated by the exact self-cell
    correction h^2 * c0 * integral(u^4) restricted to Omega.  Validates
    the fast solve through  integral_Omega phi_u u^2 = (1/4pi) * oracle.
    Cost is O(N^2); grids beyond n = 24 are rejected.
    """
    grid = u.grid
    if grid.n > ORACLE_MAX_N:
        raise ValueError(
            f"direct double sum limited to n <= {ORACLE_MAX_N}, got n={grid.n}"
        )
    q = (u.values * u.values).astype(np.float64)
    if region_radius is None:
        rows = np.arange(q.size)
    else:
        rows = np.nonzero(grid.radius.ravel(order="F") <= region_radius)[0]

    h = grid.h
    total = float(q[rows] @ _inverse_distance_sums(grid, q, rows))
    self_term = CELL_MEAN_INVERSE_DISTANCE / h * float(np.sum(q[rows] ** 2))
    return h**6 * (total + self_term)
