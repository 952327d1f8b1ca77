"""Free-space Poisson solves -Lap(phi) = u^2 for the nonlocal term phi_u u.

The solution is the Coulomb sum

    phi(x) = sum_y h^3 * u^2(y) / (4*pi*|x - y|),

realized by zero-padded (domain doubled) FFT convolution.  The kernel's
x = y value is the exact mean of 1/(4*pi*|xi|) over one cell, which
removes the singularity with an O(h^2)-consistent correction.

The FFT convolution is a pruned separable transform.  The forward pass
transforms one axis at a time and only the planes of the (2n)^3 padded
box that hold charge; the inverse pass crops each axis to its n wanted
outputs before transforming the next.  After the rfft along z the work
runs plane by plane in k_z: blocks of about a megabyte of (2n)^2 planes
pass through one reused buffer, each cropped back to n^2 in place, so
no array of the padded box's size is formed.  The kernel's transform is
cached as its (n + 1)^3 DCT-I octant and mirrored through views.  The
result equals the full padded irfftn(rfftn(pad) * K) bit for bit.

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
    minus_laplacian,
    sine_transform,
)

# Mean of 1/|xi| over the unit cell [-1/2, 1/2]^3 (closed form; equals the
# high-resolution quadrature of the cell average to 1e-15).
CELL_MEAN_INVERSE_DISTANCE = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0

KERNEL_CONSTANT = 1.0 / (4.0 * math.pi)

# Largest grid for which the O(N^2) direct double sum is allowed.
ORACLE_MAX_N = 24


@lru_cache(maxsize=8)
def _kernel_octant(n: int, h: float) -> np.ndarray:
    """The real rfftn of the Coulomb kernel on the doubled (2n)^3 lattice, as its octant.

    The kernel depends on |d| only, so it is even along each axis of the
    doubled lattice and its transform is real: per axis, the DFT of an
    even sequence of length 2n is the DCT-I of its first n + 1 entries.
    So the full (2n, 2n, n + 1) table is the DCT-I of the (n + 1)^3 octant
    d in [0, n]^3, mirrored (index j -> 2n - j) along the two full axes.
    Only the octant is kept, laid out [k2, d1, d0] as the plane blocks of
    `_convolve_fft` read it; the mirror is applied there through views.
    """
    d = np.arange(n + 1, dtype=np.float64)
    r = h * np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
    with np.errstate(divide="ignore"):
        k = KERNEL_CONSTANT / r
    k[0, 0, 0] = KERNEL_CONSTANT * CELL_MEAN_INVERSE_DISTANCE / h
    table = np.ascontiguousarray(scipy.fft.dctn(k, type=1).T)
    table.setflags(write=False)
    return table


# bytes of the complex (b, 2n, 2n) plane block that `_convolve_fft` reuses
_BLOCK_BYTES = 1 << 20


def _planes_per_block(n: int) -> int:
    """Planes in one plane block of `_convolve_fft` on an n^3 grid: about _BLOCK_BYTES."""
    return min(n + 1, max(1, _BLOCK_BYTES // (16 * (2 * n) ** 2)))


def _convolve_fft(q: np.ndarray, grid: GridSpec) -> np.ndarray:
    """h^3 * (kernel * q) by zero-padded circular convolution, pruned.

    Equals h^3 * irfftn(rfftn(pad) * K)[:n, :n, :n] for q zero-padded to
    (2n)^3, bit for bit: each 1-D pass is the one the padded transform
    runs, in the same axis order, except that forward passes skip the
    all-zero planes and inverse passes skip the planes that are cropped
    away.  The 1/(2n)^3 normalisation is applied once, at the end, as the
    padded inverse does.

    Axes 0, 1, 2 are x, y, z; the work runs on the transposed [z, y, x]
    layout, in which an F-ordered (x-fastest) field is C-ordered.  The
    rfft along z fills an (n + 1, n, n) spectrum, one (y, x) plane per k2,
    slab by slab.  Blocks of `_planes_per_block` planes then go through one
    reused (b, 2n, 2n) buffer: forward along x on the n charged rows, then
    along y; the kernel product, read from the cached octant through its
    four mirrored quadrants; inverse along x and then y, each cropped to
    n; the n x n corner goes back into its spectrum plane.  The irfft
    along k2 writes slab by slab into the F-ordered result.  So a call
    holds the spectrum and the result, about three fields' worth, and one
    block, where the padded spectrum alone is eight fields' worth.
    """
    n = grid.n
    m = 2 * n
    b = _planes_per_block(n)
    octant = _kernel_octant(n, grid.h)
    mirror = slice(n - 1, 0, -1)
    spec = np.empty((n + 1, n, n), dtype=np.complex128)
    for s in range(0, n, b):
        spec[:, s : s + b] = scipy.fft.rfft(q.T[:, s : s + b], n=m, axis=0)
    buf = np.empty((b, m, m), dtype=np.complex128)
    for s in range(0, n + 1, b):
        blk = spec[s : s + b]
        k = octant[s : s + b]
        # the padded planes, zero beyond the n x n charged corner; the passes run in place
        f = buf[: len(blk)]
        f[:, :n, :n] = blk
        f[:, :n, n:] = 0.0
        f[:, n:] = 0.0
        f[:, :n] = scipy.fft.fft(f[:, :n], axis=2, overwrite_x=True)
        f = scipy.fft.fft(f, axis=1, overwrite_x=True)
        f[:, : n + 1, : n + 1] *= k
        f[:, : n + 1, n + 1 :] *= k[:, :, mirror]
        f[:, n + 1 :, : n + 1] *= k[:, mirror]
        f[:, n + 1 :, n + 1 :] *= k[:, mirror, mirror]
        f = scipy.fft.ifft(f, axis=2, norm="forward", overwrite_x=True)
        blk[...] = scipy.fft.ifft(f[:, :, :n], axis=1, norm="forward", overwrite_x=True)[:, :n]
    out = np.empty((n, n, n), order="F")
    for s in range(0, n, b):
        out.T[:, s : s + b] = scipy.fft.irfft(spec[:, s : s + b], n=m, axis=0, norm="forward")[:n]
    out *= 1.0 / m**3
    out *= grid.h**3
    return out


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
    """u^2 - (-Lap_h phi) on interior nodes (stencil fully inside the box)."""
    inner = (slice(1, -1),) * 3
    return u.as3d[inner] ** 2 - minus_laplacian(phi).as3d[inner]


def interior_residual(u: ScalarField, phi: ScalarField) -> float:
    """Relative 7-point residual ||-Lap_h phi - u^2||_2 / ||u^2||_2, interior nodes."""
    q = u.as3d[1:-1, 1:-1, 1:-1] ** 2
    norm_q = float(np.sqrt(np.sum(q**2)))
    if norm_q == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(_interior_defect(u, phi) ** 2))) / norm_q


def solve_phi(
    u: ScalarField, residual_correction: bool = True, raw: ScalarField | None = None
) -> ScalarField:
    """Solve -Lap(phi) = u^2 with free-space (decaying) behavior.

    The kernel sum runs as the pruned zero-padded FFT convolution.  When
    `residual_correction` is True (default), the interior Dirichlet defect
    solve is added so the 7-point residual vanishes to rounding on interior
    nodes.  When False, the raw kernel quadrature sum is returned, which is
    the exactly self-adjoint realization the energy functional uses.
    `raw` short-circuits the convolution when the caller already holds
    that raw sum for this u; the defect correction then starts from it.
    """
    grid = u.grid
    phi = raw
    if phi is None:
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
