"""Free-space Poisson solves -Lap(phi) = u^2 and the nonlocal energy.

The solution is the Coulomb sum

    phi(x) = sum_y h^3 * u^2(y) / (4*pi*|x - y|),

realized by direct summation on small grids or by zero-padded (domain
doubled) FFT convolution on large ones; both paths use the same lattice
kernel and agree to rounding.  The kernel's x = y value is the exact mean
of 1/(4*pi*|xi|) over one cell, which removes the singularity with an
O(h^2)-consistent correction.

The FFT convolution is a pruned separable transform.  The forward pass
transforms one axis at a time and only the planes of the (2n)^3 padded
box that hold charge; the inverse pass crops each axis to its n wanted
outputs before transforming the next.  No (2n)^3 real array is formed,
and the result equals the full padded irfftn(rfftn(pad) * K) bit for bit.

The raw kernel sum approximates the continuum operator, so its 7-point
discrete residual is O(1) near the source.  `solve_phi` therefore adds a
defect correction: a fast sine-transform Dirichlet solve on the interior
nodes, keeping the kernel values as boundary data.  The returned phi then
satisfies -Lap_h(phi) = u^2 on interior nodes to rounding while retaining
the free-space 1/|x| tail, and it stays positive by the discrete maximum
principle.  The uncorrected sum (`residual_correction=False`) is exactly
self-adjoint in u^2 and is what the energy functional differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft

from .grid import GridSpec, ScalarField, dirichlet_eigenvalues, dirichlet_energy, integrate

# Mean of 1/|xi| over the unit cell [-1/2, 1/2]^3 (closed form; equals the
# high-resolution quadrature of the cell average to 1e-15).
CELL_MEAN_INVERSE_DISTANCE = 3.0 * math.log(2.0 + math.sqrt(3.0)) - math.pi / 2.0

KERNEL_CONSTANT = 1.0 / (4.0 * math.pi)

# Largest grid for which the O(N^2) direct double sum is allowed.
ORACLE_MAX_N = 24

_DIRECT_MAX_AUTO = 12


@dataclass(frozen=True)
class NonlocalSolve:
    """Result of a free-space Poisson solve for phi_u.

    residual_rel is ||-Lap_h(phi) - u^2||_2 / ||u^2||_2 over interior
    nodes (the outermost layer has no complete stencil inside the box);
    it is computed from the source u on first access.
    """

    phi: ScalarField
    method_tag: str
    u: ScalarField
    kernel_constant: float = field(default=KERNEL_CONSTANT)

    @cached_property
    def residual_rel(self) -> float:
        return interior_residual(self.u, self.phi)


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


def _inverse_distance_sums(grid: GridSpec, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum over j != i of q[j] / |x_i - x_j| for each flat node index i in rows.

    Brute-force O(rows * N) pairwise summation in row chunks.  Node i is
    entry i of grid.coords() raveled in C order; x-fastest (F-order)
    values give the same sums, since the two orders differ by the x <-> z
    swap, an isometry.
    """
    x, y, z = grid.coords()
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    out = np.empty(rows.size)
    chunk = 512
    for start in range(0, rows.size, chunk):
        sel = rows[start : start + chunk]
        diff = pts[sel, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        inv = np.zeros_like(dist)
        np.divide(1.0, dist, out=inv, where=dist > 0)
        out[start : start + chunk] = inv @ q
    return out


def _convolve_direct(q: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Same lattice sum by brute-force pairwise summation (small grids)."""
    n = grid.n
    qf = q.reshape(-1)
    out = _inverse_distance_sums(grid, qf, np.arange(qf.size))
    out += CELL_MEAN_INVERSE_DISTANCE / grid.h * qf
    return grid.h**3 * KERNEL_CONSTANT * out.reshape((n, n, n))


def _interior_dirichlet_solve(rhs: np.ndarray, h: float) -> np.ndarray:
    """Exact solve of -Lap_h psi = rhs with psi = 0 on the surrounding layer."""
    m = rhs.shape[0]
    coeff = scipy.fft.dstn(rhs, type=1)
    coeff /= dirichlet_eigenvalues(m, h)
    return scipy.fft.idstn(coeff, type=1)


def _interior_defect(q: np.ndarray, phi: np.ndarray, h: float) -> np.ndarray:
    """u^2 + Lap_h(phi) on interior nodes (stencil fully inside the box)."""
    lap = (
        phi[2:, 1:-1, 1:-1]
        + phi[:-2, 1:-1, 1:-1]
        + phi[1:-1, 2:, 1:-1]
        + phi[1:-1, :-2, 1:-1]
        + phi[1:-1, 1:-1, 2:]
        + phi[1:-1, 1:-1, :-2]
        - 6.0 * phi[1:-1, 1:-1, 1:-1]
    ) / h**2
    return q[1:-1, 1:-1, 1:-1] + lap


def interior_residual(u: ScalarField, phi: ScalarField) -> float:
    """Relative 7-point residual ||-Lap_h phi - u^2||_2 / ||u^2||_2, interior nodes."""
    q = u.as3d ** 2
    defect = _interior_defect(q, phi.as3d, u.grid.h)
    norm_q = float(np.sqrt(np.sum(q[1:-1, 1:-1, 1:-1] ** 2)))
    if norm_q == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(defect**2))) / norm_q


def solve_phi(
    u: ScalarField, method: str = "auto", residual_correction: bool = True
) -> NonlocalSolve:
    """Solve -Lap(phi) = u^2 with free-space (decaying) behavior.

    Parameters
    ----------
    u : ScalarField
        Source field; the charge is u^2.
    method : {"auto", "direct", "fft"}
        Kernel-sum realization.  "auto" picks direct summation on small
        grids and zero-padded FFT convolution otherwise; both agree to
        rounding.
    residual_correction : bool
        When True (default), add the interior Dirichlet defect solve so
        the 7-point residual vanishes to rounding on interior nodes.
        When False, return the raw kernel quadrature sum, which is the
        exactly self-adjoint realization used by the energy functional.
    """
    grid = u.grid
    q = u.as3d ** 2
    if not np.any(q):
        return NonlocalSolve(ScalarField.zeros(grid), "zero field", u)

    if method == "auto":
        method = "direct" if grid.n <= _DIRECT_MAX_AUTO else "fft"
    if method == "direct":
        phi = _convolve_direct(q, grid)
        tag = "free-space convolution"
    elif method == "fft":
        phi = _convolve_fft(q, grid)
        tag = "zero-padded spectral"
    else:
        raise ValueError(f"unknown method {method!r}")

    if residual_correction:
        psi = _interior_dirichlet_solve(_interior_defect(q, phi, grid.h), grid.h)
        phi = phi.copy()
        phi[1:-1, 1:-1, 1:-1] += psi

    return NonlocalSolve(ScalarField.from_3d(grid, phi), tag, u)


def nonlocal_energy(u: ScalarField, phi: ScalarField) -> float:
    """The scalar B = integral of phi * u^2 (nonnegative for phi = phi_u)."""
    return integrate(ScalarField(u.grid, phi.values * u.values * u.values))


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


def _origin_kernel_sum(f: np.ndarray, grid: GridSpec) -> float:
    """Lattice sum of f(y) / (4*pi*|y|) targeted at the origin.

    The eight cells adjacent to the origin are integrated exactly (each
    contributes the cell mean c0 * h^2 / 2 of the kernel) instead of
    point-sampled.
    """
    r = grid.radius
    h = grid.h
    inner = r < h  # the 8 nodes at |x| = h*sqrt(3)/2
    far_sum = float(np.sum((f / r)[~inner]))
    inner_sum = float(np.sum(f[inner]))
    return KERNEL_CONSTANT * (
        h**3 * far_sum + 0.5 * CELL_MEAN_INVERSE_DISTANCE * h**2 * inner_sum
    )


def phi_at_origin(u: ScalarField) -> float:
    """Evaluate the free-space solution at the origin (off-lattice point).

    Staggered grids keep the origin between nodes, so the kernel sum is
    finite.  On top of the exact treatment of the origin-adjacent cells,
    the charge near the origin is matched by a Gaussian a*exp(-b r^2)
    fitted to the two innermost node shells; the Gaussian's potential at
    the origin is a/(2b) in closed form and only the smooth remainder is
    summed on the lattice.  When the fit degenerates (flat, rising or
    unresolved charge) the evaluation falls back to the kernel sum plus
    the analytic midpoint flux correction h^2 * q(0) / 24.
    """
    grid = u.grid
    if not grid.staggered:
        raise ValueError("origin evaluation needs a staggered grid (no node at 0)")
    q = u.as3d ** 2
    r = grid.radius
    h = grid.h
    inner = r < h
    shell2 = (r >= h) & (r < 1.9 * h)  # the 24 nodes at |x| = h*sqrt(11)/2
    q1 = float(np.mean(q[inner]))
    q2 = float(np.mean(q[shell2]))
    r1sq = 0.75 * h * h
    r2sq = 2.75 * h * h

    if q1 > 0.0 and q2 > 0.0 and q1 > q2:
        b = math.log(q1 / q2) / (r2sq - r1sq)
        # model must be resolved by the grid and negligible at the boundary
        if 30.0 / grid.L**2 <= b <= 1.0 / h**2:
            a = q1 * math.exp(b * r1sq)
            model = a * np.exp(-b * r * r)
            return _origin_kernel_sum(q - model, grid) + a / (2.0 * b)

    # quadratic extrapolation of the charge to the origin for the
    # midpoint flux correction
    q0 = max((11.0 * q1 - 3.0 * q2) / 8.0, 0.0)
    return _origin_kernel_sum(q, grid) + h * h / 24.0 * q0


def dirichlet_seminorm(phi: ScalarField) -> float:
    """The D^{1,2} norm sqrt(integral |grad phi|^2) of a potential field."""
    return math.sqrt(dirichlet_energy(phi))
