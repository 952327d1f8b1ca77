"""Free-space Poisson solves -Lap(phi) = u^2 for the nonlocal term phi_u u.

On the box the free-space Green's function is the Dirichlet one plus a
remainder, G = G_D + H, with H(x, y) harmonic in both points.  G_D is
the box's own sine solve S = (-Lap_sp)^-1, one `grid.in_sine_modes`
with the spectral `dirichlet_eigenvalues`, the zero-ghost convention of
the kinetic term and the preconditioner.  H is kept to
its terms with at most one power of x or of y, through the unit
Gaussian g of width sigma = L/4 at the origin and its dipoles
g_i = 2 x_i g / sigma^2 (= -d_i g).  Since H is harmonic, its means
against them are H(., 0) = H_0 = Phi_g - S g and d_(y_i) H(., 0) =
H_i = x_i f - S g_i, where

    Phi_g = erf(r/sigma) / (4 pi r),
    f     = [erf(r/sigma) - (2r / (sigma sqrt(pi))) exp(-r^2/sigma^2)] / (4 pi r^3)

are the free-space potentials of g and (divided by x_i) of g_i.  With
Q = h^3 sum q and p = h^3 sum x q, the source s = q - Q g - sum_i p_i g_i
carries no monopole and no dipole, and the raw solve is

    K q = S s + Q Phi_g + (p.x) f + <H_0, s> + sum_i x_i <H_i, s>.

The box's symmetry gives <H_0, g_i> = <H_i, g> = 0 and <H_i, g_j> =
delta_ij M, so this is S q + Q H_0 + sum_i p_i H_i + (<H_0, q> - c_0 Q)
+ sum_i x_i (<H_i, q> - M p_i) with c_0 = <H_0, g>: each term is paired
with its transpose, so K is symmetric in the h^3-weighted pairing to
rounding.  It is exact, up to the sine solve, for a charge whose
outside field is a monopole plus a dipole about the origin.  By the same
symmetry <H_0, s> = <Phi_g, q> - Q <Phi_g, g> - <g, w> and <H_i, s> =
<x_i f, q> - p_i <x f, g_x> - <g_i, w>, from moments of q, the two
pairings <Phi_g, g> and <x f, g_x> taken once per box, and the
g-weighted moments of the one sine solve w = S s.

On the octant box (`grid.GridSpec.symmetry`) the charge is mirror-even,
so p = 0 exactly and <x_i f, q> = <g_i, w> = 0: every dipole term
vanishes, the lift is the monopole Q g alone, and K q = S s + Q Phi_g +
<H_0, s>, with S the octant's odd-mode sine solve and every pairing
weighted 8 h^3 (`GridSpec.weight`).  That is the full box's K on
mirror-even charges, to rounding.

Only Phi_g and f are cached, per stored grid (L, n, symmetry) whatever
its kinetic, C-ordered [z, y, x], so they walk in the memory order of
x-fastest fields; the octant needs no f.  Node radii are r = (h/2)
sqrt(k) with k = sum of (2j + 1 - n)^2 over the three axes, an integer
8m + 3, so both tables are gathered from `math.erf` at the few values
of m up to the largest: no scipy on the 3-D path.  g enters only
through its 1-D factors.  Every pass over the nodes reduces over x
alone, to a [z, y] plane of sums that `_pair` weighs and adds.  No n^3
reduction goes through BLAS (see `grid`).

K approximates the continuum operator, so its 7-point discrete residual
is O(1) near the source.  `solve_phi` therefore adds a defect
correction: the exact 7-point Dirichlet solve on the interior nodes
(`grid.in_sine_modes` with the fd eigenvalues of that block; on the
octant, every stored node but the outer layer), keeping K's
values as boundary data.  The returned phi then satisfies -Lap_h(phi) =
u^2 on interior nodes to rounding while retaining the free-space 1/|x|
tail, and it stays positive by the discrete maximum principle.  The
correction serves `solve_phi`'s default only; no run mode calls it.  The
uncorrected K (`residual_correction=False`) is symmetric to rounding; it
is what the energy functional differentiates and the phi a ground state
(`minimize.GroundStateResult`) reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .grid import GridSpec, ScalarField, _slabs, dirichlet_eigenvalues, in_sine_modes, minus_laplacian


@dataclass(frozen=True)
class _Lift:
    """Per-box data of K: the cached tables, g's 1-D factors and the pairings.

    On the octant, f and <x f, g_x> serve no term, and are None and NaN.
    """

    phi_g: np.ndarray  # Phi_g, C-ordered [z, y, x]
    f: np.ndarray | None  # f, C-ordered [z, y, x]
    a: np.ndarray  # g = a(z) a(y) a(x)
    xa: np.ndarray  # x a(x)
    slope: float  # 2 / sigma^2, so g_i = slope * x_i g
    phi_g_g: float  # <Phi_g, g>
    xf_gx: float  # <x f, g_x>


def _pair(cell: float, plane: np.ndarray, wz: np.ndarray, wy: np.ndarray) -> float:
    """cell * sum over (z, y) of plane[z, y] wz[z] wy[y]."""
    return cell * float(np.einsum("zy,z,y->", plane, wz, wy))


def _dipole(cell: float, along_x: np.ndarray, plane: np.ndarray, even, odd) -> np.ndarray:
    """The x, y and z moments of an n^3 array from its [z, y] sums over x, times x and not.

    along_x holds the sums of x times the array, plane those of the array;
    each moment is cell * a sum over (z, y), weighted even(z) even(y) for
    along_x, even(z) odd(y) and odd(z) even(y) for plane.
    """
    return np.array([
        _pair(cell, along_x, even, even),
        _pair(cell, plane, even, odd),
        _pair(cell, plane, odd, even),
    ])


@lru_cache(maxsize=4)
def _lift(L: float, n: int, symmetry: str) -> _Lift:
    """Phi_g and f on the stored nodes of the grid (L, n, symmetry), g's 1-D factors and the pairings.

    Built once per stored grid; none of it depends on the kinetic, so the
    grids of one box and symmetry share it.
    """
    grid = GridSpec(L, n, symmetry=symmetry)
    h, sigma, x, cell = grid.h, L / 4.0, grid.axis, grid.weight
    # (2j + 1 - n)^2 is an odd square 8T + 1, so the nodes' k = 8m + 3, m = T_x + T_y + T_z
    odd = np.abs(2 * np.arange(n - grid.m, n) + 1 - n)
    tri = (odd * odd - 1) // 8
    m = np.arange(3 * int(tri.max()) + 1)
    r = 0.5 * h * np.sqrt(8.0 * m + 3.0)
    erf = np.array([math.erf(v / sigma) for v in r])
    z = r / sigma
    phi_r = erf / (4.0 * math.pi * r)
    key = tri[:, None, None] + tri[None, :, None] + tri[None, None, :]
    phi_g = phi_r.take(key)
    phi_g.setflags(write=False)
    a = np.exp(-((x / sigma) ** 2)) / (math.sqrt(math.pi) * sigma)
    xa, slope = x * a, 2.0 / sigma**2
    phi_g_g = cell * float(np.einsum("zyx,z,y,x->", phi_g, a, a, a))
    if grid.octant:
        return _Lift(phi_g, None, a, xa, slope, phi_g_g, math.nan)
    f_r = (erf - (2.0 / math.sqrt(math.pi)) * z * np.exp(-z * z)) / (4.0 * math.pi * r**3)
    f = f_r.take(key)
    del key
    f.setflags(write=False)
    xf_gx = cell * slope * float(np.einsum("zyx,z,y,x->", f, a, a, x * xa))
    return _Lift(phi_g, f, a, xa, slope, phi_g_g, xf_gx)


def _screened_solve(q: np.ndarray, grid: GridSpec) -> np.ndarray:
    """K q, q the flat x-fastest values of the charge; q is overwritten.

    Returns the flat x-fastest values of K q.  Working on the C-ordered
    [z, y, x] view of q: one slab pass takes the planes' sums over x of
    q, Phi_g q, x q, f q and x f q; a second turns q into s in place;
    the sine solve w = S s follows; a third pass takes the sums over x of
    a w and x a w; the last adds the remaining terms of K to w in place.
    On the octant the charge is even, so p = 0 and every x_i term
    vanishes: the passes skip x q, f q, x f q and x a w, and the last
    adds Q Phi_g + <H_0, s> alone.  A call allocates the field the sine
    solve returns and, for each of the two slab passes, a cache-sized
    slab of scratch (`grid._slabs`).
    """
    n, m, even = grid.n, grid.m, grid.octant
    cell = grid.weight
    lift = _lift(grid.L, grid.n, grid.symmetry)
    x, a, xa = grid.axis, lift.a, lift.xa
    src = q.reshape((m, m, m))
    # per plane (z, y), summed over x: q, Phi_g q, then on the full box x q, f q and x f q
    planes = np.empty((2 if even else 5, m, m))
    np.einsum("zyx->zy", src, out=planes[0])
    np.einsum("zyx,zyx->zy", lift.phi_g, src, out=planes[1])
    if not even:
        np.einsum("zyx,x->zy", src, x, out=planes[2])
        np.einsum("zyx,zyx->zy", lift.f, src, out=planes[3])
        np.einsum("zyx,zyx,x->zy", lift.f, src, x, out=planes[4])
    ones = np.ones(m)
    Q = _pair(cell, planes[0], ones, ones)
    if even:
        # the lift Q g as [z, y] planes times the x factor a
        coeffs = np.multiply.outer(a, a * Q)[:, :, None]
        factors = a[None]
    else:
        p = _dipole(cell, planes[2], planes[0], ones, x)
        # the lift g (Q + slope p.x) as [z, y] planes times the x factors a and x a
        k = lift.slope * p
        coeffs = np.empty((m, m, 2))
        coeffs[:, :, 0] = np.multiply.outer(a, a * (Q + k[1] * x)) + np.multiply.outer(k[2] * xa, a)
        coeffs[:, :, 1] = k[0] * np.multiply.outer(a, a)
        factors = np.stack([a, xa])

    # subtract the lift, walking the planes through one cache-sized scratch slab
    for sl, t in _slabs(m):
        np.einsum("zyk,kx->zyx", coeffs[sl], factors, out=t)
        src[sl] -= t
    del t  # the last slab's view would keep the scratch alive through the sine solve
    # w = S s of the [x, y, z] (F-ordered) view; its transpose is C-ordered [z, y, x]
    lam = dirichlet_eigenvalues(n, grid.h, "spectral")
    out = in_sine_modes(src.T, lam, np.divide, octant=even).T
    solved = np.empty((len(factors), m, m))
    np.einsum("zyx,kx->kzy", out, factors, out=solved)
    # <H_0, s> and <H_i, s>
    g_w = _pair(cell, solved[0], a, a)
    const = _pair(cell, planes[1], ones, ones) - (g_w + Q * lift.phi_g_g)
    if not even:
        gi_w = lift.slope * _dipole(cell, solved[1], solved[0], a, xa)
        c = _dipole(cell, planes[4], planes[3], ones, x) - (gi_w + p * lift.xf_gx)
        dipole_zy = np.add.outer(p[2] * x, p[1] * x)
        affine_zy = np.add.outer(c[2] * x, const + c[1] * x)

    # add the remaining terms of K to w, through the same slabs
    for sl, t in _slabs(m):
        o = out[sl]
        np.multiply(lift.phi_g[sl], Q, out=t)
        o += t
        if even:
            o += const
            continue
        np.add(dipole_zy[sl, :, None], p[0] * x, out=t)
        t *= lift.f[sl]
        o += t
        np.add(affine_zy[sl, :, None], c[0] * x, out=t)
        o += t
    return out.reshape(-1)


def _interior(grid: GridSpec) -> tuple[slice, ...]:
    """The stored nodes whose 7-point stencil lies inside the box: all but the outer layer on the octant."""
    return (slice(0 if grid.octant else 1, -1),) * 3


def _interior_defect(u: ScalarField, phi: ScalarField) -> np.ndarray:
    """u^2 - (-Lap_h phi) on interior nodes (stencil fully inside the box), whatever phi's kinetic."""
    inner = _interior(u.grid)
    seven_point = minus_laplacian(phi.on(replace(phi.grid, kinetic="fd")))
    return u.as3d[inner] ** 2 - seven_point.as3d[inner]


def interior_residual(u: ScalarField, phi: ScalarField) -> float:
    """Relative 7-point residual ||-Lap_h phi - u^2||_2 / ||u^2||_2, interior nodes."""
    q = u.as3d[_interior(u.grid)] ** 2
    norm_q = float(np.sqrt(np.sum(q**2)))
    if norm_q == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(_interior_defect(u, phi) ** 2))) / norm_q


def solve_phi(u: ScalarField, residual_correction: bool = True) -> ScalarField:
    """Solve -Lap(phi) = u^2 with free-space (decaying) behavior.

    The raw solve is the screened sine solve K of the module docstring.
    When `residual_correction` is True (default), the interior Dirichlet
    defect solve is added so the 7-point residual vanishes to rounding on
    interior nodes.  When False, K u^2 is returned, the realization,
    symmetric to rounding, that the energy functional uses and a ground
    state reports.
    """
    grid = u.grid
    q = np.square(u.values)
    if not np.any(q):
        return ScalarField.zeros(grid)
    phi = ScalarField(grid, _screened_solve(q, grid))
    if not residual_correction:
        return phi
    out = phi.as3d.copy(order="F")
    lam = dirichlet_eigenvalues(grid.n - 2, grid.h)
    inner = _interior(grid)
    out[inner] += in_sine_modes(_interior_defect(u, phi), lam, np.divide, octant=grid.octant)
    return ScalarField.from_3d(grid, out)
