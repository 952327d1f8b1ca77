"""The reduced action and its pieces.

For a field u and exponent 3 < p < 5 the solver works with the scalars

    A1 = integral |grad u|^2 + V u^2
    B  = integral phi_u u^2          (phi_u the free-space Poisson solve)
    C  = integral |u|^(p+1)

and the derived values

    I = A1/2 + B/4 - C/(p+1)         (the action)
    G = A1 + B - C                   (radial derivative of I; zero on the
                                      constraint manifold)
    J = (1/2 - 1/(p+1)) A1 + (1/4 - 1/(p+1)) B

which satisfy I - J = G/(p+1) identically, so I = J on the manifold.

Every term is an exact function of the node values: the kinetic part is
the quadratic form h^3 <u, -Lap u> of a symmetric operator, the nonlocal
part uses the uncorrected screened sine solve (symmetric to rounding in
u^2), so the Euler-Lagrange residual returned here is the exact L^2
gradient of I up to rounding.  That exactness is relied on by the
descent loop and is testable by central differences.

Each evaluated field gets one -Lap u, from `grid.minus_laplacian` in the
kinetic of u's grid, and the kinetic energy, the H^1 norm and the
residual all come from it, in one pass over the nodes.  Above
`grid._BLOCK_BYTES` (more than 40 stored nodes per axis) that pass runs in
two halves, the second on the grid module's helper thread; each sum
splits where numpy's pairwise summation does, so the values are the
one thread's bit for bit.  The preconditioner inverts -Lap + 1 in the kinetic of r's grid.
Nothing here names a kinetic: the field's grid carries it.  The
potential comes in sampled, as a `ScalarField` on u's grid
(`Potential.sample`); nothing here samples it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    ScalarField,
    _added,
    _on_halves,
    dirichlet_eigenvalues,
    in_sine_modes,
    minus_laplacian,
)
from .poisson import solve_phi


@dataclass(frozen=True)
class EnergyBreakdown:
    """A1, B, C and the H^1 norm (NaN if not given) at one field, with the derived I, G, J."""

    A1: float
    B: float
    C: float
    p: float
    h1: float = math.nan

    def __post_init__(self) -> None:
        if not 3.0 < self.p < 5.0:
            raise ValueError(f"exponent must lie in the open interval (3, 5), got p={self.p}")

    @property
    def I(self) -> float:
        return 0.5 * self.A1 + 0.25 * self.B - self.C / (self.p + 1.0)

    @property
    def G(self) -> float:
        return self.A1 + self.B - self.C

    @property
    def J(self) -> float:
        return (0.5 - 1.0 / (self.p + 1.0)) * self.A1 + (0.25 - 1.0 / (self.p + 1.0)) * self.B

    @property
    def magnitude(self) -> float:
        """Scale |A1| + B + C used for relative tolerances."""
        return abs(self.A1) + self.B + self.C

    def pohozaev(self, v_mass: float, virial: float) -> float:
        """Pohozaev defect P = d/dlam I(u(./lam)) at lam = 1, in absolute units.

        With v_mass = integral V u^2 and virial = integral (x . grad V) u^2,

            P = A1/2 + v_mass + virial/2 + (5/4) B - 3 C/(p+1),

        since under u(x/lam) the gradient energy scales as lam, the mass
        and the local term as lam^3 and B as lam^5.  It vanishes at every
        critical point of the continuum action; the constraint G = 0 does
        not impose it, so on a discrete constrained minimiser it measures
        the discretisation and truncation error.
        """
        return (
            0.5 * self.A1 + v_mass + 0.5 * virial + 1.25 * self.B - 3.0 * self.C / (self.p + 1.0)
        )

    def at_scale(self, t: float) -> "EnergyBreakdown":
        """Breakdown of the scaled field t*u via exact homogeneity."""
        return EnergyBreakdown(
            t**2 * self.A1, t**4 * self.B, t ** (self.p + 1.0) * self.C, self.p, abs(t) * self.h1
        )


def _evaluate(u: ScalarField, V: ScalarField, p: float, phi: ScalarField | None, residual: bool = False):
    """(breakdown, residual values or None, residual norm or None) at u from one -Lap u.

    Each sum over the stored nodes is weighted by `GridSpec.weight`, h^3
    (8 h^3 on the octant); the breakdown's h1 is
    sqrt(w <u, -Lap u> + w sum u^2).
    `grid._on_halves` runs one task on each half of the nodes; it takes
    the five sums of the breakdown and, with `residual`, the residual's
    nodes and the sum of their squares, in a scratch field allocated
    here, so the helper thread allocates no array.  The halves' sums
    added are the one-pass sums bit for bit."""
    g = u.grid
    w = g.weight
    if V.grid != g:
        raise ValueError("potential field lives on a different grid")
    if phi is None:
        phi = solve_phi(u, residual_correction=False)
    uv, vv, pv = u.values, V.values, phi.values
    mlap = minus_laplacian(u).values
    r = np.empty(uv.size) if residual else None
    scratch = np.empty(uv.size)

    def share(sl):
        x, t = uv[sl], scratch[sl]
        sums = [np.sum(np.multiply(x, mlap[sl], out=t))]
        for f in (vv, pv):
            np.multiply(x, x, out=t)
            t *= f[sl]
            sums.append(np.sum(t))
        np.abs(x, out=t)
        t **= p + 1.0
        sums += [np.sum(t), np.sum(np.multiply(x, x, out=t))]
        if r is not None:
            # (V + phi) u + (-Lap u) - |u|^(p-1) u, in that order
            rs = r[sl]
            np.add(vv[sl], pv[sl], out=rs)
            rs *= x
            rs += mlap[sl]
            np.abs(x, out=t)
            t **= p
            np.copysign(t, x, out=t)
            rs -= t
            sums.append(np.sum(np.multiply(rs, rs, out=t)))
        return sums

    kin, vu2, phiu2, c, mass, *squares = _added(_on_halves(share, uv.size))
    kin = w * kin
    eb = EnergyBreakdown(kin + w * vu2, w * phiu2, w * c, p, math.sqrt(kin + w * mass))
    if r is None:
        return eb, None, None
    return eb, r, math.sqrt(w * squares[0])


def energy_breakdown(
    u: ScalarField, V: ScalarField, p: float, phi: ScalarField | None = None
) -> EnergyBreakdown:
    """Evaluate A1, B, C, the derived I, G, J and the H^1 norm at the field u.

    V is the potential sampled on u's grid.  `phi` short-circuits the
    internal Poisson solve when the caller already holds the uncorrected
    screened sine solve for this u.
    """
    return _evaluate(u, V, p, phi)[0]


def el_residual(
    u: ScalarField, V: ScalarField, p: float, phi: ScalarField | None = None
) -> tuple[ScalarField, float, EnergyBreakdown]:
    """Euler-Lagrange residual -Lap u + V u + phi_u u - |u|^(p-1) u.

    Returns the residual field, its quadrature-weighted L^2 norm and the
    `energy_breakdown` at u, all from the same -Lap u.  The residual is
    the exact L^2-metric gradient of the action at u (the nonlocal term
    differentiates to phi_u u because the screened sine solve is
    symmetric to rounding), so central differences of I along any
    direction v reproduce <r, v> to rounding.
    """
    eb, r, norm = _evaluate(u, V, p, phi, residual=True)
    return ScalarField(u.grid, r), norm, eb


def precondition(r: ScalarField) -> ScalarField:
    """Sobolev smoothing (-Lap + 1)^(-1) r, -Lap the `minus_laplacian` of r's grid.

    Both kinetics are diagonal in the DST-I sine modes, so this divides
    the sine coefficients of r by the mode eigenvalues plus one
    (`grid.in_sine_modes`, from the cached eigenvalues of one axis); a
    call builds no n^3 table.  Symmetric positive definite, so
    <precondition(r), r> > 0 for r != 0; descent steps measured in this
    metric are mesh-independent.
    """
    g = r.grid
    lam = dirichlet_eigenvalues(g.n, g.h, g.kinetic)
    return ScalarField.from_3d(g, in_sine_modes(r.as3d, lam, np.divide, 1.0, g.octant))
