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

Every term is an exact function of the node values: the kinetic part is a
quadratic form with a symmetric operator, the nonlocal part uses the
uncorrected convolution solve (exactly self-adjoint in u^2), so the
Euler-Lagrange residual returned here is the exact L^2 gradient of I up
to rounding.  That exactness is relied on by the descent loop and is
testable by central differences.

The kinetic discretization is selectable; both variants take fields to
vanish one node beyond the box, as the Poisson solve and the
preconditioner do.  "fd" (baseline) is the 7-point Laplacian pair of the
link-sum Dirichlet form; "spectral" is the sine-spectral (DST-I) Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import (
    GridSpec,
    ScalarField,
    dirichlet_eigenvalues,
    dirichlet_energy,
    integrate,
    laplacian,
    lp_integral,
)
from .poisson import solve_phi
from .potential import Potential

_KINETIC_VARIANTS = ("fd", "spectral")


def _check_p(p: float) -> None:
    if not 3.0 < p < 5.0:
        raise ValueError(f"exponent must lie in the open interval (3, 5), got p={p}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """The scalars A1, B, C with the derived action values at one field."""

    A1: float
    B: float
    C: float
    I: float
    G: float
    J: float
    p: float

    @property
    def magnitude(self) -> float:
        """Scale |A1| + B + C used for relative tolerances."""
        return abs(self.A1) + self.B + self.C

    @classmethod
    def from_scalars(cls, A1: float, B: float, C: float, p: float) -> "EnergyBreakdown":
        _check_p(p)
        I = 0.5 * A1 + 0.25 * B - C / (p + 1.0)
        G = A1 + B - C
        J = (0.5 - 1.0 / (p + 1.0)) * A1 + (0.25 - 1.0 / (p + 1.0)) * B
        return cls(A1=A1, B=B, C=C, I=I, G=G, J=J, p=p)

    def at_scale(self, t: float) -> "EnergyBreakdown":
        """Breakdown of the scaled field t*u via exact homogeneity."""
        return EnergyBreakdown.from_scalars(
            t**2 * self.A1, t**4 * self.B, t ** (self.p + 1.0) * self.C, self.p
        )


def kinetic_energy(u: ScalarField, kinetic: str = "fd") -> float:
    """Integral of |grad u|^2 in the selected discretization.

    For "spectral" this is h^3 <u, -Lap u> with `minus_laplacian`.
    """
    if kinetic == "fd":
        return dirichlet_energy(u)
    if kinetic == "spectral":
        return u.grid.h**3 * float(np.sum(u.values * minus_laplacian(u, "spectral").values))
    raise ValueError(f"unknown kinetic variant {kinetic!r}; options: {_KINETIC_VARIANTS}")


def minus_laplacian(u: ScalarField, kinetic: str = "fd") -> ScalarField:
    """-Lap u in the discretization matching `kinetic_energy`.

    "spectral" is the DST-I operator: each sine mode that vanishes one node
    beyond the box gets its exact eigenvalue sum_i (pi k_i / ((n + 1) h))^2.
    """
    if kinetic == "fd":
        return ScalarField(u.grid, -laplacian(u).values)
    if kinetic == "spectral":
        g = u.grid
        coeff = scipy.fft.dstn(u.as3d, type=1)
        coeff *= dirichlet_eigenvalues(g.n, g.h, "spectral")
        return ScalarField.from_3d(g, scipy.fft.idstn(coeff, type=1))
    raise ValueError(f"unknown kinetic variant {kinetic!r}; options: {_KINETIC_VARIANTS}")


def _potential_values(V: Potential | ScalarField, grid: GridSpec) -> np.ndarray:
    if isinstance(V, ScalarField):
        if V.grid != grid:
            raise ValueError("potential field lives on a different grid")
        return V.values
    return V.sample(grid).values


def energy_breakdown(
    u: ScalarField,
    V: Potential | ScalarField,
    p: float,
    phi: ScalarField | None = None,
    kinetic: str = "fd",
) -> EnergyBreakdown:
    """Evaluate A1, B, C and the derived I, G, J at the field u.

    The potential may be passed pre-sampled.  `phi` short-circuits the
    internal Poisson solve when the caller already holds the uncorrected
    convolution solution for this u.
    """
    _check_p(p)
    g = u.grid
    vvals = _potential_values(V, g)
    u2 = u.values * u.values
    A1 = kinetic_energy(u, kinetic) + g.h**3 * float(np.sum(vvals * u2))
    if phi is None:
        phi = solve_phi(u, residual_correction=False).phi
    B = g.h**3 * float(np.sum(phi.values * u2))
    C = lp_integral(u, p + 1.0)
    return EnergyBreakdown.from_scalars(A1, B, C, p)


def el_residual(
    u: ScalarField,
    V: Potential | ScalarField,
    p: float,
    phi: ScalarField | None = None,
    kinetic: str = "fd",
) -> tuple[ScalarField, float]:
    """Euler-Lagrange residual -Lap u + V u + phi_u u - |u|^(p-1) u.

    Returns the residual field and its quadrature-weighted L^2 norm.  The
    residual is the exact L^2-metric gradient of the action at u (the
    nonlocal term differentiates to phi_u u because the convolution is
    self-adjoint), so central differences of I along any direction v
    reproduce <r, v> to rounding.
    """
    _check_p(p)
    g = u.grid
    vvals = _potential_values(V, g)
    if phi is None:
        phi = solve_phi(u, residual_correction=False).phi
    nonlin = np.sign(u.values) * np.abs(u.values) ** p
    r = minus_laplacian(u, kinetic).values + (vvals + phi.values) * u.values - nonlin
    field = ScalarField(g, r)
    norm = math.sqrt(g.h**3 * float(np.sum(r * r)))
    return field, norm


def precondition(r: ScalarField) -> ScalarField:
    """Sobolev smoothing (-Lap_h + 1)^(-1) r with zero Dirichlet ghosts.

    Symmetric positive definite, so <precondition(r), r> > 0 for r != 0;
    descent steps measured in this metric are mesh-independent.
    """
    g = r.grid
    coeff = scipy.fft.dstn(r.as3d, type=1)
    coeff /= dirichlet_eigenvalues(g.n, g.h) + 1.0
    return ScalarField.from_3d(g, scipy.fft.idstn(coeff, type=1))
