"""Admissible external potentials and their hypothesis checks.

Four families are supported: constant potentials, Coulomb-type singular
wells V1 - lam * |x|^(-alpha) with alpha in {1, 2}, composites
base - lam * V2 with a decaying perturbation V2, and tabulated fields.
Singular kinds stay finite on the grid, whose nodes all keep |x| >= h/2.

The radial kinds write V once, as `Potential.profile(r)`, a function of
the distance r from the origin: their 3-D `sample` evaluates it at the
grid radii and the radial solver at its mesh nodes.  Tabulated and
composite potentials have no profile and are sampled on the grid only.

`coercivity_check` reports the coercivity constant c_bar of the form
integral(|grad u|^2 + V u^2) against the H^1 norm, the paper's hypothesis
on V; solvers refuse to start when c_bar <= 0 unless overridden.  Each
kind gives its own constant (`Potential.coercivity_constant`): constant
and Coulomb-type wells the exact value on R^3, from the hydrogen bound
(alpha = 1) or the Hardy inequality (alpha = 2); tabulated and composite
potentials the lowest generalised eigenvalue of (-Lap + V, -Lap + 1) on
the run grid, in the grid's kinetic.  A table or a field perturbation
holds node values of a box; sampled on a grid of that box, they take
its kinetic (`ScalarField.on`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .grid import GridSpec, ScalarField, minus_laplacian

# residual tolerance and iteration cap of the grid eigen-solve
_EIGEN_TOL = 1e-6
_EIGEN_MAXITER = 100


class Potential:
    """Base class; concrete kinds implement sampling and v-infinity."""

    def sample(self, grid: GridSpec) -> ScalarField:
        """V at every node of `grid`; radial kinds evaluate their profile at the node radii."""
        return ScalarField.from_3d(grid, self.profile(grid.radius))

    def v_infinity(self) -> float:
        raise NotImplementedError

    def profile(self, r: np.ndarray) -> np.ndarray | None:
        """V at distances r from the origin, or None for kinds not given as a function of |x|."""
        return None

    def virial(self, r: np.ndarray) -> np.ndarray | None:
        """x . grad V at distances r from the origin, or None without a closed form.

        Only kinds that depend on |x| alone in closed form give it; the
        Pohozaev defect of a ground state needs it.
        """
        return None

    def coercivity_constant(self, grid: GridSpec) -> float:
        """Lowest generalised eigenvalue of (-Lap + V, -Lap + 1) on `grid`.

        That is the minimum over grid fields of
        (<u, -Lap u> + <V u, u>) / (<u, -Lap u> + <u, u>), with -Lap the
        `grid.minus_laplacian` in the grid's kinetic.  Preconditioned LOBPCG
        on the shifted pencil (V - 1, -Lap + 1), one -Lap and one Sobolev
        preconditioner, its exact inverse, per iteration,
        started from the lowest sine mode; its Ritz value bounds the
        eigenvalue from above.  Kinds with an exact constant on R^3
        override this.

        For `Tabulated` and `Composite` wells this is a grid-level gate, not
        the continuum one.  A 1/|x|^2-type well is only as deep as its nodes:
        no node lies closer to the origin than sqrt(3) h / 2, so the lattice
        caps 1/|x|^2 at 4/(3 h^2).  Tabulated V = 1 - 0.5/|x|^2 at L = 6
        reads +0.55 (n = 32) and +0.46 (n = 48) in "fd", +0.58 and +0.48 in
        "spectral", and passes, where the Hardy constant of
        `CoulombSingular(1, 0.5, 2)` is -1 and refuses it.
        """
        # imported here: functional imports this module, and scipy.sparse
        # stays off the import path of runs that never call this
        from scipy.sparse.linalg import lobpcg

        from .functional import precondition

        def blockwise(op):
            return lambda X: np.column_stack([op(ScalarField(grid, x)) for x in X.T])

        shift = self.sample(grid).values - 1.0
        # the lowest sine mode on the grid's stored nodes
        s = np.sin(np.pi * np.arange(1, grid.n + 1) / (grid.n + 1))[grid.n - grid.m :]
        x0 = (s[:, None, None] * s[:, None] * s).reshape(-1, 1)
        nu, _ = lobpcg(
            lambda X: shift[:, None] * X,
            x0,
            B=blockwise(lambda u: minus_laplacian(u).values + u.values),
            M=blockwise(lambda u: precondition(u).values),
            largest=False,
            tol=_EIGEN_TOL,
            maxiter=_EIGEN_MAXITER,
        )
        return 1.0 + float(nu[0])


@dataclass(frozen=True)
class Constant(Potential):
    V1: float

    def profile(self, r: np.ndarray) -> np.ndarray:
        return np.full_like(r, float(self.V1), dtype=np.float64)

    def v_infinity(self) -> float:
        return float(self.V1)

    def virial(self, r: np.ndarray) -> np.ndarray:
        return np.zeros_like(r)

    def coercivity_constant(self, grid: GridSpec) -> float:
        return min(float(self.V1), 1.0)


@dataclass(frozen=True)
class CoulombSingular(Potential):
    """V(x) = V1 - lam * |x|^(-alpha) with alpha in {1, 2} and lam >= 0."""

    V1: float
    lam: float
    alpha: int

    def __post_init__(self) -> None:
        if self.alpha not in (1, 2):
            raise ValueError(f"singularity exponent must be 1 or 2, got alpha={self.alpha}")
        if self.lam < 0:
            raise ValueError(f"coupling must be nonnegative, got lam={self.lam}")

    def profile(self, r: np.ndarray) -> np.ndarray:
        return self.V1 - self.lam * r ** (-float(self.alpha))

    def v_infinity(self) -> float:
        return float(self.V1)

    def virial(self, r: np.ndarray) -> np.ndarray:
        return self.lam * self.alpha * r ** (-float(self.alpha))

    def coercivity_constant(self, grid: GridSpec) -> float:
        """The exact constant on R^3, whatever the grid.

        alpha = 1: the hydrogen bound -Lap - g/|x| >= -g^2/4 gives
        ((1 + V1) - sqrt((1 - V1)^2 + lam^2)) / 2.  alpha = 2: the Hardy
        inequality -Lap >= 1/(4|x|^2), sharp and scale-free, gives
        min(V1, 1 - 4 lam).
        """
        if self.alpha == 1:
            return 0.5 * ((1.0 + self.V1) - math.hypot(1.0 - self.V1, self.lam))
        return min(float(self.V1), 1.0 - 4.0 * self.lam)


PerturbationLike = Union[ScalarField, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class Composite(Potential):
    """V(x) = base(x) - lam * V2(x) with V2 decaying at infinity."""

    base: Potential
    perturbation: PerturbationLike
    lam: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"coupling must be nonnegative, got lam={self.lam}")

    def sample(self, grid: GridSpec) -> ScalarField:
        base = self.base.sample(grid)
        if isinstance(self.perturbation, ScalarField):
            v2 = self.perturbation.on(grid, "perturbation field").values
        elif grid.octant:
            raise ValueError("an octant grid cannot check a callable perturbation for mirror symmetry")
        else:
            x, y, z = grid.coords()
            v2 = np.asarray(self.perturbation(x, y, z), dtype=np.float64).ravel(order="F")
        return ScalarField(grid, base.values - self.lam * v2)

    def v_infinity(self) -> float:
        # the perturbation vanishes at infinity by assumption
        return self.base.v_infinity()


@dataclass(frozen=True)
class Tabulated(Potential):
    """Potential given only by node values; v_infinity is estimated as the
    mean of the box's outermost node layer.  On the octant that layer's
    stored nodes are those with some index at m - 1, each standing for
    eight nodes of the box's layer, so their mean is the box's."""

    table: ScalarField

    def sample(self, grid: GridSpec) -> ScalarField:
        return self.table.on(grid, "tabulated potential")

    def v_infinity(self) -> float:
        a = self.table.as3d
        inner = np.zeros(a.shape, dtype=bool)
        inner[(slice(0 if self.table.grid.octant else 1, -1),) * 3] = True
        return float(np.mean(a[~inner]))


class CoercivityResult(NamedTuple):
    c_bar: float
    ok: bool


def coercivity_check(V: Potential, grid: GridSpec) -> CoercivityResult:
    """The coercivity constant c_bar of V, with ok = (c_bar > 0).

    c_bar is the largest c with integral(|grad u|^2 + V u^2) >= c ||u||_{H^1}^2,
    from `V.coercivity_constant(grid)`: exact on R^3 for constant
    and Coulomb-type wells, the grid eigenvalue for the other kinds.
    """
    c_bar = V.coercivity_constant(grid)
    return CoercivityResult(c_bar, c_bar > 0.0)
