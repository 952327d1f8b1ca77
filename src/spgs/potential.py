"""Admissible external potentials and their hypothesis checks.

Four families are supported: constant potentials, Coulomb-type singular
wells V1 - lam * |x|^(-alpha) with alpha in {1, 2}, composites
base - lam * V2 with a decaying perturbation V2, and tabulated fields.
Singular kinds may only be sampled on staggered grids, where every node
keeps |x| >= h/2.

`coercivity_check` probes the quadratic form integral(|grad u|^2 + V u^2)
against the H^1 norm with a seeded family of random test fields (centered
narrow Gaussians, offset Gaussians, and low-frequency mixtures) and
reports the smallest Rayleigh quotient seen.  A negative estimate signals
that the coupling lam is too large for the well to be coercive; solvers
refuse to start in that case unless overridden, and probe with the
kinetic they minimise.  The trial fields are separable, so the probe takes
their mass and Dirichlet form from their 1-D factors and builds their
node values once per trial, for integral V u^2 alone; `rayleigh_quotient`
is the fd quotient on node values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .grid import GridSpec, ScalarField, dirichlet_energy, integrate, separable_forms
from .sampling import coercivity_trial, separable_values


class Potential:
    """Base class; concrete kinds implement sampling and v-infinity."""

    #: True when v_infinity is estimated from finite data rather than exact.
    v_infinity_is_estimate: bool = False

    def sample(self, grid: GridSpec) -> ScalarField:
        raise NotImplementedError

    def v_infinity(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Potential):
    V1: float

    def sample(self, grid: GridSpec) -> ScalarField:
        return ScalarField(grid, np.full(grid.num_nodes, float(self.V1)))

    def v_infinity(self) -> float:
        return float(self.V1)


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

    def sample(self, grid: GridSpec) -> ScalarField:
        if not grid.staggered:
            raise ValueError(
                "singular potentials need a staggered grid (a node would hit the origin)"
            )
        vals = self.V1 - self.lam * grid.radius ** (-float(self.alpha))
        return ScalarField.from_3d(grid, vals)

    def v_infinity(self) -> float:
        return float(self.V1)


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
            if self.perturbation.grid != grid:
                raise ValueError("perturbation field lives on a different grid")
            v2 = self.perturbation.values
        else:
            x, y, z = grid.coords()
            v2 = np.asarray(self.perturbation(x, y, z), dtype=np.float64).ravel(order="F")
        return ScalarField(grid, base.values - self.lam * v2)

    def v_infinity(self) -> float:
        # the perturbation vanishes at infinity by assumption
        return self.base.v_infinity()


@dataclass(frozen=True)
class Tabulated(Potential):
    """Potential given only by node values; v_infinity is estimated from
    the outermost node layer and flagged approximate."""

    table: ScalarField
    v_infinity_is_estimate: bool = True

    def sample(self, grid: GridSpec) -> ScalarField:
        if self.table.grid != grid:
            raise ValueError("tabulated potential lives on a different grid")
        return self.table

    def v_infinity(self) -> float:
        a = self.table.as3d
        inner = np.zeros(a.shape, dtype=bool)
        inner[1:-1, 1:-1, 1:-1] = True
        return float(np.mean(a[~inner]))


class CoercivityResult(NamedTuple):
    c_bar_est: float
    ok: bool


def rayleigh_quotient(u: ScalarField, v_field: ScalarField) -> float:
    """(integral |grad u|^2 + V u^2) / (integral |grad u|^2 + u^2)."""
    kinetic = dirichlet_energy(u)
    u2 = ScalarField(u.grid, u.values * u.values)
    num = kinetic + integrate(ScalarField(u.grid, v_field.values * u2.values))
    den = kinetic + integrate(u2)
    return num / den


def coercivity_check(
    V: Potential, grid: GridSpec, trials: int = 64, seed: int = 0, kinetic: str = "fd"
) -> CoercivityResult:
    """Estimate the coercivity constant of the form grad^2 + V.

    Draws `trials` seeded random test fields and returns the minimum
    Rayleigh quotient over the sample, together with ok = (minimum > 0).
    The family mixes centered Gaussians with widths down to ~1.5 h (these
    probe the singularity), offset Gaussians, and few-blob mixtures with
    a slow cosine modulation.  A negative estimate is a valid answer: it
    certifies a field on which the form is negative at this coupling.

    The quotient is `rayleigh_quotient` with the Dirichlet form of the
    given kinetic.  Each trial is separable (`coercivity_trial`), so its
    mass and Dirichlet form come from its 1-D factors
    (`grid.separable_forms`); only integral V u^2 needs the node values.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    rng = np.random.default_rng(seed)
    v = V.sample(grid).values
    h3 = grid.h**3
    best = np.inf
    for k in range(trials):
        factors = coercivity_trial(grid, rng, k)
        mass, dirichlet = separable_forms(grid, *factors, kinetic)
        u = separable_values(*factors)
        potential = h3 * float(np.einsum("i,i,i->", v, u, u))
        best = min(best, (dirichlet + potential) / (dirichlet + mass))
    return CoercivityResult(float(best), bool(best > 0.0))
