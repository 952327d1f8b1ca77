"""Independent 1-D radial cross-check of the 3-D solver.

For radially symmetric potentials the ground state can be computed on a
staggered radial mesh r_j = (j + 1/2) dr with a completely separate
discretization: shell-theorem sums for the Poisson solve, one link
difference u' per profile for the kinetic energy and its flux-form -Lap_r,
midpoint radial quadrature for the energies, and a tridiagonal Sobolev
preconditioner.  The mesh constants (nodes r, r^2 and the link weights
(j dr)^2) and the LAPACK factor of the preconditioner depend only on
(r_max, n_r); `_mesh` builds them once per mesh and every profile on
that mesh shares them.  None of the 3-D grid code is reused, which is
the point: agreement of the two ground levels validates both
discretizations.  Only the optimiser is shared: `radial_ground_state`
hands these operators to the projected descent `minimize._descend` that
the 3-D path runs.  The potential enters only as `Potential.profile` at
the mesh nodes, the formula the 3-D grid samples at its node radii; a
kind without a profile (tabulated, composite) is refused.

The radial Poisson formula is the two-sided accumulation

    phi(r) = (1/r) * int_0^r s^2 u(s)^2 ds + int_r^rmax s u(s)^2 ds,

summed by the same midpoint rule as the energies.  Its output is
nonnegative and non-increasing by construction, its exterior value equals
(enclosed mass)/r exactly in the discrete sums, and it is self-adjoint in
the r^2-weighted pairing, so the radial residual is the exact gradient of
the radial action, as the descent's curvature pairs require.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .functional import EnergyBreakdown
from .minimize import GaussianBlob, SolverConfig, _descend
from .potential import Potential

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class _Mesh:
    """Read-only constants of one staggered radial mesh, shared by its profiles."""

    r: np.ndarray  # nodes (j + 1/2) dr
    r2: np.ndarray  # r^2 at the nodes
    w: np.ndarray  # r^2 at the link midpoints j*dr, j = 1..n_r (zero-flux at r = 0)
    sobolev: tuple[np.ndarray, np.ndarray]  # dpttrf factor (d, e) of -lap_r + 1, symmetrized


@functools.lru_cache(maxsize=4)
def _mesh(r_max: float, n_r: int) -> _Mesh:
    """The constants of the mesh (r_max, n_r); the last few meshes used stay cached.

    The Sobolev matrix -lap_r + 1 is made symmetric by the sqrt(r^2)
    similarity D A D^-1 and factored by LAPACK dpttrf; `_radial_precondition`
    applies the factor with dpttrs, the two steps of the dptsv solve.
    """
    dr = r_max / n_r
    r = (np.arange(n_r) + 0.5) * dr
    r2 = r * r
    w = (np.arange(1, n_r + 1) * dr) ** 2
    diag = (w + np.concatenate(([0.0], w[:-1]))) / (dr * dr * r2) + 1.0
    upper = -w[:-1] / (dr * dr * np.sqrt(r2[:-1] * r2[1:]))
    d, e, info = dpttrf(diag, upper)
    if info != 0:
        raise np.linalg.LinAlgError(f"radial Sobolev matrix not positive definite (dpttrf info {info})")
    for a in (r, r2, w, d, e):
        a.setflags(write=False)
    return _Mesh(r, r2, w, (d, e))


@dataclass(frozen=True)
class RadialProfile:
    """Values on the staggered radial mesh r_j = (j + 1/2) * (r_max / n_r)."""

    r_max: float
    n_r: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.r_max <= 0:
            raise ValueError(f"need r_max > 0, got {self.r_max}")
        v = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.n_r:
            raise ValueError(f"profile length {v.size} != n_r = {self.n_r}")
        if not np.all(np.isfinite(v)):
            raise ValueError("profile values must all be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dr(self) -> float:
        return self.r_max / self.n_r

    @property
    def mesh(self) -> _Mesh:
        return _mesh(self.r_max, self.n_r)

    @property
    def nodes(self) -> np.ndarray:
        return self.mesh.r


def radial_solve_phi(u: RadialProfile) -> RadialProfile:
    """Shell-theorem Poisson solve by midpoint shell sums.

    phi_i = (1/r_i) sum_{j<=i} dr r_j^2 q_j + sum_{j>i} dr r_j q_j with
    q = u^2, the quadrature of `radial_quadrature`.  Its kernel
    r_i r_j min(r_i, r_j) is symmetric, so the map q -> phi is
    self-adjoint in the r^2-weighted pairing and phi u is the exact
    gradient of the B/4 term of the radial action.
    """
    r = u.nodes
    dr = u.dr
    q = u.values * u.values
    # enclosed mass through shell i, and the exterior sum beyond it
    m = np.cumsum(dr * r * r * q)
    t = np.zeros(u.n_r)
    t[:-1] = np.cumsum((dr * r * q)[:0:-1])[::-1]
    return RadialProfile(u.r_max, u.n_r, m / r + t)


def radial_quadrature(u: RadialProfile, integrand: np.ndarray) -> float:
    """4*pi * int f(r) r^2 dr by the midpoint rule on the staggered mesh."""
    return FOUR_PI * u.dr * float(np.sum(integrand * u.mesh.r2))


def _radial_kinetic(u: RadialProfile) -> tuple[float, np.ndarray]:
    """(4*pi * int u'^2 r^2 dr, -Lap_r u) from one link difference u' of u.

    u' lives on the links j*dr, j = 1..n_r, with no flux at r = 0 and a
    zero ghost value at r_max; -Lap_r u = -(1/r^2)(r^2 u')' in flux form.
    By summation by parts the r^2-weighted link sum of u'^2 equals the
    quadrature of u (-Lap_r u), so 2 (-Lap_r u) is its exact gradient in
    the r^2-weighted pairing.  The link sum is the one evaluated: its
    positive terms round better at the descent's rounding floor.
    """
    mesh = u.mesh
    dr = u.dr
    grad = np.diff(u.values, append=0.0) / dr
    energy = FOUR_PI * dr * float(np.sum(mesh.w * grad**2))
    return energy, -np.diff(mesh.w * grad, prepend=0.0) / (dr * mesh.r2)


def _radial_evaluate(u: RadialProfile, v_vals: np.ndarray, p: float, phi: RadialProfile):
    """(breakdown, -Lap_r u) at u from one evaluation of the kinetic term."""
    kin, mlap = _radial_kinetic(u)
    q = u.values * u.values
    a1 = kin + radial_quadrature(u, v_vals * q)
    b = radial_quadrature(u, phi.values * q)
    c = radial_quadrature(u, np.abs(u.values) ** (p + 1.0))
    h1 = math.sqrt(kin + radial_quadrature(u, q))
    return EnergyBreakdown(a1, b, c, p, h1), mlap


def radial_energy_breakdown(u: RadialProfile, v_vals: np.ndarray, p: float, phi: RadialProfile):
    """A1, B, C, the derived action values and the H^1 norm of the profile u."""
    return _radial_evaluate(u, v_vals, p, phi)[0]


def _radial_residual(u: RadialProfile, v_vals: np.ndarray, p: float, phi: RadialProfile):
    """(residual, its weighted L^2 norm, breakdown) at u, sharing one -Lap_r u."""
    eb, mlap = _radial_evaluate(u, v_vals, p, phi)
    r = mlap + (v_vals + phi.values) * u.values - np.sign(u.values) * np.abs(u.values) ** p
    norm = math.sqrt(FOUR_PI * u.dr * float(np.sum(r * r * u.mesh.r2)))
    return r, norm, eb


def _radial_precondition(res: np.ndarray, mesh: _Mesh) -> np.ndarray:
    """( -lap_r + 1 )^{-1} res by the mesh's factored tridiagonal."""
    # solve D A D^-1 (D x) = D res with D = diag(r)
    scaled, _ = dpttrs(*mesh.sobolev, res * mesh.r)
    return scaled / mesh.r


def radial_ground_state(
    V: Potential,
    p: float,
    r_max: float = 30.0,
    n_r: int = 2048,
    cfg: SolverConfig | None = None,
) -> tuple[RadialProfile, RadialProfile, float]:
    """Radial ground level by the same projected descent as the 3-D path.

    Returns (u, phi, c_radial).  The default initial profile is a
    Gaussian of width r_max/20; cfg controls p-independent knobs (step,
    tolerance, max_iters, init width through cfg.init when it is a blob).
    The exponent is always this call's p, never cfg.p.  Raises ValueError
    for p outside (3, 5), r_max <= 0 or n_r < 16 (the CLI's bounds).
    """
    if cfg is None:
        cfg = SolverConfig(p=p)
    if not 3.0 < p < 5.0:
        raise ValueError(f"exponent must lie in (3, 5), got p={p}")
    if not r_max > 0:
        raise ValueError(f"r_max must be positive, got r_max={r_max}")
    if n_r < 16:
        raise ValueError(f"n_r must be at least 16, got n_r={n_r}")

    mesh = _mesh(r_max, n_r)
    v_vals = V.profile(mesh.r)
    if v_vals is None:
        raise ValueError(
            "the radial path handles radially symmetric potentials only "
            f"(Constant or CoulombSingular), got {type(V).__name__}"
        )

    width = r_max / 20.0
    if isinstance(cfg.init, GaussianBlob) and cfg.init.width:
        width = cfg.init.width
    u0 = RadialProfile(r_max, n_r, np.exp(-mesh.r2 / (2.0 * width**2)))

    # radial_solve_phi and radial_energy_breakdown are looked up at call time
    u, eb, phi, *_ = _descend(
        u0,
        cfg,
        field=lambda values: RadialProfile(r_max, n_r, values),
        solve=lambda prof: radial_solve_phi(prof),
        breakdown=lambda prof, phi: radial_energy_breakdown(prof, v_vals, p, phi),
        residual=lambda prof, phi: _radial_residual(prof, v_vals, p, phi),
        precondition=lambda res: _radial_precondition(res, mesh),
        inner=lambda a, b: float(np.sum(mesh.r2 * a * b)),
    )
    return u, phi, eb.I


def write_radial_csv(u: RadialProfile, phi: RadialProfile, path) -> None:
    """Dump the paired profiles as CSV with columns r,u,phi."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,u,phi\n")
        for r, uv, pv in zip(u.nodes, u.values, phi.values):
            fh.write(f"{float(r)!r},{float(uv)!r},{float(pv)!r}\n")
