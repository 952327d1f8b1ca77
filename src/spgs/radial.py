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
the 3-D path runs.  So is the grid module's helper thread: on a mesh of
more than 65,536 nodes `grid._on_halves` runs the energies and residual
of a profile in two halves, one per thread, bit for bit the one thread's
levels.  The Poisson solve's two shell sums stay whole on the caller's
thread: a cumulative sum cut in two rounds differently.
The potential enters only as `Potential.profile` at the mesh
nodes, the formula the 3-D grid samples at its node radii; a kind
without a profile (tabulated, composite) is refused.

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
from .grid import _added, _on_halves, _sum_of_products
from .minimize import SolverConfig, _blob_width, _descend
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
    q = u.values * u.values
    x = np.multiply(r, u.dr)
    m = x * r
    m *= q  # dr r r q, summed from the centre: the mass through shell i
    x *= q  # dr r q, summed from the outside in: the sum beyond shell i
    t = np.zeros(u.n_r)
    np.cumsum(m, out=m)
    np.cumsum(x[:0:-1], out=t[-2::-1])
    m /= r
    m += t
    return RadialProfile(u.r_max, u.n_r, m)


def radial_quadrature(u: RadialProfile, integrand: np.ndarray) -> float:
    """4*pi * int f(r) r^2 dr by the midpoint rule on the staggered mesh."""
    return FOUR_PI * u.dr * float(np.sum(integrand * u.mesh.r2))


def _radial_evaluate(
    u: RadialProfile, v_vals: np.ndarray, p: float, phi: RadialProfile, residual: bool = False
):
    """(residual or None, its norm or None, breakdown) at u, the descent's residual order.

    All come from one link difference u'.

    u' lives on the links (j + 1) dr, one to the right of each node j, with
    no flux at r = 0 and a zero ghost value at r_max; -Lap_r u =
    -(1/r^2)(r^2 u')' in flux form.  By summation by parts the
    r^2-weighted link sum of u'^2 equals the quadrature of u (-Lap_r u),
    so 2 (-Lap_r u) is its exact gradient in the r^2-weighted pairing.
    The link sum, times 4*pi dr the kinetic energy, is the one evaluated:
    its positive terms round better at the descent's rounding floor.

    `grid._on_halves` runs one task on each half of the mesh: the link
    sum, the four quadratures of the breakdown and, with `residual`, the
    residual's nodes and its weighted sum of squares, in scratch rows
    allocated here, so the helper thread allocates no array.  The halves'
    sums added are the one-pass sums bit for bit; a half's first node
    recomputes the flux on the link before it from the same nodes.
    """
    n = u.n_r
    dr = u.dr
    mesh = u.mesh
    uv, pv = u.values, phi.values
    res = np.empty(n) if residual else None
    scratch = np.empty((2 if residual else 1, n))

    def share(sl):
        lo, hi = sl.start, sl.stop
        # g, the last scratch row, keeps u' for the residual's flux; without it g is t
        t, g = scratch[0][sl], scratch[-1][sl]
        w, r2, x = mesh.w[sl], mesh.r2[sl], uv[sl]
        # u' on the links of the nodes sl, the last one reading the zero ghost beyond r_max
        within = min(hi, n - 1) - lo
        np.subtract(uv[lo + 1 : lo + 1 + within], uv[lo : lo + within], out=g[:within])
        np.subtract(0.0, uv[n - 1 : hi], out=g[within:])
        g /= dr
        sums = [np.sum(np.multiply(np.square(g, out=t), w, out=t))]
        for f in (v_vals[sl], pv[sl]):
            np.multiply(x, x, out=t)
            t *= f
            sums.append(np.sum(np.multiply(t, r2, out=t)))
        np.abs(x, out=t)
        t **= p + 1.0
        sums.append(np.sum(np.multiply(t, r2, out=t)))
        sums.append(np.sum(np.multiply(np.multiply(x, x, out=t), r2, out=t)))
        if res is not None:
            rs = res[sl]
            g *= w  # the flux r^2 u'
            before = mesh.w[lo - 1] * ((uv[lo] - uv[lo - 1]) / dr) if lo else 0.0
            np.subtract(g[1:], g[:-1], out=rs[1:])
            rs[0] = g[0] - before
            np.negative(rs, out=rs)
            rs /= np.multiply(r2, dr, out=t)
            np.add(v_vals[sl], pv[sl], out=t)
            t *= x
            rs += t
            np.abs(x, out=t)
            t **= p
            t *= np.sign(x, out=g)
            rs -= t
            sums.append(np.sum(np.multiply(np.multiply(rs, rs, out=t), r2, out=t)))
        return sums

    links, vq, phiq, c, mass, *squares = _added(_on_halves(share, n))
    scale = FOUR_PI * dr
    kin = scale * links
    eb = EnergyBreakdown(kin + scale * vq, scale * phiq, scale * c, p, math.sqrt(kin + scale * mass))
    if res is None:
        return None, None, eb
    return res, math.sqrt(scale * squares[0]), eb


def radial_energy_breakdown(u: RadialProfile, v_vals: np.ndarray, p: float, phi: RadialProfile):
    """A1, B, C, the derived action values and the H^1 norm of the profile u."""
    return _radial_evaluate(u, v_vals, p, phi)[2]


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

    Returns (u, phi, c_radial).  The initial profile is the Gaussian of
    the 3-D default start, width `minimize.ritz_width(V.v_infinity(), p,
    r_max / n_r, r_max)`, unless cfg.init is a blob that sets its own
    width.  Of cfg only tol_residual, max_iters and that width are read.
    The exponent is always this call's p, never cfg.p.

    The descent's status is not returned: a run that reaches max_iters
    returns its last level as a converged one does, with no flag.  Raises
    NoDescentError when the descent fails at the rounding floor
    (`minimize._descend`), ValueError for p outside (3, 5), r_max <= 0 or
    n_r < 16 (the CLI's bounds).
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

    width = _blob_width(cfg.init, V.v_infinity(), p, r_max / n_r, r_max)
    u0 = RadialProfile(r_max, n_r, np.exp(-mesh.r2 / (2.0 * width**2)))

    # radial_solve_phi and radial_energy_breakdown are looked up at call time
    u, eb, phi, *_ = _descend(
        u0,
        cfg,
        field=lambda values: RadialProfile(r_max, n_r, values),
        solve=lambda prof: radial_solve_phi(prof),
        breakdown=lambda prof, phi: radial_energy_breakdown(prof, v_vals, p, phi),
        residual=lambda prof, phi: _radial_evaluate(prof, v_vals, p, phi, residual=True),
        precondition=lambda res: _radial_precondition(res, mesh),
        inner=lambda a, b: _sum_of_products(a, b, mesh.r2),
    )
    return u, phi, eb.I


def write_radial_csv(u: RadialProfile, phi: RadialProfile, path) -> None:
    """Dump the paired profiles as CSV with columns r,u,phi."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,u,phi\n")
        for r, uv, pv in zip(u.nodes, u.values, phi.values):
            fh.write(f"{float(r)!r},{float(uv)!r},{float(pv)!r}\n")
