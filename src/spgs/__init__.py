"""Ground states of the coupled Schrodinger-Poisson system.

The package computes approximate ground levels and ground-state pairs
(u, phi_u) of

    -Lap u + V(x) u + phi u = |u|^(p-1) u,   -Lap phi = u^2   on R^3,

for 3 < p < 5, by minimizing the reduced action over the constraint
manifold G = 0 with projected L-BFGS descent, preconditioned in the
Sobolev metric, on a truncated cell-centred grid, and cross-validates
against an independent 1-D radial discretisation that shares only the
optimiser.

A grid with `symmetry="octant"` stores the positive octant of the box,
an eighth of its nodes, and solves in the subspace of fields that equal
their mirror images in x, y and z; every 3-D layer then runs in that
basis (see `spgs.grid`).  Library calls keep the full box unless asked.
The CLI picks the octant for a run with one start whose sampled
potential and start both equal their mirror images bit for bit: a
radial well from a centred start does wherever the node coordinates
mirror exactly (L = 4 at n = 16, 32 and 64, L = 6 at n = 16, 24, 32,
48, 64 and 96, but not L = 4 at n = 24, 48 or 96).  Its field dumps
are unfolded to the full box.  By Palais' principle of symmetric
criticality (Comm. Math. Phys. 69 (1979) 19-30) a critical point found
there is a critical point of the action, so `converged` keeps its
meaning, but its level is the least over mirror-even states:
c_oct >= c_box.

The 3-D path resolves levels only up to about p = 4.2-4.3 on affordable
grids (up to n = 96 at L = 4, h = 0.083).  The ground state's core
narrows as p -> 5, and holding the mesh widths per core half-width that
give p = 4 a level error of 5e-4 needs h = 0.040 at p = 4.5.  That
limit is an estimate from radial core half-widths interpolated in p,
not a measurement.

Importing the package, or `spgs.cli`, loads numpy and no scipy, and a
3-D solve loads none either: its sine transforms are products with a
cached sine matrix, and its erf tables come from `math.erf`.  scipy has
two users.  `spgs.radial` factors its tridiagonal systems with scipy's
LAPACK; the package imports it on the first lookup of `RadialProfile`, `radial_ground_state` or
`radial_solve_phi`.  The grid eigen-solve of `Tabulated` and `Composite`
potentials imports scipy.sparse.linalg's lobpcg when it runs.

Importing the package sets OPENBLAS_NUM_THREADS to 1 unless the caller
has set it, before numpy loads, so numpy's and scipy's OpenBLAS start no
worker thread.  The 3-D path's BLAS calls are slab products small
enough that OpenBLAS runs them on one thread anyway, and the second core
belongs to the `spgs-helper` thread that runs half of each n^3 pass
(`grid`).  An idle OpenBLAS worker busy-waits for about 0.13 s after
it loads, on that core.  The caller's own setting wins, and the default
has no effect in a process that loaded numpy before importing spgs.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ConfigError,
    NoDescentError,
    NonCoerciveError,
    SpgsError,
    ZeroFieldError,
)
from .functional import (
    EnergyBreakdown,
    el_residual,
    energy_breakdown,
    precondition,
)
from .grid import (
    GridSpec,
    ScalarField,
    boundary_mass_fraction,
    minus_laplacian,
    radialize,
    read_field,
    write_field,
)
from .minimize import (
    GaussianBlob,
    GroundStateResult,
    SolverConfig,
    VinfComparison,
    compare_with_vinf,
    find_ground_state,
    relative_asymmetry,
)
from .nehari import (
    FiberScaling,
    nehari_project,
    ray_max_check,
)
from .poisson import solve_phi
from .potential import (
    CoercivityResult,
    Composite,
    Constant,
    CoulombSingular,
    Potential,
    Tabulated,
    coercivity_check,
)

__version__ = "0.1.0"

_RADIAL_NAMES = frozenset({"RadialProfile", "radial_ground_state", "radial_solve_phi"})


def __getattr__(name: str):
    # PEP 562: the radial solver, and with it scipy, loads on first use
    if name in _RADIAL_NAMES:
        from . import radial

        return getattr(radial, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
