"""Ground states of the coupled Schrodinger-Poisson system.

The package computes approximate ground levels and ground-state pairs
(u, phi_u) of

    -Lap u + V(x) u + phi u = |u|^(p-1) u,   -Lap phi = u^2   on R^3,

for 3 < p < 5, by minimizing the reduced action over the constraint
manifold G = 0 with projected L-BFGS descent, preconditioned in the
Sobolev metric, on a truncated staggered grid, and cross-validates
against an independent 1-D radial discretisation that shares only the
optimiser.
"""

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
    dirichlet_energy,
    h1_norm,
    integrate,
    l2_norm,
    lp_integral,
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
    ground_level_constant,
    mountain_pass_crosscheck,
    relative_asymmetry,
)
from .nehari import (
    FiberScaling,
    manifold_floor_check,
    nehari_project,
    ray_max_check,
)
from .poisson import double_integral_oracle, solve_phi
from .potential import (
    CoercivityResult,
    Composite,
    Constant,
    CoulombSingular,
    Potential,
    Tabulated,
    coercivity_check,
)
from .radial import RadialProfile, radial_ground_state, radial_solve_phi

__version__ = "0.1.0"
