"""Ground states of the coupled Schrodinger-Poisson system.

The package computes approximate ground levels and ground-state pairs
(u, phi_u) of

    -Lap u + V(x) u + phi u = |u|^(p-1) u,   -Lap phi = u^2   on R^3,

for 3 < p < 5, by minimizing the reduced action over the constraint
manifold G = 0 with projected, Sobolev-preconditioned descent on a
truncated staggered grid, and cross-validates against an independent
1-D radial implementation.
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
    kinetic_energy,
    precondition,
)
from .grid import (
    GridSpec,
    ScalarField,
    annulus_integral,
    boundary_mass_fraction,
    dirichlet_energy,
    gradient_squared,
    h1_norm,
    integrate,
    l2_norm,
    laplacian,
    lp_integral,
    radialize,
    read_field,
    write_field,
)
from .minimize import (
    GaussianBlob,
    GroundStateResult,
    SolverConfig,
    VinfComparison,
    annulus_mass_profile,
    compare_with_vinf,
    find_ground_state,
    ground_level_constant,
    mountain_pass_crosscheck,
    relative_asymmetry,
    shell_decay_ok,
)
from .nehari import (
    FiberScaling,
    fiber_root,
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
