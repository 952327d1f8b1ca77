"""Ground levels by projected, preconditioned L-BFGS descent.

Each iteration steps along a quasi-Newton direction and pulls the trial
field back onto the constraint manifold by the scalar fiber solve, so
every accepted iterate satisfies G = 0 to rounding and the reported level
is the action there.  The direction is the two-loop L-BFGS product over
the last three curvature pairs, taken between projected iterates, with
the Sobolev preconditioner as the initial inverse Hessian; it falls back
to the preconditioned gradient when it is not a descent direction or when
its line search fails.  Backtracking halves the step until the
re-projected action, taken on the trial field's ray (`ray_profile`), does
not rise.  The trace records the action re-evaluated at the accepted
iterate, which differs from that value by rounding, so the traced level
is not monotone: at the rounding floor it can rise by a few ulps.  One
Poisson solve per trial step is the dominant cost; the solve for the
scaled field is obtained exactly from quadratic homogeneity of the
nonlocal term rather than re-solved.

`_descend` is the package's only descent loop.  It sees the
discretisation through a few callables on its field type, so the 3-D box
here and the independent radial mesh in `radial.py` run the same
optimiser.

Runs refuse to start when the potential fails its coercivity probe (in
the run's kinetic), unless explicitly overridden.  Results carry the full per-iteration
trace and the shell-mass profile of the final state; for a converged
localized state the shell masses decay geometrically in the outer half
of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import NoDescentError, NonCoerciveError
from .functional import EnergyBreakdown, el_residual, energy_breakdown, precondition
from .grid import (
    GridSpec,
    ScalarField,
    annulus_integral,
    boundary_mass_fraction,
    gradient_squared,
    l2_norm,
    radialize,
    read_field,
)
from .nehari import _solve_fiber, nehari_project, ray_profile
from .poisson import solve_phi
from .potential import Constant, Potential, coercivity_check
from .sampling import gaussian_blob, random_smooth_field

_STEP_FLOOR_FACTOR = 1e-12
_COERCIVITY_TRIALS = 32
# curvature pairs (s, y) kept by the L-BFGS direction
_LBFGS_MEMORY = 3


@dataclass(frozen=True)
class GaussianBlob:
    """Initial guess: amplitude * exp(-|x - center|^2 / (2 width^2)).

    width defaults to L/6 of the run grid.
    """

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    width: float | None = None
    amplitude: float = 1.0


InitSpec = Union[GaussianBlob, str, Path]


@dataclass(frozen=True)
class SolverConfig:
    p: float = 4.0
    step: float = 1.0
    tol_residual: float = 1e-7
    max_iters: int = 500
    init: InitSpec = GaussianBlob()
    seed: int = 0
    starts: int = 1
    kinetic: str = "fd"

    def __post_init__(self) -> None:
        if not 3.0 < self.p < 5.0:
            raise ValueError(f"exponent must lie in (3, 5), got p={self.p}")
        if self.step <= 0:
            raise ValueError(f"initial step must be positive, got step={self.step}")
        if self.max_iters < 1:
            raise ValueError(f"need max_iters >= 1, got {self.max_iters}")
        if self.starts < 1:
            raise ValueError(f"need starts >= 1, got {self.starts}")


@dataclass(frozen=True)
class TraceRow:
    iter: int
    I: float
    G: float
    A1: float
    B: float
    C: float
    residual_l2: float
    step: float


@dataclass(frozen=True)
class GroundStateResult:
    u: ScalarField
    phi: ScalarField
    breakdown: EnergyBreakdown
    residual_norm: float
    iterations: int
    trace: tuple[TraceRow, ...]
    annulus_profile: tuple[tuple[int, float], ...]
    converged: bool
    status: str
    boundary_mass: float

    @property
    def c_estimate(self) -> float:
        return self.breakdown.I


def initial_field(init: InitSpec, grid: GridSpec) -> ScalarField:
    """The descent's first field: the Gaussian blob, or a field dump on the run grid."""
    if isinstance(init, GaussianBlob):
        width = init.width if init.width is not None else grid.L / 6.0
        return gaussian_blob(grid, init.center, width, init.amplitude)
    u = read_field(init)
    if u.grid != grid:
        raise ValueError(
            f"initial field grid (L={u.grid.L}, n={u.grid.n}) does not match the run grid"
        )
    return u


def annulus_mass_profile(u: ScalarField, phi: ScalarField) -> list[tuple[int, float]]:
    """Shell masses rho(A_r) of |grad u|^2 + u^2 + phi u^2 for r = 0..floor(L)-1."""
    g = u.grid
    density = ScalarField(
        g, gradient_squared(u).values + u.values**2 + phi.values * u.values**2
    )
    out = []
    for r in range(int(math.floor(g.L))):
        out.append((r, annulus_integral(density, float(r))))
    return out


def shell_decay_ok(profile: list[tuple[int, float]], L: float, ratio: float = 0.5) -> bool:
    """Geometric-decay check: each shell beyond r = L/2 at most `ratio` of the one before."""
    vals = dict(profile)
    radii = sorted(vals)
    for r_prev, r_next in zip(radii, radii[1:]):
        if r_next <= L / 2.0:
            continue
        if vals[r_next] > ratio * vals[r_prev]:
            return False
    return True


def relative_asymmetry(u: ScalarField) -> float:
    """||u - radialize(u)||_2 / ||u||_2; small for radially symmetric states."""
    diff = ScalarField(u.grid, u.values - radialize(u).values)
    denom = l2_norm(u)
    return l2_norm(diff) / denom if denom > 0 else 0.0


def _lbfgs_direction(r, pairs, precondition, inner):
    """Two-loop recursion: H r for the L-BFGS inverse Hessian H with H0 = precondition.

    Nocedal & Wright, Numerical Optimization, 2nd ed., Algorithm 7.4, with
    scaling gamma = 1.  Each pair is (s, y, rho) with rho = 1 / <s, y>, as
    `_descend` stores it.  The temporaries die on return, before the trial
    solves.
    """
    q = r
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * inner(s, q)
        q = q - a * y
        alphas.append(a)
    z = precondition(q)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        z = z + (a - rho * inner(y, z)) * s
    return z


def _descend(u0, cfg: SolverConfig, *, field, solve, breakdown, residual, precondition, inner):
    """Projected L-BFGS descent from u0; returns the last on-manifold iterate.

    The one descent loop of the package: the 3-D box and the radial mesh
    both run it.  The discretisation comes in as callables on its field
    type: `field(values)` wraps node values, `solve(u)` is the raw Poisson
    solve, `breakdown(u, phi)` gives the energies of u0 and of each trial
    field, `residual(u, phi)` returns (r, norm, breakdown) of an iterate
    with r as node values, the breakdown's h1 being the Sobolev norm of the
    stop test, `precondition(r)` gives the Sobolev gradient as node values,
    and `inner(a, b)` is the duality pairing of node values, in which the
    residual is the exact gradient of the action.  So each field is
    evaluated once: a trial field by `breakdown`, an iterate by `residual`.
    The fiber solve takes p from the breakdown, so the caller's energies
    fix the exponent.  Only cfg.step, cfg.tol_residual and cfg.max_iters
    are read here.

    The direction is the two-loop L-BFGS product (`_lbfgs_direction`) over
    the last _LBFGS_MEMORY curvature pairs, with `precondition` as the
    initial inverse Hessian.  A pair s = u_(k+1) - u_k, y = r_(k+1) - r_k is
    taken between projected iterates, the fiber projection serving as the
    retraction, skipped when <s, y> <= 0, and stored as (s, y, 1 / <s, y>).
    The preconditioned gradient replaces a direction with <d, r> <= 0.
    Every iteration backtracks from alpha = cfg.step until the re-projected
    action does not rise; when the quasi-Newton direction reaches the step
    floor, the memory is cleared and the iteration retried from the
    preconditioned gradient, and only a failed retry raises NoDescentError.

    Returns (u, breakdown, phi, residual norm, iterations, trace,
    converged, status).
    """
    phi = solve(u0)
    eb = breakdown(u0, phi)
    t0 = _solve_fiber(eb.A1, eb.B, eb.C, eb.p)
    u = field(t0 * u0.values)
    phi = field(t0 * t0 * phi.values)

    step_floor = _STEP_FLOOR_FACTOR * cfg.step

    def line_search(u, d, level):
        """(u, phi, alpha) of the first step along -d whose projection keeps I <= level, or None."""
        alpha = cfg.step
        while alpha >= step_floor:
            u_c = field(u.values - alpha * d)
            phi_c = solve(u_c)
            eb_c = breakdown(u_c, phi_c)
            if eb_c.C > 0.0 and eb_c.A1 > 0.0:
                t = _solve_fiber(eb_c.A1, eb_c.B, eb_c.C, eb_c.p)
                # ties accepted: near the rounding floor an exact match
                # still makes progress through the re-projection
                if float(ray_profile(eb_c, np.asarray(t))) <= level:
                    return field(t * u_c.values), field(t * t * phi_c.values), alpha
            alpha *= 0.5
        return None

    trace: list[TraceRow] = []
    pairs: list[tuple] = []
    previous = None
    last_step = 0.0
    converged = False
    status = "max-iters"
    iterations = 0
    rnorm = math.inf

    for k in range(cfg.max_iters + 1):
        r, rnorm, eb = residual(u, phi)
        trace.append(
            TraceRow(k, eb.I, eb.G, eb.A1, eb.B, eb.C, rnorm, last_step)
        )
        # stop on the residual relative to the Sobolev size of the iterate
        if rnorm <= cfg.tol_residual * eb.h1:
            converged = True
            status = "converged"
            iterations = k
            break
        if k == cfg.max_iters:
            iterations = k
            break

        if previous is not None:
            s, y = u.values - previous[0], r - previous[1]
            sy = inner(s, y)
            if sy > 0.0:
                pairs.append((s, y, 1.0 / sy))
                del pairs[:-_LBFGS_MEMORY]
            del s, y  # a skipped pair's arrays do not live through the trial solves
        previous = (u.values, r)

        d = _lbfgs_direction(r, pairs, precondition, inner) if pairs else None
        quasi = d is not None and inner(d, r) > 0.0
        if not quasi:
            d = precondition(r)
        step = line_search(u, d, eb.I)
        if step is None and quasi:
            # the curvature model misled the search: forget it, retry the gradient
            pairs.clear()
            d = precondition(r)
            step = line_search(u, d, eb.I)
        if step is None:
            raise NoDescentError(
                f"backtracking reached its floor at iteration {k} "
                f"(residual {rnorm:.3e}, level {eb.I:.12g})"
            )
        u, phi, last_step = step

    return u, eb, phi, rnorm, iterations, trace, converged, status


def find_ground_state(
    V: Potential,
    cfg: SolverConfig,
    grid: GridSpec,
    coercivity_override: bool = False,
) -> GroundStateResult:
    """Minimize the action over the constraint manifold.

    Starts from the configured initial field (default: unit Gaussian blob
    at the origin, width L/6), projects onto the manifold, and descends
    with preconditioned L-BFGS steps plus re-projection until the
    relative Euler-Lagrange residual drops below tol_residual.  With
    cfg.starts > 1 the descent is repeated from seeded jittered initial
    blobs and the lowest level wins.

    Raises NonCoerciveError when the potential fails its coercivity probe
    (bypass with coercivity_override=True), ZeroFieldError for a zero
    initial field, NoDescentError when backtracking stalls along the
    preconditioned gradient.  Hitting max_iters is not an error: the best
    iterate is returned flagged converged=False.
    """
    if not coercivity_override:
        probe = coercivity_check(
            V, grid, trials=_COERCIVITY_TRIALS, seed=cfg.seed, kinetic=cfg.kinetic
        )
        if not probe.ok:
            raise NonCoerciveError(
                f"coercivity probe failed (estimate {probe.c_bar_est:.6g}); "
                "pass coercivity_override=True to run anyway"
            )
    v_field = V.sample(grid)

    inits = [initial_field(cfg.init, grid)]
    if cfg.starts > 1:
        rng = np.random.default_rng(cfg.seed)
        base_width = grid.L / 6.0
        if isinstance(cfg.init, GaussianBlob) and cfg.init.width is not None:
            base_width = cfg.init.width
        for _ in range(cfg.starts - 1):
            center = tuple(rng.uniform(-grid.L / 6.0, grid.L / 6.0, size=3))
            width = base_width * float(rng.uniform(0.7, 1.4))
            inits.append(gaussian_blob(grid, center, width, 1.0))

    def residual(u, phi):
        r, rnorm, eb = el_residual(u, v_field, cfg.p, phi=phi, kinetic=cfg.kinetic)
        return r.values, rnorm, eb

    best = None
    for u0 in inits:
        # the hooks look solve_phi, energy_breakdown, el_residual and
        # precondition up at call time, so those attributes stay replaceable
        out = _descend(
            u0,
            cfg,
            field=lambda values: ScalarField(grid, values),
            solve=lambda u: solve_phi(u, residual_correction=False),
            breakdown=lambda u, phi: energy_breakdown(u, v_field, cfg.p, phi=phi, kinetic=cfg.kinetic),
            residual=residual,
            precondition=lambda r: precondition(ScalarField(grid, r)).values,
            # an elementwise sum, not a BLAS dot, whose rounding depends on
            # the thread count
            inner=lambda a, b: float(np.sum(a * b)),
        )
        if best is None or out[1].I < best[1].I:
            best = out
    u, eb, phi_conv, rnorm, iterations, trace, converged, status = best

    # the descent's raw sum for u, so the corrected phi runs no second convolution
    phi = solve_phi(u, raw=phi_conv)
    profile = annulus_mass_profile(u, phi)
    return GroundStateResult(
        u=u,
        phi=phi,
        breakdown=eb,
        residual_norm=rnorm,
        iterations=iterations,
        trace=tuple(trace),
        annulus_profile=tuple(profile),
        converged=converged,
        status=status,
        boundary_mass=boundary_mass_fraction(u),
    )


def ground_level_constant(
    lam: float, cfg: SolverConfig, grid: GridSpec, coercivity_override: bool = False
) -> float:
    """Ground level c(lam) for the constant potential V = lam > 0."""
    if lam <= 0:
        raise ValueError(f"constant level needs lam > 0, got lam={lam}")
    return find_ground_state(Constant(lam), cfg, grid, coercivity_override).c_estimate


def _refined_grid(grid: GridSpec, factor: float = 1.5) -> GridSpec:
    n = int(math.ceil(grid.n * factor))
    if grid.staggered and n % 2:
        n += 1
    return GridSpec(L=grid.L, n=n, staggered=grid.staggered)


@dataclass(frozen=True)
class VinfComparison:
    c: float
    c_inf: float
    strict: bool
    margin: float
    refinement_delta: float


def compare_with_vinf(
    V: Potential, cfg: SolverConfig, grid: GridSpec, coercivity_override: bool = False
) -> VinfComparison:
    """Compare the ground level of V against the constant limit problem.

    Solves both problems on the run grid and on a 1.5x-refined grid.  The
    resolved quantity is the gap c_inf - c, and its grid-refinement
    uncertainty is taken to be the movement of that gap between the two
    resolutions: absolute level errors are strongly correlated between
    the two potentials and cancel in the difference, so this is the
    honest noise floor of the comparison.  strict is asserted only when
    the refined gap exceeds three times that movement.  For a constant
    potential the two problems coincide and strict is False.
    """
    vinf = V.v_infinity()
    if vinf <= 0:
        raise ValueError(f"comparison needs v_infinity > 0, got {vinf}")
    fine = _refined_grid(grid)
    c_coarse = find_ground_state(V, cfg, grid, coercivity_override).c_estimate
    c_fine = find_ground_state(V, cfg, fine, coercivity_override).c_estimate
    ci_coarse = ground_level_constant(vinf, cfg, grid)
    ci_fine = ground_level_constant(vinf, cfg, fine)
    delta = abs((ci_fine - c_fine) - (ci_coarse - c_coarse))
    margin = 3.0 * delta
    return VinfComparison(
        c=c_fine,
        c_inf=ci_fine,
        strict=bool(ci_fine - c_fine > margin),
        margin=margin,
        refinement_delta=delta,
    )


def mountain_pass_crosscheck(
    V: Potential,
    cfg: SolverConfig,
    grid: GridSpec,
    trials: int = 20,
    seed: int = 0,
    coercivity_override: bool = False,
) -> tuple[float, float]:
    """Cross-check the constrained level against ray maxima.

    Returns (c_nehari, c_ray): the converged constrained minimum, and the
    smallest ray-maximum action over `trials` seeded random fields plus
    the converged minimizer itself.  c_ray >= c_nehari up to rounding,
    with equality attained through the minimizer.
    """
    if trials < 10:
        raise ValueError(f"need at least 10 trials, got trials={trials}")
    result = find_ground_state(V, cfg, grid, coercivity_override)
    c_nehari = result.c_estimate
    v_field = V.sample(grid)
    rng = np.random.default_rng(seed)
    c_ray = math.inf
    for _ in range(trials):
        u = random_smooth_field(grid, rng)
        fs = nehari_project(u, v_field, cfg.p, kinetic=cfg.kinetic)
        c_ray = min(c_ray, fs.scaled_breakdown.I)
    c_ray = min(c_ray, nehari_project(result.u, v_field, cfg.p, kinetic=cfg.kinetic).scaled_breakdown.I)
    return c_nehari, c_ray
