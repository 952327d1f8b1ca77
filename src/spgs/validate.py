"""Seeded invariant suite behind the `validate` run mode.

Each check exercises one structural property of the Poisson, functional,
radial or projection machinery on random fields and reports pass/fail
with a one-line detail.  The suite is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional import el_residual, energy_breakdown, precondition
from .grid import GridSpec, ScalarField
from .nehari import nehari_project, ray_max_check
from .poisson import interior_residual, solve_phi
from .potential import Constant, CoulombSingular, Tabulated
from .radial import (
    RadialProfile,
    _radial_evaluate,
    radial_energy_breakdown,
    radial_quadrature,
    radial_solve_phi,
)
from .sampling import gaussian_blob, random_smooth_field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_validation(seed: int = 0, p: float = 4.0) -> list[CheckResult]:
    """Run the full invariant suite on the L = 6, n = 16 box; one CheckResult per check."""
    grid = GridSpec(L=6.0, n=16)
    rng = np.random.default_rng(seed)
    fields = [random_smooth_field(grid, rng) for _ in range(8)]
    v_const = Constant(1.0).sample(grid)
    results: list[CheckResult] = []

    # --- poisson ---
    # scaling and positivity check the raw solve K, the one the descent and every reported phi use
    worst = 0.0
    for u in fields[:4]:
        base = solve_phi(u, residual_correction=False).values
        for t in (0.5, 2.0, 3.0):
            scaled = solve_phi(u.scaled(t), residual_correction=False).values
            worst = max(worst, float(np.max(np.abs(scaled - t * t * base) / np.abs(t * t * base))))
    results.append(CheckResult("poisson.quadratic-scaling", worst < 1e-12, f"max rel dev {worst:.2e}"))

    worst = math.inf
    for u in fields[:4]:
        phi = solve_phi(u, residual_correction=False).values
        worst = min(float(phi.min() / phi.max()), worst)
    results.append(CheckResult("poisson.positivity", worst >= -1e-10, f"min/max ratio {worst:.2e}"))

    worst = 0.0
    for u in fields[:4]:
        worst = max(worst, interior_residual(u, solve_phi(u)))
    results.append(CheckResult("poisson.interior-residual", worst <= 1e-8, f"max rel residual {worst:.2e}"))

    # B of a centred charge plus an off-centre pair of Gaussian charges
    # Q exp(-|x - c|^2 / w^2) against the continuum value
    # sum_ij Q_i Q_j erf(d_ij / s_ij) / (4 pi d_ij), s_ij^2 = w_i^2 + w_j^2.
    # Measured -1.5e-4, so the bound 1e-3 leaves a margin of 6.7x.
    charges = [
        (1.0, (0.0, 0.0, 0.0), 1.2),
        (0.5, (1.5, 0.5, 0.0), 1.0),
        (0.5, (-1.5, 0.0, -0.5), 1.0),
    ]
    density = sum(
        q / (math.pi**1.5 * w**3) * gaussian_blob(grid, c, w / math.sqrt(2.0)).values
        for q, c, w in charges
    )
    b = energy_breakdown(ScalarField(grid, np.sqrt(density)), v_const, p).B
    exact = 0.0
    for qi, ci, wi in charges:
        for qj, cj, wj in charges:
            d, s = math.dist(ci, cj), math.hypot(wi, wj)
            # the d -> 0 limit of erf(d/s)/d is 2/(sqrt(pi) s)
            exact += qi * qj * (math.erf(d / s) / d if d else 2.0 / (math.sqrt(math.pi) * s))
    exact /= 4.0 * math.pi
    dev = abs(b - exact) / exact
    results.append(CheckResult("poisson.gaussian-exact", dev < 1e-3, f"rel dev {dev:.2e} (raw solve)"))

    # ||phi_u||_D / ||u||_H1^2, from one breakdown per field: -Lap phi_u = u^2 gives
    # ||phi_u||_D^2 = integral |grad phi_u|^2 = integral phi_u u^2 = B.  The discrete
    # Dirichlet form of phi_u on the box would mostly measure the jump from phi_u's
    # 1/r tail on the outer node layer to the zero ghost beyond it.
    breakdowns = [energy_breakdown(u, v_const, p) for u in fields]
    ratios = [math.sqrt(eb.B) / eb.h1**2 for eb in breakdowns]
    results.append(
        CheckResult(
            "poisson.boundedness-constant",
            all(math.isfinite(x) and x > 0 for x in ratios),
            f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}]",
        )
    )

    # --- functional ---
    worst = 0.0
    for eb in breakdowns:
        worst = max(worst, abs(eb.I - eb.J - eb.G / (p + 1.0)) / max(abs(eb.I), 1e-30))
    results.append(CheckResult("functional.identity", worst < 1e-12, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u, eb in zip(fields[:3], breakdowns):
        for t in (0.5, 1.0, 2.0):
            fresh = energy_breakdown(u.scaled(t), v_const, p)
            ray = eb.at_scale(t)
            worst = max(worst, abs(fresh.I - ray.I) / max(abs(fresh.I), 1e-30))
    results.append(CheckResult("functional.homogeneity-ladder", worst < 1e-10, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:4]:
        r, _, eb = el_residual(u, v_const, p)
        ip = grid.h**3 * float(np.sum(r.values * u.values))
        worst = max(worst, abs(eb.G - ip) / max(abs(eb.G), 1e-30))
    results.append(CheckResult("functional.radial-derivative", worst < 1e-10, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:3]:
        v = random_smooth_field(grid, rng)
        r, _, _ = el_residual(u, v_const, p)
        ip = grid.h**3 * float(np.sum(r.values * v.values))
        eps = 1e-5
        i_plus = energy_breakdown(ScalarField(grid, u.values + eps * v.values), v_const, p).I
        i_minus = energy_breakdown(ScalarField(grid, u.values - eps * v.values), v_const, p).I
        fd = (i_plus - i_minus) / (2.0 * eps)
        worst = max(worst, abs(fd - ip) / max(abs(ip), 1e-30))
    results.append(CheckResult("functional.gradient", worst < 1e-6, f"max rel dev {worst:.2e}"))

    # the radial residual is the gradient of the radial action in the r^2 pairing
    r_max, n_r = 15.0, 512
    nodes = (np.arange(n_r) + 0.5) * (r_max / n_r)
    ones = np.ones(n_r)

    def radial_action(values: np.ndarray) -> float:
        prof = RadialProfile(r_max, n_r, values)
        return radial_energy_breakdown(prof, ones, p, radial_solve_phi(prof)).I

    worst = 0.0
    for _ in range(3):
        width = rng.uniform(1.0, 2.0)
        u = RadialProfile(r_max, n_r, rng.uniform(0.5, 2.0) * np.exp(-((nodes / width) ** 2) / 2.0))
        v = rng.standard_normal(n_r) * np.exp(-nodes / rng.uniform(1.0, 4.0))
        r, _, _ = _radial_evaluate(u, ones, p, radial_solve_phi(u), residual=True)
        ip = radial_quadrature(u, r * v)
        eps = 1e-5
        fd = (radial_action(u.values + eps * v) - radial_action(u.values - eps * v)) / (2.0 * eps)
        worst = max(worst, abs(fd - ip) / max(abs(ip), 1e-30))
    results.append(CheckResult("radial.gradient", worst < 1e-6, f"max rel dev {worst:.2e}"))

    ok = True
    for u in fields[:3]:
        r, _, _ = el_residual(u, v_const, p)
        pr = precondition(r)
        ok = ok and grid.h**3 * float(np.sum(pr.values * r.values)) > 0.0
    results.append(CheckResult("functional.precondition-positive", ok, "inner products positive"))

    # --- projection ---
    worst = 0.0
    ray_ok = True
    for u in fields[:4]:
        fs = nehari_project(u, v_const, p)
        sb = fs.scaled_breakdown
        worst = max(worst, abs(sb.G) / sb.magnitude)
        ray_ok = ray_ok and ray_max_check(fs)
    results.append(CheckResult("projection.on-manifold", worst < 1e-10, f"max |G|/scale {worst:.2e}"))
    results.append(CheckResult("projection.ray-maximum", ray_ok, "I(t u) <= I(t_bar u) on samples"))

    worst = 0.0
    for u in fields[:3]:
        t1 = nehari_project(u, v_const, p).t_bar
        t2 = nehari_project(u.scaled(2.0), v_const, p).t_bar
        worst = max(worst, abs(t2 - t1 / 2.0) / t1)
    results.append(CheckResult("projection.ray-invariance", worst < 1e-10, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:3]:
        fs = nehari_project(u, v_const, p)
        again = nehari_project(u.scaled(fs.t_bar), v_const, p)
        worst = max(worst, abs(again.t_bar - 1.0))
    results.append(CheckResult("projection.fixed-point", worst < 1e-10, f"max |t_bar - 1| {worst:.2e}"))

    # --- potential ---
    sing = CoulombSingular(1.0, 0.1, 1)
    v_sing = sing.sample(grid)
    # the grid eigen-solve on tabulated copies, not the closed form
    c = [
        Tabulated(CoulombSingular(1.0, lam, 1).sample(grid)).coercivity_constant(grid)
        for lam in (0.05, 0.1, 0.2)
    ]
    results.append(
        CheckResult(
            "potential.lambda-monotone",
            c[0] > c[1] > c[2],
            f"grid c_bar {c[0]:.4f} > {c[1]:.4f} > {c[2]:.4f}",
        )
    )
    below = float(np.mean(v_sing.values < sing.v_infinity() - 1e-12))
    results.append(
        CheckResult("potential.strictly-below-vinf", below >= 0.10, f"{below:.0%} of nodes below V_inf")
    )

    return results


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return lines
