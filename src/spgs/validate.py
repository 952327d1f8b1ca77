"""Seeded invariant suite behind the `validate` run mode.

Each check exercises one structural property of the Poisson, functional
or projection machinery on random fields and reports pass/fail with a
one-line detail.  The suite is deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional import el_residual, energy_breakdown, precondition
from .grid import GridSpec, ScalarField, dirichlet_energy, h1_norm
from .nehari import nehari_project, ray_max_check
from .poisson import double_integral_oracle, interior_residual, solve_phi
from .potential import Constant, CoulombSingular, rayleigh_quotient
from .sampling import random_smooth_field


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def run_validation(seed: int = 0, n: int = 16, L: float = 6.0, p: float = 4.0) -> list[CheckResult]:
    """Run the full invariant suite; returns one CheckResult per check."""
    grid = GridSpec(L=L, n=n)
    rng = np.random.default_rng(seed)
    fields = [random_smooth_field(grid, rng) for _ in range(8)]
    v_const = Constant(1.0).sample(grid)
    results: list[CheckResult] = []

    # --- poisson ---
    worst = 0.0
    for u in fields[:4]:
        base = solve_phi(u).values
        for t in (0.5, 2.0, 3.0):
            scaled = solve_phi(u.scaled(t)).values
            worst = max(worst, float(np.max(np.abs(scaled - t * t * base) / np.abs(t * t * base))))
    results.append(_check("poisson.quadratic-scaling", worst < 1e-12, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:4]:
        phi = solve_phi(u).values
        worst = min(float(phi.min() / phi.max()), worst)
    results.append(_check("poisson.positivity", worst >= -1e-10, f"min/max ratio {worst:.2e}"))

    worst = 0.0
    for u in fields[:4]:
        worst = max(worst, interior_residual(u, solve_phi(u)))
    results.append(_check("poisson.interior-residual", worst <= 1e-8, f"max rel residual {worst:.2e}"))

    worst = 0.0
    for u in fields[:3]:
        b = energy_breakdown(u, v_const, p).B
        target = double_integral_oracle(u) / (4.0 * math.pi)
        worst = max(worst, abs(b - target) / abs(target))
    results.append(
        _check("poisson.oracle-identity", worst < 1e-10, f"max rel dev {worst:.2e} (raw kernel sum)")
    )

    worst = 0.0
    for u in fields[:3]:
        b = energy_breakdown(u, v_const, p, phi=solve_phi(u)).B
        target = double_integral_oracle(u) / (4.0 * math.pi)
        worst = max(worst, abs(b - target) / abs(target))
    results.append(
        _check("poisson.oracle-consistency", worst < 0.02, f"max rel dev {worst:.2e} (corrected)")
    )

    ratios = [
        math.sqrt(dirichlet_energy(solve_phi(u, residual_correction=False))) / h1_norm(u) ** 2
        for u in fields
    ]
    results.append(
        _check(
            "poisson.boundedness-constant",
            all(math.isfinite(x) and x > 0 for x in ratios),
            f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}]",
        )
    )

    # --- functional ---
    worst = 0.0
    for u in fields:
        eb = energy_breakdown(u, v_const, p)
        worst = max(worst, abs(eb.I - eb.J - eb.G / (p + 1.0)) / max(abs(eb.I), 1e-30))
    results.append(_check("functional.identity", worst < 1e-12, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:3]:
        eb = energy_breakdown(u, v_const, p)
        for t in (0.5, 1.0, 2.0):
            fresh = energy_breakdown(u.scaled(t), v_const, p)
            ray = eb.at_scale(t)
            worst = max(worst, abs(fresh.I - ray.I) / max(abs(fresh.I), 1e-30))
    results.append(_check("functional.homogeneity-ladder", worst < 1e-10, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:4]:
        eb = energy_breakdown(u, v_const, p)
        r, _ = el_residual(u, v_const, p)
        ip = grid.h**3 * float(np.sum(r.values * u.values))
        worst = max(worst, abs(eb.G - ip) / max(abs(eb.G), 1e-30))
    results.append(_check("functional.radial-derivative", worst < 1e-10, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:3]:
        v = random_smooth_field(grid, rng)
        r, _ = el_residual(u, v_const, p)
        ip = grid.h**3 * float(np.sum(r.values * v.values))
        eps = 1e-5
        i_plus = energy_breakdown(ScalarField(grid, u.values + eps * v.values), v_const, p).I
        i_minus = energy_breakdown(ScalarField(grid, u.values - eps * v.values), v_const, p).I
        fd = (i_plus - i_minus) / (2.0 * eps)
        worst = max(worst, abs(fd - ip) / max(abs(ip), 1e-30))
    results.append(_check("functional.gradient", worst < 1e-6, f"max rel dev {worst:.2e}"))

    ok = True
    for u in fields[:3]:
        r, _ = el_residual(u, v_const, p)
        pr = precondition(r)
        ok = ok and grid.h**3 * float(np.sum(pr.values * r.values)) > 0.0
    results.append(_check("functional.precondition-positive", ok, "inner products positive"))

    # --- projection ---
    worst = 0.0
    ray_ok = True
    for u in fields[:4]:
        fs = nehari_project(u, v_const, p)
        sb = fs.scaled_breakdown
        worst = max(worst, abs(sb.G) / sb.magnitude)
        ray_ok = ray_ok and ray_max_check(u, fs, v_const, p)
    results.append(_check("projection.on-manifold", worst < 1e-10, f"max |G|/scale {worst:.2e}"))
    results.append(_check("projection.ray-maximum", ray_ok, "I(t u) <= I(t_bar u) on samples"))

    worst = 0.0
    for u in fields[:3]:
        t1 = nehari_project(u, v_const, p).t_bar
        t2 = nehari_project(u.scaled(2.0), v_const, p).t_bar
        worst = max(worst, abs(t2 - t1 / 2.0) / t1)
    results.append(_check("projection.ray-invariance", worst < 1e-10, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for u in fields[:3]:
        fs = nehari_project(u, v_const, p)
        again = nehari_project(u.scaled(fs.t_bar), v_const, p)
        worst = max(worst, abs(again.t_bar - 1.0))
    results.append(_check("projection.fixed-point", worst < 1e-10, f"max |t_bar - 1| {worst:.2e}"))

    # --- potential ---
    sing = CoulombSingular(1.0, 0.1, 1)
    v_sing = sing.sample(grid)
    u = fields[0]
    quotients = []
    for lam in (0.05, 0.1, 0.2):
        v_lam = CoulombSingular(1.0, lam, 1).sample(grid)
        quotients.append(rayleigh_quotient(u, v_lam))
    results.append(
        _check(
            "potential.lambda-monotone",
            quotients[0] > quotients[1] > quotients[2],
            f"quotients {quotients[0]:.4f} > {quotients[1]:.4f} > {quotients[2]:.4f}",
        )
    )
    below = float(np.mean(v_sing.values < sing.v_infinity() - 1e-12))
    results.append(
        _check("potential.strictly-below-vinf", below >= 0.10, f"{below:.0%} of nodes below V_inf")
    )

    return results


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return lines
