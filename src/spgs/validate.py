"""The `validate` run mode: the paper's claims, checked on solved states.

Three statements about the ground state hold on every grid, so the suite
solves on the L = 6, n = 16 box at tolerance 1e-6 and the run's p:

- `ground.positive`: the V = 1 descent ends `converged`, and u > 0 and
  phi_u > 0 at every node;
- `ground.below-limit`: for V = 1 - 0.5/|x|, the test-function chain
  c <= max_t I_V(t u_inf) < c_inf of `compare_with_vinf` holds;
- `ground.monotone-in-V`: the level falls as the well deepens,
  c(0.5) < c(0.25) < c_inf for V = 1 - lam/|x|.

Each check is a function of the results it judges, so a test can hand
it a bad one.  The suite has no random input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grid import GridSpec
from .minimize import GroundStateResult, SolverConfig, VinfComparison, compare_with_vinf, find_ground_state
from .potential import Constant, CoulombSingular


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def positive(result: GroundStateResult) -> CheckResult:
    """The descent converged to a state with u > 0 and phi_u > 0 at every node."""
    u_min, phi_min = float(result.u.values.min()), float(result.phi.values.min())
    return CheckResult(
        "ground.positive",
        result.converged and u_min > 0.0 and phi_min > 0.0,
        f"{result.status} in {result.iterations} iterations, min u {u_min:.3e}, min phi {phi_min:.3e}",
    )


def below_limit(cmp: VinfComparison) -> CheckResult:
    """c <= max_t I_V(t u_inf) < c_inf, the paper's test-function argument."""
    return CheckResult(
        "ground.below-limit",
        cmp.bound_holds and cmp.bound < cmp.c_inf,
        f"c {cmp.c:.6f} <= bound {cmp.bound:.6f} < c_inf {cmp.c_inf:.6f}",
    )


def monotone_in_v(deep: VinfComparison, shallow: VinfComparison) -> CheckResult:
    """The deeper well's level lies below the shallower's, which lies below c_inf."""
    return CheckResult(
        "ground.monotone-in-V",
        deep.c < shallow.c < shallow.c_inf,
        f"c {deep.c:.6f} < {shallow.c:.6f} < c_inf {shallow.c_inf:.6f}",
    )


def run_validation(p: float = 4.0) -> list[CheckResult]:
    """Solve on the L = 6, n = 16 box and run the three checks; one CheckResult each."""
    grid = GridSpec(L=6.0, n=16, symmetry="octant")
    cfg = SolverConfig(p=p, tol_residual=1e-6)
    deep, shallow = (compare_with_vinf(CoulombSingular(1.0, lam, 1), cfg, grid) for lam in (0.5, 0.25))
    return [
        positive(find_ground_state(Constant(1.0), cfg, grid)),
        below_limit(deep),
        monotone_in_v(deep, shallow),
    ]


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return lines
