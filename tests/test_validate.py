"""The `validate` suite: its checks pass on solved states and fail on bad ones."""

import dataclasses

import numpy as np
import pytest

import spgs.minimize
import spgs.validate
from spgs.grid import GridSpec, ScalarField
from spgs.minimize import SolverConfig, compare_with_vinf, find_ground_state
from spgs.potential import Constant, CoulombSingular
from spgs.validate import below_limit, monotone_in_v, positive, run_validation

@pytest.fixture(scope="module")
def grid():
    # the suite's box: its solves are radial wells from centred starts
    return GridSpec(L=6.0, n=16, symmetry="octant")


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(p=4.0, tol_residual=1e-6)


@pytest.fixture(scope="module")
def ground(grid, cfg):
    return find_ground_state(Constant(1.0), cfg, grid)


@pytest.fixture(scope="module")
def comparisons(grid, cfg):
    """The suite's comparisons for V = 1 - lam/|x|: lam = 0.5 (deep), then 0.25 (shallow)."""
    return tuple(compare_with_vinf(CoulombSingular(1.0, lam, 1), cfg, grid) for lam in (0.5, 0.25))


def test_suite_runs_the_three_checks_and_all_pass():
    # measured at p = 4: c 8.844620 <= bound 8.935155 < c_inf 12.146788, c(0.25) 10.470673
    results = run_validation()
    assert [r.name for r in results] == ["ground.positive", "ground.below-limit", "ground.monotone-in-V"]
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("p", [3.5, 4.5, 4.9])
def test_suite_passes_across_the_range_of_p(p):
    assert all(r.passed for r in run_validation(p=p))


def test_suite_solves_on_the_octant(grid, monkeypatch):
    grids = []
    solve = spgs.minimize.find_ground_state

    def recording(V, cfg, g, *u0):
        grids.append(g)
        return solve(V, cfg, g, *u0)

    monkeypatch.setattr(spgs.minimize, "find_ground_state", recording)
    monkeypatch.setattr(spgs.validate, "find_ground_state", recording)
    run_validation()
    assert {g.symmetry for g in grids} == {"octant"} and grids[0] == grid


def _with_node(field, k, value):
    values = field.values.copy()
    values[k] = value
    return ScalarField(field.grid, values)


def test_positive_fails_on_one_negative_node(ground):
    k = int(np.argmax(ground.u.values))
    flipped = dataclasses.replace(ground, u=_with_node(ground.u, k, -ground.u.values[k]))
    assert not positive(flipped).passed
    k = int(np.argmin(ground.phi.values))
    negative_phi = dataclasses.replace(ground, phi=_with_node(ground.phi, k, -ground.phi.values[k]))
    assert not positive(negative_phi).passed


def test_positive_fails_on_an_unconverged_state(grid):
    result = find_ground_state(Constant(1.0), SolverConfig(p=4.0, tol_residual=1e-6, max_iters=2), grid)
    assert result.status == "max-iters"
    check = positive(result)
    assert not check.passed and check.detail.startswith("max-iters in 2 iterations")


def test_below_limit_fails_when_c_exceeds_its_bound(grid, cfg, comparisons, monkeypatch):
    # lam = 0.25's level against the bound of the deeper lam = 0.5 well, which lies below it
    bound = spgs.minimize._limit_ray_max
    deeper = CoulombSingular(1.0, 0.5, 1)
    monkeypatch.setattr(spgs.minimize, "_limit_ray_max", lambda V, limit: bound(deeper, limit))
    crossed = compare_with_vinf(CoulombSingular(1.0, 0.25, 1), cfg, grid)
    # the limit solve starts from the lam = 0.25 state, so u_inf moves within the tolerance
    assert crossed.c == comparisons[1].c
    assert crossed.bound == pytest.approx(comparisons[0].bound, rel=1e-6)
    assert not crossed.bound_holds
    assert not below_limit(crossed).passed


def test_below_limit_fails_when_the_bound_reaches_c_inf(comparisons):
    deep = comparisons[0]
    assert not below_limit(dataclasses.replace(deep, bound=deep.c_inf)).passed


def test_monotone_in_v_fails_on_swapped_depths(comparisons):
    deep, shallow = comparisons
    assert not monotone_in_v(shallow, deep).passed
    assert not monotone_in_v(deep, dataclasses.replace(shallow, c=shallow.c_inf)).passed
