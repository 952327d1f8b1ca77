"""Descent loop, ground levels, comparisons, diagnostics."""

import math
import threading
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import spgs.functional
import spgs.grid
import spgs.minimize
import spgs.poisson
from spgs.errors import NoDescentError, NonCoerciveError, ZeroFieldError
from spgs.grid import GridSpec, ScalarField
from spgs.functional import energy_breakdown
from spgs.minimize import (
    GaussianBlob,
    SolverConfig,
    _gaussian_energies,
    _ray_max_slope,
    compare_with_vinf,
    find_ground_state,
    relative_asymmetry,
    ritz_width,
)
from spgs.nehari import _solve_fiber, nehari_project
from spgs.poisson import solve_phi
from spgs.sampling import gaussian_blob
from spgs.potential import CoercivityResult, Constant, CoulombSingular, Tabulated
from spgs.radial import radial_ground_state


@pytest.fixture(scope="module")
def quick_cfg():
    return SolverConfig(
        p=4.0,
        tol_residual=1e-6,
        max_iters=400,
        init=GaussianBlob(width=0.5),
    )


@pytest.fixture(scope="module")
def quick_grid():
    return GridSpec(L=2.5, n=24, kinetic="spectral")


@pytest.fixture(scope="module")
def ground_state(quick_cfg, quick_grid):
    return find_ground_state(Constant(1.0), quick_cfg, quick_grid)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(p=5.5)
        for tol in (-1e-7, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol_residual"):
                SolverConfig(tol_residual=tol)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(starts=0)


class TestFindGroundState:
    def test_zero_init_raises(self, quick_cfg, quick_grid):
        cfg = SolverConfig(p=4.0, max_iters=10)
        with pytest.raises(ZeroFieldError):
            find_ground_state(Constant(1.0), cfg, quick_grid, ScalarField.zeros(quick_grid))

    @pytest.mark.parametrize("other", [GridSpec(L=3.0, n=24), GridSpec(L=2.5, n=16)], ids=["L", "n"])
    def test_start_field_on_another_grid_raises(self, quick_cfg, quick_grid, other):
        u0 = ScalarField.from_function(other, lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
        with pytest.raises(ValueError, match="does not match the run grid"):
            find_ground_state(Constant(1.0), quick_cfg, quick_grid, u0)

    def test_converged_state_contracts(self, ground_state, quick_cfg):
        res = ground_state
        assert res.converged and res.status == "converged"
        # residual meets the configured tolerance (relative to the H^1 norm the descent compared)
        assert res.residual_norm <= quick_cfg.tol_residual * res.breakdown.h1
        # the returned iterate lies on the constraint manifold
        eb = res.breakdown
        assert abs(eb.G) <= 1e-9 * eb.magnitude
        assert res.c_estimate == eb.I
        # level equals J on the manifold
        assert abs(eb.I - eb.J) <= 1e-9 * abs(eb.I)

    def test_monotone_level_trace(self, ground_state):
        levels = [row.I for row in ground_state.trace]
        assert all(b <= a for a, b in zip(levels[5:], levels[6:]))

    def test_trace_rows_complete(self, ground_state):
        row = ground_state.trace[-1]
        for name in ("iter", "I", "G", "A1", "B", "C", "residual_l2", "step"):
            assert hasattr(row, name)

    def test_max_iters_returns_flagged(self, quick_grid):
        cfg = SolverConfig(p=4.0, max_iters=3, init=GaussianBlob(width=0.5))
        res = find_ground_state(Constant(1.0), cfg, quick_grid)
        assert not res.converged
        assert res.status == "max-iters"
        assert res.iterations == 3

    def test_determinism_bit_for_bit(self, quick_cfg, quick_grid):
        a = find_ground_state(Constant(1.0), quick_cfg, quick_grid)
        b = find_ground_state(Constant(1.0), quick_cfg, quick_grid)
        assert np.array_equal(a.u.values, b.u.values)
        assert a.c_estimate == b.c_estimate
        assert [r.I for r in a.trace] == [r.I for r in b.trace]

    def test_noncoercive_gate(self, quick_grid):
        cfg = SolverConfig(p=4.0, max_iters=10)
        with pytest.raises(NonCoerciveError):
            find_ground_state(CoulombSingular(1.0, 10.0, 2), cfg, quick_grid)

    def test_probe_uses_the_run_kinetic(self, quick_cfg, quick_grid, monkeypatch):
        seen = []

        def check(V, grid):
            seen.append(grid.kinetic)
            return CoercivityResult(-1.0, False)

        monkeypatch.setattr(spgs.minimize, "coercivity_check", check)
        with pytest.raises(NonCoerciveError):
            find_ground_state(Constant(1.0), quick_cfg, quick_grid)
        assert seen == ["spectral"]

    def test_hydrogen_bound_refuses_before_any_poisson_solve(self, monkeypatch):
        # 1 - 2.1/|x| has c_bar = 1 - 2.1/2 < 0 on R^3 (the hydrogen bound)
        def no_solve(*args, **kwargs):
            raise AssertionError("the coercivity gate must refuse before the descent")

        monkeypatch.setattr(spgs.minimize, "solve_phi", no_solve)
        cfg = SolverConfig(p=4.0)
        with pytest.raises(NonCoerciveError, match="c_bar = -0.05"):
            find_ground_state(CoulombSingular(1.0, 2.1, 1), cfg, GridSpec(L=6.0, n=32, kinetic="spectral"))

    def test_override_gets_past_gate(self, quick_cfg, quick_grid):
        # a coercive singular potential with the probe bypassed still runs
        res = find_ground_state(
            CoulombSingular(1.0, 0.05, 1), replace(quick_cfg, coercivity_override=True), quick_grid
        )
        assert res.converged

    def test_phi_is_the_raw_solve(self, ground_state):
        # the phi the level's B pairs with u^2, not the defect-corrected solve
        fresh = solve_phi(ground_state.u, residual_correction=False).values
        assert np.max(np.abs(ground_state.phi.values - fresh)) <= 1e-13 * np.max(fresh)

    def test_radial_symmetry_of_constant_potential_state(self, ground_state):
        assert relative_asymmetry(ground_state.u) <= 1e-2

    def test_multi_start_returns_best(self, quick_grid):
        cfg1 = SolverConfig(p=4.0, tol_residual=1e-6, max_iters=400, init=GaussianBlob(width=0.5))
        cfg3 = replace(cfg1, starts=3, seed=5)
        c1 = find_ground_state(Constant(1.0), cfg1, quick_grid).c_estimate
        c3 = find_ground_state(Constant(1.0), cfg3, quick_grid).c_estimate
        assert c3 <= c1 + 1e-9 * abs(c1)

    def test_off_center_init_returns_to_center(self, quick_grid):
        # blob started at |x| = L/2 relaxes to the centered state
        cfg = SolverConfig(
            p=4.0,
            tol_residual=1e-6,
            max_iters=600,
            init=GaussianBlob(center=(1.25, 0.0, 0.0), width=0.5),
        )
        res = find_ground_state(Constant(1.0), cfg, quick_grid)
        q = res.u.values ** 2
        x = quick_grid.coords()[0].ravel(order="F")
        centroid = float(np.sum(x * q) / np.sum(q))
        assert abs(centroid) < 0.2
        assert res.boundary_mass < 1e-3

    def test_pohozaev_sign_flags_the_multi_start_spike(self):
        """A lattice spike reads P < 0, the centred state P > 0.

        With four starts at L = 4, n = 32 the descent crowns a spike at
        I = 5.4056 (P/mag = -2.40e-2) over the centred state the single
        start finds at I = 9.4485 (+2.25e-2).  The sign does not flag every
        unresolved state: the off-centre state of
        `test_off_center_init_returns_to_center` reads +8.9e-3.
        """
        grid = GridSpec(L=4.0, n=32)
        spike = find_ground_state(Constant(1.0), SolverConfig(p=4.0, starts=4), grid)
        centred = find_ground_state(Constant(1.0), SolverConfig(p=4.0), grid)
        assert spike.c_estimate < centred.c_estimate
        assert spike.pohozaev < 0.0 < centred.pohozaev

    def test_pohozaev_is_nan_without_a_closed_form_virial(self):
        grid = GridSpec(L=4.0, n=16)
        res = find_ground_state(Tabulated(Constant(1.0).sample(grid)), SolverConfig(p=4.0), grid)
        assert res.converged
        assert math.isnan(res.pohozaev)


class TestGroundLevelConstant:
    def test_level_ordering_small_case(self, quick_cfg, quick_grid):
        c1 = find_ground_state(Constant(1.0), quick_cfg, quick_grid).c_estimate
        c2 = find_ground_state(Constant(2.0), quick_cfg, quick_grid).c_estimate
        assert c1 < c2


class TestCompareWithVinf:
    def test_constant_potential_not_strict(self, quick_grid, monkeypatch):
        cfg = SolverConfig(p=4.0, tol_residual=1e-6, max_iters=400, init=GaussianBlob(width=0.5))
        solves = _recorded_solves(monkeypatch)
        cmp_result = compare_with_vinf(Constant(1.0), cfg, quick_grid)
        # V = V_inf: V's problem is the limit's, so one solve per grid
        assert [r.u.grid.n for r in solves] == [24, 36]
        assert not cmp_result.strict
        assert cmp_result.c == cmp_result.c_inf == solves[1].c_estimate
        # V = V_inf: the bound is the limit state's own ray maximum, c itself,
        # evaluated at a fiber root within 1e-13 of t = 1 (measured: one ulp apart)
        assert cmp_result.bound == pytest.approx(cmp_result.c, rel=1e-15, abs=0.0)
        assert abs(cmp_result.bound_excess) <= 1e-15 and cmp_result.bound_holds

    def test_rejects_nonpositive_vinf(self, quick_cfg, quick_grid):
        with pytest.raises(ValueError):
            compare_with_vinf(Constant(-1.0), replace(quick_cfg, coercivity_override=True), quick_grid)

    # (c, bound, c_inf) on the run grid n = 16 and the refined grid n = 24
    # for V = 1 - 0.5/|x| at L = 6, the limit solves' iterations from V's
    # ground state (9 and 9 fd, 9 and 8 spectral from the Gaussian blob),
    # and the refinement margin
    @pytest.mark.parametrize(
        "kinetic, levels, limit_iterations, margin",
        [
            ("fd", [(12.763545575196, 12.837242664019, 17.639669738121),
                    (8.844619810717, 8.935155259612, 12.146787793361)], [6, 5], 4.721868540844),
            ("spectral", [(15.726329178183, 15.818909021991, 21.242349198533),
                          (10.632639429409, 10.742690215150, 14.416907927908)], [6, 6], 5.195254565550),
        ],
        ids=["fd", "spectral"],
    )
    def test_coulomb_level_below_the_bound_below_c_inf_on_both_grids(
        self, kinetic, levels, limit_iterations, margin, monkeypatch
    ):
        calls = []
        solves = _recorded_solves(monkeypatch, calls)
        V = CoulombSingular(1.0, 0.5, 1)
        cmp_result = compare_with_vinf(V, SolverConfig(), GridSpec(L=6.0, n=16, kinetic=kinetic))
        assert [r.u.grid.n for r in solves] == [16, 16, 24, 24]
        # V's solves start from the configured blob, each limit solve from
        # V's ground state on its grid
        assert [len(args) for args in calls] == [3, 4, 3, 4]
        assert calls[1][3] is solves[0].u and calls[3][3] is solves[2].u
        assert [solves[1].iterations, solves[3].iterations] == limit_iterations
        for (res, limit), pinned in zip((solves[:2], solves[2:]), levels):
            bound = spgs.minimize._limit_ray_max(V, limit)
            assert res.c_estimate <= bound < limit.c_estimate
            assert (res.c_estimate, bound, limit.c_estimate) == pytest.approx(pinned, rel=1e-9)
            # the breakdown algebra against energies evaluated at the projected field
            fresh = nehari_project(limit.u, V.sample(limit.u.grid), 4.0).scaled_breakdown
            assert bound == pytest.approx(fresh.I, rel=1e-14)
        assert cmp_result.bound == bound
        assert cmp_result.bound_holds and cmp_result.bound_excess < 0.0
        # the two grids' gaps differ by a third of the margin, which exceeds
        # the refined gap, so strict is not asserted; the grid bound still
        # puts c below c_inf on both grids
        assert not cmp_result.strict
        assert cmp_result.margin == pytest.approx(margin, rel=1e-9)
        assert cmp_result.margin > cmp_result.c_inf - cmp_result.c

    def test_strict_needs_all_four_solves_converged(self, monkeypatch):
        # V = 1 - 1/|x| at L = 4, n = 16 is strict with all four solves
        # converged; the same four results replayed with one of them at
        # max-iters are not
        V, cfg, grid = CoulombSingular(1.0, 1.0, 1), SolverConfig(), GridSpec(L=4.0, n=16)
        solves = _recorded_solves(monkeypatch)
        assert compare_with_vinf(V, cfg, grid).strict
        assert all(r.converged for r in solves)
        for unconverged in range(4):
            replay = iter(
                [replace(r, status="max-iters") if i == unconverged else r for i, r in enumerate(solves)]
            )
            monkeypatch.setattr(spgs.minimize, "find_ground_state", lambda *args: next(replay))
            assert not compare_with_vinf(V, cfg, grid).strict

    def test_the_bound_costs_one_fiber_root_per_grid_and_no_poisson_solve(self, monkeypatch):
        # the layer calls compare_with_vinf makes outside its four solves
        calls, inside = Counter(), Counter()

        def counting(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return call

        for name in ("_solve_fiber", "solve_phi", "energy_breakdown", "el_residual"):
            monkeypatch.setattr(spgs.minimize, name, counting(name, getattr(spgs.minimize, name)))
        solve = spgs.minimize.find_ground_state

        def solve_counting_inside(*args):
            before = calls.copy()
            res = solve(*args)
            inside.update(calls - before)
            inside["solves"] += 1
            return res

        monkeypatch.setattr(spgs.minimize, "find_ground_state", solve_counting_inside)
        compare_with_vinf(CoulombSingular(1.0, 0.5, 1), SolverConfig(), GridSpec(L=6.0, n=16))
        assert inside["solves"] == 4
        assert calls - inside == Counter({"_solve_fiber": 2})


def _recorded_solves(monkeypatch, calls=None):
    """The results find_ground_state returns, in call order; their arguments go to `calls`."""
    solve = spgs.minimize.find_ground_state
    results = []

    def recording(*args):
        if calls is not None:
            calls.append(args)
        results.append(solve(*args))
        return results[-1]

    monkeypatch.setattr(spgs.minimize, "find_ground_state", recording)
    return results


class TestAnnulusProfile:
    """The converged state's outer-shell mass and Pohozaev defect."""

    def test_converged_state_decays(self, ground_state):
        # measured 2.61e-4 and +2.06e-2
        assert ground_state.boundary_mass < 1e-3
        assert 0.0 < ground_state.pohozaev < 0.05


def test_each_field_evaluated_once(monkeypatch):
    # a trial field is evaluated by one breakdown, an iterate by one residual
    calls = Counter()

    def count(attr):
        fn = getattr(spgs.minimize, attr)

        def counted(*args, **kwargs):
            calls[attr] += 1
            if kwargs.get("residual_correction") is False:
                calls["raw solves"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(spgs.minimize, attr, counted)

    for attr in ("solve_phi", "energy_breakdown", "el_residual"):
        count(attr)
    res = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=24))
    assert res.converged
    assert calls["energy_breakdown"] == calls["raw solves"]
    assert calls["el_residual"] == res.iterations + 1


def test_output_phi_reuses_the_descents_raw_sum(monkeypatch):
    # the reported phi is the last iterate's raw sum: one screened solve per raw
    # solve, and no corrected solve
    calls = Counter()
    screened, solve = spgs.poisson._screened_solve, spgs.minimize.solve_phi

    def counted_screened(q, grid):
        calls["screened solves"] += 1
        return screened(q, grid)

    def counted_solve(*args, **kwargs):
        calls["raw solves" if kwargs.get("residual_correction") is False else "corrected solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(spgs.poisson, "_screened_solve", counted_screened)
    monkeypatch.setattr(spgs.minimize, "solve_phi", counted_solve)
    res = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=24))
    assert calls["screened solves"] == calls["raw solves"] > 0
    assert calls["corrected solves"] == 0


def test_pinned_levels():
    # a level that drifts fails here in seconds, not only in the benchmark
    fd = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=24))
    assert fd.iterations == 6
    assert fd.c_estimate == pytest.approx(10.093318054749808, rel=1e-12)
    sp = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=2.5, n=24, kinetic="spectral"))
    assert sp.iterations == 8
    assert sp.c_estimate == pytest.approx(10.434921971760058, rel=1e-12)
    _, _, c_radial = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=1024)
    assert c_radial == pytest.approx(9.865613744978525, rel=1e-12)


def _gaussian_ray_max(sigma, v_inf, p):
    eb, _ = _gaussian_energies(sigma, v_inf, p)
    return eb.at_scale(_solve_fiber(eb.A1, eb.B, eb.C, p)).I


def test_closed_form_gaussian_energies_match_the_sampled_gaussian():
    # measured on this box: A1 and C to 1e-15, B to 5.2e-9 (the box's Poisson solve)
    grid = GridSpec(L=6.0, n=64, kinetic="spectral")
    sampled = energy_breakdown(gaussian_blob(grid, width=0.6), Constant(1.0).sample(grid), 4.0)
    closed, mass = _gaussian_energies(0.6, 1.0, 4.0)
    assert closed.A1 == pytest.approx(sampled.A1, rel=1e-13)
    assert closed.B == pytest.approx(sampled.B, rel=2e-8)
    assert closed.C == pytest.approx(sampled.C, rel=1e-13)
    assert mass == pytest.approx(math.pi**1.5 * 0.6**3, rel=1e-15)


def test_ray_max_slope_is_the_log_derivative_of_the_ray_max():
    # central difference in log sigma
    d = 1e-5
    for sigma in (0.2, 0.34, 0.8):
        up, down = (_gaussian_ray_max(sigma * math.exp(e), 1.0, 4.0) for e in (d, -d))
        assert _ray_max_slope(sigma, 1.0, 4.0) == pytest.approx((up - down) / (2 * d), rel=1e-6, abs=1e-8)


def test_ritz_width_minimises_the_gaussian_ray_max():
    h, L = GridSpec(L=4.0, n=64).h, 4.0
    star = ritz_width(1.0, 4.0, h, L)
    assert star == pytest.approx(0.34013, abs=1e-4)
    least = _gaussian_ray_max(star, 1.0, 4.0)
    assert _gaussian_ray_max(0.95 * star, 1.0, 4.0) > least
    assert _gaussian_ray_max(1.05 * star, 1.0, 4.0) > least
    # a narrower state for a stronger nonlinearity or a deeper limit potential
    assert ritz_width(1.0, 4.5, h, L) < star < ritz_width(1.0, 3.5, h, L)
    assert ritz_width(2.0, 4.0, h, L) < star < ritz_width(0.5, 4.0, h, L)
    # near p = 5 the least ray maximum lies below the mesh width
    assert ritz_width(1.0, 4.9, h, L) == h


def test_ritz_width_where_the_ray_maximum_has_no_fiber_root():
    # p near 3 in a wide box: the fiber root of a wide Gaussian overflows
    assert ritz_width(1.0, 3.01, 12.5, 50.0) == 12.5
    # v_inf < 0: A1 <= 0 beyond sigma = 1.22, so the least value lies below it
    assert 0.5 < ritz_width(-1.0, 4.0, 0.5, 8.0) < math.sqrt(1.5)
    assert ritz_width(-3.0, 4.0, 1.0, 4.0) == 1.0


@pytest.mark.parametrize(
    "V, grid",
    [
        (Constant(1.0), GridSpec(L=4.0, n=24)),
        (Constant(1.0), GridSpec(L=2.5, n=24, kinetic="spectral")),
        (CoulombSingular(1.0, 0.5, 1), GridSpec(L=6.0, n=16)),
    ],
    ids=["fd", "spectral", "coulomb"],
)
def test_ritz_start_reaches_the_box_start_level_in_no_more_iterations(V, grid):
    cfg = SolverConfig(p=4.0)
    ritz = find_ground_state(V, cfg, grid)
    box = find_ground_state(V, replace(cfg, init=GaussianBlob(width=grid.L / 6.0)), grid)
    assert ritz.converged and box.converged
    assert ritz.c_estimate == pytest.approx(box.c_estimate, rel=1e-12)
    assert ritz.iterations <= box.iterations


def test_spectral_solve_asks_for_no_fd_table_of_its_own_n(monkeypatch):
    # -Lap, the preconditioner and the raw Poisson solve read the spectral
    # eigenvalues; the fd table of the defect correction is not asked for at all
    asked = set()
    table = spgs.grid.dirichlet_eigenvalues

    def spy(m, h, kinetic="fd"):
        asked.add((m, kinetic))
        return table(m, h, kinetic)

    for module in (spgs.grid, spgs.functional, spgs.poisson):
        monkeypatch.setattr(module, "dirichlet_eigenvalues", spy)
    n = 24
    res = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=n, kinetic="spectral"))
    assert res.converged
    assert asked == {(n, "spectral")}


def test_spectral_takes_no_more_iterations_than_fd():
    # measured 9 against 10; with the fd preconditioner spectral took 18
    cfg = SolverConfig(p=4.0, tol_residual=1e-7)
    fd, sp = (
        find_ground_state(Constant(1.0), cfg, GridSpec(L=4.0, n=32, kinetic=k)) for k in ("fd", "spectral")
    )
    assert fd.converged and sp.converged
    assert sp.iterations <= fd.iterations


def test_spectral_n48_converges_at_tight_tolerance():
    # steepest descent raised NoDescentError at iteration 30 on this grid
    cfg = SolverConfig(p=4.0, tol_residual=1e-7)
    res = find_ground_state(Constant(1.0), cfg, GridSpec(L=4.0, n=48, kinetic="spectral"))
    assert res.status == "converged"


def test_tight_tolerance_does_not_report_a_spike_as_converged():
    # the centred state is a saddle on this grid; accepted rounding-noise steps
    # fed its unstable mode, and without the floor guard the descent ended
    # converged on a lattice spike, c = 5.2098625, at iteration 85
    cfg = SolverConfig(p=4.0, tol_residual=1e-13, max_iters=300)
    with pytest.raises(NoDescentError, match=r"level 10\.0933180547"):
        find_ground_state(Constant(1.0), cfg, GridSpec(L=4.0, n=24))


def test_a_solve_runs_every_split_on_one_helper_thread(on_cpus):
    # n = 48 splits the Poisson passes, the sine transforms and the stencil
    on_cpus(2)
    before = set(threading.enumerate())
    find_ground_state(Constant(1.0), SolverConfig(p=4.0, max_iters=4), GridSpec(L=4.0, n=48))
    (started,) = set(threading.enumerate()) - before
    assert started.name.startswith("spgs-helper")


def test_split_descent_traces_match_one_pass(on_cpus, monkeypatch):
    # n = 48 is above the per-node split size; every row must equal the unsplit run's
    cfg, g = SolverConfig(p=4.0, max_iters=4), GridSpec(L=4.0, n=48)
    with monkeypatch.context() as m:
        m.setattr(spgs.grid, "_BLOCK_BYTES", 1 << 40)
        reference = find_ground_state(Constant(1.0), cfg, g)
    for cpus in (1, 2):
        on_cpus(cpus)
        res = find_ground_state(Constant(1.0), cfg, g)
        assert repr(res.trace) == repr(reference.trace)
        assert np.array_equal(res.u.values, reference.u.values)


def _rising_direction(r):
    """A direction with <d, r> > 0 so large that every step, down to the floor, raises the level."""
    n = round(r.size ** (1.0 / 3.0))
    i = np.arange(n)
    d = 1e30 * ((-1.0) ** (i[:, None, None] + i[None, :, None] + i[None, None, :])).ravel()
    return d if float(np.sum(d * r)) > 0.0 else -d


def _rising_quasi_newton(events):
    """Stand-in for `_lbfgs_direction` that logs the memory size and returns a rising direction."""

    def direction(r, pairs, precondition, inner):
        events.append(("quasi-newton", len(pairs)))
        return _rising_direction(r)

    return direction


def test_failed_quasi_newton_step_resets_memory_and_retries_the_gradient(monkeypatch):
    events = []
    precondition = spgs.minimize.precondition

    def gradient(r):
        events.append("gradient")
        return precondition(r)

    monkeypatch.setattr(spgs.minimize, "_lbfgs_direction", _rising_quasi_newton(events))
    monkeypatch.setattr(spgs.minimize, "precondition", gradient)
    res = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=16))
    assert res.converged
    tries = [i for i, e in enumerate(events) if e[0] == "quasi-newton"]
    assert tries
    for i in tries:
        # a cleared memory holds only the one pair formed since the reset
        assert events[i] == ("quasi-newton", 1)
        assert events[i + 1] == "gradient"


def test_no_descent_error_only_after_the_gradient_retry(monkeypatch):
    events = []
    precondition = spgs.minimize.precondition

    def gradient(r):
        events.append("gradient")
        if ("quasi-newton", 1) in events:
            return SimpleNamespace(values=_rising_direction(r.values))
        return precondition(r)

    monkeypatch.setattr(spgs.minimize, "_lbfgs_direction", _rising_quasi_newton(events))
    monkeypatch.setattr(spgs.minimize, "precondition", gradient)
    with pytest.raises(NoDescentError):
        find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=16))
    assert events == ["gradient", ("quasi-newton", 1), "gradient"]
