"""Descent loop, ground levels, comparisons, diagnostics."""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import spgs.minimize
import spgs.poisson
from spgs.errors import NoDescentError, NonCoerciveError, ZeroFieldError
from spgs.grid import GridSpec, ScalarField
from spgs.minimize import (
    GaussianBlob,
    SolverConfig,
    annulus_mass_profile,
    compare_with_vinf,
    find_ground_state,
    ground_level_constant,
    mountain_pass_crosscheck,
    relative_asymmetry,
    shell_decay_ok,
)
from spgs.potential import CoercivityResult, Constant, CoulombSingular
from spgs.radial import radial_ground_state


@pytest.fixture(scope="module")
def quick_cfg():
    return SolverConfig(
        p=4.0,
        tol_residual=1e-6,
        max_iters=400,
        init=GaussianBlob(width=0.5),
        kinetic="spectral",
    )


@pytest.fixture(scope="module")
def quick_grid():
    return GridSpec(L=2.5, n=24)


@pytest.fixture(scope="module")
def ground_state(quick_cfg, quick_grid):
    return find_ground_state(Constant(1.0), quick_cfg, quick_grid)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(p=5.5)
        with pytest.raises(ValueError):
            SolverConfig(step=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(starts=0)


class TestFindGroundState:
    def test_zero_init_raises(self, quick_cfg, quick_grid):
        cfg = SolverConfig(
            p=4.0, init=GaussianBlob(amplitude=0.0), max_iters=10, kinetic="spectral"
        )
        with pytest.raises(ZeroFieldError):
            find_ground_state(Constant(1.0), cfg, quick_grid)

    def test_converged_state_contracts(self, ground_state, quick_cfg):
        res = ground_state
        assert res.converged and res.status == "converged"
        # residual meets the configured tolerance (relative to the H^1 size)
        from spgs.grid import h1_norm

        assert res.residual_norm <= quick_cfg.tol_residual * h1_norm(res.u)
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
        cfg = SolverConfig(
            p=4.0, max_iters=3, init=GaussianBlob(width=0.5), kinetic="spectral"
        )
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

        def probe(V, grid, trials, seed, kinetic):
            seen.append(kinetic)
            return CoercivityResult(-1.0, False)

        monkeypatch.setattr(spgs.minimize, "coercivity_check", probe)
        with pytest.raises(NonCoerciveError):
            find_ground_state(Constant(1.0), quick_cfg, quick_grid)
        assert seen == ["spectral"]

    def test_override_gets_past_gate(self, quick_cfg, quick_grid):
        # a coercive singular potential with the probe bypassed still runs
        res = find_ground_state(
            CoulombSingular(1.0, 0.05, 1), quick_cfg, quick_grid, coercivity_override=True
        )
        assert res.converged

    def test_phi_is_the_corrected_solve(self, ground_state):
        from spgs.poisson import interior_residual

        assert interior_residual(ground_state.u, ground_state.phi) <= 1e-8

    def test_radial_symmetry_of_constant_potential_state(self, ground_state):
        assert relative_asymmetry(ground_state.u) <= 1e-2

    def test_multi_start_returns_best(self, quick_grid):
        cfg1 = SolverConfig(
            p=4.0, tol_residual=1e-6, max_iters=400, init=GaussianBlob(width=0.5),
            kinetic="spectral",
        )
        cfg3 = SolverConfig(
            p=4.0, tol_residual=1e-6, max_iters=400, init=GaussianBlob(width=0.5),
            kinetic="spectral", starts=3, seed=5,
        )
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
            kinetic="spectral",
        )
        res = find_ground_state(Constant(1.0), cfg, quick_grid)
        q = res.u.values ** 2
        x = quick_grid.coords()[0].ravel(order="F")
        centroid = float(np.sum(x * q) / np.sum(q))
        assert abs(centroid) < 0.2
        assert shell_decay_ok(list(res.annulus_profile), quick_grid.L)


class TestGroundLevelConstant:
    def test_rejects_nonpositive(self, quick_cfg, quick_grid):
        with pytest.raises(ValueError):
            ground_level_constant(0.0, quick_cfg, quick_grid)

    def test_level_ordering_small_case(self, quick_cfg, quick_grid):
        c1 = ground_level_constant(1.0, quick_cfg, quick_grid)
        c2 = ground_level_constant(2.0, quick_cfg, quick_grid)
        assert c1 < c2


class TestCompareWithVinf:
    def test_constant_potential_not_strict(self, quick_grid):
        cfg = SolverConfig(
            p=4.0, tol_residual=1e-6, max_iters=400, init=GaussianBlob(width=0.5),
            kinetic="spectral",
        )
        cmp_result = compare_with_vinf(Constant(1.0), cfg, quick_grid)
        assert not cmp_result.strict
        assert cmp_result.c == cmp_result.c_inf

    def test_rejects_nonpositive_vinf(self, quick_cfg, quick_grid):
        with pytest.raises(ValueError):
            compare_with_vinf(Constant(-1.0), quick_cfg, quick_grid, coercivity_override=True)


class TestMountainPass:
    def test_ray_minimum_dominates(self, quick_cfg, quick_grid):
        c_nehari, c_ray = mountain_pass_crosscheck(
            Constant(1.0), quick_cfg, quick_grid, trials=12, seed=3
        )
        assert c_ray >= c_nehari - 1e-9 * abs(c_nehari)
        # the minimizer itself is in the trial set, so equality is attained
        assert c_ray == pytest.approx(c_nehari, rel=1e-9)

    def test_more_trials_never_increase(self, quick_cfg, quick_grid):
        _, ray_small = mountain_pass_crosscheck(
            Constant(1.0), quick_cfg, quick_grid, trials=10, seed=4
        )
        _, ray_large = mountain_pass_crosscheck(
            Constant(1.0), quick_cfg, quick_grid, trials=20, seed=4
        )
        assert ray_large <= ray_small + 1e-12

    def test_trials_validated(self, quick_cfg, quick_grid):
        with pytest.raises(ValueError):
            mountain_pass_crosscheck(Constant(1.0), quick_cfg, quick_grid, trials=3)


class TestAnnulusProfile:
    def test_zero_field(self, quick_grid):
        z = ScalarField.zeros(quick_grid)
        prof = annulus_mass_profile(z, z)
        assert all(v == 0.0 for _, v in prof)
        assert [r for r, _ in prof] == list(range(int(quick_grid.L)))

    def test_converged_state_decays(self, ground_state, quick_grid):
        assert shell_decay_ok(list(ground_state.annulus_profile), quick_grid.L)

    def test_decay_checker_spots_growth(self):
        profile = [(0, 1.0), (1, 0.9), (2, 0.8), (3, 0.7)]
        assert not shell_decay_ok(profile, 4.0)


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
    # the corrected phi starts from the last iterate's raw sum: one convolution per raw solve
    calls = Counter()
    convolve, solve = spgs.poisson._convolve_fft, spgs.minimize.solve_phi

    def counted_convolve(q, grid):
        calls["convolutions"] += 1
        return convolve(q, grid)

    def counted_solve(*args, **kwargs):
        if kwargs.get("residual_correction") is False:
            calls["raw solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(spgs.poisson, "_convolve_fft", counted_convolve)
    monkeypatch.setattr(spgs.minimize, "solve_phi", counted_solve)
    res = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=24))
    assert calls["convolutions"] == calls["raw solves"] > 0
    fresh = solve(res.u).values
    assert np.max(np.abs(res.phi.values - fresh)) <= 1e-13 * np.max(fresh)


def test_pinned_levels():
    # a level that drifts fails here in seconds, not only in the benchmark
    fd = find_ground_state(Constant(1.0), SolverConfig(p=4.0), GridSpec(L=4.0, n=24))
    assert fd.iterations == 8
    assert fd.c_estimate == pytest.approx(10.081832424298153, rel=1e-12)
    sp_cfg = SolverConfig(p=4.0, kinetic="spectral")
    sp = find_ground_state(Constant(1.0), sp_cfg, GridSpec(L=2.5, n=24))
    assert sp.iterations == 16
    assert sp.c_estimate == pytest.approx(10.430528088539063, rel=1e-12)
    _, _, c_radial = radial_ground_state(Constant(1.0), 4.0, r_max=30.0, n_r=1024)
    assert c_radial == pytest.approx(9.865613744978525, rel=1e-12)


def test_spectral_n48_converges_at_tight_tolerance():
    # steepest descent raised NoDescentError at iteration 30 on this grid
    cfg = SolverConfig(p=4.0, kinetic="spectral", tol_residual=1e-7)
    res = find_ground_state(Constant(1.0), cfg, GridSpec(L=4.0, n=48))
    assert res.status == "converged"


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
