"""Potential classes, v-infinity extraction, coercivity probe."""

import numpy as np
import pytest

import spgs.grid
from spgs.grid import GridSpec, ScalarField, dirichlet_energy, separable_forms
from spgs.potential import (
    Composite,
    Constant,
    CoulombSingular,
    Tabulated,
    coercivity_check,
    rayleigh_quotient,
)
from spgs.sampling import (
    coercivity_trial,
    gaussian_blob,
    random_smooth_field,
    separable_values,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(L=6.0, n=16)


class TestSampling:
    def test_constant(self, grid):
        f = Constant(1.0).sample(grid)
        assert np.all(f.values == 1.0)

    def test_coulomb_zero_coupling_degenerates(self, grid):
        f = CoulombSingular(1.0, 0.0, 1).sample(grid)
        assert np.all(f.values == 1.0)

    def test_coulomb_exact_at_node(self):
        # node radius 0.5 exists on this grid: h = 1, first shell at
        # (0.5, 0.5, 0.5) has |x| = sqrt(3)/2; build a grid with a node
        # at distance 0.5 along an axis instead: h = 1, L = 4, node x =
        # (0.5, 0.5, 0.5)... use the formula directly on the first shell.
        g = GridSpec(L=4.0, n=8)
        f = CoulombSingular(1.0, 0.1, 1).sample(g)
        r = g.radius.ravel(order="F")
        k = int(np.argmin(r))
        assert f.values[k] == 1.0 - 0.1 / r[k]

    def test_coulomb_requires_staggered(self):
        g = GridSpec(L=4.0, n=9, staggered=False)
        with pytest.raises(ValueError):
            CoulombSingular(1.0, 0.1, 1).sample(g)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            CoulombSingular(1.0, 0.1, 3)
        with pytest.raises(ValueError):
            CoulombSingular(1.0, -0.1, 1)

    def test_composite_with_callable(self, grid):
        comp = Composite(
            base=Constant(1.0),
            perturbation=lambda x, y, z: np.exp(-(x * x + y * y + z * z)),
            lam=0.2,
        )
        f = comp.sample(grid)
        base = Constant(1.0).sample(grid)
        assert np.all(f.values <= base.values)
        assert f.values.min() < 0.9

    def test_composite_with_field(self, grid):
        pert = gaussian_blob(grid, width=2.0)
        comp = Composite(base=Constant(1.0), perturbation=pert, lam=0.5)
        f = comp.sample(grid)
        assert np.allclose(f.values, 1.0 - 0.5 * pert.values)

    def test_tabulated_grid_must_match(self, grid):
        other = GridSpec(L=6.0, n=24)
        tab = Tabulated(ScalarField.zeros(other))
        with pytest.raises(ValueError):
            tab.sample(grid)


class TestVInfinity:
    def test_constant(self):
        assert Constant(2.0).v_infinity() == 2.0

    def test_coulomb(self):
        assert CoulombSingular(1.0, 0.3, 2).v_infinity() == 1.0

    def test_composite(self, grid):
        comp = Composite(
            base=Constant(1.0),
            perturbation=lambda x, y, z: np.exp(-(x * x + y * y + z * z)),
            lam=0.2,
        )
        assert comp.v_infinity() == 1.0

    def test_tabulated_outer_shell_estimate(self, grid):
        vals = np.full(grid.num_nodes, 3.0)
        tab = Tabulated(ScalarField(grid, vals))
        assert tab.v_infinity() == pytest.approx(3.0)
        assert tab.v_infinity_is_estimate
        assert not Constant(1.0).v_infinity_is_estimate


class TestCoercivity:
    def test_constant_is_exactly_one(self, grid):
        est, ok = coercivity_check(Constant(1.0), grid, trials=16, seed=3)
        assert ok
        assert est == pytest.approx(1.0, abs=1e-10)

    def test_small_coupling_positive(self):
        g = GridSpec(L=12.0, n=32)
        est, ok = coercivity_check(CoulombSingular(1.0, 0.05, 2), g, trials=48, seed=3)
        assert ok and est > 0.0

    def test_large_coupling_negative(self):
        g = GridSpec(L=12.0, n=32)
        est, ok = coercivity_check(CoulombSingular(1.0, 10.0, 2), g, trials=48, seed=3)
        assert not ok and est < 0.0

    def test_deterministic_under_seed(self, grid):
        a = coercivity_check(CoulombSingular(1.0, 0.5, 1), grid, trials=24, seed=9)
        b = coercivity_check(CoulombSingular(1.0, 0.5, 1), grid, trials=24, seed=9)
        assert a == b

    def test_trials_validated(self, grid):
        with pytest.raises(ValueError):
            coercivity_check(Constant(1.0), grid, trials=0)

    def test_quotient_monotone_in_lambda(self, grid):
        u = gaussian_blob(grid, width=1.0)
        quotients = [
            rayleigh_quotient(u, CoulombSingular(1.0, lam, 1).sample(grid))
            for lam in (0.1, 0.3, 0.9)
        ]
        assert quotients[0] > quotients[1] > quotients[2]


def log_uniform(rng, lo, hi):
    lo, hi = sorted((lo, hi))
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def n3_trial(grid, rng, k):
    """Probe trial k built node by node, with the probe's draws in the probe's order."""
    kind = k % 3
    if kind == 0:
        w = log_uniform(rng, 1.5 * grid.h, grid.L / 3.0)
        vals = gaussian_blob(grid, (0.0, 0.0, 0.0), w).as3d
    elif kind == 1:
        c = rng.uniform(-grid.L / 3.0, grid.L / 3.0, size=3)
        w = log_uniform(rng, 3.0 * grid.h, grid.L / 4.0)
        vals = gaussian_blob(grid, tuple(c), w).as3d
    else:
        vals = random_smooth_field(grid, rng).as3d.copy()
        kvec = rng.integers(0, 3, size=3)
        x, y, z = grid.coords()
        vals *= 1.0 + 0.5 * np.cos(np.pi * (kvec[0] * x + kvec[1] * y + kvec[2] * z) / grid.L)
    return ScalarField.from_3d(grid, vals)


PROBE_GRIDS = [GridSpec(L=6.0, n=16), GridSpec(L=4.0, n=24), GridSpec(L=3.0, n=13, staggered=False)]
PROBE_GRID_IDS = ["staggered-16", "staggered-24", "nodal-13"]


class TestFactoredProbe:
    @pytest.mark.parametrize("g", PROBE_GRIDS, ids=PROBE_GRID_IDS)
    def test_trial_values_match_n3_builder(self, g):
        ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        for k in range(9):
            ref = n3_trial(g, ref_rng, k).values
            got = separable_values(*coercivity_trial(g, rng, k))
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    @pytest.mark.parametrize("g", PROBE_GRIDS, ids=PROBE_GRID_IDS)
    def test_factored_forms_match_node_sums(self, g, kinetic):
        rng = np.random.default_rng(7)
        for k in range(9):
            factors = coercivity_trial(g, rng, k)
            u = ScalarField(g, separable_values(*factors))
            mass, dirichlet = separable_forms(g, *factors, kinetic)
            assert mass == pytest.approx(g.h**3 * float(np.sum(u.values**2)), rel=1e-12)
            assert dirichlet == pytest.approx(dirichlet_energy(u, kinetic), rel=1e-12)

    @pytest.mark.parametrize(
        "V, g",
        [(CoulombSingular(1.0, 0.5, 1), GridSpec(L=6.0, n=16)), (Constant(1.0), GridSpec(L=3.0, n=13, staggered=False))],
        ids=["coulomb-16", "constant-nodal-13"],
    )
    def test_estimate_matches_n3_quotients(self, V, g):
        rng = np.random.default_rng(11)
        v_field = V.sample(g)
        ref = min(rayleigh_quotient(n3_trial(g, rng, k), v_field) for k in range(24))
        est, _ = coercivity_check(V, g, trials=24, seed=11)
        assert est == pytest.approx(ref, rel=1e-12)

    def test_probe_forms_no_stencil(self, grid, monkeypatch):
        def no_stencil(*args, **kwargs):
            raise AssertionError("the probe must not form -Lap on the node values")

        monkeypatch.setattr(spgs.grid, "minus_laplacian", no_stencil)
        est, ok = coercivity_check(CoulombSingular(1.0, 0.5, 1), grid, trials=24, seed=9)
        assert ok and 0.0 < est < 1.0

    def test_spectral_estimate_bounds_fd(self, grid):
        # spectral sine-mode eigenvalues bound the fd ones from above, and for
        # V <= 1 each quotient grows with the kinetic term
        V = CoulombSingular(1.0, 0.5, 1)
        fd, _ = coercivity_check(V, grid, trials=24, seed=9, kinetic="fd")
        spectral, _ = coercivity_check(V, grid, trials=24, seed=9, kinetic="spectral")
        assert spectral >= fd


class TestBelowVinfSurrogate:
    def test_coulomb_everywhere_below(self, grid):
        V = CoulombSingular(1.0, 0.1, 1)
        f = V.sample(grid)
        frac = np.mean(f.values < V.v_infinity() - 1e-12)
        assert frac == 1.0

    def test_composite_at_least_ten_percent(self, grid):
        comp = Composite(
            base=Constant(1.0),
            perturbation=lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 8.0),
            lam=0.2,
        )
        f = comp.sample(grid)
        frac = np.mean(f.values < comp.v_infinity() - 1e-12)
        assert frac >= 0.10
