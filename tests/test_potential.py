"""Potential classes, v-infinity extraction, coercivity constants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from spgs.grid import GridSpec, ScalarField
from spgs.potential import (
    Composite,
    Constant,
    CoulombSingular,
    Potential,
    Tabulated,
    coercivity_check,
)
from spgs.sampling import gaussian_blob


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

    @pytest.mark.parametrize(
        "V",
        [Constant(1.5), CoulombSingular(1.0, 0.3, 1), CoulombSingular(0.5, 0.1, 2)],
        ids=["constant", "coulomb-1", "coulomb-2"],
    )
    def test_sample_is_the_profile_at_the_node_radii(self, grid, V):
        # one formula for the 3-D grid and the radial mesh, bit for bit
        assert V.sample(grid).as3d.tobytes() == V.profile(grid.radius).tobytes()

    @pytest.mark.parametrize(
        "V",
        [Constant(1.5), CoulombSingular(1.0, 0.3, 1), CoulombSingular(0.5, 0.1, 2)],
        ids=["constant", "coulomb-1", "coulomb-2"],
    )
    @pytest.mark.parametrize("symmetry", ["none", "octant"])
    def test_sample_is_the_c_ordered_constructions_bit_for_bit(self, V, symmetry):
        # the radius sums (x^2 + y^2) + z^2 per node in either layout; built
        # x-fastest, it samples into flat storage without a transposing copy
        g = GridSpec(L=4.0, n=24, symmetry=symmetry)
        a2 = g.axis * g.axis
        r = np.sqrt((a2[:, None, None] + a2[:, None]) + a2)
        old = np.full(r.shape, 1.5) if isinstance(V, Constant) else V.profile(r)
        assert g.radius.flags.f_contiguous and V.profile(g.radius).flags.f_contiguous
        assert np.array_equal(V.sample(g).values, old.ravel(order="F"))

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

    def test_tabulated_octant_is_the_full_boxs(self):
        # the octant's nodes with an index at m - 1 stand for the box's outer layer
        box = GridSpec(L=4.0, n=16)
        V = CoulombSingular(1.0, 0.5, 1)
        full, octant = (Tabulated(V.sample(g)).v_infinity() for g in (box, replace(box, symmetry="octant")))
        assert octant == pytest.approx(full, rel=1e-15, abs=0.0)


class TestCoercivity:
    def test_constant_is_exactly_one(self, grid):
        est, ok = coercivity_check(Constant(1.0), grid)
        assert ok
        assert est == pytest.approx(1.0, abs=1e-10)

    def test_small_coupling_positive(self):
        g = GridSpec(L=12.0, n=32)
        est, ok = coercivity_check(CoulombSingular(1.0, 0.05, 2), g)
        assert ok and est > 0.0

    def test_large_coupling_negative(self):
        g = GridSpec(L=12.0, n=32)
        est, ok = coercivity_check(CoulombSingular(1.0, 10.0, 2), g)
        assert not ok and est < 0.0

    def test_deterministic_under_seed(self, grid):
        # the grid eigen-solve starts from the lowest sine mode, not a random block
        V = Tabulated(CoulombSingular(1.0, 0.5, 1).sample(grid))
        assert coercivity_check(V, grid) == coercivity_check(V, grid)

    @pytest.mark.parametrize(
        "V, c_bar",
        [
            (Constant(0.5), 0.5),
            (Constant(2.0), 1.0),
            (CoulombSingular(1.0, 2.1, 1), -0.05),
            (CoulombSingular(2.0, 0.0, 1), 1.0),
            (CoulombSingular(0.5, 1.0, 1), (1.5 - math.sqrt(1.25)) / 2.0),
            (CoulombSingular(1.0, 0.3, 2), -0.2),
            (CoulombSingular(0.5, 0.05, 2), 0.5),
        ],
    )
    def test_closed_forms(self, grid, V, c_bar):
        assert coercivity_check(V, grid).c_bar == pytest.approx(c_bar, abs=1e-15)

    def test_built_in_kinds_run_no_eigen_solve(self, grid, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a built-in kind must not run the grid eigen-solve")

        monkeypatch.setattr(Potential, "coercivity_constant", no_solve)
        assert coercivity_check(Constant(1.0), grid).ok
        assert coercivity_check(CoulombSingular(1.0, 0.5, 1), grid).ok
        assert not coercivity_check(CoulombSingular(1.0, 0.5, 2), grid).ok

    def test_composite_runs_the_grid_eigen_solve(self, grid):
        comp = Composite(
            base=Constant(1.0),
            perturbation=lambda x, y, z: np.exp(-(x * x + y * y + z * z)),
            lam=0.5,
        )
        c_bar = coercivity_check(comp, grid).c_bar
        assert c_bar == pytest.approx(coercivity_check(Tabulated(comp.sample(grid)), grid).c_bar)
        assert 0.5 < c_bar < 1.0

    def test_grid_c_bar_falls_as_the_well_deepens(self, grid):
        # the grid eigen-solve on tabulated copies, not the closed form
        # (measured 0.9764 > 0.9529 > 0.9058)
        c_bar = [
            coercivity_check(Tabulated(CoulombSingular(1.0, lam, 1).sample(grid)), grid).c_bar
            for lam in (0.05, 0.1, 0.2)
        ]
        assert c_bar[0] > c_bar[1] > c_bar[2]

    def test_spectral_c_bar_bounds_fd(self, grid):
        # the spectral sine-mode eigenvalues bound the fd ones from above, and
        # for V <= 1 the quotient grows with the kinetic term
        V = Tabulated(CoulombSingular(1.0, 0.5, 1).sample(grid))
        fd = coercivity_check(V, grid).c_bar
        spectral = coercivity_check(V, replace(grid, kinetic="spectral")).c_bar
        assert spectral >= fd

    @pytest.mark.parametrize("lam", [0.5, 1.9, 2.1, 2.5])
    def test_closed_form_is_the_grid_limit(self, lam):
        # alpha = 1: the grid eigenvalue of a tabulated copy has the closed
        # form's sign, and refining the grid closes the gap
        V = CoulombSingular(1.0, lam, 1)
        exact = coercivity_check(V, GridSpec(L=6.0, n=32)).c_bar
        gaps = []
        for n in (32, 48):
            g = GridSpec(L=6.0, n=n, kinetic="spectral")
            on_grid = coercivity_check(Tabulated(V.sample(g)), g).c_bar
            assert (on_grid > 0.0) == (exact > 0.0)
            gaps.append(abs(on_grid - exact))
        assert gaps[1] < gaps[0]


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
