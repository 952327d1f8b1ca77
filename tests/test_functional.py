"""Action breakdown, gradient exactness, preconditioner."""

import math

import numpy as np
import pytest

from spgs.grid import GridSpec, ScalarField, integrate
from spgs.functional import (
    EnergyBreakdown,
    el_residual,
    energy_breakdown,
    kinetic_energy,
    minus_laplacian,
    precondition,
)
from spgs.poisson import double_integral_oracle
from spgs.potential import Constant, CoulombSingular
from spgs.sampling import random_smooth_field


@pytest.fixture(scope="module")
def grid():
    return GridSpec(L=6.0, n=16)


@pytest.fixture(scope="module")
def v_one(grid):
    return Constant(1.0).sample(grid)


def fields(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    return [random_smooth_field(grid, rng) for _ in range(count)]


class TestEnergyBreakdown:
    def test_zero_field(self, grid, v_one):
        eb = energy_breakdown(ScalarField.zeros(grid), v_one, 4.0)
        assert (eb.A1, eb.B, eb.C, eb.I, eb.G, eb.J) == (0, 0, 0, 0, 0, 0)

    def test_p_range_enforced(self, grid, v_one):
        u = fields(grid, 1)[0]
        for bad in (3.0, 5.0, 2.5, 6.0):
            with pytest.raises(ValueError):
                energy_breakdown(u, v_one, bad)

    @pytest.mark.parametrize("p", [3.5, 4.0, 4.5])
    def test_identity_on_random_fields(self, grid, v_one, p):
        for u in fields(grid, 10, seed=int(10 * p)):
            eb = energy_breakdown(u, v_one, p)
            lhs = eb.I - eb.J
            rhs = eb.G / (p + 1.0)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(eb.I), abs(eb.J), 1.0)

    def test_b_and_c_nonnegative(self, grid, v_one):
        for u in fields(grid, 5, seed=2):
            eb = energy_breakdown(u, v_one, 4.0)
            assert eb.B >= 0.0 and eb.C >= 0.0

    def test_homogeneity_ladder(self, grid, v_one):
        for u in fields(grid, 3, seed=3):
            eb = energy_breakdown(u, v_one, 4.0)
            for t in (0.5, 1.0, 2.0):
                fresh = energy_breakdown(u.scaled(t), v_one, 4.0)
                ray = eb.at_scale(t)
                assert fresh.I == pytest.approx(ray.I, rel=1e-10)
                assert fresh.G == pytest.approx(ray.G, rel=1e-10, abs=1e-10)

    def test_quadratures_against_closed_forms(self):
        # gaussian exp(-r^2/2): A1 and C have closed forms, B cross-checks
        # against the direct double sum; the spectral kinetic form is the
        # one able to meet 1e-4 at this resolution
        g = GridSpec(L=10.0, n=40)
        u = ScalarField.from_function(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0))
        v = Constant(1.0).sample(g)
        eb = energy_breakdown(u, v, 4.0, kinetic="spectral")
        # integral |grad u|^2 = (3/2) pi^(3/2); integral u^2 = pi^(3/2)
        a1_exact = 2.5 * math.pi**1.5
        assert eb.A1 == pytest.approx(a1_exact, rel=1e-4)
        # integral |u|^5 = (2 pi / 5)^(3/2)
        assert eb.C == pytest.approx((2.0 * math.pi / 5.0) ** 1.5, rel=1e-4)
        g16 = GridSpec(L=8.0, n=16)
        u16 = ScalarField.from_function(
            g16, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2.0)
        )
        eb16 = energy_breakdown(u16, Constant(1.0).sample(g16), 4.0)
        assert eb16.B == pytest.approx(double_integral_oracle(u16) / (4.0 * math.pi), rel=1e-10)


class TestResidual:
    def test_zero_field(self, grid, v_one):
        r, norm = el_residual(ScalarField.zeros(grid), v_one, 4.0)
        assert norm == 0.0
        assert np.all(r.values == 0.0)

    @pytest.mark.parametrize("kinetic", ["fd", "spectral"])
    @pytest.mark.parametrize("p", [3.5, 4.0, 4.5])
    def test_directional_derivative(self, grid, v_one, p, kinetic):
        rng = np.random.default_rng(int(1000 * p) + (0 if kinetic == "fd" else 1))
        for _ in range(3):
            u = random_smooth_field(grid, rng)
            v = random_smooth_field(grid, rng)
            r, _ = el_residual(u, v_one, p, kinetic=kinetic)
            ip = grid.h**3 * float(np.sum(r.values * v.values))
            eps = 1e-5
            i_plus = energy_breakdown(
                ScalarField(grid, u.values + eps * v.values), v_one, p, kinetic=kinetic
            ).I
            i_minus = energy_breakdown(
                ScalarField(grid, u.values - eps * v.values), v_one, p, kinetic=kinetic
            ).I
            fd = (i_plus - i_minus) / (2.0 * eps)
            assert fd == pytest.approx(ip, rel=1e-6)

    def test_gradient_with_singular_potential(self, grid):
        v_sing = CoulombSingular(1.0, 0.05, 2).sample(grid)
        rng = np.random.default_rng(77)
        u = random_smooth_field(grid, rng)
        v = random_smooth_field(grid, rng)
        r, _ = el_residual(u, v_sing, 4.0)
        ip = grid.h**3 * float(np.sum(r.values * v.values))
        eps = 1e-5
        i_plus = energy_breakdown(ScalarField(grid, u.values + eps * v.values), v_sing, 4.0).I
        i_minus = energy_breakdown(ScalarField(grid, u.values - eps * v.values), v_sing, 4.0).I
        assert (i_plus - i_minus) / (2.0 * eps) == pytest.approx(ip, rel=1e-6)

    def test_g_equals_residual_pairing_with_u(self, grid, v_one):
        for u in fields(grid, 5, seed=4):
            eb = energy_breakdown(u, v_one, 4.0)
            r, _ = el_residual(u, v_one, 4.0)
            ip = grid.h**3 * float(np.sum(r.values * u.values))
            assert eb.G == pytest.approx(ip, rel=1e-10)

    def test_norm_is_weighted_l2(self, grid, v_one):
        u = fields(grid, 1, seed=5)[0]
        r, norm = el_residual(u, v_one, 4.0)
        assert norm == pytest.approx(math.sqrt(integrate(ScalarField(grid, r.values**2))))


class TestKineticVariants:
    def test_spectral_matches_fd_for_smooth_field(self):
        g = GridSpec(L=8.0, n=48)
        u = ScalarField.from_function(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 4.0))
        t_fd = kinetic_energy(u, "fd")
        t_sp = kinetic_energy(u, "spectral")
        assert t_sp == pytest.approx(t_fd, rel=0.01)

    def test_spectral_is_quadratic_form_of_its_laplacian(self, grid):
        u = fields(grid, 1, seed=6)[0]
        t = kinetic_energy(u, "spectral")
        ip = grid.h**3 * float(np.sum(u.values * minus_laplacian(u, "spectral").values))
        assert t == pytest.approx(ip, rel=1e-12)

    def test_unknown_variant_rejected(self, grid):
        u = fields(grid, 1)[0]
        with pytest.raises(ValueError):
            kinetic_energy(u, "secret")


class TestPrecondition:
    def test_zero(self, grid):
        out = precondition(ScalarField.zeros(grid))
        assert np.all(out.values == 0.0)

    def test_linearity(self, grid):
        r = fields(grid, 1, seed=7)[0]
        a = precondition(ScalarField(grid, 3.0 * r.values))
        b = precondition(r)
        assert np.allclose(a.values, 3.0 * b.values, rtol=1e-12)

    def test_eigenmode_relation(self, grid):
        # a product of sine modes is an eigenvector of the zero-ghost
        # 7-point Laplacian; the preconditioner must divide by mu + 1
        n, h = grid.n, grid.h
        j = np.arange(n)

        def axis_mode(k):
            return np.sin(np.pi * k * (j + 1) / (n + 1))

        mode3d = (
            axis_mode(1)[:, None, None]
            * axis_mode(2)[None, :, None]
            * axis_mode(3)[None, None, :]
        )
        r = ScalarField.from_3d(grid, mode3d)
        mu = sum((4.0 / h**2) * math.sin(math.pi * k / (2 * (n + 1))) ** 2 for k in (1, 2, 3))
        out = precondition(r)
        assert np.allclose(out.values, r.values / (mu + 1.0), rtol=1e-8)

    def test_positive_definite(self, grid):
        for r in fields(grid, 4, seed=8):
            out = precondition(r)
            assert grid.h**3 * float(np.sum(out.values * r.values)) > 0.0

    @pytest.mark.parametrize("n", [32, 64])
    def test_symmetric_and_positive_on_large_grids(self, n):
        g = GridSpec(L=6.0, n=n)
        rng = np.random.default_rng(n)
        a, b = (ScalarField(g, rng.standard_normal(g.num_nodes)) for _ in range(2))
        pa, pb = precondition(a), precondition(b)
        paa = float(np.dot(pa.values, a.values))
        pbb = float(np.dot(pb.values, b.values))
        assert paa > 0.0 and pbb > 0.0
        cross = float(np.dot(pa.values, b.values)) - float(np.dot(a.values, pb.values))
        assert abs(cross) <= 1e-13 * math.sqrt(paa * pbb)


class TestBreakdownDataclass:
    def test_from_scalars_formulas(self):
        eb = EnergyBreakdown.from_scalars(2.0, 1.0, 4.0, 4.0)
        assert eb.I == pytest.approx(2.0 / 2 + 1.0 / 4 - 4.0 / 5)
        assert eb.G == pytest.approx(2.0 + 1.0 - 4.0)
        assert eb.J == pytest.approx((0.5 - 0.2) * 2.0 + (0.25 - 0.2) * 1.0)
        assert eb.magnitude == pytest.approx(7.0)
